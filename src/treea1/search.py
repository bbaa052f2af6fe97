"""Randomized local search for weights that saturate the rearrangement bound.

The objective is sup_ratio(w*) / (k*c - k + 1), which the bound caps at 1.
The climb itself runs on a throwaway float evaluator for speed, but every
candidate is an exact rational weight built from exact perturbation factors,
so the reported best re-verifies exactly with no float in the loop's way.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, ViolationError
from .tree import TreeShape
from .verify import check_rearrangement_bound
from .weights import StepWeight, weight_to_text

# Perturbation factors are drawn from the rational grid 1 + q/_FACTOR_DENOM,
# |q| <= _STEP_SPAN; a move never takes a leaf below _VALUE_FLOOR.
_FACTOR_DENOM = 1 << 20
_STEP_SPAN = int(0.3 * _FACTOR_DENOM)
_VALUE_FLOOR = Fraction(1e-9)
_FLOAT_SLACK = 2.0**-40
# Most moves (iterations * restarts) one search may make: the trace keeps one
# entry per move, so longer searches are refused before anything is allocated.
MAX_MOVES = 1_000_000


@dataclass(frozen=True)
class SearchConfig:
    shape: TreeShape
    iterations: int
    restarts: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.iterations, int) or isinstance(self.iterations, bool) or self.iterations < 1:
            raise ParameterError(f"iterations must be a positive integer, got {self.iterations!r}")
        if not isinstance(self.restarts, int) or isinstance(self.restarts, bool) or self.restarts < 1:
            raise ParameterError(f"restarts must be a positive integer, got {self.restarts!r}")
        if self.iterations * self.restarts > MAX_MOVES:
            raise ParameterError(
                f"iterations * restarts must be at most {MAX_MOVES}, got {self.iterations} * {self.restarts}"
            )


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_weight: StepWeight
    best_objective: float
    exact_objective: Fraction
    best_restart: int
    trace: tuple[float, ...]


def objective_exact(w: StepWeight) -> Fraction:
    """sup_ratio(w*) / (k*c - k + 1) as an exact rational; <= 1 always."""
    report = check_rearrangement_bound(w)
    return report.sup_ratio / report.bound


def _exact_at_most_one(w: StepWeight) -> Fraction:
    """The exact objective of w, which must stay <= 1 or the bound itself is broken."""
    exact = objective_exact(w)
    if exact > 1:
        raise ViolationError(
            f"search objective {exact} exceeds 1, contradicting the bound",
            weight_text=weight_to_text(w),
            check="objective",
            detail=f"exact objective {exact}",
        )
    return exact


def _objective_float(k: int, m: int, values: list[float]) -> float:
    """Fast float evaluation used inside the climb loop only."""
    # maximal function via level sums and a top-down running max
    sums = values
    averages = [values]
    for _ in range(m):
        sums = [sum(sums[k * i + j] for j in range(k)) for i in range(len(sums) // k)]
        width = len(values) // len(sums)
        averages.append([s / width for s in sums])
    averages.reverse()
    running = averages[0]
    for level in range(1, m + 1):
        running = [max(running[i // k], a) for i, a in enumerate(averages[level])]
    c = max(mf / v for mf, v in zip(running, values))
    bound = k * c - k + 1

    # sup of prefix-average ratios over sorted leaf boundaries; boundaries
    # interior to a constant run can only tie or lose, so no coalescing needed
    ordered = sorted(values, reverse=True)
    best = 1.0
    prefix = 0.0
    for j in range(1, len(ordered)):
        prefix += ordered[j - 1]
        best = max(best, (prefix / j) / ordered[j])
    return best / bound


def hill_climb(config: SearchConfig) -> SearchResult:
    """Seeded multi-restart climb with multiplicative single-leaf moves.

    Moves that do not decrease the float objective are accepted (the
    landscape is full of plateaus).  The trace records the global
    best-so-far after every iteration; ties between restarts keep the lowest
    restart index.  The returned best weight is re-verified exactly and must
    satisfy objective <= 1.
    """
    k, m = config.shape.k, config.shape.m
    n = config.shape.leaf_count

    def evaluate(floats: list[float], values: list[Fraction]) -> float:
        score = _objective_float(k, m, floats)
        if score > 1 + _FLOAT_SLACK:
            # float drift past the slack: fall back to the exact truth
            score = float(_exact_at_most_one(StepWeight(config.shape, tuple(values))))
        return score

    master = random.Random(config.seed)
    restart_seeds = [master.randrange(2**63) for _ in range(config.restarts)]

    trace: list[float] = []
    global_best = -math.inf
    best_values: tuple[Fraction, ...] | None = None
    best_restart = 0

    for restart, restart_seed in enumerate(restart_seeds):
        rng = random.Random(restart_seed)
        values = [Fraction(rng.randint(1, 16)) for _ in range(n)]
        floats = [float(v) for v in values]
        current = evaluate(floats, values)
        if current > global_best:
            global_best, best_values, best_restart = current, tuple(values), restart

        for _ in range(config.iterations):
            pos = rng.randrange(n)
            factor = Fraction(_FACTOR_DENOM + rng.randint(-_STEP_SPAN, _STEP_SPAN), _FACTOR_DENOM)
            candidate = values[pos] * factor
            if candidate < _VALUE_FLOOR:
                candidate = _VALUE_FLOOR
            old_value, old_float = values[pos], floats[pos]
            values[pos], floats[pos] = candidate, float(candidate)
            score = evaluate(floats, values)
            if score >= current:
                current = score
            else:
                values[pos], floats[pos] = old_value, old_float
            if current > global_best:
                global_best, best_values, best_restart = current, tuple(values), restart
            trace.append(global_best)

    assert best_values is not None
    best_weight = StepWeight(config.shape, best_values)
    exact = _exact_at_most_one(best_weight)
    return SearchResult(
        best_weight=best_weight,
        best_objective=global_best,
        exact_objective=exact,
        best_restart=best_restart,
        trace=tuple(trace),
    )
