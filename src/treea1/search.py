"""Randomized local search for weights that saturate the rearrangement bound.

The objective is sup_ratio(w*) / (k*c - k + 1), which the bound caps at 1.
The climb scores its moves in floats for speed, on an incremental state: a
single-leaf move recomputes only that leaf's ancestor chain and keeps the
leaves sorted, and every score, so every trace, is bit-identical to a full
float re-evaluation of the leaves.  Every candidate is still an exact
rational weight built from exact perturbation factors, so the reported best
re-verifies exactly with no float in the loop's way.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import truediv
from typing import NamedTuple

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


class MoveCounts(NamedTuple):
    """What one restart's moves did: kept, undone, and float scores replaced by the exact objective."""

    accepted: int
    rejected: int
    fallbacks: int


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_weight: StepWeight
    best_objective: float
    exact_objective: Fraction
    best_restart: int
    trace: tuple[float, ...]
    # one per restart, in restart order
    restart_counts: tuple[MoveCounts, ...]


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


class _FloatClimb:
    """The climb's float objective, kept up to date one leaf at a time.

    Per level above the leaves the state holds the node sums, the smallest
    leaf under each node and the node ratio (sum / k**level) / that leaf; the
    leaf floats are also kept in ascending order.  ``set`` rewrites one leaf
    and recomputes only its m ancestors, each from its k children.  ``score``
    takes c as the largest node ratio (a leaf's own ratio is 1.0): the
    rounded quotient avg / v only falls as v grows, so this is the largest
    quotient of an ancestor's average over a leaf, as a full re-evaluation
    finds it.  Node sums go through builtin ``sum`` over the k children and
    prefix sums through plain ``+``, so every score is bit-identical to one
    computed from scratch on the same leaves.
    """

    def __init__(self, k: int, m: int, values: list[float]):
        self._k = k
        self._widths = [k**level for level in range(m + 1)]
        self._sums = [list(values)]
        self._mins = [self._sums[0]]
        self._ratios: list[list[float]] = []
        for width in self._widths[1:]:
            below_sums, below_mins = self._sums[-1], self._mins[-1]
            sums = [sum(below_sums[i : i + k]) for i in range(0, len(below_sums), k)]
            mins = [min(below_mins[i : i + k]) for i in range(0, len(below_mins), k)]
            self._sums.append(sums)
            self._mins.append(mins)
            self._ratios.append([(s / width) / v for s, v in zip(sums, mins)])
        self._ascending = sorted(values)

    def set(self, pos: int, x: float) -> float:
        """Make leaf ``pos`` equal to ``x``; returns the leaf's old float, which undoes the move."""
        leaves = self._sums[0]
        old = leaves[pos]
        leaves[pos] = x
        del self._ascending[bisect_left(self._ascending, old)]
        insort(self._ascending, x)
        k = self._k
        for level in range(1, len(self._sums)):
            first = pos - pos % k
            pos //= k
            s = self._sums[level][pos] = sum(self._sums[level - 1][first : first + k])
            v = self._mins[level][pos] = min(self._mins[level - 1][first : first + k])
            self._ratios[level - 1][pos] = (s / self._widths[level]) / v
        return old

    def score(self) -> float:
        """sup_ratio(w*) / (k*c - k + 1) of the current leaves, in floats."""
        c = max(1.0, *map(max, self._ratios))
        # sup of prefix-average ratios over sorted leaf boundaries; boundaries
        # interior to a constant run can only tie or lose, so no coalescing needed
        descending = self._ascending[::-1]
        averages = map(truediv, accumulate(descending), range(1, len(descending)))
        best = max(1.0, max(map(truediv, averages, descending[1:])))
        return best / (self._k * c - self._k + 1)


def hill_climb(config: SearchConfig) -> SearchResult:
    """Seeded multi-restart climb with multiplicative single-leaf moves.

    Each restart keeps one incremental float state of its leaves: a move, and
    the undo of a rejected move, recomputes only the moved leaf's ancestor
    chain, and every score is bit-identical to a full float re-evaluation, so
    the trace is too.  A score above 1 + ``_FLOAT_SLACK`` is float drift and
    is replaced by the exact objective.  Moves that do not decrease the
    objective are accepted (the landscape is full of plateaus).  The trace
    records the global best-so-far after every iteration; ties between
    restarts keep the lowest restart index.  The returned best weight is
    re-verified exactly and must satisfy objective <= 1.
    """
    k, m = config.shape.k, config.shape.m
    n = config.shape.leaf_count
    fallbacks = 0

    def evaluate(climb: _FloatClimb, values: list[Fraction]) -> float:
        nonlocal fallbacks
        score = climb.score()
        if score > 1 + _FLOAT_SLACK:
            # float drift past the slack: fall back to the exact truth
            fallbacks += 1
            score = float(_exact_at_most_one(StepWeight(config.shape, tuple(values))))
        return score

    master = random.Random(config.seed)
    restart_seeds = [master.randrange(2**63) for _ in range(config.restarts)]

    trace: list[float] = []
    counts: list[MoveCounts] = []
    global_best = -math.inf
    best_values: tuple[Fraction, ...] | None = None
    best_restart = 0

    for restart, restart_seed in enumerate(restart_seeds):
        rng = random.Random(restart_seed)
        values = [Fraction(rng.randint(1, 16)) for _ in range(n)]
        climb = _FloatClimb(k, m, [float(v) for v in values])
        accepted = fallbacks = 0
        current = evaluate(climb, values)
        if current > global_best:
            global_best, best_values, best_restart = current, tuple(values), restart

        for _ in range(config.iterations):
            pos = rng.randrange(n)
            factor = Fraction(_FACTOR_DENOM + rng.randint(-_STEP_SPAN, _STEP_SPAN), _FACTOR_DENOM)
            candidate = values[pos] * factor
            if candidate < _VALUE_FLOOR:
                candidate = _VALUE_FLOOR
            old_value = values[pos]
            values[pos] = candidate
            old_float = climb.set(pos, float(candidate))
            score = evaluate(climb, values)
            if score >= current:
                current = score
                accepted += 1
            else:
                values[pos] = old_value
                climb.set(pos, old_float)
            if current > global_best:
                global_best, best_values, best_restart = current, tuple(values), restart
            trace.append(global_best)
        counts.append(MoveCounts(accepted, config.iterations - accepted, fallbacks))

    assert best_values is not None
    best_weight = StepWeight(config.shape, best_values)
    exact = _exact_at_most_one(best_weight)
    return SearchResult(
        best_weight=best_weight,
        best_objective=global_best,
        exact_objective=exact,
        best_restart=best_restart,
        trace=tuple(trace),
        restart_counts=tuple(counts),
    )
