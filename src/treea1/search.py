"""Randomized local search for weights that saturate the rearrangement bound.

The objective is sup_ratio(w*) / (k*c - k + 1), which the bound caps at 1.
Every leaf a search makes is dyadic (int start values, factors over 2**20,
a dyadic floor), so each restart holds its leaves exactly as int numerators
over powers of two, and a move is one int multiply.  The climb scores its
moves in floats for speed, on an incremental state: a single-leaf move
recomputes only that leaf's ancestor chain and keeps the leaves sorted, a
rejected move restores the chain it saved, and every score, so every trace,
is bit-identical to a full float re-evaluation of the leaves.  The reported
best is built from the exact leaves and re-verifies exactly with no float in
the loop's way.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import truediv
from typing import NamedTuple

from .errors import ParameterError
from .rationals import _check_int
from .tree import TreeShape
from .verify import _require, check_rearrangement_bound
from .weights import StepWeight, _check_seed

# Perturbation factors are drawn from the rational grid 1 + q/_FACTOR_DENOM,
# |q| <= _STEP_SPAN; a move never takes a leaf below _VALUE_FLOOR.
_FACTOR_BITS = 20
_FACTOR_DENOM = 1 << _FACTOR_BITS
_STEP_SPAN = int(0.3 * _FACTOR_DENOM)
_VALUE_FLOOR = Fraction(1e-9)
# The floor as a dyadic num / 2**exp, in lowest terms (a float's ratio is dyadic).
_FLOOR_NUM, _FLOOR_EXP = _VALUE_FLOOR.numerator, _VALUE_FLOOR.denominator.bit_length() - 1
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
        _check_int(self.iterations, "iterations", 1)
        _check_int(self.restarts, "restarts", 1)
        if self.iterations * self.restarts > MAX_MOVES:
            raise ParameterError(
                f"iterations * restarts must be at most {MAX_MOVES}, got {self.iterations} * {self.restarts}"
            )
        _check_seed(self.seed)


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
    """sup_ratio(w*) / (k*c - k + 1) as an exact rational, at most 1.

    The bound check runs first, so a weight whose objective would exceed 1
    raises ViolationError under check ``bound``, with the bound's detail.
    """
    report = check_rearrangement_bound(w)
    _require(("bound",), report)
    return report.sup_ratio / report.bound


def _move(num: int, exp: int, factor: int) -> tuple[int, int]:
    """The leaf num / 2**exp times factor / 2**20, raised to _VALUE_FLOOR if below it.

    Returns (num, exp) in lowest terms, as ``Fraction`` keeps the same value:
    exp is 0 or num is odd.  ``num / (1 << exp)`` is then the leaf's float,
    the correctly rounded quotient that ``float(Fraction)`` also gives.
    """
    num *= factor
    exp += _FACTOR_BITS
    shift = min((num & -num).bit_length() - 1, exp)
    num >>= shift
    exp -= shift
    if num << _FLOOR_EXP < _FLOOR_NUM << exp:
        return _FLOOR_NUM, _FLOOR_EXP
    return num, exp


def _leaf_fractions(nums, exps) -> tuple[Fraction, ...]:
    """The leaves nums[i] / 2**exps[i] as ``Fraction``s, for the exact objective."""
    return tuple([Fraction(num, 1 << exp) for num, exp in zip(nums, exps)])


class _FloatClimb:
    """The climb's float objective, kept up to date one leaf at a time.

    Per level above the leaves the state holds the node sums, the smallest
    leaf under each node and the node ratio (sum / k**level) / that leaf; the
    leaf floats are also kept in ascending order.  ``set`` rewrites one leaf
    and recomputes only its m ancestors, each from its k children; it saves
    what it overwrote, so ``undo`` puts the ancestors and the sorted leaves
    back as they were without recomputing anything.  ``score`` takes c as the
    largest node ratio (a leaf's own ratio is 1.0): the rounded quotient
    avg / v only falls as v grows, so this is the largest quotient of an
    ancestor's average over a leaf, as a full re-evaluation finds it.  Node
    sums go through builtin ``sum`` over the k children and prefix sums
    through plain ``+``, so every score is bit-identical to one computed
    from scratch on the same leaves.
    """

    def __init__(self, k: int, m: int, values: list[float]):
        self._k = k
        widths = [k**level for level in range(1, m + 1)]
        self._sums = [list(values)]
        self._mins = [self._sums[0]]
        self._ratios: list[list[float]] = []
        for width in widths:
            below_sums, below_mins = self._sums[-1], self._mins[-1]
            sums = [sum(below_sums[i : i + k]) for i in range(0, len(below_sums), k)]
            mins = [min(below_mins[i : i + k]) for i in range(0, len(below_mins), k)]
            self._sums.append(sums)
            self._mins.append(mins)
            self._ratios.append([(s / width) / v for s, v in zip(sums, mins)])
        self._ascending = sorted(values)
        # per level above the leaves: the rows a move reads below it and rewrites at it
        self._levels = list(zip(self._sums, self._mins, self._sums[1:], self._mins[1:], self._ratios, widths))
        self._saved: tuple = ()

    def set(self, pos: int, x: float) -> float:
        """Make leaf ``pos`` equal to ``x``; returns the leaf's old float.

        Either ``undo()`` or ``set(pos, old)`` takes the move back.
        """
        leaves = self._sums[0]
        old = leaves[pos]
        leaves[pos] = x
        ascending = self._ascending
        removed = bisect_left(ascending, old)
        del ascending[removed]
        inserted = bisect_right(ascending, x)
        ascending.insert(inserted, x)
        saved = []
        self._saved = (pos, old, removed, inserted, saved)
        k = self._k
        for below_sums, below_mins, sums, mins, ratios, width in self._levels:
            first = pos - pos % k
            pos //= k
            saved.append((sums[pos], mins[pos], ratios[pos]))
            s = sums[pos] = sum(below_sums[first : first + k])
            v = mins[pos] = min(below_mins[first : first + k])
            ratios[pos] = (s / width) / v
        return old

    def undo(self) -> None:
        """Take back the last ``set``: write back the saved ancestors, the old leaf and the sorted leaves."""
        pos, old, removed, inserted, saved = self._saved
        self._sums[0][pos] = old
        del self._ascending[inserted]
        self._ascending.insert(removed, old)
        k = self._k
        for (_, _, sums, mins, ratios, _), (s, v, r) in zip(self._levels, saved):
            pos //= k
            sums[pos], mins[pos], ratios[pos] = s, v, r

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

    Each restart holds its leaves exactly, as int numerators over powers of
    two, so a move is one int multiply (:func:`_move`), and keeps one
    incremental float state of them: a move recomputes only the moved leaf's
    ancestor chain, a rejected move restores the chain it saved, and every
    score is bit-identical to a full float re-evaluation, so the trace is
    too.  A score above 1 + ``_FLOAT_SLACK`` is float drift and is replaced
    by the exact objective.  Moves that do not decrease the objective are
    accepted (the landscape is full of plateaus).  The trace records the
    global best-so-far after every iteration; ties between restarts keep the
    lowest restart index.  The returned best weight, like every fallback,
    is re-verified by :func:`objective_exact`, whose bound check raises
    ViolationError if its objective exceeds 1.
    """
    k, m = config.shape.k, config.shape.m
    n = config.shape.leaf_count

    def evaluate(climb: _FloatClimb, nums: list[int], exps: list[int]) -> float:
        nonlocal fallbacks
        score = climb.score()
        if score > 1 + _FLOAT_SLACK:
            # float drift past the slack: fall back to the exact truth
            fallbacks += 1
            score = float(objective_exact(StepWeight(config.shape, _leaf_fractions(nums, exps))))
        return score

    master = random.Random(config.seed)
    restart_seeds = [master.randrange(2**63) for _ in range(config.restarts)]
    # a move's draws, rng.randrange(n) and rng.randint(-_STEP_SPAN, _STEP_SPAN),
    # unrolled as randrange runs them: draw bound.bit_length() bits until the
    # draw is below the bound, so every move is the one randrange would make
    steps = 2 * _STEP_SPAN + 1
    pos_bits, step_bits = n.bit_length(), steps.bit_length()
    lowest_factor = _FACTOR_DENOM - _STEP_SPAN

    trace: list[float] = []
    counts: list[MoveCounts] = []
    global_best = -math.inf
    best_leaves: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    best_restart = 0

    for restart, restart_seed in enumerate(restart_seeds):
        rng = random.Random(restart_seed)
        getrandbits = rng.getrandbits
        nums = [rng.randint(1, 16) for _ in range(n)]
        exps = [0] * n
        climb = _FloatClimb(k, m, [float(num) for num in nums])
        accepted = fallbacks = 0
        current = evaluate(climb, nums, exps)
        if current > global_best:
            global_best, best_leaves, best_restart = current, (tuple(nums), tuple(exps)), restart

        for _ in range(config.iterations):
            pos = getrandbits(pos_bits)
            while pos >= n:
                pos = getrandbits(pos_bits)
            step = getrandbits(step_bits)
            while step >= steps:
                step = getrandbits(step_bits)
            old_num, old_exp = nums[pos], exps[pos]
            num, exp = nums[pos], exps[pos] = _move(old_num, old_exp, lowest_factor + step)
            climb.set(pos, num / (1 << exp))
            score = evaluate(climb, nums, exps)
            if score >= current:
                current = score
                accepted += 1
            else:
                nums[pos], exps[pos] = old_num, old_exp
                climb.undo()
            if current > global_best:
                global_best, best_leaves, best_restart = current, (tuple(nums), tuple(exps)), restart
            trace.append(global_best)
        counts.append(MoveCounts(accepted, config.iterations - accepted, fallbacks))

    assert best_leaves is not None
    best_weight = StepWeight(config.shape, _leaf_fractions(*best_leaves))
    exact = objective_exact(best_weight)
    return SearchResult(
        best_weight=best_weight,
        best_objective=global_best,
        exact_objective=exact,
        best_restart=best_restart,
        trace=tuple(trace),
        restart_counts=tuple(counts),
    )
