"""Exact verification of the rearrangement bound and its supporting structure.

All comparisons here are exact rational comparisons with zero tolerance:
floating point never enters this module.  A failed check raises
:class:`~treea1.errors.ViolationError` carrying the serialized weight, since
on correct inputs every check is a proved inequality and a failure means an
implementation bug (or a genuine counterexample, which would be news).
"""
from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ParameterError, ViolationError
from .maximal import WeightAnalysis, a1_constant, analyze, stopping_family, superlevel_set
from .oracles import maximal_function_bruteforce
from .rationals import _check_int, _check_t, _detail_string, _positive, as_fraction
from .rearrangement import RearrangedProfile, _scaled_integral, kadic_constant, prefix_average, rearrange, sup_ratio
from .tree import ROOT, NodeId, TreeShape, make_shape
from .weights import (
    ExtremalParams, StepWeight, _canonical_grid, _check_seed, _draw, _from_grid, extremal_family,
    family_constant_formula, weight_hash, weight_to_text,
)

ALL_CHECKS = ("stopping", "growth", "weak_type", "decomposition", "oracle", "kadic")
# check name -> the flag field it fills in VerificationReport / WeightRow
_FLAG_FIELDS = {
    "stopping": "stopping_consistent",
    "growth": "growth_bound_ok",
    "weak_type": "weak_type_ok",
    "decomposition": "decomposition_ok",
    "oracle": "oracle_match",
    "kadic": "kadic_ok",
}
_REPORT_CHECKS = ("stopping", "growth", "weak_type", "decomposition")
# Most weights one campaign may examine, random or exhaustive: a campaign holds
# a seed for every trial and a row for every weight, so larger campaigns are
# refused before anything is allocated.
MAX_WEIGHTS = 500_000
# Least work, in leaves (trials * k**m), a pooled campaign gives each worker.
# Measured on 2 cores with Python 3.11: importing the process pool takes about
# 16 ms and starting and joining 2 workers 9-11 ms, while all checks cost about
# 3.0 us per leaf at 256 leaves and 2.5 us at 1,024, so this is 20-25 ms per
# worker, about the 25 ms start-up; a campaign with less work runs in this
# process.
MIN_LEAVES_PER_WORKER = 8192
# Most distinct leaf values, summed over the histograms whose profiles one
# campaign chunk keeps.  A kept profile and its key hold a few tuples as long as
# its histogram, so this bounds the chunk's memory even when histograms never
# repeat and each holds many values, as in a long fuzz campaign on a wide grid.
MAX_CHUNK_PROFILE_VALUES = 4096


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Exact comparison of the rearrangement sup-ratio against k*c - k + 1."""

    c: Fraction
    bound: Fraction
    sup_ratio: Fraction
    margin: Fraction
    witness: Fraction
    holds: bool
    profile: RearrangedProfile  # the decreasing rearrangement w*
    analysis: WeightAnalysis  # the tables every check and audit reads
    stopping_consistent: bool | None = None
    growth_bound_ok: bool | None = None
    weak_type_ok: bool | None = None
    decomposition_ok: bool | None = None
    audits: tuple["SuperlevelAudit", ...] | None = None


@dataclass(frozen=True, eq=False)
class LevelAudit:
    """Quantities of the superlevel set {maximal_function > c * level} at one level w*(t).

    They depend on t only through the level, so one record is built per
    rearrangement piece and shared by every audit on that piece.  When the
    set is empty the record is degenerate and ``average_bounded`` reports the
    leafwise fallback w <= c * level; the other flags are vacuously true.
    """

    level_value: Fraction  # w*(t)
    threshold: Fraction  # c * w*(t)
    degenerate: bool
    nodes: tuple[NodeId, ...]
    superlevel_measure: Fraction  # mu of the superlevel set
    above_threshold_measure: Fraction  # mu of {w > c * w*(t)}
    set_average: Fraction | None
    nodes_are_members: bool
    average_bounded: bool  # set average <= (k*c-k+1) * w*(t); leafwise fallback if degenerate
    inside_level_set: bool  # superlevel set is contained in {w > w*(t)}


class SuperlevelAudit(NamedTuple):
    """The superlevel audit at one t: the level record of t's piece and the two comparisons with t.

    The per-piece quantities are read as ``audit.level.<name>``; only the two
    flags that compare the set with t itself are computed per t, when the
    audit is built.  ``checks`` gathers all five flags by name.
    """

    t: Fraction
    level: LevelAudit
    dominates_prefix: bool  # set average >= prefix average at t
    measures_ordered: bool  # mu{w > c*w*(t)} <= mu(superlevel set) <= t

    @property
    def checks(self) -> dict[str, bool]:
        """The five flags by name, in the order ``inspect --json`` lists them."""
        level = self.level
        return {
            "nodes_are_members": level.nodes_are_members,
            "average_bounded": level.average_bounded,
            "dominates_prefix": self.dominates_prefix,
            "inside_level_set": level.inside_level_set,
            "measures_ordered": self.measures_ordered,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True, eq=False)
class GrowthCheck:
    """Result of the member-growth inequality over star links.

    ``violation`` is None when the check holds, otherwise the offending
    (member, star, member average, star average, allowed limit).
    """

    ok: bool
    violation: tuple[NodeId, NodeId, Fraction, Fraction, Fraction] | None = None


def average_thresholds(w: StepWeight | WeightAnalysis) -> tuple[Fraction, ...]:
    """All distinct node averages, ascending; superlevel sets only change here."""
    a = analyze(w)
    return tuple(Fraction(x, a.unit) for x in sorted({x for row in a.scaled_averages for x in row}))


def check_weak_type(w: StepWeight | WeightAnalysis, level) -> bool:
    """Strict weak-type inequality mu(E) < (1/level) * integral of w over E.

    E is the superlevel set {maximal_function > level}; vacuously true when
    E is empty.  This is the check at one level, on the maximal nodes that
    :func:`~treea1.maximal.superlevel_set` walks down the node averages to
    find; the ``weak_type`` check of reports and campaigns covers every node
    average in one sorted sweep of the maximal function instead, and this
    function is its test oracle.

    With W leaves under E, S their scaled sum and level = p/q, mu(E) = W/n
    and the integral is S/(unit*n), so the inequality is ``W*p*unit < S*q``.
    """
    lam = _positive(level, "weak-type level")
    a = analyze(w)
    nodes = superlevel_set(a, lam)
    if not nodes:
        return True
    count, total, _ = _leaves_and_sum(a, nodes)
    return count * lam.numerator * a.unit < total * lam.denominator


def _leaves_and_sum(a: WeightAnalysis, nodes: Sequence[NodeId]) -> tuple[int, int, list[int]]:
    """Leaf count under the disjoint nodes, their leaf sum times ``unit`` (average times width) and the widths."""
    k, m = a.weight.shape.k, a.weight.shape.m
    widths = [k ** (m - node.level) for node in nodes]
    total = sum(a.scaled_averages[node.level][node.index] * width for node, width in zip(nodes, widths))
    return sum(widths), total, widths


def check_stopping_consistency(w: StepWeight | WeightAnalysis) -> bool:
    """The criterion-based members coincide with the image of the assignment."""
    fam = stopping_family(w)
    return set(fam.assignment) == set(fam.members)


def check_decomposition(w: StepWeight | WeightAnalysis) -> bool:
    """Sum of member averages over the leaf partition reconstructs the maximal function.

    Compared as the analysis's scaled ints: the average of the member the
    stopping family's sweep assigns each leaf, against the maximal function
    from the kernel's sweep.
    """
    a = analyze(w)
    table, mf = a.scaled_averages, a.scaled_maximal
    return all(
        table[node.level][node.index] == mf[leaf]
        for leaf, node in enumerate(stopping_family(a).assignment)
    )


def check_oracle_equality(w: StepWeight | WeightAnalysis) -> bool:
    """Fast maximal function agrees with :func:`~treea1.oracles.maximal_function_bruteforce`.

    The oracle takes and returns ``Fraction``s; inside, it recomputes every
    node's sum from prefix sums of the leaf values in ints at its own scale,
    one cross-multiplied comparison per node and per leaf, sharing no code
    with the kernel's int sweep.  Each oracle value f is compared with the
    kernel's scaled int x = M(leaf) * unit in ints, ``f.numerator * unit ==
    x * f.denominator``, so no ``Fraction`` view of the kernel is built.
    """
    a = analyze(w)
    unit, scaled = a.unit, a.scaled_maximal
    oracle = maximal_function_bruteforce(a.weight)
    return len(oracle) == len(scaled) and all(
        f.numerator * unit == x * f.denominator for f, x in zip(oracle, scaled)
    )


def check_growth_bound(w: StepWeight | WeightAnalysis) -> GrowthCheck:
    """For every member J with star link I: Av(I) < Av(J) <= (k - (k-1)/c) * Av(I).

    ``c`` is the measured A1 constant.  The comparison runs on the
    analysis's scaled averages: with c = P/Q the limit is
    (k*P - (k-1)*Q) / P times Av(I), so the upper inequality is
    ``y_member * P <= (k*P - (k-1)*Q) * y_star`` in ints.  The violation's
    ``Fraction`` tuple is built only on failure.
    """
    a = analyze(w)
    c = a1_constant(a)
    k, table = a.weight.shape.k, a.scaled_averages
    fam = stopping_family(a)
    p, q = c.numerator, c.denominator
    factor = k * p - (k - 1) * q  # the limit's factor times P
    for member in fam.members:
        if member == ROOT:
            continue
        star = fam.star[member]
        y_star = table[star.level][star.index]
        y_member = table[member.level][member.index]
        if not (y_star < y_member and y_member * p <= factor * y_star):
            limit = Fraction(factor * y_star, p * a.unit)
            return GrowthCheck(False, (member, star, Fraction(y_member, a.unit), Fraction(y_star, a.unit), limit))
    return GrowthCheck(True)


def audit_grid(w: StepWeight) -> tuple[Fraction, ...]:
    """Canonical t grid for superlevel audits: one level finer than the weight.

    The grid {j / k**(m+1)} lands strictly inside and at the end of every
    rearrangement piece, so it exercises both sides of each breakpoint.
    """
    grain = w.shape.k ** (w.shape.m + 1)
    return tuple(Fraction(j, grain) for j in range(1, grain + 1))


def check_rearrangement_bound(
    w: StepWeight | WeightAnalysis, properties: bool = False, with_audits: bool = False, *,
    _side: _Rearranged | None = None,
) -> VerificationReport:
    """Exact comparison of sup_ratio(w*) against k*c - k + 1 for the weight.

    This is the one path that forms c, the bound, w*, the sup-ratio, its
    witness and the margin.  With c = p/q the bound is the one ``Fraction``
    ``(k*p - (k-1)*q) / q``, and the margin is formed from it per weight.
    w*, the sup-ratio and the witness come from a :class:`_Rearranged` of
    the weight's leaf histogram, built here unless a campaign chunk passes
    the one it shares between the weights of that histogram as ``_side``.
    With ``properties=True`` the report also runs the structural checks
    (stopping consistency, member growth, weak type at every node-average
    threshold, decomposition identity); with ``with_audits=True`` it carries
    the :class:`SuperlevelAudit` of every t on the canonical grid, in grid
    order, from one walk of :func:`_audits`.  Omitted parts stay None.
    """
    a = analyze(w)
    side = _side or _Rearranged(a)
    c = a1_constant(a)
    k, p, q = a.weight.shape.k, c.numerator, c.denominator
    bound = Fraction(k * p - (k - 1) * q, q)
    margin = bound - side.ratio
    report = VerificationReport(
        c=c,
        bound=bound,
        sup_ratio=side.ratio,
        margin=margin,
        witness=side.witness,
        holds=margin >= 0,
        profile=side.profile,
        analysis=a,
    )
    if properties:
        report = replace(
            report,
            **{_FLAG_FIELDS[name]: _failure(name, report) is None for name in _REPORT_CHECKS},
        )
    if with_audits:
        report = replace(report, audits=tuple(_audits(report, audit_grid(a.weight))))
    return report


class _Rearranged:
    """What a report takes from the leaf histogram alone: w*, its sup-ratio and witness, and the k-adic constant.

    ``rearrange``, ``sup_ratio`` and ``kadic_constant`` are looked up on this
    module when called, so a replaced one reaches every campaign.  The k-adic
    constant is formed on the first call of :meth:`kadic`.
    """

    __slots__ = ("profile", "ratio", "witness", "_kadic")

    def __init__(self, a: WeightAnalysis, counts: Counter | None = None):
        self.profile = rearrange(a, _counts=counts)
        self.ratio, self.witness = sup_ratio(self.profile)
        self._kadic: Fraction | None = None

    def kadic(self, k: int, m: int) -> Fraction:
        if self._kadic is None:
            self._kadic = kadic_constant(self.profile, k, m)
        return self._kadic


class _ChunkProfiles:
    """The :class:`_Rearranged` sides one campaign chunk shares, by leaf histogram.

    The key is ints that fix w* for the chunk's one shape: the ``unit`` and
    the sorted (scaled leaf value, count) pairs, from one count of the leaves
    that :func:`rearrange` also builds w* from on a miss.  Sides are kept while
    ``values``, the distinct values of their histograms, stays within
    ``MAX_CHUNK_PROFILE_VALUES``; past that, a new histogram's side serves its
    own weight alone.
    """

    __slots__ = ("sides", "values")

    def __init__(self):
        self.sides: dict[tuple, _Rearranged] = {}
        self.values = 0

    def side(self, a: WeightAnalysis) -> _Rearranged:
        counts = Counter(a.scaled_averages[-1])
        key = (a.unit, *sorted(counts.items()))
        side = self.sides.get(key)
        if side is None:
            side = _Rearranged(a, counts)
            if self.values + len(counts) <= MAX_CHUNK_PROFILE_VALUES:
                self.sides[key] = side
                self.values += len(counts)
        return side


def _failure(name: str, report: VerificationReport, side: _Rearranged | None = None) -> str | None:
    """Detail of how the named check fails on the report's analysis, or None when it holds.

    Checks are looked up by their module-level names at call time, so a
    replaced ``check_*`` function takes effect everywhere.  The exception is
    weak type: it does not go through :func:`check_weak_type` once per
    threshold but through one sorted sweep, :func:`_weak_type_failure`, which
    names the smallest failing level.  The k-adic check, which only a
    campaign chunk runs, compares this weight's bound with the k-adic
    constant of ``side``, the histogram side the report was built from.
    """
    a = report.analysis
    if name == "bound":
        if report.margin >= 0 and report.c <= report.bound:
            return None
        c, bound = _detail_string(report.c), _detail_string(report.bound)
        if report.margin < 0:
            return f"sup_ratio={_detail_string(report.sup_ratio)} exceeds bound={bound} (c={c})"
        return f"c={c} exceeds bound={bound}, impossible for c >= 1"
    if name == "stopping":
        return None if check_stopping_consistency(a) else "criterion members differ from assignment image"
    if name == "growth":
        growth = check_growth_bound(a)
        return None if growth.ok else f"member growth violated at {_detail_string(growth.violation)}"
    if name == "weak_type":
        lam = _weak_type_failure(a)
        return None if lam is None else f"weak type fails at level {_detail_string(lam)}"
    if name == "decomposition":
        if check_decomposition(a):
            return None
        return "member averages over the partition do not rebuild the maximal function"
    if name == "oracle":
        return None if check_oracle_equality(a) else "fast maximal function disagrees with the prefix-sum oracle"
    # the remaining check, "kadic", reads the side's k-adic constant
    value = side.kadic(a.weight.shape.k, a.weight.shape.m)
    if value <= report.bound:
        return None
    return f"k-adic constant {_detail_string(value)} exceeds bound {_detail_string(report.bound)}"


def audit_superlevel(w: StepWeight | WeightAnalysis | VerificationReport, t) -> SuperlevelAudit:
    """Replicate the superlevel-set estimates behind the rearrangement bound at one t.

    With level = w*(t) and threshold = c * level: the maximal nodes of the
    superlevel set all belong to the stopping family, the average of w over
    the set is squeezed between the prefix average at t and (k*c-k+1)*level,
    the set sits inside {w > level}, and its measure sits between
    mu({w > threshold}) and t.  When the set is empty, w <= threshold must
    hold at every leaf.

    The result is the record ``check_rearrangement_bound(..., with_audits=True)``
    holds for this t, from the same walk of :func:`_audits`.  A report is read
    as it is; a weight or an analysis gets a new report for this one t, so a
    caller auditing many t should pass a report or ask
    :func:`check_rearrangement_bound` for ``with_audits=True``.
    """
    report = w if isinstance(w, VerificationReport) else check_rearrangement_bound(w)
    return next(_audits(report, (_check_t(t),)))


def _audits(report: VerificationReport, ts: Iterable[Fraction]) -> Iterator[SuperlevelAudit]:
    """The audit at each t of ``ts``, checked t values in ascending order, from one walk of the profile's pieces.

    The piece holding t only moves right, so the walk steps on while the
    piece ends before t.  The first t on a piece builds its
    :class:`LevelAudit`, whose level is the piece's value lam = w*(t), and
    every later t on the piece shares it.  Leaves are compared as the
    analysis's ints: lam and the threshold are leaf-level values times
    rationals, so ``x > threshold`` is ``x * d > bar``.  Beside the record the
    walk keeps the count ``above`` of leaves above the threshold, and the
    count of leaves under the set and their sum times ``unit``.  An empty set
    has count = total = 0: its record is degenerate with no set average,
    ``average_bounded`` is the leafwise fallback that no leaf exceeds the
    threshold, and the flags over its nodes are vacuously true.  Membership
    is read from the family's star links, the keys of every member but the
    root.

    Per t the walk makes two int comparisons.  With t = p/q and n leaves, the
    measures are above/n <= count/n <= p/q.  The set average
    total / (unit * count) is compared with the prefix average, the
    profile's scaled integral up to t over ``profile.n * profile.unit * p``,
    by cross-multiplication.  An empty set passes both vacuously.
    """
    a, profile = report.analysis, report.profile
    unit, leaves = a.unit, a.scaled_averages[-1]
    n = len(leaves)
    piece, level = 0, None
    for t in ts:
        p, q = t.numerator, t.denominator
        while profile.cumulative_cells[piece] * q < p * profile.n:
            piece, level = piece + 1, None
        if level is None:
            lam = Fraction(profile.scaled_values[piece], profile.unit)
            threshold = report.c * lam
            bar, d = threshold.numerator * unit, threshold.denominator
            above = sum(1 for x in leaves if x * d > bar)
            nodes = superlevel_set(a, threshold)
            count, total, widths = _leaves_and_sum(a, nodes)
            # the integral over the set is total / (unit * n); the measure is count / n
            set_average = Fraction(total, unit * count) if nodes else None
            level = LevelAudit(
                level_value=lam,
                threshold=threshold,
                degenerate=not nodes,
                nodes=nodes,
                superlevel_measure=Fraction(count, n),
                above_threshold_measure=Fraction(above, n),
                set_average=set_average,
                nodes_are_members=all(node in a.family.star or node == ROOT for node in nodes),
                average_bounded=above == 0 if set_average is None else set_average <= report.bound * lam,
                inside_level_set=all(
                    min(leaves[node.index * width : (node.index + 1) * width]) * lam.denominator
                    > lam.numerator * unit
                    for node, width in zip(nodes, widths)
                ),
            )
        if not count:
            yield SuperlevelAudit(t, level, True, True)
            continue
        integral = _scaled_integral(profile, piece, p * profile.n, q)
        dominates = total * profile.n * profile.unit * p >= integral * unit * count
        yield SuperlevelAudit(t, level, dominates, above <= count and count * q <= p * n)


def _weak_type_failure(a: WeightAnalysis) -> Fraction | None:
    """Smallest node average lam with mu(E) >= (1/lam) * integral of w over E, or None.

    E = {maximal_function > lam}.  One sorted sweep replaces a superlevel
    set per threshold: walking the scaled node averages x = lam * unit
    downwards, the leaves with scaled maximal function above x join E in
    order, and E keeps its leaf count and scaled leaf sum.  Then
    lam * mu(E) = x * count / (unit * n) and the integral of w over E is
    total / (unit * n), so the strict inequality is x * count < total.  An
    empty E holds vacuously.
    """
    by_maximal = sorted(zip(a.scaled_maximal, a.scaled_averages[-1]), reverse=True)
    levels = sorted({avg for row in a.scaled_averages for avg in row}, reverse=True)
    count = total = 0
    failing = None
    for x in levels:
        while count < len(by_maximal) and by_maximal[count][0] > x:
            total += by_maximal[count][1]
            count += 1
        if count and not x * count < total:
            failing = x  # the levels descend, so the last failure is the smallest
    return None if failing is None else Fraction(failing, a.unit)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class WeightRow:
    """Per-weight record of a campaign; None means the check was not requested."""

    index: int
    weight_hash: str
    c: Fraction
    bound: Fraction
    sup_ratio: Fraction
    margin: Fraction
    bound_holds: bool
    stopping_consistent: bool | None
    growth_bound_ok: bool | None
    weak_type_ok: bool | None
    decomposition_ok: bool | None
    oracle_match: bool | None
    kadic_ok: bool | None


@dataclass(frozen=True, eq=False)
class CampaignSummary:
    rows: tuple[WeightRow, ...]
    worst_margin: Fraction | None
    worst_weight_text: str | None
    workers: int  # processes that examined weights; 1 for a run in this process


def _require(names: Iterable[str], report: VerificationReport) -> None:
    """Raise ViolationError, carrying the serialized weight, on the first named check that fails."""
    for name in names:
        detail = _failure(name, report)
        if detail is not None:
            text = weight_to_text(report.analysis.weight)
            raise ViolationError(f"check '{name}' failed: {detail}", weight_text=text, check=name, detail=detail)


def _campaign_weight(shape: TreeShape, grid: Sequence[Fraction], seed: int | None, index: int) -> StepWeight:
    """Weight number ``index`` of a campaign.

    With a seed, the trial's own, it is the draw ``random_weight(shape, seed, grid)``,
    made without canonicalizing ``grid`` again, and ``index`` is not read.
    With None, it is the index-th grid weight in :func:`itertools.product` order:
    ``index`` read in base ``len(grid)``, the first leaf the most significant digit.
    """
    if seed is not None:
        return _draw(shape, seed, grid)
    digits = []
    for _ in range(shape.leaf_count):
        index, digit = divmod(index, len(grid))
        digits.append(digit)
    return _from_grid(shape, grid, digits[::-1])


def _scan(
    shape: TreeShape, grid: Sequence[Fraction], seeds: Sequence[int] | None, indices: range,
    checks: tuple[str, ...],
) -> tuple[list[WeightRow], tuple[Fraction, StepWeight] | None, tuple | None]:
    """Check one chunk of a campaign: the weights numbered by ``indices``, in order.

    ``seeds`` holds the seeds of ``indices`` alone (None for a grid
    enumeration), so a worker is sent its index range and seed slice, never a
    weight.  Each weight gets one report, on which :func:`_failure` runs the
    bound and then each of ``checks``.  The chunk shares the profile side
    between weights of one leaf histogram: w*, its sup-ratio and witness, and
    the k-adic constant are built once per histogram, in a
    :class:`_ChunkProfiles` local to this call, while c, the bound, the margin
    and every check are formed per weight.  Returns the rows, the first
    (margin, weight) of smallest margin, and the first failure, which ends the
    chunk, as (index, check, detail, weight_text) so the merge step can pick
    the lowest index deterministically across worker processes.
    """
    names = ("bound",) + checks
    flags = {field: True if name in checks else None for name, field in _FLAG_FIELDS.items()}
    rows: list[WeightRow] = []
    worst: tuple[Fraction, StepWeight] | None = None
    profiles = _ChunkProfiles()
    for index, seed in zip(indices, repeat(None) if seeds is None else seeds):
        w = _campaign_weight(shape, grid, seed, index)
        a = analyze(w)
        side = profiles.side(a)
        report = check_rearrangement_bound(a, _side=side)
        for name in names:
            detail = _failure(name, report, side)
            if detail is not None:
                return rows, worst, (index, name, detail, weight_to_text(w))
        rows.append(WeightRow(index, weight_hash(w), report.c, report.bound, report.sup_ratio, report.margin,
                              bound_holds=True, **flags))
        if worst is None or report.margin < worst[0]:
            worst = (report.margin, w)
    return rows, worst, None


def _normalize_checks(checks: Iterable[str]) -> tuple[str, ...]:
    requested = set(checks)
    requested.discard("bound")  # the bound check always runs
    unknown = requested.difference(ALL_CHECKS)
    if unknown:
        raise ParameterError(f"unknown checks {sorted(unknown)}; available: {ALL_CHECKS}")
    return tuple(name for name in ALL_CHECKS if name in requested)


def fuzz_campaign(
    k: int,
    m: int,
    trials: int,
    seed: int,
    grid: Iterable,
    *,
    checks: Iterable[str] = ALL_CHECKS,
    exhaustive: bool = False,
    threads: int = 1,
) -> CampaignSummary:
    """Run the selected checks over seeded random weights (or every grid weight).

    Per-trial seeds are derived once from ``seed``, a non-negative int, so
    results do not depend on ``threads``; the rearrangement bound itself is
    always checked.  The first failing trial (lowest index) aborts the
    campaign by raising ViolationError with the serialized weight.

    A random campaign starts at most ``threads`` worker processes, and no
    more than the CPUs or the trials, but none for less than
    ``MIN_LEAVES_PER_WORKER`` (8,192) leaves of work each, counted as
    ``trials * k**m``; below that, and for an exhaustive campaign, it runs in
    this process.  ``CampaignSummary.workers`` says how many it used.  Each
    worker's chunk of consecutive trials goes to :func:`_scan`, by the builtin
    ``map`` or the pool's with the same arguments; each trial is drawn from
    its own seed and checked bound first, and its first failure ends the chunk.
    """
    shape = make_shape(k, m)
    grid_values = _canonical_grid(grid)
    selected = _normalize_checks(checks)
    if _check_int(trials, "trials", 0) > MAX_WEIGHTS:
        raise ParameterError(f"trials must be at most {MAX_WEIGHTS}, got {trials}")
    _check_int(threads, "threads", 1)
    _check_seed(seed)

    if exhaustive:
        g, n = len(grid_values), shape.leaf_count
        # with g >= 2, g**n is above the limit once n reaches its bit length,
        # so a huge count is refused without being formed or printed
        if g > 1 and (n >= MAX_WEIGHTS.bit_length() or g**n > MAX_WEIGHTS):
            raise ParameterError(
                f"exhaustive enumeration of {g}**{n} weights is more than {MAX_WEIGHTS}; "
                "shrink the grid or depth"
            )
        total, seeds = g**n, None
    else:
        master = random.Random(seed)
        total, seeds = trials, [master.randrange(2**63) for _ in range(trials)]

    # Exhaustive mode runs in this process whatever ``threads`` says: each
    # worker adds its own memory to the run's peak.  A pool is started only
    # when every worker gets enough leaves to pay for the start-up.
    workers = 1 if exhaustive else max(1, min(
        threads, os.cpu_count() or 1, trials, trials * shape.leaf_count // MIN_LEAVES_PER_WORKER
    ))
    step = max(1, -(-total // workers))  # one chunk per worker; no trials make none, and range() refuses a step of 0
    starts = range(0, total, step)
    workers = max(1, len(starts))
    chunks = (repeat(shape), repeat(grid_values), [None if seeds is None else seeds[i : i + step] for i in starts],
              [range(i, min(i + step, total)) for i in starts], repeat(selected))
    if workers == 1:
        batches = list(map(_scan, *chunks))
    else:
        # imported only when a pool is started: multiprocessing adds its memory to every process importing it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_scan, *chunks))

    violations = [violation for _, _, violation in batches if violation is not None]
    if violations:
        index, check, detail, text = min(violations)
        raise ViolationError(
            f"trial {index}: check '{check}' failed: {detail}",
            weight_text=text,
            check=check,
            detail=f"trial {index}: {detail}",
        )
    worst = min((pair for _, pair, _ in batches if pair is not None), key=lambda pair: pair[0], default=None)
    return CampaignSummary(
        rows=tuple(row for rows, _, _ in batches for row in rows),
        worst_margin=None if worst is None else worst[0],
        worst_weight_text=None if worst is None else weight_to_text(worst[1]),
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Sharpness sweeps
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SweepRow:
    """One extremal-family evaluation in a sharpness sweep.

    ``nominal_c`` is the closed-form first-level ratio of the family;
    ``measured_c`` the exact A1 constant, which exceeds the nominal value for
    delta strictly below 1/k^2.  ``ratio_at_branch_scale`` is
    prefix_average(1/k) / w*(1/k).
    """

    depth: int
    delta: Fraction
    nominal_c: Fraction
    measured_c: Fraction
    bound: Fraction
    sup_ratio: Fraction
    ratio_at_branch_scale: Fraction
    gap: Fraction


def default_family_delta(k: int, depth: int) -> Fraction:
    """Largest leaf-aligned delta strictly below 1/k^2 at this depth.

    At depth 2 no such delta exists, so the full cell 1/k^2 is used (the
    exactified variant).
    """
    if depth == 2:
        return Fraction(1, k**2)
    return Fraction(k ** (depth - 2) - 1, k**depth)


def sharpness_sweep(k: int, c, depths: Sequence[int], deltas: Sequence | None = None) -> tuple[SweepRow, ...]:
    """Evaluate the extremal family across depths and delta values.

    With ``deltas=None`` each depth gets its default delta; otherwise every
    (depth, delta) combination is evaluated and must be leaf-aligned.  A
    family weight failing the bound check raises ViolationError, as in a campaign.
    """
    c = as_fraction(c)
    if not depths:
        raise ParameterError("at least one depth is required")
    rows: list[SweepRow] = []
    for depth in depths:
        _check_int(depth, "family depth", 2)
        make_shape(k, depth)  # refuses too many leaves before k**depth is formed
        delta_list = [as_fraction(d) for d in deltas] if deltas else [default_family_delta(k, depth)]
        for delta in delta_list:
            params = ExtremalParams.from_constant(k, c, delta, depth)
            w = extremal_family(params)
            nominal = family_constant_formula(k, params.alpha, params.eps, delta)
            report = check_rearrangement_bound(w)
            _require(("bound",), report)
            branch_t = Fraction(1, k)
            branch_ratio = prefix_average(report.profile, branch_t) / report.profile.value_at(branch_t)
            rows.append(
                SweepRow(
                    depth=depth,
                    delta=delta,
                    nominal_c=nominal,
                    measured_c=report.c,
                    bound=report.bound,
                    sup_ratio=report.sup_ratio,
                    ratio_at_branch_scale=branch_ratio,
                    gap=report.margin,
                )
            )
    return tuple(rows)
