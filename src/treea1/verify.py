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
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, islice, product, repeat
from math import gcd
from operator import floordiv, neg
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ParameterError, ViolationError
from .maximal import WeightAnalysis, a1_constant, analyze, stopping_family, superlevel_set
from .oracles import maximal_function_bruteforce, scaled_maximal_bruteforce
from .rationals import _check_int, _check_t, _detail_string, _positive, as_fraction
from .rearrangement import RearrangedProfile, _scaled_integral, kadic_constant, prefix_average, rearrange, sup_ratio
from .tree import ROOT, NodeId, TreeShape, make_shape
from .weights import (
    StepWeight, _canonical_grid, _check_seed, _draw, _from_grid, default_family_delta, extremal_family,
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
# a row for every weight, so larger campaigns are refused before anything is
# allocated.  Nothing else grows with the count: each chunk draws its own
# weights from the campaign seed and its index range.
MAX_WEIGHTS = 500_000
# Least work, in leaves (trials * k**m), a pooled campaign gives each worker.
# Measured on 2 cores with Python 3.11: importing the process pool takes about
# 16 ms and starting and joining 2 workers 9-11 ms, while all checks cost about
# 3.0 us per leaf at 256 leaves and 2.5 us at 1,024, so this is 20-25 ms per
# worker, about the 25 ms start-up; a campaign with less work runs in this
# process.  Later, on the same host, 2 workers at 16,384 leaves each took
# 137-140 ms against 105-107 ms in one process; a host with more real cores
# should re-measure this value.
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
    """The superlevel audit at one t: t, the level record of t's piece and the two comparisons with t.

    t is held as two ints in lowest terms, so audits at equal t hold equal
    ints; ``t`` is the exact ``Fraction`` formed from them when it is read.
    The per-piece quantities are read as ``audit.level.<name>``; only the two
    flags that compare the set with t itself can differ between the audits of
    one piece.  ``checks`` gathers all five flags by name.
    """

    t_numerator: int
    t_denominator: int  # positive, and coprime to t_numerator
    level: LevelAudit
    dominates_prefix: bool  # set average >= prefix average at t
    measures_ordered: bool  # mu{w > c*w*(t)} <= mu(superlevel set) <= t

    @property
    def t(self) -> Fraction:
        return Fraction(self.t_numerator, self.t_denominator)

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
    """Strict weak-type inequality mu(E) < (1/level) * integral of w over E, from the definition.

    E is the set of leaves whose :func:`~treea1.oracles.maximal_function_bruteforce`
    value exceeds the level; each has measure 1/n, so with E's leaf values the
    inequality is ``len(E) * level < sum(E)`` in ``Fraction``s, vacuously true
    when E is empty.  It reads no kernel table: it is the test oracle of the
    ``weak_type`` check, which covers every node average in one sorted sweep
    of the kernel's maximal function.
    """
    lam = _positive(level, "weak-type level")
    weight = w.weight if isinstance(w, WeightAnalysis) else w
    above = [v for v, mf in zip(weight.leaf_values, maximal_function_bruteforce(weight)) if mf > lam]
    return not above or len(above) * lam < sum(above)


def _leaves_and_sum(a: WeightAnalysis, nodes: Sequence[NodeId]) -> tuple[int, int, list[int]]:
    """Leaf count under the disjoint nodes, their leaf sum times ``unit`` (average times width) and the widths.

    For :func:`_audits` alone.  Like :func:`~treea1.maximal.superlevel_set` it reads node averages, never
    the stopping family, which ``LevelAudit.nodes_are_members`` compares the walk with.
    """
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
    """Fast maximal function agrees with the prefix-sum oracle, compared in ints.

    The oracle's int core, :func:`~treea1.oracles.scaled_maximal_bruteforce`,
    recomputes every node's average from prefix sums of the leaf values at
    its own scale, sharing no code with the kernel's int sweep.  Both sides
    clear the same leaf denominators times ``k**m``, so the oracle's scale
    must equal the analysis's ``unit``, and then its leaf maxima must equal
    ``scaled_maximal`` int for int; no ``Fraction`` is built.
    """
    a = analyze(w)
    scale, scaled = scaled_maximal_bruteforce(a.weight)
    return scale == a.unit and scaled == a.scaled_maximal


def check_growth_bound(w: StepWeight | WeightAnalysis) -> GrowthCheck:
    """For every star link J -> I of the family: Av(I) < Av(J) <= (k - (k-1)/c) * Av(I).

    ``c`` is the measured A1 constant.  The links are walked in the order of
    ``members``, so the first violation is the first in (level, index) order.
    The comparison runs on the analysis's scaled averages: with c = P/Q the
    limit is (k*P - (k-1)*Q) / P times Av(I), so the upper inequality is
    ``y_member * P <= (k*P - (k-1)*Q) * y_star`` in ints.  The violation's
    ``Fraction`` tuple is built only on failure.
    """
    a = analyze(w)
    c = a1_constant(a)
    k, table = a.weight.shape.k, a.scaled_averages
    fam = stopping_family(a)
    p, q = c.numerator, c.denominator
    factor = k * p - (k - 1) * q  # the limit's factor times P
    for member, star in fam.star.items():
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
    order, from one walk of :func:`_audits` over the rearrangement's pieces:
    the grid's t = j / grain is passed as its ints j and grain, so no
    ``Fraction`` is built per grid point, and each piece builds one level
    record and its points' records in one go.  ``audit.t`` equals
    ``audit_grid(w)[i]`` for the i-th record.
    Omitted parts stay None.
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
        grain = k ** (a.weight.shape.m + 1)  # the grid of audit_grid: t = j / grain for j = 1 .. grain
        report = replace(report, audits=tuple(_audits(report, range(1, grain + 1), grain)))
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
    holds for this t, from the same walk of :func:`_audits` over the one
    point ``t.numerator / t.denominator``, which builds the level record of
    t's piece only.  A report is read as it is; a weight or an analysis gets
    a new report for this one t, so a caller auditing many t should pass a
    report or ask :func:`check_rearrangement_bound` for ``with_audits=True``.
    """
    report = w if isinstance(w, VerificationReport) else check_rearrangement_bound(w)
    t = _check_t(t)
    return _audits(report, (t.numerator,), t.denominator)[0]


def _audits(report: VerificationReport, js: Sequence[int], q: int) -> list[SuperlevelAudit]:
    """The audit at each t = ``js[i] / q`` in (0, 1], for ``js`` ascending, piece by piece.

    The walk visits the profile's pieces, not the t values.  Piece i ends at
    ``cumulative_cells[i] / profile.n``, so its points are the j up to
    ``cumulative_cells[i] * q // profile.n`` not taken by an earlier piece:
    one ``bisect_right`` on ``js`` per piece.  A piece with points gets one
    :class:`LevelAudit`, whose level is the piece's value lam = w*(t), shared
    by all its points; a piece without points costs that bisect only.
    The profile is the leaf row sorted once per report, as runs of equal
    values, so the count ``above`` of leaves above the threshold
    c * lam = p/q' is one bisect on its decreasing values: a value v over
    ``profile.unit`` exceeds p/q' exactly when v > (p * profile.unit) // q',
    and the pieces that do are a prefix, whose cells times ``n // profile.n``
    are leaves.  No node average exceeds the largest leaf, so the set is
    walked only when ``above`` > 0; else count = total = 0, the record is
    degenerate with no set average, ``average_bounded`` is the leafwise
    fallback that no leaf exceeds the threshold, and the flags over its nodes
    are vacuously true.  Membership is read from the family's star links, the
    keys of every member but the root.  ``average_bounded`` compares
    total / (unit * count) with bound * lam in ints.

    The two flags per t are int comparisons linear in j.  The profile's
    integral up to j / q, times ``profile.n * profile.unit * q``, is the
    piece's line ``intercept + slope * j``: the intercept is
    :func:`~treea1.rearrangement._scaled_integral` at j = 0, and each step of
    j adds ``profile.n`` cells of the piece's value, so the slope is
    ``profile.n * value``.  The set average total / (unit * count) is at
    least the prefix average, that integral over
    ``profile.n * profile.unit * j``, exactly when ``lhs * j >= rhs`` with
    lhs = total * profile.n * profile.unit - unit * count * slope and
    rhs = unit * count * intercept.  The measures above/n <= count/n <= j/q,
    with n leaves, are ``above <= count``, once per piece, and
    ``count * q <= j * n``.  Each comparison is monotone in j, so
    :func:`_flag_runs` gives a piece's flags as one run of each value, split
    at one bisect.  An empty set passes both: lhs = rhs = 0, and its measure
    flag is true whatever ``above`` is.

    Each record holds its t in lowest terms: per piece, one C-level map of
    ``math.gcd`` over the points and q, and two of ``floordiv``, give the
    numerators and denominators, so no ``Fraction`` is built per t.
    """
    a, profile = report.analysis, report.profile
    unit, leaves = a.unit, a.scaled_averages[-1]
    n = len(leaves)
    starts, per_cell = (0, *profile.cumulative_cells), n // profile.n  # cells before each piece; leaves per cell
    bound_num, bound_den = report.bound.numerator, report.bound.denominator
    audits: list[SuperlevelAudit] = []
    lo = 0
    for piece, cells in enumerate(profile.cumulative_cells):
        hi = bisect_right(js, cells * q // profile.n, lo)
        if hi == lo:
            continue
        value = profile.scaled_values[piece]
        lam = Fraction(value, profile.unit)
        threshold = report.c * lam
        # the pieces above the threshold: their values v are > threshold * profile.unit, so > its floor
        bar = threshold.numerator * profile.unit // threshold.denominator
        above = starts[bisect_left(profile.scaled_values, -bar, key=neg)] * per_cell
        # no node average exceeds the largest leaf, so with no leaf above the threshold the set is empty
        nodes = superlevel_set(a, threshold) if above else ()
        count, total, widths = _leaves_and_sum(a, nodes)
        level = LevelAudit(
            level_value=lam,
            threshold=threshold,
            degenerate=not nodes,
            nodes=nodes,
            # the integral over the set is total / (unit * n); the measure is count / n
            superlevel_measure=Fraction(count, n),
            above_threshold_measure=Fraction(above, n),
            set_average=Fraction(total, unit * count) if nodes else None,
            nodes_are_members=all(node in a.family.star or node == ROOT for node in nodes),
            average_bounded=(
                total * bound_den * profile.unit <= unit * count * bound_num * value if nodes else above == 0
            ),
            inside_level_set=all(
                min(leaves[node.index * width : (node.index + 1) * width]) * lam.denominator
                > lam.numerator * unit
                for node, width in zip(nodes, widths)
            ),
        )
        intercept, slope = _scaled_integral(profile, piece, 0, q), profile.n * value
        lhs, rhs = total * profile.n * profile.unit - unit * count * slope, unit * count * intercept
        points = js[lo:hi]
        dominates = _flag_runs(points, lhs, rhs)
        measures = _flag_runs(points, n, count * q) if above <= count or not nodes else repeat(False)
        divisors = list(map(gcd, points, repeat(q)))  # t = j / q in lowest terms is (j // g) / (q // g)
        # tuple.__new__(SuperlevelAudit, fields) is what SuperlevelAudit._make does, here in one C-level map
        audits.extend(map(tuple.__new__, repeat(SuperlevelAudit), zip(
            map(floordiv, points, divisors), map(floordiv, repeat(q), divisors), repeat(level), dominates, measures,
        )))
        lo = hi
        if lo == len(js):
            break
    return audits


def _flag_runs(points: Sequence[int], factor: int, bar: int) -> Iterator[bool]:
    """The flags ``factor * j >= bar`` for the ascending ints j of ``points``.

    The flag is monotone in j, so the points split into one run of each value
    at one bisect: for factor > 0 it turns true at j >= ceil(bar / factor),
    for factor < 0 it stays true while j <= floor(bar / factor), and for
    factor == 0 it is ``0 >= bar`` throughout.  The result is endless past
    the points, for a ``zip`` to cut.
    """
    if factor > 0:
        return chain(repeat(False, bisect_left(points, -(-bar // factor))), repeat(True))
    if factor < 0:
        return chain(repeat(True, bisect_right(points, bar // factor)), repeat(False))
    return repeat(bar <= 0)


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


def _require(names: Iterable[str], report: VerificationReport, side: _Rearranged | None = None,
             trial: int | None = None) -> None:
    """Raise ViolationError, carrying the serialized weight, on the first named check that fails.

    The one place a failed check becomes a ViolationError, for ``inspect``,
    sharpness sweeps, the search's exact objective and every campaign weight.
    ``side`` is the histogram side the ``kadic`` check reads; a campaign's
    ``trial`` index prefixes the message and the detail.
    """
    for name in names:
        detail = _failure(name, report, side)
        if detail is not None:
            prefix = "" if trial is None else f"trial {trial}: "
            text = weight_to_text(report.analysis.weight)
            raise ViolationError(f"{prefix}check '{name}' failed: {detail}", weight_text=text, check=name,
                                 detail=prefix + detail)


def _scan(
    shape: TreeShape, grid: Sequence[Fraction], seed: int | None, indices: range, checks: tuple[str, ...],
) -> tuple[list[WeightRow], tuple[Fraction, StepWeight] | None]:
    """Check one chunk of a campaign: the weights numbered by ``indices``, in order.

    The chunk draws its own weights from the campaign ``seed`` and its range,
    so a worker is sent those, never a weight.  With a seed, trial i is
    ``random_weight(shape, s, grid)`` for s the i-th ``randrange(2**63)`` of
    ``random.Random(seed)``: the chunk makes and throws away the
    ``indices.start`` draws of earlier chunks first.  With None, weight i is
    the i-th grid weight in :func:`itertools.product` order, the first leaf
    the most significant digit.  Each weight gets one report, on which
    :func:`_require` runs the bound and then each of ``checks`` with the
    weight's index, so the first failure raises and ends the chunk.  The
    chunk shares the profile side between weights of one leaf histogram: w*,
    its sup-ratio and witness, and the k-adic constant are built once per
    histogram, in a :class:`_ChunkProfiles` local to this call, while c, the
    bound, the margin and every check are formed per weight.  Returns the
    rows and the first (margin, weight) of smallest margin.
    """
    if seed is None:
        draws = islice(product(range(len(grid)), repeat=shape.leaf_count), indices.start, None)
    else:
        randrange = random.Random(seed).randrange
        for _ in range(indices.start):
            randrange(2**63)
        draws = (randrange(2**63) for _ in indices)
    names = ("bound",) + checks
    flags = {field: True if name in checks else None for name, field in _FLAG_FIELDS.items()}
    rows: list[WeightRow] = []
    worst: tuple[Fraction, StepWeight] | None = None
    profiles = _ChunkProfiles()
    for index, drawn in zip(indices, draws):
        w = _from_grid(shape, grid, drawn) if seed is None else _draw(shape, drawn, grid)
        a = analyze(w)
        side = profiles.side(a)
        report = check_rearrangement_bound(a, _side=side)
        _require(names, report, side, index)
        rows.append(WeightRow(index, weight_hash(w), report.c, report.bound, report.sup_ratio, report.margin,
                              bound_holds=True, **flags))
        if worst is None or report.margin < worst[0]:
            worst = (report.margin, w)
    return rows, worst


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

    Trial i is drawn from the i-th ``randrange(2**63)`` of ``random.Random(seed)``,
    for ``seed`` a non-negative int, whichever chunk draws it, so results do
    not depend on ``threads``; the rearrangement bound itself is always
    checked.  The first failing trial (lowest index) aborts the campaign by
    raising ViolationError with the serialized weight: a chunk raises where
    it fails, and the builtin ``map`` and the pool's both give the chunks
    back in index order, so the first chunk that raises, whatever it raises,
    holds the lowest failing index at any ``threads``.

    A random campaign starts at most ``threads`` worker processes, and no
    more than the CPUs or the trials, but none for less than
    ``MIN_LEAVES_PER_WORKER`` (8,192) leaves of work each, counted as
    ``trials * k**m``; below that, and for an exhaustive campaign, it runs in
    this process.  ``CampaignSummary.workers`` says how many it used.  Each
    worker's chunk goes to :func:`_scan` as the campaign seed (None for an
    exhaustive campaign) and a ``range`` of consecutive indices, by the
    builtin ``map`` or the pool's with the same arguments; the chunk draws
    its own weights.  This function validates, cuts the ranges and merges.

    Each factor of the work is capped, the leaves per weight by
    ``tree.MAX_LEAVES`` and the weights by ``MAX_WEIGHTS``, but their product
    is not, by design: ``fuzz_campaign(2, 20, 500_000, ...)`` is accepted, up
    to 5e11 leaf visits with one row per weight held in memory.
    """
    shape = make_shape(k, m)
    grid_values = _canonical_grid(grid)
    selected = _normalize_checks(checks)
    # an exhaustive campaign never reads trials; its count of weights is capped below
    if _check_int(trials, "trials", 0) > MAX_WEIGHTS and not exhaustive:
        raise ParameterError(f"trials must be at most {MAX_WEIGHTS}, got {trials}")
    _check_int(threads, "threads", 1)
    _check_seed(seed)

    total = trials
    if exhaustive:
        g, n = len(grid_values), shape.leaf_count
        # with g >= 2, g**n is above the limit once n reaches its bit length,
        # so a huge count is refused without being formed or printed
        if g > 1 and (n >= MAX_WEIGHTS.bit_length() or g**n > MAX_WEIGHTS):
            raise ParameterError(
                f"exhaustive enumeration of {g}**{n} weights is more than {MAX_WEIGHTS}; "
                "shrink the grid or depth"
            )
        total, seed = g**n, None

    # Exhaustive mode runs in this process whatever ``threads`` says: each
    # worker adds its own memory to the run's peak.  A pool is started only
    # when every worker gets enough leaves to pay for the start-up.
    workers = 1 if exhaustive else max(1, min(
        threads, os.cpu_count() or 1, trials, trials * shape.leaf_count // MIN_LEAVES_PER_WORKER
    ))
    step = max(1, -(-total // workers))  # one chunk per worker; no trials make none, and range() refuses a step of 0
    starts = range(0, total, step)
    workers = max(1, len(starts))
    chunks = (repeat(shape), repeat(grid_values), repeat(seed), [range(i, min(i + step, total)) for i in starts],
              repeat(selected))
    if workers == 1:
        batches = list(map(_scan, *chunks))
    else:
        # imported only when a pool is started: multiprocessing adds its memory to every process importing it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_scan, *chunks))

    worst = min((pair for _, pair in batches if pair is not None), key=lambda pair: pair[0], default=None)
    return CampaignSummary(
        rows=tuple(row for rows, _ in batches for row in rows),
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


def sharpness_sweep(k: int, c, depths: Sequence[int], deltas: Sequence | None = None) -> tuple[SweepRow, ...]:
    """Evaluate the extremal family across depths and delta values.

    With ``deltas=None`` each depth gets its default delta; otherwise every
    (depth, delta) combination is evaluated and must be leaf-aligned.  An
    empty list of depths or of deltas is refused.  A family weight failing
    the bound check raises ViolationError, as in a campaign.
    """
    c = as_fraction(c)
    if not depths:
        raise ParameterError("at least one depth is required")
    if deltas is not None and not deltas:
        raise ParameterError("at least one delta is required")
    rows: list[SweepRow] = []
    for depth in depths:
        delta_list = [default_family_delta(k, depth)] if deltas is None else [as_fraction(d) for d in deltas]
        for delta in delta_list:
            w = extremal_family(k, c, delta, depth)
            nominal = family_constant_formula(k, c, delta)
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
