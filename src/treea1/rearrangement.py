"""Decreasing rearrangement of step weights on (0, 1].

The rearranged function is kept as ordered (measure, value) pieces with the
left-continuous convention: the value of piece i holds on the half-open
interval (boundary_{i-1}, boundary_i].  Prefix averages and the sup of
(prefix average)/(value) are evaluated analytically at piece boundaries, so
the supremum is exact even when it is a one-sided limit that no single t
attains.  :func:`rearrange` counts and sorts the leaves as the ints of the
weight's analysis (see :class:`~treea1.maximal.WeightAnalysis`); only the
pieces, and everything computed from them, are ``Fraction``s.
:func:`rearrange_oracle` stays in ``Fraction`` arithmetic and shares no code
with it.  :func:`kadic_constant` runs the int sweep of ``analyze`` on the
piece values, so it builds no second weight or analysis.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .errors import ParameterError
from .rationals import as_fraction
from .tree import make_shape
from .weights import StepWeight
from .maximal import WeightAnalysis, _sweep, analyze


class Piece(NamedTuple):
    measure: Fraction
    value: Fraction


@dataclass(frozen=True)
class RearrangedProfile:
    """Ordered pieces of a non-increasing step function of total measure 1."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        # a Fraction is kept as it is; only other types go through the slower as_fraction
        pieces = tuple(Piece(*(x if type(x) is Fraction else as_fraction(x) for x in p)) for p in self.pieces)
        if not pieces:
            raise ParameterError("profile needs at least one piece")
        for measure, value in pieces:
            if measure <= 0:
                raise ParameterError(f"piece measures must be positive, got {measure}")
            if value <= 0:
                raise ParameterError(f"piece values must be positive, got {value}")
        for (_, hi), (_, lo) in zip(pieces, pieces[1:]):
            if lo >= hi:
                raise ParameterError("piece values must be strictly decreasing")
        if sum(m for m, _ in pieces) != 1:
            raise ParameterError("piece measures must sum exactly to 1")
        object.__setattr__(self, "pieces", pieces)

    @cached_property
    def boundaries(self) -> tuple[Fraction, ...]:
        """Cumulative measures; boundaries[i] is the right endpoint of piece i."""
        out, acc = [], Fraction(0)
        for measure, _ in self.pieces:
            acc += measure
            out.append(acc)
        return tuple(out)

    @cached_property
    def cumulative_integrals(self) -> tuple[Fraction, ...]:
        out, acc = [], Fraction(0)
        for measure, value in self.pieces:
            acc += measure * value
            out.append(acc)
        return tuple(out)

    @property
    def total_integral(self) -> Fraction:
        return self.cumulative_integrals[-1]

    def _piece_index(self, t: Fraction) -> int:
        return bisect_left(self.boundaries, t)

    def value_at(self, t) -> Fraction:
        """Value at t under the left-continuous convention."""
        t = _check_t(t)
        return self.pieces[self._piece_index(t)].value


def _check_t(t) -> Fraction:
    t = as_fraction(t)
    if not (0 < t <= 1):
        raise ParameterError(f"t must lie in (0, 1], got {t}")
    return t


def rearrange(w: StepWeight | WeightAnalysis) -> RearrangedProfile:
    """Sort leaf values in non-increasing order and coalesce equal runs.

    Each leaf carries measure k**(-m); the resulting profile is equimeasurable
    with the weight and has the same total integral.  The leaves are read as
    the ints of ``analyze(w)``, so equal values are counted and sorted as ints
    and only the pieces become ``Fraction``s.
    """
    a = analyze(w)
    leaves = a.scaled_averages[-1]
    counts = Counter(leaves)
    n = len(leaves)
    return RearrangedProfile(
        tuple(Piece(Fraction(counts[x], n), Fraction(x, a.unit)) for x in sorted(counts, reverse=True))
    )


def rearrange_oracle(w: StepWeight, t) -> Fraction:
    """Independent evaluation of the rearrangement at t.

    Scans the distinct leaf values in decreasing order and returns the largest
    value v whose superlevel set {w >= v} has measure at least t.  Shares no
    code with the profile construction; used to cross-check it.
    """
    t = _check_t(t)
    n = w.shape.leaf_count
    counts: dict[Fraction, int] = {}
    for v in w.leaf_values:
        counts[v] = counts.get(v, 0) + 1
    cumulative = 0
    for v in sorted(counts, reverse=True):
        cumulative += counts[v]
        if Fraction(cumulative, n) >= t:
            return v
    raise AssertionError("unreachable: total measure is 1 >= t")


def prefix_average(profile: RearrangedProfile, t) -> Fraction:
    """Exact (1/t) * integral of the profile over (0, t]."""
    t = _check_t(t)
    return _prefix_average(profile, profile._piece_index(t), t)


def _prefix_average(profile: RearrangedProfile, i: int, t: Fraction) -> Fraction:
    """:func:`prefix_average` at a t already checked and known to lie on piece i."""
    before_measure = profile.boundaries[i - 1] if i else Fraction(0)
    before_integral = profile.cumulative_integrals[i - 1] if i else Fraction(0)
    return (before_integral + (t - before_measure) * profile.pieces[i].value) / t


def sup_ratio(profile: RearrangedProfile) -> tuple[Fraction, Fraction]:
    """Supremum over t in (0, 1] of prefix_average(t) / value_at(t), with witness.

    The prefix average is continuous and non-increasing while the value is
    constant on each half-open piece, so the supremum is the maximum over
    pieces i >= 2 of prefix_average(a_i) / value_i at the piece's left
    boundary a_i (a right-sided limit, generally not attained), or 1 for a
    constant profile.  Returns (supremum, boundary t achieving it).
    """
    best = Fraction(1)
    witness = profile.boundaries[0]
    for i in range(1, len(profile.pieces)):
        a = profile.boundaries[i - 1]
        ratio = profile.cumulative_integrals[i - 1] / (a * profile.pieces[i].value)
        if ratio > best:
            best = ratio
            witness = a
    return best, witness


def profile_to_text(profile: RearrangedProfile) -> str:
    """Serialize as one ``measure value`` pair per line, rationals as p/q."""
    return "".join(f"{piece.measure} {piece.value}\n" for piece in profile.pieces)


def profile_from_text(text: str) -> RearrangedProfile:
    """Parse the serialization produced by :func:`profile_to_text` (exact round-trip)."""
    pieces = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParameterError(f"profile line must be 'measure value', got {line!r}")
        pieces.append((as_fraction(parts[0]), as_fraction(parts[1])))
    if not pieces:
        raise ParameterError("profile record contains no pieces")
    return RearrangedProfile(tuple(pieces))


def kadic_constant(profile: RearrangedProfile, k: int, depth: int) -> Fraction:
    """A1 constant of the profile viewed as a step weight on the k-adic tree.

    Every piece boundary must be a multiple of k**(-depth); leaf j of the
    depth-``depth`` k-adic tree over (0, 1] takes the profile's value on
    (j*k**(-depth), (j+1)*k**(-depth)].  Nodes deeper than the profile's
    resolution are constant and contribute ratio 1, so this depth captures
    the constant of the full k-adic tree.  The piece values' denominators are
    cleared once and each int value is repeated over its piece's leaves for
    the int sweep of :func:`~treea1.maximal.analyze`; no weight is built.
    """
    shape = make_shape(k, depth)
    n = shape.leaf_count
    for b in profile.boundaries:
        if (b * n).denominator != 1:
            raise ParameterError(
                f"piece boundary {b} is not aligned to the k-adic grid 1/{n}"
            )
    unit = lcm(*(value.denominator for _, value in profile.pieces)) * n
    row: list[int] = []
    for measure, value in profile.pieces:
        row.extend([value.numerator * (unit // value.denominator)] * (measure * n).numerator)
    return _sweep(row, k, depth)[2]
