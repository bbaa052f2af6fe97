"""Decreasing rearrangement of step weights on (0, 1].

The rearranged function is non-increasing, made of ordered pieces with the
left-continuous convention: the value of piece i holds on the half-open
interval (boundary_{i-1}, boundary_i].  A :class:`RearrangedProfile` holds it
in one format, int tables at one reduced scale, which :func:`rearrange` takes
from ``analyze(w)`` as they are.  Prefix averages and the sup of (prefix
average)/(value) are evaluated on those ints at piece boundaries, so the
supremum is exact even when it is a one-sided limit that no single t attains.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .errors import ParameterError
from .rationals import _check_t
from .tree import make_shape
from .weights import StepWeight
from .maximal import WeightAnalysis, analyze


class Piece(NamedTuple):
    measure: Fraction
    value: Fraction


@dataclass(frozen=True)
class RearrangedProfile:
    """A non-increasing step function of total measure 1, as int tables at one scale.

    Piece i covers ``cells[i]`` cells of width 1/n and has value
    ``scaled_values[i] / unit``.  The constructor validates the tables and
    divides ``n`` and ``unit`` by their gcd with the cells and the values, so
    they are the lcms of the measure and value denominators and equal
    functions have equal fields.  It derives ``cumulative_cells[i]``, the cells
    up to piece i's right boundary, and ``scaled_integrals[i]``, the integral
    up to there times ``n * unit``.  ``pieces`` is a ``Fraction`` view.
    """

    n: int
    unit: int
    cells: tuple[int, ...]
    scaled_values: tuple[int, ...]

    def __post_init__(self):
        n, unit, cells, values = self.n, self.unit, tuple(self.cells), tuple(self.scaled_values)
        if not cells:
            raise ParameterError("profile needs at least one piece")
        ints = (n, unit, *cells, *values)
        if len(values) != len(cells) or any(type(x) is not int for x in ints) or min(n, unit) < 1:
            raise ParameterError("profile needs ints, positive n and unit, and one value per cell count")
        for cell, value in zip(cells, values):
            if cell <= 0:
                raise ParameterError(f"piece measures must be positive, got {Fraction(cell, n)}")
            if value <= 0:
                raise ParameterError(f"piece values must be positive, got {Fraction(value, unit)}")
        g, h = gcd(n, *cells), gcd(unit, *values)
        n, unit, cells, values = n // g, unit // h, tuple(c // g for c in cells), tuple(v // h for v in values)
        if any(lo >= hi for hi, lo in zip(values, values[1:])):
            raise ParameterError("piece values must be strictly decreasing")
        cumulative = tuple(accumulate(cells))
        if cumulative[-1] != n:
            raise ParameterError("piece measures must sum exactly to 1")
        self.__dict__.update(n=n, unit=unit, cells=cells, scaled_values=values, cumulative_cells=cumulative,
                             scaled_integrals=tuple(accumulate(cell * value for cell, value in zip(cells, values))))

    @cached_property
    def pieces(self) -> tuple[Piece, ...]:
        """The (measure, value) pieces as ``Fraction``s, built on first read, for output and the oracles."""
        n, unit = self.n, self.unit
        return tuple(Piece(Fraction(c, n), Fraction(v, unit)) for c, v in zip(self.cells, self.scaled_values))

    def _piece_index(self, t: Fraction) -> int:
        # boundary_i >= t  <=>  cumulative_cells[i] >= t * n
        return bisect_left(self.cumulative_cells, t * self.n)

    def value_at(self, t) -> Fraction:
        """Value at t under the left-continuous convention."""
        t = _check_t(t)
        return Fraction(self.scaled_values[self._piece_index(t)], self.unit)


def rearrange(w: StepWeight | WeightAnalysis, *, _counts: Counter | None = None) -> RearrangedProfile:
    """Sort leaf values in non-increasing order and coalesce equal runs.

    Each leaf carries measure k**(-m); the resulting profile is equimeasurable
    with the weight and has the same total integral.  The leaves are read as
    the ints of ``analyze(w)``: equal values are counted and sorted as ints and
    the profile gets them as they are, counts over n leaves and values over unit.
    A campaign chunk that has already counted the leaves passes that
    ``Counter`` as ``_counts``.
    """
    a = analyze(w)
    counts = Counter(a.scaled_averages[-1]) if _counts is None else _counts
    values = sorted(counts, reverse=True)
    return RearrangedProfile(a.weight.shape.leaf_count, a.unit, tuple(counts[x] for x in values), tuple(values))


def prefix_average(profile: RearrangedProfile, t) -> Fraction:
    """Exact (1/t) * integral of the profile over (0, t].

    With t = p/q, the integral over (0, t] is one int over ``n * unit * q``.
    """
    t = _check_t(t)
    i, p, q = profile._piece_index(t), t.numerator, t.denominator
    return Fraction(_scaled_integral(profile, i, p * profile.n, q), profile.n * profile.unit * p)


def _scaled_integral(profile: RearrangedProfile, i: int, cells: int, per: int) -> int:
    """The integral over the first ``cells / per`` cells, which end on piece i, times ``n * unit * per``."""
    before_cells = profile.cumulative_cells[i - 1] if i else 0
    before_integral = profile.scaled_integrals[i - 1] if i else 0
    return before_integral * per + (cells - before_cells * per) * profile.scaled_values[i]


def sup_ratio(profile: RearrangedProfile) -> tuple[Fraction, Fraction]:
    """Supremum over t in (0, 1] of prefix_average(t) / value_at(t), with witness.

    The prefix average is continuous and non-increasing while the value is
    constant on each half-open piece, so the supremum is the maximum over
    pieces i >= 2 of prefix_average(a_i) / value_i at the piece's left
    boundary a_i (a right-sided limit, generally not attained), or 1 for a
    constant profile.  Returns (supremum, boundary t achieving it).  Each
    ratio is an int over an int, compared by cross-multiplication.
    """
    cumulative, integrals, values = profile.cumulative_cells, profile.scaled_integrals, profile.scaled_values
    best_num, best_den, witness = 1, 1, cumulative[0]
    for i in range(1, len(values)):
        num, den = integrals[i - 1], cumulative[i - 1] * values[i]
        if num * best_den > best_num * den:
            best_num, best_den, witness = num, den, cumulative[i - 1]
    return Fraction(best_num, best_den), Fraction(witness, profile.n)


def kadic_constant(profile: RearrangedProfile, k: int, depth: int) -> Fraction:
    """A1 constant of the profile viewed as a step weight on the k-adic tree.

    Every piece boundary must be a multiple of k**(-depth); leaf j of the
    depth-``depth`` k-adic tree over (0, 1] takes the profile's value on
    (j*k**(-depth), (j+1)*k**(-depth)].  Nodes deeper than the profile's
    resolution are constant and contribute ratio 1, so this depth captures
    the constant of the full k-adic tree.  The boundaries are aligned exactly
    when the profile's n divides k**depth.

    The profile is non-increasing, so a node's minimum is the value of its
    last leaf, and a node that lies inside one piece has ratio 1.  A ratio
    above 1 therefore needs a piece boundary strictly inside the node, so only
    the nodes that straddle an interior boundary are visited: at most
    ``depth`` per boundary, from the root down to the first width that
    divides the boundary, below which every finer width divides it too.  In
    leaf units, with ``scale = k**depth // n``, a node [start, stop) of width
    W has ratio ``(I(stop) - I(start)) / (W * v)``, where I(x) is the integral
    over the first x leaves times ``n * unit * scale`` and v the scaled value
    of leaf stop - 1.  Ratios are compared by cross-multiplication; no leaf
    row is built.
    """
    leaves = make_shape(k, depth).leaf_count
    if leaves % profile.n:
        raise ParameterError(
            f"piece boundaries on the grid 1/{profile.n} are not aligned to the k-adic grid 1/{leaves}"
        )
    scale = leaves // profile.n
    ends = [cells * scale for cells in profile.cumulative_cells]  # the pieces' right boundaries in leaves
    best_num, best_den = 1, 1
    for boundary in ends[:-1]:
        width = leaves
        while boundary % width:
            start = boundary - boundary % width
            stop = start + width
            # leaf stop - 1 lies on the piece whose right boundary is the first at or after stop
            i = bisect_left(ends, stop)
            num = _scaled_integral(profile, i, stop, scale) - _scaled_integral(
                profile, bisect_left(ends, start), start, scale
            )
            den = width * profile.scaled_values[i]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
            width //= k
    return Fraction(best_num, best_den)
