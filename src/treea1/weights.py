"""Step weights on homogeneous trees.

A step weight assigns a positive rational to each leaf of a shape; it stands
for the function constant on every leaf.  Besides direct and randomized
construction, this module builds the two-parameter extremal family that makes
the rearrangement bound tight, and provides the exact text serialization used
by the CLI.

A weight usually holds a few distinct value objects over many leaves: a
random draw and a parsed weight file share one object per distinct value.  A
:class:`StepWeight` therefore keeps them once, as its ``palette``, with each
leaf's int index into it, its ``codes``; the fast readers (``analyze``,
:func:`weight_to_text`, :func:`scale`) work once per palette value and only
look up ints per leaf.  The builders here that already know each leaf's code
(a random draw, a campaign's grid enumeration, a parsed weight file,
:func:`scale` and :func:`refine`) hand the palette and codes to the weight
directly; only values from outside (``StepWeight(...)``,
:func:`make_step_weight`) go through the constructor's identity pass.  A
random draw reads all of a weight's Mersenne Twister words from one
``getrandbits`` call (see :func:`random_weight`).
"""
from __future__ import annotations

import hashlib
import operator
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Sequence

from .errors import ParameterError
from .rationals import _check_int, _exact_string, _positive, as_fraction
from .tree import TreeShape, make_shape


@dataclass(frozen=True)
class StepWeight:
    """Positive rational leaf values on a tree shape.

    A weight repeats a few value objects over many leaves, so the constructor
    finds the distinct objects once, by identity, and checks and coerces each
    of them once.  Besides ``leaf_values`` it keeps ``palette``, those values in
    order of first appearance, and ``codes``, each leaf's index into
    ``palette``: ``leaf_values[i] is palette[codes[i]]``.  Equal values held in
    distinct objects get distinct palette entries.  The two are derived, not
    fields, so they take no part in ``==``, ``hash`` or ``repr``.  A builder
    that already knows the codes skips the identity pass (``_coded``) and
    gives a weight equal to ``StepWeight(shape, leaf_values)`` in every
    attribute, down to the palette's objects and their order; both paths end
    in ``_fill``.
    """

    shape: TreeShape
    leaf_values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(self.leaf_values)
        if len(values) != self.shape.leaf_count:
            raise ParameterError(
                f"expected {self.shape.leaf_count} leaf values for shape "
                f"(k={self.shape.k}, m={self.shape.m}), got {len(values)}"
            )
        # every per-leaf pass is a C-level map over ids and ints; only the distinct objects are visited in Python
        ids = list(map(id, values))
        objects = dict(zip(ids, values))  # id -> object, in order of first appearance
        code_of = {key: code for code, key in enumerate(objects)}
        codes = tuple(map(code_of.__getitem__, ids))
        # a Fraction is kept as it is; only other types go through the slower as_fraction
        palette = tuple([v if type(v) is Fraction else as_fraction(v) for v in objects.values()])
        if any(map(operator.is_not, palette, objects.values())):  # some value was coerced
            values = _per_leaf(codes, palette)
        _fill(self, self.shape, values, palette, codes)


def _coded(shape: TreeShape, palette: tuple[Fraction, ...], codes: tuple[int, ...]) -> StepWeight:
    """The weight whose leaf i holds ``palette[codes[i]]``, built without the identity pass.

    For builders that already know their codes.  ``palette`` must hold
    distinct ``Fraction`` objects in order of first appearance in ``codes``,
    and ``codes`` one code per leaf of ``shape``; the result then equals
    ``StepWeight(shape, leaf_values)`` in every attribute.
    """
    return _fill(object.__new__(StepWeight), shape, _per_leaf(codes, palette), palette, codes)


def _per_leaf(codes: Sequence[int], by_code: Sequence) -> tuple:
    """``by_code[code]`` for each leaf's code, in leaf order: the one per-leaf read of a weight."""
    # itemgetter of two or more codes returns a tuple, and every shape has at least two leaves
    return operator.itemgetter(*codes)(by_code)


def _fill(
    w: StepWeight, shape: TreeShape, values: tuple, palette: tuple[Fraction, ...], codes: tuple[int, ...]
) -> StepWeight:
    """Refuse a non-positive palette value and set the weight's four attributes: both construction paths end here."""
    for code, v in enumerate(palette):
        if v.numerator <= 0:
            # the palette is in order of first appearance, so this is the first bad leaf
            raise ParameterError(f"leaf value at position {codes.index(code)} must be positive, got {v}")
    w.__dict__.update(shape=shape, leaf_values=values, palette=palette, codes=codes)
    return w


def make_step_weight(shape: TreeShape, values: Sequence) -> StepWeight:
    """Build a step weight from any sequence of exact rationals."""
    return StepWeight(shape, tuple(values))


def scale(w: StepWeight, factor) -> StepWeight:
    """Multiply every leaf value by a positive rational."""
    s = _positive(factor, "scale factor")
    return _coded(w.shape, tuple([v * s for v in w.palette]), w.codes)


def refine(w: StepWeight, levels: int = 1) -> StepWeight:
    """Re-express the weight one or more levels deeper.

    Each leaf splits into k equal children carrying the same value, so the
    represented function is unchanged.
    """
    _check_int(levels, "refinement levels", 1)
    shape = make_shape(w.shape.k, w.shape.m + levels)  # refuses too many leaves before k**levels is formed
    copies = w.shape.k**levels
    return _coded(shape, w.palette, tuple(chain.from_iterable((code,) * copies for code in w.codes)))


def random_weight(shape: TreeShape, seed: int, grid: Iterable) -> StepWeight:
    """Draw each leaf value independently and uniformly from a finite grid.

    The generator is Python's Mersenne Twister seeded with ``seed``, a
    non-negative int; the grid is canonicalized (deduplicated, sorted) so the
    draw depends only on the set of values, not on iteration order.  Equal
    seeds give equal weights.  Leaf i holds ``grid[rng.randrange(len(grid))]``
    of the i-th call, bit for bit, though the words are read in bulk: for
    ``b <= 32``, ``getrandbits(b)`` is the top ``b`` bits of the generator's
    next 32-bit word, and ``getrandbits(32 * W)`` holds the next W words, the
    first in its least significant 32 bits.
    """
    return _draw(shape, _check_seed(seed), _canonical_grid(grid))


def _check_seed(seed) -> int:
    """The seed if it is a non-negative int: ``random.Random`` seeds with ``abs(seed)``, so -s would alias s."""
    return _check_int(seed, "seed", 0)


def _canonical_grid(grid: Iterable) -> list[Fraction]:
    """The distinct grid values in ascending order; refuses an empty grid or one with a value <= 0."""
    values = sorted({as_fraction(g) for g in grid})
    if not values:
        raise ParameterError("grid must contain at least one value")
    _positive(values[0], "grid values")
    return values


_SHIFTED = tuple(bytes(b >> shift for b in range(256)) for shift in range(8))  # translate tables: b -> b >> shift


def _draw(shape: TreeShape, seed: int, values: Sequence[Fraction]) -> StepWeight:
    """The draw of :func:`random_weight` from a grid :func:`_canonical_grid` has already made.

    ``randrange(n)`` takes the top ``bits = n.bit_length()`` bits of the next
    32-bit word and takes another word while that is n or more.
    ``getrandbits(32 * words)`` holds the next ``words`` words, the first in
    its least significant 32 bits, so one call reads them all: a grid of up
    to 255 values draws from each word's top byte, a larger grid from the
    whole word.  When rejection leaves too few draws, the next words of the
    same generator fill the rest.
    """
    n = len(values)
    bits = n.bit_length()
    getrandbits = random.Random(seed).getrandbits
    drawn = b"" if bits <= 8 else []
    while len(drawn) < shape.leaf_count:
        words = -(-((shape.leaf_count - len(drawn)) << bits) // n)  # as many as the missing draws need, on average
        raw = getrandbits(32 * words).to_bytes(4 * words, "little")
        if bits <= 8:
            # a top byte b draws b >> (8 - bits), and the bytes whose draw is n or more are dropped
            drawn += raw[3::4].translate(_SHIFTED[8 - bits], bytes(range(n << (8 - bits), 256)))
        else:
            drawn += filter(n.__gt__, map(operator.rshift, struct.unpack(f"<{words}I", raw), repeat(32 - bits)))
    return _from_grid(shape, values, drawn[: shape.leaf_count])


def _from_grid(shape: TreeShape, grid: Sequence[Fraction], drawn: bytes | list[int]) -> StepWeight:
    """The weight whose leaf i holds ``grid[drawn[i]]``, for a grid of distinct ``Fraction``s.

    The palette is the grid values in order of first appearance, and the
    grid codes are renumbered into it: by one ``bytes.translate`` for codes
    held in bytes, by a dict for a list.
    """
    if isinstance(drawn, bytes):
        # bytes.find, a C-level scan, gives each grid code's first position (-1 if it was not drawn)
        order = [g for first, g in sorted((drawn.find(g), g) for g in range(len(grid))) if first >= 0]
        table = bytearray(256)
        for code, g in enumerate(order):
            table[g] = code
        codes = drawn.translate(table)
    else:
        order = list(dict.fromkeys(drawn))
        codes = map({g: code for code, g in enumerate(order)}.__getitem__, drawn)
    return _coded(shape, tuple(map(grid.__getitem__, order)), tuple(codes))


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters of the extremal family at depth >= 2.

    The family puts the large value ``alpha`` on a set of measure ``delta``
    inside the first grandchild of the root and on one full grandchild of
    every other branch, and the small value ``eps`` elsewhere; ``alpha`` and
    ``eps`` are coupled to the target constant by alpha/eps = k*c - k + 1.
    ``delta`` must be a whole number of leaves at the chosen depth.
    """

    k: int
    c: Fraction
    eps: Fraction
    alpha: Fraction
    delta: Fraction
    depth: int

    def __post_init__(self):
        _check_int(self.depth, "depth", 2)
        make_shape(self.k, self.depth)  # refuses a bad k, and too many leaves before k**depth is formed
        for name in ("c", "eps", "alpha", "delta"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.c < 1:
            raise ParameterError(f"target constant c must be >= 1, got {self.c}")
        if self.eps <= 0 or self.alpha <= 0:
            raise ParameterError("alpha and eps must be positive")
        if self.alpha != (self.k * self.c - self.k + 1) * self.eps:
            raise ParameterError(
                f"alpha/eps must equal k*c-k+1 = {self.k * self.c - self.k + 1}, "
                f"got {self.alpha}/{self.eps}"
            )
        cell = Fraction(1, self.k**2)
        if not (0 < self.delta <= cell):
            raise ParameterError(f"delta must lie in (0, 1/k^2] = (0, {cell}], got {self.delta}")
        scaled = self.delta * self.k**self.depth
        if scaled.denominator != 1:
            raise ParameterError(
                f"delta = {self.delta} is not a whole number of leaves at depth {self.depth}"
            )

    @property
    def high_leaf_count(self) -> int:
        """Number of depth-``depth`` leaves carrying alpha inside the first grandchild."""
        return int(self.delta * self.k**self.depth)

    @classmethod
    def from_constant(cls, k: int, c, delta, depth: int) -> "ExtremalParams":
        """The parameters for target constant c, with eps normalized to 1 and so alpha = k*c - k + 1."""
        c = as_fraction(c)
        return cls(k=k, c=c, eps=Fraction(1), alpha=k * c - k + 1, delta=as_fraction(delta), depth=depth)

    @classmethod
    def from_alpha(cls, k: int, alpha, eps, delta, depth: int) -> "ExtremalParams":
        alpha = as_fraction(alpha)
        eps = _positive(eps, "eps")
        c = (alpha / eps + k - 1) / k
        return cls(k=k, c=c, eps=eps, alpha=alpha, delta=as_fraction(delta), depth=depth)


def extremal_exact(k: int, c) -> StepWeight:
    """Depth-2 weight whose A1 constant is exactly ``c`` and whose
    rearrangement sup-ratio is exactly ``k*c - k + 1``.

    With eps normalized to 1 and alpha = k*c - k + 1, the value alpha sits on
    the first grandchild of every level-1 node and eps everywhere else: the
    extremal family at depth 2 with delta = 1/k^2.
    """
    return extremal_family(ExtremalParams.from_constant(k, c, Fraction(1, k**2), 2))


def extremal_family(params: ExtremalParams) -> StepWeight:
    """The delta-parameterized family at a given depth.

    Value alpha goes on the leftmost ``delta * k**depth`` leaves of the first
    grandchild of the root and on every leaf of the first grandchild of each
    remaining branch; eps fills the rest.  At delta = 1/k^2 this coincides
    leafwise with ``extremal_exact`` after refinement to the same depth.
    """
    k, depth = params.k, params.depth
    shape = make_shape(k, depth)
    grandchild = k ** (depth - 2)
    values = [params.eps] * shape.leaf_count
    values[: params.high_leaf_count] = [params.alpha] * params.high_leaf_count
    for branch in range(1, k):
        start = branch * k * grandchild
        values[start : start + grandchild] = [params.alpha] * grandchild
    return StepWeight(shape, tuple(values))


def family_constant_formula(k: int, alpha, eps, delta) -> Fraction:
    """Closed-form first-level average ratio of the extremal family.

    Returns (k/eps) * (alpha*delta + (1/k - delta)*eps): the average of the
    family over one level-1 branch divided by eps.  For delta strictly inside
    (0, 1/k^2) the measured A1 constant of the family is larger (the binding
    node sits one level deeper); the verification sweep reports both.
    """
    _check_int(k, "homogeneity k", 2)
    alpha, eps, delta = as_fraction(alpha), as_fraction(eps), as_fraction(delta)
    if alpha <= 0 or eps <= 0 or delta <= 0:
        raise ParameterError("alpha, eps and delta must be positive")
    return k * (alpha * delta + (Fraction(1, k) - delta) * eps) / eps


def weight_to_text(w: StepWeight) -> str:
    """Serialize as ``k m v_0 ... v_{k^m-1}`` with rationals as p/q, newline-terminated."""
    texts = list(map(_exact_string, w.palette))  # one rendering per distinct value, then a lookup per leaf
    return " ".join([str(w.shape.k), str(w.shape.m), *_per_leaf(w.codes, texts)]) + "\n"


def weight_from_text(text: str) -> StepWeight:
    """Parse the serialization produced by :func:`weight_to_text` (exact round-trip)."""
    tokens = text.split()
    if len(tokens) < 3:
        raise ParameterError("weight record needs at least 'k m v_0'")
    try:
        k, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ParameterError(f"bad k/m header in weight record: {tokens[:2]}") from exc
    shape = make_shape(k, m)
    values = tokens[2:]
    if len(values) != shape.leaf_count:
        raise ParameterError(
            f"weight record for k={k}, m={m} needs {shape.leaf_count} values, got {len(values)}"
        )
    # a weight file repeats few distinct tokens: each is parsed once, in order of first appearance,
    # so the first bad token is still the one reported
    parsed = {token: as_fraction(token) for token in dict.fromkeys(values)}
    code_of = {token: code for code, token in enumerate(parsed)}
    return _coded(shape, tuple(parsed.values()), tuple(map(code_of.__getitem__, values)))


def weight_hash(w: StepWeight) -> str:
    """SHA-256 of the canonical serialization; stable row identifier in reports."""
    return hashlib.sha256(weight_to_text(w).encode("ascii")).hexdigest()
