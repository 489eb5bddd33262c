"""Points of the cube and the exact weighted metric.

A point of the infinite-dimensional cube (coordinates indexed from 1, each in
[-1, 1]) is stored as a finite rational prefix plus a constant rational tail.
That class of points is closed under every map in this package, and the metric

    d(p, q) = sum_{i >= 1} |p_i - q_i| * 2^(-i)

is computable exactly: past the longer prefix both points are constant, so the
remainder is a geometric series with value |tail_p - tail_q| * 2^(-N).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .errors import BadIndices, OutOfRange

Rational = Fraction


def _check_index(j: int) -> None:
    if j < 1:
        raise BadIndices(f"coordinate index must be >= 1, got {j}")


def epsilon(j: int) -> Fraction:
    """Weight of coordinate j: 2^(-j). The segment [-1,1] in coordinate j
    has d-length exactly 2 * epsilon(j)."""
    _check_index(j)
    return Fraction(1, 2**j)


def _exact(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _unit(c: Fraction, index: int) -> None:
    """Refuse c outside [-1, 1] as coordinate index (0: the tail).  Reads
    the slots of a plain Fraction, the only kind _exact and _coprime make."""
    if not -c._denominator <= c._numerator <= c._denominator:
        what = f"coordinate {index}" if index else "tail"
        raise OutOfRange(f"{what} = {c} outside [-1, 1]")


def _settle(point: PointRep, prefix: tuple[Fraction, ...], tail: Fraction) -> PointRep:
    """Check the prefix entries in order, skipping the already checked tail
    object, strip the trailing ones equal to the tail and set both fields."""
    for k, c in enumerate(prefix, 1):
        if c is not tail:
            _unit(c, k)
    end = len(prefix)  # one slice after the last entry that differs from the tail
    while end and (prefix[end - 1] is tail or prefix[end - 1] == tail):
        end -= 1
    object.__setattr__(point, "prefix", prefix[:end])
    object.__setattr__(point, "tail", tail)
    return point


@dataclass(frozen=True)
class PointRep:
    """Finite prefix + constant tail representation of a cube point.

    Normalized on construction: trailing prefix entries equal to the tail are
    absorbed, so structural equality is coordinatewise equality.
    """

    prefix: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self):
        tail = _exact(self.tail)
        _unit(tail, 0)  # before any prefix entry is converted
        _settle(self, tuple(map(_exact, self.prefix)), tail)

    def coord(self, i: int) -> Fraction:
        _check_index(i)
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.tail

    def __repr__(self):
        pre = ", ".join(str(c) for c in self.prefix)
        return f"PointRep([{pre}], tail={self.tail})"


# A point in flight, as one sparse vector of reduced pairs: v[i] = (num, den),
# den > 0, for each coordinate i >= 1 it holds, and v[0] the tail, which every
# coordinate it does not hold equals.  An evaluation carries one through its
# walks and its move, in integers, and builds one PointRep at the end.
PairVector = dict[int, tuple[int, int]]


def _pairs(p: PointRep) -> PairVector:
    v = {i: (c.numerator, c.denominator) for i, c in enumerate(p.prefix, 1)}
    v[0] = p.tail.numerator, p.tail.denominator
    return v


def _coprime(n: int, d: int) -> Fraction:
    """Fraction(n, d) for coprime n and d > 0, built without its gcd: what
    Fraction._from_coprime_ints does on Python 3.12 and later."""
    f = object.__new__(Fraction)  # Fraction.__new__ would normalize
    f._numerator, f._denominator = n, d
    return f


def _point(v: PairVector) -> PointRep:
    """The PointRep of a pair vector of reduced pairs, built with no gcd and
    no __post_init__: every coordinate equal to the tail is the tail object."""
    t = v[0]
    tail = _coprime(*t)
    _unit(tail, 0)
    prefix = [tail] * max(v)
    for i, c in v.items():
        if c != t:  # never key 0, the tail itself
            prefix[i - 1] = _coprime(*c)
    return _settle(object.__new__(PointRep), tuple(prefix), tail)


def make_point(prefix: Sequence[Fraction | int | str], tail: Fraction | int | str) -> PointRep:
    return PointRep(tuple(prefix), tail)  # PointRep converts each entry exactly


ORIGIN = make_point([], 0)


def _binary_sum(terms: list[int]) -> int:
    """sum_i terms[i] * 2^(len - 1 - i), combined pairwise: adjacent blocks
    of one width w become (left << w) + right, in O(log len) rounds of
    linear work.  A round of odd length gets one trailing block of zeros,
    which pads the terms to a power of two; the factor 2^pad those zeros
    add is shifted out once at the end."""
    pad = (1 << (len(terms) - 1).bit_length()) - len(terms)
    level, width = terms or [0], 1
    while len(level) > 1:
        if len(level) & 1:
            level = [*level, 0]
        pairs = iter(level)
        level = [(left << width) + right for left, right in zip(pairs, pairs)]
        width <<= 1
    return level[0] >> pad


def metric_d(p: PointRep, q: PointRep) -> Fraction:
    """One integer sum over D, the common denominator of both points: with n
    the longer prefix, d(p, q) * D * 2^n = sum_{i <= n} |P_i - Q_i| * 2^(n-i)
    + |P_tail - Q_tail|, the tail's weight because sum_{i>n} 2^-i = 2^-n.
    The sum over i <= n is taken pairwise, so it costs O(M(n) log n), not
    O(n^2), bit operations."""
    n = max(len(p.prefix), len(q.prefix))
    pc = (*p.prefix, *[p.tail] * (n - len(p.prefix)), p.tail)
    qc = (*q.prefix, *[q.tail] * (n - len(q.prefix)), q.tail)
    dens = {c.denominator for c in (*pc, *qc)}
    den = lcm(*dens)
    scale = {d: den // d for d in dens}  # one quotient per distinct denominator
    diffs = [abs(a.numerator * scale[a.denominator] - b.numerator * scale[b.denominator])
             for a, b in zip(pc, qc)]
    total = diffs[n] + _binary_sum(diffs[:n])
    return Fraction(total, den << n)


def cell_metric(n: int, m: int, a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> Fraction:
    """Distance contribution of the (n, m)-coordinate cell:
    epsilon(n)*|dx| + epsilon(m)*|dy|. Requires m > n >= 1.

    Two points that differ only in coordinates n and m are at exactly this
    d-distance, which is what makes per-cell displacement arguments exact.
    """
    if not (isinstance(n, int) and isinstance(m, int)) or not (1 <= n < m):
        raise BadIndices(f"need m > n >= 1, got n={n}, m={m}")
    return epsilon(n) * abs(a[0] - b[0]) + epsilon(m) * abs(a[1] - b[1])


@dataclass(frozen=True)
class BoundaryProfile:
    """Where a point meets the pseudo-boundary.

    explicit_indices: prefix positions j with |p_j| = 1.
    tail_is_boundary: whether the constant tail is +-1 (then every index from
    tail_start on is a boundary coordinate).
    Iterating yields the boundary indices in increasing order, endlessly for
    a +-1 tail.
    """

    explicit_indices: tuple[int, ...]
    tail_is_boundary: bool
    tail_start: int

    def __iter__(self) -> Iterator[int]:
        yield from self.explicit_indices
        if self.tail_is_boundary:
            yield from itertools.count(self.tail_start)

    def first(self) -> int:
        for j in self:
            return j
        raise BadIndices("a pseudo-interior point has no boundary index")

    def contains(self, j: int) -> bool:
        return j in self.explicit_indices or (self.tail_is_boundary and j >= self.tail_start)

    @property
    def is_pseudo_interior(self) -> bool:
        return not self.explicit_indices and not self.tail_is_boundary

    @property
    def is_boundary(self) -> bool:
        return not self.is_pseudo_interior


def classify_point(p: PointRep) -> BoundaryProfile:
    explicit = tuple(i + 1 for i, c in enumerate(p.prefix) if abs(c) == 1)
    return BoundaryProfile(
        explicit_indices=explicit,
        tail_is_boundary=abs(p.tail) == 1,
        tail_start=len(p.prefix) + 1,
    )
