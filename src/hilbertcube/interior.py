"""Coordinatewise interior homeomorphism.

For pseudo-interior anchors p, q the coordinate map is the unique two-piece
increasing linear map [-1,1] -> [-1,1] fixing -1 and 1 and sending p_i to q_i.
Applied in every coordinate it moves p to q exactly while fixing the whole
pseudo-boundary, and its inverse is the same construction with anchors
swapped.  Each knee (p_i, q_i) is held as integers (pn, pd, qn, qd).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .cube import PairVector, PointRep, _pairs, _point
from .errors import AnchorOnBoundary, OutOfRange


def _require_interior(p: PointRep, name: str) -> None:
    for k, c in enumerate((*p.prefix, p.tail), 1):
        if abs(c.numerator) >= c.denominator:
            where = "tail" if k > len(p.prefix) else f"coordinate {k}"
            raise AnchorOnBoundary(f"{name} {where} = {c} is not interior")


def _coord_value(knee: tuple, tn: int, td: int) -> tuple[int, int]:
    """Value at t = tn/td, td > 0, of the two-piece map through the knee, as
    a reduced (num, den): (t+1)(q+1)/(p+1) - 1 for t <= p, else
    (t-p)(1-q)/(1-p) + q, each over one denominator, reduced by one gcd.
    The range check on t is the move's own guard: _move takes pair vectors,
    and one that came from no PointRep was checked by nothing else."""
    pn, pd, qn, qd = knee
    if not -td <= tn <= td:
        raise OutOfRange(f"t = {Fraction(tn, td)} outside [-1, 1]")
    if tn * pd <= pn * td:
        den = td * (pn + pd) * qd
        num = (tn + td) * (qn + qd) * pd - den
    else:
        num, den = (tn * pd - pn * td) * (qd - qn) + qn * td * (pd - pn), td * (pd - pn) * qd
    g = gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True)
class InteriorMapParams:
    """The anchors of one interior move.  Its knee table and slope bounds
    are built once, on first use; not being fields, they stay out of
    equality, hashing and repr."""

    source: PointRep
    target: PointRep

    def __post_init__(self):
        _require_interior(self.source, "source")
        _require_interior(self.target, "target")

    @property
    def anchor_count(self) -> int:
        return max(len(self.source.prefix), len(self.target.prefix))

    @cached_property
    def _knees(self) -> tuple:
        """Knees of coordinates 1..anchor_count, then the tail's, used past them:
        each anchor's prefix padded with its tail to anchor_count + 1 entries."""
        size = self.anchor_count + 1
        src, tgt = ((*p.prefix, *[p.tail] * (size - len(p.prefix))) for p in (self.source, self.target))
        return tuple((p.numerator, p.denominator, q.numerator, q.denominator) for p, q in zip(src, tgt))

    @cached_property
    def _slope_bounds(self) -> tuple[Fraction, tuple[int, ...]]:
        """One pass over the knees: max(1, every slope of every knee), and per
        knee the least e >= 0 with both its slopes, (q+1)/(p+1) and
        (1-q)/(1-p), <= 2^e.  Slopes are compared by cross-multiplication."""
        best_n, best_d, exps = 1, 1, []
        for pn, pd, qn, qd in self._knees:
            e = 0
            for n, d in (((qn + qd) * pd, (pn + pd) * qd), ((qd - qn) * pd, (pd - pn) * qd)):
                # only a slope above 2^e moves either bound; a knee has at most one above 1
                if n > d << e:
                    e = n.bit_length() - d.bit_length()  # n/d lies in (2^(e-1), 2^(e+1))
                    e += n > d << e  # now the least e with n/d <= 2^e
                    if n * best_d > best_n * d:
                        best_n, best_d = n, d
            exps.append(e)
        return Fraction(best_n, best_d), tuple(exps)


def _move(params: InteriorMapParams, v: PairVector) -> PairVector:
    """The move applied to the pair vector v.  Each anchored coordinate has
    its own knee; past them every coordinate shares the tail's, so only
    those v holds apart from its tail need a value of their own."""
    knees = params._knees
    last, tail = len(knees) - 1, v[0]
    moved = {i: _coord_value(knees[i - 1], *v.get(i, tail)) for i in range(1, last + 1)}
    moved.update((i, _coord_value(knees[last], *c)) for i, c in v.items() if i > last and c != tail)
    moved[0] = _coord_value(knees[last], *tail)
    return moved


def interior_map_eval(params: InteriorMapParams, x: PointRep) -> PointRep:
    return _point(_move(params, _pairs(x)))


def interior_map_inverse(params: InteriorMapParams) -> InteriorMapParams:
    return InteriorMapParams(params.target, params.source)


def lipschitz_bound(params: InteriorMapParams) -> Fraction:
    """Exact bound on d(f(x), f(y)) / d(x, y): the largest coordinate slope.

    Each coordinate map is piecewise linear with its knee's two slopes,
    (q+1)/(p+1) and (1-q)/(1-p), so |f_i(s) - f_i(t)| <= L_i |s - t| with
    L_i their max; the weighted sum then scales by max_i L_i at worst.
    """
    return params._slope_bounds[0]


def slope_exponents(params: InteriorMapParams) -> tuple[int, ...]:
    """Per knee (coordinates 1..anchor_count, then the tail's), the least
    e >= 0 with both its slopes at most 2^e: each coordinate's Lipschitz
    constant rounded up to a power of two."""
    return params._slope_bounds[1]
