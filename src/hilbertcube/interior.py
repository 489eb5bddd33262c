"""Coordinatewise interior homeomorphism.

For pseudo-interior anchors p, q the coordinate map is the unique two-piece
increasing linear map [-1,1] -> [-1,1] fixing -1 and 1 and sending p_i to q_i.
Applied in every coordinate it moves p to q exactly while fixing the whole
pseudo-boundary, and its inverse is the same construction with anchors
swapped.  Each knee (p_i, q_i) is held as the integers of its two lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd

from .cube import PairVector, PointRep, _pairs, _point
from .errors import AnchorOnBoundary, OutOfRange


def _require_interior(p: PointRep, name: str) -> None:
    for k, c in enumerate((*p.prefix, p.tail), 1):
        if abs(c._numerator) >= c._denominator:
            where = "tail" if k > len(p.prefix) else f"coordinate {k}"
            raise AnchorOnBoundary(f"{name} {where} = {c} is not interior")


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
        each anchor's prefix padded with its tail to anchor_count + 1 entries.
        Knee (pn/pd, qn/qd) is held as the integers (pn, pd, a, b, c, h, f) of
        its two lines: a = (qn+qd)pd, b = (pn+pd)qd, c = qd-qn, h = qn(pd-pn)
        and f = (pd-pn)qd.  At t = tn/td the value is ((tn+td)a - td*b) / (td*b)
        for tn*pd <= pn*td, else ((tn*pd - pn*td)c + td*h) / (td*f); the slopes
        are a/b and c*pd/f, and swapping the anchors swaps a and b."""
        size = self.anchor_count + 1
        src, tgt = ((*p.prefix, *[p.tail] * (size - len(p.prefix))) for p in (self.source, self.target))
        anchors = ((p._numerator, p._denominator, q._numerator, q._denominator) for p, q in zip(src, tgt))
        return tuple((pn, pd, (qn + qd) * pd, (pn + pd) * qd, qd - qn, qn * (pd - pn), (pd - pn) * qd)
                     for pn, pd, qn, qd in anchors)

    @cached_property
    def _slope_bounds(self) -> tuple[Fraction, tuple[int, ...]]:
        """One pass over the knees: max(1, every slope of every knee), and per
        knee the least e >= 0 with both its slopes, a/b and c*pd/f, <= 2^e.
        Slopes are compared by cross-multiplication."""
        best_n, best_d, exps = 1, 1, []
        for _, pd, a, b, c, _, f in self._knees:
            e = 0
            for n, d in ((a, b), (c * pd, f)):
                # only a slope above 2^e moves either bound; a knee has at most one above 1
                if n > d << e:
                    e = n.bit_length() - d.bit_length()  # n/d lies in (2^(e-1), 2^(e+1))
                    e += n > d << e  # now the least e with n/d <= 2^e
                    if n * best_d > best_n * d:
                        best_n, best_d = n, d
            exps.append(e)
        return Fraction(best_n, best_d), tuple(exps)


def _move(params: InteriorMapParams, v: PairVector) -> PairVector:
    """The move applied to the pair vector v, one integer pass per coordinate
    on its knee's lines (_knees), reduced by one gcd.  Past the anchored
    coordinates every one shares the tail's knee, so only those v holds apart
    from its tail need a value of their own.  The range check on t is the
    move's own guard: a pair vector from no PointRep was checked by nothing else."""
    knees = params._knees
    last, tail = len(knees) - 1, v[0]
    keys = [*range(1, last + 1), *(i for i, c in v.items() if i > last and c != tail), 0]
    moved = {}
    for i, (pn, pd, a, b, c, h, f) in zip(keys, chain(knees[:last], repeat(knees[last]))):
        tn, td = v.get(i, tail)
        if not -td <= tn <= td:
            raise OutOfRange(f"t = {Fraction(tn, td)} outside [-1, 1]")
        if tn * pd <= pn * td:
            den = td * b
            num = (tn + td) * a - den
        else:
            num, den = (tn * pd - pn * td) * c + td * h, td * f
        g = gcd(num, den)
        moved[i] = num // g, den // g
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
