"""Piecewise-linear boundary twists on a two-coordinate cell.

Two families act on the square [-1,1]^2 sitting in coordinates (n, m), m > n:

* the unit twist (kind "first-attempt"): an unscaled counterclockwise shear
  of the boundary used by the demo of a construction whose limit collapses;
* the scaled twists (kinds "ccw"/"cw" and their cubed iterates): twists whose
  displacement in the weighted metric is bounded by epsilon(m), clockwise
  being the exact piecewise inverse of counterclockwise.

Every clause is evaluated in its printed table order, first match wins.  The
"verbatim" variant keeps two mirrored sign defects in the sheared clauses
(ccw Type III and cw Type I'), under which the map leaves the square; the
"corrected" variant flips both signs, which restores range containment,
piece-boundary agreement, and exact invertibility.  The diagnostics engine
can demonstrate each of those failures on a rational grid.

The printed shear fraction (sigma*(1-b) - x) / (a*(x-sigma) + sigma) is
identically equal to -b, so no clause actually divides: evaluation never
grows denominators beyond the input's.  One application therefore runs in
integers over a common denominator, and clockwise is evaluated as the
counterclockwise map conjugated by (x, y) -> (x, -y), with its own tags in
its own printed order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable

from .cube import PairVector, PointRep, Rational, _exact, _pairs, _point, epsilon, metric_d
from .errors import (
    BadIndices,
    DegeneratePair,
    EmptySampleSet,
    MultiplePreimages,
    NoPreimage,
    OutOfRange,
    RangeViolation,
    Unclassifiable,
)

# largest m that twist_diagnostics and render take
_MAX_M = 64


class MapKind(str, Enum):
    FIRST_ATTEMPT = "first-attempt"
    TWIST_CCW = "ccw"
    TWIST_CW = "cw"
    TWIST_CCW_CUBED = "ccw-cubed"
    TWIST_CW_CUBED = "cw-cubed"


class Variant(str, Enum):
    VERBATIM = "verbatim"
    CORRECTED = "corrected"


_SINGLE_OF = {
    MapKind.TWIST_CCW_CUBED: MapKind.TWIST_CCW,
    MapKind.TWIST_CW_CUBED: MapKind.TWIST_CW,
}

# --- exact integer clause kernel -------------------------------------------
#
# A point is held as integers (D, X, Y), x = X/D and y = Y/D with D > 0.  With
# A = a = 2^(m-n) and b = 1/A every clause condition is an integer comparison:
#   strip  1-b <= |x| <= 1          (A-1)D <= A|X| <= D*A
#   inner  |x| <= 1-b               A|X| <= (A-1)D
#   line   |y| vs a(|x|-1)+1        |Y| vs L = A|X| - (A-1)D
# and every formula an integer numerator over A*D.  With C = sigma(A-1)D,
# sigma = -1 for x < 0 and +1 otherwise, so that a(x-sigma)+sigma = (AX-C)/D,
# the ccw clauses read
#   I    ((C - Y)/AD,  (AX - C + Y)/D)
#   II   (AX/AD,       (AX - C + Y)/D)
#   III  ((AX -+ Y)/AD, (AX - C)/D)      -Y corrected, +Y verbatim
#   IV   ((AX - Y)/AD, Y/D)
# A is a power of two, so it is never built: A*Z is Z << (m-n), and (A-1)*D is
# (D << (m-n)) - D.  Only the signs of x and y enter the conditions, never
# their product.
# cw is ccw conjugated by R(x, y) = (x, -y): cw clause k at (x, y) is ccw
# clause _CCW_OF_CW[k] at R(x, y), its value reflected by R.  That sends the
# corrected ccw shear -b*y to cw's +b*y, and the verbatim defect along with it.
# Since R undoes itself, repeated cw applications all run in the reflected
# frame, entered once and left once.
# The unit twist is corrected ccw at A = 1, where C = 0: its formulas A1-A4
# are ccw's I-IV, and the two sign branches of ccw's inversion coincide.

_TAGS = {
    MapKind.FIRST_ATTEMPT: ("A1", "A2", "A3", "A4"),
    MapKind.TWIST_CCW: ("I", "II", "III", "IV"),
    MapKind.TWIST_CW: ("I'", "II'", "III'", "IV'"),
}
_CCW_OF_CW = (2, 1, 0, 3)
# the printed indices of the clauses that hold, for each order (ccw's index of
# each clause) and each tuple of ccw's conditions: the first match is the head
_HITS = {order: {held: tuple(k for k, c in enumerate(order) if held[c])
                 for held in product((False, True), repeat=4)} for order in ((0, 1, 2, 3), _CCW_OF_CW)}


@dataclass(frozen=True)
class CellMap:
    """A twist acting on the (n, m)-coordinate cell, m > n >= 1.

    The first-attempt kind ignores the variant (it has no defective clause).
    A CellMap evaluates itself on integer points.  The constants of the
    once-applied map are set at construction; not being fields, they stay
    out of equality, hashing and repr.  The scale 2^(m-n) is kept as its
    exponent, the shift every product with it becomes: a map is built before
    any size bound checks m, and 2^m need not fit in memory.
    """

    kind: MapKind
    variant: Variant
    n: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
            raise BadIndices("cell indices must be integers")
        if not (1 <= self.n < self.m):
            raise BadIndices(f"need m > n >= 1, got n={self.n}, m={self.m}")
        once = _SINGLE_OF.get(self.kind, self.kind)
        unit, cw = once == MapKind.FIRST_ATTEMPT, once == MapKind.TWIST_CW
        set_constant = object.__setattr__  # the way a frozen dataclass sets its fields
        set_constant(self, "_times", 1 if once is self.kind else 3)
        set_constant(self, "_shift", 0 if unit else self.m - self.n)
        set_constant(self, "_corrected", unit or self.variant == Variant.CORRECTED)
        set_constant(self, "_tags", _TAGS[once])
        set_constant(self, "_unit", unit)
        set_constant(self, "_reflected", cw)  # evaluated as ccw at R(x, y)
        set_constant(self, "_order", _CCW_OF_CW if cw else (0, 1, 2, 3))  # ccw's index of each clause
        set_constant(self, "_hits_of", _HITS[self._order])

    @property
    def is_cubed(self) -> bool:
        return self.kind in _SINGLE_OF

    def single(self) -> "CellMap":
        """The once-applied map underlying a cubed kind (self if single)."""
        return CellMap(_SINGLE_OF[self.kind], self.variant, self.n, self.m) if self.is_cubed else self

    def label(self) -> str:
        return f"{self.kind.value} n={self.n} m={self.m} {self.variant.value}"

    def hits(self, d: int, x: int, y: int) -> list[int]:
        """Indices, in printed order, of the clauses whose condition holds."""
        conditions = self._unit_conditions if self._unit else self._ccw_conditions
        return list(self._hits_of[conditions(d, x, -y if self._reflected else y)])

    def _first(self, d: int, x: int, y: int) -> int:
        """ccw's index of the first clause, in printed order, that holds at (x, y)/d
        in ccw's frame.  Strictly inside |x| < 1-b only IV holds, so one comparison
        decides it there; the unit twist's edge is 0, so it always reads its own."""
        s = self._shift
        if (abs(x) << s) < (d << s) - d:  # far < edge of _ccw_conditions
            return 3
        hit = self._hits_of[(self._unit_conditions if self._unit else self._ccw_conditions)(d, x, y)]
        if not hit:
            raise Unclassifiable(f"no clause matched {_fmt_pair(d, x, -y if self._reflected else y)}"
                                 f" for {self.single().label()}")
        return self._order[hit[0]]

    def _held_row(self, d: int, x: int) -> list[tuple[bool, bool, bool, bool]]:
        """The conditions at (x, y)/d for y = -d..d, in ccw's frame: each
        map of the cell reads its hits along the row off them."""
        return [self._ccw_conditions(d, x, y) for y in range(-d, d + 1)]

    def _row_hits(self, held: list[tuple[bool, bool, bool, bool]]) -> list[tuple[int, ...]]:
        """hits at y = -d..d along the row whose _held_row is held: cw reads it at -y."""
        return [self._hits_of[h] for h in (held[::-1] if self._reflected else held)]

    def _unit_conditions(self, d: int, x: int, y: int) -> tuple[bool, bool, bool, bool]:
        # the unit twist keeps its own regions: on the axes they differ
        # from ccw's at A = 1, which match I and IV at (0, 1/2), where
        # these match A4 alone, and II and III at (1/2, 0), where A3 alone
        ax, ay, neg = abs(x), abs(y), x * y < 0
        return ax <= ay and neg, ax >= ay and neg, ax >= ay and not neg, ax <= ay and not neg

    def _ccw_conditions(self, d: int, x: int, y: int) -> tuple[bool, bool, bool, bool]:
        s, ax, ay = self._shift, abs(x), abs(y)
        edge, far = (d << s) - d, ax << s
        line = far - edge
        strip = edge <= far and ax <= d
        high = strip and line <= ay <= d
        low = strip and ay <= line
        xy = ((x > 0) - (x < 0)) * ((y > 0) - (y < 0))  # the sign of x*y
        return xy <= 0 and high, xy <= 0 and low, xy >= 0 and low, (xy >= 0 and high) or far <= edge

    def value(self, k: int, d: int, x: int, y: int) -> tuple[int, int]:
        """Numerators over scale*d of clause k's formula at (x/d, y/d)."""
        if self._reflected:
            u, v = self._ccw_value(_CCW_OF_CW[k], d, x, -y)
            return u, -v
        return self._ccw_value(k, d, x, y)

    def _ccw_value(self, k: int, d: int, x: int, y: int) -> tuple[int, int]:
        s = self._shift
        ax = x << s
        if k == 3:
            return ax - y, y << s
        c = (d << s) - d if x >= 0 else d - (d << s)  # C
        if k == 0:
            return c - y, (ax - c + y) << s
        if k == 1:
            return ax, (ax - c + y) << s
        return (ax - y if self._corrected else ax + y), (ax - c) << s

    def _applied(self, times: int, d: int, x: int, y: int, check: bool) -> tuple[int, int, int]:
        """The first matching clause applied `times` times: (scale^times*d,
        u, v), not reduced.  With check, an application that leaves the
        square raises RangeViolation.  cw runs in the reflected frame."""
        s, r = self._shift, self._reflected
        y = -y if r else y
        for _ in range(times):
            x, y = self._ccw_value(self._first(d, x, y), d, x, y)
            d <<= s
            if check and (abs(x) > d or abs(y) > d):
                raise RangeViolation(f"{self.label()} left the square at {_fmt_pair(d, x, -y if r else y)}")
        return d, x, -y if r else y

    def apply(self, d: int, x: int, y: int) -> tuple[int, int, int]:
        """The first matching clause applied once: (scale*d, u, v), not reduced."""
        return self._applied(1, d, x, y, False)

    def image(self, d: int, x: int, y: int) -> tuple[int, int, int]:
        """The map applied to (x/d, y/d), three times if cubed: (D, U, V),
        not reduced.  Raises RangeViolation if any application leaves the
        square (possible only for the verbatim variant)."""
        return self._applied(self._times, d, x, y, True)

    def shear(self, d: int, x: int, y: int) -> tuple[int, int] | None:
        """image's first coordinate (U, E), not reduced, where every
        application takes clause IV; None elsewhere.  In the map's own frame
        (Y = -y for cw) the t = _times applications lie strictly inside the
        strip iff |AX - kY| < (A-1)D for k < t, and the bound is convex in k.
        There the map is the shear (AX - tY)/(AD), and y keeps its value.
        The unit twist's (A-1)D is 0, so it never holds."""
        t, e = self._times, d << self._shift
        w, ax = -y if self._reflected else y, x << self._shift
        u = ax - t * w
        if abs(ax) < e - d and abs(ax - (t - 1) * w) < e - d and abs(u) <= e:  # last: image's range check
            return u, e
        return None

    def preimage(self, e: int, u: int, v: int) -> tuple[int, int]:
        """The unique (x, y) in the square that the once-applied map sends to
        (u/e, v/e), as numerators over scale*e.

        Every clause formula is solved for its input, all sign branches, and
        a solution counts if it lies in the square and printed-order
        evaluation maps it back.  Each clause is affine in (x, y) once sigma
        is fixed (the second output coordinate pins x, then the first is
        linear in y), so inversion is exact and needs no closed-form inverse
        map.  cw's are ccw's at R(u, v), in cw's order, each candidate
        checked against ccw's clause table there and reflected once found.
        Raises NoPreimage / MultiplePreimages where the map fails to be a
        bijection onto the square at this value (verbatim defect).
        """
        s, order = self._shift, self._order
        w = -v if self._reflected else v  # cw solves ccw's clauses at R(u, v) = (u, w)
        au, d = u << s, e << s  # over d = a*e, where a = 2^(m-n)
        image = (u << 2 * s, w << 2 * s)  # a clause sends d to a*d
        found: list[tuple[int, int]] = []
        # C = sigma(a-1)e; at A = 1 both branches give the same solutions.
        # IV, printed last, has no sigma: it is solved once, after both
        for c, clauses in ((d - e, order[:3]), (e - d, order)):
            t = c + w - au
            by_clause = ((au + w, (c - au) << s),  # I: y + sigma = a(sigma - u), then v = a(x - u)
                         (au, t << s),  # II: x = u
                         (c + w, (t if self._corrected else -t) << s),  # III: v pins x, the shear gives y
                         (au + w, w << s))  # IV: u = x - b*y, v = y
            for k in clauses:
                x, y = by_clause[k]  # in the square some clause holds, so _first answers
                if abs(x) <= d and abs(y) <= d and (x, y) not in found \
                        and self._ccw_value(self._first(d, x, y), d, x, y) == image:
                    found.append((x, y))
        if self._reflected:
            found = [(x, -y) for x, y in found]
        if len(found) == 1:
            return found[0]
        if not found:
            raise NoPreimage(f"{self.label()} has no preimage of {_fmt_pair(e, u, v)}")
        raise MultiplePreimages(f"{self.label()} has {len(found)} preimages of {_fmt_pair(e, u, v)}:"
                                f" {[_fractions(d, x, y) for x, y in found]}")


def _lift_ints(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int, int]:
    """(D, X, Y) with xn/xd = X/D, yn/yd = Y/D and D = lcm(xd, yd)."""
    g = gcd(xd, yd)
    return xd // g * yd, xn * (yd // g), yn * (xd // g)


def _square_lift(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int, int]:
    """_lift_ints of a point of the square; any other point raises OutOfRange."""
    d, x, y = _lift_ints(xn, xd, yn, yd)
    if abs(x) > d or abs(y) > d:
        raise OutOfRange(f"({Fraction(xn, xd)}, {Fraction(yn, yd)}) outside the square")
    return d, x, y


def _lift(x: Rational, y: Rational, lift=_lift_ints) -> tuple[int, int, int]:
    """lift applied to the exact values of x and y: _lift_ints, or
    _square_lift to refuse a point outside the square."""
    x, y = _exact(x), _exact(y)
    return lift(x.numerator, x.denominator, y.numerator, y.denominator)


def _fractions(d: int, x: int, y: int) -> tuple[Fraction, Fraction]:
    return Fraction(x, d), Fraction(y, d)


def _fmt_pair(d: int, x: int, y: int) -> str:
    return f"({Fraction(x, d)}, {Fraction(y, d)})"


def _walk(maps: Iterable[CellMap], v: PairVector) -> PairVector:
    """The maps applied in order to the pair vector v, in place; returns v.

    A map lifts its two pairs over the lcm of their denominators, applies
    itself in integers and reduces each output by one gcd.  Where the whole
    map is a shear (CellMap.shear), coordinate m keeps its pair."""
    tail = v[0]
    for cm in maps:
        d, x, y = _square_lift(*v.get(cm.n, tail), *v.get(cm.m, tail))
        sheared = cm.shear(d, x, y)
        if sheared is None:
            d, u, w = cm.image(d, x, y)
            h = gcd(w, d)
            v[cm.m] = w // h, d // h
        else:
            u, d = sheared
        g = gcd(u, d)
        v[cm.n] = u // g, d // g
    return v


def matching_regions(cm: CellMap, x: Rational, y: Rational) -> list[str]:
    """Every clause whose condition holds (clause boundaries give several)."""
    return [cm._tags[k] for k in cm.hits(*_lift(x, y, _square_lift))]


def piece_value(cm: CellMap, tag: str, x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    """Evaluate one named clause formula regardless of where (x, y) lies.

    Off its region too: the sheared clauses (ccw III, cw I') shift x by
    -+b*y, the value of the printed quotient wherever it is defined, so at
    x = +-(1-b), y != 0, where that quotient's denominator vanishes, the
    value is still returned.
    """
    if tag not in cm._tags:
        raise BadIndices(f"unknown clause {tag!r} for {cm.label()}")
    d, x, y = _lift(x, y)
    return _fractions(d << cm._shift, *cm.value(cm._tags.index(tag), d, x, y))


def twist_eval(cm: CellMap, x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    """Image of (x, y); cubed kinds apply their single map three times.

    Raises RangeViolation if any application leaves the square (possible only
    for the verbatim variant).
    """
    return _fractions(*cm.image(*_lift(x, y, _square_lift)))


def twist_eval_unchecked(cm: CellMap, x: Rational, y: Rational) -> tuple[Fraction, Fraction]:
    """Like twist_eval but lets out-of-square values pass through; raises
    Unclassifiable only where one matches no clause."""
    return _fractions(*cm._applied(cm._times, *_lift(x, y), False))


def twist_cell_apply(cm: CellMap, p: PointRep) -> PointRep:
    """Apply the twist to coordinates (n, m) of a full point."""
    return _point(_walk((cm,), _pairs(p)))


def piece_inverse_oracle(cm: CellMap, u: Rational, v: Rational) -> tuple[Fraction, Fraction]:
    """The unique (x, y) in the square with twist_eval(cm, x, y) == (u, v),
    found by clause inversion: see CellMap.preimage."""
    if cm.is_cubed:
        raise BadIndices("oracle inverts single applications only")
    e, u, v = _lift(u, v)
    return _fractions(e << cm._shift, *cm.preimage(e, u, v))


def lipschitz_sample_check(cm: CellMap, pairs: Iterable[tuple[PointRep, PointRep]]) -> Fraction:
    """Largest observed d-distance expansion ratio over the sampled pairs."""
    worst = None
    for p, q in pairs:
        base = metric_d(p, q)
        if base == 0:
            raise DegeneratePair(f"zero-distance pair {p} = {q}")
        ratio = metric_d(twist_cell_apply(cm, p), twist_cell_apply(cm, q)) / base
        if worst is None or ratio > worst:
            worst = ratio
    if worst is None:
        raise EmptySampleSet("lipschitz_sample_check needs at least one pair")
    return worst


# --- diagnostics ------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    check: str
    map_label: str
    witness: tuple[Fraction, Fraction]
    expected: str
    observed: str


@dataclass(frozen=True)
class ErrataReport:
    variant: Variant
    n: int
    m: int
    grid_step: Fraction
    points_checked: int
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_check(self) -> dict[str, int]:
        return dict(sorted(Counter(f.check for f in self.findings).items()))

    def to_records(self) -> list[dict]:
        """Canonically ordered plain records (sorted, rationals as strings);
        witnesses sort as numerators over the lcm of all their denominators."""
        den = lcm(self.grid_step.denominator, *{w.denominator for f in self.findings for w in f.witness})
        ordered = sorted(self.findings, key=lambda f: (f.check, f.map_label,
                                                       *[w.numerator * (den // w.denominator) for w in f.witness]))
        return [
            {
                "check": f.check,
                "map": f.map_label,
                "witness": [str(f.witness[0]), str(f.witness[1])],
                "expected": f.expected,
                "observed": f.observed,
            }
            for f in ordered
        ]


def twist_diagnostics(variant: Variant, n: int, m: int, grid_step: Rational) -> ErrataReport:
    """Reconcile the scaled twist pair against its stated properties on the
    full rational grid of the square with the given step.

    Checks, every failure recorded as a finding:
      range-containment   images stay in the square (both directions)
      piece-agreement     overlapping clauses give equal values
      inverse-roundtrip   cw(ccw(x, y)) == (x, y)
      oracle-roundtrip    clause inversion of the ccw image returns (x, y)
      center-fixity       the segment y = 0, |x| <= 1 - eps(m)/eps(n) is fixed
      displacement        cell displacement <= eps(m), or 3*eps(m) for the
                          cubed maps (checked on a stride-4 subgrid)

    One pass over the grid points (x, y)/d, d = 1/step, in the kernel's
    integers: images sit over e = a*d, a = 2^(m-n), and every check compares
    integers, clause inversion included.  ccw's conditions are read once per
    point, a row at a time, and both single maps take their hits off them,
    cw at (x, -y).  Every product with a is a shift, made once per row where
    it depends on x alone.  Fractions are built only for a finding's text.

    The step is 1/2^k with 4 <= k <= 8: the finest grid, 1/256, already has
    513^2 points, and every step finer asks for four times as many.  m is at
    most 64: every clause integer carries the factor 2^(m-n).
    """
    grid_step = _exact(grid_step)
    if not Fraction(1, 256) <= grid_step <= Fraction(1, 16) or grid_step.numerator != 1 \
            or grid_step.denominator & (grid_step.denominator - 1):
        raise BadIndices(f"grid step must be 1/2^k, 4 <= k <= 8, got {grid_step}")
    kinds = (MapKind.TWIST_CCW, MapKind.TWIST_CW, MapKind.TWIST_CCW_CUBED, MapKind.TWIST_CW_CUBED)
    ccw, cw, ccw3, cw3 = (CellMap(kind, variant, n, m) for kind in kinds)
    if m > _MAX_M:
        raise BadIndices(f"diagnostics need m <= {_MAX_M}, got m={m}")
    d, s = grid_step.denominator, m - n
    e, edge = d << s, (d << s) - d  # images sit over e = a*d; |x| <= 1-b reads |ax| <= edge
    cubed_e = d << 3 * s  # a cubed image sits over a^3*d
    eps_m = epsilon(m)
    findings: list[Finding] = []

    def note(check, cm, x, y, expected, observed):
        findings.append(Finding(check, cm.label(), _fractions(d, x, y), expected, observed))

    def moved_too_far(cm, times, x, y, far, over):
        # far is 2^m * over times the cell metric from (x, y)/d to the image
        note("displacement", cm, x, y, f"cell displacement <= {times * eps_m}", str(Fraction(far, over << m)))

    for x in range(-d, d + 1):
        ax, home_x, cubed_x = x << s, x << 2 * s, x << 3 * s  # x over e, a*e and a^2*e
        centre = abs(ax) <= edge
        held = ccw._held_row(d, x)
        for y, ccw_hits, cw_hits in zip(range(-d, d + 1), ccw._row_hits(held), cw._row_hits(held)):
            for cm, hits in ((ccw, ccw_hits), (cw, cw_hits)):
                # the first matching clause is the one applied
                p, q = img = cm.value(hits[0], d, x, y)
                if cm is ccw:
                    u, v = img  # the forward image both roundtrips start from
                if abs(p) > e or abs(q) > e:
                    note("range-containment", cm, x, y, "image inside the square",
                         f"{cm._tags[hits[0]]} -> {_fmt_pair(e, p, q)}")
                if len(hits) > 1:
                    vals = [img] + [cm.value(k, d, x, y) for k in hits[1:]]
                    if any(val != img for val in vals):
                        tags = [cm._tags[k] for k in hits]
                        note("piece-agreement", cm, x, y, f"clauses {tags} agree",
                             "; ".join(f"{t}: {_fmt_pair(e, *val)}" for t, val in zip(tags, vals)))
                far = (abs(ax - p) << s) + abs((y << s) - q)
                if far > e:
                    moved_too_far(cm, 1, x, y, far, e)
                if y == 0 and centre and img != (ax, 0):
                    note("center-fixity", cm, x, 0, f"({Fraction(x, d)}, 0) fixed", _fmt_pair(e, p, q))
            if x % 4 == 0 and y % 4 == 0:  # cubed maps: every fourth row and column
                for cm in (ccw3, cw3):
                    try:
                        _, p, q = cm._applied(3, d, x, y, False)
                    except Unclassifiable as exc:
                        # an earlier application already left the square, so
                        # the orbit has no defined continuation to measure
                        note("displacement", cm, x, y, f"cell displacement <= {3 * eps_m}", str(exc))
                        continue
                    far = (abs(cubed_x - p) << s) + abs((y << 3 * s) - q)
                    if far > 3 * cubed_e:
                        moved_too_far(cm, 3, x, y, far, cubed_e)
            if abs(u) > e or abs(v) > e:
                note("inverse-roundtrip", cw, x, y, "forward image inside the square",
                     _fmt_pair(e, u, v))
                continue
            home = (home_x, y << 2 * s)  # (x, y) over a*e, where both inverses land
            ee, p, q = cw.apply(e, u, v)
            if (p, q) != home:
                w = _fmt_pair(d, x, y)
                note("inverse-roundtrip", cw, x, y, f"cw(ccw{w}) == {w}",
                     f"{_fmt_pair(e, u, v)} -> {_fmt_pair(ee, p, q)}")
            try:
                pre = ccw.preimage(e, u, v)
                if pre != home:
                    note("oracle-roundtrip", ccw, x, y, f"unique preimage {_fmt_pair(d, x, y)}",
                         _fmt_pair(e << s, *pre))
            except (NoPreimage, MultiplePreimages) as exc:
                note("oracle-roundtrip", ccw, x, y, f"unique preimage of {_fmt_pair(e, u, v)}",
                     "no preimage" if isinstance(exc, NoPreimage) else str(exc))

    return ErrataReport(variant, n, m, grid_step, (2 * d + 1) ** 2, tuple(findings))
