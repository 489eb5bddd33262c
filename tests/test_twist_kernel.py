"""The integer twist kernel against the Fraction clause tables it replaced.

twist_oracle.py holds those tables, every formula as printed.  Tags, values,
images and inverse-oracle outcomes (exception type and message included)
must agree exactly: on the full 1/32 grid of the criterion-3 cells, and on
seeded random points with large denominators, out-of-square ones included;
cubed images also at the 300-1,400-bit denominators a deep walk feeds them,
and inverse-oracle outcomes also at the scales 2^31 and 2^176 of cells
(9,40) and (60,236), on the clause seams.
The 1/32 grid meets every clause tie the 1/64 grid of criterion 3 meets, at
a quarter of the cost of the Fraction tables.  The grid diagnostics, which
check every point in the kernel's integers, must report exactly what the
Fraction pass in twist_oracle.py reports.  Cell maps applied to full
points, one map or a composition of unit twists, must agree with the same
composition through the Fraction entry point twist_eval.  Where a whole
stage is one shear, CellMap.shear must give image's value, and a walk the
same point as through image alone.
"""

import random
import re
from fractions import Fraction
from math import lcm

import pytest
import twist_oracle as oracle

from hilbertcube import (
    CellMap,
    MapKind,
    MultiplePreimages,
    NoPreimage,
    RangeViolation,
    Unclassifiable,
    Variant,
    build_schedule,
    classify_point,
    first_attempt_partial,
    make_point,
    matching_regions,
    piece_inverse_oracle,
    piece_value,
    twist_cell_apply,
    twist_diagnostics,
    twist_eval,
    twist_eval_unchecked,
)
from hilbertcube import twists
from hilbertcube.cube import _pairs, _point
from hilbertcube.twists import _walk

F = Fraction

CELLS = ((1, 2), (1, 4), (2, 3), (3, 12))
SINGLE = (MapKind.TWIST_CCW, MapKind.TWIST_CW)
ALL_KINDS = tuple(MapKind)
GRID = [F(k, 32) for k in range(-32, 33)]


def maps(kinds):
    return [CellMap(kind, variant, n, m) for n, m in CELLS for variant in Variant for kind in kinds]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def check_point(cm, x, y):
    table = oracle.clauses(cm, x, y)
    tags = [tag for tag, cond, _ in table if cond]
    assert matching_regions(cm, x, y) == tags, (x, y)
    values = {tag: formula() for tag, cond, formula in table if cond}
    for tag in tags:
        assert piece_value(cm, tag, x, y) == values[tag], (tag, x, y)


@pytest.mark.parametrize("cm", maps(SINGLE), ids=lambda cm: cm.label().replace(" ", "-"))
def test_grid_regions_and_values(cm):
    for x in GRID:
        for y in GRID:
            check_point(cm, x, y)


@pytest.mark.parametrize("cm", maps(SINGLE), ids=lambda cm: cm.label().replace(" ", "-"))
def test_grid_inverse_oracle(cm):
    # images of grid points (what the diagnostics ask), plus grid values
    # themselves, where verbatim maps have no or several preimages
    sub = GRID[::8]
    queries = [oracle.twist_eval_unchecked(cm, x, y) for x in sub for y in sub]
    queries += [(u, v) for u in GRID[::4] for v in GRID[1::8]]
    for u, v in queries:
        assert outcome(piece_inverse_oracle, cm, u, v) == outcome(oracle.piece_inverse_oracle, cm, u, v), (u, v)


def _rational(rng, bound):
    den = rng.choice((3, 7, 1000, 2 ** rng.randint(1, 40), rng.randint(1, 2 ** 40)))
    return F(rng.randint(-bound * den, bound * den), den)


@pytest.mark.parametrize("cm", maps(ALL_KINDS), ids=lambda cm: cm.label().replace(" ", "-"))
def test_random_points(cm):
    rng = random.Random(cm.label())
    for _ in range(100):
        x, y = _rational(rng, 1), _rational(rng, 1)
        check_point(cm, x, y)
        assert matching_regions(cm, x, y)[0] == oracle.apply_once(cm.single(), x, y)[0]
        if not cm.is_cubed:
            assert outcome(piece_inverse_oracle, cm, x, y) == outcome(oracle.piece_inverse_oracle, cm, x, y)
        assert outcome(twist_eval_unchecked, cm, x, y) == outcome(oracle.twist_eval_unchecked, cm, x, y)
    # out of the square: what verbatim images feed back in, or no clause at all
    for _ in range(50):
        x, y = _rational(rng, 2), _rational(rng, 2)
        assert outcome(twist_eval_unchecked, cm, x, y) == outcome(oracle.twist_eval_unchecked, cm, x, y)


def _walk_sized(rng, bound):
    """A rational in [-bound, bound] over a denominator of 300-1,400 bits,
    the sizes a deep walk feeds its stage maps; +-1 a fifth of the time."""
    if rng.random() < 0.2:
        return F(rng.choice((1, -1)))
    bits = rng.randint(300, 1400)
    den = rng.choice((1 << bits, 3 << bits, rng.randrange(1 << (bits - 1), 1 << bits)))
    return F(rng.randint(-bound * den, bound * den), den)


def witnessed(fn, *args):
    """fn's result, or the type, text and witness of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "value", None)


def lifted_image(cm, x, y):
    """cm.image at (x, y) lifted over the lcm of the denominators."""
    d = lcm(x.denominator, y.denominator)
    e, u, v = cm.image(d, x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
    return F(u, e), F(v, e)


WALK_CELLS = CELLS + ((9, 40), (60, 236))


@pytest.mark.parametrize("cm", [CellMap(kind, variant, n, m) for n, m in WALK_CELLS for variant in Variant
                                for kind in (MapKind.TWIST_CCW_CUBED, MapKind.TWIST_CW_CUBED)],
                         ids=lambda cm: cm.label().replace(" ", "-"))
def test_cubed_images_at_walk_sized_denominators(cm):
    rng = random.Random(cm.label() + " walk")
    points = [(_walk_sized(rng, 1), _walk_sized(rng, 1)) for _ in range(30)]
    points += [(_walk_sized(rng, 2), _walk_sized(rng, 2)) for _ in range(15)]  # out of the square too
    got = [witnessed(lifted_image, cm, x, y) for x, y in points]
    assert got == [witnessed(oracle.image, cm, x, y) for x, y in points]
    # images and refusals both occur, so neither half of the comparison is empty
    assert {type(out[0]) for out in got} == {F, type}


def first_clause(cm, times, d, x, y, check):
    """times applications of the first clause the table gives, read off
    hits and value; with check, RangeViolation once one leaves the square."""
    once, s = cm.single(), cm.m - cm.n
    for _ in range(times):
        x, y = once.value(once.hits(d, x, y)[0], d, x, y)
        d <<= s
        if check and (abs(x) > d or abs(y) > d):
            return RangeViolation
    return d, x, y


def kernel(fn, *args):
    try:
        return fn(*args)
    except RangeViolation:
        return RangeViolation


def edge_points(n, m):
    """Over d = lcm(16, 2^(m-n)): the 1/16 grid, and against each of its y
    the strip edge |x| = 1-b and the x one unit inside and outside it; y = 0
    is a grid row."""
    s = m - n
    d = max(16, 1 << s)
    grid = range(-d, d + 1, d // 16)
    edge = d - (d >> s)
    points = [(x, y) for x in grid for y in grid]
    points += [(sign * x, y) for sign in (1, -1) for x in (edge - 1, edge, edge + 1) for y in grid]
    return d, points


@pytest.mark.parametrize("cm", [CellMap(kind, variant, n, m) for n, m in CELLS + ((1, 20),)
                                for variant in Variant for kind in ALL_KINDS if kind != MapKind.FIRST_ATTEMPT],
                         ids=lambda cm: cm.label().replace(" ", "-"))
def test_clause_iv_shortcut_at_the_strip_edge(cm):
    # image and apply decide |x| < 1-b by one comparison and take clause IV
    # there; everywhere they must give what the table's first clause gives
    d, points = edge_points(cm.n, cm.m)
    s, once = cm.m - cm.n, cm.single()
    inside = 0
    for x, y in points:
        if abs(x) << s < (d << s) - d:
            assert once.hits(d, x, y) == [3], (x, y)  # clause IV alone holds
            inside += 1
        assert cm.apply(d, x, y) == first_clause(cm, 1, d, x, y, False), (x, y)
        times = 3 if cm.is_cubed else 1
        assert kernel(cm.image, d, x, y) == first_clause(cm, times, d, x, y, True), (x, y)
    assert 0 < inside < len(points)


def shear_points(n, m):
    """edge_points, then over D = 2^(m-n)*d the points where
    |AX - kY| = (A-1)D exactly for k = 0, 1, 2 (Y = +-y, either frame)."""
    d, points = edge_points(n, m)
    s = m - n
    big, edge = d << s, (d << s) - d  # X = +-(A-1)d + kY/A puts |AX - kY| on the bound
    ties = [(sign * edge + k * y, y << s) for sign in (1, -1) for k in (0, 1, 2, -1, -2)
            for y in range(-d, d + 1, d // 16)]
    return [(d, x, y) for x, y in points] + [(big, x, y) for x, y in ties if abs(x) <= big]


@pytest.mark.parametrize("cm", [CellMap(kind, variant, n, m) for n, m in CELLS + ((1, 20),)
                                for variant in Variant for kind in ALL_KINDS],
                         ids=lambda cm: cm.label().replace(" ", "-"))
def test_shear_is_the_image_where_every_application_takes_clause_iv(cm):
    # shear answers exactly where each of the t applications lies strictly
    # inside the strip, in the map's own frame, and there its x is image's
    # x and image's y is the input's y, both reduced; on the bound, None
    s, t = cm.m - cm.n, 3 if cm.is_cubed else 1
    sheared = 0
    for d, x, y in shear_points(cm.n, cm.m):
        own = -y if cm.kind in (MapKind.TWIST_CW, MapKind.TWIST_CW_CUBED) else y
        edge = 0 if cm.kind == MapKind.FIRST_ATTEMPT else (d << s) - d
        inside = all(abs((x << s) - k * own) < edge for k in range(t))
        got = cm.shear(d, x, y)
        assert (got is not None) == inside, (d, x, y)
        if got is not None:
            e, u, v = cm.image(d, x, y)
            assert F(*got) == F(u, e) and F(v, e) == F(y, d), (d, x, y)
            sheared += 1
    assert (sheared == 0) == (cm.kind == MapKind.FIRST_ATTEMPT)


def test_walk_through_shear_matches_walk_through_image(monkeypatch):
    # every forward and reverse stage walk gives the same point whether its
    # all-clause-IV stages take shear or image
    rng = random.Random(26)
    walks = []
    for p in [p for p in _cube_points(rng, 48) if classify_point(p).is_boundary][:12]:
        s = build_schedule(p, rng.randint(4, 20))
        walks += [s._maps(s.count, False), tuple(reversed(s._maps(s.count, True)))]
    points = _cube_points(rng, 6)
    shear, hits = CellMap.shear, []

    def counted(cm, *point):
        got = shear(cm, *point)
        hits.append(got is not None)
        return got

    monkeypatch.setattr(CellMap, "shear", counted)
    got = [outcome(lambda: _point(_walk(maps, _pairs(p)))) for maps in walks for p in points]
    monkeypatch.setattr(CellMap, "shear", lambda cm, *point: None)
    assert got == [outcome(lambda: _point(_walk(maps, _pairs(p)))) for maps in walks for p in points]
    assert 0 < sum(hits) < len(hits)  # both paths taken


def fraction_cell_apply(cm, p):
    """A cell map on a full point through the Fraction entry point."""
    u, v = twist_eval(cm, p.coord(cm.n), p.coord(cm.m))
    return p.with_coords({cm.n: u, cm.m: v})


def fraction_first_attempt(p, n):
    for k in range(1, n + 1):
        p = fraction_cell_apply(CellMap(MapKind.FIRST_ATTEMPT, Variant.CORRECTED, k, k + 1), p)
    return p


def _cube_points(rng, count):
    """Seeded points, a third of their entries +-1: the edges where verbatim
    maps leave the square."""
    def entry():
        return F(rng.choice((1, -1))) if rng.random() < 1 / 3 else _rational(rng, 1)
    return [make_point([entry() for _ in range(rng.randint(0, 13))], entry()) for _ in range(count)]


@pytest.mark.parametrize("cm", maps(ALL_KINDS), ids=lambda cm: cm.label().replace(" ", "-"))
def test_cell_apply_matches_fraction_composition(cm):
    outcomes = [(outcome(twist_cell_apply, cm, p), outcome(fraction_cell_apply, cm, p))
                for p in _cube_points(random.Random(cm.label()), 40)]
    assert all(got == want for got, want in outcomes)
    # only a verbatim twist leaves the square, and on these points every one does
    raised = {got[0] for got, _ in outcomes if isinstance(got, tuple)}
    defective = cm.variant == Variant.VERBATIM and cm.kind != MapKind.FIRST_ATTEMPT
    assert raised == ({RangeViolation} if defective else set())


def test_first_attempt_partial_matches_fraction_composition():
    points = _cube_points(random.Random(14), 20)
    for n in range(12):
        for p in points:
            assert first_attempt_partial(p, n) == fraction_first_attempt(p, n), (n, p)


def test_piece_value_off_region_at_vanishing_denominator():
    # the printed shear quotient divides by zero at x = s(1-b), y != 0; the
    # kernel returns the formula's value there, the shift by -b*y
    cm = CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, 1, 2)
    with pytest.raises(ZeroDivisionError):
        dict((t, f) for t, _, f in oracle.clauses(cm, F(1, 2), F(1, 4)))["III"]()
    assert piece_value(cm, "III", F(1, 2), F(1, 4)) == (F(3, 8), F(0))
    assert piece_value(cm, "III", F(-1, 2), F(1, 4)) == (F(-5, 8), F(0))
    cw = CellMap(MapKind.TWIST_CW, Variant.VERBATIM, 1, 2)
    assert piece_value(cw, "I'", F(1, 2), F(1, 4)) == (F(3, 8), F(0))


DIAGNOSED = [(variant, n, m, F(1, 16)) for n, m in CELLS + ((5, 6), (1, 20)) for variant in Variant]
DIAGNOSED.append((Variant.VERBATIM, 1, 2, F(1, 32)))


@pytest.mark.parametrize("case", DIAGNOSED, ids=lambda c: f"{c[0].value}-{c[1]}-{c[2]}-{c[3]}")
def test_diagnostics_match_fraction_pass(case):
    got, want = twist_diagnostics(*case), oracle.twist_diagnostics(*case)
    assert got.to_records() == want.to_records()
    assert got.counts_by_check() == want.counts_by_check()
    assert (got.points_checked, got.ok) == (want.points_checked, want.ok)


def test_diagnostics_match_fraction_pass_when_the_centre_moves(monkeypatch):
    # no twist moves its centre segment, so the comparison above never sees
    # a center-fixity finding; make every clause lift y = 0 by b = 2^(n-m),
    # in the kernel both passes evaluate through
    value = twists.CellMap._ccw_value

    def lifted(self, k, d, x, y):
        u, v = value(self, k, d, x, y)
        return (u, v + d) if y == 0 else (u, v)  # v sits over a*d

    monkeypatch.setattr(twists.CellMap, "_ccw_value", lifted)
    case = (Variant.CORRECTED, 1, 4, F(1, 16))
    got, want = twist_diagnostics(*case), oracle.twist_diagnostics(*case)
    assert got.counts_by_check()["center-fixity"] == 2 * 29  # |x| <= 7/8 on both maps
    assert got.to_records() == want.to_records()

    # nor does a cubed map move a point further than its bound, so the
    # cubed displacement check never fires; make every clause move x right
    # by b, so that cubed orbits drift past 3 * eps(m)
    def shifted(self, k, d, x, y):
        u, v = value(self, k, d, x, y)
        return u + d, v  # u sits over a*d

    monkeypatch.setattr(twists.CellMap, "_ccw_value", shifted)
    got, want = twist_diagnostics(*case), oracle.twist_diagnostics(*case)
    records = got.to_records()
    cubed = [r["observed"] for r in records if r["check"] == "displacement" and "cubed" in r["map"]]
    # an orbit that leaves the square is noted by its error text; others by the distance measured
    measured = [F(observed) for observed in cubed if re.fullmatch(r"\d+/\d+", observed)]
    assert len(measured) == 68 and min(measured) > 3 * F(1, 2**4)  # 68 of 92 cubed findings
    assert records == want.to_records()


def _seam_points(rng, n, m):
    """Points on the clause seams of cell (n, m): the strip edges x = +-(1-b),
    the lines |y| = a(|x|-1)+1 across the strip, the axes and the square's
    edges, with b = 2^(n-m)."""
    b = F(1, 2 ** (m - n))
    points = []
    for _ in range(6):
        t, z = F(rng.randint(0, 64), 64), _rational(rng, 1)
        for sx in (1, -1):
            for sy in (1, -1):
                points += [(sx * (1 - b * t), sy * (1 - t)), (sx * (1 - b), z), (sx * (1 - b * t), 0),
                           (0, sy * z), (sx, z), (z, sy)]
    return points


@pytest.mark.parametrize("cm", [CellMap(kind, variant, n, m) for n, m in ((9, 40), (60, 236))
                                for variant in Variant for kind in SINGLE],
                         ids=lambda cm: cm.label().replace(" ", "-"))
def test_inverse_oracle_at_large_scales(cm):
    # scales 2^31 and 2^176, where every candidate is built by shifts: the
    # seam points as queries and as preimages, images of seeded points, and
    # points outside the square, which no map reaches
    rng = random.Random(cm.label() + " inverse")
    seams = _seam_points(rng, cm.n, cm.m)
    queries = seams + [oracle.twist_eval_unchecked(cm, x, y) for x, y in seams]
    points = [(_rational(rng, 1), _rational(rng, 1)) for _ in range(20)]
    queries += [oracle.twist_eval_unchecked(cm, x, y) for x, y in points]
    queries += [(_rational(rng, 2), _rational(rng, 2)) for _ in range(10)]
    got = [outcome(piece_inverse_oracle, cm, u, v) for u, v in queries]
    assert got == [outcome(oracle.piece_inverse_oracle, cm, u, v) for u, v in queries]
    # unique preimages occur, and failures: verbatim seams have several preimages
    assert any(type(out[0]) is F for out in got)
    failures = {out[0] for out in got if type(out[0]) is not F}
    assert failures == ({NoPreimage, MultiplePreimages} if cm.variant == Variant.VERBATIM else {NoPreimage})


# ccw's index of each printed clause: cw's clause k is ccw's clause (2, 1, 0, 3)[k]
CCW_INDEX = {MapKind.TWIST_CCW: (0, 1, 2, 3), MapKind.TWIST_CW: (2, 1, 0, 3), MapKind.FIRST_ATTEMPT: (0, 1, 2, 3)}


def _first_points(rng, n, m):
    """(d, x, y): the 1/16 grid, the clause seams of cell (n, m), seeded
    points with large odd denominators, each lifted over the lcm of its two,
    and points with |x| > 1, where no scaled clause holds."""
    points = [(16, x, y) for x in range(-16, 17) for y in range(-16, 17)]
    odd = [(F(rng.randint(-den, den), den) for den in rng.sample((3**15, 10007, 3 * 65537, 2**61 - 1), 2))
           for _ in range(60)]
    for x, y in _seam_points(rng, n, m) + [tuple(pair) for pair in odd]:
        d = lcm(x.denominator, y.denominator)
        points.append((d, x.numerator * (d // x.denominator), y.numerator * (d // y.denominator)))
    points += [(16, sign * rng.randint(17, 32), rng.randint(-32, 32)) for sign in (1, -1) for _ in range(10)]
    return points


@pytest.mark.parametrize("cm", [CellMap(kind, variant, n, m) for n, m in CELLS + ((5, 6),) for variant in Variant
                                for kind in CCW_INDEX],
                         ids=lambda cm: cm.label().replace(" ", "-"))
def test_first_match_is_the_head_of_hits(cm):
    # _first, the one first-match rule of evaluation and inversion, reads
    # its point in ccw's frame and gives ccw's index of the first clause
    # hits lists; where none holds it raises apply's Unclassifiable text
    rng = random.Random(cm.label() + " first")
    own = -1 if cm.kind == MapKind.TWIST_CW else 1
    unmatched = 0
    for d, x, y in _first_points(rng, cm.n, cm.m):
        hits = cm.hits(d, x, y)
        if hits:
            assert cm._first(d, x, own * y) == CCW_INDEX[cm.kind][hits[0]], (d, x, y)
        else:
            message = f"no clause matched ({F(x, d)}, {F(y, d)}) for {cm.label()}"
            for fn, point in ((cm._first, (d, x, own * y)), (cm.apply, (d, x, y))):
                with pytest.raises(Unclassifiable, match=re.escape(message)):
                    fn(*point)
            unmatched += 1
    # the unit twist's regions cover the plane; the scaled ones end at |x| = 1
    assert (unmatched == 0) == (cm.kind == MapKind.FIRST_ATTEMPT)


@pytest.mark.parametrize("variant", Variant, ids=lambda v: v.value)
@pytest.mark.parametrize("n, m", CELLS)
def test_cw_hits_read_ccw_conditions_at_the_reflected_point(n, m, variant):
    # the diagnostics read ccw's conditions once per grid point and hand cw
    # those at (x, -y): cw.hits is cw's order read off them, and the row
    # helpers of the pass give each map its own hits
    ccw, cw = (CellMap(kind, variant, n, m) for kind in SINGLE)
    d = 16
    for x in range(-d, d + 1):
        held = ccw._held_row(d, x)
        rows = {cm: cm._row_hits(held) for cm in (ccw, cw)}
        for y in range(-d, d + 1):
            reflected = ccw._ccw_conditions(d, x, -y)
            assert cw.hits(d, x, y) == [k for k, c in enumerate(CCW_INDEX[MapKind.TWIST_CW]) if reflected[c]]
            for cm in (ccw, cw):
                assert list(rows[cm][y + d]) == cm.hits(d, x, y), (cm.label(), x, y)
