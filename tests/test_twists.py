"""Two-coordinate twist maps: regions, values, inverses, diagnostics.

Expected values below were computed by hand from the clause formulas and
cross-checked with an independent longhand evaluation before being frozen
here.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertcube import (
    BadIndices,
    CellMap,
    DegeneratePair,
    MapKind,
    MultiplePreimages,
    RangeViolation,
    Variant,
    epsilon,
    lipschitz_sample_check,
    make_point,
    matching_regions,
    piece_inverse_oracle,
    piece_value,
    twist_cell_apply,
    twist_diagnostics,
    twist_eval,
    twist_eval_unchecked,
)
from hilbertcube.cube import cell_metric
from twist_oracle import sigma

F = Fraction

CCW12 = CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, 1, 2)
CW12 = CellMap(MapKind.TWIST_CW, Variant.CORRECTED, 1, 2)
CCW12_V = CellMap(MapKind.TWIST_CCW, Variant.VERBATIM, 1, 2)
CW12_V = CellMap(MapKind.TWIST_CW, Variant.VERBATIM, 1, 2)
FA12 = CellMap(MapKind.FIRST_ATTEMPT, Variant.CORRECTED, 1, 2)


def grid(step_den: int):
    return [F(k, step_den) for k in range(-step_den, step_den + 1)]


def test_cellmap_validation():
    with pytest.raises(BadIndices):
        CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, 2, 2)
    with pytest.raises(BadIndices):
        CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, 0, 4)


def test_sigma():
    assert sigma(F(0)) == 1
    assert sigma(F(-1, 3)) == -1
    assert sigma(F(1)) == 1


def test_classify_region_examples():
    assert matching_regions(CCW12, F(3, 4), F(-1, 4))[0] == "II"
    assert matching_regions(CCW12, F(1), F(-1))[0] == "I"
    assert matching_regions(CCW12, F(0), F(0))[0] == "IV"


def test_classify_region_cw():
    # (1, 1) lies on the II'/III' dividing line; printed order picks II'
    # and the piece values agree there anyway
    assert matching_regions(CW12, F(1), F(1)) == ["II'", "III'"]
    assert piece_value(CW12, "II'", F(1), F(1)) == piece_value(CW12, "III'", F(1), F(1))
    assert matching_regions(CW12, F(0), F(0))[0] == "IV'"


def test_twist_eval_values():
    assert twist_eval(CCW12, F(1), F(0)) == (F(1), F(1))
    assert twist_eval(CCW12, F(1), F(-1)) == (F(1), F(0))
    assert twist_eval(CCW12, F(3, 4), F(-1)) == (F(1), F(-1, 2))
    assert twist_eval(CW12, F(1), F(1)) == (F(1), F(0))


def test_center_segment_fixed():
    # inside |x| <= 1 - eps_m/eps_n nothing moves on the axis
    for x in (F(0), F(1, 4), F(-1, 2)):
        assert twist_eval(CCW12, x, F(0)) == (x, F(0))
        assert twist_eval(CW12, x, F(0)) == (x, F(0))


def test_cw_undoes_ccw_on_grid():
    for x in grid(8):
        for y in grid(8):
            u, v = twist_eval(CCW12, x, y)
            assert twist_eval(CW12, u, v) == (x, y)


def test_mirror_conjugacy():
    # the clockwise map is the counterclockwise one conjugated by y -> -y
    cm_ccw = CellMap(MapKind.TWIST_CCW, Variant.CORRECTED, 2, 3)
    cm_cw = CellMap(MapKind.TWIST_CW, Variant.CORRECTED, 2, 3)
    for x in grid(8):
        for y in grid(8):
            u, v = twist_eval(cm_ccw, x, -y)
            assert twist_eval(cm_cw, x, y) == (u, -v)


@given(
    st.fractions(min_value=-1, max_value=1, max_denominator=32),
    st.fractions(min_value=-1, max_value=1, max_denominator=32),
)
def test_odd_symmetry(x, y):
    u, v = twist_eval(CCW12, x, y)
    assert twist_eval(CCW12, -x, -y) == (-u, -v)
    s, t = twist_eval(CW12, x, y)
    assert twist_eval(CW12, -x, -y) == (-s, -t)


def test_piece_agreement_on_shared_boundaries():
    # III and IV meet at (1, 1); I and II meet along |y| = a(|x|-1)+1
    assert piece_value(CCW12, "III", F(1), F(1)) == piece_value(CCW12, "IV", F(1), F(1))
    x = F(7, 8)
    y = -(2 * (x - 1) + 1)  # on the dividing line, xy <= 0 side
    tags = matching_regions(CCW12, x, y)
    assert "I" in tags and "II" in tags
    assert piece_value(CCW12, "I", x, y) == piece_value(CCW12, "II", x, y)


def test_denominator_zero_corner_is_finite():
    # the clockwise strip corner (1-b, 0) must evaluate without dividing by 0
    corner = F(1, 2)
    assert twist_eval(CW12, corner, F(0)) == (corner, F(0))
    assert twist_eval(CW12, -corner, F(0)) == (-corner, F(0))


def test_range_containment_corrected(rng):
    for _ in range(300):
        x = F(rng.randint(-64, 64), 64)
        y = F(rng.randint(-64, 64), 64)
        for cm in (CCW12, CW12):
            u, v = twist_eval(cm, x, y)
            assert -1 <= u <= 1 and -1 <= v <= 1


# --- verbatim sign defect ---------------------------------------------------


def test_verbatim_leaves_square_on_edge():
    u, v = twist_eval_unchecked(CCW12_V, F(1), F(1, 16))
    assert u == F(33, 32) > 1
    with pytest.raises(RangeViolation):
        twist_eval(CCW12_V, F(1), F(1, 16))


def test_verbatim_inverse_mismatch():
    # corrected: (3/4, -1) -> (1, -1/2); the printed clockwise formula sends
    # (1, -1/2) somewhere else entirely
    assert twist_eval(CCW12, F(3, 4), F(-1)) == (F(1), F(-1, 2))
    back = twist_eval_unchecked(CW12_V, F(1), F(-1, 2))
    assert back != (F(3, 4), F(-1))
    assert back == (F(5, 4), F(-1))


def test_verbatim_oracle_finds_bijectivity_defect():
    # two distinct points map to the same value under the printed formulas
    hits = []
    for x in grid(16):
        for y in grid(16):
            u, v = twist_eval_unchecked(CCW12_V, x, y)
            if -1 <= u <= 1 and -1 <= v <= 1:
                try:
                    piece_inverse_oracle(CCW12_V, u, v)
                except MultiplePreimages:
                    hits.append((x, y))
    assert hits


# --- cubed maps and the boundary escape -------------------------------------


def test_cubed_walks_boundary_point_inward():
    cm = CellMap(MapKind.TWIST_CCW_CUBED, Variant.CORRECTED, 1, 4)
    seq = [(F(1), F(1))]
    single = cm.single()
    for _ in range(3):
        seq.append(twist_eval(single, *seq[-1]))
    assert seq == [(F(1), F(1)), (F(7, 8), F(1)), (F(3, 4), F(1)), (F(5, 8), F(1))]
    assert twist_eval(cm, F(1), F(1)) == (F(5, 8), F(1))


def test_cubed_escape_on_vertical_edges():
    cm = CellMap(MapKind.TWIST_CCW_CUBED, Variant.CORRECTED, 1, 4)
    for x in (F(1), F(-1)):
        for y in grid(8):
            u, v = twist_eval(cm, x, y)
            assert abs(u) < 1
            assert abs(v) == 1


def test_escape_values_by_stage():
    # all-ones cell at (k, 4k): three applications move x to 1 - 3*2^(-3k)
    for k, expect in ((1, F(5, 8)), (2, F(61, 64)), (3, F(509, 512))):
        cm = CellMap(MapKind.TWIST_CCW_CUBED, Variant.CORRECTED, k, 4 * k)
        assert twist_eval(cm, F(1), F(1)) == (expect, F(1))


def test_cubed_fixes_origin():
    for kind in (MapKind.TWIST_CCW_CUBED, MapKind.TWIST_CW_CUBED):
        cm = CellMap(kind, Variant.CORRECTED, 1, 4)
        assert twist_eval(cm, F(0), F(0)) == (F(0), F(0))


def test_cell_apply_const_one_point():
    cm = CellMap(MapKind.TWIST_CCW_CUBED, Variant.CORRECTED, 1, 4)
    p = make_point([], 1)
    out = twist_cell_apply(cm, p)
    assert out.coord(1) == F(5, 8)
    assert out.coord(4) == 1
    assert out.coord(2) == 1 and out.coord(7) == 1


# --- displacement and expansion ---------------------------------------------


def test_single_displacement_sampled(rng):
    eps_m = epsilon(2)
    worst = F(0)
    for _ in range(400):
        x = F(rng.randint(-32, 32), 32)
        y = F(rng.randint(-32, 32), 32)
        u, v = twist_eval(CCW12, x, y)
        worst = max(worst, cell_metric(1, 2, (x, y), (u, v)))
    assert worst <= eps_m
    # the bound is attained on the grid
    assert worst == eps_m


def test_cubed_displacement_sampled(rng):
    cm = CellMap(MapKind.TWIST_CW_CUBED, Variant.CORRECTED, 1, 2)
    bound = 3 * epsilon(2)
    for _ in range(300):
        x = F(rng.randint(-16, 16), 16)
        y = F(rng.randint(-16, 16), 16)
        u, v = twist_eval(cm, x, y)
        assert cell_metric(1, 2, (x, y), (u, v)) <= bound


def test_lipschitz_sample_check(rng):
    from conftest import rand_point

    pairs = []
    while len(pairs) < 200:
        p, q = rand_point(rng, width=4), rand_point(rng, width=4)
        if p != q:
            pairs.append((p, q))
    single = lipschitz_sample_check(CW12, pairs)
    cubed = lipschitz_sample_check(CellMap(MapKind.TWIST_CW_CUBED, Variant.CORRECTED, 1, 2), pairs)
    assert single <= 2
    assert cubed <= 8
    with pytest.raises(DegeneratePair):
        lipschitz_sample_check(CW12, [(make_point([], 0), make_point([], 0))])


# --- first-attempt twist ------------------------------------------------------


def test_first_attempt_values():
    assert twist_eval(FA12, F(1), F(1)) == (F(0), F(1))
    assert twist_eval(FA12, F(1, 3), F(1, 3)) == (F(0), F(1, 3))
    assert twist_eval(FA12, F(0), F(0)) == (F(0), F(0))


def test_first_attempt_corner_preimage():
    # the corner (1, 1) is reached only from (1, 0)
    assert twist_eval(FA12, F(1), F(0)) == (F(1), F(1))
    assert piece_inverse_oracle(FA12, F(1), F(1)) == (F(1), F(0))


def test_first_attempt_on_point():
    p = make_point([], F(1, 3))
    out = twist_cell_apply(FA12, p)
    assert out.coord(1) == 0
    assert out.coord(2) == F(1, 3)
    assert out.coord(3) == F(1, 3)


def test_first_attempt_expansion_witness():
    # no uniform two-sided Lipschitz bound: ratio grows with the cell gap
    cm = CellMap(MapKind.FIRST_ATTEMPT, Variant.CORRECTED, 1, 6)
    a = make_point([0, 0, 0, 0, 0, F(1, 2)], 0)
    b = make_point([0, 0, 0, 0, 0, F(3, 4)], 0)
    ratio = lipschitz_sample_check(cm, [(a, b)])
    assert ratio > 8


# --- inverse oracle -----------------------------------------------------------


def test_oracle_roundtrip_grid():
    for x in grid(8):
        for y in grid(8):
            u, v = twist_eval(CCW12, x, y)
            assert piece_inverse_oracle(CCW12, u, v) == (x, y)


def test_oracle_example():
    assert piece_inverse_oracle(CCW12, F(1), F(1)) == (F(1), F(0))
    assert piece_inverse_oracle(CCW12, F(0), F(0)) == (F(0), F(0))


def test_oracle_rejects_cubed():
    with pytest.raises(BadIndices):
        piece_inverse_oracle(CellMap(MapKind.TWIST_CCW_CUBED, Variant.CORRECTED, 1, 2), F(0), F(0))


# --- diagnostics engine --------------------------------------------------------


def test_diagnostics_corrected_clean():
    rep = twist_diagnostics(Variant.CORRECTED, 1, 2, F(1, 16))
    assert rep.ok
    assert rep.findings == ()
    assert rep.points_checked == 33 * 33


def test_diagnostics_corrected_other_cell():
    assert twist_diagnostics(Variant.CORRECTED, 2, 3, F(1, 16)).ok


def test_diagnostics_verbatim_reports_range_finding():
    rep = twist_diagnostics(Variant.VERBATIM, 1, 2, F(1, 16))
    assert not rep.ok
    hits = [
        f
        for f in rep.findings
        if f.check == "range-containment" and f.witness[0] == 1 and f.witness[1] > 0
    ]
    assert hits
    # finding must reproduce from its witness
    w = hits[0].witness
    u, v = twist_eval_unchecked(CCW12_V, *w)
    assert not (-1 <= u <= 1 and -1 <= v <= 1)


def test_diagnostics_records_are_serializable():
    rep = twist_diagnostics(Variant.VERBATIM, 1, 2, F(1, 16))
    recs = rep.to_records()
    assert len(recs) == len(rep.findings)
    keys = [(r["check"], r["map"]) for r in recs]
    assert keys == sorted(keys)
    for r in recs:
        assert set(r) == {"check", "map", "witness", "expected", "observed"}
        Fraction(r["witness"][0])  # exact rational strings


def test_diagnostics_grid_validation():
    with pytest.raises(BadIndices):
        twist_diagnostics(Variant.CORRECTED, 1, 2, F(1, 8))
    with pytest.raises(BadIndices):
        twist_diagnostics(Variant.CORRECTED, 1, 2, F(3, 64))
