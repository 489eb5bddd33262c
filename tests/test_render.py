"""SVG rendering: structure, determinism, fixity."""

from fractions import Fraction

import pytest

from hilbertcube import CellMap, MapKind, OutOfRange, Unclassifiable, Variant, make_point
from hilbertcube.render import RenderSpec, _orbit, render_svg

import render_oracle
import twist_oracle

F = Fraction


def _spec(kind=MapKind.TWIST_CCW, variant=Variant.CORRECTED, n=1, m=2, grid=16, **kw):
    return RenderSpec(CellMap(kind, variant, n, m), grid, **kw)


def test_polyline_count():
    svg = render_svg(_spec(kind=MapKind.FIRST_ATTEMPT, grid=16))
    assert svg.count("<polyline") == 2 * (16 + 1)


def test_polyline_count_other_grid():
    svg = render_svg(_spec(grid=8))
    assert svg.count("<polyline") == 2 * (8 + 1)


def test_byte_identical_reruns():
    a = render_svg(_spec(kind=MapKind.TWIST_CW_CUBED, n=1, m=4, grid=16))
    b = render_svg(_spec(kind=MapKind.TWIST_CW_CUBED, n=1, m=4, grid=16))
    assert a == b


def test_center_segment_renders_unmoved():
    # points with y = 0, |x| <= 1/2 are fixed, so their pixels match the
    # identity placement: x = 280 + 240x, y = 280
    svg = render_svg(_spec(grid=16))
    for x in (F(-1, 2), F(-1, 4), F(0), F(1, 4), F(1, 2)):
        px = 280 + 240 * x
        assert f"{px}.0000,280.0000" in svg


def test_trace_overlay_present():
    p = make_point([], 1)
    svg = render_svg(_spec(kind=MapKind.TWIST_CCW_CUBED, n=1, m=4, grid=8, trace=p, trace_stages=2))
    assert "<path" in svg and "<circle" in svg
    # overlay does not change the polyline census
    assert svg.count("<polyline") == 2 * (8 + 1)


@pytest.mark.parametrize("kind", [MapKind.TWIST_CCW, MapKind.TWIST_CW, MapKind.TWIST_CCW_CUBED,
                                  MapKind.TWIST_CW_CUBED])
def test_verbatim_orbit_ends_where_no_clause_matches(kind):
    # a verbatim image leaves the square and the next application finds no
    # clause: the orbit ends at the last value it reached, and renders
    cm = CellMap(kind, Variant.VERBATIM, 1, 2)
    orbit = [(F(x, d), F(y, d)) for d, x, y in _orbit(cm, 6, 3, 2, 256)]  # (1/2, 1/3)
    assert 2 < len(orbit) < 257
    assert all(a != b for a, b in zip(orbit, orbit[1:]))  # no dot repeats
    for a, b in zip(orbit, orbit[1:-1]):
        assert twist_oracle.twist_eval_unchecked(cm, *a) == b
    with pytest.raises(Unclassifiable):
        twist_oracle.apply_once(cm.single(), *orbit[-1])
    trace = make_point([F(1, 2), F(1, 3)], 0)
    svg = render_svg(_spec(kind=kind, variant=Variant.VERBATIM, grid=32, trace=trace, trace_stages=256))
    assert svg.count("<circle") == len(orbit)


def test_trace_ends_where_it_stops_moving():
    # the origin is fixed: one dot, not one per stage
    svg = render_svg(_spec(kind=MapKind.TWIST_CCW_CUBED, n=3, m=12, grid=8, trace=make_point([], 0),
                           trace_stages=256))
    assert svg.count("<circle") == 1
    assert " L " not in svg


TRACE = make_point([F(1, 2), F(1, 3), F(-2, 5), F(3, 7), F(-1, 9), F(5, 11), F(-7, 8), F(2, 3),
                    F(-1, 4), F(1, 6), F(-3, 10), F(9, 10)], F(1, 7))


@pytest.mark.parametrize("kind", list(MapKind))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n,m", [(1, 2), (1, 4), (2, 3), (3, 12)])
def test_matches_fraction_render(kind, variant, n, m):
    cm = CellMap(kind, variant, n, m)
    assert render_svg(RenderSpec(cm, 16)) == render_oracle.render_svg(cm, 16)
    traced = render_svg(RenderSpec(cm, 16, TRACE, 64))
    assert traced == render_oracle.render_svg(cm, 16, TRACE, 64)


def test_grid_validation():
    with pytest.raises(OutOfRange):
        _spec(grid=7)
    with pytest.raises(OutOfRange):
        _spec(grid=12)
    with pytest.raises(OutOfRange):
        _spec(grid=4)


def test_region_fills_present():
    svg = render_svg(_spec(grid=8))
    assert svg.count("<polygon") == 8 * 8
    assert "#cfe3f7" in svg  # at least one strip cell colored
