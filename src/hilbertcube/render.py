"""Deterministic SVG pictures of the two-coordinate twist maps.

The unit square of the chosen cell is subdivided into a G x G grid; each cell
is painted by the region its center lies in, then the images of the G+1
horizontal and G+1 vertical grid lines are drawn as polylines (exactly
2(G+1) of them).  An optional trajectory overlays the forward orbit of one
point's (n, m) pair as a path with dot markers.  An orbit, a grid node's
included, ends at the first stage that leaves its value unchanged, or at the
last value reached once an application finds no clause (a verbatim image may
leave the square).  Points are the kernel's integers, the grid's over d = G,
formatted to fixed-point decimals: the same spec renders byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cube import PointRep
from .errors import BadIndices, OutOfRange, Unclassifiable
from .twists import _MAX_M, CellMap, _lift_ints

# canvas: domain [-1,1]^2 -> 560x560 viewport with a margin
_SCALE = 240
_CENTER = 280
# a picture evaluates (G+1)^2 grid nodes and one twist per trace stage; these
# bounds keep the largest to seconds
_MAX_GRID = 128
_MAX_STAGES = 256

# fill of a cell by the index, in printed order, of its center's first clause
_REGION_FILL = ("#cfe3f7", "#fbe3c9", "#d6efd0", "#f2dcee")


@dataclass(frozen=True)
class RenderSpec:
    cell: CellMap
    grid: int
    trace: PointRep | None = None
    trace_stages: int = 0

    def __post_init__(self):
        g = self.grid
        if g < 8 or g > _MAX_GRID or g & (g - 1):
            raise OutOfRange(f"grid density must be a power of two, 8 <= G <= {_MAX_GRID}, got {g}")
        if not 0 <= self.trace_stages <= _MAX_STAGES:
            raise OutOfRange(f"stage count must be in 0..{_MAX_STAGES}, got {self.trace_stages}")
        if self.cell.m > _MAX_M:
            raise BadIndices(f"render needs m <= {_MAX_M}, got m={self.cell.m}")


def _dec(num: int, den: int) -> str:
    """Fixed 4-place decimal of num/den, den > 0, round half up; unreduced is fine."""
    units = (num * 20_000 + den) // (den * 2)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // 10_000}.{units % 10_000:04d}"


def _px(d: int, x: int, y: int) -> str:
    return f"{_dec(_CENTER * d + _SCALE * x, d)},{_dec(_CENTER * d - _SCALE * y, d)}"


def _orbit(cm: CellMap, d: int, x: int, y: int, stages: int) -> list[tuple[int, int, int]]:
    """(x, y)/d and its images under 1..stages applications of the map, each
    reduced by one gcd.  It ends at the first stage that leaves its value
    unchanged (every later stage would repeat it), or at the last value reached
    once an application finds no clause (for a cubed map, maybe mid-stage)."""
    orbit, stuck = [], False
    while True:
        g = gcd(d, x, y)
        d, x, y = point = d // g, x // g, y // g
        if orbit and point == orbit[-1]:
            break
        orbit.append(point)
        if stuck or len(orbit) > stages:
            break
        try:
            for _ in range(3 if cm.is_cubed else 1):
                d, x, y = cm.apply(d, x, y)
        except Unclassifiable:
            stuck = True
    return orbit


def render_svg(spec: RenderSpec) -> str:
    cm, g = spec.cell, spec.grid
    ticks = range(-g, g + 1, 2)  # node i sits at ticks[i]/G, cell centre i one step on
    # px[i][j]: pixel string of the image of node (ticks[i], ticks[j])/G,
    # formatted once and reused by the cells and lines that meet there
    px = [[_px(*_orbit(cm, g, x, y, 1)[-1]) for y in ticks] for x in ticks]

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" viewBox="0 0 560 560">',
        f"<title>{cm.label()} on grid {g}</title>",
        '<rect width="560" height="560" fill="#ffffff"/>',
    ]

    for i in range(g):
        for j in range(g):
            fill = _REGION_FILL[cm.hits(g, ticks[i] + 1, ticks[j] + 1)[0]]
            pts = f"{px[i][j]} {px[i + 1][j]} {px[i + 1][j + 1]} {px[i][j + 1]}"
            out.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')

    # images of the horizontal grid lines, then of the vertical ones (px[i])
    for line in (*zip(*px), *px):
        out.append(f'<polyline points="{" ".join(line)}" fill="none" stroke="#444444" stroke-width="1"/>')

    if spec.trace is not None:
        u, v = spec.trace.coord(cm.n), spec.trace.coord(cm.m)
        start = _lift_ints(*u.as_integer_ratio(), *v.as_integer_ratio())
        dots = [_px(*point) for point in _orbit(cm, *start, spec.trace_stages)]
        out.append(f'<path d="M {" L ".join(dots)}" fill="none" stroke="#c02020" stroke-width="2"/>')
        for dot in dots:
            cx, cy = dot.split(",")
            out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#c02020"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
