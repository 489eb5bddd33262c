"""Deterministic SVG pictures of the two-coordinate twist maps.

The unit square of the chosen cell is subdivided into a G x G grid; each cell
is painted by the region its center lies in, then the images of the G+1
horizontal and G+1 vertical grid lines are drawn as polylines (exactly
2(G+1) of them).  An optional trajectory overlays the forward orbit of one
point's (n, m) pair as a path with dot markers.  An orbit, a grid node's
included, ends at the last value it reached once an application finds no
clause (a verbatim image may leave the square).  All geometry is computed in
exact rationals and formatted to fixed-point decimals, so rendering the same
spec twice yields byte-identical output.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

from .cube import PointRep
from .errors import BadIndices, OutOfRange, Unclassifiable
from .twists import _MAX_M, CellMap, classify_region, twist_eval_unchecked

# canvas: domain [-1,1]^2 -> 560x560 viewport with a margin
_SCALE = 240
_CENTER = 280
# a picture evaluates (G+1)^2 grid nodes and one twist per trace stage; these
# bounds keep the largest to seconds
_MAX_GRID = 128
_MAX_STAGES = 256

_REGION_FILL = {
    "I": "#cfe3f7", "II": "#fbe3c9", "III": "#d6efd0", "IV": "#f2dcee",
    "I'": "#cfe3f7", "II'": "#fbe3c9", "III'": "#d6efd0", "IV'": "#f2dcee",
    "A1": "#cfe3f7", "A2": "#fbe3c9", "A3": "#d6efd0", "A4": "#f2dcee",
}


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


def _dec(value: Fraction) -> str:
    """Fixed 4-place decimal of an exact rational, round half up."""
    scaled = value * 10_000
    units = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // 10_000}.{units % 10_000:04d}"


def _px(x: Fraction, y: Fraction) -> str:
    return f"{_dec(_CENTER + _SCALE * x)},{_dec(_CENTER - _SCALE * y)}"


def _orbit(cm: CellMap, x: Fraction, y: Fraction, stages: int) -> list[tuple[Fraction, Fraction]]:
    """(x, y) and its images under 1..stages applications of the map, ended
    at the last value reached once an application finds no clause (for a
    cubed map, maybe between its single applications); no value repeats."""
    orbit = [(x, y)]
    for _ in range(stages):
        try:
            orbit.append(twist_eval_unchecked(cm, *orbit[-1]))
        except Unclassifiable:
            point = orbit[-1]
            with suppress(Unclassifiable):  # replay the stage up to the failing application
                while True:
                    point = twist_eval_unchecked(cm.single(), *point)
            return orbit if point == orbit[-1] else orbit + [point]
    return orbit


def render_svg(spec: RenderSpec) -> str:
    cm = spec.cell
    ticks = [Fraction(2 * i, spec.grid) - 1 for i in range(spec.grid + 1)]
    # px[i][j]: pixel string of the image of node (ticks[i], ticks[j]),
    # formatted once and reused by the cells and lines that meet there
    px = [[_px(*_orbit(cm, x, y, 1)[-1]) for y in ticks] for x in ticks]

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" '
        'viewBox="0 0 560 560">'
    )
    out.append(f"<title>{cm.label()} on grid {spec.grid}</title>")
    out.append('<rect width="560" height="560" fill="#ffffff"/>')

    half = Fraction(1, spec.grid)
    for i in range(spec.grid):
        for j in range(spec.grid):
            cx, cy = ticks[i] + half, ticks[j] + half
            fill = _REGION_FILL.get(classify_region(cm, cx, cy), "#e8e8e8")
            pts = f"{px[i][j]} {px[i + 1][j]} {px[i + 1][j + 1]} {px[i][j + 1]}"
            out.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')

    # images of the horizontal grid lines, then of the vertical ones (px[i])
    for line in (*zip(*px), *px):
        out.append(f'<polyline points="{" ".join(line)}" fill="none" stroke="#444444" stroke-width="1"/>')

    if spec.trace is not None:
        orbit = _orbit(cm, spec.trace.coord(cm.n), spec.trace.coord(cm.m), spec.trace_stages)
        dots = [_px(u, v) for u, v in orbit]
        out.append(f'<path d="M {" L ".join(dots)}" fill="none" stroke="#c02020" stroke-width="2"/>')
        for dot in dots:
            cx, cy = dot.split(",")
            out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#c02020"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
