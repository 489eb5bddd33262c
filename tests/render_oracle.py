"""Reference Fraction render: the SVG the library drew before it rendered in
the kernel's integers, built on twist_oracle's Fraction clause tables.

Every grid node, cell centre and trace stage is a Fraction; a cell is filled
by the tag of its centre's first clause, and an orbit applies the single map
one clause at a time, ending at the first stage that leaves its value
unchanged or at the last value reached once an application finds no clause.
test_render.py checks render_svg against it byte for byte.
"""

from fractions import Fraction

from hilbertcube import Unclassifiable

import twist_oracle

_FILL = {
    "I": "#cfe3f7", "II": "#fbe3c9", "III": "#d6efd0", "IV": "#f2dcee",
    "I'": "#cfe3f7", "II'": "#fbe3c9", "III'": "#d6efd0", "IV'": "#f2dcee",
    "A1": "#cfe3f7", "A2": "#fbe3c9", "A3": "#d6efd0", "A4": "#f2dcee",
}


def _dec(value):
    scaled = value * 10_000
    units = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    sign = "-" if units < 0 else ""
    units = abs(units)
    return f"{sign}{units // 10_000}.{units % 10_000:04d}"


def _px(x, y):
    return f"{_dec(280 + 240 * x)},{_dec(280 - 240 * y)}"


def orbit(cm, x, y, stages):
    single = cm.single()
    out = [(Fraction(x), Fraction(y))]
    for _ in range(stages):
        point = out[-1]
        try:
            for _ in range(3 if cm.is_cubed else 1):
                _, point = twist_oracle.apply_once(single, *point)
            stuck = False
        except Unclassifiable:
            stuck = True
        if point == out[-1]:
            break
        out.append(point)
        if stuck:
            break
    return out


def render_svg(cm, grid, trace=None, trace_stages=0):
    ticks = [Fraction(2 * i, grid) - 1 for i in range(grid + 1)]
    px = [[_px(*orbit(cm, x, y, 1)[-1]) for y in ticks] for x in ticks]
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="560" height="560" viewBox="0 0 560 560">',
        f"<title>{cm.label()} on grid {grid}</title>",
        '<rect width="560" height="560" fill="#ffffff"/>',
    ]
    half = Fraction(1, grid)
    for i in range(grid):
        for j in range(grid):
            cx, cy = ticks[i] + half, ticks[j] + half
            tag = next(tag for tag, cond, _ in twist_oracle.clauses(cm, cx, cy) if cond)
            pts = f"{px[i][j]} {px[i + 1][j]} {px[i + 1][j + 1]} {px[i][j + 1]}"
            out.append(f'<polygon points="{pts}" fill="{_FILL[tag]}" stroke="none"/>')
    for line in (*zip(*px), *px):
        out.append(f'<polyline points="{" ".join(line)}" fill="none" stroke="#444444" stroke-width="1"/>')
    if trace is not None:
        dots = [_px(u, v) for u, v in orbit(cm, trace.coord(cm.n), trace.coord(cm.m), trace_stages)]
        out.append(f'<path d="M {" L ".join(dots)}" fill="none" stroke="#c02020" stroke-width="2"/>')
        for dot in dots:
            cx, cy = dot.split(",")
            out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="#c02020"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
