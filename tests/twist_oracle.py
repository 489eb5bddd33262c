"""Reference Fraction clause tables for the twist maps.

These are the clause tables the library used before its integer kernel: every
condition and formula written out in Fraction arithmetic, exactly as printed,
cw as its own table rather than as a reflection of ccw.  test_twist_kernel.py
checks the library against them.  Nothing here is fast; it is meant to be
easy to compare with the printed clauses.

Below them is the grid diagnostics pass the library ran before it checked
grid points in the kernel's integers; test_twist_kernel.py checks the
integer pass against it, finding by finding.
"""

from fractions import Fraction
from functools import lru_cache

from hilbertcube import (
    CellMap,
    ErrataReport,
    Finding,
    MapKind,
    MultiplePreimages,
    NoPreimage,
    RangeViolation,
    Unclassifiable,
    Variant,
    cell_metric,
    epsilon,
)
from hilbertcube import twists as lib

ZERO = Fraction(0)


def sigma(x):
    """Sign convention used by the scaled twists: sigma(0) = +1."""
    return 1 if x >= 0 else -1


@lru_cache(maxsize=None)
def cell_params(n, m):
    """(a, b, 1-b) with a = 2^(m-n), b = 1/a."""
    a = Fraction(2 ** (m - n))
    b = Fraction(1, 2 ** (m - n))
    return a, b, 1 - b


def shear_term(x, y, s, a, b, sign):
    # the printed quotient; raises ZeroDivisionError at x = s(1-b), y != 0
    if y == 0:
        return ZERO
    den = a * (x - s) + s
    return sign * y * (s * (1 - b) - x) / den


def ccw_clauses(x, y, a, b, one_minus_b, corrected):
    s = sigma(x)
    ax, ay = abs(x), abs(y)
    strip = one_minus_b <= ax <= 1
    line = a * (ax - 1) + 1
    shear_sign = 1 if corrected else -1
    return (
        ("I", x * y <= 0 and strip and line <= ay <= 1,
         lambda: (s - b * (y + s), y + s + a * (x - s))),
        ("II", x * y <= 0 and strip and 0 <= ay <= line,
         lambda: (x, y + s + a * (x - s))),
        ("III", x * y >= 0 and strip and 0 <= ay <= line,
         lambda: (x + shear_term(x, y, s, a, b, shear_sign), s + a * (x - s))),
        ("IV", (x * y >= 0 and strip and line <= ay <= 1) or ax <= one_minus_b,
         lambda: (x - b * y, y)),
    )


def cw_clauses(x, y, a, b, one_minus_b, corrected):
    s = sigma(x)
    ax, ay = abs(x), abs(y)
    strip = one_minus_b <= ax <= 1
    line = a * (ax - 1) + 1
    shear_sign = -1 if corrected else 1
    return (
        ("I'", x * y <= 0 and strip and 0 <= ay <= line,
         lambda: (x + shear_term(x, y, s, a, b, shear_sign), -s - a * (x - s))),
        ("II'", x * y >= 0 and strip and 0 <= ay <= line,
         lambda: (x, y - s - a * (x - s))),
        ("III'", x * y >= 0 and strip and line <= ay <= 1,
         lambda: (s - b * (-y + s), y - s - a * (x - s))),
        ("IV'", (x * y <= 0 and strip and line <= ay <= 1) or ax <= one_minus_b,
         lambda: (x + b * y, y)),
    )


def unit_clauses(x, y):
    ax, ay = abs(x), abs(y)
    return (
        ("A1", ax <= ay and x * y < 0, lambda: (-y, x + y)),
        ("A2", ax >= ay and x * y < 0, lambda: (x, x + y)),
        ("A3", ax >= ay and x * y >= 0, lambda: (x - y, x)),
        ("A4", ax <= ay and x * y >= 0, lambda: (x - y, y)),
    )


def clauses(cm, x, y):
    """(tag, condition, formula) of the once-applied map, in printed order."""
    kind = cm.single().kind
    if kind == MapKind.FIRST_ATTEMPT:
        return unit_clauses(x, y)
    a, b, one_minus_b = cell_params(cm.n, cm.m)
    corrected = cm.variant == Variant.CORRECTED
    if kind == MapKind.TWIST_CCW:
        return ccw_clauses(x, y, a, b, one_minus_b, corrected)
    return cw_clauses(x, y, a, b, one_minus_b, corrected)


def apply_once(cm, x, y):
    for tag, cond, formula in clauses(cm, x, y):
        if cond:
            return tag, formula()
    raise Unclassifiable(f"no clause matched ({x}, {y}) for {cm.label()}")


def twist_eval_unchecked(cm, x, y):
    x, y = Fraction(x), Fraction(y)
    single = cm.single()
    for _ in range(3 if cm.is_cubed else 1):
        _, (x, y) = apply_once(single, x, y)
    return x, y


def image(cm, x, y):
    """CellMap.image in Fractions: every application must stay in the square."""
    x, y = Fraction(x), Fraction(y)
    for _ in range(3 if cm.is_cubed else 1):
        _, (x, y) = apply_once(cm.single(), x, y)
        if abs(x) > 1 or abs(y) > 1:
            raise RangeViolation(f"{cm.label()} left the square at ({x}, {y})", (x, y))
    return x, y


def invert_candidates(cm, u, v):
    """Every clause formula solved for its input, all sign branches."""
    kind = cm.single().kind
    out = []
    if kind == MapKind.FIRST_ATTEMPT:
        out.append((v + u, -u))        # A1: u=-y, v=x+y
        out.append((u, v - u))         # A2: u=x, v=x+y
        out.append((v, v - u))         # A3: u=x-y, v=x
        out.append((u + v, v))         # A4: u=x-y, v=y
        return out
    a, b, _ = cell_params(cm.n, cm.m)
    corrected = cm.variant == Variant.CORRECTED
    if kind == MapKind.TWIST_CCW:
        for s in (1, -1):
            # I: u = s - b(y+s), v = y + s + a(x-s)
            y = a * (s - u) - s
            x = s + b * (v - y - s)
            out.append((x, y))
            # II: u = x, v = y + s + a(x-s)
            out.append((u, v - s - a * (u - s)))
            # III: v = s + a(x-s) pins x; shear is -+ b*y on top of x
            x = s + b * (v - s)
            y = a * (x - u) if corrected else a * (u - x)
            out.append((x, y))
        # IV: u = x - b*y, v = y
        out.append((u + b * v, v))
        return out
    for s in (1, -1):
        # I': v = -s - a(x-s) pins x; shear is +- b*y on top of x
        x = s + b * (-v - s)
        y = a * (u - x) if corrected else a * (x - u)
        out.append((x, y))
        # II': u = x, v = y - s - a(x-s)
        out.append((u, v + s + a * (u - s)))
        # III': u = s - b(-y+s), v = y - s - a(x-s)
        y = s + a * (u - s)
        x = s + b * (y - s - v)
        out.append((x, y))
    # IV': u = x + b*y, v = y
    out.append((u - b * v, v))
    return out


def piece_inverse_oracle(cm, u, v):
    u, v = Fraction(u), Fraction(v)
    found = []
    for x, y in invert_candidates(cm, u, v):
        if not (-1 <= x <= 1 and -1 <= y <= 1):
            continue
        if (x, y) in found:
            continue
        if twist_eval_unchecked(cm, x, y) == (u, v):
            found.append((x, y))
    if not found:
        raise NoPreimage(f"{cm.label()} has no preimage of ({u}, {v})")
    if len(found) > 1:
        raise MultiplePreimages(
            f"{cm.label()} has {len(found)} preimages of ({u}, {v}): {found}"
        )
    return found[0]


# --- grid diagnostics, point by point in Fractions ---------------------------

def _grid_values(step):
    count = int(1 / step)
    return [k * step for k in range(-count, count + 1)]


def _fmt_pair(p):
    return f"({p[0]}, {p[1]})"


def twist_diagnostics(variant, n, m, grid_step):
    """The grid diagnostics the library ran before its integer pass: every
    grid point, image, displacement and roundtrip a Fraction, the cell
    displacement by cell_metric, the centre segment in a second loop and the
    cubed maps on a list of every fourth grid value."""
    grid_step = Fraction(grid_step)
    ccw = CellMap(MapKind.TWIST_CCW, variant, n, m)
    cw = CellMap(MapKind.TWIST_CW, variant, n, m)
    ccw3 = CellMap(MapKind.TWIST_CCW_CUBED, variant, n, m)
    cw3 = CellMap(MapKind.TWIST_CW_CUBED, variant, n, m)
    one_minus_b = 1 - Fraction(1, 2 ** (m - n))
    eps_m = epsilon(m)
    findings = []
    grid = _grid_values(grid_step)
    stride = [g for i, g in enumerate(grid) if i % 4 == 0]

    def note(check, label, witness, expected, observed):
        findings.append(Finding(check, label, witness, expected, observed))

    for x in grid:
        for y in grid:
            w = (x, y)
            images = {}
            for cm in (ccw, cw):
                # the first matching clause is the one applied
                tags = lib.matching_regions(cm, x, y)
                vals = [lib.piece_value(cm, tag, x, y) for tag in tags]
                img = images[cm.kind] = vals[0]
                if not (-1 <= img[0] <= 1 and -1 <= img[1] <= 1):
                    note("range-containment", cm.label(), w,
                         "image inside the square", f"{tags[0]} -> {_fmt_pair(img)}")
                if len(tags) > 1 and any(val != vals[0] for val in vals[1:]):
                    note("piece-agreement", cm.label(), w,
                         f"clauses {tags} agree",
                         "; ".join(f"{t}: {_fmt_pair(val)}" for t, val in zip(tags, vals)))
                disp = cell_metric(n, m, w, img)
                if disp > eps_m:
                    note("displacement", cm.label(), w,
                         f"cell displacement <= {eps_m}", str(disp))
            fwd = images[MapKind.TWIST_CCW]
            if -1 <= fwd[0] <= 1 and -1 <= fwd[1] <= 1:
                back = lib.twist_eval_unchecked(cw, *fwd)
                if back != w:
                    note("inverse-roundtrip", cw.label(), w,
                         f"cw(ccw{_fmt_pair(w)}) == {_fmt_pair(w)}",
                         f"{_fmt_pair(fwd)} -> {_fmt_pair(back)}")
                try:
                    pre = lib.piece_inverse_oracle(ccw, *fwd)
                    if pre != w:
                        note("oracle-roundtrip", ccw.label(), w,
                             f"unique preimage {_fmt_pair(w)}", _fmt_pair(pre))
                except NoPreimage:
                    note("oracle-roundtrip", ccw.label(), w,
                         f"unique preimage of {_fmt_pair(fwd)}", "no preimage")
                except MultiplePreimages as exc:
                    note("oracle-roundtrip", ccw.label(), w,
                         f"unique preimage of {_fmt_pair(fwd)}", str(exc))
            else:
                note("inverse-roundtrip", cw.label(), w,
                     "forward image inside the square", _fmt_pair(fwd))
        if abs(x) <= one_minus_b:
            for cm in (ccw, cw):
                img = lib.twist_eval_unchecked(cm, x, ZERO)
                if img != (x, ZERO):
                    note("center-fixity", cm.label(), (x, ZERO),
                         f"({x}, 0) fixed", _fmt_pair(img))

    for x in stride:
        for y in stride:
            for cm in (ccw3, cw3):
                try:
                    img = lib.twist_eval_unchecked(cm, x, y)
                except Unclassifiable as exc:
                    # an earlier application already left the square, so the
                    # orbit has no defined continuation to measure
                    note("displacement", cm.label(), (x, y),
                         f"cell displacement <= {3 * eps_m}", str(exc))
                    continue
                disp = cell_metric(n, m, (x, y), img)
                if disp > 3 * eps_m:
                    note("displacement", cm.label(), (x, y),
                         f"cell displacement <= {3 * eps_m}", str(disp))

    return ErrataReport(variant, n, m, grid_step, len(grid) ** 2, tuple(findings))
