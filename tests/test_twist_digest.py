"""Every grid diagnosis and clause inversion, pinned by one sha256.

The diagnose command's JSON, for both variants on cells (1,2) (1,4) (2,3)
(3,12) (5,6) and (1,20) at grid 1/16 and for verbatim (1,2) at 1/32, and
the outcome of CellMap.preimage, the preimage or the type and text of what
it raises, for single ccw, cw and unit maps on seeded queries, are hashed
together.  The queries are the 1/8 grid values, where verbatim maps have
no or several preimages, the images of the 1/8 grid points, and points
with large and odd denominators, some outside the square.  However the
diagnostics pass and clause inversion read the clause table, every one of
these outputs must stay as it is.
"""

import contextlib
import hashlib
import io
import random

from hilbertcube import CellMap, MapKind, Variant
from hilbertcube.cli import main

DIAGNOSED = [(variant.value, n, m, "1/16") for n, m in ((1, 2), (1, 4), (2, 3), (3, 12), (5, 6), (1, 20))
             for variant in Variant]
DIAGNOSED.append(("verbatim", 1, 2, "1/32"))
CELLS = ((1, 2), (1, 4), (2, 3), (3, 12))
INVERTED = [CellMap(kind, variant, n, m) for n, m in CELLS for variant in Variant
            for kind in (MapKind.TWIST_CCW, MapKind.TWIST_CW)]
INVERTED += [CellMap(MapKind.FIRST_ATTEMPT, Variant.CORRECTED, n, m) for n, m in CELLS]  # no variants
DIGEST = "186d2fd43008be88abbf887f83e1f5e6b81763d9e7c0129b2bb83f044e83148c"


def _diagnosis(variant: str, n: int, m: int, grid: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["diagnose", "--variant", variant, "--n", str(n), "--m", str(m), "--grid", grid])
    return f"{code} {buf.getvalue()}"


def _queries(cm: CellMap, rng: random.Random) -> list[tuple[int, int, int]]:
    """(e, u, v) integer queries of cm.preimage."""
    grid = range(-8, 9)
    queries = [(8, u, v) for u in grid for v in grid]
    queries += [cm.apply(8, x, y) for x in grid for y in grid]
    for _ in range(40):
        e = rng.choice((3, 1000, 2 ** rng.randint(1, 40), rng.randint(1, 2 ** 40)))
        queries.append((e, rng.randint(-2 * e, 2 * e), rng.randint(-e, e)))
    return queries


def _inversion(cm: CellMap, e: int, u: int, v: int) -> str:
    try:
        return f"{cm.label()} {e} {u} {v} -> {cm.preimage(e, u, v)}"
    except Exception as exc:
        return f"{cm.label()} {e} {u} {v} -> {type(exc).__name__}: {exc}"


def test_diagnoses_and_inversions_are_pinned():
    lines = [_diagnosis(*case) for case in DIAGNOSED]
    rng = random.Random(17)
    lines += [_inversion(cm, *query) for cm in INVERTED for query in _queries(cm, rng)]
    assert len(lines) == len(DIAGNOSED) + len(INVERTED) * (2 * 17 * 17 + 40)
    outcomes = [line.split(" -> ")[1].split(":")[0] for line in lines[len(DIAGNOSED):]]
    # unique preimages and both kinds of failure all occur
    assert {"NoPreimage", "MultiplePreimages"} < set(outcomes)
    assert sum(out.startswith("(") for out in outcomes) > len(outcomes) // 2
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
