import random
from fractions import Fraction

import pytest

from hilbertcube import InteriorMapParams, interior_map_eval, make_point

DENOMS = (4, 8, 12, 16, 27, 64, 100)


def rand_rational(rng: random.Random, interior: bool = False) -> Fraction:
    den = rng.choice(DENOMS)
    num = rng.randint(-den, den)
    if interior:
        num = max(min(num, den - 1), 1 - den)
    return Fraction(num, den)


def rand_point(rng: random.Random, width: int = 6, interior: bool = False):
    prefix = [rand_rational(rng, interior) for _ in range(rng.randint(0, width))]
    return make_point(prefix, rand_rational(rng, interior))


def coord_map(p_i, q_i, t):
    """Coordinate 1 of the interior move with the one knee (p_i, q_i), at t."""
    move = InteriorMapParams(make_point([p_i], 0), make_point([q_i], 0))
    return interior_map_eval(move, make_point([t], 0)).coord(1)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
