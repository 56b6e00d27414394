import random

import pytest

from knotinv import (
    DiagramAnalysis,
    DiagramError,
    determinant,
    jones,
    nonalternating_edges,
    orient,
    parse_pd,
    recognize_genus_one,
    serialize_pd,
    turaev_genus,
    validate,
)
from knotinv.sampling import (
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
    random_genus_one_diagram,
)

from conftest import det_from_jones


def test_alternating_generator():
    rng = random.Random(1)
    for _ in range(30):
        d = random_alternating_diagram(rng.randint(1, 10), rng)
        validate(d)
        assert not nonalternating_edges(d)
        assert turaev_genus(DiagramAnalysis(d)) == 0


def test_random_generator_valid():
    rng = random.Random(2)
    for _ in range(30):
        d = random_diagram(rng.randint(1, 10), rng)
        validate(d)
        assert parse_pd(serialize_pd(d)) == d
        od = orient(d)
        assert determinant(od) == det_from_jones(jones(od))


def test_genus_one_generator():
    rng = random.Random(3)
    for _ in range(15):
        k = rng.choice((1, 2))
        d = random_genus_one_diagram(k, rng)
        validate(d)
        a = DiagramAnalysis(d)
        assert turaev_genus(a) == 1
        gs = recognize_genus_one(a)
        assert gs is not None and gs.k == k


def test_aa_generator():
    rng = random.Random(4)
    for _ in range(10):
        d, deal = random_almost_alternating_diagram(rng.randint(5, 10), rng)
        validate(d)
        bad = nonalternating_edges(d)
        assert bad == set(d.crossings[deal])
        assert turaev_genus(DiagramAnalysis(d)) == 1


def test_aa_generator_refuses_small_n_before_drawing():
    """n <= 4 cannot pass the reducedness check, so it is refused at once,
    naming the least n, and the generator draws nothing."""
    for n in range(-1, 5):
        rng = random.Random(8)
        state = rng.getstate()
        with pytest.raises(DiagramError, match="needs n >= 5"):
            random_almost_alternating_diagram(n, rng)
        assert rng.getstate() == state


def test_determinism():
    a = random_diagram(8, random.Random(42))
    b = random_diagram(8, random.Random(42))
    assert a == b
