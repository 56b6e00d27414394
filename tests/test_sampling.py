import hashlib
import importlib
import random
import sys
from pathlib import Path

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
    assemble,
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


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: random_genus_one_diagram(0, rng), "needs k >= 1, got 0"),
        (lambda rng: random_genus_one_diagram(-1, rng, []), "needs k >= 1, got -1"),
        (lambda rng: random_genus_one_diagram(2, rng, [1, 2, 3]), r"needs 4 tangle sizes >= 1, got \[1, 2, 3\]"),
        (lambda rng: random_genus_one_diagram(1, rng, [2, 0]), r"needs 2 tangle sizes >= 1, got \[2, 0\]"),
        (lambda rng: random_alternating_diagram(0, rng), "needs n >= 1 crossings, got 0"),
        (lambda rng: random_diagram(-2, rng), "needs n >= 1 crossings, got -2"),
    ],
    ids=["k-0", "k-negative", "three-sizes", "size-0", "alternating-n-0", "random-n-negative"],
)
def test_generators_refuse_sizes_before_drawing(draw, message):
    """A size the samplers cannot build is a DiagramError raised before any
    draw, not an empty diagram or a bare ValueError from the rng."""
    rng = random.Random(8)
    state = rng.getstate()
    with pytest.raises(DiagramError, match=message):
        draw(rng)
    assert rng.getstate() == state



@pytest.mark.parametrize(
    "joins",
    [
        [((0, 0), (0, 1)), ((0, 2), (0, 3)), ((0, 0), (0, 2))],
        [((0, 0), (0, 1)), ((0, 2), (0, 2))],
        [((0, 0), (0, 1)), ((0, 2), (1, 3))],
    ],
    ids=["port-twice", "port-missing", "port-off-the-sketch"],
)
def test_assemble_refuses_unmatched_ports(joins):
    """Every port of every vertex is joined exactly once, or no diagram."""
    with pytest.raises(DiagramError, match="not perfectly matched"):
        assemble(1, joins)

def test_determinism():
    a = random_diagram(8, random.Random(42))
    b = random_diagram(8, random.Random(42))
    assert a == b


def test_bench_inputs_match_their_hashes(monkeypatch):
    """The table-invariants and genus-one-decompose inputs of seeds 1-3,
    drawn through the samplers by bench/workloads.py, hash to their lines
    of tests/data/bench_inputs.sha256, so a sampler change that moves a
    bench input fails here.  obstruct-csv's inputs, slow to generate, are
    left to CI's hash step.  Reads bench/ and writes nothing there."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(root / "bench"))
    workloads = importlib.import_module("workloads")
    pinned = (root / "tests" / "data" / "bench_inputs.sha256").read_text().splitlines()
    for name in ("table-invariants", "genus-one-decompose"):
        for seed in (1, 2, 3):
            text = workloads.BUILDERS[name](seed).text
            line = f"{hashlib.sha256(text.encode()).hexdigest()}  {name}-{seed}"
            assert line in pinned, line
