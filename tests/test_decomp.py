import pytest

from knotinv import (
    DiagramError,
    Tangle,
    alternating_decomposition,
    classify_orientation,
    closures,
    determinant,
    nonalternating_edges,
    orient,
    oriented_closure,
    parse_pd,
    recognize_genus_one,
    turaev_genus,
)
from knotinv.diagram import Crossing


def test_turaev_genus_values(trefoil, fig8, hopf, aa_trefoil, k12n888_mirror):
    assert turaev_genus(trefoil) == 0
    assert turaev_genus(fig8) == 0
    assert turaev_genus(hopf) == 0
    assert turaev_genus(aa_trefoil) == 1
    assert turaev_genus(k12n888_mirror) == 1


def test_nonalternating_edges(trefoil, aa_trefoil):
    assert nonalternating_edges(trefoil) == set()
    assert nonalternating_edges(aa_trefoil) == {2, 3, 5, 6}


def test_alternating_decomposition_trivial(trefoil):
    dec = alternating_decomposition(trefoil)
    assert dec.curves == ()
    assert len(dec.tangles) == 1
    assert dec.tangles[0].crossing_indices == (0, 1, 2)
    assert not dec.tangles[0].proper


def test_decomposition_aa_trefoil(aa_trefoil):
    dec = alternating_decomposition(aa_trefoil)
    assert sorted(dec.nonalternating) == [2, 3, 5, 6]
    assert len(dec.curves) == 2
    assert all(len(c) == 4 for c in dec.curves)
    # two marked points per non-alternating edge, each on exactly one curve
    points = [p for c in dec.curves for p in c]
    assert len(points) == len(set(points)) == 8
    assert len(dec.tangles) == 2
    assert {t.crossing_indices for t in dec.tangles} == {(0, 1), (2,)}
    for t in dec.tangles:
        assert t.proper
        assert t.decorations in (("-", "+", "-", "+"), ("+", "-", "+", "-"))


def test_decomposition_json(aa_trefoil):
    obj = alternating_decomposition(aa_trefoil).to_json()
    assert obj["nonalternating_edges"] == [2, 3, 5, 6]
    assert len(obj["curves"]) == 2
    assert len(obj["tangles"]) == 2
    assert all(set(t) == {"crossings", "boundary", "decorations", "proper"} for t in obj["tangles"])


def test_recognize_aa_trefoil(aa_trefoil):
    gs = recognize_genus_one(aa_trefoil)
    assert gs is not None and gs.k == 1
    dets = set()
    for t in gs.tangles:
        num, den = closures(t)
        dets.add((determinant(orient(num)), determinant(orient(den))))
    assert dets == {(1, 2), (1, 1)}


def test_recognize_rejects_alternating(trefoil, fig8):
    assert recognize_genus_one(trefoil) is None
    assert recognize_genus_one(fig8) is None


def test_recognize_12n888(k12n888_mirror):
    gs = recognize_genus_one(k12n888_mirror)
    assert gs is not None and gs.k == 1
    dets = []
    for t in gs.tangles:
        num, den = closures(t)
        dets.append(determinant(orient(num)))
        dets.append(determinant(orient(den)))
    assert sorted(dets) == [6, 6, 9, 9]


def test_generated_cycles_recognized():
    import random

    from knotinv.sampling import random_genus_one_diagram

    rng = random.Random(3)
    seen_k = set()
    for _ in range(12):
        k = rng.choice((1, 2))
        d = random_genus_one_diagram(k, rng)
        gs = recognize_genus_one(d)
        assert gs is not None and gs.k == k
        assert turaev_genus(d) == 1
        seen_k.add(k)
    assert seen_k == {1, 2}


def test_crossingless_strand_closures():
    # vertical strands: the numerator closes to the unknot while the
    # denominator splits into two circles, so closures() must refuse
    from knotinv.decomp import _close

    t = Tangle(crossings=(), boundary=(1, 2, 2, 1), decorations=("-", "+", "-", "+"), proper=False)
    with pytest.raises(DiagramError):
        closures(t)
    num, edge_of = _close(t, ((1, 2), (2, 1)))
    assert edge_of == {}
    assert num.free_loops == 1 and num.crossing_count == 0
    with pytest.raises(DiagramError):
        _close(t, ((2, 2), (1, 1)))


def test_oriented_closures_match_plain(aa_trefoil):
    gs = recognize_genus_one(aa_trefoil)
    od = orient(aa_trefoil)
    which = classify_orientation(gs, od)
    assert which in ("numerator", "denominator", "both")
    sel = "numerator" if which in ("numerator", "both") else "denominator"
    for t in gs.tangles:
        oc = oriented_closure(t, od, sel)
        num, den = closures(t)
        expected = num if sel == "numerator" else den
        assert oc.diagram == expected


def test_classify_orientation_12n888(k12n888_mirror):
    gs = recognize_genus_one(k12n888_mirror)
    od = orient(k12n888_mirror)
    assert classify_orientation(gs, od) in ("numerator", "denominator", "both")
