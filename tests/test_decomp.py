import random

import pytest

from knotinv import (
    Diagram,
    DiagramAnalysis,
    DiagramError,
    Tangle,
    alternating_decomposition,
    classify_orientation,
    closures,
    conway_determinant,
    crossing_signs,
    determinant,
    goeritz_determinant,
    nonalternating_edges,
    orient,
    oriented_closure,
    recognize_genus_one,
    reduce_kinks,
    s_A,
    turaev_genus,
)
from knotinv.decomp import _corners, _walk
from knotinv.sampling import random_alternating_diagram, random_genus_one_diagram

from conftest import gordon_litherland, is_reduced, mirror, recognize_genus_one_reference, tangle_faces_reference


def test_turaev_genus_values(trefoil, fig8, hopf, aa_trefoil, k12n888_mirror):
    assert turaev_genus(DiagramAnalysis(trefoil)) == 0
    assert turaev_genus(DiagramAnalysis(fig8)) == 0
    assert turaev_genus(DiagramAnalysis(hopf)) == 0
    assert turaev_genus(DiagramAnalysis(aa_trefoil)) == 1
    assert turaev_genus(DiagramAnalysis(k12n888_mirror)) == 1


def test_nonalternating_edges(trefoil, aa_trefoil):
    assert nonalternating_edges(trefoil) == set()
    assert nonalternating_edges(aa_trefoil) == {2, 3, 5, 6}


def test_alternating_decomposition_trivial(trefoil):
    dec = alternating_decomposition(DiagramAnalysis(trefoil))
    assert dec.curves == ()
    assert len(dec.tangles) == 1
    assert dec.tangles[0].crossing_indices == (0, 1, 2)
    assert not dec.tangles[0].proper


def test_decomposition_aa_trefoil(aa_trefoil):
    dec = alternating_decomposition(DiagramAnalysis(aa_trefoil))
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
    obj = alternating_decomposition(DiagramAnalysis(aa_trefoil)).to_json(aa_trefoil)
    assert obj["nonalternating_edges"] == [2, 3, 5, 6]
    assert len(obj["curves"]) == 2
    assert len(obj["tangles"]) == 2
    assert all(set(t) == {"crossings", "boundary", "decorations", "proper"} for t in obj["tangles"])


def test_recognize_aa_trefoil(aa_trefoil):
    gs = recognize_genus_one(DiagramAnalysis(aa_trefoil))
    assert gs is not None and gs.k == 1
    dets = set()
    for t in gs.tangles:
        num, den = closures(t, aa_trefoil)
        dets.add((determinant(orient(num)), determinant(orient(den))))
    assert dets == {(1, 2), (1, 1)}


def test_recognize_rejects_alternating(trefoil, fig8):
    assert recognize_genus_one(DiagramAnalysis(trefoil)) is None
    assert recognize_genus_one(DiagramAnalysis(fig8)) is None


def test_recognize_12n888(k12n888_mirror):
    gs = recognize_genus_one(DiagramAnalysis(k12n888_mirror))
    assert gs is not None and gs.k == 1
    dets = []
    for t in gs.tangles:
        num, den = closures(t, k12n888_mirror)
        dets.append(determinant(orient(num)))
        dets.append(determinant(orient(den)))
    assert sorted(dets) == [6, 6, 9, 9]


def test_generated_cycles_recognized():
    rng = random.Random(3)
    seen_k = set()
    for _ in range(12):
        k = rng.choice((1, 2))
        d = random_genus_one_diagram(k, rng)
        a = DiagramAnalysis(d)
        gs = recognize_genus_one(a)
        assert gs is not None and gs.k == k
        assert turaev_genus(a) == 1
        seen_k.add(k)
    assert seen_k == {1, 2}


def _switched(d, rng):
    """``d`` with one to three crossings switched (each one's tuple rotated
    by a slot), so some genus-one diagrams leave the normal form."""
    xs = list(d.crossings)
    for ci in rng.sample(range(len(xs)), min(len(xs), rng.randint(1, 3))):
        a, b, c, e = xs[ci]
        xs[ci] = (b, c, e, a)
    return Diagram(tuple(xs))


def test_walk_matches_reference_recognition():
    """The boundary-dart walk against the old label-sorting recognition on
    2000 seeded genus-one and alternating diagrams with 1-3 crossings
    switched: both refuse the same diagrams, and they give the same rotated
    tangles for k >= 2 and the same closure determinant pairs, up to
    swapping N and D, for k = 1."""
    rng = random.Random(62)
    genus_one = refused = 0
    for i in range(2000):
        if i % 2:
            k = rng.randint(1, 4)
            d = random_genus_one_diagram(k, rng, [rng.randint(1, 5) for _ in range(2 * k)])
        else:
            d = random_alternating_diagram(rng.randint(3, 16), rng)
        d = _switched(d, rng)
        a = DiagramAnalysis(d)
        gs, ref = recognize_genus_one(a), recognize_genus_one_reference(a)
        genus_one += a.turaev_genus == 1
        assert (gs is None) == (ref is None)
        if gs is None:
            refused += a.turaev_genus == 1
            continue
        assert gs.k == ref.k
        assert [t.crossing_indices for t in gs.tangles] == [t.crossing_indices for t in ref.tangles]
        if gs.k > 1:
            assert [t.boundary for t in gs.tangles] == [t.boundary for t in ref.tangles]
        else:
            assert sorted(map(sorted, gs.closure_determinants)) == sorted(
                map(sorted, ref.closure_determinants)
            )
    assert genus_one > 700 and refused > 60


def _relabelled(d, rng):
    """``d`` with its edges relabelled and its crossings permuted at random."""
    label = list(range(1, d.edge_count + 1))
    rng.shuffle(label)
    xs = [tuple(label[e - 1] for e in x) for x in d.crossings]
    rng.shuffle(xs)
    return Diagram(tuple(xs))


def test_recognition_ignores_labelling():
    """k, the sorted closure determinant pairs and the Conway determinant
    do not change when the edges are relabelled and the crossings permuted,
    on 120 seeded genus-one diagrams (k = 1-4) with three relabellings
    each.  For k = 1 this needs the channel split chosen by the smaller
    sorted determinant pairs, not by the labels."""
    rng = random.Random(63)
    for i in range(120):
        k = 1 + i % 4
        d = random_genus_one_diagram(k, rng, [rng.randint(1, 6) for _ in range(2 * k)])
        gs = recognize_genus_one(DiagramAnalysis(d))
        want = (gs.k, sorted(gs.closure_determinants), conway_determinant(gs))
        for _ in range(3):
            other = recognize_genus_one(DiagramAnalysis(_relabelled(d, rng)))
            assert (other.k, sorted(other.closure_determinants), conway_determinant(other)) == want


def test_walk_refuses_what_is_not_one_cycle():
    """The walk over hand-built tables of where each tangle's places lead:
    two tangles joined side by side close; a step whose stubs reach two
    tangles, or one tangle at places of equal parity, is refused, and so is
    a walk that closes before it has visited every tangle, or never closes."""
    tangle = Tangle((0,), (0, 1, 2, 3), True)
    # places 0, 1 of each tangle meet places 3, 2 of the other
    pair = [[(1, 3), (1, 2), (1, 1), (1, 0)], [(0, 3), (0, 2), (0, 1), (0, 0)]]
    assert _walk((tangle,) * 2, pair, 3) is not None
    two_tangles = [[(1, 3), (2, 2), (0, 0), (0, 0)], [(2, 3), (2, 2), (0, 0), (0, 0)],
                   [(0, 3), (0, 2), (0, 0), (0, 0)]]
    assert _walk((tangle,) * 3, two_tangles, 3) is None
    equal_parity = [[(1, 3), (1, 1), (1, 1), (1, 0)], [(0, 3), (0, 2), (0, 3), (0, 2)]]
    assert _walk((tangle,) * 2, equal_parity, 3) is None
    early = pair + [[(3, 3), (3, 2), (0, 0), (0, 0)], [(2, 3), (2, 2), (0, 0), (0, 0)]]
    assert _walk((tangle,) * 4, early, 3) is None
    never = [pair[0], [(0, 2), (0, 1), (0, 1), (0, 0)]]
    assert _walk((tangle,) * 2, never, 3) is None


def test_oriented_closures_match_plain(aa_trefoil):
    gs = recognize_genus_one(DiagramAnalysis(aa_trefoil))
    od = orient(aa_trefoil)
    which = classify_orientation(gs, od)
    assert which in ("numerator", "denominator", "both")
    sel = "numerator" if which in ("numerator", "both") else "denominator"
    for t in gs.tangles:
        oc = oriented_closure(t, od, sel)
        num, den = closures(t, aa_trefoil)
        expected = num if sel == "numerator" else den
        assert oc.diagram == expected


def test_closures_refuse_what_does_not_close(aa_trefoil):
    """A tangle without four boundary points has no closures, and the
    almost-alternating trefoil's orientation, which matches its denominator
    closures only, extends to neither tangle's numerator closure."""
    with pytest.raises(DiagramError, match="^not a 2-tangle: 2 boundary strands$"):
        closures(Tangle((0,), (0, 2), True), aa_trefoil)
    gs = recognize_genus_one(DiagramAnalysis(aa_trefoil))
    od = orient(aa_trefoil)
    assert classify_orientation(gs, od) == "denominator"
    for t in gs.tangles:
        assert oriented_closure(t, od, "denominator").diagram == closures(t, aa_trefoil)[1]
        with pytest.raises(DiagramError, match="^ambient orientation does not extend to this closure$"):
            oriented_closure(t, od, "numerator")


def test_classify_orientation_12n888(k12n888_mirror):
    gs = recognize_genus_one(DiagramAnalysis(k12n888_mirror))
    od = orient(k12n888_mirror)
    assert classify_orientation(gs, od) in ("numerator", "denominator", "both")


def test_closure_determinants_match_closures(k12n888_mirror):
    """The closure determinants read off the parent's faces against the
    Goeritz determinants of the closures themselves, the Conway determinant
    against the diagram's, and each tangle's pair against its mirror's, on
    12n888, its mirror and 200 seeded genus-one diagrams (k = 1-4, up to 60
    crossings)."""
    rng = random.Random(60)
    corpus = [k12n888_mirror, mirror(k12n888_mirror)]
    for _ in range(200):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 30 // k) for _ in range(2 * k)]
        corpus.append(random_genus_one_diagram(k, rng, sizes))
    for d in corpus:
        gs = recognize_genus_one(DiagramAnalysis(d))
        assert conway_determinant(gs) == goeritz_determinant(d)
        mirrored = recognize_genus_one(DiagramAnalysis(mirror(d)))
        mirror_pairs = {
            t.crossing_indices: pair
            for t, pair in zip(mirrored.tangles, mirrored.closure_determinants)
        }
        # two tangles pair their four connecting edges into channels two
        # ways, which swaps N and D; the mirror may get the other split only
        # when the two splits' sorted pairs tie
        dets = gs.closure_determinants
        tie = gs.k == 1 and sorted(p[::-1] for p in dets) == sorted(dets)
        for t, pair in zip(gs.tangles, dets):
            assert pair == tuple(goeritz_determinant(c) for c in closures(t, d))
            if tie:
                assert sorted(mirror_pairs[t.crossing_indices]) == sorted(pair)
            else:
                assert mirror_pairs[t.crossing_indices] == pair


def test_arc_corners_match_face_walk_reference(k12n888_mirror):
    """The corner keys, interior faces and sector faces read off the
    decomposition's arcs against the old second walk over the parent's
    faces, on 12n888, its mirror and 240 seeded genus-one diagrams (k = 1-4,
    up to 60 crossings), k = 1 diagrams that take the other channel split
    among them."""
    rng = random.Random(65)
    corpus = [k12n888_mirror, mirror(k12n888_mirror)]
    for _ in range(240):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 30 // k) for _ in range(2 * k)]
        corpus.append(random_genus_one_diagram(k, rng, sizes))
    other_split = 0
    for d in corpus:
        a = DiagramAnalysis(d)
        gs = recognize_genus_one(a)
        runs = a.arc_runs
        corner_key, interior, sector_face = _corners(d.fs.face_of, runs, gs.tangles)
        ref_key, ref_interior, ref_sector = tangle_faces_reference(d, d.fs, gs.tangles)
        assert corner_key == ref_key
        assert interior == ref_interior
        assert sector_face == [[sf[j] for j in range(4)] for sf in ref_sector]
        # for k = 1 the first split turns tangle 0 to its place 3, the other to 2
        if gs.k == 1:
            first = a.decomposition.tangles[0].boundary
            other_split += gs.tangles[0].boundary[0] == first[2]
    assert other_split > 10


def _joined_edges(d, t, which: str) -> frozenset:
    """The pairs of edges of ``d`` the ``which`` closure of its tangle ``t`` joins."""
    e0, e1, e2, e3 = (d.labels[b] for b in t.boundary)
    pairs = ((e0, e1), (e2, e3)) if which == "numerator" else ((e1, e2), (e3, e0))
    return frozenset(frozenset(pair) for pair in pairs)


def _closure_signatures(d, od) -> dict:
    """Face-read signature of every closure ``od`` extends to, keyed by the
    tangle's crossings and the edges the closure joins."""
    gs = recognize_genus_one(DiagramAnalysis(d))
    cls = classify_orientation(gs, od)
    signs = crossing_signs(od)[0]
    out = {}
    for which in ("numerator", "denominator") if cls == "both" else (cls,):
        for t, sig in zip(gs.tangles, gs.closure_signatures(signs, which)):
            out[(t.crossing_indices, _joined_edges(d, t, which))] = (t, which, sig)
    return out


def test_closure_signatures_match_closures(k12n888_mirror):
    """The closure signatures read off the parent's faces against Traczyk
    on each reduced oriented closure wherever it applies, and against
    Gordon-Litherland on each oriented closure itself, on 12n888, its
    mirror and 120 seeded genus-one diagrams (k = 1-4, up to 60 crossings).
    Mirroring, with the orientation carried over, negates each signature."""
    rng = random.Random(61)
    corpus = [k12n888_mirror, mirror(k12n888_mirror)]
    for _ in range(120):
        k = rng.randint(1, 4)
        sizes = [rng.randint(1, 30 // k) for _ in range(2 * k)]
        corpus.append(random_genus_one_diagram(k, rng, sizes))
    traczyk = unreduced = 0
    for d in corpus:
        od = orient(d)
        sigs = _closure_signatures(d, od)
        for t, which, sig in sigs.values():
            oc = oriented_closure(t, od, which)
            assert sig == gordon_litherland(oc)[0]
            red = reduce_kinks(oc)
            if is_reduced(red.diagram):
                # Traczyk, s_A - c_plus - 1, on the alternating reduced closure
                assert not nonalternating_edges(red.diagram)
                assert sig == s_A(red.diagram) - crossing_signs(red)[1] - 1
                traczyk += 1
            else:
                unreduced += 1
        # slot s of a crossing is slot s - 1 of its mirror image
        into_m = tuple(od.into[a & ~3 | (a + 1) & 3] for a in range(len(od.into)))
        mirrored_od = orient(mirror(d), into=into_m)
        mirrored = _closure_signatures(mirror(d), mirrored_od)
        assert mirrored.keys() == sigs.keys()
        assert all(mirrored[key][2] == -sig for key, (_, _, sig) in sigs.items())
    assert traczyk > 300 and unreduced > 20
