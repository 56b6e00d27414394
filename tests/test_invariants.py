import random
from pathlib import Path

import pytest

from knotinv import (
    Diagram,
    DiagramError,
    LaurentPoly,
    ObstructionVerdict,
    conway_determinant,
    crossing_signs,
    determinant,
    genus_one_knot_signature,
    giller_mod4_check,
    jones,
    jones_obstruction,
    kauffman_bracket,
    nonalternating_edges,
    orient,
    parse_pd,
    parse_poly,
    recognize_genus_one,
    reduce_kinks,
    s_A,
    s_B,
    signature_bounds,
    tangle_sum_signature,
    traczyk_signature,
    turaev_genus,
    validate,
)
from knotinv.analysis import DiagramAnalysis
from knotinv import sampling
from knotinv.cli import KnotRecord, analyze_record
from knotinv.textio import read_pd_file
from knotinv.invariants import _smooth
from knotinv.statesum import _state_loops
from knotinv.sampling import (
    _check_aa_reduced,
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
    random_genus_one_diagram,
)

from conftest import (
    K12N888_MIRROR_PD,
    _add_curl,
    _add_term,
    _count_calls,
    _loops_uf,
    aa_adjacency,
    aa_closures,
    aa_extreme_coefficients,
    dealternator,
    dl_coefficients,
    gordon_litherland,
    is_reduced,
    mirror,
    poly_mirror,
    resolve_loops,
    smoothing_bracket,
    state_graph,
)


def test_traczyk_trefoil(trefoil):
    assert traczyk_signature(DiagramAnalysis(trefoil)) == 2
    assert traczyk_signature(DiagramAnalysis(mirror(trefoil))) == -2


def test_traczyk_fig8(fig8):
    assert traczyk_signature(DiagramAnalysis(fig8)) == 0


def test_traczyk_unknot():
    a = DiagramAnalysis(parse_pd(""))
    assert traczyk_signature(a) == 0
    # no crossing: the empty Goeritz form, det 1 and signature 0
    assert (a.goeritz, a.det, a.signature) == ((1, 0, []), 1, 0)


def test_traczyk_rejects_nonalternating(aa_trefoil):
    with pytest.raises(DiagramError):
        traczyk_signature(DiagramAnalysis(aa_trefoil))


def test_traczyk_rejects_nugatory():
    # this curl makes the diagram non-alternating, which is what Traczyk
    # refuses; alternating diagrams with nugatory crossings are answered
    # (test_gordon_litherland_agrees_with_every_route)
    kinked = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,7,3] X[7,6,8,8]")
    assert not is_reduced(kinked)
    with pytest.raises(DiagramError):
        traczyk_signature(DiagramAnalysis(kinked))


def test_reduce_kinks():
    kinked = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,7,3] X[7,6,8,8]")
    red = reduce_kinks(orient(kinked))
    assert red.diagram.crossing_count == 3 and not nonalternating_edges(red.diagram)
    # Traczyk, s_A - c_plus - 1, in the orientation the kinked diagram induces
    assert s_A(red.diagram) - crossing_signs(red)[1] - 1 == 2
    # a single kinked circle reduces to the unknot
    lone = reduce_kinks(orient(parse_pd("X[1,2,2,1]")))
    assert lone.diagram.crossing_count == 0 and lone.diagram.free_loops == 1


def test_reduce_kinks_removes_added_curls():
    rng = random.Random(12)
    for i in range(60):
        make = random_diagram if i % 2 else random_alternating_diagram
        d = make(rng.randint(1, 10), rng)
        kinked = d
        for _ in range(rng.randint(1, 3)):
            kinked = _add_curl(kinked, rng)
        want = reduce_kinks(orient(d))
        got = reduce_kinks(orient(kinked))
        assert got.diagram.crossing_count == want.diagram.crossing_count
        assert jones(got) == jones(want)


def test_smoothing_skein_relation():
    # <D> = A <D_A> + A^-1 <D_B> at every crossing, on the smoothings
    # ``_smooth`` builds for reduce_kinks and the conftest aa_closures
    # oracle; a smoothing that is a split diagram is refused when built,
    # and its bracket is the state sum over D's states that smooth the
    # crossing so
    rng = random.Random(13)
    smoothings = []
    for i in range(60):
        make = random_diagram if i % 2 else random_alternating_diagram
        d = make(rng.randint(1, 12), rng)
        bracket = kauffman_bracket(d)
        for ci in range(d.crossing_count):
            smoothed: dict[int, int] = {}
            for choice, shift in (("A", 1), ("B", -1)):
                try:
                    part = kauffman_bracket(_smooth(d, ci, choice))
                    smoothings.append("built")
                except DiagramError as exc:
                    assert str(exc).startswith("split diagram: "), exc
                    part = smoothing_bracket(d, ci, choice)
                    smoothings.append("split")
                _add_term(smoothed, part.coeffs, shift, 0)
            assert bracket == LaurentPoly("A", smoothed)
    assert (len(smoothings), smoothings.count("split")) == (722, 47)


def test_signature_bounds(trefoil, aa_trefoil, k12n888_mirror):
    rep = signature_bounds(DiagramAnalysis(trefoil))
    assert rep.lower == rep.upper == 2
    rep = signature_bounds(DiagramAnalysis(aa_trefoil))
    assert rep.upper - rep.lower == 2
    rep = signature_bounds(DiagramAnalysis(k12n888_mirror))
    assert (rep.lower, rep.upper) == (8, 10)


def test_giller():
    assert giller_mod4_check(8, 45)
    assert giller_mod4_check(0, 1)
    assert giller_mod4_check(2, 3)
    assert not giller_mod4_check(0, 3)
    with pytest.raises(ValueError):
        giller_mod4_check(1, 3)
    with pytest.raises(ValueError):
        giller_mod4_check(0, 4)


def _12n888_cells() -> dict:
    return analyze_record(KnotRecord("12n888", K12N888_MIRROR_PD))["fields"]


def test_theorem1_12n888(k12n888_mirror):
    a = DiagramAnalysis(k12n888_mirror)
    rep = genus_one_knot_signature(a)
    assert rep.exact == 8
    assert (rep.lower, rep.upper) == (8, 10)
    assert a.det == 45 and rep.method == "theorem1"
    cell = _12n888_cells()["signature"]["value"]
    assert (cell["method"], cell["det"], cell["mod4_ok"]) == ("theorem1", 45, True)


# the named diagrams of tests/data/signature_cases.pd
SIGNATURE_CASES = {
    r.name: parse_pd(r.pd_text) for r in read_pd_file(Path(__file__).parent / "data" / "signature_cases.pd")
}


def test_theorem1_rejects_alternating(trefoil):
    """Theorem 1 refuses a diagram that is not genus one, and a genus-one
    link."""
    with pytest.raises(DiagramError, match="^exact signature formula needs a genus-one diagram$"):
        genus_one_knot_signature(DiagramAnalysis(trefoil))
    link = DiagramAnalysis(SIGNATURE_CASES["genus_one_link"])
    assert link.turaev_genus == 1
    with pytest.raises(DiagramError, match="^exact signature needs a one-component diagram$"):
        genus_one_knot_signature(link)


def test_theorem2_12n888(k12n888_mirror):
    a = DiagramAnalysis(k12n888_mirror)
    rep = tangle_sum_signature(a)
    assert rep.exact == 8 and rep.method == "theorem2"
    assert giller_mod4_check(rep.exact, a.det)
    cell = _12n888_cells()["decomposition"]["value"]["tangle_sum_signature"]
    assert (cell["method"], cell["det"], cell["mod4_ok"]) == ("theorem2", 45, True)


def test_gordon_litherland_agrees_with_every_route():
    """Gordon-Litherland (the conftest oracle, both colour classes) against
    the analysis's own route, the bounds, Traczyk (nugatory crossings
    included), Theorem 1 and Theorem 2 wherever each applies, and the mod-4
    rule on every knot, over 240 seeded random, alternating and genus-one
    diagrams."""
    rng = random.Random(125)
    applied = dict(traczyk=0, nugatory=0, theorem1=0, theorem2=0, theorem2_link=0, knots=0)
    for i in range(240):
        if i % 3 == 0:
            d = random_diagram(rng.randint(1, 12), rng)
        elif i % 3 == 1:
            d = random_alternating_diagram(rng.randint(1, 14), rng)
        else:
            k = rng.randint(1, 2)
            d = random_genus_one_diagram(k, rng, [rng.randint(1, 4) for _ in range(2 * k)])
        od = orient(d)
        sig, det = gordon_litherland(od)
        assert gordon_litherland(od, colour=1) == (sig, det)
        a = DiagramAnalysis(d)
        assert (a.signature, a.det) == (sig, det)
        bounds = signature_bounds(a)
        assert bounds.lower <= sig <= bounds.upper
        if not nonalternating_edges(d):
            assert traczyk_signature(a) == sig
            applied["traczyk"] += 1
            applied["nugatory"] += not is_reduced(d)
        knot = od.component_count == 1
        if knot:
            assert giller_mod4_check(sig, det)
            applied["knots"] += 1
            if turaev_genus(a) == 1:
                assert genus_one_knot_signature(a).exact == sig
                applied["theorem1"] += 1
        if a.genus_one is not None:
            rep = tangle_sum_signature(a)
            assert rep.lower <= sig <= rep.upper
            if knot:
                assert rep.exact == sig
            applied["theorem2" if knot else "theorem2_link"] += 1
    assert min(applied.values()) >= 30, applied


def test_conway_determinant_12n888(k12n888_mirror):
    gs = recognize_genus_one(DiagramAnalysis(k12n888_mirror))
    assert conway_determinant(gs) == 45
    assert conway_determinant(gs) == determinant(orient(k12n888_mirror))


def test_dl_trefoil(trefoil):
    terms = dl_coefficients(trefoil)
    br = kauffman_bracket(trefoil)
    assert all(br.coeffs.get(e, 0) == c for e, c in terms)
    # with this chirality: v = 3, e = 3 leading; vbar = 2, ebar = 1 trailing
    assert terms[0] == (max(br.coeffs), 1)
    assert terms[3] == (min(br.coeffs), -1)


def test_dl_fig8(fig8):
    br = kauffman_bracket(fig8)
    assert all(br.coeffs.get(e, 0) == c for e, c in dl_coefficients(fig8))


def test_dl_rejects(aa_trefoil):
    with pytest.raises(DiagramError, match="^extreme term formula requires an alternating diagram$"):
        dl_coefficients(aa_trefoil)
    with pytest.raises(DiagramError, match="^extreme term formula requires a reduced diagram$"):
        dl_coefficients(SIGNATURE_CASES["nugatory_alternating"])
    with pytest.raises(DiagramError):
        dl_coefficients(parse_pd(""))


def test_mark_almost_alternating(aa_trefoil, trefoil):
    """``dealternator`` finds the one crossing of an almost-alternating
    diagram, and the almost-alternating helpers refuse a diagram that has
    none."""
    a = DiagramAnalysis(aa_trefoil)
    assert dealternator(a) == 2
    alternating = DiagramAnalysis(trefoil)
    assert dealternator(alternating) is None
    for helper in (aa_adjacency, aa_extreme_coefficients):
        with pytest.raises(DiagramError, match="not almost alternating"):
            helper(alternating)


# six crossings, the dealternator last, with adj(u) = adj(v) = 1
AA_ADJ_ONE_PD = "X[1,2,3,4] X[5,1,4,6] X[7,3,8,9] X[10,7,9,11] X[6,10,11,12] X[5,12,8,2]"


def test_aa_adjacency_one_predicts_vanishing_extremes():
    """When adj(u) = adj(v) = 1 both predicted extreme coefficients vanish."""
    a = DiagramAnalysis(parse_pd(AA_ADJ_ONE_PD))
    assert aa_adjacency(a) == (1, 1)
    (_, a0), (_, ak) = aa_extreme_coefficients(a)
    assert a0 == ak == 0


def test_aa_refuses_a_dealternator_on_a_face_twice():
    """A random diagram whose non-alternating edges are exactly the four at
    one crossing, with a face at two of that crossing's corners, is refused
    before either smoothing is read.  Seed 1 draws one at its seventh
    diagram."""
    rng = random.Random(1)
    for _ in range(100):
        a = DiagramAnalysis(random_diagram(rng.randint(3, 10), rng))
        deal = dealternator(a)
        if deal is not None and len(set(a.diagram.fs.face_of[4 * deal:4 * deal + 4])) < 4:
            break
    else:
        pytest.fail("no dealternator with a repeated face in 100 draws")
    for helper in (aa_adjacency, aa_extreme_coefficients):
        with pytest.raises(DiagramError, match="^dealternator faces are not distinct"):
            helper(a)


def test_aa_closures_smoothings(aa_trefoil):
    aa = DiagramAnalysis(aa_trefoil)
    dr, nr = aa_closures(aa)
    assert dr.crossing_count == nr.crossing_count == 2
    assert not nonalternating_edges(dr) and not nonalternating_edges(nr)


def test_aa_trefoil_closures_unreduced(aa_trefoil):
    # both smoothings of the dealternator are kinked twists here
    aa = DiagramAnalysis(aa_trefoil)
    with pytest.raises(DiagramError):
        aa_adjacency(aa)


def test_aa_generated_predictions():
    rng = random.Random(4)
    for _ in range(25):
        d, deal = random_almost_alternating_diagram(rng.randint(5, 12), rng)
        aa = DiagramAnalysis(d)
        adj_u, adj_v = aa_adjacency(aa)
        (e0, a0), (ek, ak) = aa_extreme_coefficients(aa)
        br = kauffman_bracket(d)
        assert br.coeffs.get(e0, 0) == a0
        assert br.coeffs.get(ek, 0) == ak
        assert max(br.coeffs) <= e0 and min(br.coeffs) >= ek
        assert all((e0 - e) % 4 == 0 for e, _ in br.terms())
        # the face count equals the parallel-edge collapse in the state graphs
        dr, nr = aa_closures(aa)
        assert adj_u == state_graph(nr, "A").reduced_edge_count - state_graph(dr, "A").reduced_edge_count
        assert adj_v == state_graph(dr, "B").reduced_edge_count - state_graph(nr, "B").reduced_edge_count


def test_aa_helpers_validate_each_diagram_once(monkeypatch):
    """Building a diagram and the extreme-coefficient prediction on it
    validate the diagram once, and the prediction reads both smoothings off
    its face structure.  The sampler has already validated its own
    diagram, so the count is on a fresh copy."""
    drawn, _ = random_almost_alternating_diagram(10, random.Random(7))
    validations = _count_calls(monkeypatch, validate)
    d = Diagram(drawn.crossings)
    aa_extreme_coefficients(DiagramAnalysis(d))
    assert len(validations) == 1
    assert validations[0][0] is d


def _refused(check, *args) -> bool:
    try:
        check(*args)
    except DiagramError:
        return True
    return False


def _check_built_smoothings(dr, nr) -> None:
    """The reducedness check as it was, on D(R) and N(R) built by splicing."""
    for g in (dr, nr):
        if nonalternating_edges(g) or not is_reduced(g):
            raise DiagramError("not reduced")


def test_aa_check_matches_built_smoothings(monkeypatch):
    """On 1500+ candidate draws of the almost-alternating sampler, refused
    ones kept, the crossing the sampler passes as the dealternator is the
    analysis's, the face-read reducedness check refuses exactly when the
    built D(R) or N(R) is refused, and the loop walk gives s_B(D(R))
    without building it."""
    draws = []

    def keep_drawing(d, deal):
        draws.append((DiagramAnalysis(d), deal))
        raise DiagramError("keep drawing")

    monkeypatch.setattr(sampling, "_check_aa_reduced", keep_drawing)
    monkeypatch.setattr(sampling, "_MAX_TRIES", 170)
    rng = random.Random(16)
    for n in range(5, 14):
        with pytest.raises(DiagramError, match="no reduced"):
            random_almost_alternating_diagram(n, rng)
    monkeypatch.undo()
    assert len(draws) >= 1500
    accepted = 0
    for aa, deal in draws:
        assert dealternator(aa) == deal == aa.diagram.crossing_count - 1, aa
        dr, nr = aa_closures(aa)
        refused = _refused(_check_aa_reduced, aa.diagram, deal)
        assert refused == _refused(_check_built_smoothings, dr, nr), aa
        accepted += not refused
        d = aa.diagram
        flips = [3] * d.crossing_count
        flips[dealternator(aa)] = 1
        assert s_A(d) == s_A(dr)
        assert _state_loops(d, flips)[1] == s_B(dr)
    assert 100 <= accepted <= len(draws) - 100  # both verdicts well covered


def test_state_loops_match_union_find():
    """On mixed random states, the walk's loops are the union-find's classes
    of edge labels."""
    rng = random.Random(17)
    for i in range(300):
        make = (random_diagram, random_alternating_diagram)[i % 2]
        d = make(rng.randint(1, 14), rng)
        if i % 3 == 0:
            d = _add_curl(d, rng)
        state = [rng.choice("AB") for _ in d.crossings]
        loop, count = _state_loops(d, [1 if x == "A" else 3 for x in state])
        assert count == resolve_loops(d, state)
        labels = d.labels
        uf = _loops_uf(d, state)
        pairs = {(loop[a], uf.find(e)) for a, e in enumerate(labels)}
        assert len(pairs) == len({lp for lp, _ in pairs}) == len({r for _, r in pairs}) == count


def test_adj_duality():
    rng = random.Random(5)
    for _ in range(40):
        d, deal = random_almost_alternating_diagram(rng.randint(5, 12), rng)
        aa = DiagramAnalysis(d)
        adj_u, adj_v = aa_adjacency(aa)
        assert not (adj_u >= 3 and adj_v >= 3)
        if adj_u >= 3:
            assert adj_v == 0
        if adj_v >= 3:
            assert adj_u == 0


def test_obstruction_verdicts():
    fires = jones_obstruction(LaurentPoly("t_half", {0: -2, 4: 3, 8: -2}))
    assert fires.fires and fires.a_m == -2 and fires.a_M == -2
    assert set(fires.implied) == {
        "not_almost_alternating",
        "turaev_genus_ge_2",
        "dealternating_number_ge_2",
    }
    quiet = jones_obstruction(LaurentPoly("t_half", {0: 1, 4: -7}))
    assert not quiet.fires and quiet.implied == ()
    # a verdict is its two coefficients; whether it fires is read off them
    assert ObstructionVerdict._fields == ("a_m", "a_M")
    verdicts = [ObstructionVerdict(m, big) for m, big in ((1, -1), (2, -1), (1, 2), (-2, 2))]
    assert [(v.fires, v.implied) for v in verdicts] == [(False, ())] * 3 + [(True, fires.implied)]
    with pytest.raises(ValueError):
        jones_obstruction(LaurentPoly("t_half", {}))


def test_obstruction_after_cancellation():
    # the t^5 terms cancel, so the top coefficient is that of t^3
    verdict = jones_obstruction(parse_poly("2t^5 - 2t^5 + 3t^3 - t"))
    assert (verdict.a_m, verdict.a_M, verdict.fires) == (-1, 3, False)
    verdict = jones_obstruction(parse_poly("-2t^{-3} + 5 - 4t^2 + 2t^{-3} + 3t^{-1}"))
    assert (verdict.a_m, verdict.a_M, verdict.fires) == (3, -4, True)


def test_obstruction_mirror_swaps_extremes():
    rng = random.Random(11)
    for _ in range(300):
        v = LaurentPoly(
            "t_half", {rng.randint(-20, 20): rng.randint(-5, 5) for _ in range(rng.randint(1, 8))}
        )
        if v.is_zero:
            continue
        verdict, mirrored = jones_obstruction(v), jones_obstruction(poly_mirror(v))
        assert (mirrored.a_m, mirrored.a_M) == (verdict.a_M, verdict.a_m)
        assert mirrored.fires == verdict.fires and mirrored.implied == verdict.implied


def test_obstruction_trefoil(trefoil):
    assert not jones_obstruction(jones(orient(trefoil))).fires


def test_alternating_never_fires():
    rng = random.Random(6)
    for _ in range(30):
        d = random_alternating_diagram(rng.randint(2, 9), rng)
        if not is_reduced(d):
            continue
        assert not jones_obstruction(jones(orient(d))).fires


def test_genus_one_extreme_jones_coefficient_at_scale():
    """The paper's second result on genus-one diagrams of 24-100 crossings:
    the leading or the trailing Jones coefficient has absolute value one."""
    rng = random.Random(2460)
    for _ in range(120):
        k = rng.randint(1, 4)
        sizes = [0]
        while sum(sizes) < 24:
            sizes = [rng.randint(1, 50 // k) for _ in range(2 * k)]
        d = random_genus_one_diagram(k, rng, sizes)
        assert 24 <= d.crossing_count <= 100
        v = jones(orient(d))
        verdict = jones_obstruction(v)
        assert min(abs(verdict.a_m), abs(verdict.a_M)) == 1, d
