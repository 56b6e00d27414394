"""Acceptance suite: one test per criterion, each printing a PASS line."""

import random
import time

import pytest

from knotinv import (
    CrossingLimitError,
    DiagramAnalysis,
    LaurentPoly,
    conway_determinant,
    determinant,
    genus_one_knot_signature,
    giller_mod4_check,
    goeritz_determinant,
    jones,
    jones_obstruction,
    kauffman_bracket,
    nonalternating_edges,
    orient,
    parse_pd,
    parse_poly,
    recognize_genus_one,
    s_A,
    s_B,
    signature_bounds,
    tangle_sum_signature,
    traczyk_signature,
    turaev_genus,
    validate,
)
from knotinv.decomp import closures
from knotinv.sampling import (
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
)

from conftest import (
    FIG8_STATES,
    HOPF_STATES,
    TREFOIL_STATES,
    aa_adjacency,
    aa_extreme_coefficients,
    bracket_from_table,
    dealternator,
    det_from_jones,
    dl_coefficients,
    full_twist_pd,
    is_reduced,
    mirror,
    poly_mirror,
    resolve_loops,
)

TABLE_POLYS = {
    "12n253": "-2t^{-8}+ 4t^{-7}-7t^{-6}+ 9t^{-5}-9t^{-4}+ 10t^{-3}-7t^{-2}+ 5t^{-1}-2",
    "12n254": "3t^2-5t^3+ 9t^4-11t^5+ 11t^6-11t^7+ 8t^8-5t^9+ 2t^{10}",
    "12n280": "2t^{-1}-4+ 7t-8t^2+ 9t^3-9t^4+ 6t^5-4t^6+ 2t^7",
    "12n323": "-2t^{-5}+ 4t^{-4}-6t^{-3}+ 9t^{-2}-9t^{-1}+ 9-7t+ 5t^2-2t^3",
    "12n356": "2t^{-4}-5t^{-3}+ 8t^{-2}-10t^{-1}+ 11-10t+ 8t^2-5t^3+ 2t^4",
    "12n375": "2t^2-4t^3+ 8t^4-9t^5+ 10t^6-10t^7+ 7t^8-5t^9+ 2t^{10}",
    "12n452": "2t^{-1}-4+ 7t-9t^2+ 10t^3-9t^4+ 7t^5-5t^6+ 2t^7",
    "12n706": "2t^{-4}-4t^{-3}+ 6t^{-2}-8t^{-1}+ 9-8t+ 6t^2-4t^3+ 2t^4",
    "12n729": "3t^2-6t^3+ 10t^4-12t^5+ 13t^6-12t^7+ 9t^8-6t^9+ 2t^{10}",
    "12n811": "-2+ 6t-8t^2+ 11t^3-11t^4+ 10t^5-8t^6+ 5t^7-2t^8",
    "12n873": "3t^{-4}-7t^{-3}+ 11t^{-2}-14t^{-1}+ 15-14t+ 11t^2-7t^3+ 3t^4",
}

POLY_11N95 = "2t^2 - 3t^3 + 5t^4 - 6t^5 + 6t^6 - 5t^7 + 4t^8 - 2t^9"


def test_criterion_1_table_batch():
    start = time.time()
    for name, text in TABLE_POLYS.items():
        verdict = jones_obstruction(parse_poly(text))
        assert verdict.fires, name
    elapsed = time.time() - start
    assert len(TABLE_POLYS) == 11
    assert elapsed < 1.0, elapsed
    print(f"\nPASS: criterion 1 — obstruction fires on all 11 batch polynomials ({elapsed:.3f}s)")


def test_criterion_2_11n95():
    verdict = jones_obstruction(parse_poly(POLY_11N95))
    assert verdict.fires
    assert "turaev_genus_ge_2" in verdict.implied
    assert "dealternating_number_ge_2" in verdict.implied
    print("\nPASS: criterion 2 — 11n95 polynomial fires with genus/dealternating certificates")


def test_criterion_3_12n888_pipeline(k12n888_mirror):
    start = time.time()
    d = k12n888_mirror
    od = orient(d)
    assert s_A(d) == 9
    from knotinv import crossing_signs

    _, c_plus, _, _ = crossing_signs(od)
    assert c_plus == 0
    a = DiagramAnalysis(d)
    assert turaev_genus(a) == 1
    assert determinant(od) == 45
    rep = genus_one_knot_signature(a)
    assert rep.exact == 8 and rep.method == "theorem1"
    gs = recognize_genus_one(a)
    assert gs is not None and gs.k == 1
    dets = []
    for t in gs.tangles:
        num, den = closures(t, d)
        dets.append(determinant(orient(num)))
        dets.append(determinant(orient(den)))
    assert sorted(dets) == [6, 6, 9, 9]
    assert conway_determinant(gs) == 45
    rep2 = tangle_sum_signature(a)
    assert rep2.exact == 8
    elapsed = time.time() - start
    assert elapsed < 1.0, elapsed
    print(f"\nPASS: criterion 3 — bundled 12n888-mirror pipeline exact ({elapsed:.3f}s)")


def test_criterion_4_oracle_brackets(trefoil, hopf, fig8):
    # brackets recomputed from the frozen hand-checked state tables
    tre = bracket_from_table(TREFOIL_STATES)
    assert kauffman_bracket(trefoil) == tre
    target = LaurentPoly("A", {5: -1, -3: -1, -7: 1})
    assert tre in (target, poly_mirror(target))  # global A <-> A^-1 calibration
    hop = bracket_from_table(HOPF_STATES)
    assert kauffman_bracket(hopf) == hop == LaurentPoly("A", {4: -1, -4: -1})
    assert kauffman_bracket(fig8) == bracket_from_table(FIG8_STATES)
    assert jones(orient(fig8)) == LaurentPoly("t_half", {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1})
    assert determinant(orient(trefoil)) == 3
    assert determinant(orient(hopf)) == 2  # 4 is the standard (2,4)-torus value; Hopf is 2
    assert determinant(orient(fig8)) == 5
    for d, table in ((trefoil, TREFOIL_STATES), (hopf, HOPF_STATES), (fig8, FIG8_STATES)):
        for state, loops in table:
            assert resolve_loops(d, tuple(state)) == loops
    print("\nPASS: criterion 4 — oracle brackets/Jones/determinants match hand state sums")


def test_criterion_5_random_corpus():
    start = time.time()
    rng = random.Random(2024)
    count = 0
    while count < 500:
        d = random_diagram(rng.randint(1, 12), rng)
        validate(d)
        od = orient(d)
        a = DiagramAnalysis(d)
        g = turaev_genus(a)
        rep = signature_bounds(a)
        assert rep.upper - rep.lower == 2 * g
        assert (2 + d.crossing_count - s_A(d) - s_B(d)) % 2 == 0
        m = mirror(d)
        assert kauffman_bracket(m) == poly_mirror(kauffman_bracket(d))
        # carry the orientation across the mirror (slot s is slot s+1 of d)
        into_m = tuple(od.into[a & ~3 | (a + 1) & 3] for a in range(len(od.into)))
        assert jones(orient(m, into=into_m)) == poly_mirror(jones(od))
        assert (s_A(m), s_B(m)) == (s_B(d), s_A(d))
        assert determinant(od) == goeritz_determinant(d) == det_from_jones(jones(od))
        count += 1
    elapsed = time.time() - start
    assert elapsed < 60.0, elapsed
    print(f"\nPASS: criterion 5 — 500 random diagrams <=12 crossings ({elapsed:.1f}s)")


def test_criterion_6_alternating_corpus():
    rng = random.Random(2025)
    count = 0
    while count < 100:
        d = random_alternating_diagram(rng.randint(1, 12), rng)
        if not is_reduced(d):
            continue
        c = d.crossing_count
        br = kauffman_bracket(d)
        for e, coef in dl_coefficients(d):
            assert br.coeffs.get(e, 0) == coef
        assert s_A(d) + s_B(d) == c + 2
        v = jones(orient(d))
        (lo, a_lo), (hi, a_hi) = v.terms()[0], v.terms()[-1]
        assert hi - lo == 2 * c  # breadth c in t
        assert abs(a_lo) == abs(a_hi) == 1
        count += 1
    print(f"\nPASS: criterion 6 — extreme-term predictions on {count} reduced alternating diagrams")


def test_criterion_7_aa_corpus():
    start = time.time()
    rng = random.Random(2026)
    count = 0
    while count < 100:
        d, deal = random_almost_alternating_diagram(rng.randint(5, 14), rng)
        aa = DiagramAnalysis(d)
        assert dealternator(aa) == deal
        adj_u, adj_v = aa_adjacency(aa)
        (e0, a0), (ek, ak) = aa_extreme_coefficients(aa)
        assert not (adj_u >= 3 and adj_v >= 3)
        if adj_u >= 3:
            assert adj_v == 0
        if adj_v >= 3:
            assert adj_u == 0
        br = kauffman_bracket(d)
        assert br.coeffs.get(e0, 0) == a0
        assert br.coeffs.get(ek, 0) == ak
        assert max(br.coeffs) <= e0 and min(br.coeffs) >= ek
        assert all((e0 - e) % 4 == 0 for e, _ in br.terms())
        count += 1
    elapsed = time.time() - start
    assert elapsed < 120.0, elapsed
    print(f"\nPASS: criterion 7 — extreme coefficients on {count} almost-alternating diagrams ({elapsed:.1f}s)")


def test_criterion_8_mod4_consistency(trefoil, fig8, k12n888_mirror):
    checked = 0
    rng = random.Random(2027)
    diagrams = [trefoil, fig8, k12n888_mirror, mirror(trefoil)]
    for _ in range(400):
        diagrams.append(random_alternating_diagram(rng.randint(1, 10), rng))
    for d in diagrams:
        od = orient(d)
        if od.component_count != 1:
            continue
        try:
            a = DiagramAnalysis(d)
            if not nonalternating_edges(d) and is_reduced(d):
                sig = traczyk_signature(a)
            elif turaev_genus(a) == 1:
                sig = genus_one_knot_signature(a).exact
            else:
                continue
        except Exception:
            continue
        det = determinant(od)
        assert det % 2 == 1 and sig % 2 == 0
        assert giller_mod4_check(sig, det)
        checked += 1
    assert checked >= 40
    print(f"\nPASS: criterion 8 — mod-4 rule holds for all {checked} exact knot signatures")


def test_criterion_9_performance_guard():
    rng = random.Random(2028)
    d16 = random_diagram(16, rng)
    start = time.time()
    kauffman_bracket(d16)
    elapsed = time.time() - start
    assert elapsed < 5.0, elapsed
    # the bracket is bounded by its sweep's width, not by the crossing count
    d25 = random_alternating_diagram(25, rng)
    assert det_from_jones(jones(orient(d25))) == goeritz_determinant(d25)
    with pytest.raises(CrossingLimitError):
        kauffman_bracket(parse_pd(full_twist_pd(9)))
    print(f"\nPASS: criterion 9 — 16-crossing bracket in {elapsed:.2f}s; oversize input aborts cleanly")
