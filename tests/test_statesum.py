import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from knotinv import (
    CrossingLimitError,
    Diagram,
    DiagramError,
    LaurentPoly,
    determinant,
    goeritz_determinant,
    jones,
    kauffman_bracket,
    orient,
    parse_pd,
    s_A,
    s_B,
    serialize_pd,
)
from knotinv.sampling import random_alternating_diagram, random_diagram, random_genus_one_diagram
from knotinv import statesum

from conftest import (
    HOPF_PD,
    TREFOIL_PD,
    FIG8_STATES,
    HOPF_STATES,
    TREFOIL_STATES,
    _add_curl,
    adequacy,
    bareiss_det,
    bracket_from_table,
    bracket_state_sum,
    bracket_sweep_reference,
    det_from_jones,
    fraction_det_signature,
    full_twist_pd,
    mirror,
    nested_det_signatures_reference,
    poly_mirror,
    resolve_loops,
    state_graph,
    sweep_order_reference,
)

@pytest.mark.parametrize(
    "fixture,table",
    [("trefoil", TREFOIL_STATES), ("hopf", HOPF_STATES), ("fig8", FIG8_STATES)],
)
def test_state_tables_match_resolver(fixture, table, request):
    d = request.getfixturevalue(fixture)
    for state, loops in table:
        assert resolve_loops(d, tuple(state)) == loops
    assert len(table) == 2 ** d.crossing_count


def test_bracket_oracle_trefoil(trefoil):
    oracle = bracket_from_table(TREFOIL_STATES)
    assert kauffman_bracket(trefoil) == oracle
    # -A^5 - A^-3 + A^-7 up to the global A <-> A^-1 chirality choice
    assert oracle == LaurentPoly("A", {-5: -1, 3: -1, 7: 1})


def test_bracket_oracle_hopf(hopf):
    oracle = bracket_from_table(HOPF_STATES)
    assert kauffman_bracket(hopf) == oracle
    assert oracle == LaurentPoly("A", {4: -1, -4: -1})


def test_bracket_oracle_fig8(fig8):
    oracle = bracket_from_table(FIG8_STATES)
    assert kauffman_bracket(fig8) == oracle


def test_jones_fig8(fig8):
    # t^-2 - t^-1 + 1 - t + t^2 (exponents stored in half-powers of t)
    assert jones(orient(fig8)) == LaurentPoly(
        "t_half", {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1}
    )


def test_jones_trefoil(trefoil):
    assert jones(orient(trefoil)) == LaurentPoly("t_half", {-2: 1, -6: 1, -8: -1})


def test_unknot():
    d = parse_pd("")
    assert kauffman_bracket(d) == LaurentPoly("A", {0: 1})
    assert determinant(orient(d)) == 1


def test_state_counts(trefoil, fig8, hopf):
    assert (s_A(trefoil), s_B(trefoil)) == (3, 2)
    assert (s_A(fig8), s_B(fig8)) == (3, 3)
    assert (s_A(hopf), s_B(hopf)) == (2, 2)


def test_state_graph_trefoil(trefoil):
    ga = state_graph(trefoil, "A")
    gb = state_graph(trefoil, "B")
    assert (ga.vertex_count, len(ga.edges), ga.reduced_edge_count) == (3, 3, 3)
    assert (gb.vertex_count, len(gb.edges), gb.reduced_edge_count) == (2, 3, 1)
    with pytest.raises(ValueError, match="^state must be 'A' or 'B'$"):
        state_graph(trefoil, "C")


def test_adequacy(trefoil, aa_trefoil):
    assert adequacy(trefoil) == {"a_adequate": True, "b_adequate": True}
    # the flipped crossing creates a state loop on one side
    assert adequacy(aa_trefoil)["a_adequate"] is False


def test_determinants(trefoil, fig8, hopf):
    assert determinant(orient(trefoil)) == 3
    assert determinant(orient(fig8)) == 5
    assert determinant(orient(hopf)) == 2


def _determinant_corpus():
    """Seeded alternating, genus-one (k = 1-2) and random diagrams of at
    most 12 crossings."""
    rng = random.Random(120)
    for _ in range(20):
        yield random_alternating_diagram(rng.randint(1, 12), rng)
        k = rng.choice((1, 2))
        yield random_genus_one_diagram(k, rng, [rng.randint(1, 3) for _ in range(2 * k)])
        yield random_diagram(rng.randint(1, 12), rng)


def test_goeritz_agrees(trefoil, fig8, hopf, aa_trefoil, k12n888_mirror):
    fixed = (trefoil, fig8, hopf, aa_trefoil, k12n888_mirror)
    for d in itertools.chain(fixed, _determinant_corpus()):
        od = orient(d)
        assert determinant(od) == goeritz_determinant(d) == det_from_jones(jones(od))


def _symmetric_matrices(rng: random.Random, count: int):
    """Seeded random symmetric integer matrices of sizes 0-8: every third
    one with an all-zero diagonal, every fifth one singular (its last row
    and column copy its first), about a third of the entries zero."""
    for i in range(count):
        n = rng.randint(0, 8)
        m = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                m[r][c] = m[c][r] = rng.randint(-3, 3) if rng.random() < 0.7 else 0
        if i % 3 == 0:
            for r in range(n):
                m[r][r] = 0
        if i % 5 == 0 and n > 1:
            m[-1] = m[0][:]
            for row in m:
                row[-1] = row[0]
        yield m


def _behind_ground(m, k):
    """The matrix that ``_nested_det_signatures``, which deletes its first
    row and column, reads as ``m`` with its first ``k`` deleted: ``m``
    trimmed by k - 1, or for k = 0 behind a row and column of zeros."""
    if k:
        return [r[k - 1:] for r in m[k - 1:]]
    return [[0] * (len(m) + 1)] + [[0, *r] for r in m]


def test_det_signature_matches_references():
    """One elimination's (det, signature) against Bareiss and against exact
    rational diagonalisation, on 3000 seeded symmetric matrices."""
    singular = zero_diagonal = 0
    for m in _symmetric_matrices(random.Random(3000), 3000):
        got = statesum._nested_det_signatures(_behind_ground(m, 0), 0)[1]
        assert got == fraction_det_signature(m), m
        assert got[0] == bareiss_det(m), m
        singular += got[0] == 0
        zero_diagonal += len(m) > 1 and not any(m[i][i] for i in range(len(m)))
        if m:
            assert statesum._nested_det_signatures(m, 0) == statesum._nested_det_signatures(
                _behind_ground([r[1:] for r in m[1:]], 0), 0
            )
    assert singular > 300 and zero_diagonal > 800


def test_nested_det_signatures_match_reference():
    """One elimination's (det, signature) of a matrix and of its leading
    block without the last row and column, the pair each genus-one tangle
    needs: the block's against exact rational diagonalisation, the whole's
    against the plain elimination, which the test above checks on the same
    matrices."""
    singular_lead = zero_diagonal = 0
    for m in _symmetric_matrices(random.Random(3000), 3000):
        if not m:
            continue
        g = _behind_ground(m, 0)
        lead, whole = statesum._nested_det_signatures(g, len(m) - 1)
        assert whole == statesum._nested_det_signatures(g, 0)[1], m
        assert lead == fraction_det_signature([r[:-1] for r in m[:-1]]), m
        singular_lead += lead[0] == 0
        zero_diagonal += len(m) > 1 and not any(m[i][i] for i in range(len(m)))
    assert singular_lead > 500 and zero_diagonal > 800


@st.composite
def _singular_symmetric(draw):
    """A symmetric integer matrix of order 0-12, mostly zeros and small
    entries, with a zero diagonal or a row and column copied onto a later
    one (so every leading block holding both is singular), or both."""
    n = draw(st.integers(0, 12))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    upper = iter(draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(upper)
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n > 1 and draw(st.booleans()):
        src = draw(st.integers(0, n - 2))
        dst = draw(st.integers(src + 1, n - 1))
        m[dst] = m[src][:]
        for row in m:
            row[dst] = row[src]
    return m


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(m=_singular_symmetric())
def test_in_place_elimination_matches_reference(m):
    """The in-place elimination against the old one that rebuilt each row,
    on ``m`` with its first k <= 2 rows and columns deleted and every lead
    <= n - k, and it leaves its argument as it was."""
    for k in range(min(2, len(m)) + 1):
        g = _behind_ground(m, k)
        before = copy.deepcopy(g)
        for lead in range(len(m) - k + 1):
            got = statesum._nested_det_signatures(g, lead)
            assert g == before
            assert got == nested_det_signatures_reference(m, k, lead), (k, lead)


def _bracket_corpus():
    """Seeded diagrams of at most 12 crossings, with the edge cases of the
    sweep: several components, the 0-crossing unknot and kinks."""
    rng = random.Random(4)
    for _ in range(20):
        yield random_diagram(rng.randint(1, 12), rng)
        yield random_alternating_diagram(rng.randint(1, 12), rng)
        k = rng.choice((1, 2))
        yield random_genus_one_diagram(k, rng, [rng.randint(1, 3) for _ in range(2 * k)])
    yield parse_pd(HOPF_PD)
    while True:
        d = random_diagram(rng.randint(4, 12), rng)
        if orient(d).component_count == 2:
            yield d
            break
    yield parse_pd("")
    # a kinked trefoil: label 8 twice at the last crossing
    yield parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,7,3] X[7,6,8,8]")
    yield parse_pd("X[1,2,2,1]")


def test_bracket_sweep_matches_state_sum():
    """On the corpus, and on every order of its crossings; the split
    diagrams a free loop makes beside crossings or another free loop are
    refused when built, so they have no bracket."""
    for pd, message in ((TREFOIL_PD + " U", "free loops alongside crossings"),
                        ("U U", "expected exactly one free loop with no crossings")):
        with pytest.raises(DiagramError, match=f"^split diagram: {message}$"):
            parse_pd(pd)
    rng = random.Random(5)
    for d in _bracket_corpus():
        expected = bracket_state_sum(d)
        assert kauffman_bracket(d) == expected
        # the sweep order follows the crossing order; the bracket does not
        shuffled = list(d.crossings)
        rng.shuffle(shuffled)
        assert kauffman_bracket(Diagram(tuple(shuffled))) == expected


def test_bracket_full_size_cross_check():
    """At 20-24 crossings, where the state sum is out of reach, check the
    sweep against the Goeritz determinant and the mirror symmetry."""
    rng = random.Random(24)
    corpus = [random_alternating_diagram(24, rng) for _ in range(5)]
    while len(corpus) < 10:
        k = rng.choice((1, 2, 3))
        d = random_genus_one_diagram(k, rng, [rng.randint(2, 5) for _ in range(2 * k)])
        if 20 <= d.crossing_count <= 24:
            corpus.append(d)
    for d in corpus:
        assert det_from_jones(jones(orient(d))) == goeritz_determinant(d)
        assert kauffman_bracket(mirror(d)) == poly_mirror(kauffman_bracket(d))


def test_mirror_bracket(trefoil, fig8):
    for d in (trefoil, fig8):
        assert kauffman_bracket(mirror(d)) == poly_mirror(kauffman_bracket(d))


def test_sweep_width_bound_admits():
    """The closed full twist on n strands holds 2n open ends: up to 8
    strands (56 crossings, 16 ends) the bracket is answered."""
    for n in range(2, 9):
        d = parse_pd(full_twist_pd(n))
        v = jones(orient(d))
        # V(1) = (-2)^(components - 1) and |V(-1)| = det for a link of n components
        assert sum(v.coeffs.values()) == (-2) ** (n - 1), n
        assert det_from_jones(v) == goeritz_determinant(d), n


def test_sweep_width_bound_refuses(monkeypatch):
    """On 9 strands (72 crossings, 18 ends) the bracket is refused before
    any state is expanded."""
    d9 = parse_pd(full_twist_pd(9))
    sweep_order = statesum._sweep_order
    probed = []

    class Unswept:
        """The sweep order, which no state is expanded without reading."""

        def __iter__(self):
            raise AssertionError("a state was expanded")

    def order_probe(d):
        _, width = sweep_order(d)
        probed.append(width)
        return Unswept(), width

    monkeypatch.setattr(statesum, "_sweep_order", order_probe)
    with pytest.raises(CrossingLimitError, match="frontier of 18 open ends exceeds the bound of 16"):
        kauffman_bracket(d9)
    assert probed == [18]


def test_packed_sweep_matches_reference_genus_one():
    """Label-indexed matchings and packed polynomials against the dict
    sweep they replaced, on 12 seeded genus-one diagrams of 20-60
    crossings."""
    rng = random.Random(11)
    for i in range(12):
        k = 1 + i % 4
        c = rng.randint(20, 60)
        d = random_genus_one_diagram(k, rng, [c // (2 * k) + (t < c % (2 * k)) for t in range(2 * k)])
        assert 20 <= d.crossing_count <= 60
        assert kauffman_bracket(d) == bracket_sweep_reference(d), i


def test_packed_sweep_matches_reference_full_twists():
    """The widest sweeps the bound admits: full twists on 2-8 strands."""
    for n in range(2, 9):
        d = parse_pd(full_twist_pd(n))
        assert kauffman_bracket(d) == bracket_sweep_reference(d), n


def test_packed_sweep_matches_reference_curls(trefoil):
    """30 curls: each closes a loop at its own crossing and stretches the
    exponent range the offset must cover."""
    rng = random.Random(30)
    d = trefoil
    for _ in range(30):
        d = _add_curl(d, rng)
    assert kauffman_bracket(d) == bracket_sweep_reference(d)


def test_empty_diagram_is_the_unknot():
    """No crossing is the 0-crossing unknot, one free loop: the state sum's
    one state has that loop to divide delta out of."""
    d = Diagram(())
    assert d == parse_pd("") == parse_pd("U") and d.free_loops == 1
    assert kauffman_bracket(d) == LaurentPoly("A", {0: 1}) == bracket_state_sum(d)
    assert s_A(d) == s_B(d) == 1 and orient(d).component_count == 1
    assert serialize_pd(d) == "U"


def test_s_A_s_B_match_resolve_loops():
    """The orbit counts of a -> mate[a ^ 1] and a -> mate[a ^ 3] are the
    loop counts of the all-A and all-B states."""
    for d in _bracket_corpus():
        c = d.crossing_count
        assert s_A(d) == resolve_loops(d, ("A",) * c)
        assert s_B(d) == resolve_loops(d, ("B",) * c)


def test_sweep_order_matches_reference():
    """The per-crossing open-end counts give the greedy's order and width:
    on seeded diagrams, reordered, and on full twists of 2-9 strands."""
    rng = random.Random(6)
    corpus = list(_bracket_corpus())
    corpus += [random_genus_one_diagram(k, rng, [rng.randint(2, 8) for _ in range(2 * k)])
               for k in (1, 2, 3, 4) for _ in range(3)]
    corpus += [parse_pd(full_twist_pd(n)) for n in range(2, 10)]
    for d in corpus:
        shuffled = list(d.crossings)
        rng.shuffle(shuffled)
        for g in (d, Diagram(tuple(shuffled))):
            assert statesum._sweep_order(g) == sweep_order_reference(g)
