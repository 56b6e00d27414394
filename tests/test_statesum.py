import itertools
import random

import pytest

from knotinv import (
    CrossingLimitError,
    LaurentPoly,
    adequacy,
    determinant,
    goeritz_determinant,
    jones,
    kauffman_bracket,
    mirror,
    orient,
    parse_pd,
    s_A,
    s_B,
    state_graph,
)
from knotinv.sampling import random_alternating_diagram, random_diagram, random_genus_one_diagram
from knotinv.statesum import resolve_loops

from conftest import det_from_jones

# Frozen full state tables: (assignment, resulting loop count).  Assignment
# character i is the smoothing at crossing i; the loop counts were checked
# by tracing the joined edge identifications by hand.
TREFOIL_STATES = [
    ("AAA", 3), ("AAB", 2), ("ABA", 2), ("ABB", 1),
    ("BAA", 2), ("BAB", 1), ("BBA", 1), ("BBB", 2),
]
HOPF_STATES = [("AA", 2), ("AB", 1), ("BA", 1), ("BB", 2)]
FIG8_STATES = [
    ("AAAA", 3), ("AAAB", 2), ("AABA", 2), ("AABB", 3),
    ("ABAA", 2), ("ABAB", 1), ("ABBA", 1), ("ABBB", 2),
    ("BAAA", 2), ("BAAB", 1), ("BABA", 1), ("BABB", 2),
    ("BBAA", 1), ("BBAB", 2), ("BBBA", 2), ("BBBB", 3),
]


def bracket_from_table(table):
    """Independent oracle: sum A^(a-b) * (-A^2 - A^-2)^(loops-1) directly."""
    delta = LaurentPoly("A", {2: -1, -2: -1})
    total = LaurentPoly("A", {})
    for state, loops in table:
        term = LaurentPoly("A", {state.count("A") - state.count("B"): 1})
        for _ in range(loops - 1):
            term = term * delta
        total = total + term
    return total


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


def test_mirror_bracket(trefoil, fig8):
    for d in (trefoil, fig8):
        assert kauffman_bracket(mirror(d)) == kauffman_bracket(d).mirror()


def test_crossing_limit(trefoil):
    with pytest.raises(CrossingLimitError):
        kauffman_bracket(trefoil, max_crossings=2)


def test_crossing_limit_env(trefoil, monkeypatch):
    monkeypatch.setenv("KNOTINV_MAX_CROSSINGS", "2")
    with pytest.raises(CrossingLimitError):
        kauffman_bracket(trefoil)
    monkeypatch.setenv("KNOTINV_MAX_CROSSINGS", "3")
    assert not kauffman_bracket(trefoil).is_zero
