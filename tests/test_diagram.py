import inspect
import random
import re

import pytest
from hypothesis import given, strategies as st

from knotinv import (
    Diagram,
    DiagramAnalysis,
    DiagramError,
    OrientedDiagram,
    PDSyntaxError,
    closures,
    crossing_signs,
    orient,
    parse_pd,
    recognize_genus_one,
    serialize_pd,
    validate,
)
from knotinv.diagram import rejoin
from knotinv.sampling import (
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
    random_genus_one_diagram,
)

from conftest import (
    AA_TREFOIL_PD,
    FIG8_PD,
    HOPF_PD,
    TREFOIL_PD,
    UnionFind,
    _add_curl,
    _count_calls,
    faces_reference,
    mirror,
)


def test_parse_round_trip():
    d = parse_pd(TREFOIL_PD)
    assert serialize_pd(d) == TREFOIL_PD
    assert parse_pd(serialize_pd(d)) == d


def test_parse_alternate_syntax():
    assert parse_pd("X(1,3,2,4) X(3,1,4,2)") == parse_pd(HOPF_PD)
    assert parse_pd("[1,3,2,4] [3,1,4,2]") == parse_pd(HOPF_PD)


def test_parse_unknot():
    d = parse_pd("")
    assert d.crossing_count == 0 and d.free_loops == 1
    assert parse_pd("U") == d


def test_parse_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("X[1,2,3]")
    with pytest.raises(PDSyntaxError):
        parse_pd("X[1,2,3,four]")
    with pytest.raises(PDSyntaxError):
        parse_pd("garbage")


@pytest.mark.parametrize(
    "token, message",
    [
        ("X[1,,5,2,4]", "malformed token 'X[1,,5,2,4]' (arity 5)"),
        ("X[1,5,2,4,]", "malformed token 'X[1,5,2,4,]' (arity 5)"),
        ("X[+1,5,2,4]", "non-integer label in token 'X[+1,5,2,4]'"),
        ("X[0_2,5,2,4]", "non-integer label in token 'X[0_2,5,2,4]'"),
        ("X[\u0661,5,2,4]", "non-integer label in token 'X[\u0661,5,2,4]'"),
        ("X[1,5,2,4)", "malformed token 'X[1,5,2,4)'"),
        ("(1,5,2,4]", "malformed token '(1,5,2,4]'"),
        ("X[]", "malformed token 'X[]' (arity 0)"),
    ],
    ids=["empty-field", "trailing-comma", "plus-sign", "underscore", "arabic-indic", "bracket-paren",
         "paren-bracket", "empty"],
)
def test_parse_rejects_malformed_token(token, message):
    """A token is a crossing only when it has four optionally negative
    ASCII integers in matching brackets; Python's int() alone took more."""
    with pytest.raises(PDSyntaxError) as exc:
        parse_pd(f"X[1,4,2,5] X[3,6,4,1] {token}")
    assert str(exc.value) == message


def test_parse_overlong_label_is_a_syntax_error(int_digit_limit):
    """A label with more digits than ``int`` converts is a PDSyntaxError
    naming its token, not a bare ValueError."""
    label = "1" * (int_digit_limit + 1)
    with pytest.raises(PDSyntaxError) as exc:
        parse_pd(f"X[1,4,2,5] X[3,{label},4,1]")
    assert str(exc.value) == "label too long to convert in token 'X[3,111111111111'..."


def test_parse_negative_label_reaches_range_check():
    with pytest.raises(DiagramError) as exc:
        parse_pd("X[-1,2,2,1]")
    assert str(exc.value) == "edge label -1 out of range 1..2"


def test_edge_labels_twice_each():
    with pytest.raises(DiagramError):
        parse_pd("X[1,1,1,2]")
    with pytest.raises(DiagramError):
        parse_pd("X[1,2,3,4] X[1,2,3,5]")


def test_face_structure_is_kept_and_not_a_field():
    """A diagram keeps the face structure ``validate`` gave it when it was
    built, as a plain attribute, yet equals, hashes and prints like a fresh
    diagram of its crossings; an invalid diagram is refused when built."""
    d = parse_pd(TREFOIL_PD)
    assert vars(d)["fs"] == validate(d) and not hasattr(Diagram, "fs")
    fresh = Diagram(d.crossings)
    assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
    assert "fs" not in inspect.signature(Diagram).parameters
    with pytest.raises(TypeError):
        Diagram(d.crossings, fs=d.fs)
    with pytest.raises(DiagramError, match="split diagram: free loops alongside crossings"):
        parse_pd("X[1,3,2,4] X[3,1,4,2] U")


def test_split_diagram_rejected():
    # two disjoint Hopf-like components
    with pytest.raises(DiagramError):
        validate(parse_pd("X[1,3,2,4] X[3,1,4,2] X[5,7,6,8] X[7,5,8,6]"))
    with pytest.raises(DiagramError):
        validate(parse_pd("X[1,3,2,4] X[3,1,4,2] U"))


@pytest.mark.parametrize(
    "pd, message",
    [
        ("U U", "split diagram: expected exactly one free loop with no crossings"),
        ("X[1,3,2,4] X[3,1,4,2] U", "split diagram: free loops alongside crossings"),
        ("X[1,3,2,4] X[3,1,4,2] X[5,7,6,8] X[7,5,8,6]",
         "split diagram: crossing graph is disconnected"),
        ("X[1,2,1,2]", "not planar: Euler characteristic 0 != 2"),
        ("X[1,3,2,4] X[1,3,2,4]", "not planar: Euler characteristic 0 != 2"),
        ("X[1,2,3,4] X[3,4,1,2]", "not planar: Euler characteristic 0 != 2"),
    ],
    ids=["free-loops", "loop-with-crossings", "disconnected", "non-planar-1", "non-planar-2",
         "non-planar-3"],
)
def test_validate_messages(pd, message, monkeypatch):
    """A diagram validates itself when it is built, so ``parse_pd`` and
    ``Diagram`` refuse an invalid one with the message ``validate`` gives,
    and no analysis or sweep of it can start: X[1,2,3,4] X[3,4,1,2] has
    well-paired labels and, swept, a bracket.  A free loop is a ``U``
    token, which ``parse_pd`` refuses beside crossings or beside another
    one before it builds the diagram."""
    validations = _count_calls(monkeypatch, validate)
    builds = [lambda: parse_pd(pd)]
    if "U" not in pd:
        crossings = tuple(tuple(map(int, re.findall(r"[0-9]+", t))) for t in pd.split())
        builds.append(lambda: Diagram(crossings))
    for build in builds:
        with pytest.raises(DiagramError) as exc:
            build()
        assert str(exc.value) == message
    assert len(validations) == (0 if "U" in pd else 2)


def test_label_messages():
    """c crossings take the labels 1..2c, each at two of the 4c slots, and
    each crossing is a sequence of four."""
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 2, 3, 4), (1, 2, 3, 5)))
    assert str(exc.value) == "edge label 5 out of range 1..4"
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 2, 3, 4), (1, 2, 4, 4)))
    assert str(exc.value) == "edge 3 appears 1 times, expected 2"
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 1, 1, 2), (2, 3, 3, 4)))
    assert str(exc.value) == "edge 1 appears 3 times, expected 2"
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 1, 2, 2), (4, 4, 4, 4)))
    assert str(exc.value) == "edge 3 appears 0 times, expected 2"
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 1, 2, 2), (3, 3, 4, 7)))
    assert str(exc.value) == "edge label 7 out of range 1..4"
    for bad in (1.0, True):
        with pytest.raises(DiagramError) as exc:
            Diagram(((bad, 1, 2, 2),))
        assert str(exc.value) == f"edge label {bad!r} is not an int"
    with pytest.raises(DiagramError) as exc:
        Diagram([1, 2])
    assert str(exc.value) == "crossing needs 4 ends, got 1"
    # an iterator is read once, so its faults are the same list's
    for crossings in ([(1, 2, 3, 4), 5], [(1, 2, 2, 1), (1, 2)]):
        with pytest.raises(DiagramError) as exc:
            Diagram(iter(crossings))
        assert str(exc.value) == f"crossing needs 4 ends, got {crossings[1]!r}"
    for bad in (None, 5):
        with pytest.raises(DiagramError) as exc:
            Diagram(bad)
        assert str(exc.value) == f"crossings must be a sequence of crossings, got {bad}"


def test_crossings_are_tuples():
    """Crossings given as lists, as a PD code loaded from JSON is, make the
    same diagram as tuples: equal, with one hash and one repr."""
    lists = Diagram([[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]])
    tuples = Diagram(((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)))
    assert lists == tuples and hash(lists) == hash(tuples) and repr(lists) == repr(tuples)


def test_crossing_needs_four_ends():
    """A crossing of 3 or 5 labels is refused, even where the labels alone
    would each be used twice."""
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 1, 2), (2, 3, 3, 4)))
    assert str(exc.value) == "crossing needs 4 ends, got (1, 1, 2)"
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 2, 3), (1, 2, 3, 4, 4)))
    assert str(exc.value) == "crossing needs 4 ends, got (1, 2, 3)"
    with pytest.raises(DiagramError) as exc:
        Diagram(((1, 1, 2, 2, 3), (3, 4, 4)))
    assert str(exc.value) == "crossing needs 4 ends, got (1, 1, 2, 2, 3)"


def _dart_corpus():
    """Seeded valid diagrams, with kinks and loop edges (both ends of an
    edge at one crossing)."""
    rng = random.Random(7)
    for i in range(60):
        make = (random_diagram, random_alternating_diagram)[i % 2]
        d = make(rng.randint(1, 14), rng)
        yield d
        for _ in range(rng.randint(1, 3)):
            d = _add_curl(d, rng)
        yield d
    for _ in range(10):
        k = rng.choice((1, 2, 3))
        yield random_genus_one_diagram(k, rng, [rng.randint(1, 4) for _ in range(2 * k)])
    for pd in ("X[1,1,2,2]", "X[1,2,2,1]", "X[1,4,2,5] X[3,6,4,1] X[5,2,7,3] X[7,6,8,8]"):
        yield parse_pd(pd)


def test_mate_table():
    """mate pairs the two darts of every edge; it is no field of the diagram."""
    for d in _dart_corpus():
        labels = [e for x in d.crossings for e in x]
        assert sorted(d.mate) == list(range(4 * d.crossing_count))
        for a, b in enumerate(d.mate):
            assert a != b and d.mate[b] == a and labels[a] == labels[b]
    d = parse_pd(TREFOIL_PD)
    assert "mate" not in repr(d)
    assert d == Diagram(d.crossings)


def test_faces_match_reference():
    """The faces and colours validate reads off the dart table are those of
    the corner tracer it replaced."""
    for d in _dart_corpus():
        fs = validate(d)
        faces, colours = faces_reference(d)
        assert fs.faces == tuple(tuple(4 * ci + s for ci, s in f) for f in faces)
        assert list(fs.checkerboard_color) == colours
        assert len(fs.face_of) == 4 * d.crossing_count
        assert all(fs.face_of[a] == fi for fi, f in enumerate(fs.faces) for a in f)


def test_faces_euler(trefoil, fig8, hopf):
    assert len(validate(trefoil).faces) == 5
    assert len(validate(fig8).faces) == 6
    assert len(validate(hopf).faces) == 4


def test_checkerboard_proper(trefoil, aa_trefoil):
    for d in (trefoil, aa_trefoil):
        fs = validate(d)
        sides: dict[int, list[int]] = {e: [] for e in range(1, d.edge_count + 1)}
        for fi, face in enumerate(fs.faces):
            for a in face:
                ci, s = divmod(a, 4)
                sides[d.crossings[ci][(s + 1) % 4]].append(fi)
        for f1, f2 in sides.values():
            assert fs.checkerboard_color[f1] != fs.checkerboard_color[f2]


def test_orientation_two_in_two_out():
    """On seeded diagrams from all four samplers, every edge has one head and
    one tail, and each strand through a crossing one end in and one out.
    The components are the strand cycles: half the cycles of
    ``a -> mate[a ^ 2]``, one for each direction, and as many as the classes
    of labels joined across each crossing.  The lowest label of each
    component flows into its second end."""
    rng = random.Random(71)
    diagrams = [parse_pd(pd) for pd in (TREFOIL_PD, FIG8_PD, HOPF_PD)]
    for i in range(30):
        diagrams.append(random_diagram(rng.randint(1, 16), rng))
        diagrams.append(random_alternating_diagram(rng.randint(1, 16), rng))
        diagrams.append(random_genus_one_diagram(1 + i % 3, rng))
        diagrams.append(random_almost_alternating_diagram(rng.randint(6, 16), rng)[0])
    for d in diagrams:
        od = orient(d)
        into, mate, labels = od.into, d.mate, d.labels
        assert len(into) == len(mate) and set(into) <= {0, 1}
        assert all(into[a] != into[mate[a]] and into[a] != into[a ^ 2] for a in range(len(mate)))
        seen, cycles = set(), 0
        for first in range(len(mate)):
            if first not in seen:
                cycles += 1
                a = first
                while a not in seen:
                    seen.add(a)
                    a = mate[a ^ 2]
        assert cycles == 2 * od.component_count
        uf = UnionFind(d.edge_count + 1)
        for x in d.crossings:
            uf.union(x[0], x[2])
            uf.union(x[1], x[3])
        assert uf.classes - 1 == od.component_count
        lowest = {}
        for e in range(1, d.edge_count + 1):
            lowest.setdefault(uf.find(e), e)
        for e in lowest.values():
            assert into[max(a for a in range(len(mate)) if labels[a] == e)] == 1


def test_reversed_orientation_keeps_the_components(trefoil, hopf):
    """Every bit of the default orientation flipped is still one head per
    edge and one end in per strand through each crossing, and walks the
    same components."""
    for d in (trefoil, hopf):
        od = orient(d)
        flipped = OrientedDiagram(d, tuple(1 - b for b in od.into), od.component_count)
        into, mate = flipped.into, d.mate
        assert all(into[a] != into[mate[a]] and into[a] != into[a ^ 2] for a in range(len(mate)))
        seen, strands = set(), 0
        for first in range(len(mate)):
            if into[first] and first not in seen:
                strands += 1
                a = first
                while a not in seen:
                    seen.add(a)
                    a = mate[a ^ 2]
        assert strands == flipped.component_count == orient(d).component_count
        assert crossing_signs(flipped) == crossing_signs(od)


def test_component_counts(trefoil, hopf):
    assert orient(trefoil).component_count == 1
    assert orient(hopf).component_count == 2


def test_signs_trefoil(trefoil):
    signs, c_plus, c_minus, writhe = crossing_signs(orient(trefoil))
    assert signs == (-1, -1, -1)
    assert (c_plus, c_minus, writhe) == (0, 3, -3)


def test_mirror_involution(trefoil, fig8):
    # double mirror gives back each crossing up to a two-slot rotation,
    # which is the same unoriented crossing
    for d in (trefoil, fig8):
        mm = mirror(mirror(d))
        for x, y in zip(mm.crossings, d.crossings):
            assert x in (y, y[2:] + y[:2])


def test_mirror_flips_signs(trefoil):
    _, c_plus, c_minus, writhe = crossing_signs(orient(mirror(trefoil)))
    assert (c_plus, c_minus, writhe) == (3, 0, 3)


@given(st.permutations(list(range(1, 7))))
def test_relabel_invariance(perm):
    # relabeling edges keeps the trefoil valid with the same face count
    d = parse_pd(TREFOIL_PD)
    sub = {old: new for old, new in zip(range(1, 7), perm)}
    relabeled = Diagram(tuple(tuple(sub[e] for e in x) for x in d.crossings))
    assert len(validate(relabeled).faces) == 5


def test_rejoin_free_loops():
    """A closed walk through dropped darts alone is a free loop: the curl
    X[1,1,2,2] dropped, its darts rejoined by the B-smoothing (a ^ 3), is
    one circle, the unknot, and by the A-smoothing (a ^ 1) two, a split
    diagram that ``rejoin`` refuses, as it refuses a free loop beside
    crossings: the kink X[7,6,8,8] smoothed along its loop edge 8."""
    curl = parse_pd("X[1,1,2,2]")
    assert rejoin(curl, (), {a: a ^ 3 for a in range(4)}) == Diagram(())
    with pytest.raises(DiagramError) as exc:
        rejoin(curl, (), {a: a ^ 1 for a in range(4)})
    assert str(exc.value) == "split diagram: expected exactly one free loop with no crossings"
    kinked = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,7,3] X[7,6,8,8]")
    assert rejoin(kinked, (0, 1, 2), {a: a ^ 3 for a in range(12, 16)}).crossing_count == 3
    with pytest.raises(DiagramError) as exc:
        rejoin(kinked, (0, 1, 2), {a: a ^ 1 for a in range(12, 16)})
    assert str(exc.value) == "split diagram: free loops alongside crossings"
    # a kept crossing keeps its darts; edges are numbered in dart order
    two = parse_pd("X[1,2,3,4] X[4,3,2,1]")
    assert rejoin(two, (1,), {a: a ^ 1 for a in range(4)}) == Diagram(((1, 1, 2, 2),))
    # a tangle's closures, rejoined past the other tangle, take none of its
    # darts as loops
    aa = parse_pd(AA_TREFOIL_PD)
    for t in recognize_genus_one(DiagramAnalysis(aa)).tangles:
        for c in closures(t, aa):
            assert c.free_loops == 0
