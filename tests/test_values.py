"""The eleven value classes: nine NamedTuples, and ``Diagram`` and
``LaurentPoly``, which derive from ``frozen.Frozen``.

Each is exactly its fields: it builds the same value from positional and
from keyword arguments (a keyword-only field, such as ``Diagram``'s
``free_loops``, by keyword in both), fills its defaults, refuses
assignment and deletion, survives copy and pickle, and prints every field
in its repr.  The repr strings were captured from the frozen dataclasses
these classes once were, apart from ``GenusOneStructure``'s, which now
shows ``forms``, and ``Diagram``'s, which no longer shows an edge count.
"""

import copy
import inspect
import pickle

import pytest

from knotinv import (
    AltDecomposition,
    Diagram,
    DiagramError,
    FaceStructure,
    GenusOneStructure,
    LaurentPoly,
    ObstructionVerdict,
    OrientedDiagram,
    SignatureReport,
    StateGraph,
    Tangle,
)
from knotinv.analysis import DiagramAnalysis
from knotinv.decomp import ArcRuns
from knotinv.frozen import Frozen

D = Diagram(((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)))
D_REPR = "Diagram(crossings=((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)), free_loops=0)"
TANGLE = Tangle((0, 2), (1, 4, 9, 6), True)
TANGLE_REPR = "Tangle(crossing_indices=(0, 2), boundary=(1, 4, 9, 6), proper=True)"
FORMS = (((3, 1), (1, 0), (1, -1)),)

# class, its fields and one value for each, the defaults, the repr
CASES = [
    (Diagram, {"crossings": D.crossings, "free_loops": 0}, {"free_loops": 0}, D_REPR),
    (
        FaceStructure,
        {"faces": ((0, 5), (1, 2)), "checkerboard_color": (0, 1), "face_of": [0, 1, 1, 0]},
        {"face_of": []},
        "FaceStructure(faces=((0, 5), (1, 2)), checkerboard_color=(0, 1))",
    ),
    (
        OrientedDiagram,
        {"diagram": D, "into": (1, 0) * 6, "component_count": 1},
        {"into": (), "component_count": 1},
        f"OrientedDiagram(diagram={D_REPR}, component_count=1)",
    ),
    (
        LaurentPoly,
        {"variable": "t_half", "coeffs": {-2: 1, 4: -3}},
        {"coeffs": {}},
        "LaurentPoly(variable='t_half', coeffs={-2: 1, 4: -3})",
    ),
    (
        StateGraph,
        {"vertex_count": 2, "edges": ((0, 1), (1, 1))},
        {},
        "StateGraph(vertex_count=2, edges=((0, 1), (1, 1)))",
    ),
    (
        Tangle,
        {"crossing_indices": (0, 2), "boundary": (1, 4, 9, 6), "proper": True},
        {},
        TANGLE_REPR,
    ),
    (
        ArcRuns,
        {"run": [0, -1, 1], "arcs": [(1, 4, 0), (9, 6, 2)], "interior": [1]},
        {},
        "ArcRuns(run=[0, -1, 1], arcs=[(1, 4, 0), (9, 6, 2)], interior=[1])",
    ),
    (
        AltDecomposition,
        {
            "nonalternating": frozenset({2, 5}),
            "curves": ((1, 4), (9, 6)),
            "tangles": (TANGLE,),
        },
        {},
        "AltDecomposition(nonalternating=frozenset({2, 5}), curves=((1, 4), (9, 6)),"
        f" tangles=({TANGLE_REPR},))",
    ),
    (
        GenusOneStructure,
        {"tangles": (TANGLE,), "forms": FORMS},
        {},
        f"GenusOneStructure(tangles=({TANGLE_REPR},), forms=(((3, 1), (1, 0), (1, -1)),))",
    ),
    (
        SignatureReport,
        {"lower": -2, "upper": -2, "exact": -2, "method": "traczyk"},
        {"exact": None, "method": None},
        "SignatureReport(lower=-2, upper=-2, exact=-2, method='traczyk')",
    ),
    (
        ObstructionVerdict,
        {"a_m": 1, "a_M": -1, "fires": True, "implied": ("not alternating", "Turaev genus >= 2")},
        {},
        "ObstructionVerdict(a_m=1, a_M=-1, fires=True, implied=('not alternating', 'Turaev genus >= 2'))",
    ),
]
NAMED_TUPLES = {
    FaceStructure, OrientedDiagram, StateGraph, Tangle, ArcRuns, AltDecomposition,
    GenusOneStructure, SignatureReport, ObstructionVerdict,
}
UNHASHABLE = {FaceStructure, LaurentPoly, ArcRuns}  # a list or dict among the compared fields


@pytest.mark.parametrize("cls, values, defaults, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_contract(cls, values, defaults, text):
    kinds = {name: p.kind for name, p in inspect.signature(cls).parameters.items()}
    named = {name: v for name, v in values.items() if kinds[name] is inspect.Parameter.KEYWORD_ONLY}
    args = tuple(v for name, v in values.items() if name not in named)
    by_position, by_keyword = cls(*args, **named), cls(**values)
    assert by_position == by_keyword and repr(by_position) == repr(by_keyword) == text
    assert {name: getattr(by_position, name) for name in values} == values
    if cls in NAMED_TUPLES:
        assert tuple(by_position) == args
    short = cls(*args[:len(values) - len(defaults)])
    assert {name: getattr(short, name) for name in defaults} == defaults
    for name in (*values, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    assert {name: getattr(by_position, name) for name in values} == values
    clones = copy.copy(by_position), copy.deepcopy(by_position), pickle.loads(pickle.dumps(by_position))
    for clone in clones:
        assert clone.__class__ is cls and repr(clone) == text
        assert {name: getattr(clone, name) for name in values} == values
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)



def test_diagram_is_its_crossings_and_free_loops():
    """``free_loops`` is keyword-only, so a leftover edge count passed
    positionally is refused rather than read as free loops; the edge count
    is read off the crossings, and a polynomial's terms come in one order,
    which no argument picks."""
    params = inspect.signature(Diagram).parameters
    assert list(params) == ["crossings", "free_loops"]
    assert list(inspect.signature(LaurentPoly.terms).parameters) == ["self"]
    assert params["free_loops"].kind is inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(TypeError):
        Diagram(D.crossings, 6)
    assert D.edge_count == 6
    with pytest.raises(AttributeError):
        D.edge_count = 6
    loops = Diagram(D.crossings, free_loops=2)
    for clone in copy.copy(loops), copy.deepcopy(loops), pickle.loads(pickle.dumps(loops)):
        assert clone == loops and clone.free_loops == 2 and repr(clone) == repr(loops)
        assert clone.mate == loops.mate


def test_free_loops_is_a_count():
    """A free-loop count that is not an int of at least 0, a bool among
    them, is refused when the diagram is built: with -1 the bracket's delta
    factors once cancelled to the trefoil's own bracket."""
    for bad in (-1, -5, True, 1.0):
        with pytest.raises(DiagramError, match="^free_loops must be a non-negative int, got "):
            Diagram(D.crossings, free_loops=bad)
    assert [Diagram(D.crossings, free_loops=n).free_loops for n in (0, 2)] == [0, 2]


def test_value_classes_are_named_tuples_or_frozen():
    """Nine NamedTuples, and two plain classes deriving from ``Frozen``."""
    for cls, *_ in CASES:
        assert issubclass(cls, tuple) == (cls in NAMED_TUPLES)
    assert [cls for cls, *_ in CASES if cls not in NAMED_TUPLES] == [Diagram, LaurentPoly]
    assert all(issubclass(cls, Frozen) for cls in (Diagram, LaurentPoly))


def test_recognized_values_hash(k12n888_mirror):
    """What recognition builds hashes with every field, the eta tuples of
    ``forms`` included, and equals a copy built from its fields."""
    a = DiagramAnalysis(k12n888_mirror)
    for value in (a.decomposition, a.genus_one):
        copy_ = value.__class__(*value)
        assert value == copy_ and hash(value) == hash(copy_)
