"""The ten value classes: eight NamedTuples, and ``Diagram`` and
``LaurentPoly``, which derive from ``frozen.Frozen``.

Each is exactly its fields: it builds the same value from positional and
from keyword arguments, needs every field, refuses assignment and
deletion, survives copy and pickle, and prints every field in its repr.
The repr strings were captured from the frozen dataclasses these classes
once were, apart from ``GenusOneStructure``'s, which now shows ``forms``,
``Diagram``'s, which no longer shows an edge count or free loops, and
``ObstructionVerdict``'s, which shows only its two coefficients.  No value
class has defaults.
"""
import copy
import inspect
import pickle

import pytest

from knotinv import (
    AltDecomposition,
    Diagram,
    FaceStructure,
    GenusOneStructure,
    LaurentPoly,
    ObstructionVerdict,
    OrientedDiagram,
    SignatureReport,
    Tangle,
)
from knotinv.analysis import DiagramAnalysis
from knotinv.decomp import ArcRuns
from knotinv.frozen import Frozen

D = Diagram(((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)))
D_REPR = "Diagram(crossings=((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)))"
TANGLE = Tangle((0, 2), (1, 4, 9, 6), True)
TANGLE_REPR = "Tangle(crossing_indices=(0, 2), boundary=(1, 4, 9, 6), proper=True)"
FORMS = (((3, 1), (1, 0), (1, -1)),)

# class, its fields and one value for each, the repr
CASES = [
    (Diagram, {"crossings": D.crossings}, D_REPR),
    (
        FaceStructure,
        {"faces": ((0, 5), (1, 2)), "checkerboard_color": (0, 1), "face_of": [0, 1, 1, 0]},
        "FaceStructure(faces=((0, 5), (1, 2)), checkerboard_color=(0, 1))",
    ),
    (
        OrientedDiagram,
        {"diagram": D, "into": (1, 0) * 6, "component_count": 1},
        f"OrientedDiagram(diagram={D_REPR}, component_count=1)",
    ),
    (
        LaurentPoly,
        {"variable": "t_half", "coeffs": {-2: 1, 4: -3}},
        "LaurentPoly(variable='t_half', coeffs={-2: 1, 4: -3})",
    ),
    (
        Tangle,
        {"crossing_indices": (0, 2), "boundary": (1, 4, 9, 6), "proper": True},
        TANGLE_REPR,
    ),
    (
        ArcRuns,
        {"run": [0, -1, 1], "arcs": [(1, 4, 0), (9, 6, 2)], "interior": [1]},
        "ArcRuns(run=[0, -1, 1], arcs=[(1, 4, 0), (9, 6, 2)], interior=[1])",
    ),
    (
        AltDecomposition,
        {
            "nonalternating": frozenset({2, 5}),
            "curves": ((1, 4), (9, 6)),
            "tangles": (TANGLE,),
        },
        "AltDecomposition(nonalternating=frozenset({2, 5}), curves=((1, 4), (9, 6)),"
        f" tangles=({TANGLE_REPR},))",
    ),
    (
        GenusOneStructure,
        {"tangles": (TANGLE,), "forms": FORMS},
        f"GenusOneStructure(tangles=({TANGLE_REPR},), forms=(((3, 1), (1, 0), (1, -1)),))",
    ),
    (
        SignatureReport,
        {"lower": -2, "upper": -2, "exact": -2, "method": "traczyk"},
        "SignatureReport(lower=-2, upper=-2, exact=-2, method='traczyk')",
    ),
    (
        ObstructionVerdict,
        {"a_m": 1, "a_M": -1},
        "ObstructionVerdict(a_m=1, a_M=-1)",
    ),
]
NAMED_TUPLES = {
    FaceStructure, OrientedDiagram, Tangle, ArcRuns, AltDecomposition, GenusOneStructure,
    SignatureReport, ObstructionVerdict,
}
UNHASHABLE = {FaceStructure, LaurentPoly, ArcRuns}  # a list or dict among the compared fields


@pytest.mark.parametrize("cls, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_contract(cls, values, text):
    args = tuple(values.values())
    by_position, by_keyword = cls(*args), cls(**values)
    assert by_position == by_keyword and repr(by_position) == repr(by_keyword) == text
    assert {name: getattr(by_position, name) for name in values} == values
    # a NamedTuple equals the plain tuple of its fields; the other two refuse
    # to compare with a tuple, so they equal none
    assert (by_position == args) == (cls in NAMED_TUPLES)
    with pytest.raises(TypeError):
        cls(*args[:-1])
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



def test_diagram_is_its_crossings():
    """A diagram's one parameter is its crossings, so a leftover edge count
    or free-loop count is refused rather than read; the edge count and the
    free loops, one exactly when there is no crossing, are read off the
    crossings, and a polynomial's terms come in one order, which no
    argument picks."""
    assert list(inspect.signature(Diagram).parameters) == ["crossings"]
    assert list(inspect.signature(LaurentPoly.terms).parameters) == ["self"]
    with pytest.raises(TypeError):
        Diagram(D.crossings, 6)
    with pytest.raises(TypeError):
        Diagram((), free_loops=1)
    assert (D.edge_count, D.free_loops, Diagram(()).free_loops) == (6, 0, 1)
    for name in ("edge_count", "free_loops"):
        with pytest.raises(AttributeError):
            setattr(D, name, 6)
    for d in D, Diagram(()):
        for clone in copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d)):
            assert clone == d and clone.free_loops == d.free_loops and repr(clone) == repr(d)
            assert clone.mate == d.mate


def test_value_classes_are_named_tuples_or_frozen():
    """Eight NamedTuples, and two plain classes deriving from ``Frozen``."""
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
