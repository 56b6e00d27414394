"""The twelve value classes, against what they did as frozen dataclasses.

Each builds the same value from positional and from keyword arguments,
fills the same defaults, refuses assignment and deletion, survives copy
and pickle, and prints the repr that its dataclass printed; the repr
strings were captured from the dataclasses.  ``Tangle.parent``,
``AltDecomposition.arc_runs`` and ``GenusOneStructure.forms`` stay out of
equality, hashing and the repr.
"""

import copy
import pickle

import pytest

from knotinv import (
    AAMarkedDiagram,
    AltDecomposition,
    Diagram,
    FaceStructure,
    GenusOneStructure,
    LaurentPoly,
    ObstructionVerdict,
    OrientedDiagram,
    SignatureReport,
    StateGraph,
    Tangle,
    parse_pd,
)
from knotinv.decomp import ArcRuns

from conftest import FIG8_PD

D = Diagram(((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)), 6)
D_REPR = "Diagram(crossings=((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 2)), edge_count=6, free_loops=0)"
FIG8 = parse_pd(FIG8_PD)
TANGLE = Tangle((0, 2), (1, 4, 9, 6), True, D)
TANGLE_REPR = "Tangle(crossing_indices=(0, 2), boundary=(1, 4, 9, 6), proper=True)"
RUNS = ArcRuns([0, -1, 1], [(1, 4, 0), (9, 6, 2)], [1])
FORMS = (((3, 1), (1, 0), [1, -1]),)

# class, its fields and one value for each, the defaults, the repr
CASES = [
    (Diagram, {"crossings": D.crossings, "edge_count": 6, "free_loops": 0}, {"free_loops": 0}, D_REPR),
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
        {"crossing_indices": (0, 2), "boundary": (1, 4, 9, 6), "proper": True, "parent": D},
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
            "arc_runs": RUNS,
        },
        {"arc_runs": None},
        "AltDecomposition(nonalternating=frozenset({2, 5}), curves=((1, 4), (9, 6)),"
        f" tangles=({TANGLE_REPR},))",
    ),
    (
        GenusOneStructure,
        {"tangles": (TANGLE,), "forms": FORMS},
        {},
        f"GenusOneStructure(tangles=({TANGLE_REPR},))",
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
    (
        AAMarkedDiagram,
        {"diagram": D, "dealternator": 0, "u1": 1, "u2": 2, "v1": 3, "v2": 4},
        {},
        f"AAMarkedDiagram(diagram={D_REPR}, dealternator=0, u1=1, u2=2, v1=3, v2=4)",
    ),
]
NAMED_TUPLES = {
    FaceStructure, OrientedDiagram, StateGraph, ArcRuns,
    SignatureReport, ObstructionVerdict, AAMarkedDiagram,
}
UNHASHABLE = {FaceStructure, LaurentPoly, ArcRuns}  # a list or dict among the compared fields


@pytest.mark.parametrize("cls, values, defaults, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_contract(cls, values, defaults, text):
    args = tuple(values.values())
    by_position, by_keyword = cls(*args), cls(**values)
    assert by_position == by_keyword and repr(by_position) == repr(by_keyword) == text
    assert {name: getattr(by_position, name) for name in values} == values
    if cls in NAMED_TUPLES:
        assert tuple(by_position) == args
    short = cls(*args[:len(args) - len(defaults)])
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


@pytest.mark.parametrize(
    "cls, values, ignored, other",
    [
        (Tangle, CASES[5][1], "parent", FIG8),
        (AltDecomposition, CASES[7][1], "arc_runs", None),
        (GenusOneStructure, CASES[8][1], "forms", ()),
    ],
    ids=["Tangle.parent", "AltDecomposition.arc_runs", "GenusOneStructure.forms"],
)
def test_left_out_fields(cls, values, ignored, other):
    """Changing the left-out field keeps equality, hash and repr; changing
    any other field breaks equality."""
    base = cls(**values)
    changed = cls(**{**values, ignored: other})
    assert getattr(changed, ignored) is other
    assert base == changed and hash(base) == hash(changed) and repr(base) == repr(changed)
    for name in values:
        if name != ignored:
            assert base != cls(**{**values, name: ()})
