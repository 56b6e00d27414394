import random
import warnings
from pathlib import Path

import pytest

from knotinv import (
    DiagramError,
    aa_extreme_coefficients,
    decomp,
    diagram,
    genus_one_knot_signature,
    goeritz_determinant,
    is_reduced,
    mark_almost_alternating,
    orient,
    parse_pd,
    recognize_genus_one,
    serialize_pd,
    signature_bounds,
    statesum,
    tangle_sum_signature,
    traczyk_signature,
)
from knotinv.analysis import DiagramAnalysis
from knotinv.cli import KnotRecord, analyze_record, decompose_record
from knotinv.sampling import (
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
    random_genus_one_diagram,
)
from knotinv.textio import read_pd_file

from conftest import K12N888_MIRROR_PD, _count_calls, _rebind, recognize_genus_one_reference


def test_analyze_record_brackets_once(monkeypatch):
    brackets = _count_calls(monkeypatch, statesum.kauffman_bracket)
    rep = analyze_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["fields"]["decomposition"]["status"] == "ok"
    assert len(brackets) == 1


def test_decompose_record_validates_each_diagram_once(monkeypatch):
    validations = _count_calls(monkeypatch, diagram.validate)
    rejoins = _count_calls(monkeypatch, diagram.rejoin)
    rep = decompose_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["recognized"] and rep["k"] == 1
    # the diagram itself only: the closure determinants are read off its
    # faces, and no closure is built
    assert rejoins == []
    assert len(validations) == 1
    assert len({id(d) for (d,) in validations}) == 1


def test_diagram_validates_once_across_entry_points(monkeypatch):
    """A parsed diagram keeps its face structure, so orienting it, its
    Goeritz determinant, the reducedness check, an analysis of it and the
    almost-alternating prediction validate it once between them."""
    drawn, deal = random_almost_alternating_diagram(10, random.Random(7))
    d = parse_pd(serialize_pd(drawn))
    validations = _count_calls(monkeypatch, diagram.validate)
    orient(d)
    goeritz_determinant(d)
    is_reduced(d)
    DiagramAnalysis(d).det
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        aa_extreme_coefficients(mark_almost_alternating(d, deal))
    assert len(validations) == 1
    assert validations[0][0] is d


def test_decompose_record_walks_the_faces_once(monkeypatch):
    """The decomposition walks the faces and records each arc's corners;
    the tangles' Goeritz forms are read off that record, not off a second
    walk."""
    walks = []

    class CountedFaces(tuple):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    validate = diagram.validate

    def validate_counted(d):
        fs = validate(d)
        return fs._replace(faces=CountedFaces(fs.faces))

    _rebind(monkeypatch, validate, validate_counted)
    rep = decompose_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["recognized"] and rep["closure_determinants"]
    assert len(walks) == 1


def test_other_channel_split_eliminates_each_tangle_once(monkeypatch):
    """When recognition takes the other k = 1 channel split, the tangles'
    Goeritz forms of the first split are reused with N and D swapped, so a
    record runs one elimination per tangle (and ``analyze_record`` one more
    for the diagram's own determinant)."""
    rng = random.Random(64)
    while True:
        pd = serialize_pd(random_genus_one_diagram(1, rng, [rng.randint(2, 6) for _ in "ab"]))
        a = DiagramAnalysis(parse_pd(pd))
        if recognize_genus_one(a).tangles != recognize_genus_one_reference(a).tangles:
            break
    eliminations = _count_calls(monkeypatch, statesum._nested_det_signatures)
    for entry, count in ((decompose_record, 2), (analyze_record, 3)):
        eliminations.clear()
        assert entry(KnotRecord(name="k1", pd_text=pd))["status"] == "ok"
        assert len(eliminations) == count


def test_analyze_record_validates_each_diagram_once(monkeypatch):
    validations = _count_calls(monkeypatch, diagram.validate)
    rejoins = _count_calls(monkeypatch, diagram.rejoin)
    rep = analyze_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["fields"]["decomposition"]["status"] == "ok"
    # the diagram itself only: the closure determinants and signatures are
    # read off its faces, and no closure is built
    assert rejoins == []
    assert len(validations) == 1


def test_analyze_record_signs_crossings_once(monkeypatch):
    """Jones reads the writhe off the signs the signature already needs."""
    data = Path(diagram.__file__).resolve().parent / "data" / "sample_knots.pd"
    records = read_pd_file(data)
    assert len(records) == 5
    signs = _count_calls(monkeypatch, diagram.crossing_signs)
    for rec in records:
        signs.clear()
        rep = analyze_record(rec)
        assert rep["fields"]["jones"]["status"] == "ok", rec.name
        assert len(signs) == 1, rec.name


# an 11-crossing genus-one knot whose two tangles' closures keep a nugatory
# crossing after kink removal, which Traczyk refuses
NUGATORY_CLOSURE_PD = (
    "X[1,2,3,4] X[5,1,4,6] X[7,5,6,8] X[7,8,10,9] X[9,10,12,11] X[11,14,15,13] "
    "X[14,12,16,15] X[13,16,18,17] X[3,19,20,18] X[19,21,22,20] X[21,2,17,22]"
)


def test_theorem2_with_nugatory_closures():
    f = analyze_record(KnotRecord(name="k11", pd_text=NUGATORY_CLOSURE_PD))["fields"]
    assert f["decomposition"]["status"] == "ok"
    theorem2 = f["decomposition"]["value"]["tangle_sum_signature"]
    assert theorem2["method"] == "theorem2" and theorem2["exact"] == -4
    assert f["signature"]["value"]["method"] == "theorem1"
    assert f["signature"]["value"]["exact"] == -4


def test_steps_share_one_analysis(monkeypatch, k12n888_mirror, trefoil):
    """Recognition, the bounds, Theorem 1, Theorem 2 and Gordon-Litherland
    on one analysis validate the diagram once, count each state's loops
    once and decompose once; each step reads what the others computed."""
    validations = _count_calls(monkeypatch, diagram.validate)
    loops = _count_calls(monkeypatch, statesum._state_loops)
    decompositions = _count_calls(monkeypatch, decomp.alternating_decomposition)
    a = DiagramAnalysis(k12n888_mirror)
    assert recognize_genus_one(a).k == 1
    bounds = signature_bounds(a)
    assert (bounds.lower, bounds.upper) == (8, 10)
    assert genus_one_knot_signature(a).exact == 8
    assert tangle_sum_signature(a).exact == 8
    assert a.signature == 8
    assert len(validations) == 1
    assert len(loops) == 2  # s_A and s_B
    assert len(decompositions) == 1
    with pytest.raises(DiagramError, match="alternating diagram"):
        traczyk_signature(a)
    with pytest.raises(DiagramError, match="genus-one normal form"):
        tangle_sum_signature(DiagramAnalysis(trefoil))


def test_imposed_orientation_is_bits_of_the_diagram(trefoil, fig8):
    """Reversing every strand keeps each crossing's sign, so an analysis
    given the reversed bits keeps the signs and the signature; bits of
    another diagram are refused when the orientation is first read."""
    rng = random.Random(126)
    knots = 0
    while knots < 40:
        draw = rng.randrange(3)
        if draw == 0:
            d = random_diagram(rng.randint(1, 12), rng)
        elif draw == 1:
            d = random_alternating_diagram(rng.randint(1, 12), rng)
        else:
            k = rng.randint(1, 2)
            d = random_genus_one_diagram(k, rng, [rng.randint(1, 4) for _ in range(2 * k)])
        plain = DiagramAnalysis(d)
        if plain.od.component_count != 1:
            continue
        knots += 1
        reversed_bits = tuple(1 - bit for bit in plain.od.into)
        a = DiagramAnalysis(d, into=reversed_bits)
        assert a.od.into == reversed_bits != plain.od.into
        assert a.signs == plain.signs
        assert a.signature == plain.signature
    a = DiagramAnalysis(trefoil, into=orient(fig8).into)
    with pytest.raises(DiagramError):
        a.od
