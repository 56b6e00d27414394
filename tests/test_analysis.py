import random
from pathlib import Path

import pytest

from knotinv import (
    Diagram,
    DiagramError,
    crossing_signs,
    decomp,
    diagram,
    genus_one_knot_signature,
    goeritz_determinant,
    nonalternating_edges,
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

from conftest import (
    K12N888_MIRROR_PD,
    _count_calls,
    _rebind,
    aa_extreme_coefficients,
    dealternator,
    gordon_litherland,
    is_reduced,
    mirror,
    recognize_genus_one_reference,
)


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
    """A diagram validates itself when it is built and keeps its face
    structure, so parsing it, orienting it, its Goeritz determinant, the
    reducedness check, an analysis of it and the almost-alternating
    prediction validate it once between them."""
    drawn, _ = random_almost_alternating_diagram(10, random.Random(7))
    validations = _count_calls(monkeypatch, diagram.validate)
    d = parse_pd(serialize_pd(drawn))
    orient(d)
    goeritz_determinant(d)
    is_reduced(d)
    DiagramAnalysis(d).det
    aa_extreme_coefficients(DiagramAnalysis(d))
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


def test_steps_share_one_analysis(monkeypatch, trefoil):
    """Parsing the diagram and recognition, the bounds, Theorem 1, Theorem 2
    and Gordon-Litherland on one analysis of it validate the diagram once,
    count each state's loops once and decompose once; each step reads what
    the others computed."""
    validations = _count_calls(monkeypatch, diagram.validate)
    loops = _count_calls(monkeypatch, statesum._state_loops)
    decompositions = _count_calls(monkeypatch, decomp.alternating_decomposition)
    a = DiagramAnalysis(parse_pd(K12N888_MIRROR_PD))
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
    """Reversing every strand keeps each crossing's sign, so the reversed
    bits keep the signs and the Gordon-Litherland signature of the analysis;
    bits of another diagram are refused."""
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
        od = orient(d)
        if od.component_count != 1:
            continue
        knots += 1
        reversed_bits = tuple(1 - bit for bit in od.into)
        rev = orient(d, into=reversed_bits)
        assert rev.into == reversed_bits != od.into
        assert crossing_signs(rev) == crossing_signs(od)
        assert gordon_litherland(rev)[0] == DiagramAnalysis(d).signature
    with pytest.raises(DiagramError):
        orient(trefoil, into=orient(fig8).into)


def test_dealternator_is_the_samplers_crossing():
    """On 240 drawn almost-alternating diagrams ``dealternator`` finds the
    crossing the sampler flipped, and the same crossing on the mirror."""
    rng = random.Random(23)
    for _ in range(240):
        d, deal = random_almost_alternating_diagram(rng.randint(5, 16), rng)
        assert dealternator(DiagramAnalysis(d)) == deal
        assert dealternator(DiagramAnalysis(mirror(d))) == deal


def _switch(d: Diagram, ci: int) -> Diagram:
    """``d`` with crossing ``ci`` switched, its tuple turned one slot."""
    crossings = list(d.crossings)
    x = crossings[ci]
    crossings[ci] = x[1:] + x[:1]
    return Diagram(tuple(crossings))


def test_dealternator_matches_switch_oracle():
    """On 400 random diagrams, half of them alternating ones with one
    crossing switched, the dealternator is the crossing with four distinct
    edges whose switch leaves no non-alternating edge, found by trying
    every crossing, or None when there is no such crossing."""
    rng = random.Random(24)
    found = 0
    for i in range(400):
        n = rng.randint(3, 14)
        if i % 2:
            d = random_diagram(n, rng)
        else:
            d = _switch(random_alternating_diagram(n, rng), rng.randrange(n))
        hits = [
            ci for ci, x in enumerate(d.crossings)
            if len(set(x)) == 4 and not nonalternating_edges(_switch(d, ci))
        ]
        assert len(hits) <= 1
        assert dealternator(DiagramAnalysis(d)) == (hits[0] if hits else None)
        found += bool(hits)
    assert 100 <= found <= 300  # both answers well covered
