import sys

from knotinv import diagram, statesum
from knotinv.cli import KnotRecord, analyze_record, decompose_record

from conftest import K12N888_MIRROR_PD


def _count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every knotinv module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "knotinv" or name.startswith("knotinv."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_analyze_record_brackets_once(monkeypatch):
    brackets = _count_calls(monkeypatch, statesum.kauffman_bracket)
    rep = analyze_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["fields"]["decomposition"]["status"] == "ok"
    assert len(brackets) == 1


def test_decompose_record_validates_each_diagram_once(monkeypatch):
    validations = _count_calls(monkeypatch, diagram.validate)
    splices = _count_calls(monkeypatch, diagram.splice)
    rep = decompose_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["recognized"] and rep["k"] == 1
    # the diagram itself only: the closure determinants are read off its
    # faces, and no closure is built
    assert splices == []
    assert len(validations) == 1
    assert len({id(d) for (d,) in validations}) == 1


def test_analyze_record_validates_each_diagram_once(monkeypatch):
    validations = _count_calls(monkeypatch, diagram.validate)
    rep = analyze_record(KnotRecord(name="12n888", pd_text=K12N888_MIRROR_PD))
    assert rep["fields"]["decomposition"]["status"] == "ok"
    # the diagram and the closure of each of its two tangles that the
    # Theorem 2 signature orients
    assert len(validations) == 3
    assert len({id(d) for (d,) in validations}) == 3
