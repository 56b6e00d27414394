import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from knotinv import (
    CrossingLimitError, Diagram, DiagramError, decomp, goeritz_determinant, kauffman_bracket, orient,
    parse_pd, serialize_pd,
)
from knotinv.analysis import DiagramAnalysis
from knotinv.cli import KnotRecord, analyze_record, decompose_record, main, obstruct_record
from knotinv.sampling import random_almost_alternating_diagram
from knotinv.textio import read_pd_file

from conftest import (
    AA_TREFOIL_PD,
    K12N888_MIRROR_PD,
    TREFOIL_PD,
    full_twist_pd,
    gordon_litherland,
    seeded_corpus,
)


def data_path(name: str) -> str:
    return str(resources.files("knotinv").joinpath("data", name))


def test_invariants_bundled_data(capsys):
    rc = main(["invariants", data_path("sample_knots.pd"), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in obj["records"]}
    assert set(by_name) == {"trefoil", "figure8", "hopf", "aa_trefoil", "12n888_mirror"}
    tre = by_name["trefoil"]["fields"]
    assert tre["turaev_genus"]["value"] == 0
    assert tre["det"]["value"] == 3
    assert abs(tre["signature"]["value"]["exact"]) == 2
    big = by_name["12n888_mirror"]["fields"]
    assert big["s_A"]["value"] == 9
    assert big["c_plus"]["value"] == 0
    assert big["turaev_genus"]["value"] == 1
    assert big["det"]["value"] == 45
    assert big["signature"]["value"]["exact"] == 8
    assert big["decomposition"]["value"]["k"] == 1


def test_invariants_malformed_line(tmp_path, capsys):
    f = tmp_path / "mixed.pd"
    f.write_text(f"good: {TREFOIL_PD}\nbad: X[1,2\n")
    rc = main(["invariants", str(f), "--json"])
    assert rc == 1
    obj = json.loads(capsys.readouterr().out)
    statuses = {r["name"]: r["status"] for r in obj["records"]}
    assert statuses == {"good": "ok", "bad": "error"}


def test_error_records_and_lines(tmp_path, capsys):
    """Every kind of per-record error, key order included, and how the
    text output shows a malformed line next to a good one (exit code 1)."""
    bad_pd = "malformed token 'X[1,2'"
    cases = [
        (analyze_record(KnotRecord("bad", "X[1,2")),
         {"name": "bad", "fields": {}, "status": "error", "message": bad_pd}),
        (decompose_record(KnotRecord("bad", "X[1,2")),
         {"name": "bad", "status": "error", "message": bad_pd}),
        (obstruct_record(KnotRecord("p", None, "2t^2 +* t")),
         {"name": "p", "status": "error", "message": "malformed polynomial near '+*t'"}),
        (obstruct_record(KnotRecord("fake", TREFOIL_PD, "t^2")),
         {"name": "fake", "status": "error",
          "message": "jones mismatch: given 1*t^2, computed 1*t^-1 + 1*t^-3 + -1*t^-4"}),
        (obstruct_record(KnotRecord("zero", None, "0")),
         {"name": "zero", "status": "error", "message": "no usable polynomial"}),
    ]
    for rep, expected in cases:
        assert list(rep.items()) == list(expected.items())
    f = tmp_path / "mixed.pd"
    f.write_text(f"good: {TREFOIL_PD}\nbad: X[1,2\n")
    assert main(["invariants", str(f)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "good" and lines[-2:] == ["bad", f"  error: {bad_pd}"]
    assert "  decomposition: skipped" in lines
    assert main(["decompose", str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "good: g_T=0 curves=0 tangles=1", f"bad: error: {bad_pd}"
    ]


def test_invariants_missing_file(capsys):
    rc = main(["invariants", "/nonexistent/file.pd"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_obstruct_poly(capsys):
    rc = main(["obstruct", "--poly", "2t^2 - 3t^3 + 5t^4 - 6t^5 + 6t^6 - 5t^7 + 4t^8 - 2t^9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fires=true" in out and "fired 1/1" in out


def test_obstruct_csv_bundled(capsys):
    rc = main(["obstruct", "--csv", data_path("obstruction_examples.csv"), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["summary"] == {"fired": 11, "checked": 11}
    assert all(r["verdict"]["fires"] for r in obj["records"])


def test_obstruct_consistency_gate(tmp_path, capsys):
    f = tmp_path / "gate.csv"
    # wrong polynomial attached to the trefoil PD: no verdict, record errors
    f.write_text(f'name,jones,pd\nfake,"t^2","{TREFOIL_PD}"\n')
    rc = main(["obstruct", "--csv", str(f), "--json"])
    assert rc == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["records"][0]["status"] == "error"
    assert "verdict" not in obj["records"][0]
    assert obj["summary"]["checked"] == 0


def test_obstruct_consistency_gate_pass(tmp_path, capsys):
    f = tmp_path / "gate.csv"
    f.write_text(f'name,jones,pd\ntref,"1*t^-1 + 1*t^-3 + -1*t^-4","{TREFOIL_PD}"\n')
    rc = main(["obstruct", "--csv", str(f), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["records"][0]["verdict"]["fires"] is False


def test_obstruct_csv_short_row(tmp_path, capsys):
    f = tmp_path / "short.csv"
    f.write_text("name,jones,pd\nk1\n")
    rc = main(["obstruct", "--csv", str(f)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {f}, line 2: row has 1 field(s), but its 'name' and 'jones' columns need 2\n"
    )


def test_obstruct_overlong_number_is_a_record_error(tmp_path, capsys, int_digit_limit):
    """A coefficient or PD label past the int-string digit limit fails its
    own record only: the other rows keep their verdicts and ``main`` exits 1."""
    digits = "7" * (int_digit_limit + 1)
    good = {
        "12n254": "3t^2-5t^3+ 9t^4-11t^5+ 11t^6-11t^7+ 8t^8-5t^9+ 2t^{10}",
        "tref": "1*t^-1 + 1*t^-3 + -1*t^-4",
    }
    f = tmp_path / "long.csv"
    f.write_text(
        "name,jones,pd\n"
        f'12n254,"{good["12n254"]}",\n'
        f'long,"{digits}t^2 - 2",\n'
        f'longpd,,"X[1,{digits},2,3]"\n'
        f'tref,"{good["tref"]}","{TREFOIL_PD}"\n'
    )
    rc = main(["obstruct", "--csv", str(f), "--json"])
    assert rc == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["name"] for r in records] == ["12n254", "long", "longpd", "tref"]
    for r in (records[0], records[3]):
        alone = obstruct_record(KnotRecord(r["name"], None, good[r["name"]]))
        assert r == alone and r["status"] == "ok"
    assert records[1] == {
        "name": "long",
        "status": "error",
        "message": "number too long to convert near '777777777777'",
    }
    assert records[2]["status"] == "error"
    assert records[2]["message"] == (
        "jones recomputation failed: label too long to convert in token 'X[1,777777777777'..."
    )


def test_obstruct_overlong_rows_keep_the_json_whole(capsys):
    """``tests/data/overlong_row.csv``: an over-long coefficient and two
    coefficients whose sum at one exponent is over-long each fail their own
    row; the JSON parses whole, the two good rows are ``ok`` and ``main``
    exits 1, and so does the text form, one line per record and the summary.
    The data is written for the default limit of 4300 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc = main(["obstruct", "--csv", str(GOLDEN / "overlong_row.csv"), "--json"])
        json_out = capsys.readouterr().out
        assert main(["obstruct", "--csv", str(GOLDEN / "overlong_row.csv")]) == 1
    finally:
        sys.set_int_max_str_digits(limit)
    fired = "fires=true => not_almost_alternating, turaev_genus_ge_2, dealternating_number_ge_2"
    assert capsys.readouterr().out.splitlines() == [
        f"12n253: a_m=-2 a_M=-2 {fired}",
        "overlong: error: number too long to convert near '777777777777'",
        f"12n254: a_m=3 a_M=2 {fired}",
        "oversum: error: number too long to convert near '+99999999999'",
        "summary: fired 2/2",
    ]
    assert rc == 1
    obj = json.loads(json_out)
    assert [(r["name"], r["status"]) for r in obj["records"]] == [
        ("12n253", "ok"), ("overlong", "error"), ("12n254", "ok"), ("oversum", "error")
    ]
    assert obj["records"][3]["message"] == "number too long to convert near '+99999999999'"
    assert obj["summary"] == {"fired": 2, "checked": 2}


def test_decompose(tmp_path, capsys):
    f = tmp_path / "d.pd"
    f.write_text(f"aat: {AA_TREFOIL_PD}\nbig: {K12N888_MIRROR_PD}\ntref: {TREFOIL_PD}\n")
    rc = main(["decompose", str(f), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in obj["records"]}
    assert len(by_name["tref"]["decomposition"]["curves"]) == 0
    assert by_name["tref"]["recognized"] is False
    big = by_name["big"]
    assert len(big["decomposition"]["curves"]) == 2
    assert big["recognized"] and big["k"] == 1
    dets = sorted(x for c in big["closure_determinants"] for x in (c["n_det"], c["d_det"]))
    assert dets == [6, 6, 9, 9]
    assert big["conway_determinant"] == 45


# the closed full twist on 9 strands: the bracket's sweep would hold 18 open ends
REFUSED = "sweep frontier of 18 open ends exceeds the bound of 16"


def test_invariants_beyond_sweep_width_bound(tmp_path, capsys):
    f = tmp_path / "d.pd"
    f.write_text(f"t9: {full_twist_pd(9)}\n")
    rc = main(["invariants", str(f), "--json"])
    assert rc == 0
    fields = json.loads(capsys.readouterr().out)["records"][0]["fields"]
    for key in ("bracket", "jones", "jones_text"):
        assert fields[key] == {"status": "error", "message": REFUSED}, key
    assert fields["obstruction"] == {"status": "skipped"}
    assert fields["s_A"]["status"] == "ok"
    # the determinant comes from the Goeritz matrix, not the bracket
    assert fields["det"] == {"status": "ok", "value": 256}
    # the text form prints each error cell as its key and message
    assert main(["invariants", str(f)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if ": error: " in line] == [
        f"  {key}: error: {REFUSED}" for key in ("bracket", "jones", "jones_text")
    ]
    assert lines[0] == "t9" and "  det = 256" in lines and lines[-1] == "  obstruction: skipped"


def test_obstruct_beyond_sweep_width_bound():
    assert obstruct_record(KnotRecord(name="t9", pd_text=full_twist_pd(9))) == {
        "name": "t9", "status": "error", "message": f"jones recomputation failed: {REFUSED}"
    }


def test_obstruct_validates_before_it_sweeps():
    """The twist is too wide to sweep, and with two labels of different
    crossings exchanged it is not planar; the recomputation names the
    validation error, since a diagram is validated when it is built, before
    any sweep."""
    twist = parse_pd(full_twist_pd(9))
    with pytest.raises(CrossingLimitError, match=REFUSED):
        kauffman_bracket(twist)
    crossings = [list(x) for x in twist.crossings]
    crossings[0][0], crossings[2][2] = crossings[2][2], crossings[0][0]
    with pytest.raises(DiagramError, match="^not planar") as invalid:
        Diagram(tuple(map(tuple, crossings)))
    pd_text = " ".join("X[%d,%d,%d,%d]" % tuple(x) for x in crossings)
    assert obstruct_record(KnotRecord(name="bad", pd_text=pd_text)) == {
        "name": "bad", "status": "error", "message": f"jones recomputation failed: {invalid.value}"
    }


def test_decompose_beyond_state_sum_limit(tmp_path, capsys):
    # 26 crossings, whose closures have 25: decompose runs no bracket
    d, _ = random_almost_alternating_diagram(26, random.Random(1))
    f = tmp_path / "aa26.pd"
    f.write_text(f"aa26: {serialize_pd(d)}\n")
    rc = main(["decompose", str(f), "--json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["status"] == "ok" and rec["recognized"]
    assert rec["conway_determinant"] == goeritz_determinant(d) == 12330


def test_closure_structure_error_is_typed(tmp_path, capsys, monkeypatch):
    # a tangle with one interior face too few fails the structural check in
    # place of closure validation
    arc_runs = decomp._arc_runs

    def dropping_a_face(d):
        runs = arc_runs(d)
        return runs._replace(interior=runs.interior[1:])

    monkeypatch.setattr(decomp, "_arc_runs", dropping_a_face)
    rec = KnotRecord(name="big", pd_text=K12N888_MIRROR_PD)
    out = decompose_record(rec)
    message = out.pop("message")
    assert out == {"name": "big", "status": "error"}
    assert message.endswith("does not close to planar diagrams")
    rep = analyze_record(rec)
    assert rep["status"] == "ok"
    assert rep["fields"]["decomposition"] == {"status": "error", "message": message}
    f = tmp_path / "d.pd"
    f.write_text(f"big: {K12N888_MIRROR_PD}\ntref: {TREFOIL_PD}\n")
    assert main(["decompose", str(f)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"big: error: {message}"


def test_json_deterministic(capsys):
    main(["invariants", data_path("sample_knots.pd"), "--json"])
    first = capsys.readouterr().out
    main(["invariants", data_path("sample_knots.pd"), "--json"])
    assert capsys.readouterr().out == first


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "argv, golden, rc",
    [
        (["invariants", "sample_knots.pd", "--json"], "sample_knots.invariants.json", 0),
        (["decompose", "sample_knots.pd", "--json"], "sample_knots.decompose.json", 0),
        (["obstruct", "--csv", "obstruction_examples.csv", "--json"],
         "obstruction_examples.obstruct.json", 0),
        (["invariants", str(GOLDEN / "signature_cases.pd"), "--json"],
         "signature_cases.invariants.json", 0),
        (["invariants", "sample_knots.pd"], "sample_knots.invariants.txt", 0),
        (["decompose", "sample_knots.pd"], "sample_knots.decompose.txt", 0),
        (["obstruct", "--csv", "obstruction_examples.csv"], "obstruction_examples.obstruct.txt", 0),
        (["obstruct", "--csv", str(GOLDEN / "obstruct_with_pd.csv"), "--json"],
         "obstruct_with_pd.obstruct.json", 0),
        (["obstruct", "--csv", str(GOLDEN / "obstruct_with_pd.csv")], "obstruct_with_pd.obstruct.txt", 0),
        # every record of invalid_diagrams.pd that is not a valid diagram is
        # an error record, so these runs exit 1
        (["invariants", str(GOLDEN / "invalid_diagrams.pd"), "--json"],
         "invalid_diagrams.invariants.json", 1),
        (["decompose", str(GOLDEN / "invalid_diagrams.pd")], "invalid_diagrams.decompose.txt", 1),
    ],
    ids=["invariants", "decompose", "obstruct", "signature-cases",
         "invariants-text", "decompose-text", "obstruct-text", "obstruct-pd", "obstruct-pd-text",
         "invalid-invariants", "invalid-decompose-text"],
)
def test_golden_output(argv, golden, rc, capsys):
    argv = [
        data_path(a) if a.endswith((".pd", ".csv")) and not Path(a).is_absolute() else a
        for a in argv
    ]
    assert main(argv) == rc
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "command, entry", [("decompose", decompose_record), ("invariants", analyze_record)]
)
def test_seeded_corpus_digest(command, entry):
    """The CLI's JSON over a seeded corpus of random, alternating, genus-one
    and almost-alternating diagrams of up to 60 crossings hashes to the
    committed digest: output stays byte-identical beyond the sample knots."""
    digests = dict(
        line.split()[::-1] for line in (GOLDEN / "seeded_corpus.sha256").read_text().splitlines()
    )
    text = json.dumps({"records": [entry(r) for r in seeded_corpus()]}, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digests[command]


def test_every_signature_is_gordon_litherland():
    """Every signature cell of the seeded corpus and of
    ``signature_cases.pd`` is ``ok``, its ``exact`` the Gordon-Litherland
    signature of the conftest oracle and ``mod4_ok`` true on every knot;
    the paper's formula it names agreed with it."""
    records = seeded_corpus() + read_pd_file(str(GOLDEN / "signature_cases.pd"))
    methods = Counter()
    for rec in records:
        od = orient(parse_pd(rec.pd_text))
        cell = analyze_record(rec)["fields"]["signature"]
        assert cell["status"] == "ok", (rec.name, cell)
        value = cell["value"]
        assert value["exact"] == gordon_litherland(od)[0], rec.name
        assert value["mod4_ok"] is (True if od.component_count == 1 else None), rec.name
        methods[value["method"]] += 1
    assert set(methods) == {"traczyk", "theorem1", "gordon_litherland"}, methods


def test_signature_disagreement_is_an_error_cell(monkeypatch):
    """When the paper's formula disagrees with the Gordon-Litherland
    signature, or its bounds miss it, the signature cell (and a genus-one
    diagram's decomposition cell, for Theorem 2) is an error, never an
    ``ok``."""
    monkeypatch.setattr(DiagramAnalysis, "signature", property(lambda a: 100))
    records = [KnotRecord("trefoil", TREFOIL_PD), KnotRecord("12n888", K12N888_MIRROR_PD)]
    records += read_pd_file(str(GOLDEN / "signature_cases.pd"))
    f = {rec.name: analyze_record(rec)["fields"] for rec in records}
    assert f["trefoil"]["signature"] == {
        "status": "error", "message": "traczyk gives 2 in [2, 2], Gordon-Litherland 100"
    }
    assert f["tg2_knot"]["signature"]["message"] == (
        "gordon_litherland gives 100 in [-2, 2], Gordon-Litherland 100"
    )
    assert f["12n888"]["signature"]["message"] == "theorem1 gives 8 in [8, 10], Gordon-Litherland 100"
    assert f["12n888"]["decomposition"] == {
        "status": "error", "message": "theorem2 gives 8 in [8, 10], Gordon-Litherland 100"
    }
    assert f["genus_one_link"]["decomposition"] == {
        "status": "error", "message": "theorem2 gives None in [1, 3], Gordon-Litherland 100"
    }
    assert all(cells["signature"]["status"] == "error" for cells in f.values())


def test_cli_import_leaves_out_dataclasses():
    """``import knotinv.cli`` loads none of ``dataclasses`` and the modules
    it pulls in, which cost every run a third of its start-up, and neither
    does ``knotinv.sampling``, the one module the CLI does not load.  The
    child runs without ``site``, so no ``.pth`` file of the environment
    loads them first."""
    code = "import sys, knotinv.cli, knotinv.sampling; print(sorted({*sys.argv[1:]} & {*sys.modules}))"
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *heavy], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


@pytest.mark.parametrize(
    "pd, golden, rc",
    [(data_path("sample_knots.pd"), "sample_knots.invariants.json", 0),
     (str(GOLDEN / "invalid_diagrams.pd"), "invalid_diagrams.invariants.json", 1)],
    ids=["sample", "invalid"],
)
def test_module_entry_point(pd, golden, rc):
    """``python -m knotinv.cli`` runs ``main`` and exits with its code: the
    bundled sample prints its golden JSON byte for byte and exits 0, and
    the invalid diagrams, every one an error record but two, exit 1."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "knotinv.cli", "invariants", pd, "--json"],
        env=env, capture_output=True,
    )
    assert (out.returncode, out.stderr) == (rc, b"")
    assert out.stdout == (GOLDEN / golden).read_bytes()
