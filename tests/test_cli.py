import json
import random
from importlib import resources

import pytest

from knotinv import goeritz_determinant, serialize_pd
from knotinv.cli import main
from knotinv.sampling import random_almost_alternating_diagram

from conftest import AA_TREFOIL_PD, K12N888_MIRROR_PD, TREFOIL_PD


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


def test_max_crossings_flag(tmp_path, capsys):
    f = tmp_path / "d.pd"
    f.write_text(f"tref: {TREFOIL_PD}\n")
    rc = main(["--max-crossings", "2", "invariants", str(f), "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    fields = obj["records"][0]["fields"]
    assert fields["bracket"]["status"] == "error"
    assert fields["jones"]["status"] == "error"
    assert fields["s_A"]["status"] == "ok"
    # the determinant comes from the Goeritz matrix, not the state sum
    assert fields["det"] == {"status": "ok", "value": 3}


def test_decompose_beyond_state_sum_limit(tmp_path, capsys):
    # 26 crossings: its closures have 25, above the default limit of 24
    d, _ = random_almost_alternating_diagram(26, random.Random(1))
    f = tmp_path / "aa26.pd"
    f.write_text(f"aa26: {serialize_pd(d)}\n")
    rc = main(["decompose", str(f), "--json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)["records"][0]
    assert rec["status"] == "ok" and rec["recognized"]
    assert rec["conway_determinant"] == goeritz_determinant(d) == 12330


def test_json_deterministic(capsys):
    main(["invariants", data_path("sample_knots.pd"), "--json"])
    first = capsys.readouterr().out
    main(["invariants", data_path("sample_knots.pd"), "--json"])
    assert capsys.readouterr().out == first
