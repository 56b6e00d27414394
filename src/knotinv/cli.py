"""Command-line front end: batch invariants, obstruction checks, and
alternating-decomposition dumps."""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import DiagramAnalysis
from .diagram import DiagramError, PDSyntaxError, orient, parse_pd
# determinant is not called here (the analysis computes it), but it stays
# bound on this module: bench/test_bench.py traces it through this name.
from .statesum import CrossingLimitError, determinant, jones  # noqa: F401
from .invariants import (
    SignatureReport,
    conway_determinant,
    genus_one_knot_signature,
    giller_mod4_check,
    jones_obstruction,
    signature_bounds,
    tangle_sum_signature,
    traczyk_signature,
)
from .textio import KnotRecord, PolyParseError, parse_poly, read_csv, read_pd_file

__all__ = ["main", "analyze_record", "decompose_record", "obstruct_record"]


def _ok(value):
    return {"status": "ok", "value": value}


def _err(exc):
    return {"status": "error", "message": str(exc)}


_SKIP = {"status": "skipped"}


def _signature_field(a: DiagramAnalysis) -> dict:
    od = a.od
    try:
        if not a.nonalternating:
            sig = traczyk_signature(od, a)
            mod4 = giller_mod4_check(sig, a.det) if a.det % 2 else None
            rep = SignatureReport(
                lower=sig, upper=sig, exact=sig, method="traczyk", det=a.det, mod4_ok=mod4
            )
        elif a.turaev_genus == 1 and od.component_count == 1:
            rep = genus_one_knot_signature(od, a)
        else:
            bounds = signature_bounds(od, a)
            rep = SignatureReport(lower=bounds.lower, upper=bounds.upper, det=a.det)
        return _ok(rep.to_json())
    except (DiagramError, ValueError) as exc:
        return _err(exc)


def _closure_determinants(gs) -> list[dict]:
    return [{"n_det": n, "d_det": d} for n, d in gs.closure_determinants]


def _decomposition_field(a: DiagramAnalysis) -> dict:
    gs = a.genus_one
    if gs is None:
        return _SKIP
    summary = {
        "k": gs.k,
        "closure_determinants": _closure_determinants(gs),
        "conway_determinant": conway_determinant(gs),
        "tangle_sum_signature": tangle_sum_signature(gs, a.od, a).to_json(),
    }
    return _ok(summary)


def analyze_record(rec: KnotRecord, max_crossings: int | None = None) -> dict:
    out = {"name": rec.name, "fields": {}}
    f = out["fields"]
    try:
        a = DiagramAnalysis(parse_pd(rec.pd_text), max_crossings=max_crossings)
        od = a.od
    except (PDSyntaxError, DiagramError) as exc:
        out["status"] = "error"
        out["message"] = str(exc)
        return out
    out["status"] = "ok"
    f["s_A"] = _ok(a.s_A)
    f["s_B"] = _ok(a.s_B)
    _, c_plus, c_minus, writhe = a.signs
    f["c_plus"] = _ok(c_plus)
    f["c_minus"] = _ok(c_minus)
    f["writhe"] = _ok(writhe)
    f["components"] = _ok(od.component_count)
    f["turaev_genus"] = _ok(a.turaev_genus)
    v = None
    try:
        f["bracket"] = _ok(a.bracket.to_json())
        v = a.jones
        f["jones"] = _ok(v.to_json())
        f["jones_text"] = _ok(v.to_text())
    except CrossingLimitError as exc:
        for key in ("bracket", "jones", "jones_text"):
            f.setdefault(key, _err(exc))
    f["det"] = _ok(a.det)
    f["signature"] = _signature_field(a)
    try:
        f["decomposition"] = _decomposition_field(a)
    except DiagramError as exc:
        f["decomposition"] = _err(exc)
    if v is not None and not v.is_zero:
        f["obstruction"] = _ok(jones_obstruction(v).to_json())
    else:
        f["obstruction"] = _SKIP
    return out


def decompose_record(rec: KnotRecord) -> dict:
    out = {"name": rec.name}
    try:
        a = DiagramAnalysis(parse_pd(rec.pd_text))
        dec = a.decomposition
    except (PDSyntaxError, DiagramError) as exc:
        out["status"] = "error"
        out["message"] = str(exc)
        return out
    out["status"] = "ok"
    out["turaev_genus"] = a.turaev_genus
    out["decomposition"] = dec.to_json()
    gs = a.genus_one
    if gs is None:
        out["recognized"] = False
        return out
    out["recognized"] = True
    out["k"] = gs.k
    out["closure_determinants"] = _closure_determinants(gs)
    out["conway_determinant"] = conway_determinant(gs)
    return out


def obstruct_record(rec: KnotRecord, max_crossings: int | None = None) -> dict:
    out = {"name": rec.name}
    try:
        given = parse_poly(rec.jones_text) if rec.jones_text else None
    except PolyParseError as exc:
        out["status"] = "error"
        out["message"] = str(exc)
        return out
    computed = None
    if rec.pd_text:
        try:
            computed = jones(orient(parse_pd(rec.pd_text)), max_crossings)
        except (PDSyntaxError, DiagramError, CrossingLimitError) as exc:
            out["status"] = "error"
            out["message"] = f"jones recomputation failed: {exc}"
            return out
    if given is not None and computed is not None and given != computed:
        out["status"] = "error"
        out["message"] = (
            f"jones mismatch: given {given.to_text()}, computed {computed.to_text()}"
        )
        return out
    poly = given if given is not None else computed
    if poly is None or poly.is_zero:
        out["status"] = "error"
        out["message"] = "no usable polynomial"
        return out
    out["status"] = "ok"
    out["verdict"] = jones_obstruction(poly).to_json()
    return out


def _print_invariants_text(reports):
    for rep in reports:
        print(rep["name"])
        if rep["status"] == "error":
            print(f"  error: {rep['message']}")
            continue
        for key, cell in rep["fields"].items():
            if cell["status"] == "ok":
                print(f"  {key} = {cell['value']}")
            elif cell["status"] == "skipped":
                print(f"  {key}: skipped")
            else:
                print(f"  {key}: error: {cell['message']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knotinv", description="Diagram invariants from Kauffman state sums."
    )
    parser.add_argument(
        "--max-crossings",
        type=int,
        default=None,
        help="abort brackets beyond this crossing count (env KNOTINV_MAX_CROSSINGS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="batch invariants for a PD file")
    p_inv.add_argument("pd_file")
    p_inv.add_argument("--json", action="store_true")

    p_obs = sub.add_parser("obstruct", help="extreme Jones coefficient obstruction")
    src = p_obs.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial text")
    src.add_argument("--csv", help="CSV with name,jones[,pd] columns")
    p_obs.add_argument("--json", action="store_true")

    p_dec = sub.add_parser("decompose", help="alternating decomposition dump")
    p_dec.add_argument("pd_file")
    p_dec.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "invariants":
            records = read_pd_file(args.pd_file)
            reports = [analyze_record(r, args.max_crossings) for r in records]
            if args.json:
                print(json.dumps({"records": reports}, indent=2))
            else:
                _print_invariants_text(reports)
            return 1 if any(r["status"] == "error" for r in reports) else 0

        if args.command == "decompose":
            records = read_pd_file(args.pd_file)
            reports = [decompose_record(r) for r in records]
            if args.json:
                print(json.dumps({"records": reports}, indent=2))
            else:
                for rep in reports:
                    if rep["status"] == "error":
                        print(f"{rep['name']}: error: {rep['message']}")
                        continue
                    dec = rep["decomposition"]
                    line = (
                        f"{rep['name']}: g_T={rep['turaev_genus']}"
                        f" curves={len(dec['curves'])} tangles={len(dec['tangles'])}"
                    )
                    if rep["recognized"]:
                        dets = ", ".join(
                            f"N={c['n_det']} D={c['d_det']}"
                            for c in rep["closure_determinants"]
                        )
                        line += (
                            f" recognized k={rep['k']} [{dets}]"
                            f" conway_det={rep['conway_determinant']}"
                        )
                    print(line)
            return 1 if any(r["status"] == "error" for r in reports) else 0

        # obstruct
        if args.poly is not None:
            records = [KnotRecord(name="poly", jones_text=args.poly)]
        else:
            records = read_csv(args.csv)
        reports = [obstruct_record(r, args.max_crossings) for r in records]
        fired = sum(1 for r in reports if r["status"] == "ok" and r["verdict"]["fires"])
        checked = sum(1 for r in reports if r["status"] == "ok")
        if args.json:
            print(
                json.dumps(
                    {"records": reports, "summary": {"fired": fired, "checked": checked}},
                    indent=2,
                )
            )
        else:
            for rep in reports:
                if rep["status"] == "error":
                    print(f"{rep['name']}: error: {rep['message']}")
                    continue
                v = rep["verdict"]
                tail = " => " + ", ".join(v["implied"]) if v["fires"] else ""
                print(
                    f"{rep['name']}: a_m={v['a_m']} a_M={v['a_M']}"
                    f" fires={str(v['fires']).lower()}{tail}"
                )
            print(f"summary: fired {fired}/{checked}")
        return 1 if any(r["status"] == "error" for r in reports) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
