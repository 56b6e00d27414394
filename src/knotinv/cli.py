"""Command-line front end: batch invariants, obstruction checks, and
alternating-decomposition dumps."""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import DiagramAnalysis
from .diagram import DiagramError, PDSyntaxError, parse_pd
# determinant is not called here (the analysis computes it), but it stays
# bound on this module: bench/test_bench.py traces it through this name.
from .statesum import CrossingLimitError, determinant  # noqa: F401
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
    """An error cell; after a record's name (and an ``invariants`` record's
    empty ``fields``), the rest of an error record."""
    return {"status": "error", "message": str(exc)}


_SKIP = {"status": "skipped"}


def _signature_cell(a: DiagramAnalysis, rep: SignatureReport) -> dict:
    """``rep`` with the determinant and the mod-4 rule, if its exact value
    (when it has one) is the Gordon-Litherland signature and its bounds hold
    it."""
    sig, det = a.signature, a.det
    if rep.exact not in (None, sig) or not rep.lower <= sig <= rep.upper:
        raise DiagramError(
            f"{rep.method} gives {rep.exact} in [{rep.lower}, {rep.upper}], Gordon-Litherland {sig}"
        )
    return {**rep._asdict(), "det": det, "mod4_ok": giller_mod4_check(sig, det) if det % 2 else None}


def _signature_field(a: DiagramAnalysis) -> dict:
    """Gordon-Litherland, checked by the paper's formula that applies."""
    try:
        if not a.nonalternating:
            t = traczyk_signature(a)
            rep = SignatureReport(t, t, t, "traczyk")
        elif a.turaev_genus == 1 and a.od.component_count == 1:
            rep = genus_one_knot_signature(a)
        else:
            rep = signature_bounds(a)
        return _ok(_signature_cell(a, rep))
    except ValueError as exc:
        return _err(exc)


def _genus_one_summary(gs) -> dict:
    return {
        "k": gs.k,
        "closure_determinants": [{"n_det": n, "d_det": d} for n, d in gs.closure_determinants],
        "conway_determinant": conway_determinant(gs),
    }


def _decomposition_field(a: DiagramAnalysis) -> dict:
    try:
        gs = a.genus_one
        if gs is None:
            return _SKIP
        cell = _signature_cell(a, tangle_sum_signature(a))
        return _ok({**_genus_one_summary(gs), "tangle_sum_signature": cell})
    except DiagramError as exc:
        return _err(exc)


def _analysis(rec: KnotRecord) -> DiagramAnalysis:
    """The one analysis of the diagram of ``rec``."""
    if rec.pd_text is None:
        raise DiagramError("record has no PD code")
    return DiagramAnalysis(parse_pd(rec.pd_text))


def analyze_record(rec: KnotRecord) -> dict:
    try:
        a = _analysis(rec)
    except (PDSyntaxError, DiagramError) as exc:
        return {"name": rec.name, "fields": {}, **_err(exc)}
    f = {}
    f["s_A"] = _ok(a.s_A)
    f["s_B"] = _ok(a.s_B)
    _, c_plus, c_minus, writhe = a.signs
    f["c_plus"] = _ok(c_plus)
    f["c_minus"] = _ok(c_minus)
    f["writhe"] = _ok(writhe)
    f["components"] = _ok(a.od.component_count)
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
    f["decomposition"] = _decomposition_field(a)
    if v is not None and not v.is_zero:
        f["obstruction"] = _ok(jones_obstruction(v).to_json())
    else:
        f["obstruction"] = _SKIP
    return {"name": rec.name, "fields": f, "status": "ok"}


def decompose_record(rec: KnotRecord) -> dict:
    try:
        a = _analysis(rec)
        out = {"name": rec.name, "status": "ok", "turaev_genus": a.turaev_genus,
               "decomposition": a.decomposition.to_json(a.diagram)}
        gs = a.genus_one
        out["recognized"] = gs is not None
        if gs is not None:
            out.update(_genus_one_summary(gs))
    except (PDSyntaxError, DiagramError) as exc:
        return {"name": rec.name, **_err(exc)}
    return out


def obstruct_record(rec: KnotRecord) -> dict:
    try:
        given = parse_poly(rec.jones_text) if rec.jones_text else None
    except PolyParseError as exc:
        return {"name": rec.name, **_err(exc)}
    computed = None
    if rec.pd_text:
        try:
            computed = _analysis(rec).jones
        except (PDSyntaxError, DiagramError, CrossingLimitError) as exc:
            return {"name": rec.name, **_err(f"jones recomputation failed: {exc}")}
    if given is not None and computed is not None and given != computed:
        message = f"jones mismatch: given {given.to_text()}, computed {computed.to_text()}"
        return {"name": rec.name, **_err(message)}
    poly = given if given is not None else computed
    if poly is None or poly.is_zero:
        return {"name": rec.name, **_err("no usable polynomial")}
    return {"name": rec.name, "status": "ok", "verdict": jones_obstruction(poly).to_json()}


def _invariants_text(rep: dict) -> str:
    lines = [rep["name"]]
    if rep["status"] == "error":
        lines.append(f"  error: {rep['message']}")
    for key, cell in rep["fields"].items():
        if cell["status"] == "ok":
            lines.append(f"  {key} = {cell['value']}")
        elif cell["status"] == "skipped":
            lines.append(f"  {key}: skipped")
        else:
            lines.append(f"  {key}: error: {cell['message']}")
    return "\n".join(lines)


def _decompose_text(rep: dict) -> str:
    if rep["status"] == "error":
        return f"{rep['name']}: error: {rep['message']}"
    dec = rep["decomposition"]
    line = (
        f"{rep['name']}: g_T={rep['turaev_genus']}"
        f" curves={len(dec['curves'])} tangles={len(dec['tangles'])}"
    )
    if rep["recognized"]:
        dets = ", ".join(f"N={c['n_det']} D={c['d_det']}" for c in rep["closure_determinants"])
        line += f" recognized k={rep['k']} [{dets}] conway_det={rep['conway_determinant']}"
    return line


def _obstruct_text(rep: dict) -> str:
    if rep["status"] == "error":
        return f"{rep['name']}: error: {rep['message']}"
    v = rep["verdict"]
    tail = " => " + ", ".join(v["implied"]) if v["fires"] else ""
    return f"{rep['name']}: a_m={v['a_m']} a_M={v['a_M']} fires={str(v['fires']).lower()}{tail}"


# each command's per-record function and its text form of one record
_COMMANDS = {
    "invariants": (analyze_record, _invariants_text),
    "decompose": (decompose_record, _decompose_text),
    "obstruct": (obstruct_record, _obstruct_text),
}


def _print_json(obj) -> None:
    """Write ``obj`` as indented JSON and a newline, streamed to stdout
    rather than joined into one string first."""
    json.dump(obj, sys.stdout, indent=2)
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="knotinv",
        description="Invariants, alternating decompositions and the Jones obstruction"
        " of link diagrams given as PD codes.",
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
    entry, text = _COMMANDS[args.command]

    try:
        if args.command != "obstruct":
            records = read_pd_file(args.pd_file)
        elif args.poly is not None:
            records = [KnotRecord(name="poly", jones_text=args.poly)]
        else:
            records = read_csv(args.csv)
        reports = [entry(r) for r in records]
        doc = {"records": reports}
        if args.command == "obstruct":
            ok = [r for r in reports if r["status"] == "ok"]
            doc["summary"] = {"fired": sum(1 for r in ok if r["verdict"]["fires"]), "checked": len(ok)}
        if args.json:
            _print_json(doc)
        else:
            for rep in reports:
                print(text(rep))
            if "summary" in doc:
                print("summary: fired {fired}/{checked}".format(**doc["summary"]))
        return 1 if any(r["status"] == "error" for r in reports) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
