"""Output checks, run by ``run.py`` after the timed loop.

They take routes that do not go through the state sum being timed: the
Goeritz determinant, V(1) = (-2)^(components - 1), what the generator knows
about each input (its family, its ``k``, its Turaev genus) and the extreme
coefficients of each generated polynomial.
"""

from __future__ import annotations

from knotinv import goeritz_determinant, orient, parse_pd

# analyze_record reports these fields for every valid diagram
ANALYZE_FIELDS = 14


def _v_at_one(terms) -> int:
    return sum(c for _, c in terms)


def _v_at_minus_one_sq(terms) -> int:
    """|V(-1)|^2, with t^(1/2) = i; each term is (half-exponent, coefficient)."""
    re = im = 0
    for h, c in terms:
        k = h % 4
        if k == 0:
            re += c
        elif k == 1:
            im += c
        elif k == 2:
            re -= c
        else:
            im -= c
    return re * re + im * im


def _check_jones(terms, d, det: int) -> list[str]:
    out = []
    comps = orient(d).component_count
    if _v_at_one(terms) != (-2) ** (comps - 1):
        out.append(f"V(1) = {_v_at_one(terms)}, expected (-2)^{comps - 1}")
    if _v_at_minus_one_sq(terms) != det * det:
        out.append(f"|V(-1)|^2 = {_v_at_minus_one_sq(terms)}, Goeritz determinant {det}")
    return out


def _analyze(e: dict, rep: dict) -> list[str]:
    if rep["status"] != "ok":
        return [f"record status {rep['status']}"]
    d = parse_pd(e["pd"])
    det = goeritz_determinant(d)
    f = rep["fields"]
    out = []
    if f["det"]["status"] == "ok" and f["det"]["value"] != det:
        out.append(f"det {f['det']['value']} != Goeritz {det}")
    if f["jones"]["status"] == "ok":
        out += _check_jones(f["jones"]["value"]["terms"], d, det)
    want_tg = {"alternating": 0, "genus_one": 1}.get(e["kind"])
    if want_tg is not None and f["turaev_genus"]["value"] != want_tg:
        out.append(f"turaev_genus {f['turaev_genus']['value']} != {want_tg}")
    if e["kind"] == "genus_one":
        dec = f["decomposition"]
        if dec["status"] == "skipped":
            out.append("genus-one input not recognized")
        elif dec["status"] == "ok":
            if dec["value"]["k"] != e["k"]:
                out.append(f"recognized k={dec['value']['k']}, generated k={e['k']}")
            if dec["value"]["conway_determinant"] != det:
                out.append(f"conway_determinant {dec['value']['conway_determinant']} != Goeritz {det}")
    return out


def _decompose(e: dict, rep: dict) -> list[str]:
    if rep["status"] != "ok":
        return [f"record status {rep['status']}"]
    out = []
    kind = e["kind"]
    if kind == "genus_one":
        if not rep["recognized"]:
            return ["genus-one input not recognized"]
        if rep["k"] != e["k"]:
            out.append(f"recognized k={rep['k']}, generated k={e['k']}")
        if rep["turaev_genus"] != 1:
            out.append(f"turaev_genus {rep['turaev_genus']} != 1")
    elif kind == "random":
        if rep["recognized"]:
            out.append("Turaev genus >= 2 input recognized as genus-one")
        if rep["turaev_genus"] != e["turaev_genus"]:
            out.append(f"turaev_genus {rep['turaev_genus']} != {e['turaev_genus']}")
    if rep["recognized"]:
        det = goeritz_determinant(parse_pd(e["pd"]))
        if rep["conway_determinant"] != det:
            out.append(f"conway_determinant {rep['conway_determinant']} != Goeritz {det}")
    return out


def _obstruct(e: dict, rep: dict) -> list[str]:
    kind = e["kind"]
    if kind == "mismatch":
        if rep["status"] != "error" or not rep["message"].startswith("jones mismatch"):
            return [f"expected a jones mismatch error, got {rep}"]
        return []
    if kind == "malformed":
        if rep["status"] != "error" or e["message"] not in rep["message"]:
            return [f"expected parse error {e['message']!r}, got {rep}"]
        return []
    if rep["status"] != "ok":
        return [f"record status {rep['status']}: {rep.get('message')}"]
    v, want = rep["verdict"], e["verdict"]
    out = []
    if (v["a_m"], v["a_M"], v["fires"]) != (want["a_m"], want["a_M"], want["fires"]):
        out.append(f"verdict {v} != expected {want}")
    if bool(v["implied"]) != want["fires"]:
        out.append(f"implied {v['implied']} does not match fires={want['fires']}")
    if kind == "pd":
        d = parse_pd(e["pd"])
        out += _check_jones(e["terms"], d, goeritz_determinant(d))
    return out


_CHECKS = {"analyze_record": _analyze, "decompose_record": _decompose, "obstruct_record": _obstruct}


def ok_cells(entry: str, rep: dict | None) -> tuple[int, int]:
    """(cells with status ok, cells) of one record; a record that raised has none ok."""
    if entry == "analyze_record":
        fields = rep["fields"].values() if rep else ()
        return sum(1 for c in fields if c["status"] == "ok"), ANALYZE_FIELDS
    return int(rep is not None and rep["status"] == "ok"), 1


def check(entry: str, expect, reports: list[dict], errors: dict[int, str]) -> dict:
    """Match reports to records and check each one.

    Returns the indices of records that failed (raised, missing, or wrong),
    the problems found in the outputs that were produced, and the cell
    counts behind ``ok_share``.
    """
    by_name = {r["name"]: r for r in reports}
    failed = set(errors)
    wrong = {}
    ok = cells = 0
    for i, e in enumerate(expect):
        rep = by_name.get(e["name"])
        if rep is None and i not in errors:
            wrong[i] = ["record missing from the output"]
        elif rep is not None:
            problems = _CHECKS[entry](e, rep)
            if problems:
                wrong[i] = problems
        n_ok, n = ok_cells(entry, rep)
        ok += n_ok
        cells += n
    failed |= set(wrong)
    if len(by_name) != len(reports) or len(reports) + len(errors) != len(expect):
        wrong[-1] = [f"{len(reports)} reports and {len(errors)} errors for {len(expect)} records"]
    return {"failed": failed, "wrong": wrong, "ok_cells": ok, "cells": cells}
