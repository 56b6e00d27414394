"""One workload process: set up like the CLI, then run the closed loop.

    python3 bench/worker.py ENTRY READER INPUT OUT_JSON --seconds S [--trace] [--setup-only]

Set-up is ``import knotinv.cli`` plus reading the input file, timed from
this process's first statement after the standard library imports.  The
loop then runs like ``knotinv invariants|decompose|obstruct --json``: one
caller, one record at a time, then ``json.dumps(..., indent=2)`` of all the
reports.  It runs whole passes over the input until ``S`` seconds have
gone, so every run does the same work per pass whatever its speed.  An
exception from a record is one failed operation; the loop goes on.

With ``--trace`` one pass runs under the span tracer first, and the untraced
passes follow; they give the tracing overhead and show that tracing leaves
the output unchanged.

``run.py`` starts this script and reads ``OUT_JSON``; the
record JSON of the first pass goes next to it, in ``OUT_JSON`` + ``.records``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def _one_pass(cli, entry: str, records, span, text_path: str | None = None) -> dict:
    """Run every record through ``cli.<entry>`` and serialise the reports.

    Only a digest of the JSON is kept, so memory does not grow with the
    number of passes; ``text_path`` receives the JSON itself.
    """
    latencies = []
    reports = []
    errors = {}
    t0 = perf_counter()
    for i, rec in enumerate(records):
        t = perf_counter()
        try:
            rep = getattr(cli, entry)(rec)
        except Exception as exc:  # the run goes on; the record counts as failed
            errors[i] = f"{type(exc).__name__}: {exc}"
        else:
            reports.append(rep)
        latencies.append(perf_counter() - t)
    with span("cli.json_dump"):
        doc = {"records": reports}
        if entry == "obstruct_record":
            ok = [r for r in reports if r["status"] == "ok"]
            doc["summary"] = {"fired": sum(1 for r in ok if r["verdict"]["fires"]), "checked": len(ok)}
        text = json.dumps(doc, indent=2)
    wall_s = perf_counter() - t0
    if text_path is not None:
        Path(text_path).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return {"wall_s": wall_s, "latencies": latencies, "errors": errors, "digest": digest}


def _run_passes(cli, entry: str, records, seconds: float, text_path: str) -> list[dict]:
    """Whole untraced passes, at least one, until ``seconds`` have gone."""
    start = perf_counter()
    out = [_one_pass(cli, entry, records, nullcontext, text_path)]
    while perf_counter() - start < seconds:
        out.append(_one_pass(cli, entry, records, nullcontext))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("entry", choices=("analyze_record", "decompose_record", "obstruct_record"))
    p.add_argument("reader", choices=("read_pd_file", "read_csv"))
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()

    t0 = perf_counter()
    import knotinv.cli as cli

    if tracer is not None:
        tracer.install()
    records = getattr(cli, args.reader)(args.input)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s, "records": len(records)}
    if not args.setup_only:
        if tracer is not None:
            traced = _one_pass(cli, args.entry, records, tracer.span)
            tracer.uninstall()
            result["trace"] = tracer.summary()
        passes = _run_passes(cli, args.entry, records, args.seconds, args.out + ".records")
        first = passes[0]["digest"]
        if tracer is not None:
            result["traced_wall_s"] = traced["wall_s"]
            result["traced_identical"] = traced["digest"] == first
        for q in passes:
            q["same_as_first"] = q.pop("digest") == first
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
