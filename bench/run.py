"""knotinv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's input
file from the seed with ``knotinv.sampling``, times several cold starts of a
worker process (``import knotinv.cli`` plus reading the file), then runs the
workload in one single-threaded worker as a closed loop with one caller,
the way the CLI does (see ``worker.py``).  After the timed loop it checks
every output (``checks.py``).

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, from untraced passes; with
``--trace 1`` they are its per-layer metrics, from one pass under the span
tracer (``tracing.py``).  The line before it describes the run: host, seed,
commit, sample counts, the failures and the full span table.

Workloads, metrics and what each layer metric should move are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "knotinv" / "__init__.py").is_file():
    sys.exit(f"{ROOT}: no src/knotinv to benchmark")
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import BRACKET  # noqa: E402

# Cold starts per run for setup_s, after one that fills the bytecode cache.
COLD_STARTS = 7
# A run must end within 180 s; leave room for generation and checks.
DEADLINE_S = 170.0


def _read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


class Runner:
    """Starts worker processes for one generated workload and waits for them."""

    def __init__(self, w: workloads.Workload, work: Path, deadline: float):
        self.w = w
        self.work = work
        self.deadline = deadline
        self.input = work / w.filename
        self.input.write_text(w.text, encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # the default crossing limit is part of the workload definition
        self.env.pop("KNOTINV_MAX_CROSSINGS", None)
        self.n = 0

    def worker(self, seconds: float, *flags: str) -> dict:
        self.n += 1
        out = self.work / f"worker{self.n}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), self.w.entry, self.w.reader,
               str(self.input), str(out), "--seconds", repr(seconds), *flags]
        timeout = max(1.0, self.deadline - monotonic())
        subprocess.run(cmd, env=self.env, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
        res = json.loads(out.read_text(encoding="utf-8"))
        records = Path(f"{out}.records")
        if records.exists():
            res["reports"] = json.loads(records.read_text(encoding="utf-8"))["records"]
        return res

    def setup_samples(self) -> list[float]:
        self.worker(0, "--setup-only")
        return [self.worker(0, "--setup-only")["setup_s"] for _ in range(COLD_STARTS)]


def end_to_end(res: dict, setup: list[float], ok_share: float) -> dict[str, float]:
    passes = res["passes"]
    lat_ms = [t * 1e3 for q in passes for t in q["latencies"]]
    return {
        "records_per_s": len(lat_ms) / sum(q["wall_s"] for q in passes),
        "record_p50_ms": statistics.median(lat_ms),
        "record_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "ok_share": ok_share,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict[str, float]:
    """Layer metrics of the traced pass, named ``<layer>.<function>.<what>``."""
    tr = res["trace"]
    out = {}
    poly_self = 0.0
    for name, (calls, _total, self_s) in tr["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        if name.startswith("laurent.LaurentPoly."):
            poly_self += self_s
    out["laurent.LaurentPoly.self_s"] = poly_self
    for layer, self_s in tr["layers"].items():
        out[f"{layer}.self_s"] = self_s
    b = tr["bracket"]
    out[f"{BRACKET}.refused"] = b["refused"]
    out[f"{BRACKET}.states"] = b["states"]
    out[f"{BRACKET}.repeat_share"] = b["repeats"] / b["calls"] if b["calls"] else 0.0
    out["cli.json_dump_s"] = out.pop("cli.json_dump.self_s", 0.0)
    plain = statistics.median(q["wall_s"] for q in res["passes"])
    out["bench.trace_overhead_share"] = res["traced_wall_s"] / plain
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        records: int | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (description of the run, result line).

    ``records`` shrinks the workload below its defined size, for tests.
    """
    start = monotonic()
    spec = _read_spec()
    build = workloads.BUILDERS[workload]
    w = build(seed) if records is None else build(seed, records)
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(w, work, start + DEADLINE_S)
        setup = [] if trace else runner.setup_samples()
        res = runner.worker(seconds, *(["--trace"] if trace else []))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first_errors = {int(i): msg for i, msg in res["passes"][0]["errors"].items()}
    chk = checks.check(w.entry, w.expect, res["reports"], first_errors)
    n = len(w.expect)
    correct = not chk["wrong"] and res["records"] == n
    attempted = failed = 0
    for q in res["passes"]:
        attempted += n
        if q["same_as_first"] and q["errors"].keys() == res["passes"][0]["errors"].keys():
            failed += len(chk["failed"])
        else:
            failed += n
            correct = False
    if trace:
        correct = correct and res["traced_identical"]
        values = per_layer(res)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(res, setup, chk["ok_cells"] / chk["cells"])
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured on {workload}: {missing}")
    info = {
        "workload": workload,
        "host": host_facts(seed),
        "seconds": seconds,
        "trace": trace,
        "records": n,
        "pass_wall_s": [q["wall_s"] for q in res["passes"]],
        "latency_samples": sum(len(q["latencies"]) for q in res["passes"]),
        "failed_share": failed / attempted,
        "ok_cells": [chk["ok_cells"], chk["cells"]],
        "setup_samples_s": setup,
        "errors": dict(list(first_errors.items())[:20]),
        "wrong": {str(i): p for i, p in list(chk["wrong"].items())[:20]},
        "elapsed_s": monotonic() - start,
    }
    if trace:
        info["traced_identical"] = res["traced_identical"]
        info["trace"] = res["trace"]
        info["all_layer_metrics"] = values
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
