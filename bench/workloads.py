"""Seeded inputs for the benchmark workloads.

Each workload is one input file in the format the CLI reads (a PD file or a
CSV table) plus, per record, what the generator knows about it.  The worker
process sees only the file; the expectations stay in ``run.py``, which uses
them to check the outputs after the timed loop.

The mix of generators and crossing counts in a workload is fixed; only the
diagrams and polynomials drawn for each slot depend on the seed.  Per-record
cost grows as 2^c, so drawing crossing counts at random would make the
throughput of a run depend on the seed more than on the code.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from knotinv import jones, orient, s_A, s_B, serialize_pd
from knotinv.sampling import (
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
    random_genus_one_diagram,
)


@dataclass(frozen=True)
class Workload:
    """One generated workload: the input file and one expectation per record."""

    name: str
    entry: str  # the knotinv.cli per-record function the CLI loops over
    reader: str  # the knotinv.textio reader for the input file
    filename: str
    text: str
    expect: tuple[dict, ...]


def _spread(count: int, lo: int, hi: int) -> list[int]:
    """``count`` crossing counts covering lo..hi as evenly as possible."""
    return [lo + i % (hi - lo + 1) for i in range(count)]


def _parts(total: int, m: int, cap: int, rng: random.Random) -> list[int]:
    """A random composition of ``total`` into ``m`` parts in 1..cap."""
    if not m <= total <= m * cap:
        raise ValueError(f"cannot split {total} into {m} parts of 1..{cap}")
    sizes = [1] * m
    for _ in range(total - m):
        i = rng.choice([j for j in range(m) if sizes[j] < cap])
        sizes[i] += 1
    return sizes


def _turaev_genus(d) -> int:
    return (2 + d.crossing_count - s_A(d) - s_B(d)) // 2


def _pd_text(slots: list[tuple[str, object, dict]]) -> tuple[str, tuple[dict, ...]]:
    lines = []
    expect = []
    for i, (kind, d, extra) in enumerate(slots):
        name = f"{kind}-{i:04d}-c{d.crossing_count}"
        lines.append(f"{name}: {serialize_pd(d)}")
        expect.append({"name": name, "kind": kind, "pd": serialize_pd(d), **extra})
    return "\n".join(lines) + "\n", tuple(expect)


def _levels(records: int, lo: int, weights: tuple[int, ...]) -> list[int]:
    """Crossing counts lo, lo+1, ... in proportion to ``weights``."""
    total = sum(weights)
    counts = [records * w // total for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda i: -(records * weights[i] % total))
    for i in by_remainder[: records - sum(counts)]:
        counts[i] += 1
    return [lo + i for i, n in enumerate(counts) for _ in range(n)]


def _with_components(make, knot: bool, tries: int = 500):
    """Draw from ``make`` until the diagram is a knot (or a link, if not ``knot``)."""
    for _ in range(tries):
        d = make()
        if (orient(d).component_count == 1) == knot:
            return d
    raise RuntimeError(f"no {'knot' if knot else 'link'} in {tries} draws")


# Share of table-invariants records per crossing count 10..15.  Each ambient
# bracket costs 2^c, so the median and the 90th percentile land inside the
# 13- and 15-crossing groups rather than on a boundary between two groups.
_TABLE_WEIGHTS = (14, 14, 17, 19, 18, 18)
_TABLE_KINDS = ("random", "alternating", "genus_one", "random", "alternating",
                "genus_one", "random", "alternating", "genus_one", "random")


def table_invariants(seed: int, records: int = 100) -> Workload:
    """analyze_record over diagrams of 10-15 crossings: 40% random, 30%
    alternating, 30% genus-one normal form with k = 1-2 and tangles of
    near-equal size.  Two records in three of each family are knots."""
    rng = random.Random(seed)
    slots = []
    seen = dict.fromkeys(_TABLE_KINDS, 0)
    for i, c in enumerate(_levels(records, 10, _TABLE_WEIGHTS)):
        kind = _TABLE_KINDS[i % len(_TABLE_KINDS)]
        j = seen[kind]
        seen[kind] += 1
        knot = j % 3 != 2
        extra = {}
        if kind == "random":
            make = lambda: random_diagram(c, rng)
        elif kind == "alternating":
            make = lambda: random_alternating_diagram(c, rng)
        else:
            k = 1 + j % 2
            sizes = [c // (2 * k) + (t < c % (2 * k)) for t in range(2 * k)]
            make = lambda: random_genus_one_diagram(k, rng, sizes)
            extra = {"k": k}
        slots.append((kind, _with_components(make, knot), extra))
    rng.shuffle(slots)
    text, expect = _pd_text(slots)
    return Workload("table-invariants", "analyze_record", "read_pd_file", "table.pd", text, expect)


def genus_one_decompose(seed: int, records: int = 400) -> Workload:
    """decompose_record over diagrams of 12-60 crossings: 80% genus-one normal
    form with 2-8 tangles of at most 8 crossings, 10% almost-alternating of
    10-14 and 26-40 crossings, 10% random diagrams of Turaev genus >= 2."""
    rng = random.Random(seed)
    n_aa = n_rand = records // 10
    n_g1 = records - n_aa - n_rand
    slots = []
    for i in range(n_g1):
        k = 1 + i % 4
        lo, hi = max(12, 2 * k), min(60, 16 * k)
        c = lo + (i // 4) % (hi - lo + 1)
        d = random_genus_one_diagram(k, rng, _parts(c, 2 * k, 8, rng))
        slots.append(("genus_one", d, {"k": k}))
    sizes = _spread(n_aa // 2, 10, 14) + _spread(n_aa - n_aa // 2, 26, 40)
    for c in sizes:
        d, _ = random_almost_alternating_diagram(c, rng)
        slots.append(("almost_alternating", d, {}))
    for c in _spread(n_rand, 12, 60):
        while True:
            d = random_diagram(c, rng)
            g = _turaev_genus(d)
            if g >= 2:
                break
        slots.append(("random", d, {"turaev_genus": g}))
    rng.shuffle(slots)
    text, expect = _pd_text(slots)
    return Workload("genus-one-decompose", "decompose_record", "read_pd_file", "decompose.pd", text, expect)


def _term_text(h: int, coef: int, bits: int) -> str:
    """One signed monomial c*t^(h/2), in the accepted syntax picked by ``bits``."""
    sign = "-" if coef < 0 else "+"
    mag = abs(coef)
    if h == 0:
        return f"{sign}{mag}"
    braces = ("{%d/2}", "%d/2", "{%d}", "%d")[bits & 1 | (h % 2 == 0) << 1]
    if h == 2 and bits & 2:
        var = "t"
    else:
        var = "t^" + braces % (h if h % 2 else h // 2)
    if mag == 1 and bits & 12:
        return sign + var
    return sign + str(mag) + ("*" if bits & 16 else "") + var


def _poly_text(coeffs: dict[int, int], rng: random.Random) -> str:
    bits = rng.getrandbits(6 * len(coeffs) + 3)
    terms = []
    for h, c in sorted(coeffs.items(), reverse=bool(bits & 1)):
        bits >>= 1
        t = _term_text(h, c, bits)
        terms.append(t[0] + " " + t[1:] if bits & 32 else t)
        bits >>= 5
    text = " ".join(terms) if bits & 1 else "".join(terms)
    return text[1:] if text[0] == "+" and bits & 2 else text


def _random_coeffs(rng: random.Random) -> dict[int, int]:
    """A random Jones-like polynomial: integer or half-integer exponents."""
    r = rng.random
    span = 1 + int(12 * r())
    low = 2 * int(-8 + 15 * r()) + (r() < 0.2)
    coeffs = {}
    for j in range(span + 1):
        end = j in (0, span)
        if not end and r() < 0.2:
            continue
        mag = (1, 1, 2, 3, 4, 5, 6)[int(7 * r())] if end else 1 + int(9 * r())
        coeffs[low + 2 * j] = mag if r() < 0.5 else -mag
    return coeffs


def _verdict(coeffs: dict[int, int]) -> dict:
    a_m, a_M = coeffs[min(coeffs)], coeffs[max(coeffs)]
    return {"a_m": a_m, "a_M": a_M, "fires": abs(a_m) >= 2 and abs(a_M) >= 2}


_MALFORMED = (
    ("2t^2 3t^3", "missing sign between terms"),
    ("t^{1/3} + 1", "exponent '1/3' is not a half-integer"),
    ("2x^2 + 1", "malformed polynomial"),
    ("^3 - t", "malformed polynomial"),
)


def obstruct_csv(seed: int, records: int = 100_000) -> Workload:
    """obstruct_record over CSV rows: 99% polynomial only, 1% with a PD code of
    8-12 crossings, and 0.05% each of mismatched and malformed rows."""
    rng = random.Random(seed)
    n_pd = records // 100
    n_bad = max(1, records // 2000)
    rows = []
    for i, c in enumerate(_spread(n_pd, 8, 12)):
        gen = (random_diagram, random_alternating_diagram)[i % 2]
        d = gen(c, rng)
        coeffs = dict(jones(orient(d)).coeffs)
        kind, extra = "pd", {"verdict": _verdict(coeffs), "terms": sorted(coeffs.items())}
        if i < n_bad:
            kind, extra = "mismatch", {}
            h = rng.choice(sorted(coeffs))
            coeffs[h] += 1 if coeffs[h] != -1 else -1
        rows.append((kind, _poly_text(coeffs, rng), serialize_pd(d), extra))
    for i in range(n_bad):
        text, message = _MALFORMED[i % len(_MALFORMED)]
        rows.append(("malformed", text, "", {"message": message}))
    while len(rows) < records:
        coeffs = _random_coeffs(rng)
        rows.append(("poly", _poly_text(coeffs, rng), "", {"verdict": _verdict(coeffs)}))
    rng.shuffle(rows)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("name", "jones", "pd"))
    expect = []
    for i, (kind, poly, pd, extra) in enumerate(rows):
        name = f"{kind}-{i:06d}"
        w.writerow((name, poly, pd))
        expect.append({"name": name, "kind": kind, "pd": pd, **extra})
    return Workload("obstruct-csv", "obstruct_record", "read_csv", "obstruct.csv", buf.getvalue(), tuple(expect))


BUILDERS = {
    "table-invariants": table_invariants,
    "genus-one-decompose": genus_one_decompose,
    "obstruct-csv": obstruct_csv,
}
