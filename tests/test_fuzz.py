"""Corrupted PD codes get a per-record answer or error, never a traceback."""

import random

from hypothesis import given, settings, strategies as st

from knotinv.cli import KnotRecord, analyze_record, decompose_record
from knotinv.sampling import random_alternating_diagram, random_diagram, random_genus_one_diagram

GENERATORS = (
    lambda rng: random_alternating_diagram(rng.randint(1, 12), rng),
    lambda rng: random_diagram(rng.randint(1, 12), rng),
    lambda rng: random_genus_one_diagram(rng.randint(1, 2), rng),
)


def _corrupt(ends: list[list[int]], how: str, rng: random.Random) -> list[list[int]]:
    i = rng.randrange(len(ends))
    if how == "label":
        ends[i][rng.randrange(4)] = rng.randint(1, 2 * len(ends) + 1)
    elif how == "drop":
        del ends[i]
    elif how == "swap":
        j = rng.randrange(len(ends))
        s, t = rng.randrange(4), rng.randrange(4)
        ends[i][s], ends[j][t] = ends[j][t], ends[i][s]
    else:
        ends.append(list(ends[i]))
    return ends


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(range(len(GENERATORS))),
    how=st.sampled_from(("label", "drop", "swap", "duplicate")),
)
def test_corrupted_pd_never_raises(seed, family, how):
    rng = random.Random(seed)
    d = GENERATORS[family](rng)
    ends = _corrupt([list(x) for x in d.crossings], how, rng)
    rec = KnotRecord(name="fuzz", pd_text=" ".join("X[%d,%d,%d,%d]" % tuple(x) for x in ends))
    for entry in (analyze_record, decompose_record):
        rep = entry(rec)
        assert rep["status"] in ("ok", "error")
