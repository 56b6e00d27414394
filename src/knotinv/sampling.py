"""Random diagram generators for property tests.

Tangles are grown by horizontal/vertical composition of single crossings,
which keeps planarity and connectivity for free.  Ports are tracked
abstractly; over/under data is assigned at the end by solving the
alternation constraints (each edge must join an over-end to an under-end),
after which individual crossings can be flipped to produce non-alternating,
almost-alternating, or genus-one cycle diagrams.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .diagram import Diagram, DiagramError

__all__ = [
    "TangleSketch",
    "crossing_sketch",
    "hsum",
    "vsum",
    "random_tangle_sketch",
    "assemble",
    "random_alternating_diagram",
    "random_diagram",
    "random_genus_one_diagram",
    "random_almost_alternating_diagram",
]

# a port is (vertex, k) with k = 0..3 in counterclockwise order
Port = tuple[int, int]


class TangleSketch(NamedTuple):
    """A planar 2-tangle under construction: vertices, internal joins, and
    four open boundary ports (nw, ne, se, sw)."""

    vertex_count: int
    joins: list[tuple[Port, Port]]
    nw: Port
    ne: Port
    se: Port
    sw: Port


def crossing_sketch(base: int = 0) -> TangleSketch:
    # fresh vertex: ports 0..3 counterclockwise; compass ne, nw, sw, se
    return TangleSketch(1, [], nw=(base, 1), ne=(base, 0), se=(base, 3), sw=(base, 2))


def _shift(t: TangleSketch, by: int) -> TangleSketch:
    sh = lambda p: (p[0] + by, p[1])
    return TangleSketch(
        t.vertex_count,
        [(sh(a), sh(b)) for a, b in t.joins],
        nw=sh(t.nw), ne=sh(t.ne), se=sh(t.se), sw=sh(t.sw),
    )


def hsum(t1: TangleSketch, t2: TangleSketch) -> TangleSketch:
    """Place t1 to the west of t2 and join the facing ports."""
    t2 = _shift(t2, t1.vertex_count)
    joins = t1.joins + t2.joins + [(t1.ne, t2.nw), (t1.se, t2.sw)]
    return TangleSketch(t1.vertex_count + t2.vertex_count, joins,
                        nw=t1.nw, ne=t2.ne, se=t2.se, sw=t1.sw)


def vsum(t1: TangleSketch, t2: TangleSketch) -> TangleSketch:
    """Stack t1 above t2 and join the facing ports."""
    t2 = _shift(t2, t1.vertex_count)
    joins = t1.joins + t2.joins + [(t1.sw, t2.nw), (t1.se, t2.ne)]
    return TangleSketch(t1.vertex_count + t2.vertex_count, joins,
                        nw=t1.nw, ne=t1.ne, se=t2.se, sw=t2.sw)


def random_tangle_sketch(n: int, rng: random.Random) -> TangleSketch:
    if n == 1:
        return crossing_sketch()
    n1 = rng.randint(1, n - 1)
    op = rng.choice((hsum, vsum))
    return op(random_tangle_sketch(n1, rng), random_tangle_sketch(n - n1, rng))


def _solve_phases(vertex_count: int, joins: list[tuple[Port, Port]]) -> list[int]:
    """Choose a phase (rotation parity) per vertex so every join is
    alternating: the two end slot parities must differ."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(vertex_count)}
    for (v1, k1), (v2, k2) in joins:
        # (k1 + p1) + (k2 + p2) must be odd
        need = (1 - k1 - k2) % 2
        adj[v1].append((v2, need))
        adj[v2].append((v1, need))
    phase = [-1] * vertex_count
    for start in range(vertex_count):
        if phase[start] != -1:
            continue
        phase[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w, need in adj[v]:
                want = (need - phase[v]) % 2
                if phase[w] == -1:
                    phase[w] = want
                    stack.append(w)
                elif phase[w] != want:
                    raise DiagramError("no alternating assignment (non-planar sketch?)")
    return phase


def assemble(vertex_count: int, joins: list[tuple[Port, Port]],
             flips: set[int] = frozenset(), mirror_all: bool = False) -> Diagram:
    """Close a sketch whose ports are fully joined into a PD diagram.

    ``flips`` switches the over-strand at those vertices; ``mirror_all``
    picks the other global alternating assignment.
    """
    seen: dict[Port, int] = {}
    for a, b in joins:
        for p in (a, b):
            seen[p] = seen.get(p, 0) + 1
    if len(seen) != 4 * vertex_count or any(n != 1 for n in seen.values()):
        raise DiagramError("sketch ports are not perfectly matched")
    phase = _solve_phases(vertex_count, joins)
    offset = [
        (phase[v] + (1 if mirror_all else 0) + (1 if v in flips else 0)) % 2
        for v in range(vertex_count)
    ]
    edge_of: dict[Port, int] = {}
    for label, (a, b) in enumerate(sorted(joins), start=1):
        edge_of[a] = label
        edge_of[b] = label
    crossings = tuple(
        tuple(edge_of[(v, (s + offset[v]) % 4)] for s in range(4))
        for v in range(vertex_count)
    )
    return Diagram(crossings)


def _closed_joins(t: TangleSketch, closure: str) -> list[tuple[Port, Port]]:
    """The sketch's joins plus the two closing ones: the "N" closure joins
    the north pair over the top and the south pair under the bottom, the
    "D" closure the east pair and the west pair."""
    if closure == "N":
        return t.joins + [(t.nw, t.ne), (t.sw, t.se)]
    return t.joins + [(t.ne, t.se), (t.nw, t.sw)]


def random_alternating_diagram(n: int, rng: random.Random) -> Diagram:
    t = random_tangle_sketch(n, rng)
    joins = _closed_joins(t, rng.choice(("N", "D")))
    return assemble(t.vertex_count, joins, mirror_all=rng.random() < 0.5)


def random_diagram(n: int, rng: random.Random) -> Diagram:
    """A random connected diagram: an alternating one with random flips."""
    t = random_tangle_sketch(n, rng)
    joins = _closed_joins(t, rng.choice(("N", "D")))
    flips = {v for v in range(n) if rng.random() < 0.5}
    return assemble(n, joins, flips=flips, mirror_all=rng.random() < 0.5)


def random_genus_one_diagram(
    k: int, rng: random.Random, tangle_sizes: list[int] | None = None
) -> Diagram:
    """2k alternating tangles in a cycle with flipped joints.

    Consecutive tangles are joined side by side; flipping every crossing of
    the odd-position tangles makes exactly the connecting edges
    non-alternating, which is the genus-one normal form.
    """
    m = 2 * k
    if tangle_sizes is None:
        tangle_sizes = [rng.randint(1, 4) for _ in range(m)]
    sketches = [random_tangle_sketch(sz, rng) for sz in tangle_sizes]
    shifted = []
    base = 0
    for s in sketches:
        shifted.append(_shift(s, base))
        base += s.vertex_count
    joins = []
    for s in shifted:
        joins.extend(s.joins)
    for i, s in enumerate(shifted):
        nxt = shifted[(i + 1) % m]
        joins.append((s.ne, nxt.nw))
        joins.append((s.se, nxt.sw))
    # flip all vertices belonging to odd-position tangles
    flips = set()
    base = 0
    for i, s in enumerate(sketches):
        if i % 2:
            flips |= set(range(base, base + s.vertex_count))
        base += s.vertex_count
    return assemble(base, joins, flips=flips, mirror_all=rng.random() < 0.5)


def random_almost_alternating_diagram(
    n: int, rng: random.Random, max_tries: int = 1000
) -> tuple[Diagram, int]:
    """An almost-alternating diagram: alternating tangle plus a flipped
    clasp crossing closing it.  Returns (diagram, dealternator index);
    retries until both smoothings of the dealternator are reduced.

    Needs n >= 5, and refuses a smaller n before any draw: D(R) and N(R)
    are the two closures of the n - 1 crossing tangle, and with n - 1 <= 3
    the tangle's top-level sum has a one-crossing summand, which leaves a
    kink in one closure."""
    from .analysis import DiagramAnalysis
    from .invariants import _check_aa_reduced

    if n < 5:
        raise DiagramError(f"an almost-alternating sample needs n >= 5 crossings, got {n}")
    for _ in range(max_tries):
        t = random_tangle_sketch(n - 1, rng)
        x = crossing_sketch(base=n - 1)
        joins = t.joins + [
            (t.ne, x.nw), (t.se, x.sw),   # side by side
            (t.nw, x.ne), (t.sw, x.se),   # closed around top and bottom
        ]
        d = assemble(n, joins, flips={n - 1}, mirror_all=rng.random() < 0.5)
        try:
            _check_aa_reduced(DiagramAnalysis(d))
        except DiagramError:
            continue
        return d, n - 1
    raise DiagramError(f"no reduced almost-alternating sample found in {max_tries} tries")
