"""Random diagram generators for property tests.

Tangles are grown by horizontal/vertical composition of single crossings,
which keeps planarity and connectivity for free, and closed by joining
their boundary ports.  Over/under data is assigned at the end from the
checkerboard colouring of the closed sketch's faces, which turns each
crossing so that every edge joins an over-end to an under-end; individual
crossings can then be flipped to produce non-alternating,
almost-alternating, or genus-one cycle diagrams.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
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


def crossing_sketch() -> TangleSketch:
    # fresh vertex 0: ports 0..3 counterclockwise; compass ne, nw, sw, se
    return TangleSketch(1, [], nw=(0, 1), ne=(0, 0), se=(0, 3), sw=(0, 2))


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
    if n < 1:
        raise DiagramError(f"a tangle sample needs n >= 1 crossings, got {n}")
    if n == 1:
        return crossing_sketch()
    n1 = rng.randint(1, n - 1)
    op = rng.choice((hsum, vsum))
    return op(random_tangle_sketch(n1, rng), random_tangle_sketch(n - n1, rng))


def assemble(vertex_count: int, joins: list[tuple[Port, Port]],
             flips: set[int] = frozenset(), mirror_all: bool = False) -> Diagram:
    """Close a sketch whose ports are fully joined into a PD diagram.

    Port k of vertex v is first put at slot k of crossing v.  The colour of
    the face at corner 0 of crossing v is then the phase that ``validate``'s
    colouring walk gives it, which flips across an edge whose two ends have
    the same slot parity, so turning each crossing a quarter where it is 1
    makes every edge join an even slot to an odd one: an alternating
    diagram.  ``flips`` switches the over-strand at those vertices;
    ``mirror_all`` picks the other global alternating assignment.
    """
    ends = sorted(p for join in joins for p in join)
    if ends != [(v, k) for v in range(vertex_count) for k in range(4)]:
        raise DiagramError("sketch ports are not perfectly matched")
    edge_of: dict[Port, int] = {}
    for label, (a, b) in enumerate(sorted(joins), start=1):
        edge_of[a] = edge_of[b] = label
    ports = [[edge_of[(v, k)] for k in range(4)] for v in range(vertex_count)]
    fs = Diagram(ports).fs
    crossings = []
    for v, x in enumerate(ports):
        turn = (fs.checkerboard_color[fs.face_of[4 * v]] + mirror_all + (v in flips)) % 2
        crossings.append(x[turn:] + x[:turn])
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

    The tangles are summed side by side and the sum is closed by joining
    its east ports to its west ones; flipping every crossing of the
    odd-position tangles makes exactly the connecting edges
    non-alternating, which is the genus-one normal form.  Refuses k < 1,
    and given sizes that are not 2k sizes of at least 1, before any draw.
    """
    if k < 1:
        raise DiagramError(f"a genus-one sample needs k >= 1, got {k}")
    m = 2 * k
    if tangle_sizes is None:
        tangle_sizes = [rng.randint(1, 4) for _ in range(m)]
    elif len(tangle_sizes) != m or min(tangle_sizes) < 1:
        raise DiagramError(f"a genus-one sample needs {m} tangle sizes >= 1, got {tangle_sizes}")
    t = reduce(hsum, [random_tangle_sketch(sz, rng) for sz in tangle_sizes])
    joins = t.joins + [(t.ne, t.nw), (t.se, t.sw)]
    # flip all vertices belonging to odd-position tangles
    starts = list(accumulate(tangle_sizes, initial=0))
    flips = {v for i in range(1, m, 2) for v in range(starts[i], starts[i + 1])}
    return assemble(t.vertex_count, joins, flips=flips, mirror_all=rng.random() < 0.5)


def _check_aa_reduced(d: Diagram, deal: int | None) -> tuple[int, int, int, int]:
    """The faces (u1, u2, v1, v2) at the dealternator ``deal`` of ``d``: u1,
    u2 at its corners 1 and 3, which its A-smoothing D(R) merges, and v1, v2
    at corners 0 and 2, which its B-smoothing N(R) merges.

    Refuses a diagram with no dealternator (``deal`` None), with these
    faces not distinct, or whose D(R) or N(R) is not reduced, read off D's
    faces.  A smoothing keeps D's faces, less their corners at the
    dealternator, but merges two, so it is reduced iff no face meets
    another crossing twice, the merged two counted as one."""
    if deal is None:
        raise DiagramError("not almost alternating: no crossing has exactly the four non-alternating edges")
    face_of = d.fs.face_of
    v1, u1, v2, u2 = face_of[4 * deal:4 * deal + 4]
    if len({u1, u2, v1, v2}) != 4:
        raise DiagramError("dealternator faces are not distinct (diagram simplifies)")
    corners = [face_of[b:b + 4] for b in range(0, len(face_of), 4)]
    del corners[deal]
    for name, keep, merged in (("D(R)", u1, u2), ("N(R)", v1, v2)):
        if any(len({keep if f == merged else f for f in fs}) < 4 for fs in corners):
            raise DiagramError(f"{name} is not reduced (the diagram simplifies)")
    return u1, u2, v1, v2


_MAX_TRIES = 1000  # draws of an almost-alternating sample before it gives up


def random_almost_alternating_diagram(n: int, rng: random.Random) -> tuple[Diagram, int]:
    """An almost-alternating diagram: alternating tangle plus a flipped
    clasp crossing closing it.  Returns (diagram, dealternator index);
    retries until both smoothings of the dealternator are reduced.

    Needs n >= 5, and refuses a smaller n before any draw: D(R) and N(R)
    are the two closures of the n - 1 crossing tangle, and with n - 1 <= 3
    the tangle's top-level sum has a one-crossing summand, which leaves a
    kink in one closure."""
    if n < 5:
        raise DiagramError(f"an almost-alternating sample needs n >= 5 crossings, got {n}")
    for _ in range(_MAX_TRIES):
        t = random_tangle_sketch(n - 1, rng)
        joins = _closed_joins(hsum(t, crossing_sketch()), "N")
        d = assemble(n, joins, flips={n - 1}, mirror_all=rng.random() < 0.5)
        try:
            _check_aa_reduced(d, n - 1)
        except DiagramError:
            continue
        return d, n - 1
    raise DiagramError(f"no reduced almost-alternating sample found in {_MAX_TRIES} tries")
