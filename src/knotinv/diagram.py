"""Planar link diagrams encoded as PD codes.

A diagram is a list of crossings, each a 4-tuple of edge labels read
counterclockwise starting at the incoming under-strand.  Geometrically the
four slots of a crossing sit at the compass points S, E, N, W (slots
0, 1, 2, 3), so the under-strand occupies slots 0 and 2 and the over-strand
slots 1 and 3.  All face/corner bookkeeping below is derived from that
rotation system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re

__all__ = [
    "PDSyntaxError",
    "DiagramError",
    "Crossing",
    "Diagram",
    "FaceStructure",
    "OrientedDiagram",
    "parse_pd",
    "serialize_pd",
    "validate",
    "orient",
    "crossing_signs",
    "mirror",
]


class PDSyntaxError(ValueError):
    """Malformed PD text."""


class DiagramError(ValueError):
    """Structurally invalid diagram (bad labels, non-planar, split, ...)."""


# An edge end: (crossing index, slot 0..3).
Position = tuple[int, int]


@dataclass(frozen=True)
class Crossing:
    ends: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.ends) != 4:
            raise DiagramError(f"crossing needs 4 ends, got {self.ends!r}")


@dataclass(frozen=True)
class Diagram:
    """An unoriented PD-coded diagram.

    ``free_loops`` counts crossingless circle components; the empty diagram
    with one free loop is the 0-crossing unknot.
    """

    crossings: tuple[Crossing, ...]
    edge_count: int
    free_loops: int = 0

    def __post_init__(self):
        seen: dict[int, int] = {}
        for x in self.crossings:
            for e in x.ends:
                if not isinstance(e, int) or e < 1 or e > self.edge_count:
                    raise DiagramError(f"edge label {e!r} out of range 1..{self.edge_count}")
                seen[e] = seen.get(e, 0) + 1
        for e in range(1, self.edge_count + 1):
            if seen.get(e, 0) != 2:
                raise DiagramError(f"edge {e} appears {seen.get(e, 0)} times, expected 2")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def edge_ends(self) -> dict[int, list[Position]]:
        """Map each edge label to its two end positions, in scan order."""
        ends: dict[int, list[Position]] = {e: [] for e in range(1, self.edge_count + 1)}
        for ci, x in enumerate(self.crossings):
            for s, e in enumerate(x.ends):
                ends[e].append((ci, s))
        return ends

    def end_slots(self, edge: int) -> tuple[int, int]:
        slots = [s for x in self.crossings for s, e in enumerate(x.ends) if e == edge]
        return (slots[0], slots[1])


_TOKEN_RE = re.compile(r"^(?:X)?[\[\(]([^\]\)]*)[\]\)]$")


def parse_pd(text: str) -> Diagram:
    """Parse whitespace-separated ``X[a,b,c,d]`` tokens into a Diagram.

    Also accepts ``X(a,b,c,d)`` and bare ``[a,b,c,d]`` / ``(a,b,c,d)``
    tuples; each ``U`` token adds one free unknotted loop.  Empty text is
    the 0-crossing unknot.
    """
    tokens = text.split()
    if not tokens:
        return Diagram(crossings=(), edge_count=0, free_loops=1)
    crossings: list[Crossing] = []
    free_loops = 0
    for tok in tokens:
        if tok == "U":
            free_loops += 1
            continue
        m = _TOKEN_RE.match(tok)
        if not m:
            raise PDSyntaxError(f"malformed token {tok!r}")
        items = [p for p in m.group(1).split(",") if p.strip()]
        if len(items) != 4:
            raise PDSyntaxError(f"malformed token {tok!r} (arity {len(items)})")
        try:
            ends = tuple(int(p) for p in items)
        except ValueError:
            raise PDSyntaxError(f"non-integer label in token {tok!r}") from None
        crossings.append(Crossing(ends=ends))
    edge_count = max((e for x in crossings for e in x.ends), default=0)
    return Diagram(crossings=tuple(crossings), edge_count=edge_count, free_loops=free_loops)


def serialize_pd(d: Diagram) -> str:
    toks = ["X[%d,%d,%d,%d]" % x.ends for x in d.crossings]
    toks.extend("U" for _ in range(d.free_loops))
    return " ".join(toks)


@dataclass(frozen=True)
class FaceStructure:
    """Faces of the rotation system plus a proper checkerboard 2-coloring.

    Each face is a tuple of corners ``(crossing, k)``: the corner of that
    crossing between slots k and k+1.  ``checkerboard_color[f]`` is 0 or 1.
    """

    faces: tuple[tuple[Position, ...], ...]
    checkerboard_color: tuple[int, ...]
    corner_face: dict[Position, int] = field(repr=False, default_factory=dict)

    @property
    def face_count(self) -> int:
        return len(self.faces)


def _face_orbits(d: Diagram) -> list[list[Position]]:
    """Face traversal: arriving at slot s, the face continues from slot s+1.

    Returns one corner list per face; corner (c, s) is swept between the
    arrival at slot s and the departure at slot s+1.
    """
    ends = d.edge_ends()
    # dart identified by its arrival position; 4c darts in total
    unvisited = {(ci, s) for ci, x in enumerate(d.crossings) for s in range(4)}
    faces = []
    while unvisited:
        start = min(unvisited)
        orbit = []
        pos = start
        while True:
            orbit.append(pos)
            unvisited.discard(pos)
            ci, s = pos
            dep = (ci, (s + 1) % 4)
            edge = d.crossings[ci].ends[(s + 1) % 4]
            p, q = ends[edge]
            pos = q if p == dep else p
            if pos == start:
                break
        faces.append(orbit)
    return faces


def validate(d: Diagram) -> FaceStructure:
    """Check planarity (Euler characteristic 2) and connectedness.

    Returns the face structure with a checkerboard coloring; raises
    DiagramError on split or non-planar input.
    """
    c = d.crossing_count
    if c == 0:
        if d.free_loops != 1:
            raise DiagramError("split diagram: expected exactly one free loop with no crossings")
        return FaceStructure(faces=((), ()), checkerboard_color=(0, 1))
    if d.free_loops:
        raise DiagramError("split diagram: free loops alongside crossings")
    # connectedness of the 4-regular graph
    parent = list(range(c))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ends = d.edge_ends()
    for (c1, _), (c2, _) in ends.values():
        r1, r2 = find(c1), find(c2)
        if r1 != r2:
            parent[r1] = r2
    if len({find(i) for i in range(c)}) != 1:
        raise DiagramError("split diagram: crossing graph is disconnected")

    orbits = _face_orbits(d)
    euler = c - d.edge_count + len(orbits)
    if euler != 2:
        raise DiagramError(f"not planar: Euler characteristic {euler} != 2")

    corner_face = {}
    for fi, orbit in enumerate(orbits):
        for pos in orbit:
            corner_face[pos] = fi
    # checkerboard coloring: faces flanking a common edge get opposite
    # colors.  Each face step from corner (c, s) runs along the edge at slot
    # s+1, so that edge-side belongs to this face.
    edge_sides: dict[int, list[int]] = {e: [] for e in range(1, d.edge_count + 1)}
    for fi, orbit in enumerate(orbits):
        for ci, s in orbit:
            edge_sides[d.crossings[ci].ends[(s + 1) % 4]].append(fi)
    neighbors: dict[int, list[int]] = {fi: [] for fi in range(len(orbits))}
    for sides in edge_sides.values():
        f1, f2 = sides
        neighbors[f1].append(f2)
        neighbors[f2].append(f1)
    colors: list[int | None] = [None] * len(orbits)
    # anchor: the face at corner (0, 0) gets the color its slot parity would
    # give in an alternating diagram, keeping colors stable across inputs
    stack = [(corner_face[(0, 0)], 0)]
    while stack:
        fi, col = stack.pop()
        if colors[fi] is not None:
            if colors[fi] != col:
                raise DiagramError("inconsistent checkerboard coloring")
            continue
        colors[fi] = col
        stack.extend((other, 1 - col) for other in neighbors[fi])
    if any(c is None for c in colors):
        raise DiagramError("inconsistent checkerboard coloring")
    return FaceStructure(
        faces=tuple(tuple(o) for o in orbits),
        checkerboard_color=tuple(colors),
        corner_face=corner_face,
    )


@dataclass(frozen=True)
class OrientedDiagram:
    """A diagram with a direction chosen on every edge.

    ``head`` maps each edge to the end position it points into; the tail is
    the other end.  ``edge_direction`` reports forward/backward relative to
    the edge's scan-order first position.
    """

    diagram: Diagram
    head: dict[int, Position] = field(repr=False, default_factory=dict)
    component_of: dict[int, int] = field(repr=False, default_factory=dict)
    component_count: int = 1

    @property
    def edge_direction(self) -> dict[int, str]:
        ends = self.diagram.edge_ends()
        return {
            e: ("forward" if self.head[e] == max(ends[e]) else "backward")
            for e in range(1, self.diagram.edge_count + 1)
        }


def _strand_components(d: Diagram) -> list[list[int]]:
    """Group edges into strand cycles (under: slots 0-2, over: slots 1-3)."""
    n = d.edge_count
    parent = list(range(n + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in d.crossings:
        a, b, cc, dd = x.ends
        ra, rc = find(a), find(cc)
        if ra != rc:
            parent[ra] = rc
        rb, rd = find(b), find(dd)
        if rb != rd:
            parent[rb] = rd
    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return sorted(groups.values(), key=min)


def orient(
    d: Diagram, head: dict[int, Position] | None = None, fs: FaceStructure | None = None
) -> OrientedDiagram:
    """Orient every component; the lowest edge of each component is directed
    from its scan-order first end to its second.

    A precomputed ``head`` map (edge -> head position) may be supplied to
    impose an induced orientation instead of the default one.  ``fs``, the
    face structure :func:`validate` returned for ``d``, spares validating
    the diagram again.
    """
    if fs is None:
        validate(d)
    ends = d.edge_ends()
    comps = _strand_components(d)
    component_of: dict[int, int] = {}
    heads: dict[int, Position] = {}
    for idx, comp in enumerate(comps):
        for e in comp:
            component_of[e] = idx
        if head is not None:
            continue
        e0 = min(comp)
        pos = max(ends[e0])  # head of the lowest edge: its second occurrence
        e = e0
        while True:
            heads[e] = pos
            ci, s = pos
            out_slot = (s + 2) % 4
            e = d.crossings[ci].ends[out_slot]
            p, q = ends[e]
            pos = q if p == (ci, out_slot) else p
            if e == e0:
                break
    if head is not None:
        heads = dict(head)
        for e in range(1, d.edge_count + 1):
            if heads.get(e) not in ends[e]:
                raise DiagramError(f"bad head position for edge {e}")
    # two-in / two-out check at every crossing, paired under/under over/over
    for ci, x in enumerate(d.crossings):
        under_in = sum(1 for s in (0, 2) if heads[x.ends[s]] == (ci, s))
        over_in = sum(1 for s in (1, 3) if heads[x.ends[s]] == (ci, s))
        if d.edge_count and (under_in != 1 or over_in != 1):
            raise DiagramError(f"incoherent orientation at crossing {ci}")
    return OrientedDiagram(
        diagram=d,
        head=heads,
        component_of=component_of,
        component_count=len(comps) + d.free_loops,
    )


def crossing_signs(od: OrientedDiagram) -> tuple[tuple[int, ...], int, int, int]:
    """Per-crossing signs plus (c_plus, c_minus, writhe).

    The sign is +1 when the under-strand direction is the over-strand
    direction rotated a quarter turn counterclockwise.
    """
    d = od.diagram
    signs = []
    for ci, x in enumerate(d.crossings):
        # under direction: entering at S (slot 0) means heading north
        u = (0, 1) if od.head[x.ends[0]] == (ci, 0) else (0, -1)
        o = (-1, 0) if od.head[x.ends[1]] == (ci, 1) else (1, 0)
        det = o[0] * u[1] - o[1] * u[0]
        signs.append(1 if det > 0 else -1)
    c_plus = signs.count(1)
    c_minus = signs.count(-1)
    return tuple(signs), c_plus, c_minus, c_plus - c_minus


def mirror(d: Diagram) -> Diagram:
    """Swap over/under everywhere by rotating each crossing tuple one slot."""
    return Diagram(
        crossings=tuple(Crossing(ends=(x.ends[1], x.ends[2], x.ends[3], x.ends[0])) for x in d.crossings),
        edge_count=d.edge_count,
        free_loops=d.free_loops,
    )
