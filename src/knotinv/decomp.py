"""Turaev genus, alternating decompositions, and genus-one tangle structure.

The alternating decomposition marks two points on every non-alternating edge
(one near each endpoint) and joins marked points inside each face when they
are adjacent along the face boundary without running along a single edge.
The resulting closed curves cut the diagram into maximal alternating
regions; when those regions form a single cycle of proper alternating
2-tangles the diagram is in the genus-one normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    OrientedDiagram,
    orient,
)
from .statesum import goeritz_determinant

if TYPE_CHECKING:
    from .analysis import DiagramAnalysis

__all__ = [
    "MarkedPoint",
    "Tangle",
    "AltDecomposition",
    "GenusOneStructure",
    "turaev_genus",
    "nonalternating_edges",
    "alternating_decomposition",
    "recognize_genus_one",
    "closures",
    "oriented_closure",
    "classify_orientation",
]

# A marked point sits on a non-alternating edge near one of its two end
# positions: (edge, (crossing, slot)).
MarkedPoint = tuple[int, tuple[int, int]]


def _analysis(d: Diagram, analysis: DiagramAnalysis | None) -> DiagramAnalysis:
    if analysis is not None:
        return analysis
    from .analysis import DiagramAnalysis  # analysis is built on this module

    return DiagramAnalysis(d)


def turaev_genus(d: Diagram, analysis: DiagramAnalysis | None = None) -> int:
    """g_T(D) = (2 + c - s_A - s_B) / 2 for a connected diagram.

    ``analysis``, the diagram's :class:`~knotinv.analysis.DiagramAnalysis`,
    supplies its validation and state counts when given.
    """
    a = _analysis(d, analysis)
    a.fs  # validates the diagram
    doubled = 2 + d.crossing_count - a.s_A - a.s_B
    if doubled % 2 or doubled < 0:
        raise DiagramError(f"impossible genus value {doubled}/2 (convention bug)")
    return doubled // 2


def nonalternating_edges(d: Diagram) -> set[int]:
    """Edges whose two ends are both over-passes or both under-passes."""
    bad = set()
    for e in range(1, d.edge_count + 1):
        s1, s2 = d.end_slots(e)
        if s1 % 2 == s2 % 2:
            bad.add(e)
    return bad


@dataclass(frozen=True)
class Tangle:
    """An alternating tangle region, re-labeled as a standalone fragment.

    ``boundary`` lists local stub labels in cyclic order around the region,
    read as (nw, ne, se, sw); the numerator closure joins (b0, b1) and
    (b2, b3), the denominator closure joins (b1, b2) and (b3, b0).
    """

    crossings: tuple[Crossing, ...]
    boundary: tuple[int, ...]
    decorations: tuple[str, ...]
    proper: bool
    crossing_indices: tuple[int, ...] = ()
    boundary_points: tuple[MarkedPoint, ...] = ()
    # local label -> parent edge (internal) / parent (edge, position) (stub)
    internal_origin: dict[int, int] = field(default_factory=dict, repr=False)
    stub_origin: dict[int, MarkedPoint] = field(default_factory=dict, repr=False)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def to_json(self) -> dict:
        return {
            "crossings": list(self.crossing_indices),
            "boundary": [[e, list(pos)] for e, pos in self.boundary_points],
            "decorations": list(self.decorations),
            "proper": self.proper,
        }


@dataclass(frozen=True)
class AltDecomposition:
    nonalternating: frozenset[int]
    curves: tuple[tuple[MarkedPoint, ...], ...]
    tangles: tuple[Tangle, ...]

    def to_json(self) -> dict:
        return {
            "nonalternating_edges": sorted(self.nonalternating),
            "curves": [[[e, list(pos)] for e, pos in curve] for curve in self.curves],
            "tangles": [t.to_json() for t in self.tangles],
        }


@dataclass(frozen=True)
class GenusOneStructure:
    """2k proper alternating 2-tangles in a cycle; tangle i's boundary is
    rotated so (b1, b2) are the stubs toward tangle i+1."""

    tangles: tuple[Tangle, ...]

    @property
    def k(self) -> int:
        return len(self.tangles) // 2

    @cached_property
    def closure_determinants(self) -> tuple[tuple[int, int], ...]:
        """(det N(R_i), det D(R_i)) for each tangle, computed once."""
        return tuple(
            (goeritz_determinant(num), goeritz_determinant(den))
            for num, den in map(closures, self.tangles)
        )


def _face_steps(d: Diagram, orbit: tuple[tuple[int, int], ...]):
    """Edge traversals of one face orbit: (edge, from_pos, to_pos) per step.

    Step i runs from the departure after corner i to the arrival corner i+1.
    """
    steps = []
    n = len(orbit)
    for i in range(n):
        ci, s = orbit[i]
        dep = (ci, (s + 1) % 4)
        edge = d.crossings[ci].ends[(s + 1) % 4]
        arr = orbit[(i + 1) % n]
        steps.append((edge, dep, arr))
    return steps


def alternating_decomposition(
    d: Diagram, analysis: DiagramAnalysis | None = None
) -> AltDecomposition:
    """Curve system and alternating tangles; ``analysis`` supplies the
    face structure and the non-alternating edges when given."""
    a = _analysis(d, analysis)
    fs = a.fs
    nonalt = a.nonalternating
    if not nonalt:
        tangle = _extract_tangle(d, tuple(range(d.crossing_count)), (), nonalt, proper=False)
        return AltDecomposition(nonalternating=frozenset(), curves=(), tangles=(tangle,))

    # arcs inside each face: consecutive blocks of marked points get joined
    arcs: list[tuple[MarkedPoint, MarkedPoint]] = []
    for orbit in fs.faces:
        blocks: list[tuple[MarkedPoint, MarkedPoint]] = []
        for edge, dep, arr in _face_steps(d, orbit):
            if edge in nonalt:
                blocks.append(((edge, dep), (edge, arr)))
        for i, block in enumerate(blocks):
            nxt = blocks[(i + 1) % len(blocks)]
            arcs.append((block[1], nxt[0]))

    adj: dict[MarkedPoint, list[MarkedPoint]] = {}
    for p, q in arcs:
        if p == q:
            raise DiagramError("degenerate alternating decomposition (self-arc)")
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
    for p, nbrs in adj.items():
        if len(nbrs) != 2:
            raise DiagramError(f"marked point {p} has arc degree {len(nbrs)}")

    curves: list[tuple[MarkedPoint, ...]] = []
    unvisited = set(adj)
    while unvisited:
        start = min(unvisited)
        cycle = [start]
        unvisited.discard(start)
        prev, cur = None, start
        while True:
            a, b = adj[cur]
            nxt = b if a == prev else a
            if nxt == start:
                break
            cycle.append(nxt)
            unvisited.discard(nxt)
            prev, cur = cur, nxt
        curves.append(tuple(cycle))

    # maximal alternating regions: crossings joined by alternating edges
    parent = list(range(d.crossing_count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ends = d.edge_ends()
    for e, ((c1, _), (c2, _)) in ends.items():
        if e not in nonalt:
            r1, r2 = find(c1), find(c2)
            if r1 != r2:
                parent[r1] = r2
    regions: dict[int, list[int]] = {}
    for ci in range(d.crossing_count):
        regions.setdefault(find(ci), []).append(ci)

    point_curve = {p: k for k, curve in enumerate(curves) for p in curve}
    tangles = []
    for region in sorted(regions.values(), key=min):
        region_set = set(region)
        pts = [
            (e, pos)
            for e in sorted(nonalt)
            for pos in ends[e]
            if pos[0] in region_set
        ]
        # cyclic boundary order comes from the curve when the region is a
        # genuine 2-tangle (all four points on one curve of length four)
        curve_ids = {point_curve[p] for p in pts}
        ordered = tuple(sorted(pts))
        proper = False
        if len(pts) == 4 and len(curve_ids) == 1:
            curve = curves[curve_ids.pop()]
            if len(curve) == 4:
                ordered = tuple(curve)
                decs = ["+" if pos[1] % 2 else "-" for _, pos in ordered]
                proper = decs[0] != decs[1] and decs[1] != decs[2] and decs[2] != decs[3]
        tangles.append(_extract_tangle(d, tuple(sorted(region)), ordered, nonalt, proper))

    return AltDecomposition(
        nonalternating=frozenset(nonalt),
        curves=tuple(curves),
        tangles=tuple(tangles),
    )


def _extract_tangle(
    d: Diagram,
    region: tuple[int, ...],
    boundary_points: tuple[MarkedPoint, ...],
    nonalt: set[int],
    proper: bool,
) -> Tangle:
    local_idx = {ci: i for i, ci in enumerate(region)}
    label = 0
    internal: dict[int, int] = {}
    stubs: dict[MarkedPoint, int] = {}
    internal_origin: dict[int, int] = {}
    stub_origin: dict[int, MarkedPoint] = {}

    def edge_label(e: int, pos) -> int:
        nonlocal label
        if e in nonalt:
            key = (e, pos)
            if key not in stubs:
                label += 1
                stubs[key] = label
                stub_origin[label] = key
            return stubs[key]
        if e not in internal:
            label += 1
            internal[e] = label
            internal_origin[label] = e
        return internal[e]

    crossings = []
    for ci in region:
        x = d.crossings[ci]
        crossings.append(Crossing(ends=tuple(edge_label(e, (ci, s)) for s, e in enumerate(x.ends))))
    boundary = tuple(stubs[p] for p in boundary_points)
    decorations = tuple("+" if pos[1] % 2 else "-" for _, pos in boundary_points)
    return Tangle(
        crossings=tuple(crossings),
        boundary=boundary,
        decorations=decorations,
        proper=proper,
        crossing_indices=region,
        boundary_points=boundary_points,
        internal_origin=internal_origin,
        stub_origin=stub_origin,
    )


def _close(
    t: Tangle, joins: tuple[tuple[int, int], tuple[int, int]]
) -> tuple[Diagram, dict[int, int]]:
    """Join the boundary pairs of ``t``.

    Returns the closure, not yet validated, and the map from each tangle
    label to its edge in the closure (empty for a crossingless closure).
    """
    labels = {e for x in t.crossings for e in x.ends} | set(t.boundary)
    parent = {e: e for e in labels}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    used = {e for x in t.crossings for e in x.ends}
    roots_used = sorted({find(e) for e in used})
    free = {find(e) for e in labels} - set(roots_used)
    if free and t.crossings:
        raise DiagramError("closure is split (crossingless circle alongside crossings)")
    if not t.crossings:
        if len(free) != 1:
            raise DiagramError("closure is split")
        return Diagram(crossings=(), edge_count=0, free_loops=1), {}
    relabel = {r: i + 1 for i, r in enumerate(roots_used)}
    edge_of = {e: relabel[find(e)] for e in labels}
    crossings = tuple(Crossing(ends=tuple(edge_of[e] for e in x.ends)) for x in t.crossings)
    return Diagram(crossings=crossings, edge_count=len(roots_used), free_loops=0), edge_of


def closures(t: Tangle) -> tuple[Diagram, Diagram]:
    """Numerator and denominator closures of a 2-tangle.

    They are not validated here; ``validate`` (which ``goeritz_determinant``
    and ``orient`` call) rejects a closure that is not a planar diagram.
    """
    if len(t.boundary) != 4:
        raise DiagramError(f"not a 2-tangle: {len(t.boundary)} boundary strands")
    b0, b1, b2, b3 = t.boundary
    numerator, _ = _close(t, ((b0, b1), (b2, b3)))
    denominator, _ = _close(t, ((b1, b2), (b3, b0)))
    return numerator, denominator


def oriented_closure(t: Tangle, od: OrientedDiagram, which: str) -> OrientedDiagram:
    """Closure carrying the orientation induced from the ambient diagram."""
    if len(t.boundary) != 4:
        raise DiagramError(f"not a 2-tangle: {len(t.boundary)} boundary strands")
    b0, b1, b2, b3 = t.boundary
    joins = ((b0, b1), (b2, b3)) if which == "numerator" else ((b1, b2), (b3, b0))
    diag, edge_of = _close(t, joins)
    if not t.crossings:
        return orient(diag)

    local_of = {ci: i for i, ci in enumerate(t.crossing_indices)}

    def local_pos(parent_pos):
        ci, s = parent_pos
        return (local_of[ci], s)

    heads: dict[int, tuple[int, int]] = {}
    for local_label, e in t.internal_origin.items():
        heads[edge_of[local_label]] = local_pos(od.head[e])
    for pair in joins:
        ins = []
        for stub in pair:
            e, pos = t.stub_origin[stub]
            if od.head[e] == pos:
                ins.append(stub)
        if len(ins) != 1:
            raise DiagramError("ambient orientation does not extend to this closure")
        stub = ins[0]
        e, pos = t.stub_origin[stub]
        heads[edge_of[stub]] = local_pos(pos)
    return orient(diag, head=heads)


def _region_cycle(tangles, edge_links):
    """Order tangles into a single cycle; edge_links maps tangle-pair ->
    list of connecting non-alternating edges.  Returns the tangle order or
    None when the adjacency is not a cycle."""
    m = len(tangles)
    nbrs: dict[int, list[int]] = {i: [] for i in range(m)}
    for (i, j), edges in edge_links.items():
        nbrs[i].append(j)
        nbrs[j].append(i)
    if m == 2:
        if edge_links.get((0, 1)) is None or len(edge_links[(0, 1)]) != 4:
            return None
        return [0, 1]
    for i, ns in nbrs.items():
        if len(ns) != 2:
            return None
    for edges in edge_links.values():
        if len(edges) != 2:
            return None
    order = [0]
    prev = None
    cur = 0
    while True:
        a, b = nbrs[cur]
        nxt = b if a == prev else a
        if nxt == 0:
            break
        order.append(nxt)
        if len(order) > m:
            return None
        prev, cur = cur, nxt
    if len(order) != m:
        return None
    return order


def recognize_genus_one(
    d: Diagram, analysis: DiagramAnalysis | None = None
) -> GenusOneStructure | None:
    """Recognize the normal form: 2k proper alternating 2-tangles in a cycle.

    Returns None when the diagram is not presented in that form (including
    every diagram whose own Turaev genus is not one).  ``analysis`` supplies
    the Turaev genus and the decomposition when given.
    """
    a = _analysis(d, analysis)
    if a.turaev_genus != 1:
        return None
    dec = a.decomposition
    m = len(dec.tangles)
    if m < 2 or m % 2 or len(dec.curves) != m:
        return None
    if not all(t.proper and t.crossing_count >= 1 and len(t.boundary) == 4 for t in dec.tangles):
        return None

    # which region each stub belongs to
    region_of: dict[int, int] = {}
    for i, t in enumerate(dec.tangles):
        for ci in t.crossing_indices:
            region_of[ci] = i
    ends = d.edge_ends()
    edge_links: dict[tuple[int, int], list[int]] = {}
    for e in sorted(dec.nonalternating):
        (c1, _), (c2, _) = ends[e]
        i, j = region_of[c1], region_of[c2]
        if i == j:
            return None
        key = (min(i, j), max(i, j))
        edge_links.setdefault(key, []).append(e)

    order = _region_cycle(dec.tangles, edge_links)
    if order is None:
        return None

    def stub_edge(t: Tangle, k: int) -> int:
        return t.boundary_points[k][0]

    def rotate(t: Tangle, to_next: set[int]) -> Tangle | None:
        """Rotate boundary so positions (1, 2) carry the to_next edges."""
        edges = [stub_edge(t, k) for k in range(4)]
        for r in range(4):
            if {edges[(1 + r) % 4], edges[(2 + r) % 4]} == to_next:
                perm = [(k + r) % 4 for k in range(4)]
                return Tangle(
                    crossings=t.crossings,
                    boundary=tuple(t.boundary[k] for k in perm),
                    decorations=tuple(t.decorations[k] for k in perm),
                    proper=t.proper,
                    crossing_indices=t.crossing_indices,
                    boundary_points=tuple(t.boundary_points[k] for k in perm),
                    internal_origin=t.internal_origin,
                    stub_origin=t.stub_origin,
                )
        return None

    arranged: list[Tangle] = []
    if m == 2:
        # four connecting edges; split them into the two side channels using
        # curve adjacency on both tangles
        t0, t1 = dec.tangles[order[0]], dec.tangles[order[1]]
        all_edges = [stub_edge(t0, k) for k in range(4)]
        for split in ((0, 1), (1, 2)):
            side = {all_edges[split[0]], all_edges[split[1]]}
            r0 = rotate(t0, side)
            r1 = rotate(t1, {e for e in all_edges if e not in side})
            if r0 is None or r1 is None:
                continue
            # t1's to_prev stubs must be the side edges, adjacent there too
            t1_edges = [stub_edge(r1, k) for k in range(4)]
            if {t1_edges[0], t1_edges[3]} == side:
                arranged = [r0, r1]
                break
        if not arranged:
            return None
    else:
        for pos, i in enumerate(order):
            j = order[(pos + 1) % m]
            key = (min(i, j), max(i, j))
            to_next = set(edge_links[key])
            r = rotate(dec.tangles[i], to_next)
            if r is None:
                return None
            arranged.append(r)
    return GenusOneStructure(tangles=tuple(arranged))


def classify_orientation(gs: GenusOneStructure, od: OrientedDiagram) -> str:
    """Whether the ambient orientation matches the numerator closures, the
    denominator closures, or both."""

    def pair_ok(t: Tangle, a: int, b: int) -> bool:
        flows_in = []
        for k in (a, b):
            e, pos = t.stub_origin[t.boundary[k]]
            flows_in.append(od.head[e] == pos)
        return flows_in[0] != flows_in[1]

    n_ok = all(pair_ok(t, 0, 1) and pair_ok(t, 2, 3) for t in gs.tangles)
    d_ok = all(pair_ok(t, 1, 2) and pair_ok(t, 3, 0) for t in gs.tangles)
    if n_ok and d_ok:
        return "both"
    if n_ok:
        return "numerator"
    if d_ok:
        return "denominator"
    raise DiagramError("neither closure orientation matches (internal inconsistency)")
