"""Turaev genus, alternating decompositions, and genus-one tangle structure.

The alternating decomposition marks two points on every non-alternating edge
(one near each endpoint) and joins marked points inside each face when they
are adjacent along the face boundary without running along a single edge.
The resulting closed curves cut the diagram into maximal alternating
regions; when those regions form a single cycle of proper alternating
2-tangles the diagram is in the genus-one normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

from .diagram import (
    Diagram,
    DiagramError,
    FaceStructure,
    OrientedDiagram,
    Position,
    UnionFind,
    orient,
    splice,
)
from .statesum import _det_signature, _goeritz_matrix

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
    first_parity: dict[int, int] = {}
    bad = set()
    for x in d.crossings:
        for s, e in enumerate(x.ends):
            parity = first_parity.pop(e, None)
            if parity is None:
                first_parity[e] = s % 2
            elif parity == s % 2:
                bad.add(e)
    return bad


@dataclass(frozen=True)
class Tangle:
    """An alternating tangle region: a view on its parent diagram.

    ``crossing_indices`` are the parent's crossings in the region and
    ``boundary_points`` the parent's marked points on its boundary, in
    cyclic order, read as (nw, ne, se, sw); the numerator closure joins
    points (0, 1) and (2, 3), the denominator closure (1, 2) and (3, 0).
    Nothing is relabelled: :func:`closures` and :func:`oriented_closure`
    splice the parent's crossings on the parent's edge labels.
    """

    crossing_indices: tuple[int, ...]
    boundary_points: tuple[MarkedPoint, ...]
    proper: bool
    parent: Diagram = field(repr=False, compare=False)

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_indices)

    @property
    def decorations(self) -> tuple[str, ...]:
        """'+' for a boundary point at an over-strand slot, '-' at an under-strand slot."""
        return tuple("+" if pos[1] % 2 else "-" for _, pos in self.boundary_points)

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
    rotated so points 1 and 2 are the stubs toward tangle i+1.

    ``parent`` is the recognized diagram with its face structure, from which
    each tangle's closure determinants and signatures are read.
    """

    tangles: tuple[Tangle, ...]
    parent: tuple[Diagram, FaceStructure] = field(repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.tangles) // 2

    @cached_property
    def _forms(self) -> tuple[tuple[tuple[int, int], tuple[int, int], list[int]], ...]:
        """Per tangle: (det, signature) of the Goeritz forms of N(R_i) and
        D(R_i), and eta at each of its crossings, read off the parent's
        faces with no closure built.

        The parent faces cut each tangle's corners into its interior faces
        and four *sectors*, S01, S12, S23 and S30, named by the boundary
        points they enter and leave through.  On the colour class of S01 and
        S23, the Goeritz graph of N(R_i) has the interior faces of that
        colour plus S01 and S23 as vertices, and that of D(R_i) the same
        with S01 and S23 merged.  So both forms come from one Goeritz
        matrix: ground S01 for N(R_i), delete S23 as well for D(R_i).
        """
        d, fs = self.parent
        colour = fs.checkerboard_color
        corner_key, interior, sector_face = _tangle_faces(d, fs, self.tangles)
        forms = []
        for i, t in enumerate(self.tangles):
            # each closure has c_t crossings, 2 c_t edges and interior + 3
            # faces, so it is planar exactly when interior = c_t - 1
            if len(sector_face[i]) != 4 or len(interior[i]) != t.crossing_count - 1:
                raise DiagramError(f"tangle {i} does not close to planar diagrams")
            cls = colour[sector_face[i][0]]
            vertex = {_S01: 0, _S23: 1}
            for fi in interior[i]:
                if colour[fi] == cls:
                    vertex[fi] = len(vertex)
            g, etas = _goeritz_matrix(
                vertex,
                ([corner_key[(ci, k)] for k in range(4)] for ci in t.crossing_indices),
            )
            forms.append((_det_signature(g, 1), _det_signature(g, 2), etas))
        return tuple(forms)

    @cached_property
    def closure_determinants(self) -> tuple[tuple[int, int], ...]:
        """(det N(R_i), det D(R_i)) for each tangle, by the matrix-tree
        theorem on its Goeritz form.  The closures that :func:`closures`
        builds are the test oracle of this route."""
        return tuple((abs(n[0]), abs(dn[0])) for n, dn, _ in self._forms)

    def closure_signatures(self, signs: tuple[int, ...], which: str) -> tuple[int, ...]:
        """sigma of each tangle's ``which`` closure, oriented as the parent
        with crossing signs ``signs`` induces, by Gordon-Litherland:
        -sign(G) + mu on the tangle's Goeritz form G, where mu sums eta over
        the crossings whose sign is -eta (those whose oriented smoothing
        does not merge the two corners of G's colour class).

        ``which`` must be a closure the parent's orientation extends to (see
        :func:`classify_orientation`).  The closures that
        :func:`oriented_closure` builds are the test oracle of this route.
        """
        k = 0 if which == "numerator" else 1
        sigs = []
        for t, form in zip(self.tangles, self._forms):
            mu = sum(eta for ci, eta in zip(t.crossing_indices, form[2]) if signs[ci] == -eta)
            sigs.append(-form[k][1] + mu)
        return tuple(sigs)


# Sector j of a tangle runs between boundary points j and j+1 (so S01 is
# sector 0) and its corners are keyed -1 - j; an interior face's corners
# are keyed by the face's index.
_S01, _S23 = -1, -3


def _sector(a: int | None, b: int | None) -> int | None:
    """The sector between boundary points ``a`` and ``b``, or None when
    they are not cyclically adjacent."""
    if a is None or b is None:
        return None
    if (b - a) % 4 == 1:
        return a
    if (a - b) % 4 == 1:
        return b
    return None


def _tangle_faces(d: Diagram, fs: FaceStructure, tangles: tuple[Tangle, ...]):
    """Split the parent's face orbits into runs of corners by tangle.

    Returns the key of every corner (an interior face's index, or its
    sector's key), each tangle's interior faces, and each tangle's map from
    sector index 0..3 to the parent face it lies in.  Raises DiagramError
    when a run does not join cyclically adjacent boundary points or a
    tangle has a sector twice.
    """
    owner = {ci: i for i, t in enumerate(tangles) for ci in t.crossing_indices}
    point = [{p: k for k, p in enumerate(t.boundary_points)} for t in tangles]
    corner_key: dict[Position, int] = {}
    interior: list[list[int]] = [[] for _ in tangles]
    sector_face: list[dict[int, int]] = [{} for _ in tangles]
    for fi, orbit in enumerate(fs.faces):
        owners = [owner[ci] for ci, _ in orbit]
        starts = [r for r in range(len(orbit)) if owners[r - 1] != owners[r]]
        if not starts:
            interior[owners[0]].append(fi)
            for corner in orbit:
                corner_key[corner] = fi
            continue
        for r, start in enumerate(starts):
            end = starts[(r + 1) % len(starts)]
            run = orbit[start:end] if start < end else orbit[start:] + orbit[:end]
            i = owners[start]
            # enters at the first corner's slot, leaves after the last corner
            ci, s = run[0]
            cj, sj = run[-1][0], (run[-1][1] + 1) % 4
            j = _sector(
                point[i].get((d.crossings[ci].ends[s], (ci, s))),
                point[i].get((d.crossings[cj].ends[sj], (cj, sj))),
            )
            if j is None or j in sector_face[i]:
                raise DiagramError(f"tangle {i} has a malformed sector")
            sector_face[i][j] = fi
            for corner in run:
                corner_key[corner] = -1 - j
    return corner_key, interior, sector_face


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
        tangle = Tangle(tuple(range(d.crossing_count)), (), proper=False, parent=d)
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
    uf = UnionFind(d.crossing_count)
    ends = d.edge_ends()
    for e, ((c1, _), (c2, _)) in ends.items():
        if e not in nonalt:
            uf.union(c1, c2)
    regions: dict[int, list[int]] = {}
    for ci in range(d.crossing_count):
        regions.setdefault(uf.find(ci), []).append(ci)

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
        tangles.append(Tangle(tuple(sorted(region)), ordered, proper, d))

    return AltDecomposition(
        nonalternating=frozenset(nonalt),
        curves=tuple(curves),
        tangles=tuple(tangles),
    )


def _joins(t: Tangle, which: str) -> tuple[tuple[MarkedPoint, MarkedPoint], ...]:
    """The boundary point pairs the ``which`` closure of ``t`` joins."""
    if len(t.boundary_points) != 4:
        raise DiagramError(f"not a 2-tangle: {len(t.boundary_points)} boundary strands")
    p0, p1, p2, p3 = t.boundary_points
    return ((p0, p1), (p2, p3)) if which == "numerator" else ((p1, p2), (p3, p0))


def _close(t: Tangle, which: str) -> tuple[Diagram, dict[int, int]]:
    """Splice the parent's crossings of ``t`` on the parent's labels,
    joining the boundary edges in the pairs of the ``which`` closure.

    Returns the closure, not yet validated, and splice's map from each
    parent label the closure keeps to its edge there.  Every joined label
    is a boundary edge that the tangle's crossings use, so the closure has
    no free loop; the parent's other labels are dropped.
    """
    joins = tuple((a[0], b[0]) for a, b in _joins(t, which))
    crossings = tuple(t.parent.crossings[ci] for ci in t.crossing_indices)
    return splice(crossings, t.parent.edge_count, joins)


def closures(t: Tangle) -> tuple[Diagram, Diagram]:
    """Numerator and denominator closures of a 2-tangle, built from the
    parent diagram and not validated (``validate`` rejects a closure that
    is not a planar diagram).

    Nothing in the CLI builds them: ``GenusOneStructure`` reads the
    closure determinants and signatures off the parent's faces, and these
    closures are that route's test oracle.
    """
    return _close(t, "numerator")[0], _close(t, "denominator")[0]


def oriented_closure(t: Tangle, od: OrientedDiagram, which: str) -> OrientedDiagram:
    """The ``which`` closure of ``t``, built from the parent diagram, with
    the orientation ``od`` of the parent induces; a test oracle, like
    :func:`closures`.

    Raises DiagramError when the orientation does not extend, that is when
    a joined pair of boundary edges does not have one end flowing in.
    """
    for pair in _joins(t, which):
        if sum(od.head[e] == pos for e, pos in pair) != 1:
            raise DiagramError("ambient orientation does not extend to this closure")
    diag, edge_of = _close(t, which)
    local_of = {ci: i for i, ci in enumerate(t.crossing_indices)}
    heads = {edge_of[e]: (local_of[ci], s) for e, (ci, s) in od.head.items() if ci in local_of}
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
    if not all(
        t.proper and t.crossing_count >= 1 and len(t.boundary_points) == 4 for t in dec.tangles
    ):
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
                points = t.boundary_points
                return replace(t, boundary_points=points[r:] + points[:r])
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
    return GenusOneStructure(tangles=tuple(arranged), parent=(d, a.fs))


def classify_orientation(gs: GenusOneStructure, od: OrientedDiagram) -> str:
    """Whether the ambient orientation matches the numerator closures, the
    denominator closures, or both."""

    def pair_ok(t: Tangle, a: int, b: int) -> bool:
        flows_in = []
        for k in (a, b):
            e, pos = t.boundary_points[k]
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
