"""Turaev genus, alternating decompositions, and genus-one tangle structure.

The alternating decomposition marks two points on every non-alternating edge
(one near each endpoint) and joins marked points inside each face when they
are adjacent along the face boundary without running along a single edge.
The resulting closed curves cut the diagram into maximal alternating
regions; when those regions form a single cycle of proper alternating
2-tangles the diagram is in the genus-one normal form (Armond-Lowrance 2017).
The walk over the faces that finds the arcs records their runs of corners
(:class:`ArcRuns`), kept on the analysis as ``DiagramAnalysis.arc_runs``;
the curves and the genus-one tangles' Goeritz forms are read off them.

Recognition is one walk over the boundary darts, with a tangle's places 0-3
its curve's points from its lowest-labelled edge.  Each step turns the
current tangle to leave through places 1 and 2, whose mates must lie on one
other tangle at adjacent places, the later becoming its place 0; after 2k
steps the walk must be back where it began, having visited every tangle.
For k = 1 the two ways to split the four edges between the tangles into
channels swap each tangle's N and D; the split with the smaller sorted
closure determinant pairs is kept, and when the two splits tie the labels
choose.

Marked points, tangle boundaries and curves are darts of the parent
diagram, and every value here is its fields alone: the functions that read
darts as edges or build closures take the parent diagram as an argument.
Darts become ``[edge, [crossing, slot]]`` only in the JSON output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .diagram import (
    Diagram,
    DiagramError,
    FaceStructure,
    OrientedDiagram,
    orient,
    rejoin,
)
from .statesum import _goeritz_matrix, _gordon_litherland, _nested_det_signatures

if TYPE_CHECKING:
    from .analysis import DiagramAnalysis

__all__ = [
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


def turaev_genus(a: DiagramAnalysis) -> int:
    """g_T(D) = (2 + c - s_A - s_B) / 2 for the connected diagram of ``a``."""
    doubled = 2 + a.diagram.crossing_count - a.s_A - a.s_B
    if doubled % 2 or doubled < 0:
        raise DiagramError(f"impossible genus value {doubled}/2 (convention bug)")
    return doubled // 2


def nonalternating_edges(d: Diagram) -> set[int]:
    """Edges whose two ends are both over-passes or both under-passes: the
    labels of the darts ``a`` whose ``mate[a]`` has the same slot parity."""
    mate = d.mate
    return {e for a, e in enumerate(d.labels) if not (a ^ mate[a]) & 1}


class Tangle(NamedTuple):
    """An alternating tangle region of a parent diagram.

    ``crossing_indices`` are the parent's crossings in the region and
    ``boundary`` the parent's marked darts on its boundary, in cyclic order,
    read as (nw, ne, se, sw); the numerator closure joins points (0, 1) and
    (2, 3), the denominator closure (1, 2) and (3, 0).  Nothing is
    relabelled: :func:`closures` and :func:`oriented_closure` rejoin the
    parent's crossings past the other tangles.
    """

    crossing_indices: tuple[int, ...]
    boundary: tuple[int, ...]
    proper: bool

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_indices)

    @property
    def decorations(self) -> tuple[str, ...]:
        """'+' for a boundary point at an over-strand slot, '-' at an under-strand slot."""
        return tuple("+" if b & 1 else "-" for b in self.boundary)

    def to_json(self, d: Diagram) -> dict:
        """The tangle with its boundary darts read on the parent ``d``."""
        return {
            "crossings": list(self.crossing_indices),
            "boundary": _points_json(d, self.boundary),
            "decorations": list(self.decorations),
            "proper": self.proper,
        }


class ArcRuns(NamedTuple):
    """Arc ``r`` is ``arcs[r] = (p, q, face)``, from the marked dart ``p``
    where ``face`` arrives along a non-alternating edge to the one ``q`` it
    next leaves by.  ``run[a]`` is the arc whose run holds corner ``a``, or
    -1 in a face with no such edge; ``interior`` has those faces' first."""

    run: list[int]
    arcs: list[tuple[int, int, int]]
    interior: list[int]


def _points_json(d: Diagram, darts: tuple[int, ...]) -> list:
    """Each dart of ``d`` as ``[edge, [crossing, slot]]``."""
    return [[d.labels[b], [b >> 2, b & 3]] for b in darts]


class AltDecomposition(NamedTuple):
    """The non-alternating edges, the curves as cycles of marked darts, and
    the tangles."""

    nonalternating: frozenset[int]
    curves: tuple[tuple[int, ...], ...]
    tangles: tuple[Tangle, ...]

    def to_json(self, d: Diagram) -> dict:
        """The decomposition with its darts read on its diagram ``d``."""
        return {
            "nonalternating_edges": sorted(self.nonalternating),
            "curves": [_points_json(d, curve) for curve in self.curves],
            "tangles": [t.to_json(d) for t in self.tangles],
        }


# Sector j of a tangle runs between its places j and j + 1 (so S01 is
# sector 0) and its corners are keyed -1 - j; an interior face's corners
# are keyed by the face's index.
_S01, _S23 = -1, -3


Forms = tuple[tuple[tuple[int, int], tuple[int, int], tuple[int, ...]], ...]


class GenusOneStructure(NamedTuple):
    """2k proper alternating 2-tangles in a cycle; tangle i's boundary is
    rotated so points 1 and 2 are the stubs toward tangle i+1.

    ``forms`` holds, per tangle, (det, signature) of the Goeritz forms of
    N(R_i) and D(R_i) and eta at each of its crossings (see :func:`_forms`).
    """

    tangles: tuple[Tangle, ...]
    forms: Forms

    @property
    def k(self) -> int:
        return len(self.tangles) // 2

    @property
    def closure_determinants(self) -> tuple[tuple[int, int], ...]:
        """(det N(R_i), det D(R_i)) for each tangle, by the matrix-tree
        theorem on its Goeritz form.  The closures that :func:`closures`
        builds are the test oracle of this route."""
        return tuple((abs(n[0]), abs(dn[0])) for n, dn, _ in self.forms)

    def closure_signatures(self, signs: tuple[int, ...], which: str) -> tuple[int, ...]:
        """sigma of each tangle's ``which`` closure, oriented as the parent
        with crossing signs ``signs`` induces, by Gordon-Litherland on the
        closure's Goeritz form.

        ``which`` must be a closure the parent's orientation extends to (see
        :func:`classify_orientation`).  The closures that
        :func:`oriented_closure` builds are the test oracle of this route.
        """
        k = 0 if which == "numerator" else 1
        return tuple(
            _gordon_litherland(form[k][1], (signs[ci] for ci in t.crossing_indices), form[2])
            for t, form in zip(self.tangles, self.forms)
        )


def _forms(fs: FaceStructure, runs: ArcRuns, tangles: tuple[Tangle, ...]) -> Forms:
    """Per tangle: (det, signature) of the Goeritz forms of N(R_i) and
    D(R_i), and eta at each of its crossings, read off the decomposition's
    arcs with no closure built.

    The arcs cut each tangle's corners into its interior faces and four
    *sectors*, S01, S12, S23 and S30 (see :func:`_corners`).  On the
    colour class of S01 and S23, the Goeritz graph of N(R_i) has the
    interior faces of that colour plus S01 and S23 as vertices, and that
    of D(R_i) the same with S01 and S23 merged.  So both forms come from
    one Goeritz matrix: ground S01 for N(R_i), delete S23 as well for
    D(R_i).  With S23 numbered last, one elimination gives both.
    """
    colour = fs.checkerboard_color
    corner_key, interior, sector_face = _corners(fs.face_of, runs, tangles)
    forms = []
    for i, t in enumerate(tangles):
        # each closure has c_t crossings, 2 c_t edges and interior + 3
        # faces, so it is planar exactly when interior = c_t - 1
        if len(interior[i]) != t.crossing_count - 1:
            raise DiagramError(f"tangle {i} does not close to planar diagrams")
        cls = colour[sector_face[i][0]]
        order = (_S01, *(fi for fi in interior[i] if colour[fi] == cls), _S23)
        vertex = {key: v for v, key in enumerate(order)}
        g, etas = _goeritz_matrix(
            vertex, (corner_key[4 * ci:4 * ci + 4] for ci in t.crossing_indices)
        )
        # S23 last: with S01 grounded, the leading block is D(R_i)'s form
        d_form, n_form = _nested_det_signatures(g, len(g) - 2)
        forms.append((n_form, d_form, tuple(etas)))
    return tuple(forms)


def _corners(
    face_of: list[int], runs: ArcRuns, tangles: tuple[Tangle, ...]
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The key of every corner, indexed by dart (an interior face's
    index, or its sector's key), each tangle's interior faces, and the
    face each of its sectors 0..3 lies in.  Every non-alternating edge
    joins two tangles, so each arc is one of a tangle's curve and its
    run is the sector between the places of its ends."""
    owner = [0] * (len(face_of) // 4)
    where = [0] * len(face_of)  # 4 i + j at the dart of tangle i's place j
    for i, t in enumerate(tangles):
        for ci in t.crossing_indices:
            owner[ci] = i
        for j, b in enumerate(t.boundary):
            where[b] = 4 * i + j
    # an arc between places j and j + 1, either way round: sector j
    sector_key = []
    sector_face = [[0] * 4 for _ in tangles]
    for p, q, fi in runs.arcs:
        w = where[p] if (where[q] - where[p]) % 4 == 1 else where[q]
        sector_face[w >> 2][w & 3] = fi
        sector_key.append(-1 - (w & 3))
    corner_key = [sector_key[r] if r >= 0 else fi for r, fi in zip(runs.run, face_of)]
    interior: list[list[int]] = [[] for _ in tangles]
    for a in runs.interior:
        interior[owner[a >> 2]].append(face_of[a])
    return corner_key, interior, sector_face


def _arc_runs(d: Diagram) -> ArcRuns:
    """The arcs of the decomposition of ``d`` and their runs of corners, in
    one walk over its faces; read as ``DiagramAnalysis.arc_runs``."""
    fs, mate = d.fs, d.mate

    # arcs inside each face: a step of the face along a non-alternating edge
    # is a block from its departure dart to its arrival dart (the next
    # corner), and the arrival of each block is joined to the departure of
    # the next.  An arc's run is its face's corners from its arrival up to
    # the next arrival, round the end of the face for the last arc.
    run = [-1] * len(mate)
    arcs: list[tuple[int, int, int]] = []
    interior: list[int] = []
    for fi, orbit in enumerate(fs.faces):
        cycle = orbit[1:] + orbit[:1]
        arrivals = [b for b in cycle if not (b ^ mate[b]) & 1]
        if not arrivals:
            interior.append(orbit[0])
            continue
        k, r = cycle.index(arrivals[0]), len(arcs) - 1
        for b in cycle[k:] + cycle[:k]:
            r += not (b ^ mate[b]) & 1
            run[b] = r
        # no arc has p = q: the face would run along one edge both ways,
        # making it a bridge, and a 4-regular plane map has none
        for i, b in enumerate(arrivals):
            arcs.append((b, mate[arrivals[(i + 1) % len(arrivals)]], fi))
    return ArcRuns(run, arcs, interior)


def alternating_decomposition(a: DiagramAnalysis) -> AltDecomposition:
    """Curve system and alternating tangles of the diagram of ``a``.

    A marked point is a dart on a non-alternating edge, one whose ``mate``
    has the same slot parity."""
    d = a.diagram
    nonalt = a.nonalternating
    if not nonalt:
        tangle = Tangle(tuple(range(d.crossing_count)), (), proper=False)
        return AltDecomposition(nonalternating=frozenset(), curves=(), tangles=(tangle,))
    mate, labels = d.mate, d.labels

    # each marked dart starts one arc and ends one, so the curves are the
    # cycles of p -> q.  A curve starts at the first marked dart in (label,
    # dart) order not yet on one, and runs the way of that dart's first arc.
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    way: dict[int, dict[int, int]] = {}
    for p, q, _ in a.arc_runs.arcs:
        succ[p] = q
        pred[q] = p
        way.setdefault(p, succ)
        way.setdefault(q, pred)
    marked = sorted(succ, key=lambda b: (labels[b], b))
    curve_of: dict[int, int] = {}
    curves: list[list[int]] = []
    for start in marked:
        if start in curve_of:
            continue
        k = curve_of[start] = len(curves)
        step, cycle, cur = way[start], [start], start
        while (cur := step[cur]) != start:
            cycle.append(cur)
            curve_of[cur] = k
        curves.append(cycle)

    # maximal alternating regions: crossings joined by alternating edges
    region_of = [-1] * d.crossing_count
    regions: list[list[int]] = []
    for first in range(d.crossing_count):
        if region_of[first] >= 0:
            continue
        r = region_of[first] = len(regions)
        members = [first]
        for ci in members:
            for b in mate[4 * ci:4 * ci + 4]:
                cj = b >> 2
                if region_of[cj] < 0 and (b ^ mate[b]) & 1:
                    region_of[cj] = r
                    members.append(cj)
        regions.append(sorted(members))
    points: list[list[int]] = [[] for _ in regions]
    for b in marked:
        points[region_of[b >> 2]].append(b)

    tangles = []
    for region, pts in zip(regions, points):
        # cyclic boundary order comes from the curve when the region is a
        # genuine 2-tangle (all four points on one curve of length four)
        ordered = pts
        proper = False
        curve_ids = {curve_of[b] for b in pts}
        if len(pts) == 4 and len(curve_ids) == 1:
            curve = curves[curve_ids.pop()]
            if len(curve) == 4:
                ordered = curve
                p0, p1, p2, p3 = (b & 1 for b in curve)
                proper = p0 != p1 != p2 != p3
        tangles.append(Tangle(tuple(region), tuple(ordered), proper))

    return AltDecomposition(
        nonalternating=frozenset(nonalt),
        curves=tuple(map(tuple, curves)),
        tangles=tuple(tangles),
    )


def _joins(t: Tangle, which: str) -> tuple[tuple[int, int], ...]:
    """The boundary dart pairs the ``which`` closure of ``t`` joins."""
    if len(t.boundary) != 4:
        raise DiagramError(f"not a 2-tangle: {len(t.boundary)} boundary strands")
    p0, p1, p2, p3 = t.boundary
    return ((p0, p1), (p2, p3)) if which == "numerator" else ((p1, p2), (p3, p0))


def _close(t: Tangle, d: Diagram, which: str) -> Diagram:
    """The crossings of ``t`` in its parent ``d``, in order, with the
    boundary edges rejoined past the other tangles in the pairs of the
    ``which`` closure.  Each boundary edge leaves the tangle, so the closure
    has no free loop."""
    mate, through = d.mate, {}
    for p, q in _joins(t, which):
        through[mate[p]], through[mate[q]] = mate[q], mate[p]
    return rejoin(d, t.crossing_indices, through)


def closures(t: Tangle, d: Diagram) -> tuple[Diagram, Diagram]:
    """Numerator and denominator closures of a 2-tangle of ``d``, built
    from ``d``; a closure that is not a connected planar diagram raises
    :class:`DiagramError`.

    Nothing in the CLI builds them: ``GenusOneStructure`` reads the
    closure determinants and signatures off the decomposition's arcs, and
    these closures are that route's test oracle.
    """
    return _close(t, d, "numerator"), _close(t, d, "denominator")


def oriented_closure(t: Tangle, od: OrientedDiagram, which: str) -> OrientedDiagram:
    """The ``which`` closure of ``t``, built from its parent ``od.diagram``,
    with the orientation ``od`` induces; a test oracle, like
    :func:`closures`.

    The closure keeps the darts of the crossings of ``t``, so it keeps
    their bits of ``od.into``; its component count is that of
    :func:`orient`.  Raises DiagramError when the orientation does not
    extend, that is when a joined pair of boundary edges does not have one
    end flowing in.
    """
    into = od.into
    for p, q in _joins(t, which):
        if into[p] == into[q]:
            raise DiagramError("ambient orientation does not extend to this closure")
    bits = tuple(b for ci in t.crossing_indices for b in into[4 * ci:4 * ci + 4])
    dc = _close(t, od.diagram, which)
    return OrientedDiagram(dc, bits, orient(dc).component_count)


def _walk(tangles: tuple[Tangle, ...], far, r: int) -> tuple[Tangle, ...] | None:
    """The tangles in walk order from tangle 0 turned to its place ``r``, each
    turned to leave through places 1 and 2, or None if the walk does not close."""
    i, walked = 0, []
    for _ in tangles:
        walked.append((i, r))
        (i, p), (j, q) = far[i][(r + 1) % 4], far[i][(r + 2) % 4]
        if i != j or not (p - q) % 2:  # not one tangle, or not adjacent places
            return None
        r = p if (p - q) % 4 == 1 else q  # the later place
    if (i, r) != walked[0] or len({i for i, _ in walked}) != len(tangles):
        return None
    turns = ((tangles[i], tangles[i].boundary, r) for i, r in walked)
    return tuple(t._replace(boundary=b[r:] + b[:r]) for t, b, r in turns)


def recognize_genus_one(a: DiagramAnalysis) -> GenusOneStructure | None:
    """Recognize the normal form: 2k proper alternating 2-tangles in a cycle.

    Returns None when the diagram of ``a`` is not presented in that form
    (including every diagram whose own Turaev genus is not one).  The cycle
    is the boundary-dart walk of the module docstring, leaving tangle 0
    through places (0, 1) when both reach one tangle, else through (3, 0);
    for k = 1 through (3, 0) when the sorted (d, n) pairs are below the
    sorted (n, d).
    Raises DiagramError when a tangle does not close to planar diagrams.
    """
    if a.turaev_genus != 1:
        return None
    d, dec = a.diagram, a.decomposition
    m = len(dec.tangles)
    if m < 2 or m % 2 or len(dec.curves) != m:
        return None
    if not all(t.proper for t in dec.tangles):  # each with 4 points and a crossing
        return None
    # every dart of a non-alternating edge is a boundary dart: its (tangle,
    # place), and far[i][p] that of the mate of tangle i's dart at place p
    at = {b: (i, p) for i, t in enumerate(dec.tangles) for p, b in enumerate(t.boundary)}
    far = [[at[d.mate[b]] for b in t.boundary] for t in dec.tangles]
    # with place 3 as place 0, places (0, 1) sit at 1 and 2; with place 2, (3, 0)
    arranged = _walk(dec.tangles, far, 3 if far[0][0][0] == far[0][1][0] else 2)
    if arranged is None:
        return None
    gs = GenusOneStructure(arranged, _forms(d.fs, a.arc_runs, arranged))
    if m == 2:
        # the other split turns each tangle a place, swapping N and D: it takes
        # these forms swapped (their colour class gives the same invariants)
        dets = gs.closure_determinants
        other = sorted(p[::-1] for p in dets) < sorted(dets) and _walk(dec.tangles, far, 2)
        if other:
            gs = GenusOneStructure(other, tuple((dn, n, etas) for n, dn, etas in gs.forms))
    return gs


def classify_orientation(gs: GenusOneStructure, od: OrientedDiagram) -> str:
    """Whether the ambient orientation matches the numerator closures, the
    denominator closures, or both."""

    into = od.into
    # the arrival bit of each tangle's boundary darts, place by place
    bits = [[into[b] for b in t.boundary] for t in gs.tangles]
    n_ok = all(b0 != b1 and b2 != b3 for b0, b1, b2, b3 in bits)
    d_ok = all(b1 != b2 and b3 != b0 for b0, b1, b2, b3 in bits)
    if n_ok and d_ok:
        return "both"
    if n_ok:
        return "numerator"
    if d_ok:
        return "denominator"
    raise DiagramError("neither closure orientation matches (internal inconsistency)")
