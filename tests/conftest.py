import itertools
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from knotinv import LaurentPoly, crossing_signs, parse_pd, serialize_pd, validate
from knotinv.analysis import DiagramAnalysis
from knotinv.decomp import GenusOneStructure, Tangle, _forms, nonalternating_edges
from knotinv.diagram import Diagram, DiagramError
from knotinv.invariants import _smooth
from knotinv.sampling import (
    _check_aa_reduced,
    random_almost_alternating_diagram,
    random_alternating_diagram,
    random_diagram,
    random_genus_one_diagram,
)
from knotinv.statesum import (
    MAX_OPEN_ENDS,
    CrossingLimitError,
    _state_loops,
    _sweep_order,
)
from knotinv.textio import KnotRecord, PolyParseError

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8_PD = "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]"
HOPF_PD = "X[1,3,2,4] X[3,1,4,2]"
AA_TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[2,6,3,5]"
K12N888_MIRROR_PD = (
    "X[1,2,3,4] X[4,3,5,6] X[6,5,7,8] X[9,1,10,11] X[11,10,12,13] X[13,12,8,14] "
    "X[9,16,17,15] X[15,17,19,18] X[18,19,20,2] X[16,14,22,21] X[21,22,24,23] X[23,24,7,20]"
)


# Frozen full state tables: (assignment, resulting loop count).  Assignment
# character i is the smoothing at crossing i; the loop counts were checked
# by tracing the joined edge identifications by hand.
TREFOIL_STATES = [
    ("AAA", 3), ("AAB", 2), ("ABA", 2), ("ABB", 1),
    ("BAA", 2), ("BAB", 1), ("BBA", 1), ("BBB", 2),
]
HOPF_STATES = [("AA", 2), ("AB", 1), ("BA", 1), ("BB", 2)]
FIG8_STATES = [
    ("AAAA", 3), ("AAAB", 2), ("AABA", 2), ("AABB", 3),
    ("ABAA", 2), ("ABAB", 1), ("ABBA", 1), ("ABBB", 2),
    ("BAAA", 2), ("BAAB", 1), ("BABA", 1), ("BABB", 2),
    ("BBAA", 1), ("BBAB", 2), ("BBBA", 2), ("BBBB", 3),
]


def poly_mirror(p: LaurentPoly) -> LaurentPoly:
    """``p`` with every exponent negated: what mirroring the diagram does to
    its bracket, and to its Jones polynomial (t for 1/t)."""
    return LaurentPoly(p.variable, {-e: c for e, c in p.coeffs.items()})


def mirror(d: Diagram) -> Diagram:
    """Swap over/under everywhere by rotating each crossing tuple one slot."""
    return Diagram(tuple((b, c, e, a) for a, b, c, e in d.crossings))


def bracket_from_table(table):
    """Independent oracle: sum A^(a-b) * (-A^2 - A^-2)^(loops-1) directly."""
    total: dict[int, int] = {}
    for state, loops in table:
        term = {state.count("A") - state.count("B"): 1}
        for _ in range(loops - 1):
            term = _add_term({}, term, 0, 1)
        _add_term(total, term, 0, 0)
    return LaurentPoly("A", total)


def _rebind(monkeypatch, fn, replacement) -> None:
    """Put ``replacement`` in place of ``fn`` in every knotinv module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "knotinv" or name.startswith("knotinv."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def _count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every knotinv module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    _rebind(monkeypatch, fn, counted)
    return calls


def det_from_jones(v) -> int:
    """|V(-1)|, with t^(1/2) = i in the Gaussian integers: the state-sum
    route to the determinant, kept as an oracle for ``determinant``."""
    re = im = 0
    for h, coef in v.coeffs.items():
        k = h % 4
        if k == 0:
            re += coef
        elif k == 1:
            im += coef
        elif k == 2:
            re -= coef
        else:
            im -= coef
    assert re == 0 or im == 0, "V(-1) is not purely real or imaginary"
    return abs(re) + abs(im)


class UnionFind:
    """Union-find over 0..n-1 that counts its classes."""

    __slots__ = ("parent", "classes")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.classes = n

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.classes -= 1


def _state_pairs(ends: tuple[int, int, int, int], choice: str) -> tuple[tuple[int, int], tuple[int, int]]:
    e1, e2, e3, e4 = ends
    if choice == "A":
        return (e1, e2), (e3, e4)
    return (e2, e3), (e4, e1)


def _loops_uf(d: Diagram, s) -> UnionFind:
    """The state's loops as classes of edge labels (label 0 is unused)."""
    uf = UnionFind(d.edge_count + 1)
    for x, choice in zip(d.crossings, s):
        for a, b in _state_pairs(x, choice):
            uf.union(a, b)
    return uf


def resolve_loops(d: Diagram, s) -> int:
    """Number of loops in the state, including free loops: a union-find over
    edge labels, kept as the oracle for the loop walk of ``s_A``, ``s_B``,
    ``state_graph`` and the almost-alternating helpers, and for
    ``bracket_state_sum``."""
    if len(s) != d.crossing_count:
        raise ValueError(f"state length {len(s)} != crossing count {d.crossing_count}")
    return _loops_uf(d, s).classes - 1 + d.free_loops


# The state-graph and almost-alternating helpers: no CLI run uses them, so
# they live here, as oracles for the extreme bracket terms of reduced
# alternating and almost-alternating diagrams (Dasbach-Lowrance).


class StateGraph(NamedTuple):
    """Loops-as-vertices, traces-as-edges graph of a Kauffman state."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def reduced_edge_count(self) -> int:
        return len(set(self.edges))

    @property
    def has_loop_edge(self) -> bool:
        return any(u == v for u, v in self.edges)


def state_graph(d: Diagram, which: str) -> StateGraph:
    """The graph of the all-A (``which`` = "A") or all-B ("B") state."""
    if which not in ("A", "B"):
        raise ValueError("state must be 'A' or 'B'")
    loop, count = _state_loops(d, (1 if which == "A" else 3,) * d.crossing_count)
    # either smoothing puts corners 0 and 2 of a crossing on its two loops
    edges = tuple((min(u, v), max(u, v)) for u, v in zip(loop[::4], loop[2::4]))
    return StateGraph(vertex_count=count, edges=edges)


def adequacy(d: Diagram) -> dict[str, bool]:
    return {
        "a_adequate": not state_graph(d, "A").has_loop_edge,
        "b_adequate": not state_graph(d, "B").has_loop_edge,
    }


def is_reduced(d: Diagram) -> bool:
    """No nugatory crossing: no face touches the same crossing twice."""
    return all(len({a >> 2 for a in face}) == len(face) for face in d.fs.faces)


def dl_coefficients(d: Diagram) -> tuple[tuple[int, int], ...]:
    """Predicted first two and last two terms of the bracket of a reduced
    alternating diagram, as (exponent, coefficient) pairs."""
    if nonalternating_edges(d):
        raise DiagramError("extreme term formula requires an alternating diagram")
    if not is_reduced(d):
        raise DiagramError("extreme term formula requires a reduced diagram")
    c = d.crossing_count
    if c < 1:
        raise DiagramError("need at least one crossing")
    ga = state_graph(d, "A")
    gb = state_graph(d, "B")
    v, e = ga.vertex_count, ga.reduced_edge_count
    vb, eb = gb.vertex_count, gb.reduced_edge_count
    sign = lambda n: 1 if n % 2 == 0 else -1
    return (
        (c + 2 * v - 2, sign(v - 1)),
        (c + 2 * v - 6, sign(v) * (e - v + 1)),
        (6 - c - 2 * vb, sign(vb) * (eb - vb + 1)),
        (2 - c - 2 * vb, sign(vb + 1)),
    )


def dealternator(a: DiagramAnalysis) -> int | None:
    """The crossing whose four distinct edges are exactly the
    non-alternating ones, or None; with three or more crossings there
    is at most one."""
    nonalt = a.nonalternating
    if len(nonalt) == 4:
        for ci, x in enumerate(a.diagram.crossings):
            if set(x) == nonalt:
                return ci
    return None


def aa_adjacency(a: DiagramAnalysis) -> tuple[int, int]:
    """Faces inside the tangle adjacent to both u-faces / both v-faces.

    Only faces in the same checkerboard class count: each one is a vertex
    of the checkerboard graph containing u1, u2 (resp. v1, v2), and its two
    incident crossings are the pair of state-graph edges that become
    parallel when the closure identifies the marked faces.

    Raises DiagramError when ``dealternator(a)`` is None, when its four
    faces are not distinct, or when D(R) or N(R) is not reduced.
    """
    return _adjacency(a, _check_aa_reduced(a.diagram, dealternator(a)))


def _adjacency(a: DiagramAnalysis, faces: tuple[int, int, int, int]) -> tuple[int, int]:
    """:func:`aa_adjacency` on the dealternator's faces (u1, u2, v1, v2),
    once both smoothings are known to be reduced.  Faces of one colour meet
    at a crossing only at opposite corners a and a ^ 2, so the faces counted
    are those opposite both u1 and u2 (v1, v2)."""
    u1, u2, v1, v2 = faces
    face_of = a.diagram.fs.face_of
    opposite: dict[int, set[int]] = {f: set() for f in faces}
    for b, f in enumerate(face_of):
        if f in opposite:
            opposite[f].add(face_of[b ^ 2])
    adj_u = len((opposite[u1] & opposite[u2]) - {u1, u2})
    adj_v = len((opposite[v1] & opposite[v2]) - {v1, v2})
    return adj_u, adj_v


def aa_extreme_coefficients(a: DiagramAnalysis) -> tuple[tuple[int, int], tuple[int, int]]:
    """Predicted extreme bracket terms ((exp, α_0), (exp, α_k)).  D(R)'s
    all-A state is D's, and its all-B state D's with the dealternator's flip
    set to A, so neither smoothing is built.  Refuses what
    :func:`aa_adjacency` refuses."""
    deal = dealternator(a)
    adj_u, adj_v = _adjacency(a, _check_aa_reduced(a.diagram, deal))
    d = a.diagram
    c = d.crossing_count - 1  # crossings of the tangle
    flips = [3] * d.crossing_count
    flips[deal] = 1
    v_d = a.s_A
    vb_d = _state_loops(d, flips)[1]
    a0 = (1 - adj_u) * (1 if v_d % 2 == 0 else -1)
    ak = (1 - adj_v) * (1 if (vb_d - 1) % 2 == 0 else -1)
    return ((c + 2 * v_d - 5, a0), (7 - c - 2 * vb_d, ak))


def aa_closures(a) -> tuple[Diagram, Diagram]:
    """(D(R), N(R)): the A- and B-smoothings of the dealternator of the
    analysis ``a``, built by rejoining; the oracle for the almost-alternating
    helpers, which read both off the diagram's own tables."""
    deal = dealternator(a)
    return _smooth(a.diagram, deal, "A"), _smooth(a.diagram, deal, "B")


def _add_curl(d: Diagram, rng: random.Random) -> Diagram:
    """Put a Reidemeister-1 curl on a random edge e: e runs from its first
    end into the new crossing, round the curl and out along a new edge to
    e's old second end.  The lowest edge of every component and its
    direction stay put, so the default orientation is unchanged."""
    e = rng.randint(1, d.edge_count)
    first = d.labels.index(e)
    ci, s = divmod(max(first, d.mate[first]), 4)  # e's second end in scan order
    loop, out = d.edge_count + 1, d.edge_count + 2
    ends = [list(x) for x in d.crossings]
    ends[ci][s] = out
    curl = (e, loop, loop, out)
    r = rng.randrange(4)  # which slot is the incoming under-strand
    ends.append(curl[r:] + curl[:r])
    return Diagram(tuple(map(tuple, ends)))


def bracket_state_sum(d) -> LaurentPoly:
    """The Kauffman bracket as the plain 2^c state sum of
    A^(#A - #B) * (-A^2 - A^-2)^(loops - 1): the oracle for the sweep in
    ``kauffman_bracket``.  Only for small diagrams."""
    assert d.crossing_count <= 12, "the 2^c oracle is for at most 12 crossings"
    states = itertools.product("AB", repeat=d.crossing_count)
    return bracket_from_table((s, resolve_loops(d, s)) for s in states)


def smoothing_bracket(d: Diagram, ci: int, choice: str) -> LaurentPoly:
    """The bracket of ``d`` with crossing ``ci`` given its ``choice``
    ("A" or "B") smoothing, as the state sum over the states of ``d`` that
    smooth ``ci`` so, each counted by its other crossings: the oracle for
    the smoothings that are split diagrams, which cannot be built.  Only for
    small diagrams."""
    states = itertools.product("AB", repeat=d.crossing_count - 1)
    return bracket_from_table((s, resolve_loops(d, s[:ci] + (choice,) + s[ci:])) for s in states)


# delta^0, delta^1 and delta^2 as (exponent, coefficient) terms: one
# crossing's smoothing closes at most two loops
_DELTA_POWERS = (((0, 1),), ((2, -1), (-2, -1)), ((4, 1), (0, 2), (-4, 1)))


def _add_term(out: dict[int, int], p: dict[int, int], shift: int, loops: int) -> dict[int, int]:
    """out += A^shift * delta^loops * p, on {exponent: coeff} dicts: the
    polynomial arithmetic of the bracket oracles and the skein test, which
    the package itself does not do."""
    for e, cf in p.items():
        for off, mult in _DELTA_POWERS[loops]:
            out[e + shift + off] = out.get(e + shift + off, 0) + cf * mult
    return out


def _over_delta(p: dict[int, int]) -> dict[int, int]:
    """The exact quotient p / delta, by synthetic division from the top."""
    p = dict(p)
    lo, hi = min(p), max(p)
    q: dict[int, int] = {}
    for top in range(hi, lo + 3, -1):
        cf = p.pop(top, 0)
        if cf:
            # delta * (-cf A^(top-2)) = cf A^top + cf A^(top-4)
            q[top - 2] = -cf
            p[top - 4] = p.get(top - 4, 0) - cf
    if any(p.values()):
        raise DiagramError("diagram has no loops, so its bracket is undefined")
    return q


def bracket_sweep_reference(d) -> LaurentPoly:
    """``statesum.kauffman_bracket`` as it was before it packed matchings
    into label-indexed tuples and polynomials into integers, kept verbatim
    as its oracle: matchings as sorted (end, partner) items, polynomials as
    {A-exponent: coeff} dicts, and delta divided out of the finished dict
    by ``_over_delta``."""
    order, width = _sweep_order(d)
    if width > MAX_OPEN_ENDS:
        raise CrossingLimitError(
            f"sweep frontier of {width} open ends exceeds the bound of {MAX_OPEN_ENDS}"
        )
    # matching, as the sorted (end, partner) items both ways round -> {A-exponent: coeff}
    states: dict[tuple[tuple[int, int], ...], dict[int, int]] = {(): {0: 1}}
    for e1, e2, e3, e4 in order:
        nxt: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        for key, poly in states.items():
            for shift, arcs in ((1, ((e1, e2), (e3, e4))), (-1, ((e2, e3), (e4, e1)))):
                partner = dict(key)
                loops = 0
                for x, y in arcs:
                    if x == y:  # both ends of one edge at this crossing
                        loops += 1
                        continue
                    # an open end continues to its partner; a new one stays open
                    px = partner.pop(x, x)
                    py = partner.pop(y, y)
                    if px == y:  # x and y were the two ends of one open strand
                        loops += 1
                    else:
                        partner[px] = py
                        partner[py] = px
                new_key = tuple(sorted(partner.items()))
                _add_term(nxt.setdefault(new_key, {}), poly, shift, loops)
        states = nxt
    (coeffs,) = states.values()
    for _ in range(d.free_loops):
        coeffs = _add_term({}, coeffs, 0, 1)
    return LaurentPoly("A", _over_delta(coeffs))


def full_twist_pd(n: int) -> str:
    """PD code of the closed full twist (s_1 s_2 ... s_(n-1))^n on n strands:
    the torus link T(n, n), with n(n - 1) crossings and n components.  The
    bracket's sweep holds 2n open ends on it, so it measures the width bound."""
    cur = list(range(n))  # the open strand end at each braid position
    crossings = []
    nxt = n
    for _ in range(n):
        for i in range(n - 1):
            a, b = cur[i], cur[i + 1]
            c, d = nxt, nxt + 1
            nxt += 2
            # counterclockwise from the incoming under-strand a (lower left):
            # lower right b, upper right d, upper left c
            crossings.append((a, b, d, c))
            cur[i], cur[i + 1] = c, d
    close = dict(zip(cur, range(n)))  # the closure joins the top to the bottom
    label: dict[int, int] = {}
    toks = []
    for x in crossings:
        ends = [label.setdefault(close.get(e, e), len(label) + 1) for e in x]
        toks.append("X[%d,%d,%d,%d]" % tuple(ends))
    return " ".join(toks)


def seeded_corpus(seed: int = 10) -> list[KnotRecord]:
    """A fixed corpus of PD records from ``knotinv.sampling``: 20 random
    and 20 alternating diagrams of 3-22 crossings, 32 genus-one diagrams
    with k = 1-4 and 2k..60 crossings, and 8 almost-alternating diagrams
    of 6-60 crossings.  The golden digests in ``tests/data`` pin the CLI's
    JSON on it."""
    rng = random.Random(seed)
    diagrams = []
    for c in range(3, 23):
        diagrams.append(("random", random_diagram(c, rng)))
        diagrams.append(("alternating", random_alternating_diagram(c, rng)))
    for i in range(32):
        k = 1 + i % 4
        c = 2 * k + (i * 7) % (61 - 2 * k)
        sizes = [c // (2 * k) + (t < c % (2 * k)) for t in range(2 * k)]
        diagrams.append(("genus_one", random_genus_one_diagram(k, rng, sizes)))
    for n in (6, 10, 15, 20, 30, 40, 50, 60):
        diagrams.append(("almost_alternating", random_almost_alternating_diagram(n, rng)[0]))
    return [
        KnotRecord(name=f"{kind}-{i:02d}-c{d.crossing_count}", pd_text=serialize_pd(d))
        for i, (kind, d) in enumerate(diagrams)
    ]


def sweep_order_reference(d) -> tuple[list[tuple[int, int, int, int]], int]:
    """``statesum._sweep_order`` as it was before it kept per-crossing
    counts, kept verbatim as its oracle: crossing ends in greedy frontier
    order, and the most open ends the sweep holds at once; each next
    crossing is the one with the most ends on labels left open by the
    crossings before it."""
    left = list(d.crossings)
    order = []
    open_labels: set[int] = set()
    width = 0
    while left:
        best = max(range(len(left)), key=lambda i: sum(e in open_labels for e in left[i]))
        ends = left.pop(best)
        order.append(ends)
        for e in ends:
            open_labels ^= {e}
        width = max(width, len(open_labels))
    return order, width


def faces_reference(d) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Face orbits as lists of (crossing, slot) corners, and the checkerboard
    colour of each face: the tracer and colouring ``validate`` used before
    the dart table, kept as their oracle for a valid diagram.

    Arriving at slot s, the face continues from slot s+1; each face starts
    at its lowest corner.  Faces flanking a common edge get opposite
    colours, and the face at corner (0, 0) gets colour 0.
    """
    ends: dict[int, list[tuple[int, int]]] = {e: [] for e in range(1, d.edge_count + 1)}
    for ci, x in enumerate(d.crossings):
        for s, e in enumerate(x):
            ends[e].append((ci, s))
    visited = [False] * (4 * d.crossing_count)
    faces = []
    for first in range(len(visited)):
        if visited[first]:
            continue
        start = divmod(first, 4)
        orbit = []
        pos = start
        while True:
            orbit.append(pos)
            ci, s = pos
            visited[4 * ci + s] = True
            dep = (ci, (s + 1) % 4)
            edge = d.crossings[ci][(s + 1) % 4]
            p, q = ends[edge]
            pos = q if p == dep else p
            if pos == start:
                break
        faces.append(orbit)
    corner_face = {pos: fi for fi, orbit in enumerate(faces) for pos in orbit}
    edge_sides: dict[int, list[int]] = {e: [] for e in range(1, d.edge_count + 1)}
    for fi, orbit in enumerate(faces):
        for ci, s in orbit:
            edge_sides[d.crossings[ci][(s + 1) % 4]].append(fi)
    neighbors: dict[int, list[int]] = {fi: [] for fi in range(len(faces))}
    for f1, f2 in edge_sides.values():
        neighbors[f1].append(f2)
        neighbors[f2].append(f1)
    colors: list[int | None] = [None] * len(faces)
    stack = [(corner_face[(0, 0)], 0)]
    while stack:
        fi, col = stack.pop()
        if colors[fi] is not None:
            assert colors[fi] == col, "inconsistent checkerboard coloring"
            continue
        colors[fi] = col
        stack.extend((other, 1 - col) for other in neighbors[fi])
    return faces, colors


def bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix: the routine
    ``statesum`` took determinants with before its symmetric elimination,
    kept verbatim as an oracle for it."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def nested_det_signatures_reference(
    g: list[list[int]], k: int, lead: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """``statesum._nested_det_signatures`` as it was before it updated the
    trailing block in place, kept verbatim as its oracle: it looks for a
    pivot at every step and rebuilds each trailing row as a new list.

    (det, signature) of the leading ``lead`` x ``lead`` block of the
    symmetric integer matrix ``g`` with its first ``k`` rows and columns
    deleted, and of that whole matrix, from one elimination.

    Fraction-free symmetric elimination: the pivot at each step is a
    nonzero diagonal entry of the trailing block, moved into place by
    swapping a row and its column only when it is not there already.  When
    the trailing diagonal is all zero, a nonzero entry (i, j) is made a
    pivot by adding row and column j to row and column i, which leaves 2 *
    a[i][j] on the diagonal.  Both moves are congruences of determinant
    one, so the trailing block stays the Schur complement times the last
    pivot, as in Bareiss's method, and each pivot's sign relative to the
    one before it adds +-1 to the signature.  A trailing block of zeros is
    the kernel: the determinant is 0 and it adds nothing to the signature.

    Pivots and pairs are looked for inside the leading block until it is
    used up, so both moves stay congruences of that block too: its last
    pivot is its determinant and its pivot signs sum to its signature.  A
    leading block that turns singular gives (0, its signature so far), and
    the elimination goes on over the whole trailing block.
    """
    a = [row[k:] for row in g[k:]]
    n = len(a)
    prev, sig, step = 1, 0, 0
    forms = []
    for stop in (lead, n):
        while step < stop:
            piv = next((i for i in range(step, stop) if a[i][i]), None)
            if piv is None:
                pair = next(
                    ((i, j) for i in range(step, stop) for j in range(i + 1, stop) if a[i][j]), None
                )
                if pair is None:
                    break
                piv, j = pair
                a[piv] = [x + y for x, y in zip(a[piv], a[j])]
                for row in a[step:]:
                    row[piv] += row[j]
            if piv != step:
                a[step], a[piv] = a[piv], a[step]
                for row in a[step:]:
                    row[step], row[piv] = row[piv], row[step]
            pivot_row = a[step]
            p = pivot_row[step]
            sig += 1 if (p > 0) == (prev > 0) else -1
            tail = pivot_row[step + 1:]
            for row in a[step + 1:]:
                f = row[step]
                row[step + 1:] = [(x * p - f * y) // prev for x, y in zip(row[step + 1:], tail)]
            prev = p
            step += 1
        forms.append((prev if step == stop else 0, sig))
    return forms[0], forms[1]


def fraction_det_signature(m: list[list[int]]) -> tuple[int, int]:
    """(det, signature) of a symmetric integer matrix in exact rationals:
    the determinant by row reduction, the signature by Lagrange's
    diagonalisation by congruence (a zero diagonal is first made nonzero by
    adding a row and its column to another).  The oracle for
    ``statesum._nested_det_signatures``; slow, for small matrices."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            det = Fraction(0)
            break
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    q = [[Fraction(x) for x in row] for row in m]
    pivots = []
    while q:
        r = next((i for i in range(len(q)) if q[i][i]), None)
        if r is None:
            pair = next(((i, j) for i in range(len(q)) for j in range(len(q)) if q[i][j]), None)
            if pair is None:
                break  # the zero form: the rest is the kernel
            r, j = pair
            q[r] = [x + y for x, y in zip(q[r], q[j])]
            for row in q:
                row[r] += row[j]
        p = q[r][r]
        pivots.append(p)
        # the Schur complement of the pivot, which the form splits off
        q = [
            [q[i][j] - q[i][r] * q[r][j] / p for j in range(len(q)) if j != r]
            for i in range(len(q))
            if i != r
        ]
    assert det.denominator == 1
    return int(det), sum(1 if p > 0 else -1 for p in pivots)


def gordon_litherland(od, colour: int = 0) -> tuple[int, int]:
    """(signature, determinant) of an oriented diagram's link by
    Gordon-Litherland on the faces of checkerboard colour ``colour``, in
    exact rationals and independent of ``statesum``.

    G is the Goeritz matrix of those faces with one row and column deleted:
    a crossing whose two corners of the colour are distinct faces joins them
    with weight -eta, where eta = -1 when the colour sits at corners 0/2 and
    +1 at corners 1/3.  mu sums eta over the crossings whose sign is -eta,
    those whose oriented smoothing does not merge the two corners of the
    colour (nugatory crossings included).  sigma = -sign(G) + mu and
    det = |det G|.
    """
    d = od.diagram
    fs = validate(d)
    faces = [fi for fi, col in enumerate(fs.checkerboard_color) if col == colour]
    index = {fi: i for i, fi in enumerate(faces)}
    g = [[0] * len(faces) for _ in faces]
    signs = crossing_signs(od)[0]
    mu = 0
    for ci in range(d.crossing_count):
        corner = fs.face_of[4 * ci:4 * ci + 4]
        if fs.checkerboard_color[corner[0]] == colour:
            f1, f2, eta = corner[0], corner[2], -1
        else:
            f1, f2, eta = corner[1], corner[3], 1
        if signs[ci] == -eta:
            mu += eta
        if f1 != f2:
            i, j = index[f1], index[f2]
            g[i][j] -= eta
            g[j][i] -= eta
            g[i][i] += eta
            g[j][j] += eta
    det, sig = fraction_det_signature([row[1:] for row in g[1:]])
    return -sig + mu, abs(det)


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)
        (?:(?P<coef>\d+)\*?)?
        (?P<var>t)?
        (?:\^(?:\{(?P<bexp>-?\d+(?:/\d+)?)\}|(?P<exp>-?\d+(?:/\d+)?)))?
    """,
    re.VERBOSE,
)


def _half_exponent(frac: str) -> int:
    if "/" in frac:
        num, den = frac.split("/")
        num, den = int(num), int(den)
    else:
        num, den = int(frac), 1
    if den == 0 or (2 * num) % den:
        raise PolyParseError(f"exponent {frac!r} is not a half-integer")
    return 2 * num // den


def parse_poly_reference(text: str) -> LaurentPoly:
    """``textio.parse_poly`` as it was before its one-pass rewrite, kept
    verbatim (with its term regex and exponent helper) as the oracle for
    the parser.  Parse signed-monomial polynomial text into a t_half
    LaurentPoly.

    Accepts ``t^{k}``, ``t^k``, half-integer exponents like ``t^{1/2}``,
    bare ``t`` (exponent 1) and bare integers (exponent 0).  Coefficients
    at repeated exponents are summed.
    """
    s = re.sub(r"\s+", "", text)
    # collapse sign pairs so serializer output like "+ -1*t^2" reads back
    while True:
        t = s.replace("+-", "-").replace("-+", "-").replace("--", "+").replace("++", "+")
        if t == s:
            break
        s = t
    if not s:
        raise PolyParseError("empty polynomial text")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise PolyParseError(f"malformed polynomial near {s[pos:pos+12]!r}")
        sign, coef, var = m.group("sign"), m.group("coef"), m.group("var")
        exp = m.group("bexp") or m.group("exp")
        if coef is None and var is None:
            raise PolyParseError(f"malformed polynomial near {s[pos:pos+12]!r}")
        if exp is not None and var is None:
            raise PolyParseError(f"exponent without variable near {s[pos:pos+12]!r}")
        if not first and not sign:
            raise PolyParseError(f"missing sign between terms near {s[pos:pos+12]!r}")
        c = int(coef) if coef is not None else 1
        if sign == "-":
            c = -c
        if var is None:
            h = 0
        elif exp is None:
            h = 2
        else:
            h = _half_exponent(exp)
        coeffs[h] = coeffs.get(h, 0) + c
        pos = m.end()
        first = False
    return LaurentPoly("t_half", coeffs)


def _region_cycle_reference(tangles, edge_links):
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


def recognize_genus_one_reference(a: DiagramAnalysis) -> GenusOneStructure | None:
    """``decomp.recognize_genus_one`` as it was before it walked the
    boundary darts, kept verbatim with its helper ``_region_cycle_reference``
    as the walk's oracle: edges are paired by sorting the boundary points by
    label, the tangle cycle is read off their links, and the k = 1 channel
    split is the first of (0, 1) and (1, 2) on tangle 0 that fits.

    Returns None when the diagram of ``a`` is not presented in that form
    (including every diagram whose own Turaev genus is not one).
    """
    if a.turaev_genus != 1:
        return None
    d, dec = a.diagram, a.decomposition
    m = len(dec.tangles)
    if m < 2 or m % 2 or len(dec.curves) != m:
        return None
    if not all(
        t.proper and t.crossing_count >= 1 and len(t.boundary) == 4 for t in dec.tangles
    ):
        return None

    # which region each stub belongs to
    region_of = [0] * d.crossing_count
    for i, t in enumerate(dec.tangles):
        for ci in t.crossing_indices:
            region_of[ci] = i
    # the two ends of each non-alternating edge are boundary points of the
    # tangles, and consecutive in (label, dart) order
    labels = d.labels
    ends = sorted((b for t in dec.tangles for b in t.boundary), key=lambda b: (labels[b], b))
    edge_links: dict[tuple[int, int], list[int]] = {}
    for b1, b2 in zip(ends[::2], ends[1::2]):
        i, j = region_of[b1 >> 2], region_of[b2 >> 2]
        if i == j:
            return None
        key = (min(i, j), max(i, j))
        edge_links.setdefault(key, []).append(labels[b1])

    order = _region_cycle_reference(dec.tangles, edge_links)
    if order is None:
        return None

    def stub_edge(t: Tangle, k: int) -> int:
        return labels[t.boundary[k]]

    def rotate(t: Tangle, to_next: set[int]) -> Tangle | None:
        """Rotate boundary so positions (1, 2) carry the to_next edges."""
        edges = [stub_edge(t, k) for k in range(4)]
        for r in range(4):
            if {edges[(1 + r) % 4], edges[(2 + r) % 4]} == to_next:
                points = t.boundary
                return t._replace(boundary=points[r:] + points[:r])
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
    arranged = tuple(arranged)
    return GenusOneStructure(arranged, _forms(d.fs, a.arc_runs, arranged))


def _sector_reference(a: int | None, b: int | None) -> int | None:
    """The sector between boundary points ``a`` and ``b``, or None when
    they are not cyclically adjacent."""
    if a is None or b is None:
        return None
    if (b - a) % 4 == 1:
        return a
    if (a - b) % 4 == 1:
        return b
    return None


def tangle_faces_reference(d: Diagram, fs, tangles: tuple[Tangle, ...]):
    """``decomp._tangle_faces`` as it was before the corners were read off
    the decomposition's arcs, kept verbatim with its helper
    ``_sector_reference`` as the oracle of ``decomp._corners``:
    it walks every parent face again and cuts it where the tangle changes.

    Split the parent's face orbits into runs of corners by tangle.

    Returns the key of every corner, indexed by dart (an interior face's
    index, or its sector's key), each tangle's interior faces, and each
    tangle's map from sector index 0..3 to the parent face it lies in.
    Raises DiagramError when a run does not join cyclically adjacent
    boundary points or a tangle has a sector twice.
    """
    mate = d.mate
    owner = [0] * d.crossing_count
    point: list[int | None] = [None] * (4 * d.crossing_count)  # boundary index by dart
    for i, t in enumerate(tangles):
        for ci in t.crossing_indices:
            owner[ci] = i
        for k, b in enumerate(t.boundary):
            point[b] = k
    corner_key = [0] * (4 * d.crossing_count)
    interior: list[list[int]] = [[] for _ in tangles]
    sector_face: list[dict[int, int]] = [{} for _ in tangles]
    for fi, orbit in enumerate(fs.faces):
        owners = [owner[a >> 2] for a in orbit]
        starts = [r for r in range(len(orbit)) if owners[r - 1] != owners[r]]
        if not starts:
            interior[owners[0]].append(fi)
            for a in orbit:
                corner_key[a] = fi
            continue
        for r, start in enumerate(starts):
            end = starts[(r + 1) % len(starts)]
            run = orbit[start:end] if start < end else orbit[start:] + orbit[:end]
            i = owners[start]
            # enters at the first corner's dart and leaves by the mate of the
            # next run's first corner
            j = _sector_reference(point[run[0]], point[mate[orbit[end]]])
            if j is None or j in sector_face[i]:
                raise DiagramError(f"tangle {i} has a malformed sector")
            sector_face[i][j] = fi
            for a in run:
                corner_key[a] = -1 - j
    return corner_key, interior, sector_face


@pytest.fixture
def trefoil():
    return parse_pd(TREFOIL_PD)


@pytest.fixture
def fig8():
    return parse_pd(FIG8_PD)


@pytest.fixture
def hopf():
    return parse_pd(HOPF_PD)


@pytest.fixture
def aa_trefoil():
    return parse_pd(AA_TREFOIL_PD)


@pytest.fixture
def k12n888_mirror():
    return parse_pd(K12N888_MIRROR_PD)


@pytest.fixture
def int_digit_limit():
    """The interpreter's int-string digit limit, ``sys.get_int_max_str_digits()``;
    when it is switched off (0), the default 4300 is set for the test."""
    limit = sys.get_int_max_str_digits()
    if limit:
        yield limit
        return
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(0)
