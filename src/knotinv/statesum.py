"""Kauffman states, state graphs, the bracket, Jones polynomial and determinant.

The determinant comes from the Goeritz matrix, so it has no crossing limit;
only the bracket and the Jones polynomial run the 2^c state sum.

Smoothing convention: at a crossing (e1, e2, e3, e4) the A-resolution joins
the end-pairs (e1, e2) and (e3, e4); the B-resolution joins (e2, e3) and
(e4, e1).  With the counterclockwise slot layout of :mod:`knotinv.diagram`
this makes the A-smoothing of a positive crossing its oriented smoothing, so
Traczyk's signature formula holds as stated.  Under this convention the
standard tabulated trefoil PD has all-negative crossings, s_A = 3 and
bracket -A^-5 - A^3 + A^7 (the global mirror of the other chirality choice).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .diagram import Diagram, DiagramError, FaceStructure, OrientedDiagram, crossing_signs, validate
from .laurent import LaurentPoly

__all__ = [
    "CrossingLimitError",
    "State",
    "StateGraph",
    "ALL_A",
    "ALL_B",
    "resolve_loops",
    "s_A",
    "s_B",
    "state_graph",
    "adequacy",
    "kauffman_bracket",
    "jones",
    "determinant",
    "goeritz_determinant",
    "max_crossing_limit",
]

ALL_A = "A"
ALL_B = "B"

_ENV_LIMIT = "KNOTINV_MAX_CROSSINGS"
_DEFAULT_LIMIT = 24


class CrossingLimitError(RuntimeError):
    """State sum aborted: crossing count exceeds the configured limit."""


def max_crossing_limit(override: int | None = None) -> int:
    if override is not None:
        return override
    return int(os.environ.get(_ENV_LIMIT, _DEFAULT_LIMIT))


State = tuple[str, ...]  # one of "A"/"B" per crossing


@dataclass(frozen=True)
class StateGraph:
    """Loops-as-vertices, traces-as-edges graph of a Kauffman state."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def reduced_edge_count(self) -> int:
        return len(set(self.edges))

    @property
    def has_loop_edge(self) -> bool:
        return any(u == v for u, v in self.edges)


class _UF:
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
    if choice == ALL_A:
        return (e1, e2), (e3, e4)
    return (e2, e3), (e4, e1)


def _loops_uf(d: Diagram, s: State) -> _UF:
    uf = _UF(d.edge_count + 1)
    uf.classes = d.edge_count  # ignore the unused 0 slot
    for x, choice in zip(d.crossings, s):
        for a, b in _state_pairs(x.ends, choice):
            uf.union(a, b)
    return uf


def resolve_loops(d: Diagram, s: State) -> int:
    """Number of loops in the state, including free loops."""
    if len(s) != d.crossing_count:
        raise ValueError(f"state length {len(s)} != crossing count {d.crossing_count}")
    return _loops_uf(d, s).classes + d.free_loops


def s_A(d: Diagram) -> int:
    return resolve_loops(d, (ALL_A,) * d.crossing_count)


def s_B(d: Diagram) -> int:
    return resolve_loops(d, (ALL_B,) * d.crossing_count)


def state_graph(d: Diagram, which: str = ALL_A) -> StateGraph:
    if which not in (ALL_A, ALL_B):
        raise ValueError(f"state must be {ALL_A!r} or {ALL_B!r}")
    s = (which,) * d.crossing_count
    uf = _loops_uf(d, s)
    roots = sorted({uf.find(e) for e in range(1, d.edge_count + 1)})
    index = {r: i for i, r in enumerate(roots)}
    edges = []
    for x in d.crossings:
        (a, _), (c, _) = _state_pairs(x.ends, which)
        u, v = index[uf.find(a)], index[uf.find(c)]
        edges.append((min(u, v), max(u, v)))
    return StateGraph(vertex_count=len(roots) + d.free_loops, edges=tuple(edges))


def adequacy(d: Diagram) -> dict[str, bool]:
    return {
        "a_adequate": not state_graph(d, ALL_A).has_loop_edge,
        "b_adequate": not state_graph(d, ALL_B).has_loop_edge,
    }


def kauffman_bracket(d: Diagram, max_crossings: int | None = None) -> LaurentPoly:
    """Full 2^c state sum, normalized so the 0-crossing unknot has bracket 1.

    Each state contributes A^(#A - #B) * (-A^2 - A^-2)^(loops - 1).
    """
    c = d.crossing_count
    limit = max_crossing_limit(max_crossings)
    if c > limit:
        raise CrossingLimitError(f"{c} crossings exceeds the state-sum limit of {limit}")
    n_edges = d.edge_count
    pairs_a = []
    pairs_b = []
    for x in d.crossings:
        e1, e2, e3, e4 = x.ends
        pairs_a.append((e1 - 1, e2 - 1, e3 - 1, e4 - 1))
        pairs_b.append((e2 - 1, e3 - 1, e4 - 1, e1 - 1))

    # counts[(aCount, loops)] = number of states; DFS shares prefix unions
    counts: dict[tuple[int, int], int] = {}
    root = (list(range(n_edges)), n_edges)
    stack = [(0, 0, root)]
    while stack:
        depth, a_count, (parent, loops) = stack.pop()
        if depth == c:
            key = (a_count, loops + d.free_loops)
            counts[key] = counts.get(key, 0) + 1
            continue
        for pick, (p, q, r, s) in ((1, pairs_a[depth]), (0, pairs_b[depth])):
            par = parent.copy()
            merged = loops
            for a, b in ((p, q), (r, s)):
                while par[a] != a:
                    par[a] = par[par[a]]
                    a = par[a]
                while par[b] != b:
                    par[b] = par[par[b]]
                    b = par[b]
                if a != b:
                    par[a] = b
                    merged -= 1
            stack.append((depth + 1, a_count + pick, (par, merged)))

    coeffs: dict[int, int] = {}
    for (a_count, loops), mult in counts.items():
        n = loops - 1
        base_exp = a_count - (c - a_count)
        sign = -1 if n % 2 else 1
        for j in range(n + 1):
            e = base_exp + 2 * n - 4 * j
            coeffs[e] = coeffs.get(e, 0) + sign * mult * math.comb(n, j)
    if c == 0:
        # normalization: one free loop is the unknot with bracket 1
        n = d.free_loops - 1
        sign = -1 if n % 2 else 1
        coeffs = {}
        for j in range(n + 1):
            coeffs[2 * n - 4 * j] = coeffs.get(2 * n - 4 * j, 0) + sign * math.comb(n, j)
    return LaurentPoly("A", coeffs)


def jones(
    od: OrientedDiagram, max_crossings: int | None = None, bracket: LaurentPoly | None = None
) -> LaurentPoly:
    """V = (-A^3)^(-writhe) * <D> with A = t^(-1/4), in half-powers of t.

    ``bracket``, when given, is the diagram's Kauffman bracket already
    computed; the state sum then does not run again.
    """
    if bracket is None:
        bracket = kauffman_bracket(od.diagram, max_crossings)
    _, _, _, writhe = crossing_signs(od)
    sign = -1 if writhe % 2 else 1
    coeffs: dict[int, int] = {}
    for e, coef in bracket.coeffs.items():
        a_exp = e - 3 * writhe
        if a_exp % 2:
            raise DiagramError("odd bracket exponent after writhe normalization")
        h = -a_exp // 2  # A^k = t^(-k/4) = half-exponent -k/2
        coeffs[h] = coeffs.get(h, 0) + sign * coef
    return LaurentPoly("t_half", coeffs)


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
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


def goeritz_determinant(d: Diagram, fs: FaceStructure | None = None) -> int:
    """|det| of the Goeritz matrix on one checkerboard color class.

    Polynomial in the crossing count.  The tests check it against |V(-1)|
    from the state sum on random diagrams.
    """
    if fs is None:
        fs = validate(d)
    if d.crossing_count == 0:
        return 1
    white = [fi for fi, col in enumerate(fs.checkerboard_color) if col == 0]
    idx = {fi: i for i, fi in enumerate(white)}
    n = len(white)
    g = [[0] * n for _ in range(n)]
    for ci in range(d.crossing_count):
        corners = [fs.corner_face[(ci, k)] for k in range(4)]
        # white corners are an opposite pair; their parity fixes the sign
        if corners[0] in idx:
            fi, fj = corners[0], corners[2]
            eta = -1  # white at the B-corners (SE/NW)
        else:
            fi, fj = corners[1], corners[3]
            eta = 1  # white at the A-corners (NE/SW)
        if fi == fj:
            continue
        i, j = idx[fi], idx[fj]
        g[i][j] -= eta
        g[j][i] -= eta
        g[i][i] += eta
        g[j][j] += eta
    reduced = [row[1:] for row in g[1:]]
    return abs(_int_det(reduced))


def determinant(od: OrientedDiagram) -> int:
    """The link determinant |V(-1)|, taken from the Goeritz matrix."""
    return goeritz_determinant(od.diagram)
