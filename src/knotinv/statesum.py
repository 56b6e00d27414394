"""Kauffman states, state graphs, the bracket, Jones polynomial and determinant.

The determinant comes from the Goeritz matrix, so it is polynomial in the
crossing count.  One fraction-free symmetric elimination gives both the
determinant and the signature of such a form: the diagram's signature and
the genus-one closure signatures (Gordon-Litherland) come out of the
eliminations that give the determinants.  The bracket (and the Jones
polynomial built on it) comes from a planar sweep over the crossings, whose
cost is exponential only in the number of open edge ends along the way, not
in the crossing count.  The sweep keys each matching of open ends by a tuple
indexed by edge label and packs each polynomial into one integer (Kronecker
substitution), so a step is a tuple copy, a few shifts and one addition.
The bracket refuses a diagram whose sweep would hold more than
``MAX_OPEN_ENDS`` open ends at once, before it does any work.

Smoothing convention: at a crossing (e1, e2, e3, e4) the A-resolution joins
the end-pairs (e1, e2) and (e3, e4); the B-resolution joins (e2, e3) and
(e4, e1).  With the counterclockwise slot layout of :mod:`knotinv.diagram`
this makes the A-smoothing of a positive crossing its oriented smoothing, so
Traczyk's signature formula holds as stated.  Under this convention the
standard tabulated trefoil PD has all-negative crossings, s_A = 3 and
bracket -A^-5 - A^3 + A^7 (the global mirror of the other chirality choice).
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import (
    Diagram,
    DiagramError,
    OrientedDiagram,
    crossing_signs,
)
from .laurent import LaurentPoly

__all__ = [
    "CrossingLimitError",
    "StateGraph",
    "ALL_A",
    "ALL_B",
    "s_A",
    "s_B",
    "state_graph",
    "adequacy",
    "kauffman_bracket",
    "jones",
    "determinant",
    "goeritz_determinant",
]

ALL_A = "A"
ALL_B = "B"

# The sweep keeps up to Catalan(w/2) matchings of w open ends, so its time
# grows about fourfold per two more ends, and its packed polynomials grow
# with the crossing count: a closed full twist on 8 strands (16 ends) takes
# about 0.6 s, on 9 strands (18 ends) about 3.3 s (2 vCPU, Python 3.11).
MAX_OPEN_ENDS = 16


class CrossingLimitError(RuntimeError):
    """Bracket refused: the sweep's frontier would hold more than
    ``MAX_OPEN_ENDS`` open edge ends at once."""


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


def _state_loops(d: Diagram, flips: list[int] | tuple[int, ...]) -> tuple[list[int], int]:
    """The loop of each dart, and the loop count with free loops, of the
    state that joins dart a to ``a ^ flips[a >> 2]`` (1 is the A-smoothing,
    3 the B-smoothing).  A loop runs from dart a out through ``a ^ flip`` to
    ``mate[a ^ flip]``; each is walked once, marking both darts it passes."""
    mate = d.mate
    loop = [-1] * len(mate)
    count = 0
    for a in range(len(mate)):
        if loop[a] < 0:
            while loop[a] < 0:
                b = a ^ flips[a >> 2]
                loop[a] = loop[b] = count
                a = mate[b]
            count += 1
    return loop, count + d.free_loops


def s_A(d: Diagram) -> int:
    """Loops of the all-A state; ``resolve_loops`` in the tests is its oracle."""
    return _state_loops(d, (1,) * d.crossing_count)[1]


def s_B(d: Diagram) -> int:
    """Loops of the all-B state; ``resolve_loops`` in the tests is its oracle."""
    return _state_loops(d, (3,) * d.crossing_count)[1]


def state_graph(d: Diagram, which: str = ALL_A) -> StateGraph:
    if which not in (ALL_A, ALL_B):
        raise ValueError(f"state must be {ALL_A!r} or {ALL_B!r}")
    loop, count = _state_loops(d, (1 if which == ALL_A else 3,) * d.crossing_count)
    # either smoothing puts corners 0 and 2 of a crossing on its two loops
    edges = tuple((min(u, v), max(u, v)) for u, v in zip(loop[::4], loop[2::4]))
    return StateGraph(vertex_count=count, edges=edges)


def adequacy(d: Diagram) -> dict[str, bool]:
    return {
        "a_adequate": not state_graph(d, ALL_A).has_loop_edge,
        "b_adequate": not state_graph(d, ALL_B).has_loop_edge,
    }


def _sweep_order(d: Diagram) -> tuple[list[tuple[int, int, int, int]], int]:
    """Crossing ends in greedy frontier order, and the most open ends the
    sweep holds at once: each next crossing is the one with the most ends on
    labels left open by the crossings before it, the lowest such crossing
    on a tie.

    ``count`` keeps the open ends of each crossing not yet swept (-1 once it
    is swept): sweeping a crossing opens the far end of each of its edges
    that leads to a crossing not yet swept, and closes the others."""
    mate = d.mate
    count = [0] * len(d.crossings)
    order = []
    width = open_ends = 0
    for _ in range(len(count)):
        ci = count.index(max(count))
        count[ci] = -1
        order.append(d.crossings[ci])
        for a in range(4 * ci, 4 * ci + 4):
            cj = mate[a] >> 2
            if count[cj] >= 0:
                open_ends += 1
                count[cj] += 1
            elif cj != ci:
                open_ends -= 1
        width = max(width, open_ends)
    return order, width


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


def _unpack(packed: int, bits: int, offset: int) -> dict[int, int]:
    """{exponent: coeff} of sum_e c_e 2^(bits * (e + offset)), read off
    as signed base-2^bits digits, each with |c_e| < 2^(bits - 1)."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    coeffs = {}
    e = -offset
    while packed:
        # skip the zero digits below the lowest set bit at once
        zeros = ((packed & -packed).bit_length() - 1) // bits
        packed >>= zeros * bits
        e += zeros
        digit = packed & mask
        if digit >= half:
            digit -= 1 << bits
        coeffs[e] = digit
        packed = (packed - digit) >> bits
        e += 1
    return coeffs


def kauffman_bracket(d: Diagram) -> LaurentPoly:
    """Kauffman bracket by a planar sweep, normalized so the 0-crossing
    unknot has bracket 1.

    The bracket is the state sum of A^(#A - #B) * delta^(loops - 1) with
    delta = -A^2 - A^-2.  Instead of enumerating the 2^c states, the sweep
    adds the crossings one at a time in greedy frontier order and keeps, for
    each way the strands seen so far pair up the open edge ends (a
    noncrossing matching), the summed polynomial of the partial states that
    give it; a loop that closes multiplies by delta at once.  The work is
    exponential only in the number of open ends, not in c.  Raises
    :class:`CrossingLimitError`, before any state is expanded, when the
    order would hold more than ``MAX_OPEN_ENDS`` open ends at once.

    A matching is a tuple indexed by edge label: an open end's entry is its
    partner's label, every other entry 0.  A polynomial sum_e c_e A^e is
    packed into the one integer sum_e c_e X^(e + offset), X = 2^bits
    (Kronecker substitution), so multiplying by A is a left shift, by A^-1
    an exact right shift, by delta two shifts and a sum, and merging two
    partial states one addition.  ``bits`` and ``offset`` come from this
    bound, which needs no validated diagram.  Let r be the number of
    components of the crossing graph and f = ``free_loops``.  Taking the
    loops of a state as disks and its crossings as bands gives a surface
    with Euler characteristic loops - c whose components, one per component
    of the crossing graph, each have boundary, so loops <= c + r.  A partial
    state's closed loops are loops of each of its completions, so every
    intermediate polynomial is a sum of at most 2^c terms
    A^k delta^(loops + f) with |k| <= c.  Hence every exponent has
    |e| <= 3c + 2r + 2f = offset, so no digit index goes negative and each
    right shift is exact, and every coefficient has
    |c_e| <= 2^(2c + r + f) < 2^(bits - 1), so the signed digits read back
    uniquely.
    """
    order, width = _sweep_order(d)
    if width > MAX_OPEN_ENDS:
        raise CrossingLimitError(
            f"sweep frontier of {width} open ends exceeds the bound of {MAX_OPEN_ENDS}"
        )
    # r: a crossing met with no open end starts a component of the crossing
    # graph; after j crossings no end is open when 2j labels have been seen
    components = 0
    seen: set[int] = set()
    for j, ends in enumerate(order):
        components += len(seen) == 2 * j
        seen.update(ends)
    c, f = len(order), d.free_loops
    bits = 2 * c + components + f + 2
    offset = 3 * c + 2 * components + 2 * f
    two = 2 * bits
    states = {(0,) * (d.edge_count + 1): 1 << offset * bits}
    for e1, e2, e3, e4 in order:
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        sides = ((True, ((e1, e2), (e3, e4))), (False, ((e2, e3), (e4, e1))))
        for key, poly in states.items():
            for a_side, arcs in sides:
                m = list(key)
                loops = 0
                for x, y in arcs:
                    if x == y:  # both ends of one edge at this crossing
                        loops += 1
                        continue
                    # an open end continues to its partner; a new one stays open
                    px = m[x] or x
                    py = m[y] or y
                    m[x] = m[y] = 0
                    if px == y:  # x and y were the two ends of one open strand
                        loops += 1
                    else:
                        m[px] = py
                        m[py] = px
                p = poly << bits if a_side else poly >> bits
                while loops:
                    p = -(p << two) - (p >> two)
                    loops -= 1
                new_key = tuple(m)
                nxt[new_key] = get(new_key, 0) + p
        states = nxt
    (poly,) = states.values()
    for _ in range(f):
        poly = -(poly << two) - (poly >> two)
    return LaurentPoly("A", _over_delta(_unpack(poly, bits, offset)))


def jones(od: OrientedDiagram) -> LaurentPoly:
    """V = (-A^3)^(-writhe) * <D> with A = t^(-1/4), in half-powers of t."""
    return _jones_from_bracket(kauffman_bracket(od.diagram), crossing_signs(od)[3])


def _jones_from_bracket(bracket: LaurentPoly, writhe: int) -> LaurentPoly:
    """:func:`jones` from the bracket and the writhe, both already known."""
    sign = -1 if writhe % 2 else 1
    coeffs: dict[int, int] = {}
    for e, coef in bracket.coeffs.items():
        a_exp = e - 3 * writhe
        if a_exp % 2:
            raise DiagramError("odd bracket exponent after writhe normalization")
        h = -a_exp // 2  # A^k = t^(-k/4) = half-exponent -k/2
        coeffs[h] = coeffs.get(h, 0) + sign * coef
    return LaurentPoly("t_half", coeffs)


def _goeritz_matrix(vertex: dict, corners) -> tuple[list[list[int]], list[int]]:
    """The Goeritz matrix (a weighted Laplacian) of one checkerboard colour
    class, and each crossing's eta.

    ``vertex`` numbers the faces of the class; ``corners`` yields, for each
    crossing, the faces at its corners 0..3.  A crossing joins its two
    corners of the class with weight -eta: eta = -1 when the class sits at
    corners 0/2, +1 when at corners 1/3.  A crossing whose two corners of
    the class are one face adds nothing to the matrix.
    """
    n = len(vertex)
    g = [[0] * n for _ in range(n)]
    etas = []
    for f in corners:
        # the class's corners are an opposite pair; their parity fixes the sign
        if f[0] in vertex:
            fi, fj = f[0], f[2]
            eta = -1  # the class at the B-corners (SE/NW)
        else:
            fi, fj = f[1], f[3]
            eta = 1  # the class at the A-corners (NE/SW)
        etas.append(eta)
        if fi == fj:
            continue
        i, j = vertex[fi], vertex[fj]
        g[i][j] -= eta
        g[j][i] -= eta
        g[i][i] += eta
        g[j][j] += eta
    return g, etas


def _nested_det_signatures(
    g: list[list[int]], k: int, lead: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(det, signature) of the leading ``lead`` x ``lead`` block of the
    symmetric integer matrix ``g`` with its first ``k`` rows and columns
    deleted, and of that whole matrix, from one elimination.

    Fraction-free symmetric elimination, in place on a copy of ``g``: the
    pivot at each step is a nonzero diagonal entry of the trailing block,
    looked for only when the one in place is zero and moved into place by
    swapping a row and its column.  When the trailing diagonal is all zero,
    a nonzero entry (i, j) is made a pivot by adding row and column j to
    row and column i, which leaves 2 * a[i][j] on the diagonal.  Both moves
    are congruences of determinant one, so the trailing block stays the
    Schur complement times the last pivot, as in Bareiss's method, and each
    pivot's sign relative to the one before it adds +-1 to the signature.
    A trailing block of zeros is the kernel: the determinant is 0 and it
    adds nothing to the signature.

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
            if not a[step][step]:
                piv = next((i for i in range(step + 1, stop) if a[i][i]), None)
                if piv is None:
                    pairs = ((i, j) for i in range(step, stop) for j in range(i + 1, stop))
                    pair = next((ij for ij in pairs if a[ij[0]][ij[1]]), None)
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
            rest = range(step + 1, n)
            for row in a[step + 1:]:
                f = row[step]
                if f:
                    for j in rest:
                        row[j] = (row[j] * p - f * pivot_row[j]) // prev
                else:
                    for j in rest:
                        row[j] = row[j] * p // prev
            prev = p
            step += 1
        forms.append((prev if step == stop else 0, sig))
    return forms[0], forms[1]


def _goeritz_form(d: Diagram) -> tuple[int, int, list[int]]:
    """(det, signature, eta per crossing) of the Goeritz form on the faces of
    colour 0, the first deleted; with no crossing, the empty form (1, 0)."""
    fs = d.fs
    white = [fi for fi, col in enumerate(fs.checkerboard_color) if col == 0]
    g, etas = _goeritz_matrix(
        {fi: i for i, fi in enumerate(white)},
        (fs.face_of[a:a + 4] for a in range(0, 4 * d.crossing_count, 4)),
    )
    det, sig = _nested_det_signatures(g, 1, 0)[1]
    return det, sig, etas


def goeritz_determinant(d: Diagram) -> int:
    """|det| of the Goeritz matrix on one checkerboard color class.

    Polynomial in the crossing count.  The tests check it against |V(-1)|
    from the state sum on random diagrams.
    """
    return abs(_goeritz_form(d)[0])


def determinant(od: OrientedDiagram) -> int:
    """The link determinant |V(-1)|, taken from the Goeritz matrix."""
    return goeritz_determinant(od.diagram)
