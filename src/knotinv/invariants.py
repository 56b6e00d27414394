"""Signature formulas, determinant identities, and extreme-coefficient
predictions for almost-alternating and genus-one diagrams."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple
import warnings

from .diagram import Diagram, DiagramError, OrientedDiagram, orient, rejoin
from .statesum import _state_loops, s_A, state_graph
from .decomp import GenusOneStructure, classify_orientation, nonalternating_edges

if TYPE_CHECKING:
    from .analysis import DiagramAnalysis

__all__ = [
    "SignatureReport",
    "ObstructionVerdict",
    "AAMarkedDiagram",
    "is_reduced",
    "reduce_kinks",
    "traczyk_signature",
    "signature_bounds",
    "genus_one_knot_signature",
    "tangle_sum_signature",
    "conway_determinant",
    "dl_coefficients",
    "mark_almost_alternating",
    "aa_adjacency",
    "aa_extreme_coefficients",
    "jones_obstruction",
    "giller_mod4_check",
]


class SignatureReport(NamedTuple):
    """Bounds on a signature, its exact value where the formula gives one,
    and the formula's name."""

    lower: int
    upper: int
    exact: int | None = None
    method: str | None = None

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
        }


class ObstructionVerdict(NamedTuple):
    a_m: int
    a_M: int
    fires: bool
    implied: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "a_m": self.a_m,
            "a_M": self.a_M,
            "fires": self.fires,
            "implied": list(self.implied),
        }


def is_reduced(d: Diagram) -> bool:
    """No nugatory crossing: no face touches the same crossing twice."""
    return all(len({a >> 2 for a in face}) == len(face) for face in d.fs.faces)


def reduce_kinks(od: OrientedDiagram) -> OrientedDiagram:
    """Remove Reidemeister-1 kinks, preserving the orientation."""
    d, into = od.diagram, od.into
    while True:
        kink = next(
            ((ci, s) for ci, x in enumerate(d.crossings) for s in range(4)
             if x[s] == x[(s + 1) % 4]),
            None,
        )
        if kink is None:
            if d is od.diagram:
                return od
            return orient(d, into=into)
        # a kink at slots (s, s+1) goes by the smoothing that joins (s+1, s+2)
        # and (s+3, s): its loop merges into the strand through the crossing,
        # and the other crossings keep their darts and bits
        ci, s = kink
        d = _smooth(d, ci, "A" if s % 2 else "B")
        into = into[:4 * ci] + into[4 * ci + 4:]


def traczyk_signature(a: DiagramAnalysis) -> int:
    """Signature of an alternating connected diagram, s_A - c_plus - 1,
    oriented as ``a.od``.

    Traczyk states it for reduced diagrams; untwisting a nugatory crossing
    changes s_A and c_plus alike, so it holds on every alternating diagram.
    """
    if a.nonalternating:
        raise DiagramError("signature formula requires an alternating diagram")
    return a.s_A - a.signs[1] - 1


def signature_bounds(a: DiagramAnalysis) -> SignatureReport:
    _, c_plus, c_minus, _ = a.signs
    return SignatureReport(lower=a.s_A - c_plus - 1, upper=-a.s_B + c_minus + 1)


def giller_mod4_check(sigma: int, det: int) -> bool:
    if det % 2 == 0:
        raise ValueError(f"determinant {det} is even (not a knot)")
    if sigma % 2:
        raise ValueError(f"signature {sigma} is odd")
    return (sigma - (det - 1)) % 4 == 0


def _mod4_choice(m: int, det: int) -> int:
    """The one of m - 1 and m + 1 that the mod-4 rule admits for a knot of
    determinant ``det`` (Theorems 1 and 2 pin the signature to these two)."""
    lo = giller_mod4_check(m - 1, det)
    hi = giller_mod4_check(m + 1, det)
    if lo == hi:
        raise DiagramError("congruence selects no unique signature (convention bug)")
    return m - 1 if lo else m + 1


def genus_one_knot_signature(a: DiagramAnalysis) -> SignatureReport:
    """Theorem 1: sigma = s_A - c_plus +- 1, the sign fixed by the determinant mod 4."""
    if a.od.component_count != 1:
        raise DiagramError("exact signature needs a one-component diagram")
    if a.turaev_genus != 1:
        raise DiagramError("exact signature formula needs a genus-one diagram")
    m = a.s_A - a.signs[1]
    return SignatureReport(m - 1, m + 1, _mod4_choice(m, a.det), "theorem1")


def tangle_sum_signature(a: DiagramAnalysis) -> SignatureReport:
    """Theorem 2: the signatures of the closures the orientation ``a.od``
    extends to, summed, +- 1 by the determinant mod 4.

    The closure signatures are read off the decomposition's arcs by
    Gordon-Litherland (:meth:`GenusOneStructure.closure_signatures`), so no
    closure is built and a closure with a nugatory crossing needs no
    special case.  Traczyk on the reduced oriented closures is the test
    oracle.
    """
    gs = a.genus_one
    if gs is None:
        raise DiagramError("Theorem 2 needs a diagram in genus-one normal form")
    cls = classify_orientation(gs, a.od)
    which = "numerator" if cls in ("numerator", "both") else "denominator"
    total = sum(gs.closure_signatures(a.signs[0], which))
    knot = a.od.component_count == 1  # a link's Theorem 2 gives bounds only
    sig = _mod4_choice(total, a.det) if knot else None
    return SignatureReport(total - 1, total + 1, sig, "theorem2")


def conway_determinant(gs: GenusOneStructure) -> int:
    dets = gs.closure_determinants
    total = 0
    for i in range(len(dets)):
        prod = dets[i][0]  # det N(R_i)
        for j in range(len(dets)):
            if j != i:
                prod *= dets[j][1]  # det D(R_j)
        total += prod if (i + 1) % 2 == 0 else -prod
    return abs(total)


def dl_coefficients(d: Diagram) -> tuple[tuple[int, int], ...]:
    """Predicted first two and last two terms of the bracket of a reduced
    alternating diagram, as (exponent, coefficient) pairs."""
    d.fs  # validates the diagram
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


class AAMarkedDiagram(NamedTuple):
    """An almost-alternating diagram with its dealternator marked.

    u1, u2 are the faces at the dealternator corners merged by its
    A-smoothing D(R) (corners 1 and 3); v1, v2 the faces merged by its
    B-smoothing N(R) (corners 0 and 2).
    """

    diagram: Diagram
    dealternator: int
    u1: int
    u2: int
    v1: int
    v2: int


def mark_almost_alternating(d: Diagram, dealternator: int) -> AAMarkedDiagram:
    if not 0 <= dealternator < d.crossing_count:
        raise DiagramError(f"crossing {dealternator} is not in 0..{d.crossing_count - 1}")
    fs = d.fs
    if not _is_dealternator(d, dealternator):
        raise DiagramError("marked crossing is not a dealternator with four distinct non-alternating edges")
    v1, u1, v2, u2 = fs.face_of[4 * dealternator:4 * dealternator + 4]
    if len({u1, u2, v1, v2}) != 4:
        raise DiagramError("dealternator faces are not distinct (diagram simplifies)")
    return AAMarkedDiagram(diagram=d, dealternator=dealternator, u1=u1, u2=u2, v1=v1, v2=v2)


def _is_dealternator(d: Diagram, ci: int) -> bool:
    """Crossing ci's four edges are distinct and D's only non-alternating
    ones, so each smoothing joins under to over: both are alternating."""
    ends = set(d.crossings[ci])
    return len(ends) == 4 and nonalternating_edges(d) == ends


def _smooth(d: Diagram, ci: int, choice: str) -> Diagram:
    """Replace crossing ci by its A- or B-smoothing, which joins dart a to
    ``a ^ 1`` or ``a ^ 3`` as in ``statesum._state_loops``; the other
    crossings keep their order, as :func:`~knotinv.diagram.rejoin` does."""
    flip = 1 if choice == "A" else 3
    keep = tuple(cj for cj in range(d.crossing_count) if cj != ci)
    return rejoin(d, keep, {a: a ^ flip for a in range(4 * ci, 4 * ci + 4)})


def _check_aa_reduced(aa: AAMarkedDiagram) -> None:
    """Refuse a marking whose D(R) or N(R) is not reduced, read off D's faces.

    A smoothing keeps D's faces, less their corners at the dealternator, but
    merges two (u1, u2 for D(R); v1, v2 for N(R)), so it is reduced iff no
    face meets another crossing twice, the merged two counted as one.  The
    dealternator is checked again, as a marking can be built by hand."""
    d, deal = aa.diagram, aa.dealternator
    if not (0 <= deal < d.crossing_count and _is_dealternator(d, deal)):
        raise DiagramError("D(R) is not alternating (bad dealternator marking)")
    face_of = d.fs.face_of
    corners = [face_of[a:a + 4] for a in range(0, len(face_of), 4)]
    del corners[deal]
    for name, keep, merged in (("D(R)", aa.u1, aa.u2), ("N(R)", aa.v1, aa.v2)):
        if any(len({keep if f == merged else f for f in fs}) < 4 for fs in corners):
            raise DiagramError(f"{name} is not reduced (the diagram simplifies)")


def aa_adjacency(aa: AAMarkedDiagram) -> tuple[int, int]:
    """Faces inside the tangle adjacent to both u-faces / both v-faces.

    Only faces in the same checkerboard class count: each one is a vertex
    of the checkerboard graph containing u1, u2 (resp. v1, v2), and its two
    incident crossings are the pair of state-graph edges that become
    parallel when the closure identifies the marked faces.
    """
    _check_aa_reduced(aa)
    return _adjacency(aa)


def _adjacency(aa: AAMarkedDiagram) -> tuple[int, int]:
    """:func:`aa_adjacency` once both smoothings are known to be reduced.
    Faces of one colour meet at a crossing only at opposite corners a and
    a ^ 2, so the faces counted are those opposite both u1 and u2 (v1, v2)."""
    face_of = aa.diagram.fs.face_of
    opposite: dict[int, set[int]] = {f: set() for f in (aa.u1, aa.u2, aa.v1, aa.v2)}
    for a, f in enumerate(face_of):
        if f in opposite:
            opposite[f].add(face_of[a ^ 2])
    adj_u = len((opposite[aa.u1] & opposite[aa.u2]) - {aa.u1, aa.u2})
    adj_v = len((opposite[aa.v1] & opposite[aa.v2]) - {aa.v1, aa.v2})
    if adj_u == 1 and adj_v == 1:
        warnings.warn("adj(u)=adj(v)=1: both extreme coefficient predictions vanish", stacklevel=3)
    return adj_u, adj_v


def aa_extreme_coefficients(aa: AAMarkedDiagram) -> tuple[tuple[int, int], tuple[int, int]]:
    """Predicted extreme bracket terms ((exp, α_0), (exp, α_k)).  D(R)'s
    all-A state is D's, and its all-B state D's with the dealternator's flip
    set to A, so neither smoothing is built."""
    _check_aa_reduced(aa)
    adj_u, adj_v = _adjacency(aa)
    d = aa.diagram
    c = d.crossing_count - 1  # crossings of the tangle
    flips = [3] * d.crossing_count
    flips[aa.dealternator] = 1
    v_d = s_A(d)
    vb_d = _state_loops(d, flips)[1]
    a0 = (1 - adj_u) * (1 if v_d % 2 == 0 else -1)
    ak = (1 - adj_v) * (1 if (vb_d - 1) % 2 == 0 else -1)
    return ((c + 2 * v_d - 5, a0), (7 - c - 2 * vb_d, ak))


_IMPLIED = ("not_almost_alternating", "turaev_genus_ge_2", "dealternating_number_ge_2")


def jones_obstruction(v) -> ObstructionVerdict:
    c = v.coeffs
    if not c:
        raise ValueError("zero polynomial has no extreme coefficients")
    a_m = c[min(c)]
    a_M = c[max(c)]
    fires = abs(a_m) >= 2 and abs(a_M) >= 2
    return ObstructionVerdict(
        a_m=a_m, a_M=a_M, fires=fires, implied=_IMPLIED if fires else ()
    )
