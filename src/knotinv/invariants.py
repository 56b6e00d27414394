"""Signature formulas, determinant identities, and extreme-coefficient
predictions for almost-alternating and genus-one diagrams."""

from __future__ import annotations

from dataclasses import dataclass
import warnings

from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    FaceStructure,
    OrientedDiagram,
    orient,
    validate,
)
from .statesum import s_A, s_B, state_graph
from .decomp import (
    GenusOneStructure,
    classify_orientation,
    nonalternating_edges,
    oriented_closure,
)
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
    "aa_closures",
    "aa_adjacency",
    "aa_extreme_coefficients",
    "jones_obstruction",
    "giller_mod4_check",
]


@dataclass(frozen=True)
class SignatureReport:
    lower: int
    upper: int
    exact: int | None = None
    method: str | None = None
    det: int | None = None
    mod4_ok: bool | None = None

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "method": self.method,
            "det": self.det,
            "mod4_ok": self.mod4_ok,
        }


@dataclass(frozen=True)
class ObstructionVerdict:
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


def is_reduced(d: Diagram, fs: FaceStructure | None = None) -> bool:
    """No nugatory crossing: no face touches the same crossing twice."""
    if fs is None:
        fs = validate(d)
    for face in fs.faces:
        seen = set()
        for ci, _ in face:
            if ci in seen:
                return False
            seen.add(ci)
    return True


def reduce_kinks(od: OrientedDiagram) -> OrientedDiagram:
    """Remove Reidemeister-1 kinks, preserving the orientation."""
    d = od.diagram
    heads = dict(od.head)
    while True:
        kink = None
        for ci, x in enumerate(d.crossings):
            for s in range(4):
                if x.ends[s] == x.ends[(s + 1) % 4]:
                    kink = (ci, s)
                    break
            if kink:
                break
        if kink is None:
            if d is od.diagram:
                return od
            return orient(d, head=heads) if d.crossings else orient(d)
        ci, s = kink
        x = d.crossings[ci]
        k = x.ends[s]
        o1, o2 = x.ends[(s + 2) % 4], x.ends[(s + 3) % 4]
        if o1 == o2:
            # the whole component was a single kinked circle
            d = Diagram(crossings=(), edge_count=0, free_loops=1)
            heads = {}
            continue
        ends = d.edge_ends()
        keep, drop = min(o1, o2), max(o1, o2)
        new_head = heads[o1] if heads[o1][0] != ci else heads[o2]
        assert new_head[0] != ci
        # merge drop into keep, delete the crossing, then compact labels
        remap = {}
        nxt = 1
        for e in range(1, d.edge_count + 1):
            if e in (k, drop):
                continue
            remap[e] = nxt
            nxt += 1
        remap[drop] = remap[keep]
        crossings = []
        new_heads = {}
        for cj, y in enumerate(d.crossings):
            if cj == ci:
                continue
            cj_new = cj if cj < ci else cj - 1
            crossings.append(Crossing(ends=tuple(remap[e] for e in y.ends)))
        for e, (hc, hs) in heads.items():
            if e == k or hc == ci:
                continue
            new_heads[remap[e]] = (hc if hc < ci else hc - 1, hs)
        new_heads[remap[keep]] = (new_head[0] if new_head[0] < ci else new_head[0] - 1, new_head[1])
        d = Diagram(crossings=tuple(crossings), edge_count=nxt - 1, free_loops=0)
        heads = new_heads


def traczyk_signature(od: OrientedDiagram, analysis: DiagramAnalysis | None = None) -> int:
    """Signature of a reduced alternating connected diagram.

    ``analysis``, the :class:`DiagramAnalysis` of ``od``, supplies the
    quantities it has already computed; the other signature functions take
    it the same way.
    """
    a = analysis or DiagramAnalysis(od.diagram, od)
    if a.nonalternating:
        raise DiagramError("signature formula requires an alternating diagram")
    if not is_reduced(od.diagram, a.fs):
        raise DiagramError("signature formula requires a reduced diagram")
    _, c_plus, c_minus, _ = a.signs
    sig = a.s_A - c_plus - 1
    alt = -a.s_B + c_minus + 1
    if sig != alt:
        raise DiagramError(f"signature formulas disagree: {sig} vs {alt} (convention bug)")
    return sig


def signature_bounds(
    od: OrientedDiagram, analysis: DiagramAnalysis | None = None
) -> SignatureReport:
    a = analysis or DiagramAnalysis(od.diagram, od)
    a.fs  # validates the diagram
    _, c_plus, c_minus, _ = a.signs
    return SignatureReport(lower=a.s_A - c_plus - 1, upper=-a.s_B + c_minus + 1)


def giller_mod4_check(sigma: int, det: int) -> bool:
    if det % 2 == 0:
        raise ValueError(f"determinant {det} is even (not a knot)")
    if sigma % 2:
        raise ValueError(f"signature {sigma} is odd")
    return (sigma - (det - 1)) % 4 == 0


def genus_one_knot_signature(
    od: OrientedDiagram, analysis: DiagramAnalysis | None = None
) -> SignatureReport:
    """Theorem 1: sigma = s_A - c_plus +- 1, the sign fixed by the determinant mod 4."""
    a = analysis or DiagramAnalysis(od.diagram, od)
    if od.component_count != 1:
        raise DiagramError("exact signature needs a one-component diagram")
    if a.turaev_genus != 1:
        raise DiagramError("exact signature formula needs a genus-one diagram")
    _, c_plus, _, _ = a.signs
    m = a.s_A - c_plus
    det = a.det
    lo = giller_mod4_check(m - 1, det)
    hi = giller_mod4_check(m + 1, det)
    if lo == hi:
        raise DiagramError("congruence selects no unique signature (convention bug)")
    sig = m - 1 if lo else m + 1
    return SignatureReport(
        lower=m - 1, upper=m + 1, exact=sig, method="theorem1", det=det, mod4_ok=True
    )


def tangle_sum_signature(
    gs: GenusOneStructure, od: OrientedDiagram, analysis: DiagramAnalysis | None = None
) -> SignatureReport:
    """Theorem 2: the closures' Traczyk signatures summed, +- 1 by the determinant mod 4."""
    a = analysis or DiagramAnalysis(od.diagram, od)
    cls = classify_orientation(gs, od)
    which = "numerator" if cls in ("numerator", "both") else "denominator"
    total = 0
    for t in gs.tangles:
        oc = reduce_kinks(oriented_closure(t, od, which))
        total += traczyk_signature(oc)
    det = a.det
    if od.component_count == 1:
        lo = giller_mod4_check(total - 1, det)
        hi = giller_mod4_check(total + 1, det)
        if lo == hi:
            raise DiagramError("congruence selects no unique signature (convention bug)")
        sig = total - 1 if lo else total + 1
        return SignatureReport(
            lower=total - 1,
            upper=total + 1,
            exact=sig,
            method="theorem2",
            det=det,
            mod4_ok=True,
        )
    return SignatureReport(
        lower=total - 1, upper=total + 1, exact=None, method="theorem2", det=det
    )


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
    fs = validate(d)
    if nonalternating_edges(d):
        raise DiagramError("extreme term formula requires an alternating diagram")
    if not is_reduced(d, fs):
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


@dataclass(frozen=True)
class AAMarkedDiagram:
    """An almost-alternating diagram with its dealternator marked.

    u1, u2 are the faces at the dealternator corners merged by its
    A-smoothing (corners 1 and 3); v1, v2 the faces merged by its
    B-smoothing (corners 0 and 2).
    """

    diagram: Diagram
    dealternator: int
    u1: int
    u2: int
    v1: int
    v2: int


def mark_almost_alternating(d: Diagram, dealternator: int) -> AAMarkedDiagram:
    fs = validate(d)
    nonalt = nonalternating_edges(d)
    x = d.crossings[dealternator]
    if set(nonalt) != set(x.ends) or len(set(x.ends)) != 4:
        raise DiagramError("marked crossing is not a dealternator with four distinct non-alternating edges")
    u1 = fs.corner_face[(dealternator, 1)]
    u2 = fs.corner_face[(dealternator, 3)]
    v1 = fs.corner_face[(dealternator, 0)]
    v2 = fs.corner_face[(dealternator, 2)]
    if len({u1, u2, v1, v2}) != 4:
        raise DiagramError("dealternator faces are not distinct (diagram simplifies)")
    return AAMarkedDiagram(diagram=d, dealternator=dealternator, u1=u1, u2=u2, v1=v1, v2=v2)


def _smooth(d: Diagram, ci: int, choice: str) -> Diagram:
    """Replace crossing ci by its A- or B-smoothing."""
    e1, e2, e3, e4 = d.crossings[ci].ends
    joins = ((e1, e2), (e3, e4)) if choice == "A" else ((e2, e3), (e4, e1))
    parent = {e: e for e in range(1, d.edge_count + 1)}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    used = sorted({find(e) for cj, x in enumerate(d.crossings) if cj != ci for e in x.ends})
    free = {find(e) for e in range(1, d.edge_count + 1)} - set(used)
    crossings = tuple(
        Crossing(ends=tuple({r: i + 1 for i, r in enumerate(used)}[find(e)] for e in x.ends))
        for cj, x in enumerate(d.crossings)
        if cj != ci
    )
    return Diagram(crossings=crossings, edge_count=len(used), free_loops=len(free))


def aa_closures(aa: AAMarkedDiagram) -> tuple[Diagram, Diagram]:
    """(D(R), N(R)): the A- and B-smoothings of the dealternator."""
    return _smooth(aa.diagram, aa.dealternator, "A"), _smooth(aa.diagram, aa.dealternator, "B")


def _check_aa_reduced(aa: AAMarkedDiagram) -> tuple[Diagram, Diagram]:
    dr, nr = aa_closures(aa)
    for name, g in (("D(R)", dr), ("N(R)", nr)):
        fs = validate(g)
        if nonalternating_edges(g):
            raise DiagramError(f"{name} is not alternating (bad dealternator marking)")
        if not is_reduced(g, fs):
            raise DiagramError(f"{name} is not reduced (the diagram simplifies)")
    return dr, nr


def aa_adjacency(aa: AAMarkedDiagram) -> tuple[int, int]:
    """Faces inside the tangle adjacent to both u-faces / both v-faces.

    Only faces in the same checkerboard class count: each one is a vertex
    of the checkerboard graph containing u1, u2 (resp. v1, v2), and its two
    incident crossings are the pair of state-graph edges that become
    parallel when the closure identifies the marked faces.
    """
    _check_aa_reduced(aa)
    fs = validate(aa.diagram)
    marked = {aa.u1, aa.u2, aa.v1, aa.v2}
    col = fs.checkerboard_color
    face_adj: dict[int, set[int]] = {fi: set() for fi in range(fs.face_count)}
    for ci in range(aa.diagram.crossing_count):
        here = {fs.corner_face[(ci, s)] for s in range(4)}
        for f in here:
            face_adj[f] |= here - {f}
    adj_u = adj_v = 0
    for f in range(fs.face_count):
        if f in marked:
            continue
        if col[f] == col[aa.u1] and aa.u1 in face_adj[f] and aa.u2 in face_adj[f]:
            adj_u += 1
        if col[f] == col[aa.v1] and aa.v1 in face_adj[f] and aa.v2 in face_adj[f]:
            adj_v += 1
    if adj_u == 1 and adj_v == 1:
        warnings.warn("adj(u)=adj(v)=1: both extreme coefficient predictions vanish", stacklevel=2)
    return adj_u, adj_v


def aa_extreme_coefficients(aa: AAMarkedDiagram) -> tuple[tuple[int, int], tuple[int, int]]:
    """Predicted extreme bracket terms ((exp, α_0), (exp, α_k))."""
    dr, _ = _check_aa_reduced(aa)
    adj_u, adj_v = aa_adjacency(aa)
    c = aa.diagram.crossing_count - 1  # crossings of the tangle
    v_d = s_A(dr)
    vb_d = s_B(dr)
    a0 = (1 - adj_u) * (1 if v_d % 2 == 0 else -1)
    ak = (1 - adj_v) * (1 if (vb_d - 1) % 2 == 0 else -1)
    return ((c + 2 * v_d - 5, a0), (7 - c - 2 * vb_d, ak))


_IMPLIED = ("not_almost_alternating", "turaev_genus_ge_2", "dealternating_number_ge_2")


def jones_obstruction(v) -> ObstructionVerdict:
    if not v.coeffs:
        raise ValueError("zero polynomial has no extreme coefficients")
    a_m = v.coefficient(v.min_exponent())
    a_M = v.coefficient(v.max_exponent())
    fires = abs(a_m) >= 2 and abs(a_M) >= 2
    return ObstructionVerdict(
        a_m=a_m, a_M=a_M, fires=fires, implied=_IMPLIED if fires else ()
    )
