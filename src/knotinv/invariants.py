"""Signature formulas, determinant identities and the Jones obstruction for
genus-one diagrams."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .diagram import Diagram, DiagramError, OrientedDiagram, orient, rejoin
from .decomp import GenusOneStructure, classify_orientation

if TYPE_CHECKING:
    from .analysis import DiagramAnalysis

__all__ = [
    "SignatureReport",
    "ObstructionVerdict",
    "reduce_kinks",
    "traczyk_signature",
    "signature_bounds",
    "genus_one_knot_signature",
    "tangle_sum_signature",
    "conway_determinant",
    "jones_obstruction",
    "giller_mod4_check",
]


class SignatureReport(NamedTuple):
    """Bounds on a signature, its exact value where the formula gives one,
    and the formula's name."""

    lower: int
    upper: int
    exact: int | None
    method: str


_IMPLIED = ("not_almost_alternating", "turaev_genus_ge_2", "dealternating_number_ge_2")


class ObstructionVerdict(NamedTuple):
    """The extreme coefficients of a Jones polynomial, lowest exponent
    first.  The obstruction fires when both have absolute value at least 2,
    and then ``implied`` names what that rules out (Dasbach-Lowrance)."""

    a_m: int
    a_M: int

    @property
    def fires(self) -> bool:
        return abs(self.a_m) >= 2 and abs(self.a_M) >= 2

    @property
    def implied(self) -> tuple[str, ...]:
        return _IMPLIED if self.fires else ()

    def to_json(self) -> dict:
        """The coefficients, ``fires`` and ``implied`` as a list, as JSON
        reads them back."""
        return {"a_m": self.a_m, "a_M": self.a_M, "fires": self.fires, "implied": list(self.implied)}


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
    """The Gordon-Litherland signature between the Traczyk bounds."""
    _, c_plus, c_minus, _ = a.signs
    return SignatureReport(a.s_A - c_plus - 1, -a.s_B + c_minus + 1, a.signature, "gordon_litherland")


def giller_mod4_check(sigma: int, det: int) -> bool:
    if det % 2 == 0:
        raise ValueError(f"determinant {det} is even (not a knot)")
    if sigma % 2:
        raise ValueError(f"signature {sigma} is odd")
    return (sigma - (det - 1)) % 4 == 0


def _mod4_choice(m: int, det: int) -> int:
    """The one of m - 1 and m + 1 that the mod-4 rule admits for a knot of
    determinant ``det`` (Theorems 1 and 2 pin the signature to these two)."""
    return m - 1 if giller_mod4_check(m - 1, det) else m + 1


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


def _smooth(d: Diagram, ci: int, choice: str) -> Diagram:
    """Replace crossing ci by its A- or B-smoothing, which joins dart a to
    ``a ^ 1`` or ``a ^ 3`` as in ``statesum._state_loops``; the other
    crossings keep their order, as :func:`~knotinv.diagram.rejoin` does."""
    flip = 1 if choice == "A" else 3
    keep = tuple(cj for cj in range(d.crossing_count) if cj != ci)
    return rejoin(d, keep, {a: a ^ flip for a in range(4 * ci, 4 * ci + 4)})


def jones_obstruction(v) -> ObstructionVerdict:
    c = v.coeffs
    if not c:
        raise ValueError("zero polynomial has no extreme coefficients")
    # coeffs run by ascending exponent
    return ObstructionVerdict(next(iter(c.values())), next(reversed(c.values())))
