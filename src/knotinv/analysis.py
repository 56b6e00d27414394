"""One diagram's invariants, each computed at most once.

A :class:`DiagramAnalysis` wraps one diagram.  Each field is computed the
first time it is read, from the fields already computed, and then kept on
the object.  The CLI builds one analysis per record and drops it with the
record; nothing is cached beyond it, so memory does not grow with the number
of records.

The public functions of :mod:`knotinv.decomp` and :mod:`knotinv.invariants`
that need these fields take an optional ``analysis`` argument.  Without it
they build their own, so each can still be called on a bare diagram.
"""

from __future__ import annotations

from functools import cached_property

from . import decomp, statesum
from .diagram import Diagram, FaceStructure, OrientedDiagram, crossing_signs, orient, validate
from .laurent import LaurentPoly

__all__ = ["DiagramAnalysis"]


class DiagramAnalysis:
    """Lazily computed invariants of one diagram.

    ``od`` imposes an orientation; without it the default orientation of
    :func:`~knotinv.diagram.orient` is used.  ``max_crossings`` bounds the
    state sum behind ``bracket`` and ``jones``; every other field is
    polynomial in the crossing count and has no limit.
    """

    def __init__(self, d: Diagram, od: OrientedDiagram | None = None,
                 max_crossings: int | None = None):
        self.diagram = d
        self.max_crossings = max_crossings
        if od is not None:
            self.od = od

    @cached_property
    def fs(self) -> FaceStructure:
        """Face structure; reading it validates the diagram."""
        return validate(self.diagram)

    @cached_property
    def od(self) -> OrientedDiagram:
        return orient(self.diagram, fs=self.fs)

    @cached_property
    def signs(self) -> tuple[tuple[int, ...], int, int, int]:
        """Per-crossing signs, c_plus, c_minus and the writhe."""
        return crossing_signs(self.od)

    @cached_property
    def s_A(self) -> int:
        return statesum.s_A(self.diagram)

    @cached_property
    def s_B(self) -> int:
        return statesum.s_B(self.diagram)

    @cached_property
    def turaev_genus(self) -> int:
        return decomp.turaev_genus(self.diagram, self)

    @cached_property
    def nonalternating(self) -> set[int]:
        return decomp.nonalternating_edges(self.diagram)

    @cached_property
    def decomposition(self) -> decomp.AltDecomposition:
        return decomp.alternating_decomposition(self.diagram, self)

    @cached_property
    def genus_one(self) -> decomp.GenusOneStructure | None:
        """The genus-one normal form, or None when the diagram is not in it.

        Its tangles' closure determinants are cached on the structure."""
        return decomp.recognize_genus_one(self.diagram, self)

    @cached_property
    def det(self) -> int:
        return statesum.goeritz_determinant(self.diagram, self.fs)

    @cached_property
    def bracket(self) -> LaurentPoly:
        return statesum.kauffman_bracket(self.diagram, self.max_crossings)

    @cached_property
    def jones(self) -> LaurentPoly:
        return statesum.jones(self.od, bracket=self.bracket)
