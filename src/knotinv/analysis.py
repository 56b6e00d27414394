"""One diagram's invariants, each computed at most once.

A :class:`DiagramAnalysis` wraps one diagram, which is valid since it was
built (:class:`~knotinv.diagram.Diagram` validates itself).  Each field is
computed the first time it is read, from the fields already computed, and
then kept on the object.  The CLI builds one analysis per record and drops
it with the record; nothing is cached beyond it, so memory does not grow
with the number of records.

The public functions of :mod:`knotinv.decomp` and :mod:`knotinv.invariants`
that need these fields take the analysis as their one argument, so this is
the one module that puts them together.
"""

from __future__ import annotations

from functools import cached_property

from . import decomp, statesum
from .diagram import Diagram, OrientedDiagram, crossing_signs, orient
from .laurent import LaurentPoly

__all__ = ["DiagramAnalysis"]


class DiagramAnalysis:
    """Lazily computed invariants of one diagram, valid as every built
    diagram is.

    ``od`` is the diagram's default orientation.  Reading ``bracket`` or
    ``jones`` raises :class:`~knotinv.statesum.CrossingLimitError` when the
    bracket's sweep would be too wide; every other field is polynomial in
    the crossing count.
    """

    def __init__(self, d: Diagram):
        self.diagram = d

    @cached_property
    def od(self) -> OrientedDiagram:
        return orient(self.diagram)

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
        return decomp.turaev_genus(self)

    @cached_property
    def nonalternating(self) -> set[int]:
        return decomp.nonalternating_edges(self.diagram)

    @cached_property
    def arc_runs(self) -> decomp.ArcRuns:
        """The decomposition's arcs and their runs of corners, from which its
        curves and the genus-one tangles' Goeritz forms are read."""
        return decomp._arc_runs(self.diagram)

    @cached_property
    def decomposition(self) -> decomp.AltDecomposition:
        return decomp.alternating_decomposition(self)

    @cached_property
    def genus_one(self) -> decomp.GenusOneStructure | None:
        """The genus-one normal form, or None when the diagram is not in it.

        Its tangles' Goeritz forms, which give the closure determinants and
        signatures with no closure built, are read when it is recognized and
        kept on the structure."""
        return decomp.recognize_genus_one(self)

    @cached_property
    def goeritz(self) -> tuple[int, int, list[int]]:
        """(det, signature, eta per crossing) of the Goeritz form G."""
        return statesum._goeritz_form(self.diagram)

    @cached_property
    def det(self) -> int:
        return abs(self.goeritz[0])

    @cached_property
    def signature(self) -> int:
        """Gordon-Litherland, read off ``goeritz``, so ``det``'s elimination
        is reused."""
        _, sign_g, etas = self.goeritz
        return statesum._gordon_litherland(sign_g, self.signs[0], etas)

    @cached_property
    def bracket(self) -> LaurentPoly:
        return statesum.kauffman_bracket(self.diagram)

    @cached_property
    def jones(self) -> LaurentPoly:
        """Reads the writhe off ``signs``, so the signs are worked out once."""
        return statesum._jones_from_bracket(self.bracket, self.signs[3])
