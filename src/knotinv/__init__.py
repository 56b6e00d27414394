"""State-sum invariants, Turaev genus, and signature formulas for link
diagrams given as PD codes."""

from .diagram import (
    Diagram,
    DiagramError,
    FaceStructure,
    OrientedDiagram,
    PDSyntaxError,
    crossing_signs,
    orient,
    parse_pd,
    serialize_pd,
    validate,
)
from .laurent import LaurentPoly
from .statesum import (
    CrossingLimitError,
    determinant,
    goeritz_determinant,
    jones,
    kauffman_bracket,
    s_A,
    s_B,
)
from .decomp import (
    AltDecomposition,
    GenusOneStructure,
    Tangle,
    alternating_decomposition,
    classify_orientation,
    closures,
    nonalternating_edges,
    oriented_closure,
    recognize_genus_one,
    turaev_genus,
)
from .analysis import DiagramAnalysis
from .invariants import (
    ObstructionVerdict,
    SignatureReport,
    conway_determinant,
    genus_one_knot_signature,
    giller_mod4_check,
    jones_obstruction,
    reduce_kinks,
    signature_bounds,
    tangle_sum_signature,
    traczyk_signature,
)
from .textio import KnotRecord, PolyParseError, parse_poly, read_csv, read_pd_file

__version__ = "0.1.0"
