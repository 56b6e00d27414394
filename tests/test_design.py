"""Design rules checked on the package's own code."""

import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import knotinv
from knotinv.cli import main

SRC = Path(knotinv.__file__).resolve().parent
DATA = Path(__file__).resolve().parent / "data"

# every command, as JSON and as text, over the bundled data and the
# signature cases, and on a polynomial with a half-integer exponent
CLI_RUNS = [
    [command, str(pd), *flag]
    for command in ("invariants", "decompose")
    for pd in (SRC / "data" / "sample_knots.pd", DATA / "signature_cases.pd")
    for flag in ([], ["--json"])
] + [
    ["obstruct", source, *flag]
    for source in (f"--csv={SRC / 'data' / 'obstruction_examples.csv'}", "--poly=t^{-5/2} - 2t^{1/2} + 3")
    for flag in ([], ["--json"])
]

# The functions of src that no CLI run enters, each kept for the reason
# given; anything else that the CLI never runs does not belong in src.
NEVER_ENTERED = {
    # names the benchmark traces or calls, and the helpers only they call
    "decomp.closures", "decomp._close", "decomp._joins", "decomp.oriented_closure",
    "diagram.rejoin", "diagram.serialize_pd", "invariants.reduce_kinks", "invariants._smooth",
    "statesum.determinant", "statesum.goeritz_determinant", "statesum.jones",
    # the state-graph and almost-alternating helpers, for the knot-level
    # Turaev genus bounds that will put them on the CLI path
    "statesum.state_graph", "statesum.adequacy", "statesum.StateGraph.reduced_edge_count",
    "statesum.StateGraph.has_loop_edge", "invariants.dl_coefficients", "invariants.is_reduced",
    "invariants._check_aa_reduced", "invariants.aa_adjacency", "invariants._adjacency",
    "invariants.aa_extreme_coefficients", "analysis.DiagramAnalysis.dealternator",
    # dunders for printing, pickling, hashing, refused assignment and comparing
    # polynomials (a CSV row with both a polynomial and a PD code)
    "diagram.Diagram.__eq__", "diagram.Diagram.__hash__", "diagram.Diagram.__reduce__",
    "diagram.Diagram.__repr__", "diagram.FaceStructure.__repr__",
    "diagram.OrientedDiagram.__repr__", "laurent.LaurentPoly.__eq__",
    "laurent.LaurentPoly.__repr__", "frozen.Frozen.__setattr__", "frozen.Frozen.__delattr__",
    "frozen.Frozen.__reduce__",
    # error-message helpers, for inputs the runs do not hold
    "diagram._token_error", "cli._err",
}


def _src_functions() -> dict[tuple[str, int, str], str]:
    """Every named function of src as (file, first line, name) -> its dotted
    name, but those of ``knotinv.sampling``, which draws diagrams for the
    tests and the benchmark only."""
    out = {}

    def walk(code, prefix: str) -> None:
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    out[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                    name += ".<locals>"
                walk(const, name + ".")

    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ("__init__", "sampling"):
            module = importlib.import_module(f"knotinv.{path.stem}")
            walk(compile(path.read_text(encoding="utf-8"), module.__file__, "exec"), path.stem + ".")
    return out


def test_src_is_what_the_cli_runs():
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    for argv in CLI_RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(hook)
            try:
                assert main(argv) == 0, argv
            finally:
                sys.setprofile(None)
    assert {name for key, name in _src_functions().items() if key not in entered} == NEVER_ENTERED
