"""Design rules checked on the package's own code: what the CLI runs, and
rules read off the syntax trees of ``src`` and ``tests``."""

import ast
import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import pytest

import knotinv
from knotinv.cli import main

SRC = Path(knotinv.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
# every file of src and tests, parsed once: the design rules below read the
# trees, and test_src_is_what_the_cli_runs compiles those of src
TREES = {
    path: ast.parse(path.read_text(encoding="utf-8")) for path in [*SRC.glob("*.py"), *TESTS.glob("*.py")]
}

# every command, as JSON and as text, over the bundled data, the signature
# cases and the CSV rows with a PD code, and on a polynomial with a
# half-integer exponent
CLI_RUNS = [
    [command, str(pd), *flag]
    for command in ("invariants", "decompose")
    for pd in (SRC / "data" / "sample_knots.pd", DATA / "signature_cases.pd")
    for flag in ([], ["--json"])
] + [
    ["obstruct", source, *flag]
    for source in (
        f"--csv={SRC / 'data' / 'obstruction_examples.csv'}",
        f"--csv={DATA / 'obstruct_with_pd.csv'}",
        "--poly=t^{-5/2} - 2t^{1/2} + 3",
    )
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
    # dunders for printing, pickling, hashing and refused assignment
    "diagram.Diagram.__eq__", "diagram.Diagram.__hash__", "diagram.Diagram.__reduce__",
    "diagram.Diagram.__repr__", "diagram.FaceStructure.__repr__",
    "diagram.OrientedDiagram.__repr__", "laurent.LaurentPoly.__repr__",
    "frozen.Frozen.__setattr__", "frozen.Frozen.__delattr__", "frozen.Frozen.__reduce__",
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

    for path, tree in TREES.items():
        if path.parent == SRC and path.stem not in ("__init__", "sampling"):
            module = importlib.import_module(f"knotinv.{path.stem}")
            walk(compile(tree, module.__file__, "exec"), path.stem + ".")
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


def _facts(scope: str, node: ast.AST):
    """(scope, kind, name) of each call, import, class base, argument, def or
    variable, and written dict key under ``node``.  The scope is the dotted
    name of the class, function or ``if TYPE_CHECKING:`` body that a node is
    in or opens."""
    for n in ast.iter_child_nodes(node):
        inner = f"{scope}.{n.name}" if isinstance(n, (ast.ClassDef, ast.FunctionDef)) else scope
        inner += ".TYPE_CHECKING" * (isinstance(n, ast.If) and getattr(n.test, "id", "") == "TYPE_CHECKING")
        if isinstance(n, ast.Call):
            yield inner, "call", getattr(n.func, "id", getattr(n.func, "attr", ""))
        elif isinstance(n, (ast.Import, ast.ImportFrom)):  # a relative module keeps its dots
            for a in n.names:
                yield inner, "import", "." * getattr(n, "level", 0) + (getattr(n, "module", None) or a.name)
        elif isinstance(n, ast.ClassDef):  # a class with no base has the base ""
            for b in n.bases or [ast.Name("")]:
                yield inner, "class", getattr(b, "id", getattr(b, "attr", ""))
        elif isinstance(n, (ast.keyword, ast.arg)):
            yield inner, "arg", n.arg
        elif isinstance(n, (ast.FunctionDef, ast.Name)):
            yield inner, "name", getattr(n, "name", getattr(n, "id", None))
        elif isinstance(n, ast.Dict):
            yield from ((inner, "key", getattr(k, "value", None)) for k in n.keys)
        elif isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store):
            yield inner, "key", getattr(n.slice, "value", None)
        yield from _facts(inner, n)


FACTS = {path.stem: list(_facts(path.stem, tree)) for path, tree in TREES.items()}
SRC_MODULES, TEST_MODULES = ([p.stem for p in TREES if p.parent == top] for top in (SRC, TESTS))


def _where(modules, kinds, keep) -> list[str]:
    """The sorted scopes of the facts of ``kinds`` in the modules whose name
    is ``keep``, or passes ``keep`` if it is a test."""
    match = keep if callable(keep) else lambda name: name == keep
    return sorted(s for m in modules for s, kind, name in FACTS[m] if kind in kinds and match(name))


VALUES = ["diagram.Diagram", "laurent.LaurentPoly"]
# each design rule: where the trees break it or use what it limits, and where they may
RULES = {
    # the helpers test modules share live in conftest.py, so each stands alone
    "no_test_module_imports_another": (
        _where(TEST_MODULES, ["import"], lambda m: m.startswith("test_")), []),
    # dataclasses loads inspect, ast, dis and tokenize: a third of the CLI's start-up
    "src_imports_no_dataclasses": (
        _where(SRC_MODULES, ["import"], lambda m: m.split(".")[0] == "dataclasses"), []),
    # a diagram validates on its first fs read and keeps its face structure
    "only_diagram_fs_validates": (_where(SRC_MODULES, ["call"], "validate"), ["diagram.Diagram.fs"]),
    # each step takes a diagram's one analysis, which only the CLI and a sampler build
    "steps_take_one_analysis": (
        _where(SRC_MODULES, ["call"], "DiagramAnalysis")
        + _where(["decomp", "invariants"], ["import"], ".analysis"),
        ["cli.analyze_record", "cli.decompose_record", "cli.obstruct_record",
         "sampling.random_almost_alternating_diagram", "decomp.TYPE_CHECKING", "invariants.TYPE_CHECKING"]),
    # a value is its fields: all but two are NamedTuples, compared field by field
    "values_are_their_fields": (
        [_where(SRC_MODULES, ["class"], "Frozen"), _where(SRC_MODULES, ["name"], "__eq__"),
         _where(SRC_MODULES, ["class"], lambda b: b not in ("NamedTuple", "Frozen") and not b.endswith("Error"))],
        [VALUES, [v + ".__eq__" for v in VALUES],
         ["analysis.DiagramAnalysis", "frozen.Frozen", "textio.KnotRecord"]]),
    # a diagram's edge count is read off its crossings
    "values_hold_no_derived_state": (_where(SRC_MODULES + TEST_MODULES, ["arg"], "edge_count"), []),
    # main reads the records in one place, and cli._err builds every error cell
    "one_record_loop": (
        _where(["cli"], ["call"], "read_pd_file") + _where(SRC_MODULES, ["key"], "message"),
        ["cli.main", "cli._err"]),
    # the packed sum is divided by delta once; the dict division is the oracle's
    "the_bracket_divides_once": (
        _where(["statesum"], ["call"], "divmod")
        + _where(SRC_MODULES, ["call", "import", "name"], "_over_delta"),
        ["statesum.kauffman_bracket"]),
}


@pytest.mark.parametrize("rule", RULES)
def test_design_rule(rule):
    found, allowed = RULES[rule]
    assert found == allowed
