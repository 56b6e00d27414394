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
from knotinv import textio
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
# cases and the CSV rows with a PD code, on a polynomial with a
# half-integer exponent, and on one with a repeated exponent, which the
# term walk sums
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
        "--poly=2t^{-3} - t + 3t^-3",
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
    # dunders for printing, pickling, hashing and refused assignment
    "diagram.Diagram.__eq__", "diagram.Diagram.__hash__", "diagram.Diagram.__reduce__",
    "diagram.Diagram.__repr__", "diagram.Diagram.__setattr__", "diagram.Diagram.__delattr__",
    "diagram.FaceStructure.__repr__", "diagram.OrientedDiagram.__repr__",
    # what _replace calls, so that a changed copy of a polynomial is normalised
    "laurent.LaurentPoly._make",
    # error-message helpers, for inputs the runs do not hold
    "diagram._token_error", "diagram._free_loop_error", "cli._err",
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
        textio._TERMS.clear()  # each run starts, as a CLI process does, with no term read
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(hook)
            try:
                assert main(argv) == 0, argv
            finally:
                sys.setprofile(None)
    assert {name for key, name in _src_functions().items() if key not in entered} == NEVER_ENTERED


def _facts(scope: str, node: ast.AST):
    """(scope, kind, name) of each call, import, class base, argument, def or
    variable, written dict key, parameter or NamedTuple field with a
    default, attribute read as a bare statement, and ``m.x`` read (an
    attribute of a bare name, or a name imported from a module) under
    ``node``.  The scope is the dotted name of the class, function or
    ``if TYPE_CHECKING:`` body that a node is in or opens."""
    for n in ast.iter_child_nodes(node):
        inner = f"{scope}.{n.name}" if isinstance(n, (ast.ClassDef, ast.FunctionDef)) else scope
        inner += ".TYPE_CHECKING" * (isinstance(n, ast.If) and getattr(n.test, "id", "") == "TYPE_CHECKING")
        if isinstance(n, ast.Call):
            yield inner, "call", getattr(n.func, "id", getattr(n.func, "attr", ""))
        elif isinstance(n, (ast.Import, ast.ImportFrom)):  # a relative module keeps its dots
            for a in n.names:
                yield inner, "import", "." * getattr(n, "level", 0) + (getattr(n, "module", None) or a.name)
                yield inner, "read", f"{getattr(n, 'module', None)}.{a.name}"
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
        elif isinstance(n, ast.arguments):  # the defaults go to the last positional parameters
            params = [*n.posonlyargs, *n.args]
            named = params[len(params) - len(n.defaults):] + [a for a, v in zip(n.kwonlyargs, n.kw_defaults) if v]
            yield from ((inner, "default", a.arg) for a in named)
        elif isinstance(n, ast.AnnAssign) and n.value and isinstance(node, ast.ClassDef):
            yield inner, "default", n.target.id
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            yield inner, "read", f"{n.value.id}.{n.attr}"
        elif isinstance(n, ast.Expr):
            yield inner, "statement", getattr(n.value, "attr", None)
        yield from _facts(inner, n)


FACTS = {path.stem: list(_facts(path.stem, tree)) for path, tree in TREES.items()}
SRC_MODULES, TEST_MODULES = ([p.stem for p in TREES if p.parent == top] for top in (SRC, TESTS))


def _where(modules, kinds, keep) -> list[str]:
    """The sorted scopes of the facts of ``kinds`` in the modules whose name
    is ``keep``, or passes ``keep`` if it is a test."""
    match = keep if callable(keep) else lambda name: name == keep
    return sorted(s for m in modules for s, kind, name in FACTS[m] if kind in kinds and match(name))


# each design rule: where the trees break it or use what it limits, and where they may
RULES = {
    # the helpers test modules share live in conftest.py, so each stands alone
    "no_test_module_imports_another": (
        _where(TEST_MODULES, ["import"], lambda m: m.startswith("test_")), []),
    # the CLI's start-up pays for every module it imports, and without a
    # bytecode cache for compiling each of src's: a new import is a choice
    # made here (dataclasses alone, with inspect, ast, dis and tokenize,
    # was a third of the start-up)
    "src_imports": (
        sorted({f"{s} {name}" for m in SRC_MODULES for s, kind, name in FACTS[m]
                if kind == "import" and not name.startswith(".")}),
        ["analysis __future__", "analysis functools", "cli __future__", "cli argparse", "cli json",
         "cli sys", "decomp __future__", "decomp typing", "diagram __future__",
         "diagram collections.abc", "diagram re", "diagram typing",
         "invariants __future__", "invariants typing", "laurent __future__", "laurent typing",
         "sampling __future__", "sampling functools", "sampling itertools", "sampling random",
         "sampling typing", "statesum __future__", "textio __future__",
         "textio csv", "textio re", "textio typing"]),
    # a diagram validates itself when it is built and keeps its face structure
    "only_diagram_fs_validates": (_where(SRC_MODULES, ["call"], "validate"), ["diagram.Diagram.__init__"]),
    # every diagram is valid, so a bare fs read, which could only validate, has no use
    "one_validity_gate": (_where(SRC_MODULES, ["statement"], "fs"), []),
    # every default a caller may leave out is an option, so a new one is
    # added here only when callers need different values
    "settable_values": (
        sorted(f"{s} {name}" for m in SRC_MODULES for s, kind, name in FACTS[m] if kind == "default"),
        ["cli.main argv", "sampling.assemble flips", "sampling.assemble mirror_all",
         "sampling.random_genus_one_diagram tangle_sizes",
         "textio.KnotRecord jones_text", "textio.KnotRecord pd_text"]),
    # each step takes a diagram's one analysis, which only the CLI builds
    "steps_take_one_analysis": (
        _where(SRC_MODULES, ["call"], "DiagramAnalysis")
        + _where(["decomp", "invariants", "sampling"], ["import"], ".analysis"),
        ["cli._analysis", "decomp.TYPE_CHECKING", "invariants.TYPE_CHECKING"]),
    # a value is its fields: nine are NamedTuples, compared field by field
    # (LaurentPoly derives from its fields' NamedTuple, which it normalises),
    # and Diagram compares its crossings
    "values_are_their_fields": (
        [_where(SRC_MODULES, ["name"], "__eq__"),
         _where(SRC_MODULES, ["class"], lambda b: b != "NamedTuple" and not b.endswith("Error"))],
        [["diagram.Diagram.__eq__"], ["analysis.DiagramAnalysis", "diagram.Diagram", "laurent.LaurentPoly"]]),
    # a diagram's edge count is read off its crossings
    "values_hold_no_derived_state": (_where(SRC_MODULES + TEST_MODULES, ["arg"], "edge_count"), []),
    # main reads the records in one place, and cli._err builds every error cell
    "one_record_loop": (
        _where(["cli"], ["call"], "read_pd_file") + _where(SRC_MODULES, ["key"], "message"),
        ["cli.main", "cli._err"]),
    # a private name is read only inside its module, but where pinned here
    # (a NamedTuple's _asdict or _replace is not a module's private name)
    "private_reads": (
        sorted(f"{m} {name}" for m in SRC_MODULES for s, kind, name in FACTS[m]
               if kind == "read" and name.split(".")[0] in set(SRC_MODULES) - {m}
               and name.split(".")[1].startswith("_")),
        ["analysis decomp._arc_runs", "analysis statesum._goeritz_form",
         "analysis statesum._gordon_litherland", "analysis statesum._jones_from_bracket",
         "decomp statesum._goeritz_matrix", "decomp statesum._gordon_litherland",
         "decomp statesum._nested_det_signatures"]),
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
