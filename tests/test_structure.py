"""Package structure: every intra-package import sits at module top and the
modules form an acyclic graph, with serialize at the bottom beside params;
the package loads each module (and numpy, with entropy) only on first use.
The tests' bound oracles, in tests/oracles.py, share no code with it."""

import ast
import importlib.util
import json
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import macckit
from macckit import schemes

PACKAGE = Path(macckit.__file__).resolve().parent
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
TESTS = Path(__file__).resolve().parent
TEST_TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in TESTS.glob("*.py")}


def _targets(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The package modules an import statement loads ('__init__' for the
    package itself); empty for imports from outside the package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        assert node.level <= 1, "the package has no subpackages"
        base = ".".join(filter(None, ("macckit" if node.level else "", node.module)))
        # "from macckit import name" loads macckit.name when name is a module
        names = [
            f"{base}.{alias.name}" if base == "macckit" and alias.name in TREES else base
            for alias in node.names
        ]
    return {
        "__init__" if name == "macckit" else name.split(".")[1]
        for name in names
        if name == "macckit" or name.startswith("macckit.")
    }


def _lazy_modules(tree: ast.Module) -> set[str]:
    """The modules a module-level _LAZY table names, each loaded on first use
    by the package's __getattr__: they are its keys."""
    tables = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_LAZY"]
    ]
    return {key.value for table in tables for key in table.keys}


def _imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(modules imported at module level, counting those a _LAZY table loads
    on first use, modules imported inside a function)."""
    top, local = _lazy_modules(tree), set()

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            (local if in_function else top).update(_targets(node))
        inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return top, local


IMPORTS = {name: _imports(tree) for name, tree in TREES.items()}


def test_walker_sees_the_package_imports():
    # guards the tests below against passing on an empty graph; cli reaches
    # entropy through the package, whose lazy table is an edge of the graph
    assert {"__init__", "bounds", "schemes", "serialize", "params"} <= IMPORTS["cli"][0]
    assert "entropy" not in IMPORTS["cli"][0]
    assert "params" in IMPORTS["bounds"][0]
    assert IMPORTS["__init__"] == ({"bounds", "params", "schemes", "tradeoff", "entropy"}, set())


def test_package_import_loads_no_submodule():
    probe = (
        "import json, sys, macckit\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('macckit', 'numpy'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=PACKAGE.parent, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["macckit"]


def test_package_lookup_follows_a_patched_module(monkeypatch):
    # nothing is cached in the package, so a patched (e.g. traced) function
    # is what the package hands out, and the original once the patch is undone
    original = macckit.bounds.best_lower_bound
    sentinel = object()
    monkeypatch.setattr(macckit.bounds, "best_lower_bound", sentinel)
    assert macckit.best_lower_bound is sentinel
    monkeypatch.undo()
    assert macckit.best_lower_bound is original


def test_dir_lists_every_export():
    assert set(macckit.__all__) | {"entropy"} <= set(dir(macckit))


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from macckit import *", namespace)
    assert set(macckit.__all__) <= set(namespace)
    assert namespace["JointPmf"] is macckit.entropy.JointPmf


def test_lazy_export_imports_by_name():
    from macckit import JointPmf, entropy

    assert JointPmf is entropy.JointPmf


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'macckit' has no attribute 'nope'$"):
        macckit.nope
    assert not hasattr(macckit, "nope")


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_function_body_imports_the_package(module):
    assert IMPORTS[module][1] == set()


def test_serialize_imports_nothing_from_the_package():
    assert IMPORTS["serialize"] == (set(), set())


def test_tradeoff_imports_nothing_from_bounds():
    # as_memory lives in params, so a hull routine shared with bounds cannot cycle
    assert "bounds" not in IMPORTS["tradeoff"][0] | IMPORTS["tradeoff"][1]
    assert "params" in IMPORTS["tradeoff"][0]


def test_bounds_uses_no_floats():
    # every bound value is exact: bounds.py has no float literal and never
    # names float, not even in an annotation
    nodes = list(ast.walk(TREES["bounds"]))
    assert any(isinstance(node, ast.Name) and node.id == "Fraction" for node in nodes)
    literals = [n.lineno for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, float)]
    names = [n.lineno for n in nodes if isinstance(n, ast.Name) and n.id == "float"]
    assert (literals, names) == ([], [])


def _functions(tree: ast.Module) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_oracles_import_nothing_but_fractions():
    # no path to macckit, direct or through another module, so no check on
    # bounds can pass by sharing the code it checks
    imports = [n for n in ast.walk(TEST_TREES["oracles"]) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [ast.unparse(node) for node in imports] == ["from fractions import Fraction"]


def test_no_other_test_module_writes_its_own_oracle():
    oracles = {node.name for node in TEST_TREES["oracles"].body if isinstance(node, ast.FunctionDef)}
    assert {"cutset_thm1", "first_maximum", "breakpoints"} <= oracles
    retired = {"first_strict_maximum", "full_lemma2_terms", "full_terms", "oracle_point"}
    own = {
        (module, name)
        for module, tree in TEST_TREES.items()
        if module != "oracles"
        for name in _functions(tree)
        if name in oracles | retired or name.startswith("brute_")
    }
    assert own == set()


def test_module_imports_are_acyclic():
    # every import counts, not only top-level ones, so a cycle cannot hide
    # inside a function body
    graph = {name: top | local for name, (top, local) in IMPORTS.items()}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_perfbench_tracer_targets_exist():
    # the tracer skips a scheme method a class does not define itself, so a
    # moved or renamed method would silently drop out of the traced work counts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, *_ in tracer._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    for scheme_class in schemes.SCHEMES.values():
        for method in ("place", "deliver", "decode"):
            assert method in scheme_class.__dict__, f"{scheme_class.__name__}.{method}"
