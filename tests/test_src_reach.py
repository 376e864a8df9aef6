"""Every function, class and method in the package is reached by code that
runs the experiments, not only by tests.

A name counts as reached when it appears in ``src/``, ``scripts/`` or
``perfbench/`` (test files excluded) as a name, an attribute, an import
alias or a string constant; its own definition does not count. The
allowlist holds the test oracles kept on purpose in the package.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nisq_lab"

ORACLES = {
    # the placement adjacency contract each enumerator must meet
    "check": "tests/test_topology.py::test_every_enumerated_placement_satisfies_its_invariants",
    # the CCT/CTC equal-CNOT-depth identity of criterion 2
    "depth": "tests/test_acceptance.py::test_criterion_2_count_identities",
}


def _defined(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name


def _used(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_name_is_reached_outside_the_tests():
    defined = {name for path in sorted(PACKAGE.glob("*.py"))
               for name in _defined(ast.parse(path.read_text(encoding="utf-8")))}
    used: set[str] = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                used.update(_used(ast.parse(path.read_text(encoding="utf-8"))))
    unreached = sorted(defined - used - ORACLES.keys())
    assert not unreached, f"reached only by tests: {unreached}"
    assert ORACLES.keys() <= defined
