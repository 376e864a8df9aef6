"""Every function, class and method in the package is reached by code that
runs the experiments, not only by tests.

Each use of a name is resolved to the definitions it can reach:

* ``Class.attr`` to that package class's ``attr``;
* ``self.attr`` and ``cls.attr`` inside a class to that class's ``attr``;
* an attribute on any other receiver, and a string constant, to every
  definition of that name, top-level or method (conservative);
* a bare name or an import to every top-level definition of that name.

A use counts only when it comes from a root or from a reached definition,
applied until nothing changes. The roots are the code that runs at import
in ``src/`` (module and class bodies, decorators, default values) and every
non-test file of ``scripts/`` and ``perfbench/``. Using a class reaches it
and its dunder methods. The allowlist holds the test oracles kept on
purpose in the package.

Known blind spots: a method named like one in another class and called
through a receiver that is not ``self``, ``cls`` or the class name counts
as reached for both classes, so a test-only method hides behind its
namesake. A method inherited from a package base class is not followed
through ``Sub.attr``; no package class has a package base, and such a use
would show as a false report, not a missed one.
"""
import ast
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nisq_lab"

ORACLES = {
    # the placement adjacency contract each enumerator must meet
    "GeometryPlacement.check":
        "tests/test_topology.py::test_every_enumerated_placement_satisfies_its_invariants",
    # the CCT/CTC equal-CNOT-depth identity of criterion 2
    "Circuit.depth": "tests/test_acceptance.py::test_criterion_2_count_identities",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _header(node) -> list:
    """The parts of a def or class statement that run where it stands."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords
    return node.decorator_list + node.args.defaults + [d for d in node.args.kw_defaults if d]


def _import_time(body) -> list:
    """The nodes of a module or class body that run when it runs."""
    out = []
    for node in body:
        if isinstance(node, (*_DEFS, ast.ClassDef)):
            out += _header(node)
            if isinstance(node, ast.ClassDef):
                out += _import_time(node.body)
        else:
            out.append(node)
    return out


def _uses(nodes, owner: str | None, classes) -> set[tuple]:
    """``(receiver, name)`` for each use under ``nodes``: receiver is a class
    name, None for any receiver or a string constant, "" for a bare name."""
    out = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            recv = node.value.id if isinstance(node.value, ast.Name) else None
            if recv in ("self", "cls") and owner:
                out.add((owner, node.attr))
            else:
                out.add((recv if recv in classes else None, node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(("", node.id))
        elif isinstance(node, ast.alias):
            out.add(("", node.name.rsplit(".", 1)[-1]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add((None, node.value))
    return out


def unreached(package: dict[str, ast.Module], roots: list[ast.Module]) -> set[str]:
    """The qualified names of the package definitions (top-level functions
    and classes, non-dunder methods) that no root reaches."""
    bodies = {}  # (module, qualname) -> (nodes whose uses it reaches, owner class)
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, _DEFS):
                bodies[module, node.name] = (node.body, None)
            elif isinstance(node, ast.ClassDef):
                dunders = []
                for item in node.body:
                    if isinstance(item, _DEFS):
                        if _is_dunder(item.name):
                            dunders += item.body
                        else:
                            bodies[module, f"{node.name}.{item.name}"] = (item.body, node.name)
                bodies[module, node.name] = (dunders, node.name)
    by_name, top, member = {}, {}, {}
    for key in bodies:
        owner, _, name = key[1].rpartition(".")
        by_name.setdefault(name, set()).add(key)
        if owner:
            member[owner, name] = key
        else:
            top.setdefault(name, set()).add(key)
    classes = {owner for owner, _ in member}  # the classes with methods to resolve to

    def targets(uses):
        for recv, name in uses:
            if recv == "":
                yield from top.get(name, ())
            elif recv is None:
                yield from by_name.get(name, ())
            elif (recv, name) in member:
                yield member[recv, name]

    start = set()
    for tree in package.values():
        start.update(_uses(_import_time(tree.body), None, classes))
    for tree in roots:
        start.update(_uses([tree], None, classes))
    reached, todo = set(), list(targets(start))
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            nodes, owner = bodies[key]
            todo += targets(_uses(nodes, owner, classes))
    return {qual for _, qual in set(bodies) - reached}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _sources() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    package = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    roots = [_parse(path) for folder in ("scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if not path.name.startswith("test_")]
    return package, roots


def test_every_package_name_is_reached_outside_the_tests():
    started = time.perf_counter()
    package, roots = _sources()
    found = unreached(package, roots)
    assert time.perf_counter() - started < 2.0
    assert not found - ORACLES.keys(), f"reached only by tests: {sorted(found - ORACLES.keys())}"
    assert found == ORACLES.keys(), f"oracles now reached or gone: {sorted(ORACLES.keys() - found)}"


def _plant(tree: ast.Module, where: str | None, source: str) -> None:
    """Append the definitions in ``source`` to the class ``where`` of
    ``tree``, or to the module when ``where`` is None."""
    body = tree.body if where is None else next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == where).body
    body.extend(ast.parse(source).body)


def test_guard_reports_planted_test_only_definitions():
    """A method whose name another class defines and calls through ``self``
    (as ``DeviceCalibration.content_hash`` calls its own ``to_dict``), and a
    helper that only a test-only function calls."""
    package, roots = _sources()
    before = unreached(package, roots)
    _plant(package["simulator"], "GateOp", "def to_dict(self):\n    return {}\n")
    _plant(package["noise"], None, "def _planted_helper():\n    return 0\n\n"
                                   "def _planted_caller():\n    return _planted_helper()\n")
    assert unreached(package, roots) - before == {
        "GateOp.to_dict", "_planted_helper", "_planted_caller"}
