"""Every public name ``compulse`` defines has a caller outside the tests.

A public name is a function, class or constant defined at module level in
``src/compulse`` under a name without a leading underscore; the exports of
``__init__.py`` are among them.  It counts as used when a library module
(outside the name's own definition and the re-exports) or a module under
``scripts/`` or ``benchmarks/`` loads it, reads it as an attribute, imports
it, or names it in a string (the benchmark tracer patches functions by
name).  A public method (a function without a leading underscore in the
body of a module-level class) follows the same rule by its name: a script,
a benchmark module, or a library statement or class-body item other than
its own definition must name it.  Test-only helpers live in
``tests/oracles.py`` or in their tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "compulse"

# Public without a non-test caller, each for a stated reason.
ALLOWED = {
    "total_angle": "a quantity the paper reports (acceptance criteria 5 and 7)",
    "state_fidelity_error": "a quantity the paper reports (acceptance criteria 5 and 7)",
    "PulseSequence.pulse_counts": "a quantity the paper reports (acceptance criterion 7); "
    "ROADMAP item 1 gives it in closed form",
}


def defined_names(node: ast.stmt) -> set:
    """Public names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if not n.startswith("_")}


def used_names(tree: ast.AST) -> set:
    """Names ``tree`` loads, reads as attributes, imports or spells as a string."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _outside_uses() -> set:
    outside = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    return set().union(*(used_names(_parse(p)) for p in outside))


def _library_statements() -> list:
    return [node for p in PACKAGE.glob("*.py") if p.name != "__init__.py" for node in _parse(p).body]


def unused_public_names() -> set:
    used = _outside_uses()
    statements = _library_statements()
    uses = [used_names(node) for node in statements]
    statements_using = Counter(name for names in uses for name in names)
    unused = set()
    for node, own in zip(statements, uses):
        unused |= {n for n in defined_names(node) - used if statements_using[n] == (n in own)}
    return unused


def unused_public_methods() -> set:
    """``Class.method`` for each public method whose name no other library
    statement or class-body item, and no script or benchmark module, uses."""
    used = _outside_uses()
    units = []  # (class name or None, statement): class bodies item by item
    for node in _library_statements():
        if isinstance(node, ast.ClassDef):
            units += [(node.name, item) for item in node.body]
        else:
            units.append((None, node))
    uses = [used_names(node) for _, node in units]
    units_using = Counter(name for names in uses for name in names)
    unused = set()
    for (cls, node), own in zip(units, uses):
        if cls and isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            name = node.name
            if name not in used and units_using[name] == (name in own):
                unused.add(f"{cls}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names() - set(ALLOWED)
    assert not unused, f"public but used only by tests: {sorted(unused)}"


def test_every_public_method_has_a_caller_outside_the_tests():
    unused = unused_public_methods() - set(ALLOWED)
    assert not unused, f"public methods used only by tests: {sorted(unused)}"


def test_allow_list_holds_only_unused_exports():
    assert set(ALLOWED) <= unused_public_names() | unused_public_methods()
