"""Every name ``compulse`` exports has a caller outside the tests.

A name counts as used when a library module (outside the name's own
definition) or a module under ``scripts/`` or ``benchmarks/`` loads it,
reads it as an attribute, imports it, or names it in a string (the
benchmark tracer patches functions by name).  Test-only helpers live in
``tests/oracles.py`` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "compulse"

# Exported without a non-test caller, each for a stated reason.
ALLOWED = {
    "total_angle": "a quantity the paper reports (acceptance criteria 5 and 7)",
    "state_fidelity_error": "a quantity the paper reports (acceptance criteria 5 and 7)",
}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}


def used_names(path: Path) -> set:
    """Names ``path`` loads, reads as attributes, imports or spells as a string."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def unused_exports() -> set:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    return exported_names() - set().union(*(used_names(p) for p in sources))


def test_every_export_has_a_caller_outside_the_tests():
    unused = unused_exports() - set(ALLOWED)
    assert not unused, f"exported but used only by tests: {sorted(unused)}"


def test_allow_list_holds_only_unused_exports():
    assert set(ALLOWED) <= unused_exports()
