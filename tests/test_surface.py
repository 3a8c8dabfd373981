"""The public surface of qdlab is what its users reach.

Every public top-level function and class in ``src/qdlab`` must be named
somewhere other than its own definition and its module's ``__all__`` entry:
elsewhere in ``src``, in the acceptance criteria, in the benchmark
(``perfbench/*.py``) or in ``pyproject.toml``.  Unit tests do not count, so
a reference implementation that only they read belongs with them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qdlab").rglob("*.py"))
USERS = [ROOT / "tests" / "test_acceptance.py", ROOT / "pyproject.toml",
         *sorted((ROOT / "perfbench").glob("*.py"))]


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of every public top-level def and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def _mentions(name: str, text: str) -> int:
    return len(re.findall(rf"\b{re.escape(name)}\b", text))


def unreached_names() -> list[str]:
    texts = {path: path.read_text(encoding="utf-8") for path in SOURCES + USERS}
    unreached = []
    for path in SOURCES:
        tree = ast.parse(texts[path])
        lines = texts[path].splitlines()
        exported = _all_entries(tree)
        for name, first, last in _public_definitions(tree):
            own = "\n".join(lines[first - 1 : last])
            count = sum(_mentions(name, text) for text in texts.values())
            count -= _mentions(name, own) + exported.count(name)
            if count <= 0:
                unreached.append(f"{path.relative_to(ROOT)}:{name}")
    return unreached


def test_every_public_definition_is_reached_outside_the_unit_tests():
    assert unreached_names() == []
