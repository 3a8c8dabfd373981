"""The public surface of qdlab is what its users reach.

Every public top-level function and class in ``src/qdlab`` must be named
somewhere other than its own definition and its module's ``__all__`` entry:
elsewhere in ``src``, in the acceptance criteria, in the benchmark
(``perfbench/*.py``) or in ``pyproject.toml``.  Unit tests do not count, so
a reference implementation that only they read belongs with them.  Every
member of a class must be read somewhere, and the README's quick tour must run.
"""

import ast
import os
import re
import subprocess
import sys
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _members(tree: ast.Module):
    """(class, member, first line, last line) of every dataclass field and
    public method or property of the top-level classes."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield cls.name, node.name, node.lineno, node.end_lineno
            elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and _is_dataclass(cls)):
                yield cls.name, node.target.id, node.lineno, node.end_lineno


def unread_members() -> list[str]:
    """Members that no ``<expr>.name`` reads outside their own definition, in
    ``src``, the tests or the benchmark."""
    readers = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    reads = []  # (path, line, attribute name)
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.lineno, node.attr))
    unread = []
    for path in SOURCES:
        for cls, name, first, last in _members(ast.parse(path.read_text(encoding="utf-8"))):
            if not any(attr == name and not (where == path and first <= line <= last)
                       for where, line, attr in reads):
                unread.append(f"{path.relative_to(ROOT)}:{cls}.{name}")
    return unread


def test_every_member_is_read_somewhere():
    assert unread_members() == []


def test_readme_quick_tour_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_importing_qdlab_leaves_scipy_sparse_out():
    # scipy.sparse costs tens of milliseconds at every interpreter start, and
    # nothing in qdlab needs it: `op_norm` takes plain callables.
    modules = [".".join(p.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__")
               for p in SOURCES]
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
