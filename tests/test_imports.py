"""Every module imports only names it uses (package re-exports excepted), and
every public name of the library has a caller."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "demos", "tests", "perfbench")


def unused_imports(source):
    """(line, name) of each name that `source` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def public_definitions(source):
    """Names of the public functions and classes of a module and of the public
    methods of its public classes."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def named(source):
    """The identifiers `source` reads: names, attributes, and the words of
    string constants other than docstrings (a tracer names what it patches in
    strings)."""
    tree = ast.parse(source)
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            out.update(re.findall(r"\w+", node.value))
    return out


def test_public_api_has_a_caller():
    # a caller is code of the library, a demo or the benchmark; neither the
    # package's re-exports nor the tests count
    library = [path for path in sorted((ROOT / "src" / "topomg").glob("*.py"))
               if path.name != "__init__.py"]
    callers = library + [path for top in ("demos", "perfbench")
                         for path in sorted((ROOT / top).rglob("*.py"))]
    used = set().union(*(named(path.read_text()) for path in callers))
    unused = ["%s %s" % (path.name, name) for path in library
              for name in sorted(public_definitions(path.read_text()) - used)]
    assert unused == []
