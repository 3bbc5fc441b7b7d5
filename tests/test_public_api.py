"""Every public function, class and method of `src/lexcat` has a caller in
the program: in `src/lexcat` itself or in the benchmark (`perfbench/*.py`).
A name that only tests reach is an entry point kept for them, which tests
should reach through the program's own path instead.
Every error type is a `lexcat.DataError`, so the command line exits 2 on it."""

import ast
import importlib
from pathlib import Path

from lexcat import DataError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lexcat"
PROGRAM = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]

# acceptance criterion 04 checks node impurities through `trees.impurity`
ALLOWED = {"impurity"}


def _public_definitions():
    """(module:qualified name, name) of each public def and class, methods
    included; nested functions are private to their enclosing body."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}:{node.name}.{item.name}", item.name


def _referenced_names(paths) -> set[str]:
    """Identifiers used (not defined) in the files: names, attributes,
    imports, and identifier strings such as the benchmark's "Class.method"
    wrap targets."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def test_every_public_name_has_a_program_caller():
    used = _referenced_names(PROGRAM)
    unused = [qual for qual, name in _public_definitions() if name not in used | ALLOWED]
    assert unused == []



def test_every_error_type_is_a_data_error():
    """The command line exits 2 on a lexcat.DataError, so an exception class
    outside it would exit 3; cli.UsageError alone exits 1, as a usage error."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        name = "lexcat" if path.stem == "__init__" else f"lexcat.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(module, node.name)
            if issubclass(cls, BaseException) and not issubclass(cls, DataError):
                outside.append(f"{path.stem}:{node.name}")
    assert outside == ["cli:UsageError"]
