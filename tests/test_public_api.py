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
    """(module:qualified name, node, whether it is a method) of each public
    def and class, methods included; nested functions are private to their
    enclosing body."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}:{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}:{node.name}.{item.name}", item, True


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
    unused = [qual for qual, node, _ in _public_definitions() if node.name not in used | ALLOWED]
    assert unused == []


def _defaulted_parameters(node: ast.FunctionDef, method: bool):
    """(name, position) of each defaulted parameter of a def, the position
    counted among the arguments a call passes (after a method's self or
    cls), None for a keyword-only parameter."""
    positional = [*node.args.posonlyargs, *node.args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    skip = 1 if method and not static else 0
    for i, arg in enumerate(positional[len(positional) - len(node.args.defaults) :]):
        yield arg.arg, len(positional) - len(node.args.defaults) + i - skip
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _leaves_out(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call leaves a parameter to its default; a call that passes
    *args or **kwargs counts as leaving out every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return True
    passed = position is not None and position < len(call.args)
    return not passed and name not in {k.arg for k in call.keywords}


def test_every_default_is_used_by_a_program_call():
    """A defaulted parameter that every program call passes is a default
    kept only for tests; calls are matched to a def by its name."""
    calls = {}
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unused = [
        f"{qual}({param})"
        for qual, node, method in _public_definitions()
        if isinstance(node, ast.FunctionDef)
        for param, position in _defaulted_parameters(node, method)
        if not any(_leaves_out(call, param, position) for call in calls.get(node.name, []))
    ]
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
