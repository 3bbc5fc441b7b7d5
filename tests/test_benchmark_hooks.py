"""The benchmark under perfbench/ reaches lexcat through module attributes:
the tracer wraps them by name and the workloads call them. A lexcat name
either one relies on must keep resolving, or `perfbench/run.py --trace 1`
breaks; these tests make that a tier-1 failure."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wrapped_attributes_resolve():
    wrapped = _tracer().WRAPPED
    assert wrapped
    missing = []
    for module, attr, _span in wrapped:
        try:
            _resolve(importlib.import_module(module), attr)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert missing == []


def _lexcat_object(module: str, name: str):
    """What `from module import name` binds: an attribute or a submodule."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def test_workload_lexcat_names_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {}  # local name -> imported lexcat module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lexcat":
            for alias in node.names:
                # resolving every imported name is itself part of the check
                obj = _lexcat_object(node.module, alias.name)
                if isinstance(obj, type(importlib)):
                    modules[alias.asname or alias.name] = obj
    missing = [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not hasattr(modules[node.value.id], node.attr)
    ]
    assert modules
    assert missing == []
