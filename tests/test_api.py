"""The public surface: names other code imports, and the stream-id registry."""

import ast
import importlib
import types
from pathlib import Path

from levynoise import rng

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _lookup(module, name: str):
    """``module.name``, importing it first if it is a submodule; None if absent."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


def test_benchmark_names_resolve():
    """Every levynoise name the benchmark imports, or reads off an imported
    levynoise module (``ln.<name>``, ``harness.<name>``), still exists."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}  # local name -> levynoise module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "levynoise":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "levynoise":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = _lookup(module, alias.name)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(obj, types.ModuleType):
                    modules[alias.asname or alias.name] = obj
    assert "ln" in modules
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _lookup(modules[node.value.id], node.attr) is None):
            missing.append(f"{node.value.id}.{node.attr}")
    assert not missing, missing


def test_stream_ids_unique():
    streams = {name: value for name, value in vars(rng).items() if name.endswith("_STREAM")}
    assert len(streams) >= 16
    assert len(set(streams.values())) == len(streams), streams
