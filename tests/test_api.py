"""The public surface: names other code imports, the stream-id registry, and
what a cold process loads."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

from levynoise import rng

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_stream_ids_unique():
    streams = {name: value for name, value in vars(rng).items() if name.endswith("_STREAM")}
    assert len(streams) >= 16
    assert len(set(streams.values())) == len(streams), streams
    # each id has one owner: the one Draw declaration that names it, or the CLI's
    # simulate for its own stream; the check modules draw only through the loop
    owners = {name: [] for name in streams}
    for path in sorted((ROOT / "src" / "levynoise").glob("*.py")):
        if path.name == "rng.py":
            continue
        tree = ast.parse(path.read_text())
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        declared = {id(name) for call in calls if _callee(call) == "Draw"
                    for name in ast.walk(call) if isinstance(name, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in owners:
                owners[node.id].append((path.name, id(node) in declared))
        if path.name in ("harness.py", "integral.py", "chaos.py", "convolution.py"):
            direct = [_callee(c) for c in calls
                      if _callee(c) in ("sample_chunks", "sample_prm_batch", "derive_rng")]
            assert not direct, (path.name, direct)
    assert owners.pop("SIMULATE_STREAM") == [("cli.py", False)]
    for name, uses in owners.items():
        assert len(uses) == 1 and uses[0][1], (name, uses)


def _scopes(tree: ast.Module):
    """Each top-level function, and each method as ``Class.method``, with its node."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '')}", item
        else:
            yield getattr(node, "name", ""), node


def test_samplers_have_one_path():
    # a check samples only the draws of its plan, which check_config held against the
    # point cap: simulate runs them.  There is one sampler, sample_chunks: simulate and
    # the CLI's simulate command read it chunk by chunk, and the one-chunk samplers,
    # with the one-realization sample_prm on top, are its only other callers
    callers = {name: set() for name in ("simulate", "sample_chunks", "sample_prm_batch",
                                        "sample_L_interval", "sample_prm")}
    for path in sorted((ROOT / "src" / "levynoise").glob("*.py")):
        for scope, node in _scopes(ast.parse(path.read_text())):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _callee(call) in callers:
                    callers[_callee(call)].add(f"{path.stem}.{scope}")
    assert callers == {
        "simulate": {"prm.Plan.run"},
        "sample_chunks": {"prm.simulate", "prm.sample_prm_batch", "prm.sample_L_interval",
                          "cli._cmd_simulate"},
        "sample_prm_batch": {"prm.sample_prm"},
        "sample_L_interval": set(),
        "sample_prm": set()}, callers


# Public definitions whose only reader is a test, each with the reason it stays
TEST_ONLY_READERS = {
    "partitions.all_partitions": "the enumeration oracle that the recurrence is checked against",
}


def _definitions(tree: ast.Module):
    """Each public top-level function, class and assigned name, and each public
    method as ``Class.method``, with its node."""
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        for name in names or [getattr(node, "name", "_")]:
            if not name.startswith("_"):
                yield name, node
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item


def _reads(node: ast.AST, name: str) -> int:
    return sum(isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id == name
               or isinstance(sub, ast.Attribute) and sub.attr == name for sub in ast.walk(node))


def test_every_public_definition_has_a_reader():
    """A public definition in ``src/levynoise`` is read elsewhere in ``src/`` (its own
    body and the exports of ``__init__`` do not count), or by the demos or the
    benchmark; prose that names it is not a reader.  One read by tests alone is
    listed in TEST_ONLY_READERS."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "levynoise").glob("*.py"))
               if path.name != "__init__.py"}
    outside = "\n".join(path.read_text() for path in (
        *sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("perfbench/*.py"))))
    unread = []
    for module, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = qualname.rpartition(".")[2]
            in_src = sum(_reads(other, name) for other in modules.values()) - _reads(node, name)
            if not in_src and not re.search(rf"\b{re.escape(name)}\b", outside):
                unread.append(f"{module}.{qualname}")
    assert sorted(unread) == sorted(TEST_ONLY_READERS), unread


def _package_reads(path: Path) -> set[str]:
    """The names a file reads through the package: ``from levynoise import name``,
    or ``ln.name`` after ``import levynoise as ln``."""
    tree = ast.parse(path.read_text())
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "levynoise")
        elif isinstance(node, ast.ImportFrom) and node.module == "levynoise" and not node.level:
            names.update(a.name for a in node.names)
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in aliases)
    return names


def test_every_package_export_has_a_reader():
    """``levynoise`` exports only names that a demo or a benchmark file reads through
    the package; tests import everything else from its module."""
    init = ast.parse((ROOT / "src" / "levynoise" / "__init__.py").read_text())
    exports = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
               for a in node.names}
    readers = (*sorted(ROOT.glob("demos/*.py")), *sorted(ROOT.glob("perfbench/*.py")))
    read = set().union(*map(_package_reads, readers))
    assert not exports - read, sorted(exports - read)


def _loads(code: str, module: str = "scipy") -> bool:
    """Whether running ``code`` in a fresh interpreter imports ``module``."""
    code = textwrap.dedent(code) + f"import sys; print({module!r} in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_no_path_loads_scipy():
    """No levynoise path loads scipy: not the import, not the bundled run,
    not the CLI, and not quadrature against a density measure."""
    assert not _loads("import levynoise\n")
    assert not _loads("""
        from levynoise.harness import default_verification_config, run
        assert run(default_verification_config()).passed
    """)
    assert not _loads("""
        import contextlib, io
        from levynoise.cli import main
        atoms = '{"atoms": [[1.0, 1.0]]}'
        phi = '{"breakpoints": [0, 1], "values": [1]}'
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["moments", "--measure", atoms, "--phi", phi, "--p", "6"]) == 0
            assert main(["simulate", "--measure", atoms, "--samples", "50"]) == 0
    """)
    assert not _loads("""
        from levynoise.measure import validate_measure
        from levynoise.prm import char_exponent
        model = validate_measure({"family": "symmetric_power_law", "alpha": 1.5,
                                  "eps": 0.25, "z_max": 4.0})
        char_exponent(model, 1.0)
    """)
    # positive control: the probe sees a module that a call loads after import
    lazy = textwrap.dedent("""
        import levynoise

        def load():
            import colorsys
    """)
    assert not _loads(lazy, "colorsys")
    assert _loads(lazy + "load()\n", "colorsys")


def test_readme_layout_names_every_module():
    """README's Layout table has one row per module of ``src/levynoise``, and no other."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `levynoise\.(\w+)` \|", table, flags=re.M)
    modules = sorted(path.stem for path in (ROOT / "src" / "levynoise").glob("*.py")
                     if path.name != "__init__.py")
    assert sorted(rows) == modules, (rows, modules)
