"""Guards on the names that other code reaches.

The package root must export what it lists, the benchmark under
``perfbench/`` must still find every function it wraps or calls and
count every span its lattice metrics divide by, the exact linear
algebra stays behind the five names of ``ratmat``, no module imports a
name it does not use, and one function alone keeps a module-level cache.
"""

from __future__ import annotations

import ast
import importlib
import io
import importlib.util
import inspect
import json
import math
import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import crnbalance
from crnbalance import ratmat

ROOT = Path(__file__).resolve().parents[1]


def _load_benchmark_module(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_lists_exactly_the_public_imports():
    for name in crnbalance.__all__:
        assert hasattr(crnbalance, name), f"__all__ names missing {name!r}"
    tree = ast.parse(Path(crnbalance.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unlisted = {n for n in imported if not n.startswith("_")} - set(crnbalance.__all__)
    assert not unlisted, f"imported but not in __all__: {sorted(unlisted)}"


def test_benchmark_tracer_and_loader_find_their_names():
    tracing = _load_benchmark_module("tracing")
    loader = _load_benchmark_module("loader")
    mods = types.SimpleNamespace(
        **{name: importlib.import_module(f"crnbalance.{name}") for name in loader.MODULES}
    )
    tracer = tracing.Tracer()
    try:
        tracer.install(mods)
    finally:
        tracer.uninstall()
    data = ROOT / "tests" / "data"
    spec = {
        "networks": [(data / "running.crn").read_text(encoding="utf-8")],
        "graphs": [[0, json.loads((data / "p4.json").read_text(encoding="utf-8"))]],
        "splits": [[0, [1, 2, 6]]],
    }
    pnets, graphs, splits = loader.load(mods, spec)
    assert graphs[0].network is pnets[0] and graphs[0].m == 5
    assert splits[0].subsets == ((1, 2, 6),)


def test_traced_enumeration_feeds_every_lattice_metric():
    # the lattice per-layer metrics divide by these counts: a handler that
    # bypasses cli.graph_from_partition or cli.emit would zero one of them
    tracing = _load_benchmark_module("tracing")
    loader = _load_benchmark_module("loader")
    mods = types.SimpleNamespace(
        **{name: importlib.import_module(f"crnbalance.{name}") for name in loader.MODULES}
    )
    tracer = tracing.Tracer()
    tracer.install(mods)
    try:
        tracer.begin_op()
        argv = ["graphs", "enumerate", str(ROOT / "tests" / "data" / "running.crn")]
        assert mods.cli.main(argv, io.StringIO()) == 0
        calls = tracer.end_op()["calls"]
    finally:
        tracer.uninstall()
    for name in ("partitions.enumerate", "graphs.build", "graphs.classify", "reporting.emit"):
        assert calls.get(name, 0) > 0, f"no {name} calls"
    assert calls["graphs.build"] == calls["partitions.enumerate.items"] == 900
    assert calls["graphs.weakly_reversible"] == 9


def test_ratmat_keeps_five_public_functions_and_a_primitive_kernel():
    public = {
        name
        for name, obj in vars(ratmat).items()
        if inspect.isfunction(obj) and obj.__module__ == ratmat.__name__
        and not name.startswith("_")
    }
    assert public == {"rank", "nullspace", "det", "matvec", "transpose"}
    rng = random.Random(5)
    for _ in range(30):
        cols = rng.randint(2, 5)
        mat = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rng.randint(1, 3))
        ]
        for vec in ratmat.nullspace(mat):
            assert isinstance(vec, tuple)
            assert all(type(v) is int for v in vec)
            assert math.gcd(*vec) == 1


def test_every_module_uses_what_it_imports():
    package = Path(crnbalance.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert not unused, f"imported but never used: {unused}"


def test_only_dynamics_imports_numpy():
    # exact inputs become floats in one module; the rest stays exact, and
    # dynamics imports numpy inside the functions that compute with it, never
    # at module level, so that exact work starts without it
    package = Path(crnbalance.__file__).parent
    importers, at_module_level = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {
            id(inner)
            for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
                if id(node) not in in_functions:
                    at_module_level.add(path.stem)
    assert importers == {"dynamics"}
    assert not at_module_level


def test_no_module_cache_but_the_tree_constants():
    # work that depends only on a network or a graph is a cached_property of
    # that object and lives as long as it does, with no size to tune. The one
    # exception stays while perfbench/tracing.py reads
    # tree_constants_symbolic.cache_info() for its tree cache hit ratio
    package = Path(crnbalance.__file__).parent
    cached = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        if ast.unparse(decorator).split("(")[0].removeprefix("functools.") in ("lru_cache", "cache")
    ]
    assert cached == ["balance.tree_constants_symbolic"]


def test_exact_commands_and_simulate_run_without_numpy():
    # in a fresh interpreter: importing the package and every command but
    # steady-state leave numpy unloaded; steady-state loads it at its first call
    data = Path(__file__).parent / "data"
    running, ab, p4 = data / "running.crn", data / "ab.crn", data / "p4.json"
    kappa = ["--kappa", "1,1,1,1,2,2"]
    commands = [
        ["graphs", "enumerate", str(running)],
        ["balance", "check", str(running), "--partition", str(p4), *kappa],
        ["lift", str(running), "--partition", str(p4), *kappa, "--state", "1,1"],
        ["simulate", str(ab), "--kappa", "2,1", "--x0", "3,0", "--t-end", "1"],
        ["steady-state", str(running), "--partition", str(p4), *kappa, "--class", "1,2"],
    ]
    code = (
        "import io, json, sys\n"
        "import crnbalance\n"
        "from crnbalance import cli\n"
        "print(json.dumps(['import', 0, 'numpy' in sys.modules]))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    status = cli.main(argv, io.StringIO())\n"
        "    print(json.dumps([argv[0], status, 'numpy' in sys.modules]))\n"
    )
    src = str(Path(crnbalance.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert [json.loads(line) for line in out.stdout.splitlines()] == [
        ["import", 0, False],
        ["graphs", 0, False],
        ["balance", 0, False],
        ["lift", 0, False],
        ["simulate", 0, False],
        ["steady-state", 0, True],
    ]
