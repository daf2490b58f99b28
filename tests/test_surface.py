"""Guards on the names that other code reaches.

The package root must export what it lists, the benchmark under
``perfbench/`` must still find every function it wraps or calls and
count every span its lattice metrics divide by, the exact linear
algebra stays behind the five names of ``ratmat``, and no module
imports a name it does not use.
"""

from __future__ import annotations

import ast
import importlib
import io
import importlib.util
import inspect
import json
import math
import random
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
    # exact inputs become floats in one module; the rest stays exact
    package = Path(crnbalance.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"dynamics"}
