"""The benchmark's hold on the program: bench/ names functions and keywords of shiftlab.

`bench/layers.py` wraps each function in its TIMED table by name, and
`Tracer.install()` raises when one is gone; `bench/worker.py` calls
`run_config` with keywords; `bench/workloads.py` builds the configs it runs;
and every bench script imports shiftlab names or reads attributes of an
imported shiftlab module. A rename, a deletion, or a schema that rejects a
workload config would only show up as an exception or an error in every
benchmark job, so all of these are checked here without running the
benchmark.
"""

import ast
import copy
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import shiftlab.cli as cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TIMED = _load("layers").TIMED
workloads = _load("workloads")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, f, _, _ in TIMED], ids=[f"{m}.{f}" for m, f, _, _ in TIMED]
)
def test_every_timed_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def shiftlab_names(source: str) -> list[tuple[str, str]]:
    """(module, name) for each `from shiftlab.<mod> import <name>` and each
    attribute read off a module bound by `import shiftlab.<mod> as <alias>`."""
    tree = ast.parse(source)
    names, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shiftlab":
            names += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "shiftlab"})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.append((aliases[node.value.id], node.attr))
    return names


BENCH_NAMES = sorted({pair for path in BENCH.glob("*.py")
                      for pair in shiftlab_names(path.read_text())})


def test_bench_reads_the_shiftlab_names_it_is_known_to_read():
    assert {("shiftlab.generate", "build"), ("shiftlab.cli", "PRESETS"),
            ("shiftlab.cli", "validate_config"), ("shiftlab.cli", "run_config")} <= set(BENCH_NAMES)


@pytest.mark.parametrize("module, name", BENCH_NAMES, ids=[f"{m}.{n}" for m, n in BENCH_NAMES])
def test_every_shiftlab_name_bench_uses_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_run_config_accepts_the_keywords_the_worker_passes():
    tree = ast.parse((BENCH / "worker.py").read_text())
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "run_config"
    ]
    assert calls, "bench/worker.py no longer calls run_config"
    params = inspect.signature(cli.run_config).parameters
    for call in calls:
        for kw in call.keywords:
            assert kw.arg in params, kw.arg


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_config_validates_with_its_params_unchanged(workload, seed):
    raw = workloads.config(workload, seed, cli.PRESETS)
    given = copy.deepcopy(raw["systems"])
    cfg = cli.validate_config(raw)
    assert [s["params"] for s in cfg["systems"]] == [s["params"] for s in given]
