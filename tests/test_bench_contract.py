"""The benchmark's hold on the program: bench/ names functions and keywords of shiftlab.

`bench/layers.py` wraps each function in its TIMED table by name, and
`Tracer.install()` raises when one is gone; `bench/worker.py` calls
`run_config` with keywords. A rename would only show up as an exception in a
traced benchmark run, so both are checked here without running the tracer.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import shiftlab.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TIMED = _load_layers().TIMED


@pytest.mark.parametrize(
    "module, name", [(m, f) for m, f, _, _ in TIMED], ids=[f"{m}.{f}" for m, f, _, _ in TIMED]
)
def test_every_timed_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


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
