"""Smoke test: every ``benchmarks/*.py`` module imports.

The bench scripts run outside tier-1, so an API they use can vanish
from ``src/`` without any test noticing. Importing each module (with
``benchmarks/`` on ``sys.path``, as the scripts run) catches a removed
name at collection time instead of at the next bench run.
"""

import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(path.stem for path in BENCH_DIR.glob("*.py"))


def test_bench_modules_found():
    assert "run_benches" in MODULES
    assert "bench_shard_scaling" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_bench_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    importlib.import_module(module)
