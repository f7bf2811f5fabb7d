"""Robustness layer — checkpoint cost and fault-path cost.

A checkpointed build persists its restart state as one setup snapshot
(``shards.setup.rpck``) plus a ``shards.json`` manifest rewritten after
every shard completion (DESIGN §7); that state must cost a small
fraction of the build. The fault layer armed with an empty plan must
leave the corpus byte-identical to a plain run.
"""

import os
import tempfile
import time
from pathlib import Path

from conftest import print_comparison

from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.checkpoint import read_checkpoint, write_state
from repro.experiment.sharding import (MANIFEST_NAME, SETUP_NAME,
                                       ShardManifest)
from repro.experiment.store import corpus_digest
from repro.faults import BlackoutWindow, FaultPlan

#: The restart state may cost at most this share of the build's wall.
CHECKPOINT_BUDGET = 0.05

#: Timed re-writes of the restart state; the minimum is reported.
REPEATS = 3


def _config() -> ExperimentConfig:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
    return ExperimentConfig(seed=42, scale=scale)


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def checkpoint_cost(config: ExperimentConfig,
                    checkpoint_dir) -> tuple[dict, object]:
    """Run a checkpointed build and price its restart state.

    The build runs with ``checkpoint_dir`` and no ``shards`` (a
    one-shard build). Its setup snapshot and manifest are then
    re-written from the on-disk state into a scratch directory —
    the same atomic tmp+fsync+rename writes the run made — and timed
    (minimum over :data:`REPEATS`). Returns a JSON-ready fragment and the
    build's result.
    """
    started = time.perf_counter()
    result = run_experiment(config, checkpoint_dir=checkpoint_dir)
    wall = time.perf_counter() - started
    root = Path(checkpoint_dir)
    state = read_checkpoint(root / SETUP_NAME)
    num_shards = state["num_shards"]
    completed = ShardManifest.open(root, num_shards).completed
    with tempfile.TemporaryDirectory(prefix="repro-ckcost-") as scratch:
        scratch = Path(scratch)
        setup = _best_of(
            lambda: write_state(scratch / SETUP_NAME, state))

        def record_all() -> None:
            manifest = ShardManifest(scratch / MANIFEST_NAME, num_shards)
            for shard, shard_result in sorted(completed.items()):
                manifest.record(shard, shard_result)

        manifest = _best_of(record_all)
    return {
        "checkpointed_build": round(wall, 4),
        "shards": num_shards,
        "setup_snapshot_seconds": round(setup, 6),
        "setup_snapshot_bytes": (root / SETUP_NAME).stat().st_size,
        "manifest_seconds": round(manifest, 6),
        "manifest_bytes": (root / MANIFEST_NAME).stat().st_size,
        "restart_state_fraction": round((setup + manifest) / wall, 6),
    }, result


def test_checkpoint_restart_state_is_cheap(benchmark, tmp_path,
                                           bench_result):
    cost, result = benchmark.pedantic(
        checkpoint_cost, args=(_config(), tmp_path),
        rounds=1, iterations=1)
    fraction = cost["restart_state_fraction"]
    print_comparison("Checkpoint cost", [
        ("setup snapshot", "one-time",
         f"{cost['setup_snapshot_seconds'] * 1e3:.2f}ms "
         f"({cost['setup_snapshot_bytes']:,} B)"),
        ("manifest records", f"{cost['shards']} shard(s)",
         f"{cost['manifest_seconds'] * 1e3:.2f}ms "
         f"({cost['manifest_bytes']:,} B)"),
        ("restart state / build", f"< {CHECKPOINT_BUDGET:.0%}",
         f"{fraction:.3%}"),
    ])
    assert corpus_digest(result.corpus) \
        == corpus_digest(bench_result.corpus)
    assert fraction <= CHECKPOINT_BUDGET


def test_empty_fault_plan_is_free(benchmark, bench_result):
    result = benchmark.pedantic(
        run_experiment, args=(_config(),),
        kwargs={"faults": FaultPlan()},
        rounds=1, iterations=1)
    base_sim = bench_result.stage_seconds["simulate"]
    sim = result.stage_seconds["simulate"]
    print_comparison("Empty fault plan", [
        ("simulate vs base", "parity", f"{sim:.3f}s vs {base_sim:.3f}s"),
        ("corpus", "byte-identical",
         "match" if corpus_digest(result.corpus)
         == corpus_digest(bench_result.corpus) else "DIVERGED"),
    ])
    assert corpus_digest(result.corpus) == corpus_digest(bench_result.corpus)


def test_faulted_campaign_end_to_end(benchmark, bench_result):
    config = _config()
    plan = FaultPlan(
        blackouts=(BlackoutWindow("T1", config.duration * 0.2,
                                  config.duration * 0.3),),
        loss_rate=0.01)
    result = benchmark.pedantic(
        run_experiment, args=(config,), kwargs={"faults": plan},
        rounds=1, iterations=1)
    base = bench_result.corpus.total_packets()
    faulted = result.corpus.total_packets()
    print_comparison("Faulted campaign", [
        ("packets vs base", "reduced", f"{faulted:,} vs {base:,}"),
        ("T1 coverage", "90%",
         f"{result.corpus.covered_fraction('T1'):.1%}"),
        ("install_faults stage", "cheap",
         f"{result.stage_seconds['install_faults']:.3f}s"),
    ])
    assert faulted < base
    assert result.corpus.coverage_gaps["T1"] == plan.blackouts_for("T1")
