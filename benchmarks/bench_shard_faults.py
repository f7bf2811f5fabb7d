#!/usr/bin/env python
"""Fault-supervision bench: what does recovering a killed shard cost?

A declarative ``kill_shard`` fault SIGKILLs one worker halfway through
its simulation; the supervisor (DESIGN §11) retries it and the run
completes. Reported as the wall-clock delta of the ``shard_simulate``
stage against the clean supervised run — roughly the re-executed
shard's work plus the (tiny, 0.05s base) backoff — minimum over
``repeats`` runs of each, with every corpus digest checked
byte-identical to the clean build, because a recovery that changes the
corpus is not a recovery.

No run carries a flight recorder: the cost is measured on the
uninstrumented path a production ``--shards`` run uses.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.store import corpus_digest
from repro.faults import FaultPlan, ProcessFault

#: Fast backoff so the kill-retry number measures re-execution, not
#: sleeping.
RETRY = {"max_attempts": 3, "base_delay": 0.05}


def bench_shard_faults(seed: int, scale: float, num_shards: int = 2,
                       repeats: int = 3) -> dict:
    """Measure the clean run and the kill-retry cost; JSON fragment."""
    config = ExperimentConfig(seed=seed, scale=scale, batch_emit=True,
                              retry_policy=RETRY)

    supervised = float("inf")
    base_digest = None
    for _ in range(repeats):
        result = run_experiment(config, shards=num_shards)
        digest = corpus_digest(result.corpus)
        if base_digest is None:
            base_digest = digest
        elif digest != base_digest:
            raise SystemExit("supervised sharded build is not "
                             "deterministic — retry-cost numbers would "
                             "be meaningless")
        supervised = min(supervised,
                         result.stage_seconds["shard_simulate"])
        del result

    # one SIGKILLed worker halfway through its simulation, retried once
    plan = FaultPlan(process_faults=(
        ProcessFault(kind="kill_shard", shard=num_shards - 1,
                     at_fraction=0.5),))
    killed = float("inf")
    attempts = None
    for _ in range(repeats):
        result = run_experiment(config, faults=plan, shards=num_shards)
        if corpus_digest(result.corpus) != base_digest:
            raise SystemExit("kill+retry corpus diverged from the clean "
                             "build — the recovery is not a recovery")
        killed = min(killed, result.stage_seconds["shard_simulate"])
        attempts = result.shard_stats[num_shards - 1]["attempts"]
        del result

    return {
        "config": {"seed": seed, "scale": scale, "shards": num_shards,
                   "repeats": repeats},
        "cpus": len(os.sched_getaffinity(0)),
        "clean": {
            "supervised_wall": round(supervised, 4),
        },
        "kill_retry": {
            "wall": round(killed, 4),
            "retry_cost_seconds": round(killed - supervised, 4),
            "faulted_shard_attempts": attempts,
            "digest_matches_clean": True,
        },
        "methodology": (
            "shard_simulate wall, minimum over repeats, no flight "
            "recorder. kill_retry SIGKILLs one worker at 50% of its "
            "simulated horizon via a declarative kill_shard fault and "
            "reports the wall delta of the recovered run against the "
            "clean one; its corpus is digest-checked against the clean "
            "build."),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    report = bench_shard_faults(args.seed, args.scale,
                                num_shards=args.shards,
                                repeats=args.repeats)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
