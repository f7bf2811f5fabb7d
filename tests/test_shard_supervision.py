"""Fault-tolerant sharded execution (DESIGN §11).

Three layers of coverage:

- pure unit tests of the retry policy, timeout derivation, and window
  merging;
- supervisor unit tests against throwaway runner functions (a worker
  that always crashes, one that crashes once, one that hangs) — fast,
  no experiment involved;
- ``chaos``-marked integration tests that inject declarative process
  faults (:class:`repro.faults.ProcessFault`) into real tiny sharded
  runs and assert the supervised corpus stays byte-identical to the
  unsharded, fault-free one — including across a SIGKILLed coordinator
  resumed at shard granularity from the ``shards.json`` manifest.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ExperimentError, ShardError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment import sharding
from repro.experiment.config import RetryPolicy
from repro.experiment.driver import resume_experiment
from repro.experiment.sharding import ShardSupervisor, ShardTask
from repro.experiment.store import corpus_digest
from repro.experiment.corpus import TELESCOPE_NAMES
from repro.faults import FaultPlan, ProcessFault

#: Fast backoff for tests — semantics identical to the defaults.
FAST_RETRY = {"max_attempts": 3, "base_delay": 0.05}


# -- retry policy ----------------------------------------------------------


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.base_delay == 0.25
        assert policy.timeout_factor == 2.0

    def test_backoff_doubles_per_attempt(self):
        policy = RetryPolicy(base_delay=0.5)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0

    def test_of_accepts_none_policy_and_mapping(self):
        assert RetryPolicy.of(None) == RetryPolicy()
        policy = RetryPolicy(max_attempts=5)
        assert RetryPolicy.of(policy) is policy
        assert RetryPolicy.of({"max_attempts": 5}).max_attempts == 5

    def test_of_rejects_unknown_keys_and_types(self):
        with pytest.raises(ExperimentError):
            RetryPolicy.of({"attempts": 3})
        with pytest.raises(ExperimentError):
            RetryPolicy.of(3)

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"timeout_factor": 0.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ExperimentError):
            RetryPolicy(**kwargs)

    def test_config_normalizes_mapping(self):
        config = ExperimentConfig.tiny()
        config = replace(config, retry_policy={"max_attempts": 2})
        assert isinstance(config.retry_policy, RetryPolicy)
        assert config.retry_policy.max_attempts == 2

    def test_config_rejects_bad_failure_mode(self):
        with pytest.raises(ExperimentError):
            replace(ExperimentConfig.tiny(), on_shard_failure="panic")
        with pytest.raises(ExperimentError):
            replace(ExperimentConfig.tiny(), shard_timeout=0.0)


# -- process-fault plans ---------------------------------------------------


class TestProcessFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(process_faults=(
            ProcessFault(kind="kill_shard", shard=1, at_fraction=0.5),
            ProcessFault(kind="hang_shard", shard=0, at_fraction=0.25,
                         max_attempt=99)))
        assert not plan.is_empty()
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("fault", [
        ProcessFault(kind="segv_shard", shard=0, at_fraction=0.5),
        ProcessFault(kind="kill_shard", shard=-1, at_fraction=0.5),
        ProcessFault(kind="kill_shard", shard=0, at_fraction=1.5),
        ProcessFault(kind="kill_shard", shard=0, at_fraction=0.5,
                     max_attempt=0),
    ])
    def test_validate_rejects(self, fault):
        with pytest.raises(Exception):
            FaultPlan(process_faults=(fault,)).validate()


# -- timeout derivation and window algebra ---------------------------------


class TestTimeoutsAndWindows:
    def test_derive_timeouts_scales_with_load(self):
        timeouts = sharding.derive_timeouts([10.0, 5.0, 1.0], 100.0)
        assert timeouts[0] == 100.0          # the peak gets the full budget
        assert timeouts[1] == 50.0           # half the load, half the budget
        assert timeouts[2] == 50.0           # floored at 50% of the budget
        assert sharding.derive_timeouts([1.0, 2.0], None) is None

    def test_merge_windows(self):
        merged = sharding.merge_windows(
            [(5.0, 7.0), (0.0, 2.0), (1.0, 3.0), (3.0, 3.0)])
        assert merged == ((0.0, 3.0), (5.0, 7.0))
        assert sharding.merge_windows([]) == ()


# -- supervisor unit tests (throwaway runners, no experiment) --------------


def _boom_runner(task):
    raise RuntimeError(f"shard {task.shard} always explodes")


def _flaky_runner(task):
    marker = Path(task.spill_dir) / f"flaky{task.shard:03d}.marker"
    if marker.exists():
        return {"shard": task.shard, "scanners": 0, "packets_emitted": 0}
    marker.write_text("armed")
    raise RuntimeError("first attempt fails")


def _hang_runner(task):
    time.sleep(600.0)


def _make_tasks(tmp_path, num_shards=1):
    config = ExperimentConfig.tiny()
    return {i: ShardTask(config=config, plan=None, shard=i,
                         num_shards=num_shards, spill_dir=str(tmp_path))
            for i in range(num_shards)}


class TestSupervisorUnit:
    def test_strict_exhaustion_raises_shard_error_with_stderr(self,
                                                              tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            policy={"max_attempts": 2, "base_delay": 0.01},
            runner=_boom_runner)
        with pytest.raises(ShardError) as exc_info:
            supervisor.run()
        err = exc_info.value
        assert err.shard == 0
        assert err.attempt == 2
        assert "exitcode" in err.cause
        # the worker's traceback was captured and surfaced
        assert "RuntimeError" in err.stderr_tail
        assert "always explodes" in err.stderr_tail
        assert "stderr tail" in str(err)

    def test_shard_error_is_an_experiment_error(self):
        assert issubclass(ShardError, ExperimentError)

    def test_crash_once_is_retried_to_success(self, tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            policy={"max_attempts": 3, "base_delay": 0.01},
            runner=_flaky_runner)
        results = supervisor.run()
        assert results[0]["shard"] == 0
        assert results[0]["attempts"] == 2
        assert supervisor.retries == 1

    def test_degrade_quarantines_instead_of_raising(self, tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            policy={"max_attempts": 2, "base_delay": 0.01},
            on_failure="degrade", runner=_boom_runner)
        results = supervisor.run()
        assert results == [None]
        assert supervisor.quarantined == [0]

    def test_hung_worker_is_killed_on_timeout(self, tmp_path):
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            policy={"max_attempts": 2, "base_delay": 0.01},
            timeouts={0: 0.3}, on_failure="degrade",
            runner=_hang_runner)
        started = time.monotonic()
        results = supervisor.run()
        assert results == [None]
        assert supervisor.retries == 1
        # both attempts were bounded by the (escalating) timeout, not
        # by the runner's 600s sleep
        assert time.monotonic() - started < 30.0

    def test_restored_shards_are_not_re_run(self, tmp_path):
        snapshot = {"shard": 0, "scanners": 3, "packets_emitted": 7}
        supervisor = ShardSupervisor(
            _make_tasks(tmp_path),
            completed={0: snapshot}, runner=_boom_runner)
        results = supervisor.run()   # _boom_runner would raise if run
        assert results[0] == dict(snapshot, restored=True)

    def test_tasks_must_share_a_spill_dir(self, tmp_path):
        config = ExperimentConfig.tiny()
        tasks = {i: ShardTask(config=config, plan=None, shard=i,
                              num_shards=2,
                              spill_dir=str(tmp_path / f"spill{i}"))
                 for i in range(2)}
        with pytest.raises(ExperimentError):
            ShardSupervisor(tasks)


# -- chaos integration: real runs, injected process faults -----------------


def _digest(result):
    return corpus_digest(result.corpus)


def _kill_plan(shard, at_fraction=0.5, max_attempt=1):
    return FaultPlan(process_faults=(
        ProcessFault(kind="kill_shard", shard=shard,
                     at_fraction=at_fraction, max_attempt=max_attempt),))


@pytest.mark.chaos
class TestKilledWorkerParity:
    """One SIGKILLed worker, retried: corpus byte-identical (ISSUE AC)."""

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_retry_is_byte_identical(self, num_shards, tiny_result):
        config = replace(ExperimentConfig.tiny(), retry_policy=FAST_RETRY)
        with obs.FlightRecorder() as recorder:
            result = run_experiment(config, faults=_kill_plan(shard=1),
                                    shards=num_shards)
        assert _digest(result) == _digest(tiny_result)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["sharding.retries_total"] >= 1
        stats = {s["shard"]: s for s in result.shard_stats}
        assert stats[1]["attempts"] == 2

    def test_hung_worker_is_timed_out_and_retried(self, tiny_result):
        plan = FaultPlan(process_faults=(
            ProcessFault(kind="hang_shard", shard=0, at_fraction=0.5),))
        config = replace(ExperimentConfig.tiny(), retry_policy=FAST_RETRY,
                         shard_timeout=8.0)
        with obs.FlightRecorder() as recorder:
            result = run_experiment(config, faults=plan, shards=2)
        assert _digest(result) == _digest(tiny_result)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["sharding.timeouts_total"] >= 1
        assert counters["sharding.retries_total"] >= 1


@pytest.mark.chaos
class TestExhaustion:
    def test_strict_mode_raises_shard_error(self):
        config = replace(ExperimentConfig.tiny(),
                         retry_policy={"max_attempts": 2,
                                       "base_delay": 0.05})
        plan = _kill_plan(shard=1, at_fraction=0.3, max_attempt=99)
        with pytest.raises(ShardError) as exc_info:
            run_experiment(config, faults=plan, shards=2)
        assert exc_info.value.shard == 1
        assert exc_info.value.attempt == 2

    def test_degrade_turns_shard_into_coverage_gaps(self, tiny_result):
        config = replace(ExperimentConfig.tiny(),
                         retry_policy={"max_attempts": 2,
                                       "base_delay": 0.05},
                         on_shard_failure="degrade")
        plan = _kill_plan(shard=1, at_fraction=0.3, max_attempt=99)
        result = run_experiment(config, faults=plan, shards=2)
        assert result.quarantined_shards == (1,)
        # the lost shard's traffic is missing, and the corpus says so
        assert result.corpus.total_packets() \
            < tiny_result.corpus.total_packets()
        for name in TELESCOPE_NAMES:
            assert result.corpus.coverage_gaps.get(name), \
                f"telescope {name} has no recorded coverage gap"
        stats = {s["shard"]: s for s in result.shard_stats}
        assert stats[1] == {"shard": 1, "quarantined": True}


# -- chaos integration: coordinator SIGKILL + shard-granular resume --------


_COORD_KILLED_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment import sharding

count = 0
def die_after(path):
    global count
    count += 1
    if count == {die_at}:
        os._exit(9)   # hard kill: no atexit, workers reaped via PDEATHSIG

if {before_record}:
    # die once a shard's spill is on disk but before the manifest
    # records it complete
    sharding.ShardManifest.record = lambda self, shard, result: os._exit(9)

run_experiment(ExperimentConfig.tiny(), shards={shards},
               checkpoint_dir=sys.argv[1], after_checkpoint=die_after)
os._exit(0)
"""


def _kill_coordinator(tmp_path, shards, die_at=0, before_record=False):
    """Run a checkpointed tiny campaign in a child that hard-exits."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         _COORD_KILLED_CHILD.format(src=src, shards=shards, die_at=die_at,
                                    before_record=before_record),
         str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 9, proc.stderr


@pytest.mark.chaos
class TestCoordinatorKillResume:
    """SIGKILL the coordinator mid-fan-out; resume re-runs only the
    missing shards and the corpus stays byte-identical."""

    @pytest.mark.parametrize("shards,die_at", [(None, 1), (2, 1), (4, 2)])
    def test_resume_is_byte_identical(self, tmp_path, tiny_result,
                                      shards, die_at):
        # shards=None is the default checkpointed run: one shard
        _kill_coordinator(tmp_path, shards, die_at=die_at)
        num_shards = shards or 1

        manifest = sharding.ShardManifest.open(tmp_path, num_shards)
        survivors = set(manifest.completed)
        assert len(survivors) == die_at, \
            "kill left an unexpected number of completed shards"

        resumed = resume_experiment(tmp_path)
        assert _digest(resumed) == _digest(tiny_result)
        # only the missing shards re-ran: the survivors were restored
        # from their on-disk spill segments
        restored = {s["shard"] for s in resumed.shard_stats
                    if s.get("restored")}
        assert restored == survivors
        fresh = {s["shard"] for s in resumed.shard_stats
                 if not s.get("restored")}
        assert fresh == set(range(num_shards)) - survivors

    def test_kill_before_manifest_record_reruns_stale_shard(
            self, tmp_path, tiny_result):
        """Killed between a shard's spill and its manifest record, the
        shard is not trusted: resume re-runs it over the stale spill."""
        _kill_coordinator(tmp_path, None, before_record=True)
        spill = tmp_path / "shards"
        assert (spill / "shard000.result.json").exists()
        assert (spill / "shard000").is_dir()
        assert not sharding.ShardManifest.open(tmp_path, 1).completed

        resumed = resume_experiment(tmp_path)
        assert _digest(resumed) == _digest(tiny_result)
        [stats] = resumed.shard_stats
        assert not stats.get("restored")
        assert stats["attempts"] == 1
        assert set(sharding.ShardManifest.open(tmp_path, 1).completed) \
            == {0}
