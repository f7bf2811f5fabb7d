"""Tests for the benchmark's own logic (no timing assertions).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import run  # noqa: E402


def _span(name, ts, dur, pid=1, tid=1, **args):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "args": args}


def _identity(name):
    return name


class TestSelfTimes:
    def test_nested_spans_subtract_direct_children(self):
        events = [_span("outer", 0, 100), _span("mid", 10, 30),
                  _span("inner", 20, 10), _span("sibling", 50, 20)]
        got = measure.self_times(events, _identity)
        assert got == pytest.approx({"outer": 50e-6, "mid": 20e-6,
                                     "inner": 10e-6, "sibling": 20e-6})

    def test_repeated_spans_sum(self):
        events = [_span("a", 0, 10), _span("a", 20, 5)]
        assert measure.self_times(events, _identity) == \
            pytest.approx({"a": 15e-6})

    def test_transparent_span_charges_enclosing_layer(self):
        events = [_span("table", 0, 100), _span("slice", 10, 50),
                  _span("sessionize", 20, 10)]
        layers = {"table": "tables", "sessionize": "columnar"}
        got = measure.self_times(events, layers.get)
        assert got == pytest.approx({"tables": 90e-6, "columnar": 10e-6})

    def test_transparent_root_is_dropped(self):
        events = [_span("root", 0, 100), _span("emit", 10, 40)]
        got = measure.self_times(events, {"emit": "scanners"}.get)
        assert got == pytest.approx({"scanners": 40e-6})

    def test_foreign_pid_spans_do_not_nest_in_coordinator(self):
        # a shard worker's span overlaps the coordinator's fan-out span
        # in wall time but runs in another process
        events = [_span("driver.shard_simulate", 0, 100, pid=1),
                  _span("shard.run", 5, 90, pid=2),
                  _span("scanner.batch_emit", 10, 30, pid=2),
                  _span("shard.run", 5, 80, pid=3)]
        got = measure.self_times(events, _identity)
        assert got == pytest.approx({"driver.shard_simulate": 100e-6,
                                     "shard.run": 140e-6,
                                     "scanner.batch_emit": 30e-6})

    def test_threads_are_separate_tracks(self):
        events = [_span("a", 0, 100, tid=1), _span("b", 10, 20, tid=2)]
        assert measure.self_times(events, _identity) == \
            pytest.approx({"a": 100e-6, "b": 20e-6})

    def test_non_complete_events_ignored(self):
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "ts": 0, "args": {"name": "coordinator"}},
                  _span("a", 0, 10)]
        assert measure.self_times(events, _identity) == \
            pytest.approx({"a": 10e-6})


class TestSummaries:
    def test_median_quartiles_and_count(self):
        got = measure.summarize([4.0, 1.0, 3.0, 2.0])
        assert got == {"median": 2.5, "q1": 1.25, "q3": 3.75, "min": 1.0,
                       "max": 4.0, "n": 4}

    def test_single_sample(self):
        assert measure.summarize([7.0]) == \
            {"median": 7.0, "q1": 7.0, "q3": 7.0, "min": 7.0, "max": 7.0,
             "n": 1}

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            measure.summarize([])

    def test_fastest_total_sums_each_steps_fastest_pass(self):
        passes = [{"a": 1.0, "b": 5.0}, {"a": 3.0, "b": 2.0},
                  {"a": 2.0, "b": 4.0}]
        assert measure.fastest_total(passes) == pytest.approx(3.0)

    def test_fastest_total_counts_steps_missing_from_a_pass(self):
        passes = [{"a": 1.0}, {"a": 2.0, "b": 4.0}]
        assert measure.fastest_total(passes) == pytest.approx(5.0)

    def test_fastest_total_needs_a_step(self):
        with pytest.raises(ValueError):
            measure.fastest_total([{}])

    def test_counter_total_sums_label_sets(self):
        snap = {"counters": {"x_total": 1.0, "x_total{shard=0}": 2.0,
                             "x_total{shard=1}": 3.0, "x_totally": 9.0},
                "gauges": {"g{telescope=T1}": 5.0}}
        assert measure.counter_total(snap, "x_total") == 6.0
        assert measure.counter_total(snap, "g", "gauges") == 5.0
        assert measure.counter_total(snap, "missing") == 0.0


class TestOps:
    def test_ratio(self):
        ledger = measure.OpLedger()
        assert ledger.ratio == 0.0
        ledger.record("a", True)
        ledger.record("b", False, "boom")
        ledger.record("c", True)
        assert (ledger.attempted, ledger.failed) == (3, 1)
        assert ledger.ratio == pytest.approx(1 / 3)
        assert ledger.failures == [("b", "boom")]

    def test_check_output(self):
        ledger = measure.OpLedger()
        measure.check_output(ledger, "match", "aa", "aa")
        measure.check_output(ledger, "mismatch", "ab", "aa")
        measure.check_output(ledger, "raised", None, "aa", error="KeyError")
        measure.check_output(ledger, "empty", None, "aa")
        measure.check_output(ledger, "unpinned", "aa", None)
        assert ledger.attempted == 5
        assert [name for name, _ in ledger.failures] == \
            ["mismatch", "raised", "empty", "unpinned"]


class _FakeRun(run.Run):
    """A run whose passes are canned records instead of processes."""

    def __init__(self, records, pinned, trace=0):
        self.args = SimpleNamespace(seed=1, trace=trace, workload="build")
        self.ledger = measure.OpLedger()
        self.seed = 1
        self.pinned = pinned
        self._records = records

    def passes(self, spec):
        return self._records


def _rep(wall=2.0, cpu=2.0, slowdown=1.0):
    """One repetition's step times: two steps of equal share, with the
    probe as much slower than the reference as ``slowdown``."""
    return {"wall_s": {"a": wall / 2, "b": wall / 2},
            "cpu_s": {"a": cpu / 2, "b": cpu / 2},
            "probe_s": {"a": run.PROBE_REF_S * slowdown,
                        "b": run.PROBE_REF_S * slowdown}}


def _build_record(digest, wall=2.0, **extra):
    return dict({"ok": True, "traced": False, "digest": digest,
                 "setup_s": 1.0, "setup_probe_s": run.PROBE_REF_S,
                 "wall_s": wall, "peak_rss_mb": 100.0,
                 "rows": 10, "reps": [_rep(wall)]}, **extra)


class TestWorkloadChecks:
    def test_seed_maps_into_the_pool(self):
        builds, analysis = run.CONFIGS["build"], run.CONFIGS["reanalyze"]
        assert run.CONFIGS["build_2shard"] == builds != analysis
        pinned = {"pools": {builds: [5, 9, 4], analysis: [3]},
                  builds: {"5": {"d": 5}, "9": {"d": 9}, "4": {"d": 4}},
                  analysis: {"3": {"d": 3}}}
        assert run.program_seed(pinned, "build", 0) == (5, {"d": 5})
        assert run.program_seed(pinned, "build_2shard", 4) == (9, {"d": 9})
        assert run.program_seed(pinned, "reanalyze", 42) == (3, {"d": 3})

    def test_pass_count_does_not_depend_on_speed(self):
        fake = _FakeRun([], pinned={})
        fake.args = SimpleNamespace(workload="build", seconds=1.0, trace=0)
        assert fake.pass_count() == run.MIN_PASSES
        fake.args.seconds = 5 * run.NOMINAL_PASS_S["build"]
        assert fake.pass_count() == 5
        fake.args.trace = 1
        assert fake.pass_count() == 1

    def test_digest_mismatch_is_a_failed_op(self):
        fake = _FakeRun([_build_record("d0"), _build_record("bad")],
                        pinned={"digest": "d0"})
        run.run_build(fake, shards=0)
        assert (fake.ledger.attempted, fake.ledger.failed) == (2, 1)
        assert fake.ledger.failures[0][0] == "corpus[1]"

    def test_shard_retry_is_a_failed_op(self):
        fake = _FakeRun([_build_record("d0", retries=1)],
                        pinned={"digest": "d0"})
        run.run_build(fake, shards=2)
        assert fake.ledger.failed == 1
        assert "retries" in fake.ledger.failures[0][1]

    def test_crashed_pass_is_a_failed_op(self):
        fake = _FakeRun([{"ok": False, "traced": False, "error": "boom"}],
                        pinned={"digest": "d0"})
        run.run_build(fake, shards=0)
        assert fake.ledger.failures == [("corpus[0]", "boom")]

    def test_end_to_end_ignores_traced_and_failed_passes(self):
        records = [_build_record("d0", wall=4.0, setup_s=1.0),
                   _build_record("d0", wall=3.0, setup_s=3.0),
                   {"ok": False, "traced": False},
                   _build_record("d0", wall=1.0, traced=True)]
        records[1]["reps"].append(_rep(wall=5.0, cpu=1.0))
        got, n = run.end_to_end(records, fixture_setup_s=0.5)
        assert n == 2
        assert got["wall_s"] == pytest.approx(3.0)
        assert got["cpu_s"] == pytest.approx(1.0)
        assert got["setup_s"] == pytest.approx(2.5)
        # a set-up while the probe ran twice as slow counts half
        records[1]["setup_probe_s"] *= 2.0
        got, _ = run.end_to_end(records, fixture_setup_s=0.5)
        assert got["setup_s"] == pytest.approx(1.75)
        assert got["rows_per_s"] == pytest.approx(10 / 3)
        assert got["peak_rss_mb"] == 100.0

    def test_end_to_end_scales_steps_by_the_probe(self):
        record = _build_record("d0", wall=4.0)
        # twice the time while the probe ran twice as slow: same speed
        record["reps"] = [_rep(wall=4.0, slowdown=2.0),
                          _rep(wall=3.0, slowdown=1.0)]
        got, _ = run.end_to_end([record], fixture_setup_s=0.0)
        assert got["wall_s"] == pytest.approx(2.0)
        assert got["cpu_s"] == pytest.approx(1.0)
        # each step is scaled by the probe around it, not the whole rep's
        record["reps"] = [_rep(wall=4.0), _rep(wall=4.0)]
        record["reps"][0]["probe_s"]["a"] *= 4.0
        record["reps"][1]["probe_s"]["b"] *= 4.0
        got, _ = run.end_to_end([record], fixture_setup_s=0.0)
        assert got["wall_s"] == pytest.approx(1.0)

    def test_artifact_mismatch_in_one_repetition_is_one_failed_op(self):
        hashes = {name: "h" for name in run.ARTIFACTS}
        good = {"digest": "d0", "hashes": hashes, "errors": {}}
        bad = dict(good, hashes=dict(hashes, table7="other"))
        fake = _FakeRun([{"ok": True, "traced": False,
                          "reps": [good, bad]}],
                        pinned={"digest": "d0", "artifacts": hashes})
        fake.child = lambda spec: {"ok": True, "digest": "d0",
                                   "setup_s": 1.0,
                                   "setup_probe_s": run.PROBE_REF_S}
        fake.fresh_dir = lambda: str(run.HERE / "no-such-store")
        run.run_reanalyze(fake)
        per_rep = 1 + len(run.ARTIFACTS)
        assert fake.ledger.attempted == run.FIXTURE_SETUPS + 2 * per_rep
        assert fake.ledger.failures == [
            ("table7[0.1]", "digest other != reference h")]


class TestPerLayer:
    def _trace(self, tmp_path, events):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        return path

    def test_reports_every_declared_metric(self, tmp_path):
        events = [_span(name, i * 10, 5, shard=0)
                  for i, name in enumerate(run.EXPECTED_SPANS["reanalyze"])]
        records = [_build_record("d0", wall=3.0),
                   _build_record("d0", wall=3.5, traced=True,
                                 metrics={"counters": {}})]
        ledger = measure.OpLedger()
        got = run.per_layer("reanalyze", records, ledger,
                            self._trace(tmp_path, events))
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in declared["per_layer"]}
        assert set(got) == names
        assert got["trace.overhead_s"] == pytest.approx(0.5)
        assert ledger.failed == 0

    def test_missing_shard_spans_fail_the_trace_op(self, tmp_path):
        events = [_span(name, i * 10, 5, shard=0)
                  for i, name in enumerate(run.EXPECTED_SPANS["build"])]
        records = [_build_record("d0"), _build_record("d0", traced=True)]
        ledger = measure.OpLedger()
        run.per_layer("build_2shard", records, ledger,
                      self._trace(tmp_path, events))
        assert ledger.failed == 1
        assert "shard.run" in ledger.failures[0][1]


def test_reference_documents_every_declared_metric():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((run.HERE / "reference.json").read_text())
    for key in ("end_to_end", "per_layer"):
        units = {m["name"]: m["unit"] for m in declared[key]}
        assert units == {name: doc["unit"]
                         for name, doc in reference[key].items()}
    assert set(reference["workloads"]) == set(run.WORKLOADS) == \
        {w["name"] for w in declared["workloads"]}
