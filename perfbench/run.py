"""The repository benchmark: build and reanalysis workloads, end to end
and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build --seed 42 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Workloads (why each exists is in ``reference.json``):

- ``build`` — unsharded ``run_experiment(ExperimentConfig.small(seed))``
  then ``save_corpus`` (v2);
- ``build_2shard`` — the same build with ``shards=2``;
- ``reanalyze`` — set-up builds and saves ``ExperimentConfig.tiny(seed)``;
  the timed work is a cold ``load_corpus``, ``all_sessions``, Tables
  2–8, the CLI figures, ``derive_guidance`` and ``bias_report``.

Each pass runs in a fresh ``work.py`` process, which does the timed
work ``REPS`` times and times every public call of each repetition as
one step. A run makes as many passes as ``--seconds`` takes at the
baseline's pass time (``NOMINAL_PASS_S``), at least ``MIN_PASSES``; the
count never depends on how fast the passes turn out.

CPU speed on a shared box swings by up to 1.6x, in bursts of well under
a second and in spells of minutes, which only ever adds time. So each
repetition also times a fixed speed probe (``work.probe``) just before
and after every step, and ``wall_s`` and ``cpu_s`` sum, over steps,
each step's fastest repetition after scaling it by ``PROBE_REF_S`` over
the mean probe time around it: the time the step would take on the
reference box at its fastest. ``setup_s`` is the median over set-ups,
each scaled likewise by the probe at its process's start and at ready;
peak RSS is the median over passes. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by a traced repetition, whose
Chrome trace (``.perfbench/trace-<workload>.json``) gives the per-layer
metrics and whose wall time minus the untraced one is the tracing
overhead.

``--seed n`` picks program seed ``pool[n % len(pool)]`` from a pool in
``pinned.json`` of seeds whose corpora are of about equal size and
work (see ``pin.py``); every pass of the run uses it. Outputs are checked outside the timed window
against the references pinned there: each build's corpus digest
(``build_2shard`` must equal the unsharded build), the stored corpus a
reanalysis loads, and each artifact's rendered text. A failed check, a
raise or a shard retry is a failed op; it does not stop the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import (OpLedger, check_output, counter_total,  # noqa: E402
                     fastest_total, self_times, span_durations, summarize)

WORKLOADS = ("build", "build_2shard", "reanalyze")
#: the ``ExperimentConfig`` preset each workload builds or reads; a pass
#: of each takes about a second or a few, so a run holds many passes
CONFIGS = {"build": "small", "build_2shard": "small", "reanalyze": "tiny"}
SHARDS = 2
#: fixture builds per ``reanalyze`` run; set-up reports their median
FIXTURE_SETUPS = 3
#: repetitions of the timed work in one untraced pass: a build pass
#: builds once, so that each build starts in a fresh process; a
#: reanalysis pass amortises its process start over several
REPS = {"build": 1, "build_2shard": 1, "reanalyze": 3}
#: untraced passes per run at least, whatever ``--seconds`` says
MIN_PASSES = 2
#: seconds of one pass, process start included, on the baseline box; a
#: run makes ``--seconds`` of these, so two commits are summarised over
#: the same number of passes however fast either turns out
NOMINAL_PASS_S = {"build": 2.0, "build_2shard": 2.2, "reanalyze": 19.0}
#: one speed-probe sample's seconds on the reference box when fast (its
#: 5th percentile drifted from 4.0 to 5.2 ms over an hour: 2 CPUs,
#: "Intel(R) Xeon(R) Processor", Python 3.11.7); it only sets the scale
#: of the probe-scaled times
PROBE_REF_S = 0.004
#: how each end-to-end metric summarises a run's passes
STATISTIC = {"setup_s": "median of probe-scaled set-ups",
             "wall_s": "sum of fastest probe-scaled steps",
             "rows_per_s": "rows / wall_s",
             "cpu_s": "sum of fastest probe-scaled steps",
             "peak_rss_mb": "median"}
#: a run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
#: environment switches that would silently benchmark the oracle paths
LEGACY_SWITCHES = ("REPRO_LEGACY_EMIT", "REPRO_LEGACY_OBJECTS")

ARTIFACTS = tuple(f"table{n}" for n in range(2, 9)) + (
    "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig14", "fig15", "fig16", "fig17", "guidance", "bias")

#: span name -> per-layer self-time metric; unlisted spans are
#: transparent (their self time goes to the enclosing listed span)
SPAN_LAYERS = {
    "scanner.batch_emit": "scanners.batch_emit_s",
    "bench.save_corpus": "store.save_s",
    "bench.load_corpus": "store.load_s",
    "bench.all_sessions": "columnar.sessionize_s",
    "analysis.sessionize": "columnar.sessionize_s",
    "columnar.sessionize": "columnar.sessionize_s",
    "analysis.classify_temporal": "analysis.classify_temporal_s",
    "analysis.classify_network": "analysis.classify_network_s",
    "bench.guidance": "guidance.derive_s",
    "bench.bias": "bias.report_s",
}
SPAN_LAYERS.update({f"bench.table{n}": f"tables.table{n}_s"
                    for n in range(2, 9)})
SPAN_LAYERS.update({f"bench.{name}": f"figures.{name}_s"
                    for name in ARTIFACTS if name.startswith("fig")})

#: spans a traced pass must contain, per workload
EXPECTED_SPANS = {
    "build": ("bench.run_experiment", "driver.simulate", "sim.run_until",
              "driver.flush_batches", "scanner.batch_emit",
              "driver.package_corpus", "bench.save_corpus",
              "store.write_chunks"),
    "build_2shard": ("bench.run_experiment", "driver.record_timeline",
                     "sim.run_until", "driver.shard_simulate", "shard.run",
                     "scanner.batch_emit", "driver.package_corpus",
                     "bench.save_corpus", "store.write_chunks"),
    "reanalyze": ("bench.load_corpus", "bench.all_sessions",
                  "analysis.sessionize", "columnar.sessionize",
                  "analysis.classify_temporal", "analysis.classify_network")
                 + tuple(f"bench.{name}" for name in ARTIFACTS),
}


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def program_seed(pinned: dict, workload: str, seed: int) \
        -> tuple[int, dict]:
    """The program seed ``--seed`` maps to, and its pinned references.

    The workload's pool holds seeds whose corpora have about the same
    size (see ``pin.py``), so different seeds vary the scanner
    population but hardly the amount of work.
    """
    config = CONFIGS[workload]
    pool = pinned["pools"][config]
    program = pool[seed % len(pool)]
    return program, pinned[config][str(program)]


def run_pass(spec: dict, timeout: float) -> dict:
    """Run one ``work.py`` pass; a crash or timeout is ``ok: False``.

    The pass runs in its own session, so that on return every process
    left in its group (shard workers of a killed pass) is killed too.
    """
    spec = dict(spec, spawned=time.monotonic())
    timeout = max(1.0, timeout)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "work.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"timed out after {timeout:.0f}s"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray shard workers
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False,
                "error": f"pass exited {proc.returncode} without a result"}


class Run:
    """One benchmark run: its deadline, scratch space and child passes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        self.trace_path = out_dir / f"trace-{args.workload}.json"
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
        self.ledger = OpLedger()
        self.seed, self.pinned = program_seed(
            _load_json(HERE / "pinned.json"), args.workload, args.seed)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def child(self, spec: dict) -> dict:
        return run_pass(dict(spec, workdir=str(self.workdir),
                             trace_path=str(self.trace_path)),
                        timeout=self.deadline - time.monotonic())

    def pass_count(self) -> int:
        """Untraced passes: ``--seconds`` at the baseline's pass time, at
        least ``MIN_PASSES``; a single one with ``--trace 1``."""
        if self.args.trace:
            return 1
        nominal = NOMINAL_PASS_S[self.args.workload]
        return max(MIN_PASSES, math.ceil(self.args.seconds / nominal))

    def passes(self, spec: dict) -> list[dict]:
        """The untraced passes, then the traced pass if asked; passes
        stop early only when the run's time budget is spent.

        A build pass writes to a fresh store directory, removed after
        the pass; ``spec["store_dir"]`` (the reanalysis fixture) is
        shared by every pass.
        """
        records: list[dict] = []
        for _ in range(self.pass_count()):
            if records and time.monotonic() >= self.deadline:
                break
            records.append(self._pass(spec, traced=False))
        if self.args.trace and time.monotonic() < self.deadline:
            records.append(self._pass(spec, traced=True))
        return records

    def _pass(self, spec: dict, traced: bool) -> dict:
        store = spec.get("store_dir") or self.fresh_dir()
        workload = self.args.workload
        record = self.child(dict(spec, seed=self.seed, traced=traced,
                                 config=CONFIGS[workload],
                                 reps=1 if traced else REPS[workload],
                                 store_dir=store))
        if "store_dir" not in spec:
            shutil.rmtree(store, ignore_errors=True)
        record.update(traced=traced)
        return record


# -- workloads -------------------------------------------------------------


def run_build(run: Run, shards: int) -> list[dict]:
    """Build passes; each is one op checked against the pinned digest of
    the unsharded build (DESIGN §8: a sharded corpus is byte-identical)."""
    records = run.passes({"mode": "build", "shards": shards})
    expected = run.pinned["digest"]
    for i, record in enumerate(records):
        error = record.get("error")
        if record.get("retries"):
            error = f"{record['retries']} shard retries"
        if record.get("quarantined"):
            error = f"{record['quarantined']} shards quarantined"
        check_output(run.ledger, f"corpus[{i}]", record.get("digest"),
                     expected, error)
    print("  check: corpus digests == pinned unsharded build of "
          f"{CONFIGS[run.args.workload]} seed {run.seed}")
    return records


def run_reanalyze(run: Run) -> tuple[list[dict], float]:
    """Fixture set-up, then reanalysis passes over the stored corpus.

    Each fixture build+save is one op (all must agree on the corpus
    digest), and so is each artifact of each pass. Returns the passes
    and the median fixture set-up seconds.
    """
    fixtures = []
    for _ in range(FIXTURE_SETUPS):
        store = run.fresh_dir()
        fixtures.append(dict(run.child({"mode": "fixture",
                                        "seed": run.seed,
                                        "config": CONFIGS["reanalyze"],
                                        "store_dir": store}),
                             store_dir=store))
    expected = run.pinned["digest"]
    for i, fixture in enumerate(fixtures):
        check_output(run.ledger, f"fixture[{i}]", fixture.get("digest"),
                     expected, fixture.get("error"))
    good = [f for f in fixtures if f.get("ok")]
    if not good:
        return [], 0.0
    for fixture in good[1:]:
        shutil.rmtree(fixture["store_dir"], ignore_errors=True)

    records = run.passes({"mode": "reanalyze",
                          "store_dir": good[0]["store_dir"]})
    hashes = run.pinned["artifacts"]
    for i, record in enumerate(records):
        for j, rep in enumerate(record.get("reps") or [{}]):
            error = record.get("error")
            # the loaded corpus must be the one the fixture saved
            check_output(run.ledger, f"load[{i}.{j}]", rep.get("digest"),
                         expected, error)
            for name in ARTIFACTS:
                check_output(run.ledger, f"{name}[{i}.{j}]",
                             rep.get("hashes", {}).get(name),
                             hashes.get(name),
                             error or rep.get("errors", {}).get(name))
    print(f"  check: stored corpus digest and {len(ARTIFACTS)} artifact "
          f"hashes == pinned for {CONFIGS['reanalyze']} seed {run.seed}")
    return records, statistics.median(map(scaled_setup_s, good))


# -- metrics ---------------------------------------------------------------


def scaled_setup_s(record: dict) -> float:
    """A pass's set-up seconds, scaled by the probe around its set-up."""
    return record["setup_s"] * PROBE_REF_S / record["setup_probe_s"]


def end_to_end(records: list[dict], fixture_setup_s: float) \
        -> tuple[dict[str, float], int]:
    """End-to-end metrics over the untraced passes (see ``STATISTIC``),
    and the number of passes they summarise."""
    ok = [r for r in records if r.get("ok") and not r["traced"]]
    reps = [rep for r in ok for rep in r["reps"]]

    def scaled(key: str) -> list[dict[str, float]]:
        return [{step: seconds * PROBE_REF_S / rep["probe_s"][step]
                 for step, seconds in rep[key].items()} for rep in reps]

    wall = fastest_total(scaled("wall_s"))
    return {
        "setup_s": statistics.median(fixture_setup_s + scaled_setup_s(r)
                                     for r in ok),
        "wall_s": wall,
        "rows_per_s": ok[0]["rows"] / wall,
        "cpu_s": fastest_total(scaled("cpu_s")),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }, len(ok)


def rep_walls(records) -> list[float]:
    """Wall seconds of the timed work of each repetition in ``records``."""
    return [sum(rep["wall_s"].values()) for r in records
            for rep in r["reps"]]


def per_layer(workload: str, records: list[dict], ledger: OpLedger,
              trace_path: Path) -> dict[str, float]:
    """Per-layer metrics of the traced pass (the last record).

    Self times come from the pass's Chrome trace, counts from the
    program's own counters, driver stages from
    ``ExperimentResult.stage_seconds``. A traced pass that lacks an
    expected span is a failed op.
    """
    traced = records[-1]
    untraced = rep_walls(r for r in records
                         if r.get("ok") and not r["traced"])
    if not traced["traced"]:
        ledger.record("trace", False, "no time left for the traced pass")
    if not (traced["traced"] and traced.get("ok") and untraced):
        return {}
    events = _load_json(trace_path)["traceEvents"]
    names = {ev["name"] for ev in events if ev.get("ph") == "X"}
    missing = [n for n in EXPECTED_SPANS[workload] if n not in names]
    shard_runs = {int(ev["args"]["shard"]): float(ev["dur"]) / 1e6
                  for ev in events
                  if ev.get("name") == "shard.run" and ev.get("ph") == "X"}
    if workload == "build_2shard" and len(shard_runs) != SHARDS:
        missing.append(f"shard.run x{SHARDS} (found {len(shard_runs)})")
    ledger.record("trace", not missing,
                  "missing spans: " + ", ".join(missing))

    snap = traced.get("metrics", {})
    stages = traced.get("stage_seconds", {})
    selfs = self_times(events, SPAN_LAYERS.get)

    def count(name: str, kind: str = "counters") -> float:
        return counter_total(snap, name, kind)

    out = {f"driver.{stage}_s": stages.get(stage, 0.0)
           for stage in ("build_deployment", "build_population",
                         "schedule_scanners", "simulate", "flush_batches",
                         "package_corpus")}
    runs = list(shard_runs.values())
    worst = max(runs, default=0.0)
    shard_simulate = stages.get("shard_simulate", 0.0)
    out.update({
        "sharding.record_timeline_s": stages.get("record_timeline", 0.0),
        "sharding.shard_simulate_s": shard_simulate,
        "sharding.worst_shard_s": worst,
        "sharding.imbalance": worst / statistics.mean(runs) if runs else 0.0,
        "sharding.worker_idle_s": shard_simulate - worst if runs else 0.0,
        "sharding.retries": float(traced.get("retries", 0)),
    })
    for shard in range(SHARDS):
        out[f"sharding.shard{shard}_run_s"] = shard_runs.get(shard, 0.0)

    # a sharded build's coordinator simulator runs only the record pass,
    # which no recorder is attached to; its count comes from the result
    events_executed = count("sim.events_executed_total")
    if shard_runs:
        events_executed += traced.get("coordinator_events", 0)
    loop_s = (out["driver.simulate_s"] + out["sharding.record_timeline_s"]
              + shard_simulate)
    emitted = traced.get("packets_emitted", 0)
    captured = count("telescope.packets_total")
    hits = count("analysis.sessions.cache_hits_total")
    lookups = hits + count("analysis.sessions.cache_misses_total")
    out.update({
        "sim.events_executed": events_executed,
        "sim.events_per_s": events_executed / loop_s if loop_s else 0.0,
        "bgp.announcements": count("bgp.announcements_total"),
        "bgp.withdrawals": count("bgp.withdrawals_total"),
        "scanners.batch_emit_calls": float(
            len(span_durations(events, "scanner.batch_emit"))),
        "scanners.packets_emitted": emitted,
        "telescope.packets": captured,
        "telescope.packets_dropped": count("telescope.packets_dropped_total"),
        "telescope.capture_ratio": captured / emitted if emitted else 0.0,
        "store.bytes_written": float(traced.get("bytes_written", 0)),
        "store.chunks_opened": count("store.chunks_opened_total"),
        "store.chunks_verified": count("store.chunks_verified_total"),
        "store.bytes_mapped": count("store.bytes_mapped", "gauges"),
        "columnar.packets_sessionized":
            count("columnar.packets_sessionized_total"),
        "columnar.sessions": count("columnar.sessions_total"),
        "analysis.sessions_cache_hit_ratio":
            hits / lookups if lookups else 0.0,
        "trace.wall_s": rep_walls([traced])[0],
        "trace.overhead_s":
            rep_walls([traced])[0] - statistics.median(untraced),
    })
    for layer in set(SPAN_LAYERS.values()):
        out[layer] = selfs.get(layer, 0.0)
    if missing:
        print("  trace: MISSING " + ", ".join(missing))
    print(f"  trace: {trace_path} "
          f"({len(events)} events, {len(shard_runs)} shard tracks)")
    top = sorted(self_times(events, lambda name: name).items(),
                 key=lambda kv: -kv[1])[:8]
    print("  top self time by span: " + ", ".join(
        f"{name} {seconds:.2f}s" for name, seconds in top))
    return out


# -- entry point -----------------------------------------------------------


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run, which sets the pass "
                             "count (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def preflight() -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    switches = [name for name in LEGACY_SWITCHES if name in os.environ]
    if switches:
        return (f"refusing to run with {', '.join(switches)} set: it "
                "would benchmark a legacy oracle path")
    for needed in ("BENCHMARK.json", "src/repro/__init__.py",
                   "benchmarks/bench_store_oocore.py"):
        if not (ROOT / needed).is_file():
            return f"{needed} not found under {ROOT}: not a repo checkout"
    return None


def bench(args: argparse.Namespace, declared: dict) -> dict | None:
    """Run one workload and print its report; returns the result object
    of the last stdout line, or None when no pass completed."""
    run = Run(args)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"(program seed {run.seed}) seconds={args.seconds:g} "
          f"trace={args.trace}")
    try:
        fixture_setup_s = 0.0
        if args.workload == "reanalyze":
            records, fixture_setup_s = run_reanalyze(run)
        else:
            records = run_build(
                run, SHARDS if args.workload == "build_2shard" else 0)
        if not any(r.get("ok") and not r["traced"] for r in records):
            for record in records:
                print(f"  pass failed: {record.get('error')}",
                      file=sys.stderr)
            return None
        summary, n = end_to_end(records, fixture_setup_s)
        layers = per_layer(args.workload, records, run.ledger,
                           run.trace_path) if args.trace else {}
    finally:
        run.close()

    first = next(r for r in records if r.get("ok"))
    paths = [f"{k}={first[k]}" for k in ("emit_path", "analysis_path")
             if k in first]
    print(f"  rows {first['rows']:,}; paths: {' '.join(paths)}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for name, value in summary.items():
        print(f"  {name:<16} {value:>14.4f} {units[name]:<6} "
              f"{STATISTIC[name]} of n={n} passes")
    untraced = [r for r in records if r.get("ok") and not r["traced"]]
    reps = [rep for r in untraced for rep in r["reps"]]
    probes = summarize(probe * 1e3 for rep in reps
                       for probe in rep["probe_s"].values())
    print(f"  probe: median {probes['median']:.3f} ms, min "
          f"{probes['min']:.3f} ms over n={probes['n']} steps; "
          f"unscaled sum of fastest steps "
          f"{fastest_total(rep['wall_s'] for rep in reps):.4f} s")
    walls = summarize(rep_walls(untraced))
    print(f"  wall_s of whole repetitions: median {walls['median']:.4f}, "
          f"q1 {walls['q1']:.4f}, q3 {walls['q3']:.4f}, "
          f"min {walls['min']:.4f}, max {walls['max']:.4f} (n={walls['n']})")
    ledger = run.ledger
    print(f"  {'failed_op_ratio':<16} {ledger.ratio:>14.4f} "
          f"({ledger.failed}/{ledger.attempted} ops failed)")
    for name, reason in ledger.failures:
        print(f"  FAILED {name}: {reason}")
    if args.trace:
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in declared["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>16.4f} {m['unit']}")
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in units.items()}
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    declared = _load_json(ROOT / "BENCHMARK.json")
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result = bench(argparse.Namespace(**dict(vars(args),
                                                 workload=workload)),
                       declared)
        if result is None:
            print(f"perfbench: no {workload} pass completed",
                  file=sys.stderr)
            return 1
        results[workload] = result
    if len(results) == 1:
        final = results[workloads[0]]
    else:  # metric names gain a "<workload>." prefix
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
