"""One pass of a benchmark workload, measured in a fresh process.

``run.py`` starts this script once per pass so that peak RSS
(``VmHWM``) and CPU time belong to that pass alone::

    python3 perfbench/work.py '{"mode": "build", "seed": 42, ...}'

The last line of standard output is one JSON object with the raw
measurements. Modes:

- ``build`` — ``run_experiment(ExperimentConfig.<config>(seed))``
  (``shards`` > 0 builds sharded) then ``save_corpus`` to ``store_dir``;
- ``fixture`` — build and save ``ExperimentConfig.<config>(seed)``, the
  stored corpus ``reanalyze`` reads (not timed as work: it is set-up);
- ``reanalyze`` — ``reps`` times over: a cold ``load_corpus``, a fresh
  ``CorpusAnalysis`` and its ``all_sessions``, Tables 2–8, the CLI
  figures, ``derive_guidance`` and ``bias_report``.

With ``"traced": true`` a :class:`repro.obs.FlightRecorder` is installed
(plus an :class:`repro.obs.EventLog` for sharded builds, without which
shard spans are not merged) and the Chrome trace is written to
``trace_path``. Every public call is a step of the timed work: it is
wrapped in a ``bench.<step>`` span, and each repetition (``reps``)
reports the wall and CPU seconds of each of its steps and, per step,
the mean time of the speed probe (:func:`probe`) run just before and
just after it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager
from pathlib import Path

#: iterations of one speed-probe sample, a fixed pure-Python loop
PROBE_LOOPS = 50_000
#: probe samples taken before each step
PROBE_BURST = 4


def probe() -> list[float]:
    """Seconds of ``PROBE_BURST`` runs of a fixed loop: how fast this
    CPU runs interpreted code right now. The loop allocates no
    containers, so it never triggers a garbage collection of the
    program's heap."""
    samples = []
    for _ in range(PROBE_BURST):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i
        samples.append(time.perf_counter() - start)
    return samples


#: the probe at process start, before the imports that set-up times
START_PROBE = probe()

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from bench_store_oocore import _peak_rss_kb  # noqa: E402
from repro import obs  # noqa: E402


def _cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Window:
    """The timed window of a pass: wall and peak RSS.

    Peak RSS is this process's ``VmHWM`` or, for shard workers, the
    largest reaped child's ``ru_maxrss`` — whichever is higher. Each
    pass runs in a fresh process, so neither carries an earlier peak.
    """

    def __enter__(self) -> "Window":
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s = time.perf_counter() - self._wall
        workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.peak_rss_mb = max(_peak_rss_kb(), workers_kb) / 1024.0
        return False

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "peak_rss_mb": self.peak_rss_mb}


class Steps:
    """Wall and CPU seconds of each named step of the timed work, and
    the speed probe on either side of each step."""

    def __init__(self) -> None:
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        #: mean probe sample of each burst; burst i runs before step i
        self.bursts: list[float] = []

    @contextmanager
    def __call__(self, name: str):
        self.bursts.append(statistics.mean(probe()))
        cpu, wall = _cpu_seconds(), time.perf_counter()
        try:
            with obs.span(f"bench.{name}"):
                yield
        finally:
            self.wall[name] = time.perf_counter() - wall
            self.cpu[name] = _cpu_seconds() - cpu

    def record(self) -> dict:
        """The repetition's times; probes once more after the last step."""
        self.bursts.append(statistics.mean(probe()))
        around = zip(self.bursts, self.bursts[1:])
        return {"wall_s": self.wall, "cpu_s": self.cpu,
                "probe_s": {name: (before + after) / 2 for name, (
                    before, after) in zip(self.wall, around)}}


def _traced(spec: dict, stack: ExitStack, event_log: bool = False):
    """Install the recorder (and event log) of a traced pass."""
    if not spec.get("traced"):
        return None
    from repro.obs.events import EventLog
    # a heartbeat makes the simulator (and every shard worker) fold its
    # executed-event count into the registry
    recorder = stack.enter_context(
        obs.FlightRecorder(heartbeat_interval=spec["heartbeat"]))
    if event_log:
        stack.enter_context(
            EventLog(Path(spec["workdir"]) / "events.jsonl"))
    return recorder


def _finish_trace(spec: dict, recorder, out: dict) -> None:
    if recorder is None:
        return
    recorder.write_trace(spec["trace_path"])
    out["metrics"] = recorder.metrics.snapshot()


def _paths(out: dict, context=None, analysis=None) -> None:
    """Record which code paths ran, as the program resolved them."""
    if context is not None:
        out["emit_path"] = "batch" if getattr(context, "batch_emit", True) \
            else "per-packet"
    if analysis is not None:
        out["analysis_path"] = "columnar" \
            if getattr(analysis, "use_columnar", True) else "objects"


def build(spec: dict, ready) -> dict:
    from repro.experiment import ExperimentConfig, run_experiment
    from repro.experiment.store import corpus_digest, save_corpus

    config = getattr(ExperimentConfig, spec["config"])(spec["seed"])
    kwargs = {"shards": spec["shards"]} if spec.get("shards") else {}
    out: dict = {}
    step = Steps()
    with ExitStack() as stack:
        recorder = _traced(dict(spec, heartbeat=config.duration), stack,
                           event_log=bool(kwargs))
        ready(out)
        with Window() as window:
            with step("run_experiment"):
                result = run_experiment(config, **kwargs)
            with step("save_corpus"):
                save_corpus(result.corpus, spec["store_dir"])
        _finish_trace(spec, recorder, out)
    out.update(window.record(), reps=[step.record()])
    out["rows"] = result.corpus.total_packets()
    out["digest"] = corpus_digest(result.corpus)
    out["stage_seconds"] = result.stage_seconds
    stats = result.shard_stats or []
    out["retries"] = sum(max(0, s.get("attempts", 1) - 1) for s in stats)
    out["quarantined"] = len(result.quarantined_shards)
    out["bytes_written"] = sum(p.stat().st_size for p in
                               Path(spec["store_dir"]).rglob("*")
                               if p.is_file())
    out["coordinator_events"] = result.deployment.simulator.events_executed
    out["packets_emitted"] = result.context.packets_emitted
    _paths(out, context=result.context)
    return out


def fixture(spec: dict, ready) -> dict:
    from repro.experiment import ExperimentConfig, run_experiment
    from repro.experiment.store import corpus_digest, save_corpus

    config = getattr(ExperimentConfig, spec["config"])(spec["seed"])
    result = run_experiment(config)
    save_corpus(result.corpus, spec["store_dir"])
    out: dict = {}
    ready(out)
    out["rows"] = result.corpus.total_packets()
    out["digest"] = corpus_digest(result.corpus)
    return out


def artifacts() -> list[tuple[str, object]]:
    """The reanalysis artifacts, in the order they are produced."""
    from repro.analysis import figures, tables
    from repro.analysis.bias import bias_report
    from repro.analysis.guidance import derive_guidance
    from repro.cli import FIGURES

    return ([(f"table{n}", getattr(tables, f"table{n}"))
             for n in range(2, 9)]
            + [(name, getattr(figures, name)) for name in FIGURES]
            + [("guidance", derive_guidance), ("bias", bias_report)])


def render(result) -> str:
    """An artifact's text, as the CLI prints it."""
    if hasattr(result, "render"):
        return result.render()
    if hasattr(result, "table_a"):  # table 5: two panels
        return result.table_a.render() + "\n\n" + result.table_b.render()
    return result.table.render()


def reanalyze(spec: dict, ready) -> dict:
    from repro.analysis.context import CorpusAnalysis
    from repro.experiment.store import corpus_digest, load_corpus

    steps = artifacts()
    out: dict = {"reps": []}
    with ExitStack() as stack:
        recorder = _traced(dict(spec, heartbeat=None), stack)
        ready(out)
        with Window() as window:
            for _ in range(spec.get("reps", 1)):
                step = Steps()
                results: dict[str, object] = {}
                errors: dict[str, str] = {}
                with step("load_corpus"):
                    corpus = load_corpus(spec["store_dir"])
                    analysis = CorpusAnalysis(corpus)
                with step("all_sessions"):
                    analysis.all_sessions()
                for name, generate in steps:
                    try:
                        with step(name):
                            results[name] = generate(analysis)
                    except Exception:  # one failing artifact: one failed op
                        errors[name] = traceback.format_exc(limit=3)
                # outputs are checked between the steps, not inside them
                out["reps"].append(dict(
                    step.record(), errors=errors,
                    digest=corpus_digest(corpus),
                    hashes={name: hashlib.sha256(
                        render(res).encode()).hexdigest()
                        for name, res in results.items()}))
        _finish_trace(spec, recorder, out)
    out.update(window.record())
    out["rows"] = corpus.total_packets()
    _paths(out, analysis=analysis)
    return out


MODES = {"build": build, "fixture": fixture, "reanalyze": reanalyze}


def main() -> int:
    spec = json.loads(sys.argv[1])

    def ready(out: dict) -> None:
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's
        # spawn instant and this one share a time base
        out["setup_s"] = time.monotonic() - spec["spawned"]
        # the probe on either side of set-up, to scale it like the steps
        out["setup_probe_s"] = statistics.mean(START_PROBE + probe())

    try:
        out = MODES[spec["mode"]](spec, ready)
        out["ok"] = True
    except Exception as exc:  # reported to the parent as a failed op
        traceback.print_exc()
        out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
