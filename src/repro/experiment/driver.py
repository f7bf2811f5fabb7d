"""Experiment driver: build, run, collect.

``run_experiment(config)`` performs the whole measurement campaign:

1. build the deployment (§3: BGP fabric, telescopes, collector, hitlist),
2. build the calibrated scanner population,
3. register RDNS entries for fixed-source scanners,
4. schedule every scanner and run the simulator to the horizon,
5. package the captures into a :class:`PacketCorpus`.

Each stage runs inside a ``driver.*`` tracing span. When a
:class:`repro.obs.FlightRecorder` is installed the spans land in its
trace (nested under ``driver.run_experiment``, with ``sim.run_until``
below ``driver.simulate``) and the simulator heartbeat is attached;
otherwise a private throwaway tracer measures the same stages so
:attr:`ExperimentResult.stage_seconds` is always populated.
"""

from __future__ import annotations

import shutil
import tempfile
import time as _time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.obs import events as obsevents
from repro.obs import ledger as obsledger
from repro.bgp.messages import UpdateKind
from repro.errors import ExperimentError
from repro.experiment import checkpoint as ckpt
from repro.experiment.config import ExperimentConfig
from repro.experiment.corpus import PacketCorpus, merge_chunked_shards
from repro.faults import FaultInjector, FaultPlan
from repro.scanners.base import (Scanner, ScannerContext, SourceModel,
                                 batch_emit_default)
from repro.scanners.population import (PopulationInputs, build_population)
from repro.scanners.registry import ASRegistry
from repro.sim.rng import RngStreams
from repro.telescope.deployment import (Deployment, T1_PREFIX, T2_PREFIX,
                                        T3_PREFIX, T4_PREFIX,
                                        build_deployment)


@dataclass
class ExperimentResult:
    """Corpus plus ground truth and infrastructure handles."""

    corpus: PacketCorpus
    deployment: Deployment
    population: list[Scanner]
    context: ScannerContext
    wall_seconds: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: CPU (process) seconds of coordinator stages that matter for
    #: scaling accounting — currently only ``record_timeline`` of a
    #: sharded build; empty for unsharded runs.
    stage_cpu_seconds: dict[str, float] = field(default_factory=dict)
    #: per-worker results of a sharded build (segment row counts, wall
    #: and CPU seconds per worker stage) — ``None`` for unsharded runs.
    shard_stats: list[dict] | None = field(default=None, repr=False)
    #: shards that exhausted their retry budget under
    #: ``on_shard_failure="degrade"`` — their scanners' traffic is
    #: missing from the corpus and recorded as coverage gaps.
    quarantined_shards: tuple[int, ...] = ()
    _scanner_index: dict[int, Scanner] | None = field(
        default=None, repr=False, compare=False)

    def scanner_by_id(self, scanner_id: int) -> Scanner | None:
        if self._scanner_index is None:
            self._scanner_index = {s.scanner_id: s for s in self.population}
        return self._scanner_index.get(scanner_id)

    def ground_truth_temporal(self) -> dict[int, str]:
        """scanner_id -> generative temporal kind (validation only)."""
        return {s.scanner_id: s.temporal.kind.value for s in self.population}

    def ground_truth_network(self) -> dict[int, str]:
        return {s.scanner_id: s.truth_network_class
                for s in self.population if s.truth_network_class}


#: Stage names, in execution order, as they appear in ``stage_seconds``
#: and as ``driver.<stage>`` tracing spans. When a fault plan is armed an
#: extra ``install_faults`` stage runs (and is timed) between
#: ``schedule_scanners`` and ``simulate``. A sharded run (``shards=``,
#: or any run with a ``checkpoint_dir``) replaces ``simulate`` and
#: ``flush_batches`` with a coordinator ``record_timeline`` stage (the
#: infrastructure-only recording pass) followed by one
#: ``shard_simulate`` stage covering the whole worker fan-out; the
#: per-worker breakdown lands in :attr:`ExperimentResult.shard_stats`.
STAGES = ("build_deployment", "build_population", "schedule_scanners",
          "simulate", "flush_batches", "package_corpus")

_log = obs.log.get_logger("driver")


@contextmanager
def _stage(tracer, name, stage_seconds, **attrs):
    """One driver stage: a tracing span bracketed by run events.

    Records the span's duration as ``stage_seconds[name]``. Event
    emission is a no-op unless an :class:`~repro.obs.events.EventLog`
    is installed.
    """
    obs.event("stage.start", stage=name, **attrs)
    with tracer.span(f"driver.{name}", **attrs) as sp:
        yield sp
    stage_seconds[name] = sp.duration
    obs.event("stage.end", stage=name, seconds=round(sp.duration, 4))


def _record_run(result: "ExperimentResult", config, run_id, ledger_dir,
                fault_plan=None, shards=None) -> None:
    """Emit the ``run.end`` event and persist the ledger manifest."""
    corpus = result.corpus
    obs.event("run.end", wall_seconds=round(result.wall_seconds, 3),
              packets=corpus.total_packets(), scanners=len(result.population))
    if ledger_dir is None:
        return
    from repro.experiment.store import corpus_digest
    recorder = obs.current()
    event_log = obsevents.current()
    manifest = obsledger.build_manifest(
        run_id=run_id or (event_log.run_id if event_log is not None
                          else obsevents.new_run_id()),
        config=config,
        stage_seconds=result.stage_seconds,
        wall_seconds=result.wall_seconds,
        stage_cpu_seconds=result.stage_cpu_seconds,
        shards=shards,
        corpus_summary={
            "total_packets": corpus.total_packets(),
            "telescopes": {name: len(corpus.table(name))
                           for name in corpus.tables_by_telescope}},
        corpus_digest=corpus_digest(corpus),
        coverage_gaps=corpus.coverage_gaps,
        fault_plan=(obsledger.config_to_dict(fault_plan)
                    if fault_plan is not None else None),
        metrics=(recorder.metrics.snapshot()
                 if recorder is not None else None),
        events_file=(str(event_log.path)
                     if event_log is not None else None))
    path = obsledger.write_manifest(ledger_dir, manifest)
    _log.info("run %s recorded in ledger: %s", manifest["run_id"], path)


def run_experiment(config: ExperimentConfig | None = None,
                   registry: ASRegistry | None = None,
                   faults: FaultInjector | FaultPlan | None = None,
                   checkpoint_dir: str | Path | None = None,
                   after_checkpoint=None,
                   shards: int | str | None = None,
                   run_id: str | None = None,
                   ledger_dir: str | Path | None = None) -> ExperimentResult:
    """Run one full measurement campaign and return its result.

    ``faults`` arms a :class:`repro.faults.FaultPlan` (or a prebuilt
    injector) on the deployment before the simulation starts; an empty
    plan leaves the run byte-identical to a fault-free one.

    ``shards`` (an int or ``"auto"``) partitions the scanner population
    across that many worker processes, each running its own event loop
    against a replica of the deployment; the merged corpus is
    byte-identical to the unsharded build (DESIGN §8). Sharding
    requires the batched emission path. Workers run under the
    :class:`~repro.experiment.sharding.ShardSupervisor`: crashed or
    hung workers are retried per ``config.retry_policy`` (with
    per-shard timeouts derived from ``config.shard_timeout`` and the
    LPT cost model), and ``config.on_shard_failure`` picks between a
    terminal :class:`~repro.errors.ShardError` and quarantining the
    shard as coverage gaps.

    ``checkpoint_dir`` makes the run resumable at shard granularity
    (DESIGN §7, §11): a setup snapshot, a crash-safe ``shards.json``
    manifest of completed shards and their spill segments persist in
    the directory, and :func:`resume_experiment` re-runs only the
    shards that had not completed. Without ``shards`` a checkpointed
    run is a one-shard build (``shards=1``) — use more shards for finer
    restart points. ``after_checkpoint`` is called with the manifest
    path after each shard completion is recorded (test hook).

    ``ledger_dir`` records the run in the durable run ledger
    (:mod:`repro.obs.ledger`): a ``run.json`` manifest with config and
    git digests, per-stage timings, the final metrics snapshot and the
    corpus digest, browsable with ``repro runs list|show|compare``.
    ``run_id`` names the ledger entry (defaults to the installed event
    log's run id, else a fresh one).
    """
    started = _time.monotonic()
    if config is None:
        config = ExperimentConfig()
    if shards is None and checkpoint_dir is not None:
        shards = 1
    recorder = obs.current()
    tracer = recorder.tracer if recorder is not None else obs.Tracer()
    stage_seconds: dict[str, float] = {}
    plan = faults.plan if isinstance(faults, FaultInjector) else faults
    obs.event("run.start", seed=config.seed, scale=config.scale,
              duration=config.duration, shards=shards,
              faults=plan is not None)

    if shards is not None:
        from repro.experiment import sharding
        num_shards = sharding.resolve_shards(shards)
        result = _run_sharded(config, registry, faults, num_shards,
                              tracer, recorder, started,
                              run_id=run_id,
                              checkpoint_dir=checkpoint_dir,
                              after_checkpoint=after_checkpoint)
        _record_run(result, config, run_id, ledger_dir,
                    fault_plan=plan, shards=num_shards)
        return result

    with tracer.span("driver.run_experiment",
                     seed=config.seed, scale=config.scale):
        streams = RngStreams(config.seed)
        with _stage(tracer, "build_deployment", stage_seconds):
            deployment = build_deployment(
                streams,
                baseline_weeks=config.baseline_weeks,
                cycle_weeks=config.cycle_weeks,
                num_cycles=config.num_cycles,
                num_tier1=config.num_tier1,
                num_tier2=config.num_tier2,
                num_stubs=config.num_stubs,
                feed_delay=config.feed_delay)
        if registry is None:
            registry = ASRegistry()

        inputs = PopulationInputs(
            schedule=deployment.cycles(),
            announced=deployment.announced_t1_prefixes,
            t1_prefix=T1_PREFIX,
            t2_prefix=T2_PREFIX,
            t3_prefix=T3_PREFIX,
            t4_prefix=T4_PREFIX,
            attractor_addr=deployment.productive.attractor_addr,
            duration=config.duration)
        with _stage(tracer, "build_population", stage_seconds):
            population = build_population(config.population, inputs,
                                          registry, streams)

        batch_emit = config.batch_emit if config.batch_emit is not None \
            else batch_emit_default()
        context = ScannerContext(
            simulator=deployment.simulator,
            route=deployment.route,
            route_batch=deployment.route_batch,
            batch_emit=batch_emit,
            defer_batch=batch_emit,
            collector=deployment.collector,
            window_start=0.0,
            window_end=config.duration)

        with _stage(tracer, "schedule_scanners", stage_seconds,
                    scanners=len(population)):
            for scanner in population:
                _register_rdns(deployment, scanner)
                scanner.start(context)

        if faults is not None:
            injector = faults if isinstance(faults, FaultInjector) \
                else FaultInjector(faults, seed=config.seed)
            with _stage(tracer, "install_faults", stage_seconds):
                injector.install(deployment)

        if recorder is not None:
            recorder.attach(deployment.simulator, config.duration)
        try:
            with _stage(tracer, "simulate", stage_seconds,
                        horizon=config.duration):
                deployment.simulator.run_until(config.duration)
        finally:
            if recorder is not None:
                recorder.detach(deployment.simulator)

        if batch_emit:
            # sessions only *resolved* during the run materialize now,
            # one cross-session kernel call per scanner
            with _stage(tracer, "flush_batches", stage_seconds):
                context.flush_batches()

        with _stage(tracer, "package_corpus", stage_seconds):
            # batch runs package columns only — Packet objects
            # materialize lazily if an analysis asks for them
            packets_by = None if batch_emit else {
                name: telescope.capture.packets()
                for name, telescope in deployment.telescopes.items()}
            corpus = PacketCorpus(
                config=config,
                packets_by_telescope=packets_by,
                tables_by_telescope={
                    name: telescope.capture.table()
                    for name, telescope in deployment.telescopes.items()},
                schedule=deployment.cycles(),
                registry=registry,
                resolver=deployment.resolver,
                t1_prefix=T1_PREFIX,
                t2_prefix=T2_PREFIX,
                t3_prefix=T3_PREFIX,
                t4_prefix=T4_PREFIX,
                attractor_addr=deployment.productive.attractor_addr,
                coverage_gaps={
                    name: tuple(telescope.capture.blackout_windows)
                    for name, telescope in deployment.telescopes.items()
                    if telescope.capture.blackout_windows})

    result = ExperimentResult(
        corpus=corpus, deployment=deployment, population=population,
        context=context, wall_seconds=_time.monotonic() - started,
        stage_seconds=stage_seconds)
    _record_run(result, config, run_id, ledger_dir, fault_plan=plan)
    return result


def _run_sharded(config, registry, faults, num_shards,
                 tracer, recorder, started,
                 run_id: str | None = None,
                 checkpoint_dir: str | Path | None = None,
                 after_checkpoint=None,
                 resume: bool = False) -> ExperimentResult:
    """Coordinator side of a sharded build (DESIGN §8, §11).

    Builds its own deployment/population replica for the corpus metadata
    and the result's ground-truth handles, then simulates it once with
    *no scanners scheduled* — the recording pass. Only infrastructure
    events run (BGP flood, announcement schedule, fault flaps), and the
    collector journal they produce is the routing timeline the workers
    replay instead of each re-running the convergence flood. All packet
    emission happens in the shard workers, whose spilled segments are
    merged (verified) at ``package_corpus``.

    With ``checkpoint_dir`` the spill lives inside the checkpoint
    directory instead of a temp dir, a setup snapshot plus a
    ``shards.json`` manifest persist alongside it, and ``resume=True``
    (from :func:`resume_experiment`) skips manifest-recorded shards
    whose spill segments are intact — the recording pass itself is
    deterministic and cheap, so it simply re-runs.
    """
    from repro.experiment import sharding

    batch_emit = config.batch_emit if config.batch_emit is not None \
        else batch_emit_default()
    if not batch_emit:
        raise ExperimentError(
            "sharded runs require the batched emission path — "
            "config.batch_emit must not be False (and REPRO_LEGACY_EMIT "
            "must not force the per-packet oracle)")
    plan = faults.plan if isinstance(faults, FaultInjector) else faults

    stage_seconds: dict[str, float] = {}
    with tracer.span("driver.run_experiment", seed=config.seed,
                     scale=config.scale, shards=num_shards):
        streams = RngStreams(config.seed)
        with _stage(tracer, "build_deployment", stage_seconds):
            deployment = build_deployment(
                streams,
                baseline_weeks=config.baseline_weeks,
                cycle_weeks=config.cycle_weeks,
                num_cycles=config.num_cycles,
                num_tier1=config.num_tier1,
                num_tier2=config.num_tier2,
                num_stubs=config.num_stubs,
                feed_delay=config.feed_delay)
        if registry is None:
            registry = ASRegistry()

        inputs = PopulationInputs(
            schedule=deployment.cycles(),
            announced=deployment.announced_t1_prefixes,
            t1_prefix=T1_PREFIX,
            t2_prefix=T2_PREFIX,
            t3_prefix=T3_PREFIX,
            t4_prefix=T4_PREFIX,
            attractor_addr=deployment.productive.attractor_addr,
            duration=config.duration)
        with _stage(tracer, "build_population", stage_seconds):
            population = build_population(config.population, inputs,
                                          registry, streams)

        context = ScannerContext(
            simulator=deployment.simulator,
            route=deployment.route,
            route_batch=deployment.route_batch,
            batch_emit=True,
            defer_batch=True,
            collector=deployment.collector,
            window_start=0.0,
            window_end=config.duration)

        # the coordinator replica never runs: scanners are registered
        # (RDNS for the corpus resolver) but not started
        with _stage(tracer, "schedule_scanners", stage_seconds,
                    scanners=len(population), sharded=True):
            for scanner in population:
                _register_rdns(deployment, scanner)

        if plan is not None:
            injector = faults if isinstance(faults, FaultInjector) \
                else FaultInjector(plan, seed=config.seed)
            with _stage(tracer, "install_faults", stage_seconds):
                # arms blackout windows on the coordinator captures so
                # coverage gaps package correctly; the flap events fire
                # during the recording pass below, baking the fault's
                # BGP activity into the recorded timeline
                injector.install(deployment)

        # recording pass: with no scanners scheduled, only the
        # infrastructure events run. Its collector journal is the
        # routing timeline the workers replay (DESIGN §8), so the BGP
        # convergence flood is simulated exactly once per campaign.
        with _stage(tracer, "record_timeline", stage_seconds):
            cpu_before = _time.process_time()
            deployment.simulator.run_until(config.duration)
            stage_cpu = {"record_timeline":
                         _time.process_time() - cpu_before}
            # ship announcements only: every feed subscriber a worker can
            # host (reactive scanners, the hitlist service) returns
            # immediately on non-ANNOUNCE entries, so replaying withdrawals
            # would schedule thousands of per-worker no-op events
            feed = tuple(e for e in deployment.collector.journal
                         if e.kind is UpdateKind.ANNOUNCE)

        # the LPT assignment and load table: the supervisor's per-shard
        # timeouts scale with estimated load, and a quarantined shard's
        # coverage gaps are derived from the scanners assigned to it
        assign = sharding.weighted_assignment(
            population, num_shards, config.duration, len(feed))
        loads = sharding.shard_loads(population, assign, num_shards,
                                     config.duration, len(feed))
        timeouts = sharding.derive_timeouts(loads, config.shard_timeout)

        manifest = None
        completed: dict[int, dict] = {}
        on_complete = None
        if checkpoint_dir is not None:
            ckpt_root = Path(checkpoint_dir)
            spill_root = ckpt_root / "shards"
            if not resume:
                # a fresh run never trusts leftover sharded state in
                # its directory: only resume_experiment continues a
                # previous run
                shutil.rmtree(spill_root, ignore_errors=True)
                (ckpt_root / sharding.MANIFEST_NAME).unlink(
                    missing_ok=True)
            spill_root.mkdir(parents=True, exist_ok=True)
            ckpt.write_state(ckpt_root / sharding.SETUP_NAME, {
                "format_version": ckpt.FORMAT_VERSION,
                "config": config, "plan": plan,
                "num_shards": num_shards})
            manifest = sharding.ShardManifest.open(ckpt_root, num_shards)
            if resume:
                completed = manifest.restorable(spill_root)
                _log.info("resuming sharded run: %d/%d shards restored "
                          "from manifest", len(completed), num_shards)
                # wipe the crashed run's remnants for every shard that
                # re-executes — partial spills, worker result/stderr
                # files, and telemetry spools the tailer would otherwise
                # re-fold from offset zero
                spool_root = spill_root / "obs"
                for shard in range(num_shards):
                    if shard in completed:
                        continue
                    shutil.rmtree(spill_root / f"shard{shard:03d}",
                                  ignore_errors=True)
                    for stale in (
                            spill_root / f"shard{shard:03d}.result.json",
                            spill_root / f"shard{shard:03d}.stderr",
                            Path(obsevents.spool_path(spool_root, shard)),
                            Path(obsevents.trace_spool_path(spool_root,
                                                            shard))):
                        try:
                            stale.unlink()
                        except FileNotFoundError:
                            pass

            def on_complete(shard: int, result: dict,
                            _manifest=manifest) -> None:
                path = _manifest.record(shard, result)
                if after_checkpoint is not None:
                    after_checkpoint(path)

            spill_ctx = nullcontext(str(spill_root))
        else:
            spill_ctx = tempfile.TemporaryDirectory(prefix="repro-shards-")

        event_log = obsevents.current()
        with spill_ctx as spill:
            # worker telemetry spools live beside the spill chunks; the
            # tailer streams them into the unified event log + live
            # registry while workers run
            spool = None
            tailer = None
            if recorder is not None and event_log is not None:
                spool = Path(spill) / "obs"
                spool.mkdir(exist_ok=True)
                tailer = sharding.SpoolTailer(
                    spool, num_shards, event_log=event_log,
                    registry=recorder.metrics)
                tailer.start()
            try:
                with _stage(tracer, "shard_simulate", stage_seconds,
                            shards=num_shards):
                    shard_results = sharding.run_shards(
                        config, plan, num_shards, spill,
                        feed=feed,
                        record_obs=recorder is not None,
                        obs_spool=spool,
                        run_id=(event_log.run_id
                                if event_log is not None else run_id),
                        heartbeat_interval=(recorder.heartbeat_interval
                                            if recorder is not None
                                            else None),
                        timeouts=timeouts, tailer=tailer,
                        completed=completed, on_complete=on_complete)
            finally:
                if tailer is not None:
                    tailer.stop()
            quarantined = tuple(
                shard for shard, res in enumerate(shard_results)
                if res is None)
            live_results = [r for r in shard_results if r is not None]
            _fold_shard_obs(
                recorder, live_results,
                skip_counter_shards=(tailer.folded_shards
                                     if tailer is not None else ()))
            if recorder is not None and spool is not None:
                sharding.merge_shard_traces(recorder, spool, num_shards)
            context.packets_emitted = sum(
                r["packets_emitted"] for r in live_results)
            context.packets_unrouted = sum(
                r["packets_unrouted"] for r in live_results)

            with _stage(tracer, "package_corpus", stage_seconds,
                        shards=num_shards):
                # window-at-a-time merge over the lazily opened spill
                # manifests: every window is fully materialized before
                # the spill directory is cleaned up, but the coordinator
                # never holds the concatenated corpus AND a lexsorted
                # copy of it at once
                tables = merge_chunked_shards(
                    sharding.open_shard_segments(live_results))
                # coverage gaps: blackout windows, plus — for every
                # quarantined shard — the activity envelope of the
                # scanners whose traffic is now missing (all telescopes)
                gap_windows = {
                    name: list(telescope.capture.blackout_windows)
                    for name, telescope in deployment.telescopes.items()}
                for shard in quarantined:
                    windows = sharding.quarantine_windows(
                        population, assign, shard, config.duration)
                    for name in gap_windows:
                        gap_windows[name].extend(windows)
                corpus = PacketCorpus(
                    config=config,
                    packets_by_telescope=None,
                    tables_by_telescope=tables,
                    schedule=deployment.cycles(),
                    registry=registry,
                    resolver=deployment.resolver,
                    t1_prefix=T1_PREFIX,
                    t2_prefix=T2_PREFIX,
                    t3_prefix=T3_PREFIX,
                    t4_prefix=T4_PREFIX,
                    attractor_addr=deployment.productive.attractor_addr,
                    coverage_gaps={
                        name: sharding.merge_windows(windows)
                        for name, windows in gap_windows.items()
                        if windows})

    return ExperimentResult(
        corpus=corpus, deployment=deployment, population=population,
        context=context, wall_seconds=_time.monotonic() - started,
        stage_seconds=stage_seconds, stage_cpu_seconds=stage_cpu,
        shard_stats=[{k: v for k, v in res.items() if k != "metrics"}
                     if res is not None else
                     {"shard": shard, "quarantined": True}
                     for shard, res in enumerate(shard_results)],
        quarantined_shards=quarantined)


def _fold_shard_obs(recorder, shard_results,
                    skip_counter_shards=()) -> None:
    """Surface worker metrics and timings in the coordinator registry.

    Every folded series gains a ``shard=<i>`` label, so worker counters
    stay attributable and never collide with the coordinator's own.
    ``skip_counter_shards`` names shards whose counters the live
    :class:`~repro.experiment.sharding.SpoolTailer` already streamed in
    (workers emit a final ``metrics.delta`` before exiting, so the live
    folds sum exactly to the snapshot) — folding the snapshot again
    would double-count them; gauges and histograms are not streamed and
    always fold here.
    """
    if recorder is None:
        return
    skip = set(skip_counter_shards)
    for res in shard_results:
        snapshot = res["metrics"]
        if res["shard"] in skip:
            snapshot = {k: v for k, v in snapshot.items()
                        if k != "counters"}
        recorder.metrics.merge_snapshot(snapshot, shard=res["shard"])
        for stage, seconds in res["stage_seconds"].items():
            recorder.metrics.gauge("shard.stage_seconds", stage=stage,
                                   shard=res["shard"]).set(seconds)


def resume_experiment(checkpoint_dir: str | Path,
                      after_checkpoint=None,
                      run_id: str | None = None,
                      ledger_dir: str | Path | None = None) \
        -> ExperimentResult:
    """Continue a killed checkpointed campaign at shard granularity.

    Everything a worker needs is a pure function of ``(config, plan,
    num_shards)``, read back from the setup snapshot (see
    :data:`repro.experiment.sharding.SETUP_NAME`), so the coordinator
    re-derives the deployment replica and re-runs the deterministic
    recording pass instead of unpickling a live graph. Shards recorded
    complete in ``shards.json`` are restored from their on-disk spill
    segments and only the missing shards execute; the resulting corpus
    is byte-identical to the one an uninterrupted run would have
    produced.
    """
    started = _time.monotonic()
    from repro.experiment import sharding
    state = ckpt.read_checkpoint(
        Path(checkpoint_dir) / sharding.SETUP_NAME)
    config = state["config"]
    plan = state["plan"]
    num_shards = state["num_shards"]
    recorder = obs.current()
    tracer = recorder.tracer if recorder is not None else obs.Tracer()
    obs.add("checkpoint.resumes_total")
    obs.event("run.resume", checkpoint=sharding.SETUP_NAME,
              shards=num_shards, horizon=config.duration)
    _log.info("resuming sharded run from %s (%d shards, horizon %.0f)",
              checkpoint_dir, num_shards, config.duration)
    result = _run_sharded(config, None, plan, num_shards,
                          tracer, recorder, started, run_id=run_id,
                          checkpoint_dir=checkpoint_dir,
                          after_checkpoint=after_checkpoint,
                          resume=True)
    _record_run(result, config, run_id, ledger_dir,
                fault_plan=plan, shards=num_shards)
    return result


def _register_rdns(deployment: Deployment, scanner: Scanner) -> None:
    """Publish the scanner's PTR record if it advertises one."""
    if not scanner.rdns_name:
        return
    if scanner.source_model is not SourceModel.FIXED:
        return  # rotating sources have no stable reverse entry
    deployment.rdns_zone.add_ptr(scanner.source_address(), scanner.rdns_name)
