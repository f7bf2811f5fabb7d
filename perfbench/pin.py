"""Choose and pin the benchmark's inputs and references (``pinned.json``).

``run.py --seed n`` runs program seed ``pools[config][n % len(pool)]``
in every pass of the run. A pool holds scanned seeds of about equal
corpus size and work, so that the seed changes which scanners exist
and what they send but hardly how much work a pass does. Each pooled
seed carries the references its outputs are checked against::

    python3 perfbench/pin.py

Scanning measures every candidate's corpus rows and the count that
sets its work. A build's time follows its executed simulator events,
so the build config (``run.CONFIGS["build"]``) counts those. A
reanalysis's time follows no count: table7 clusters payload samples
with DBSCAN, quadratic in their number, and took 0.35 s on one corpus
and 1.24 s on another of the same size. So the reanalysis config
(``run.CONFIGS["reanalyze"]``) is timed with the benchmark's own code
(``work.py``): the sum of each step's fastest of ``SCAN_REPS`` rounds.
Among the candidates whose rows lie within ``ROWS_TOLERANCE`` of the
scan's median, the pool is the ``POOL`` whose work spans the narrowest
range. Pinning then runs ``work.py`` passes for each chosen seed: the
unsharded and the 2-shard build, whose corpus digests must agree
(DESIGN §8), and for reanalysis seeds the fixture plus a reanalysis
pass of two repetitions, whose artifact hashes must agree and become
the reference. Regenerate only for an intended behaviour change, and
say so in CHANGES.md; the same holds for a change to ``SCAN``,
``SCAN_REPS``, ``POOL`` or ``ROWS_TOLERANCE``.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TIMEOUT_S = 600.0
#: candidate program seeds
SCAN = range(24)
#: timed repetitions per reanalysis candidate, one per round
SCAN_REPS = 3
#: seeds pinned per config
POOL = 4
#: largest relative deviation of a pooled seed's rows from the median
ROWS_TOLERANCE = 0.05


def scan(config: str, seeds: range, analysis: bool,
         workdir: str) -> dict[int, dict]:
    """Rows and work (see the module docstring) of each candidate seed:
    simulator events of its build, or seconds of its reanalysis if
    ``analysis``.

    Timed candidates take turns, one repetition each per round, so that
    a slow spell of the box falls on one round of every candidate rather
    than on every round of a few.
    """
    import work
    from repro.experiment import ExperimentConfig, run_experiment

    def ignore(out: dict) -> None:
        pass

    counts: dict[int, dict] = {}
    if not analysis:
        for seed in seeds:
            result = run_experiment(getattr(ExperimentConfig, config)(seed))
            counts[seed] = {
                "rows": result.corpus.total_packets(),
                "work": result.deployment.simulator.events_executed}
    else:
        stores = {seed: tempfile.mkdtemp(dir=workdir) for seed in seeds}
        reps: dict[int, list] = {seed: [] for seed in seeds}
        for seed in seeds:
            counts[seed] = {"rows": work.fixture(
                {"seed": seed, "config": config,
                 "store_dir": stores[seed]}, ignore)["rows"]}
        for _ in range(SCAN_REPS):
            for seed in seeds:
                reps[seed] += work.reanalyze(
                    {"seed": seed, "config": config, "workdir": workdir,
                     "store_dir": stores[seed]}, ignore)["reps"]
        for seed in seeds:
            counts[seed]["work"] = run.fastest_total(
                rep["wall_s"] for rep in reps[seed])
    for seed, count in counts.items():
        print(f"  {config} seed {seed}: {count}", file=sys.stderr)
    return counts


def choose(counts: dict[int, dict], size: int) -> list[int]:
    """The ``size`` seeds whose work spans the narrowest range, among
    those within ``ROWS_TOLERANCE`` of the median row count."""
    median_rows = statistics.median(c["rows"] for c in counts.values())
    near = sorted((c["work"], seed) for seed, c in counts.items()
                  if abs(c["rows"] / median_rows - 1.0) <= ROWS_TOLERANCE)
    if len(near) < size:
        raise SystemExit(f"only {len(near)} seeds within the row tolerance")
    windows = [near[i:i + size] for i in range(len(near) - size + 1)]
    best = min(windows, key=lambda w: (w[-1][0] / w[0][0], w[0][1]))
    return sorted(seed for _, seed in best)


def pin_build(config: str, seed: int, workdir: str) -> dict:
    records = [run.run_pass({"mode": "build", "seed": seed,
                             "config": config,
                             "shards": shards, "traced": False,
                             "workdir": workdir,
                             "store_dir": tempfile.mkdtemp(dir=workdir)},
                            TIMEOUT_S)
               for shards in (0, run.SHARDS)]
    for record in records:
        if not record.get("ok") or record.get("retries"):
            raise SystemExit(f"{config} seed {seed}: {record.get('error')}")
    if records[0]["digest"] != records[1]["digest"]:
        raise SystemExit(f"{config} seed {seed}: 2-shard corpus differs "
                         "from the unsharded one")
    return {"digest": records[0]["digest"], "rows": records[0]["rows"],
            "events": records[0]["coordinator_events"]}


def pin_analysis(config: str, seed: int, workdir: str) -> dict:
    store = tempfile.mkdtemp(dir=workdir)
    fixture = run.run_pass({"mode": "fixture", "seed": seed,
                            "config": config,
                            "store_dir": store, "workdir": workdir},
                           TIMEOUT_S)
    # two repetitions in one process must render the same artifacts
    analysis = run.run_pass({"mode": "reanalyze", "store_dir": store,
                             "reps": 2, "traced": False,
                             "workdir": workdir}, TIMEOUT_S)
    reps = analysis.get("reps") or [{}]
    if not (fixture.get("ok") and analysis.get("ok")) \
            or any(rep["errors"] or rep["digest"] != fixture["digest"]
                   for rep in reps):
        raise SystemExit(f"{config} seed {seed}: "
                         f"{fixture.get('error') or analysis.get('error')}"
                         f" {[rep.get('errors') for rep in reps]}")
    hashes = reps[0]["hashes"]
    if any(rep["hashes"] != hashes for rep in reps):
        raise SystemExit(f"{config} seed {seed}: artifacts differ "
                         "between repetitions")
    missing = set(run.ARTIFACTS) - set(hashes)
    if missing:
        raise SystemExit(f"{config} seed {seed}: no {sorted(missing)}")
    return {"digest": fixture["digest"], "rows": fixture["rows"],
            "artifacts": hashes}


def main() -> int:
    pinned: dict = {"pools": {}}
    out_dir = run.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for config, pin in ((run.CONFIGS["build"], pin_build),
                            (run.CONFIGS["reanalyze"], pin_analysis)):
            counts = scan(config, SCAN, pin is pin_analysis, workdir)
            pool = choose(counts, POOL)
            pinned["pools"][config] = pool
            pinned[config] = {}
            for seed in pool:
                pinned[config][str(seed)] = pin(config, seed, workdir)
                print(f"  pinned {config} seed {seed}", file=sys.stderr)
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
