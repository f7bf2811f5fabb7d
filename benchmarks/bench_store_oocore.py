#!/usr/bin/env python
"""Out-of-core store benchmark: v1 eager npz vs v2 chunked mmap.

Measures what the ISSUE 7 acceptance criteria name, each in a *fresh
subprocess* so peak RSS (``VmHWM`` from ``/proc/self/status``, falling
back to ``resource.getrusage``; ``ru_maxrss`` alone is useless here —
Linux carries it across ``fork`` and never resets it on ``exec``, so a
child spawned from the fat bench parent would report the *parent's*
peak) and the allocator state are attributable to one measurement:

- ``load`` — ``load_corpus`` alone: eager decompress-everything for v1,
  manifest-only for v2;
- ``slice`` — load plus an INITIAL-phase slice of every telescope (the
  pushdown case: v2 opens only the chunks overlapping the baseline
  weeks, and reports the mapped-bytes fraction);
- ``full`` — load plus materializing and summing every telescope's time
  column (the upper bound: v2 maps everything).

The v2 ``slice`` row also reports ``bytes_opened / bytes_total`` from
the chunk accounting — the <30%-of-corpus-bytes criterion — and the
``load``/``slice`` RSS ratio v1:v2 is the ≥2× criterion.

``cold_table2`` is a wall-clock gate: a cold Table 2 (fresh load plus
fresh analysis) over the v2 store must take at most
``1.05 × v1 + 0.05s``. Both formats run once to warm the page cache and
allocator, then alternate ``repeats`` times, and the gate compares the
minimum of each, so drift in machine load hits both sides alike.
Standalone runs exit 1 when the gate fails. The deterministic side of
the same claim — v2 opens each chunk once and maps exactly the
manifest's bytes — is asserted in tier-1 (``tests/test_store_v2.py``).

Standalone::

    PYTHONPATH=src python benchmarks/bench_store_oocore.py --scale 1.0
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_CHILD_MODES = ("load", "slice", "full")

#: cold v2 table2 may take at most ``RATIO x v1 + SLACK`` seconds.
COLD_TABLE2_RATIO = 1.05
COLD_TABLE2_SLACK = 0.05


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB.

    Prefers ``VmHWM`` (per-address-space, reset by exec); ``ru_maxrss``
    is the fallback for non-Linux and is only trustworthy when the
    process was not forked from a larger one.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _child(mode: str, path: str) -> None:
    """One measurement, reported as JSON on stdout."""
    from repro.core.columnar import ChunkedPacketTable
    from repro.experiment.phases import Phase
    from repro.experiment.store import load_corpus

    if mode == "baseline":
        # interpreter + numpy + repro imports, no corpus: the RSS floor
        # every other measurement is reported relative to
        print(json.dumps({"peak_rss_kb": _peak_rss_kb()}))
        return

    started = time.perf_counter()
    corpus = load_corpus(path)
    load_seconds = time.perf_counter() - started

    def touch(table) -> float:
        # sum a column to fault the pages in — mmap regions only count
        # toward RSS once actually read
        return float(table.time.sum()) if len(table) else 0.0

    query_seconds = 0.0
    if mode == "slice":
        started = time.perf_counter()
        for telescope in corpus.telescopes():
            touch(corpus.phase_table(telescope, Phase.INITIAL))
        query_seconds = time.perf_counter() - started
    elif mode == "full":
        started = time.perf_counter()
        for telescope in corpus.telescopes():
            table = corpus.table(telescope)
            if isinstance(table, ChunkedPacketTable):
                table = table.materialize()
            touch(table)
        query_seconds = time.perf_counter() - started

    bytes_opened = bytes_total = None
    if any(isinstance(corpus.tables_by_telescope.get(t), ChunkedPacketTable)
           for t in corpus.telescopes()):
        bytes_opened = sum(corpus.table(t).bytes_opened()
                           for t in corpus.telescopes())
        bytes_total = sum(corpus.table(t).bytes_total
                          for t in corpus.telescopes())

    print(json.dumps({
        "load_seconds": load_seconds,
        "query_seconds": query_seconds,
        "peak_rss_kb": _peak_rss_kb(),
        "bytes_opened": bytes_opened,
        "bytes_total": bytes_total,
        "total_packets": corpus.total_packets(),
    }))


def _measure(mode: str, path: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--child", mode, str(path)],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cold_table2_gate(root: Path, repeats: int = 3) -> dict:
    """Interleaved min-of-``repeats`` cold Table 2 over v1 vs v2."""
    from repro.analysis.context import CorpusAnalysis
    from repro.analysis.tables import table2
    from repro.experiment.store import load_corpus

    def cold(fmt: str) -> float:
        seconds, _ = _timed(
            lambda: table2(CorpusAnalysis(load_corpus(root / fmt))))
        return seconds

    formats = ("v1", "v2")
    for fmt in formats:
        cold(fmt)  # warm the page cache and allocator
    best = {fmt: float("inf") for fmt in formats}
    for _ in range(repeats):
        for fmt in formats:
            best[fmt] = min(best[fmt], cold(fmt))
    bound = COLD_TABLE2_RATIO * best["v1"] + COLD_TABLE2_SLACK
    return {"v1": round(best["v1"], 4), "v2": round(best["v2"], 4),
            "bound": round(bound, 4), "repeats": repeats,
            "within_bound": best["v2"] <= bound}


def bench_store_oocore(corpus, workdir: str | Path | None = None,
                       chunk_rows: int | None = None,
                       repeats: int = 3) -> dict:
    """Save ``corpus`` as v1 and v2 and run the subprocess matrix.

    ``chunk_rows=None`` picks ~32 chunks for the largest telescope, so
    the pushdown fraction reflects chunking rather than one
    chunk-covers-everything degenerate layout at small bench scales.
    ``repeats`` sets the interleaved runs of the cold-table2 gate.
    """
    from repro.experiment.store import save_corpus

    if chunk_rows is None:
        largest = max(len(corpus.table(t)) for t in corpus.telescopes())
        chunk_rows = max(1, -(-largest // 32))

    own_tmp = tempfile.TemporaryDirectory(prefix="repro-oocore-") \
        if workdir is None else None
    root = Path(own_tmp.name if own_tmp else workdir)
    try:
        save_v1_seconds, _ = _timed(
            lambda: save_corpus(corpus, root / "v1", format_version=1))
        save_v2_seconds, _ = _timed(
            lambda: save_corpus(corpus, root / "v2", format_version=2,
                                chunk_rows=chunk_rows))

        baseline_kb = _measure("baseline", root / "v1")["peak_rss_kb"]
        report: dict = {
            "chunk_rows": chunk_rows,
            "baseline_rss_kb": baseline_kb,
            "save_seconds": {"v1": round(save_v1_seconds, 4),
                             "v2": round(save_v2_seconds, 4)},
            "store_bytes": {
                "v1": _tree_bytes(root / "v1"),
                "v2": _tree_bytes(root / "v2")},
        }
        for fmt in ("v1", "v2"):
            report[fmt] = {}
            for mode in _CHILD_MODES:
                row = _measure(mode, root / fmt)
                # store working set above the interpreter+imports floor —
                # the raw ru_maxrss of a tiny corpus is all interpreter
                row["store_rss_kb"] = max(
                    1, row["peak_rss_kb"] - baseline_kb)
                report[fmt][mode] = row

        report["cold_table2"] = cold_table2_gate(root, repeats)
        sliced = report["v2"]["slice"]
        report["criteria"] = {
            # like-for-like: store working set of the phase-sliced query
            "peak_rss_ratio_slice": round(
                report["v1"]["slice"]["store_rss_kb"]
                / report["v2"]["slice"]["store_rss_kb"], 2),
            "peak_rss_ratio_load": round(
                report["v1"]["load"]["store_rss_kb"]
                / report["v2"]["load"]["store_rss_kb"], 2),
            "sliced_bytes_fraction": round(
                sliced["bytes_opened"] / sliced["bytes_total"], 4)
                if sliced["bytes_total"] else None,
            "cold_load_speedup": round(
                report["v1"]["load"]["load_seconds"]
                / report["v2"]["load"]["load_seconds"], 2),
            "cold_table2_within_bound":
                report["cold_table2"]["within_bound"],
        }
        return report
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*")
               if p.is_file())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", nargs=2, metavar=("MODE", "PATH"),
                        default=None, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--chunk-rows", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    if args.child is not None:
        _child(args.child[0], args.child[1])
        return

    from repro.experiment import ExperimentConfig, run_experiment
    print(f"building bench corpus (seed={args.seed} "
          f"scale={args.scale}) ...")
    result = run_experiment(ExperimentConfig(
        seed=args.seed, scale=args.scale, batch_emit=True))
    report = bench_store_oocore(result.corpus, chunk_rows=args.chunk_rows,
                                repeats=args.repeats)
    print(json.dumps(report, indent=1))
    if not report["cold_table2"]["within_bound"]:
        raise SystemExit("cold v2 table2 exceeded 1.05 x v1 + 0.05s")


if __name__ == "__main__":
    main()
