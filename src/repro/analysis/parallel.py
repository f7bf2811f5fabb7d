"""Parallel analysis fan-out.

Table and figure generators are independent given a warm
:class:`~repro.analysis.context.CorpusAnalysis`, and their heavy lifting
is NumPy column work that releases the GIL — so a small thread pool
overlaps them effectively. Each task runs inside an ``analysis.fanout``
span carrying the task name; the tracer keeps per-thread span stacks, so
attribution survives the pool (spans record their thread id).

A crashing task is retried once after a short backoff (transient
failures — a figure racing a cache fill, an OS hiccup — usually clear on
the second attempt), and if the retry also fails the task runs once more
serially outside the pool before its exception propagates. Each recovery
step bumps an ``analysis.fanout_*`` counter so flakes are visible.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Mapping

from repro import obs
from repro.errors import AnalysisError

#: seconds slept before the in-pool retry of a crashed task.
RETRY_BACKOFF = 0.05


def _run_once(name: str, fn: Callable[[], object], jobs: int,
              attempt: int) -> tuple[float, object]:
    started = time.perf_counter()
    with obs.span("analysis.fanout", task=name, jobs=jobs,
                  attempt=attempt):
        result = fn()
    return time.perf_counter() - started, result


def _run_with_retry(name: str, fn: Callable[[], object], jobs: int) \
        -> tuple[float, object]:
    """One task with its bounded in-pool retry."""
    try:
        return _run_once(name, fn, jobs, attempt=1)
    except Exception:
        obs.add("analysis.fanout_retries_total", task=name)
        time.sleep(RETRY_BACKOFF)
        return _run_once(name, fn, jobs, attempt=2)


def fan_out(tasks: Mapping[str, Callable[[], object]],
            jobs: int = 1) -> dict[str, tuple[float, object]]:
    """Run named zero-arg tasks, optionally across ``jobs`` workers.

    Returns ``{name: (seconds, result)}`` in the tasks' insertion order
    regardless of completion order, so callers render deterministically.
    A task that keeps failing after one bounded retry and a final serial
    fallback propagates its last exception.
    """
    if jobs < 1:
        raise AnalysisError(f"jobs must be >= 1, got {jobs}")

    if jobs == 1 or len(tasks) <= 1:
        return {name: _run_with_retry(name, fn, jobs)
                for name, fn in tasks.items()}

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {name: pool.submit(_run_with_retry, name, fn, jobs)
                   for name, fn in tasks.items()}
        results: dict[str, tuple[float, object]] = {}
        failed: dict[str, Callable[[], object]] = {}
        for name, future in futures.items():
            try:
                results[name] = future.result()
            except Exception:
                failed[name] = tasks[name]
    for name, fn in failed.items():
        # last resort: run the crashed task serially, outside the pool,
        # so one bad worker interaction cannot sink the whole fan-out
        obs.add("analysis.fanout_serial_fallbacks_total", task=name)
        results[name] = _run_once(name, fn, jobs, attempt=3)
    # re-impose insertion order after fallbacks appended at the end
    return {name: results[name] for name in tasks}
