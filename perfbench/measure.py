"""Pure logic of the repository benchmark: statistics, trace self time,
op accounting and output checks.

Nothing here imports ``repro`` or touches the clock, so the unit tests
in ``test_measure.py`` exercise it on hand-made inputs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable


# -- statistics ------------------------------------------------------------


def summarize(values: Iterable[float]) -> dict:
    """Median, quartiles, extremes and sample count of ``values``.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (the
    ``exclusive`` method); with a single sample all three equal it.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("summarize() needs at least one sample")
    if len(data) == 1:
        q1 = median = q3 = data[0]
    else:
        q1, median, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3,
            "min": min(data), "max": max(data), "n": len(data)}


def fastest_total(passes: Iterable[dict[str, float]]) -> float:
    """Sum over steps of each step's fastest time across ``passes``.

    Each pass maps step name -> seconds. A step missing from a pass
    (it was not reached) counts from the passes that have it. CPU
    speed on a shared box swings by tens of percent over seconds; the
    fastest sample of each short step is the one such a swing hit
    least, so the sum is steadier than any one whole pass.
    """
    fastest: dict[str, float] = {}
    for steps in passes:
        for name, seconds in steps.items():
            fastest[name] = min(seconds, fastest.get(name, seconds))
    if not fastest:
        raise ValueError("fastest_total() needs at least one step")
    return sum(fastest.values())


# -- op accounting ---------------------------------------------------------


@dataclass
class OpLedger:
    """Attempted and failed operations of one benchmark run.

    An op is one corpus build+save, one stored-corpus load, one analysis
    artifact or one trace. It fails when it raised, when a shard had to
    be retried, when its output did not match the reference, or when a
    trace lacks an expected span.
    """

    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((name, reason or "failed"))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_output(ledger: OpLedger, name: str, got: str | None,
                 expected: str | None, error: str | None = None) -> None:
    """Record one op whose output is the hash ``got``.

    The op fails when it raised (``error``), produced nothing, has no
    pinned reference (``expected=None``), or its hash differs from it.
    """
    if error:
        ledger.record(name, False, error)
    elif got is None:
        ledger.record(name, False, "no output")
    elif expected is None:
        ledger.record(name, False, "no pinned reference")
    elif got != expected:
        ledger.record(name, False,
                      f"digest {got[:12]} != reference {expected[:12]}")
    else:
        ledger.record(name, True)


# -- trace self time -------------------------------------------------------


def self_times(events: Iterable[dict],
               layer_of: Callable[[str], str | None]) -> dict[str, float]:
    """Seconds of self time per layer from Chrome ``ph: "X"`` events.

    Events nest by time interval within one ``(pid, tid)`` track only,
    so shard-worker spans merged under their own pid never eat into a
    coordinator span that overlaps them in wall time. A span's self time
    is its duration minus the part its direct children cover.
    ``layer_of(name)`` maps a span to its layer; a span mapped to
    ``None`` is transparent: its self time is charged to the nearest
    enclosing span that has a layer (or dropped at a root).
    """
    tracks: dict[tuple, list[dict]] = {}
    for ev in events:
        if ev.get("ph") == "X":
            tracks.setdefault((ev.get("pid"), ev.get("tid")), []).append(ev)

    out: dict[str, float] = {}
    for track in tracks.values():
        # parents first: earlier start, then the longer span
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[dict] = []  # open spans: {"end", "self", "layer"}

        def close(frame: dict) -> None:
            layer = frame["layer"]
            if layer is None:
                # transparent: hand the self time to the enclosing layer
                for outer in reversed(stack):
                    if outer["layer"] is not None:
                        outer["self"] += frame["self"]
                        break
                return
            out[layer] = out.get(layer, 0.0) + frame["self"]

        for ev in track:
            start, dur = float(ev["ts"]), float(ev["dur"])
            end = start + dur
            while stack and stack[-1]["end"] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent["self"] -= min(end, parent["end"]) - start
            stack.append({"end": end, "self": dur,
                          "layer": layer_of(ev["name"])})
        while stack:
            close(stack.pop())
    return {layer: seconds / 1e6 for layer, seconds in out.items()}


def span_durations(events: Iterable[dict], name: str) -> list[float]:
    """Inclusive seconds of every ``ph: "X"`` event called ``name``."""
    return [float(ev["dur"]) / 1e6 for ev in events
            if ev.get("ph") == "X" and ev.get("name") == name]


def counter_total(snapshot: dict, name: str, kind: str = "counters") \
        -> float:
    """Sum of metric ``name`` over all its label sets in a registry
    snapshot (shard workers fold in under a ``shard=<i>`` label)."""
    return sum(value for key, value in snapshot.get(kind, {}).items()
               if key == name or key.startswith(name + "{"))
