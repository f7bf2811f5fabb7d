"""Tests for the v2 out-of-core chunked columnar store (DESIGN §9).

Differential coverage: a v2 corpus must load back equal to the v1 one,
``corpus_digest`` must be invariant across formats, chunk sizes, and
shard counts, and chunk-granularity quarantine must leave sibling
chunks readable.
"""

import json
import math
import warnings

import numpy as np
import pytest

from repro import obs
from repro.analysis.context import CorpusAnalysis
from repro.analysis.degrade import DegradationWarning
from repro.analysis.tables import table2
from repro.core.columnar import ChunkedPacketTable
from repro.errors import StoreError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.phases import Phase
from repro.experiment.store import (DEFAULT_CHUNK_ROWS, corpus_digest,
                                    load_corpus, migrate_store, save_corpus)

COLUMNS = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo", "protocol",
           "dst_port", "src_asn", "scanner_id")


def _rows_for_chunks(corpus, num_chunks: int) -> int:
    """A chunk_rows value giving every non-empty telescope about
    ``num_chunks`` chunks (at least one)."""
    largest = max(len(corpus.table(t)) for t in corpus.telescopes())
    return max(1, math.ceil(largest / num_chunks))


@pytest.fixture(scope="module")
def stores(tmp_path_factory, tiny_corpus):
    """One v1 and one v2 save of the tiny corpus."""
    root = tmp_path_factory.mktemp("stores")
    save_corpus(tiny_corpus, root / "v1", format_version=1)
    save_corpus(tiny_corpus, root / "v2",
                chunk_rows=_rows_for_chunks(tiny_corpus, 8))
    return root


class TestDifferential:
    def test_v2_loads_equal_to_v1(self, stores):
        v1 = load_corpus(stores / "v1")
        v2 = load_corpus(stores / "v2")
        for telescope in v1.telescopes():
            a = v1.table(telescope).time_sorted()
            b = v2.table(telescope).materialize()
            assert len(a) == len(b)
            for column in COLUMNS:
                assert np.array_equal(getattr(a, column),
                                      getattr(b, column)), \
                    (telescope, column)
            off_a, blob_a = a.payload_blob()
            off_b, blob_b = b.payload_blob()
            assert np.array_equal(off_a, off_b)
            assert np.array_equal(blob_a, blob_b)

    def test_digest_invariant_across_formats(self, stores, tiny_corpus):
        expected = corpus_digest(tiny_corpus)
        assert corpus_digest(load_corpus(stores / "v1")) == expected
        assert corpus_digest(load_corpus(stores / "v2")) == expected

    @pytest.mark.parametrize("num_chunks", [1, 4, 16])
    def test_digest_invariant_across_chunk_sizes(self, tmp_path,
                                                 tiny_corpus, num_chunks):
        path = tmp_path / f"chunks{num_chunks}"
        save_corpus(tiny_corpus, path,
                    chunk_rows=_rows_for_chunks(tiny_corpus, num_chunks))
        loaded = load_corpus(path)
        meta = json.loads((path / "meta.json").read_text())
        largest = max(len(meta["store"]["chunks"][t])
                      for t in tiny_corpus.telescopes())
        assert largest == num_chunks
        assert corpus_digest(loaded) == corpus_digest(tiny_corpus)

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_digest_invariant_across_shard_counts(self, tmp_path,
                                                  tiny_corpus, num_shards):
        result = run_experiment(ExperimentConfig.tiny(), shards=num_shards)
        assert corpus_digest(result.corpus) == corpus_digest(tiny_corpus)
        # and a sharded corpus saves/loads through the v2 store unchanged
        path = tmp_path / f"shards{num_shards}"
        save_corpus(result.corpus, path,
                    chunk_rows=_rows_for_chunks(result.corpus, 4))
        assert corpus_digest(load_corpus(path)) == corpus_digest(tiny_corpus)


class TestMigration:
    def test_v1_to_v2_round_trip(self, stores, tiny_corpus, tmp_path):
        dst = tmp_path / "migrated"
        migrate_store(stores / "v1", dst, chunk_rows=512)
        migrated = load_corpus(dst)
        assert json.loads((dst / "meta.json").read_text())[
            "format_version"] == 2
        assert corpus_digest(migrated) == corpus_digest(tiny_corpus)
        assert migrated.schedule == tiny_corpus.schedule

    def test_migrate_cli(self, stores, tiny_corpus, tmp_path):
        from repro.cli import main
        dst = tmp_path / "cli-migrated"
        assert main(["migrate-store", str(stores / "v1"), str(dst),
                     "--chunk-rows", "256"]) == 0
        assert corpus_digest(load_corpus(dst)) == corpus_digest(tiny_corpus)

    def test_migrate_refuses_same_directory(self, stores):
        with pytest.raises(StoreError):
            migrate_store(stores / "v1", stores / "v1")

    def test_migrate_strict_on_corrupt_source(self, tmp_path, tiny_corpus):
        src = tmp_path / "src"
        save_corpus(tiny_corpus, src, format_version=1)
        segment = src / "packets_T2.npz"
        blob = bytearray(segment.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            migrate_store(src, tmp_path / "dst")


class TestPushdown:
    def test_phase_slice_opens_subset_of_chunks(self, stores):
        corpus = load_corpus(stores / "v2")
        table = corpus.table("T1")
        assert isinstance(table, ChunkedPacketTable)
        assert table.bytes_opened() == 0
        sliced = corpus.phase_table("T1", Phase.INITIAL)
        assert len(sliced)
        assert 0 < table.bytes_opened() < table.bytes_total
        # the slice equals the materialized table's slice
        start, end = (0.0, corpus.config.baseline_weeks * 7 * 86400.0)
        full = corpus.table("T2").materialize()  # untouched telescope
        assert np.array_equal(
            sliced.time, table.materialize().slice_time(start, end).time)
        assert len(full) == len(corpus.table("T2"))

    def test_phase_packets_pushdown_matches_filter(self, stores):
        corpus = load_corpus(stores / "v2")
        packets = corpus.phase_packets("T3", Phase.INITIAL)
        eager = load_corpus(stores / "v1")
        start, end = (0.0, corpus.config.baseline_weeks * 7 * 86400.0)
        expected = [p for p in eager.packets("T3")
                    if start <= p.time < end]
        assert [(p.time, p.src, p.dst) for p in packets] \
            == [(p.time, p.src, p.dst) for p in expected]

    def test_len_needs_no_io(self, stores, tiny_corpus):
        corpus = load_corpus(stores / "v2")
        for telescope in corpus.telescopes():
            table = corpus.table(telescope)
            assert len(table) == len(tiny_corpus.table(telescope))
            assert table.bytes_opened() == 0


class TestChunkQuarantine:
    @pytest.fixture()
    def saved(self, tmp_path, tiny_corpus):
        path = tmp_path / "run"
        save_corpus(tiny_corpus, path,
                    chunk_rows=_rows_for_chunks(tiny_corpus, 8))
        return path

    def _corrupt_one_chunk(self, path, telescope="T1", index=1):
        manifest = json.loads((path / "meta.json").read_text())[
            "store"]["chunks"][telescope]
        entry = manifest[index]
        victim = path / telescope / f"{entry['name']}.time.npy"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        return entry

    def test_strict_raises_on_first_touch(self, saved):
        self._corrupt_one_chunk(saved)
        corpus = load_corpus(saved)  # lazy: no error yet
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T1").materialize()
        assert exc_info.value.check == "sha256"

    def test_eager_verify_raises_at_load(self, saved):
        self._corrupt_one_chunk(saved)
        with pytest.raises(StoreError):
            load_corpus(saved, verify="eager")

    def test_lenient_quarantines_only_the_bad_chunk(self, saved,
                                                    tiny_corpus):
        entry = self._corrupt_one_chunk(saved, telescope="T1", index=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(saved, strict=False)
            table = corpus.table("T1").materialize()
        warned = [w for w in caught
                  if issubclass(w.category, DegradationWarning)]
        assert warned and warned[0].message.telescope == "T1"
        # exactly the bad chunk's rows are gone; siblings stay readable
        assert len(table) == len(tiny_corpus.table("T1")) - entry["rows"]
        # its time window is now a coverage gap
        gaps = corpus.coverage_gaps["T1"]
        assert len(gaps) == 1
        gap_start, gap_end = gaps[0]
        assert gap_start <= entry["t_min"] <= entry["t_max"] <= gap_end
        assert 0.0 < corpus.covered_fraction("T1") < 1.0
        # untouched telescopes stay pristine
        assert "T2" not in corpus.coverage_gaps
        assert len(corpus.table("T2")) == len(tiny_corpus.table("T2"))

    def test_all_chunks_quarantined_covers_whole_run(self, saved):
        manifest = json.loads((saved / "meta.json").read_text())[
            "store"]["chunks"]["T4"]
        for index in range(len(manifest)):
            self._corrupt_one_chunk(saved, telescope="T4", index=index)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            corpus = load_corpus(saved, strict=False)
            corpus.table("T4").materialize()
        assert len(corpus.table("T4")) == 0
        assert corpus.covered_fraction("T4") == 0.0

    def test_missing_chunk_file(self, saved):
        manifest = json.loads((saved / "meta.json").read_text())[
            "store"]["chunks"]["T2"]
        (saved / "T2" / f"{manifest[0]['name']}.port.npy").unlink()
        corpus = load_corpus(saved)
        with pytest.raises(StoreError) as exc_info:
            corpus.table("T2").materialize()
        assert exc_info.value.check == "exists"


class TestObservability:
    def test_chunk_counters_and_bytes_gauge(self, stores):
        with obs.FlightRecorder() as recorder:
            corpus = load_corpus(stores / "v2")
            corpus.phase_table("T1", Phase.INITIAL)
        snapshot = recorder.metrics.snapshot()
        opened = [key for key in snapshot["counters"]
                  if key.startswith("store.chunks_opened_total")]
        verified = [key for key in snapshot["counters"]
                    if key.startswith("store.chunks_verified_total")]
        mapped = [key for key in snapshot["gauges"]
                  if key.startswith("store.bytes_mapped")]
        assert opened and verified and mapped


@pytest.mark.overhead
class TestColdAnalysisOverhead:
    """Cold v2 analysis does the v1 work plus one verified read of the
    store — no more. Asserted on deterministic work counters; the
    wall-clock bound (v2 within ``1.05 x v1 + 0.05s``) is an
    interleaved min-of-N gate in ``benchmarks/bench_store_oocore.py``,
    where it can be measured robustly."""

    def test_v2_cold_table2_work_matches_manifest(self, stores):
        results = {}
        snapshots = {}
        for name in ("v1", "v2"):
            with obs.FlightRecorder() as recorder:
                results[name] = table2(
                    CorpusAnalysis(load_corpus(stores / name)))
            snapshots[name] = recorder.metrics.snapshot()
        assert results["v2"].packets == results["v1"].packets
        assert results["v2"].sessions == results["v1"].sessions
        assert results["v2"].sources == results["v1"].sources
        # v1 loads eagerly: it has no chunks to open
        assert not any(key.startswith("store.chunks_opened_total")
                       for key in snapshots["v1"]["counters"])

        chunks = json.loads((stores / "v2" / "meta.json").read_text())[
            "store"]["chunks"]
        counters = snapshots["v2"]["counters"]
        gauges = snapshots["v2"]["gauges"]
        for telescope, entries in chunks.items():
            label = f"{{telescope={telescope}}}"
            # every chunk opened and verified exactly once, and the
            # mapped bytes are exactly the manifest's
            assert counters.get(f"store.chunks_opened_total{label}", 0) \
                == len(entries), telescope
            assert counters.get(f"store.chunks_verified_total{label}", 0) \
                == len(entries), telescope
            assert gauges.get(f"store.bytes_mapped{label}", 0) \
                == sum(entry["bytes"] for entry in entries), telescope
