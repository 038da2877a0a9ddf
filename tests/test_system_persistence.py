"""Tests for store persistence (save/load round trips)."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import QueryError, StorageError
from repro.faults import AtOperationsSchedule, inject_page_faults
from repro.params import LZAHParams, SystemParams
from repro.system.mithrilog import MithriLogSystem
from repro.system.persistence import load_store, open_store, save_store
from repro.system.wal import JournaledMithriLog


@pytest.fixture(scope="module")
def corpus():
    return generator_for("BGL2").generate(1200)


@pytest.fixture()
def saved(tmp_path, corpus):
    system = MithriLogSystem()
    epochs = [float(ln.split()[1]) for ln in corpus]
    system.ingest(corpus, timestamps=epochs)
    system.index.flush(timestamp=epochs[-1])
    save_store(system, tmp_path / "store")
    return system, tmp_path / "store"


class TestRoundTrip:
    def test_query_results_identical(self, saved, corpus):
        original, path = saved
        loaded = load_store(path)
        for expr in ("KERNEL AND INFO", "FATAL AND NOT APP", "NOT RAS"):
            query = parse_query(expr)
            a = original.query(query)
            b = loaded.query(query)
            assert a.matched_lines == b.matched_lines, expr
            assert a.stats.candidate_pages == b.stats.candidate_pages, expr

    def test_metadata_restored(self, saved):
        original, path = saved
        loaded = load_store(path)
        assert loaded.original_bytes == original.original_bytes
        assert loaded.total_lines == original.total_lines
        assert loaded.index.total_data_pages == original.index.total_data_pages
        assert loaded.accelerator_rate == original.accelerator_rate

    def test_snapshots_restored(self, saved):
        original, path = saved
        loaded = load_store(path)
        assert loaded.index.snapshots.snapshots == original.index.snapshots.snapshots

    def test_params_restored(self, saved):
        _original, path = saved
        loaded = load_store(path)
        assert loaded.params.storage.page_bytes == 4096
        assert loaded.params.cuckoo.rows == 256

    def test_loaded_store_supports_further_ingest(self, saved, corpus):
        _original, path = saved
        loaded = load_store(path)
        more = generator_for("BGL2", seed=99).generate(200)
        report = loaded.ingest(more)
        assert report.lines == 200
        outcome = loaded.query(parse_query("KERNEL"))
        assert outcome.stats.total_pages == loaded.index.total_data_pages

    def test_save_load_save_stable(self, saved, tmp_path):
        _original, path = saved
        loaded = load_store(path)
        save_store(loaded, tmp_path / "store2")
        reloaded = load_store(tmp_path / "store2")
        query = parse_query("KERNEL AND INFO")
        assert reloaded.query(query).matched_lines == loaded.query(query).matched_lines


    def test_save_survives_a_transient_read_error(self, tmp_path):
        lines = generator_for("BGL2").generate(2000)
        system = MithriLogSystem()
        system.ingest(lines)
        log = inject_page_faults(system, read_errors=AtOperationsSchedule({0}))
        save_store(system, tmp_path / "store")
        assert log.count("read_error") == 1
        loaded, _ = open_store(tmp_path / "store")
        query = parse_query("KERNEL AND INFO")
        expected = system.query(query).matched_lines
        assert expected
        assert loaded.query(query).matched_lines == expected


class TestErrorHandling:
    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_store(tmp_path / "nope")

    def test_bad_version_rejected(self, saved, tmp_path):
        _original, path = saved
        meta = json.loads((path / "store.json").read_text())
        meta["version"] = 999
        (path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(StorageError):
            load_store(path)

    def test_version_1_table_rejected(self, saved):
        _original, path = saved
        meta = json.loads((path / "store.json").read_text())
        meta["version"] = 1  # a dict per row, before the packed image
        meta["index"]["table"] = {
            "17": {"buffer": [3], "partial_root": [], "head_root": 0xFFFFFFFF,
                   "total_pages": 1},
        }
        (path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="version 1 not supported"):
            load_store(path)

    def test_version_2_store_rejected(self, saved):
        original, path = saved
        meta = json.loads((path / "store.json").read_text())
        meta["version"] = 2  # also stored the decompressor's rate and the minimum
        meta["accelerator_rate"] = original.accelerator_rate
        meta["decompressor_rate"] = original.decompressor_rate
        (path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="version 2 not supported"):
            load_store(path)

    def test_truncated_pages_rejected(self, saved):
        _original, path = saved
        blob = (path / "pages.bin").read_bytes()
        (path / "pages.bin").write_bytes(blob[:-5])
        with pytest.raises(StorageError):
            load_store(path)

    def test_corrupted_page_rejected(self, saved):
        from repro.errors import PageCorruptionError

        _original, path = saved
        blob = bytearray((path / "pages.bin").read_bytes())
        blob[40] ^= 0xFF  # flip a payload byte, keep the stored checksum
        (path / "pages.bin").write_bytes(bytes(blob))
        with pytest.raises(PageCorruptionError):
            load_store(path)


def _rate_keys(store: Path) -> set:
    """The rate keys a ``store.json`` holds."""
    metadata = json.loads((store / "store.json").read_text())
    return {key for key in metadata if key.endswith("rate")}


def _assert_one_stored_rate(system: MithriLogSystem) -> None:
    """The decompressors' rate follows from the params, the combined rate
    from the two stage rates; before any ingest neither is known."""
    p = system.params
    assert system.decompressor_rate == p.num_pipelines * p.lzah.word_bytes * p.pipeline.clock_hz
    if not system.total_lines:
        with pytest.raises(QueryError):
            system.accelerator_rate
        return
    assert system.accelerator_rate == min(system.pipeline_rate, system.decompressor_rate)


class TestOneStoredRate:
    """``store.json`` keeps the filter pipelines' measured rate alone,
    and every route a system takes (ingest, checkpoint, recover, save,
    load) keeps the derived rates derived."""

    LINES = generator_for("Liberty2", seed=4).generate(400)

    @pytest.mark.parametrize(
        "word_bytes, slower", [(4, "decompressor_rate"), (32, "pipeline_rate")]
    )
    def test_the_slower_stage_sets_the_rate(self, word_bytes, slower):
        lzah = LZAHParams(word_bytes=word_bytes, hash_table_bytes=64 * word_bytes)
        system = MithriLogSystem(SystemParams(lzah=lzah))
        system.ingest(self.LINES[:200])
        assert system.pipeline_rate != system.decompressor_rate
        assert system.accelerator_rate == getattr(system, slower)

    @settings(max_examples=12, deadline=None)
    @given(
        num_pipelines=st.sampled_from([1, 8]),
        word_bytes=st.sampled_from([4, 8, 16]),
        steps=st.lists(
            st.sampled_from(["ingest", "checkpoint", "recover", "save_load"]),
            min_size=1,
            max_size=7,
        ),
        sizes=st.lists(st.integers(1, 120), min_size=7, max_size=7),
    )
    def test_rates_hold_through_every_route(self, num_pipelines, word_bytes, steps, sizes):
        params = SystemParams(
            num_pipelines=num_pipelines,
            lzah=LZAHParams(word_bytes=word_bytes, hash_table_bytes=64 * word_bytes),
        )
        with tempfile.TemporaryDirectory() as scratch:
            store, copy = Path(scratch) / "journaled", Path(scratch) / "copy"
            journaled = JournaledMithriLog(store, system=MithriLogSystem(params))
            at = 0
            for step, size in zip(steps, sizes):
                if step == "ingest":
                    journaled.ingest(self.LINES[at : at + size])
                    at += size
                elif step == "checkpoint":
                    journaled.checkpoint()
                elif step == "recover":
                    pipeline_rate = journaled.system._pipeline_rate
                    journaled = JournaledMithriLog.recover(store)
                    if (store / "store.json").exists():
                        # the replay of the same lines measures the same rate
                        assert journaled.system._pipeline_rate == pipeline_rate
                else:
                    save_store(journaled.system, copy)
                    loaded = load_store(copy)
                    assert _rate_keys(copy) == {"pipeline_rate"}
                    assert loaded.total_lines == journaled.system.total_lines
                    assert loaded._pipeline_rate == journaled.system._pipeline_rate
                    _assert_one_stored_rate(loaded)
                if (store / "store.json").exists():
                    assert _rate_keys(store) == {"pipeline_rate"}
                _assert_one_stored_rate(journaled.system)
