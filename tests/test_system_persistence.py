"""Tests for store persistence (save/load round trips)."""

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import StorageError
from repro.system.mithrilog import MithriLogSystem
from repro.system.persistence import load_store, save_store


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


class TestErrorHandling:
    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_store(tmp_path / "nope")

    def test_bad_version_rejected(self, saved, tmp_path):
        import json

        _original, path = saved
        meta = json.loads((path / "store.json").read_text())
        meta["version"] = 999
        (path / "store.json").write_text(json.dumps(meta))
        with pytest.raises(StorageError):
            load_store(path)

    def test_version_1_table_rejected(self, saved):
        import json

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
