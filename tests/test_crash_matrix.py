"""Crash-recovery matrix: truncate the WAL at every interesting offset.

Drives N batches through the journaled system, then simulates a crash by
cutting the journal at every record boundary plus several mid-record
offsets. Recovery must (a) never raise, (b) retain every acknowledged
batch wholly before the cut, and (c) never resurrect partial data from
beyond it. A second matrix kills the process inside ``checkpoint()``:
after the store was saved, after the journal was truncated, and again
after recovering and appending — every batch must come back once.
"""

import json
import random

import pytest

from repro.core.query import parse_query
from repro.datasets.synthetic import generator_for
from repro.errors import StorageError
from repro.system import wal as wal_module
from repro.system.mithrilog import MithriLogSystem
from repro.system.wal import JournaledMithriLog, decode_record, encode_record


@pytest.fixture(scope="module")
def journal_image(tmp_path_factory):
    """Six ingested batches plus the resulting WAL image and boundaries."""
    base = tmp_path_factory.mktemp("wal-matrix")
    corpus = generator_for("BGL2").generate(240)
    batches = [corpus[i * 40 : (i + 1) * 40] for i in range(6)]
    journaled = JournaledMithriLog(base / "store")
    boundaries = [0]
    for batch in batches:
        journaled.ingest(batch)
        boundaries.append(journaled.wal.size_bytes)
    blob = journaled.wal.path.read_bytes()
    return batches, blob, boundaries


def _recover_from_cut(tmp_path, blob, cut, tag):
    store_dir = tmp_path / f"cut-{tag}-{cut}"
    store_dir.mkdir()
    (store_dir / "wal.bin").write_bytes(blob[:cut])
    return JournaledMithriLog.recover(store_dir)


class TestCrashMatrix:
    def test_every_record_boundary(self, journal_image, tmp_path):
        batches, blob, boundaries = journal_image
        for k, cut in enumerate(boundaries):
            recovered = _recover_from_cut(tmp_path, blob, cut, "boundary")
            expected = sum(len(b) for b in batches[:k])
            assert recovered.system.total_lines == expected, f"cut at {cut}"
            # the journal was repaired to exactly the surviving records
            assert recovered.wal.size_bytes == cut
            assert recovered.wal.scan().clean

    def test_mid_record_cuts_drop_only_the_torn_batch(self, journal_image, tmp_path):
        batches, blob, boundaries = journal_image
        rng = random.Random(13)
        for k in range(len(boundaries) - 1):
            lo, hi = boundaries[k], boundaries[k + 1]
            cuts = {lo + 1, hi - 1} | {rng.randrange(lo + 1, hi) for _ in range(3)}
            for cut in sorted(cuts):
                recovered = _recover_from_cut(tmp_path, blob, cut, f"mid{k}")
                expected = sum(len(b) for b in batches[:k])
                assert recovered.system.total_lines == expected, f"cut at {cut}"
                # repair trimmed the torn tail back to the last boundary
                assert recovered.wal.size_bytes == boundaries[k]

    def test_boundaries_match_record_decoding(self, journal_image):
        """The ingest-time size offsets are real record boundaries."""
        batches, blob, boundaries = journal_image
        pos, decoded = 0, [0]
        while pos < len(blob):
            lines, _, pos = decode_record(blob, pos)
            decoded.append(pos)
        assert decoded == boundaries
        assert [len(lines) for lines in (b for b in batches)] == [40] * 6

    def test_recovery_accepts_new_writes_after_tear(self, journal_image, tmp_path):
        """The regression the repair step exists for: ingesting after a
        torn-tail recovery must not orphan the new batch."""
        batches, blob, boundaries = journal_image
        cut = boundaries[3] + 5  # mid-record tear inside batch 3
        recovered = _recover_from_cut(tmp_path, blob, cut, "regrow")
        before = recovered.system.total_lines
        recovered.ingest([b"fresh line one", b"fresh line two"])
        again = JournaledMithriLog.recover(recovered.store_dir)
        assert again.system.total_lines == before + 2

    def test_checkpoint_plus_tail_replay(self, journal_image, tmp_path):
        """A checkpointed store plus a torn WAL tail recovers to the
        checkpoint contents + complete tail records."""
        batches, blob, boundaries = journal_image
        store_dir = tmp_path / "ckpt"
        journaled = JournaledMithriLog(store_dir)
        journaled.ingest(batches[0])
        journaled.checkpoint()
        journaled.ingest(batches[1])
        journaled.ingest(batches[2])
        # crash mid-append of batch 2: cut the journal 7 bytes short
        wal_blob = journaled.wal.path.read_bytes()
        journaled.wal.path.write_bytes(wal_blob[:-7])
        recovered = JournaledMithriLog.recover(store_dir)
        assert recovered.system.total_lines == len(batches[0]) + len(batches[1])


class Died(Exception):
    """Stands in for the process dying at a chosen point."""


class TestCheckpointCrashWindow:
    """``checkpoint()`` is save the store → truncate the journal → tell
    the store. Wherever the process dies in it, recovery applies every
    acknowledged batch exactly once."""

    QUERY = parse_query("KERNEL AND NOT FATAL")

    @pytest.fixture(scope="class")
    def batches(self):
        corpus = generator_for("BGL2", seed=3).generate(900)
        return [corpus[i * 150 : (i + 1) * 150] for i in range(6)]

    @staticmethod
    def _crash_in_checkpoint(journaled, monkeypatch, dies_at):
        """Run ``checkpoint()`` up to ``dies_at`` and lose the process."""
        def die(*_args, **_kwargs):
            raise Died(dies_at)

        with monkeypatch.context() as patch:
            if dies_at == "after save_store":
                patch.setattr(journaled.wal, "truncate", die)
            else:  # after truncate, before the store hears of it
                patch.setattr(wal_module, "save_metadata", die)
            with pytest.raises(Died):
                journaled.checkpoint()

    def _assert_like_uncrashed(self, recovered, lines):
        twin = MithriLogSystem()
        twin.ingest(lines)
        assert recovered.system.total_lines == len(lines)
        expected = twin.query(self.QUERY)
        assert expected.matched_lines  # the query does select something
        outcome = recovered.query(self.QUERY)
        assert sorted(outcome.matched_lines) == sorted(expected.matched_lines)

    @pytest.mark.parametrize("dies_at", ["after save_store", "after truncate"])
    def test_dying_inside_a_checkpoint(self, batches, tmp_path, monkeypatch, dies_at):
        journaled = JournaledMithriLog(tmp_path)
        journaled.ingest(batches[0])
        journaled.ingest(batches[1])
        self._crash_in_checkpoint(journaled, monkeypatch, dies_at)
        del journaled
        recovered = JournaledMithriLog.recover(tmp_path)
        self._assert_like_uncrashed(recovered, batches[0] + batches[1])

    @pytest.mark.parametrize("dies_at", ["after save_store", "after truncate"])
    def test_recover_append_and_die_again(
        self, batches, tmp_path, monkeypatch, dies_at
    ):
        journaled = JournaledMithriLog(tmp_path)
        journaled.ingest(batches[0])
        mark = journaled.wal.size_bytes
        self._crash_in_checkpoint(journaled, monkeypatch, dies_at)
        del journaled
        recovered = JournaledMithriLog.recover(tmp_path)
        # enough new batches for a fresh journal to grow past the old mark
        for batch in batches[1:4]:
            recovered.ingest(batch)
        assert recovered.wal.size_bytes > 2 * mark
        del recovered
        again = JournaledMithriLog.recover(tmp_path)
        self._assert_like_uncrashed(again, sum(batches[:4], []))
        # and a third life, through a checkpoint that does complete
        again.checkpoint()
        assert again.wal.size_bytes == 0
        again.ingest(batches[4])
        del again
        final = JournaledMithriLog.recover(tmp_path)
        self._assert_like_uncrashed(final, sum(batches[:5], []))

    def test_the_journal_itself_is_unchanged(self, batches, tmp_path):
        journaled = JournaledMithriLog(tmp_path)
        for batch in batches[:3]:
            journaled.ingest(batch)
        records = b"".join(encode_record(batch) for batch in batches[:3])
        assert journaled.wal.path.read_bytes() == records
        journaled.checkpoint()
        journaled.ingest(batches[3])
        assert journaled.wal.path.read_bytes() == encode_record(batches[3])

    def test_recovery_refuses_a_version_2_store(self, batches, tmp_path):
        """Recovery replays nothing onto a store it cannot read: a
        version-2 ``store.json`` is refused by name."""
        journaled = JournaledMithriLog(tmp_path)
        journaled.ingest(batches[0])
        journaled.checkpoint()
        journaled.ingest(batches[1])
        del journaled
        store_json = tmp_path / "store.json"
        metadata = json.loads(store_json.read_text())
        metadata["version"] = 2
        store_json.write_text(json.dumps(metadata))
        with pytest.raises(StorageError, match="version 2 not supported"):
            JournaledMithriLog.recover(tmp_path)
