"""Unit tests for the fault-injection framework and the recovery policies.

Covers the schedules (determinism, composition), the three injectors
(page reads, WAL appends, cluster shards), FTL bad-block retirement, the
device's bounded read retries, and the fault log accounting.
"""

import pytest

from repro.errors import (
    BadBlockError,
    PageCorruptionError,
    PageReadError,
    ReadRetryExhaustedError,
    ShardUnavailableError,
    StorageError,
)
from repro.faults import (
    AddressSchedule,
    AlwaysSchedule,
    AtOperationsSchedule,
    BernoulliSchedule,
    EveryNthSchedule,
    FaultLog,
    NeverSchedule,
    PageFaultInjector,
    RetryPolicy,
    ShardFaultInjector,
    WalFaultInjector,
    inject_page_faults,
)
from repro.params import StorageParams
from repro.storage.device import MithriLogDevice
from repro.storage.flash import FlashArray
from repro.storage.ftl import FTLFlashArray, FlashTranslationLayer
from repro.storage.page import Page
from repro.system.wal import WriteAheadLog
from tests.test_storage_device import scanner


class TestSchedules:
    def test_never_and_always(self):
        assert not NeverSchedule().fires(0)
        assert AlwaysSchedule().fires(12345)

    def test_bernoulli_is_deterministic_per_seed(self):
        def draw(seed):
            sched = BernoulliSchedule(0.3, seed=seed)
            return [sched.fires(i) for i in range(200)]

        a, b, c = draw(7), draw(7), draw(8)
        assert a == b
        assert a != c
        assert 20 < sum(a) < 100  # roughly the configured rate

    def test_bernoulli_reset_replays(self):
        sched = BernoulliSchedule(0.5, seed=3)
        first = [sched.fires(i) for i in range(50)]
        sched.reset()
        assert [sched.fires(i) for i in range(50)] == first

    def test_bernoulli_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BernoulliSchedule(1.5)

    def test_every_nth(self):
        sched = EveryNthSchedule(3, offset=1)
        assert [sched.fires(i) for i in range(6)] == [
            False, True, False, False, True, False,
        ]

    def test_at_operations(self):
        sched = AtOperationsSchedule({2, 5})
        assert [sched.fires(i) for i in range(6)] == [
            False, False, True, False, False, True,
        ]

    def test_address_schedule_is_persistent(self):
        sched = AddressSchedule({7})
        assert sched.fires(0, 7) and sched.fires(999, 7)
        assert not sched.fires(0, 8)
        assert not sched.fires(0, None)

    def test_combinators(self):
        either = AtOperationsSchedule({1}) | AtOperationsSchedule({2})
        both = AtOperationsSchedule({1, 2}) & AtOperationsSchedule({2, 3})
        assert [either.fires(i) for i in range(4)] == [False, True, True, False]
        assert [both.fires(i) for i in range(4)] == [False, False, True, False]


class TestRetryPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        assert RetryPolicy(max_attempts=4).max_retries == 3


@pytest.fixture
def flash():
    array = FlashArray(StorageParams(capacity_pages=64))
    for i in range(8):
        array.append_page(Page(f"page-{i}".encode()))
    return array


class TestPageFaultInjector:
    def test_read_error_raises_and_logs(self, flash):
        log = FaultLog()
        flash.fault_injector = PageFaultInjector(
            read_errors=AlwaysSchedule(), log=log
        )
        with pytest.raises(PageReadError):
            flash.read_page(0)
        assert log.count("read_error") == 1

    def test_bit_flip_caught_by_page_checksum(self, flash):
        flash.fault_injector = PageFaultInjector(bit_flips=AlwaysSchedule(), seed=1)
        with pytest.raises(PageCorruptionError):
            flash.read_page(0)
        # transient: the stored page is untouched, a clean re-read works
        flash.fault_injector = None
        assert flash.read_page(0).data == b"page-0"

    def test_bad_address_is_persistent(self, flash):
        injector = PageFaultInjector(bad_addresses={3})
        flash.fault_injector = injector
        for _ in range(3):
            with pytest.raises(BadBlockError):
                flash.read_page(3)
        assert flash.read_page(2).data == b"page-2"
        assert injector.log.count("bad_block") == 3

    def test_no_injector_reads_clean(self, flash):
        assert flash.read_pages(list(range(8)))[0].data == b"page-0"


class TestDeviceRetry:
    def _device(self, **kwargs):
        params = StorageParams(capacity_pages=64)
        device = MithriLogDevice(params, **kwargs)
        for i in range(6):
            device.append_pages([Page(f"line-{i}\n".encode())])
        return device

    def test_transient_fault_absorbed_by_retry(self):
        device = self._device()
        device.flash.fault_injector = PageFaultInjector(
            read_errors=EveryNthSchedule(3)  # ops 0, 3, 6, ...
        )
        pages, retries = device.fetch_pages(list(range(6)))
        assert [page.data for page in pages] == [
            f"line-{i}\n".encode() for i in range(6)
        ]
        assert retries > 0

    def test_persistent_corruption_exhausts_retries(self):
        device = self._device(retry_policy=RetryPolicy(max_attempts=3))
        device.flash.corrupt_page(2)  # stored bits flipped: every read fails
        with pytest.raises(ReadRetryExhaustedError):
            device.fetch_pages(list(range(6)))

    def test_bad_block_fails_fast_without_retries(self):
        device = self._device()
        injector = PageFaultInjector(bad_addresses={1})
        device.flash.fault_injector = injector
        with pytest.raises(BadBlockError):
            device.fetch_pages([0, 1])
        # one batch probe + one per-page probe, never the full retry budget
        assert injector.log.count("bad_block") <= 2

    def test_retry_count_surfaces_in_result(self):
        device = self._device()
        device.flash.fault_injector = PageFaultInjector(
            read_errors=AtOperationsSchedule({0})
        )
        result = device.read(list(range(6)), scanner(lambda _: True))
        assert result.data == b"".join(f"line-{i}\n".encode() for i in range(6))
        assert result.read_retries == 1
        # a torn batch probe plus a failed re-read: two retries, one page
        device.flash.fault_injector = PageFaultInjector(
            read_errors=AtOperationsSchedule({0, 1})
        )
        pages, retries = device.fetch_pages([0])
        assert [page.data for page in pages] == [b"line-0\n"]
        assert retries == 2


class TestFTLBadBlocks:
    def test_retire_with_relocation_preserves_data(self):
        ftl = FlashTranslationLayer(num_blocks=8, pages_per_block=4)
        for logical in range(8):
            ftl.write(logical, Page(f"L{logical}".encode()))
        victim = ftl._l2p[0] // ftl.pages_per_block
        moved = ftl.retire_block(victim)
        assert moved > 0
        for logical in range(8):
            assert ftl.read(logical).data == f"L{logical}".encode()
        stats = ftl.stats()
        assert stats.retired_blocks == 1
        assert stats.lost_pages == 0

    def test_retire_without_relocation_loses_pages(self):
        ftl = FlashTranslationLayer(num_blocks=8, pages_per_block=4)
        for logical in range(8):
            ftl.write(logical, Page(f"L{logical}".encode()))
        victim = ftl._l2p[0] // ftl.pages_per_block
        ftl.retire_block(victim, relocate=False)
        with pytest.raises(BadBlockError):
            ftl.read(0)
        assert 0 in ftl  # it *was* written; the data is just gone
        assert ftl.stats().lost_pages > 0

    def test_rewriting_a_lost_page_revives_it(self):
        ftl = FlashTranslationLayer(num_blocks=8, pages_per_block=4)
        ftl.write(0, Page(b"old"))
        ftl.retire_block(ftl._l2p[0] // ftl.pages_per_block, relocate=False)
        ftl.write(0, Page(b"new"))
        assert ftl.read(0).data == b"new"
        assert ftl.stats().lost_pages == 0

    def test_retired_block_never_reused(self):
        ftl = FlashTranslationLayer(num_blocks=8, pages_per_block=4)
        ftl.retire_block(5)
        capacity = ftl.capacity_pages
        for logical in range(capacity):
            ftl.write(logical, Page(b"x"))
        used_blocks = {slot // ftl.pages_per_block for slot in ftl._p2l}
        assert 5 not in used_blocks

    def test_bad_block_surfaces_through_flash_interface(self):
        array = FTLFlashArray(StorageParams(capacity_pages=256))
        for i in range(64):
            array.append_page(Page(f"page-{i}".encode()))
        array.ftl.retire_block(0, relocate=False)
        lost = sorted(array.ftl._lost)
        assert lost
        with pytest.raises(BadBlockError):
            array.read_page(lost[0])
        with pytest.raises(BadBlockError):
            array.read_pages(lost[:2])


class TestWalFaultInjection:
    def test_torn_append_drops_only_last_batch(self, tmp_path):
        injector = WalFaultInjector(torn_writes=AtOperationsSchedule({1}), seed=5)
        wal = WriteAheadLog(tmp_path / "wal.bin", fault_injector=injector)
        wal.append([b"first"])
        wal.append([b"second (torn)"])
        assert injector.log.count("torn_write") == 1
        assert [lines for lines, _ in wal.replay()] == [[b"first"]]

    def test_repair_truncates_torn_tail(self, tmp_path):
        injector = WalFaultInjector(torn_writes=AtOperationsSchedule({1}), seed=5)
        wal = WriteAheadLog(tmp_path / "wal.bin", fault_injector=injector)
        wal.append([b"first"])
        wal.append([b"second (torn)"])
        report = wal.scan()
        assert report.torn and not report.clean
        dropped = wal.repair()
        assert dropped > 0
        assert wal.scan().clean
        # post-repair appends are reachable again
        wal.append([b"third"])
        assert [lines for lines, _ in wal.replay()] == [[b"first"], [b"third"]]

    def test_unrepaired_tear_would_orphan_later_batches(self, tmp_path):
        """The failure mode repair() exists for: appends after a tear are
        invisible to replay until the tear is cut out."""
        injector = WalFaultInjector(torn_writes=AtOperationsSchedule({1}), seed=5)
        wal = WriteAheadLog(tmp_path / "wal.bin", fault_injector=injector)
        wal.append([b"first"])
        wal.append([b"second (torn)"])
        wal.fault_injector = None
        wal.append([b"third (acknowledged!)"])
        assert [lines for lines, _ in wal.replay()] == [[b"first"]]


class TestShardFaultInjector:
    def test_down_shard_raises(self):
        injector = ShardFaultInjector(shard_down=AddressSchedule({1}))
        injector.on_query(0)  # healthy
        with pytest.raises(ShardUnavailableError):
            injector.on_query(1)
        assert injector.log.count("shard_down") == 1


class TestAttachHelpers:
    def test_attach_to_flash_array(self, flash):
        log = inject_page_faults(flash, read_errors=AlwaysSchedule())
        with pytest.raises(PageReadError):
            flash.read_page(0)
        assert log.count() == 1

    def test_attach_rejects_unknown_target(self):
        with pytest.raises(TypeError):
            inject_page_faults(object())


class TestFaultLog:
    def test_counts_and_summary(self):
        log = FaultLog()
        log.record("read_error", 0, address=4)
        log.record("read_error", 1, address=5)
        log.record("bit_flip", 2, address=4, detail="byte 17")
        assert log.count() == 3
        assert log.count("read_error") == 2
        assert log.by_kind() == {"read_error": 2, "bit_flip": 1}
        assert "read_error=2" in log.summary()
