"""Unit tests for the accelerator-attached storage device."""

from types import SimpleNamespace

import pytest

from repro.errors import StorageError
from repro.params import StorageParams
from repro.sim import SimClock
from repro.storage.device import MithriLogDevice, ReadMode
from repro.storage.page import Page


def rot13_page(payload: bytes) -> bytes:
    """Toy 'decompressor' for tests: self-inverse byte transform."""
    return bytes(b ^ 0x20 for b in payload)


@pytest.fixture
def device():
    return MithriLogDevice(StorageParams(capacity_pages=64))


class TestRawReads:
    def test_raw_read_roundtrip(self, device):
        addrs = device.append_pages([Page(b"alpha"), Page(b"beta")])
        result = device.read(addrs, mode=ReadMode.RAW)
        assert result.data == b"alphabeta"
        assert result.pages_read == 2
        assert result.bytes_to_host == 9
        assert result.selectivity == 1.0

    def test_raw_read_does_not_require_configuration(self, device):
        addrs = device.append_pages([Page(b"x")])
        device.read(addrs, mode=ReadMode.RAW)  # no configure() call


class TestDecompressReads:
    def test_decompress_applied_per_page(self, device):
        stored = rot13_page(b"hello")
        addrs = device.append_pages([Page(stored)])
        device.configure(decompress_page=rot13_page)
        result = device.read(addrs, mode=ReadMode.DECOMPRESS)
        assert result.data == b"hello"
        assert result.bytes_decompressed == 5

    def test_decompress_without_config_raises(self, device):
        addrs = device.append_pages([Page(b"x")])
        with pytest.raises(StorageError):
            device.read(addrs, mode=ReadMode.DECOMPRESS)


def scanner(keep):
    """A fake FILTER program: keeps the lines ``keep`` accepts, pulling
    pages only until ``stop_after`` of them were kept."""

    def scan_pages(pages, stop_after):
        kept, seen, nbytes = [], 0, 0
        for _, page in pages:
            nbytes += len(page.data)
            for line in page.data.splitlines():
                seen += 1
                if keep(line):
                    kept.append(line)
                    if len(kept) == stop_after:
                        break
            if len(kept) == stop_after:
                break
        return SimpleNamespace(
            data=b"".join(line + b"\n" for line in kept),
            bytes_decompressed=nbytes, lines_seen=seen, lines_kept=len(kept),
        )

    return scan_pages


class TestFilterReads:
    def test_filter_keeps_matching_lines(self, device):
        text = b"keep me\ndrop me\nkeep too\n"
        addrs = device.append_pages([Page(text)])
        device.configure(scan_pages=scanner(lambda line: line.startswith(b"keep")))
        result = device.read(addrs, mode=ReadMode.FILTER)
        assert result.data == b"keep me\nkeep too\n"
        assert result.pages_read == 1
        assert result.bytes_from_flash == len(Page(text))
        assert result.bytes_decompressed == len(text)
        assert result.lines_seen == 3
        assert result.lines_kept == 2
        assert result.selectivity == pytest.approx(2 / 3)

    def test_filter_dropping_everything_returns_empty(self, device):
        addrs = device.append_pages([Page(b"a\nb\n")])
        device.configure(scan_pages=scanner(lambda _: False))
        result = device.read(addrs, mode=ReadMode.FILTER)
        assert result.data == b""
        assert result.bytes_to_host == 0

    def test_filter_without_filter_config_raises(self, device):
        addrs = device.append_pages([Page(b"x\n")])
        device.configure(decompress_page=lambda p: p)
        with pytest.raises(StorageError):
            device.read(addrs, mode=ReadMode.FILTER)

    def test_reconfigure_replaces_previous_query(self, device):
        addrs = device.append_pages([Page(b"a\nb\n")])
        device.configure(scan_pages=scanner(lambda ln: ln == b"a"))
        assert device.read(addrs, mode=ReadMode.FILTER).data == b"a\n"
        device.configure(scan_pages=scanner(lambda ln: ln == b"b"))
        assert device.read(addrs, mode=ReadMode.FILTER).data == b"b\n"

    def test_cancelled_read_pulls_no_page_past_the_last_match(
        self, device, monkeypatch
    ):
        addrs = device.append_pages(
            [Page(b"k\nd\n"), Page(b"d\nk\nk\n"), Page(b"k\n")]
        )
        device.configure(scan_pages=scanner(lambda ln: ln == b"k"))
        flash_reads = []
        read_page = device.flash.read_page
        monkeypatch.setattr(
            device.flash, "read_page",
            lambda a, clock=None: flash_reads.append(a) or read_page(a, clock=clock),
        )
        result = device.read(addrs, mode=ReadMode.FILTER, stop_after_matches=2)
        assert result.data == b"k\nk\n"
        assert result.pages_read == 2
        assert flash_reads == addrs[:2]
        assert result.bytes_from_flash == len(b"k\nd\n") + len(b"d\nk\nk\n")
        assert (result.lines_seen, result.lines_kept) == (4, 2)
        # uncancelled, the one batched request reads everything
        assert device.read(addrs, mode=ReadMode.FILTER).pages_read == 3

    def test_early_stop_only_applies_to_filter_reads(self, device):
        addrs = device.append_pages([Page(b"x\n")])
        device.configure(scan_pages=scanner(lambda _: True))
        with pytest.raises(StorageError):
            device.read(addrs, mode=ReadMode.RAW, stop_after_matches=1)
        with pytest.raises(StorageError):
            device.read(addrs, mode=ReadMode.FILTER, stop_after_matches=0)


class TestDeviceTiming:
    def test_filtering_reduces_host_link_traffic(self):
        params = StorageParams(
            capacity_pages=16,
            internal_bandwidth=10_000,
            external_bandwidth=1_000,
            latency_s=0.0,
        )
        device = MithriLogDevice(params)
        text = b"k\n" + b"d\n" * 499  # 1000 bytes, only one line kept
        addrs = device.append_pages([Page(text)])
        device.configure(scan_pages=scanner(lambda ln: ln == b"k"))

        clock = SimClock()
        filtered = device.read(addrs, mode=ReadMode.FILTER, clock=clock)
        filtered_time = filtered.elapsed_s

        device.host_link.reset()
        device.flash.internal_link.reset()
        clock2 = SimClock()
        raw = device.read(addrs, mode=ReadMode.RAW, clock=clock2)
        raw_time = raw.elapsed_s

        assert filtered.bytes_to_host < raw.bytes_to_host
        assert filtered_time < raw_time

    def test_elapsed_zero_without_clock(self, device):
        addrs = device.append_pages([Page(b"x")])
        assert device.read(addrs, mode=ReadMode.RAW).elapsed_s == 0.0
