"""Unit tests for the accelerator-attached storage device."""

from types import SimpleNamespace

import pytest

from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.params import StorageParams
from repro.storage.device import MithriLogDevice
from repro.storage.page import Page


@pytest.fixture
def device():
    return MithriLogDevice(StorageParams(capacity_pages=64))


class TestFetchPages:
    def test_fetch_returns_pages_in_request_order(self, device):
        addrs = device.append_pages([Page(b"alpha"), Page(b"beta")])
        pages, retries = device.fetch_pages(list(reversed(addrs)))
        assert [page.data for page in pages] == [b"beta", b"alpha"]
        assert retries == 0

    def test_every_fetch_and_read_counts_one_request(self):
        with use_registry(MetricsRegistry()) as registry:
            device = MithriLogDevice(StorageParams(capacity_pages=8))
        addrs = device.append_pages([Page(b"a\n"), Page(b"b\n")])
        device.fetch_pages(addrs)
        device.fetch_pages(addrs[:1])
        device.read(addrs, scanner(lambda _: True), stop_after_matches=1)
        reads = registry.get("mithrilog_storage_device_reads_total")
        assert reads.value() == 3


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
        result = device.read(addrs, scanner(lambda line: line.startswith(b"keep")))
        assert result.data == b"keep me\nkeep too\n"
        assert result.pages_read == 1
        assert result.bytes_from_flash == len(Page(text))
        assert result.bytes_decompressed == len(text)
        assert result.lines_seen == 3
        assert result.lines_kept == 2
        assert result.selectivity == pytest.approx(2 / 3)

    def test_filter_dropping_everything_returns_empty(self, device):
        addrs = device.append_pages([Page(b"a\nb\n")])
        result = device.read(addrs, scanner(lambda _: False))
        assert result.data == b""
        assert result.bytes_to_host == 0

    def test_each_read_runs_the_program_it_is_given(self, device):
        addrs = device.append_pages([Page(b"a\nb\n")])
        assert device.read(addrs, scanner(lambda ln: ln == b"a")).data == b"a\n"
        assert device.read(addrs, scanner(lambda ln: ln == b"b")).data == b"b\n"

    def test_cancelled_read_pulls_no_page_past_the_last_match(
        self, device, monkeypatch
    ):
        addrs = device.append_pages(
            [Page(b"k\nd\n"), Page(b"d\nk\nk\n"), Page(b"k\n")]
        )
        keep_k = scanner(lambda ln: ln == b"k")
        flash_reads = []
        read_page = device.flash.read_page
        monkeypatch.setattr(
            device.flash, "read_page",
            lambda a: flash_reads.append(a) or read_page(a),
        )
        result = device.read(addrs, keep_k, stop_after_matches=2)
        assert result.data == b"k\nk\n"
        assert result.pages_read == 2
        assert flash_reads == addrs[:2]
        assert result.bytes_from_flash == len(b"k\nd\n") + len(b"d\nk\nk\n")
        assert (result.lines_seen, result.lines_kept) == (4, 2)
        # uncancelled, the one batched request reads everything
        assert device.read(addrs, keep_k).pages_read == 3

    def test_early_stop_must_be_positive(self, device):
        addrs = device.append_pages([Page(b"x\n")])
        with pytest.raises(StorageError):
            device.read(addrs, scanner(lambda _: True), stop_after_matches=0)
