"""A page verifies its bytes once.

``Page.data`` is always ``bytes``, so an object's payload cannot change
after its checksum has been checked, and :meth:`Page.verify` marks the
object on its first success. Every fault the repository models makes a
new, unverified object: ``Page.corrupted``, an injector's bit flip,
``FlashArray.corrupt_page`` and a store load. So the same reads raise as
under a ``verify`` that recomputes the CRC every time.

The property drives interleavings of reads, seeded read errors and bit
flips, ``corrupt_page`` and ``save_store``/``open_store`` round trips,
once with the recomputing ``verify`` (the oracle) and once with the
real one, and requires

- each read to raise ``PageCorruptionError`` exactly when
  ``crc32(data) != checksum`` holds for the page the read hook handed
  back, and a save (which reads through the device's retry loop) to read
  an address again exactly when the page handed back for it failed;
- the same outcome for every operation, and the same ``FaultLog``.
"""

import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageCorruptionError, StorageError
from repro.faults import AtOperationsSchedule, BernoulliSchedule, PageFaultInjector
from repro.storage import page as page_module
from repro.storage.page import Page
from repro.system.mithrilog import MithriLogSystem
from repro.system.persistence import open_store, save_store


def recomputing_verify(self) -> None:
    """The oracle: the CRC recomputed on every call."""
    if zlib.crc32(self.data) != self.checksum:
        raise PageCorruptionError("page checksum mismatch")


class HandedBack(PageFaultInjector):
    """A page injector that keeps every page its hook handed back."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handed: list[tuple[int, Page]] = []

    def on_read(self, address, page):
        page = super().on_read(address, page)
        self.handed.append((address, page))
        return page


LINES = [b"node%d kernel %s ok" % (i, b"panic" if i % 5 else b"idle") for i in range(60)]


def _system() -> MithriLogSystem:
    system = MithriLogSystem(seed=0, cache_pages=0)
    system.ingest(LINES[:30])
    system.ingest(LINES[30:])
    system.index.flush(1.0)  # node pages too
    return system


def _seeded(seeds) -> HandedBack:
    read_errors, bit_flips, rng = seeds
    return HandedBack(
        read_errors=BernoulliSchedule(0.1, seed=read_errors),
        bit_flips=BernoulliSchedule(0.2, seed=bit_flips),
        seed=rng,
    )


def _run(ops, injector: HandedBack) -> tuple[list, object]:
    """Every operation's outcome and the fault log, checking each read
    against a recomputed CRC as it goes."""
    system = _system()
    addresses = list(range(system.device.flash.next_free_address))
    flash = system.device.flash
    flash.fault_injector = injector
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        for op in ops:
            injector.handed.clear()
            try:
                if op[0] == "read":
                    result = [flash.read_page(addresses[op[1] % len(addresses)]).data]
                elif op[0] == "read_pages":
                    picked = [addresses[i % len(addresses)] for i in op[1]]
                    result = [p.data for p in flash.read_pages(picked)]
                elif op[0] == "corrupt":
                    flash.corrupt_page(addresses[op[1] % len(addresses)], op[2])
                    result = None
                else:
                    save_store(system, directory)
                    system = open_store(directory)[0]
                    flash = system.device.flash
                    flash.fault_injector = injector
                    result = "reloaded"
                outcome = ("ok", result)
            except StorageError as exc:
                outcome = ("raised", type(exc).__name__)
            outcomes.append(outcome)
            bad = [zlib.crc32(p.data) != p.checksum for _a, p in injector.handed]
            if op[0] == "reload":
                # the save reads each address until a page passes its
                # CRC, so an address ends on a bad page only when it was
                # the last one read and the save gave up
                reads: dict[int, list[bool]] = {}
                for (address, _p), flag in zip(injector.handed, bad):
                    reads.setdefault(address, []).append(flag)
                for address, flags in reads.items():
                    assert all(flags[:-1]), (op, address, flags)
                    assert not flags[-1] or (
                        outcome == ("raised", "ReadRetryExhaustedError")
                        and address == injector.handed[-1][0]
                    ), (op, outcome, address, flags)
            # a read raises PageCorruptionError exactly at the first page
            # handed back whose recomputed CRC disagrees
            elif outcome == ("raised", "PageCorruptionError"):
                assert bad and bad[-1] and not any(bad[:-1]), (op, bad)
            else:
                assert not any(bad), (op, outcome, bad)
    return outcomes, injector.log


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 63)),
        st.tuples(st.just("read_pages"), st.lists(st.integers(0, 63), min_size=1, max_size=4)),
        st.tuples(st.just("corrupt"), st.integers(0, 63), st.integers(0, 4095)),
        st.just(("reload",)),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops, seeds=st.tuples(*[st.integers(0, 2**16)] * 3))
def test_reads_raise_as_a_recomputing_verify_does(ops, seeds):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Page, "verify", recomputing_verify)
        want_outcomes, want_log = _run(ops, _seeded(seeds))
    outcomes, log = _run(ops, _seeded(seeds))
    assert outcomes == want_outcomes
    assert log == want_log


def test_a_fixed_session_reaches_every_fault_and_a_reload():
    ops = [
        ("read", 1), ("read", 1), ("read", 1), ("read", 2),  # hook ops 0-3
        ("reload",),  # a clean save reads every page once: ops 4 onwards
        ("read", 1), ("read", 1),
        ("corrupt", 2, 7), ("read", 2), ("read", 2), ("reload",),
    ]
    injector = HandedBack(
        read_errors=AtOperationsSchedule({1}), bit_flips=AtOperationsSchedule({2})
    )
    outcomes, log = _run(ops, injector)
    corrupt = ("raised", "PageCorruptionError")
    assert outcomes[:5] == [
        ("ok", [outcomes[0][1][0]]), ("raised", "PageReadError"), corrupt,
        ("ok", [outcomes[3][1][0]]), ("ok", "reloaded"),
    ]
    # a loaded page reads as it did; a corrupted one raises on every read,
    # and the save that reads it gives up once the retry budget is spent
    assert outcomes[5] == outcomes[6] == outcomes[0]
    assert outcomes[7:] == [
        ("ok", None), corrupt, corrupt, ("raised", "ReadRetryExhaustedError"),
    ]
    assert [event.kind for event in log.events] == ["read_error", "bit_flip"]


@settings(max_examples=50)
@given(payload=st.binary(max_size=64), form=st.sampled_from([bytearray, memoryview]))
def test_a_page_stores_bytes_whatever_buffer_it_came_in(payload, form):
    source = bytearray(payload)
    page = Page(form(source))
    assert type(page.data) is bytes and page.data == payload
    assert page.checksum == zlib.crc32(payload)
    page.verify()
    if source:  # the caller's buffer is not the page's
        source[0] ^= 0xFF
        assert page.data == payload
        page.verify()


def test_a_page_computes_its_crc_once_per_object(monkeypatch):
    calls = []
    crc32 = zlib.crc32

    def counted(data):
        calls.append(len(data))
        return crc32(data)

    monkeypatch.setattr(page_module.zlib, "crc32", counted)
    page = Page(b"payload")
    for _ in range(3):
        page.verify()
    assert len(calls) == 2  # construction, then the first verify
    flipped = page.corrupted(1)
    for _ in range(2):
        with pytest.raises(PageCorruptionError):
            flipped.verify()  # a failed check marks nothing
    assert len(calls) == 4
