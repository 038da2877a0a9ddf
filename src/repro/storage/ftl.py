"""Flash translation layer.

NAND flash erases in blocks and writes in pages, so any page-addressed
view of an SSD (the one :class:`repro.storage.flash.FlashArray` exposes
and the paper's software assumes) is implemented by a translation layer:
logical page addresses map to physical (block, page) slots, overwrites
invalidate the old slot and claim a fresh one, and garbage collection
relocates live pages out of mostly-dead blocks before erasing them.

MithriLog's workload is nearly ideal for an FTL — bulk appends, no
overwrite of log data — but its *index* pages are rewritten (snapshot
flushes), which is exactly what produces invalid pages and GC traffic.
:class:`FTLFlashArray` wraps the FTL behind the FlashArray interface so
a system can run on flash-realistic plumbing, and its statistics
(write amplification, erase counts, wear spread) quantify the paper's
implicit claim that log workloads are flash-friendly.

This is a bench and test model, on no default system path:
``benchmarks/bench_ftl.py`` drives it, and
:meth:`FlashTranslationLayer.retire_block` is the bad-block fault model.
It publishes no metric families; :class:`FTLStats` carries every count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import BadBlockError, PageBoundsError, StorageError
from repro.params import StorageParams
from repro.storage.flash import FlashArray
from repro.storage.page import Page

#: Pages per erase block (a typical NAND figure, scaled down).
PAGES_PER_BLOCK = 64

#: GC kicks in when free blocks drop to this threshold.
GC_FREE_BLOCK_THRESHOLD = 2


@dataclass
class _Block:
    """One erase block's bookkeeping."""

    index: int
    next_page: int = 0
    valid: int = 0
    erase_count: int = 0

    def is_full(self, pages_per_block: int) -> bool:
        return self.next_page >= pages_per_block


@dataclass(frozen=True)
class FTLStats:
    """Lifetime counters of the translation layer."""

    host_writes: int
    nand_writes: int
    erases: int
    gc_relocations: int
    min_erase: int
    max_erase: int
    retired_blocks: int = 0
    lost_pages: int = 0

    @property
    def write_amplification(self) -> float:
        if self.host_writes == 0:
            return 1.0
        return self.nand_writes / self.host_writes

    @property
    def wear_spread(self) -> int:
        return self.max_erase - self.min_erase


class FlashTranslationLayer:
    """Logical-to-physical page mapping with greedy GC and wear levelling."""

    def __init__(
        self,
        num_blocks: int,
        pages_per_block: int = PAGES_PER_BLOCK,
        gc_threshold: int = GC_FREE_BLOCK_THRESHOLD,
    ) -> None:
        if num_blocks < gc_threshold + 2:
            raise StorageError("FTL needs more blocks than its GC reserve")
        if pages_per_block <= 0:
            raise StorageError("pages_per_block must be positive")
        self.pages_per_block = pages_per_block
        self.gc_threshold = gc_threshold
        self._blocks = [_Block(index=i) for i in range(num_blocks)]
        self._free = list(range(num_blocks - 1, 0, -1))  # block 0 starts active
        self._active = self._blocks[0]
        # logical page -> physical slot (block * pages_per_block + offset)
        self._l2p: dict[int, int] = {}
        # physical slot -> (logical page, payload) for live data
        self._p2l: dict[int, tuple[int, Page]] = {}
        self.host_writes = 0
        self.nand_writes = 0
        self.erases = 0
        self.gc_relocations = 0
        self.bad_blocks: set[int] = set()
        self._lost: set[int] = set()  # logical pages destroyed with a bad block

    # -- capacity -----------------------------------------------------------

    @property
    def capacity_pages(self) -> int:
        # reserve the GC headroom: over-provisioning, as real SSDs do
        usable = len(self._blocks) - len(self.bad_blocks) - self.gc_threshold
        return max(usable, 0) * self.pages_per_block

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def stats(self) -> FTLStats:
        erases = [b.erase_count for b in self._blocks]
        return FTLStats(
            host_writes=self.host_writes,
            nand_writes=self.nand_writes,
            erases=self.erases,
            gc_relocations=self.gc_relocations,
            min_erase=min(erases),
            max_erase=max(erases),
            retired_blocks=len(self.bad_blocks),
            lost_pages=len(self._lost),
        )

    # -- write path -----------------------------------------------------------

    def _slot(self, block: _Block) -> int:
        return block.index * self.pages_per_block + block.next_page

    def _advance_active(self) -> None:
        if not self._free:
            raise StorageError("FTL out of free blocks despite GC")
        # wear levelling: take the least-erased free block
        best = min(self._free, key=lambda i: self._blocks[i].erase_count)
        self._free.remove(best)
        self._active = self._blocks[best]

    def write(self, logical: int, page: Page) -> None:
        """Write (or overwrite) a logical page."""
        if logical < 0:
            raise PageBoundsError(f"negative logical page {logical}")
        if logical not in self._l2p and len(self._l2p) >= self.capacity_pages:
            raise StorageError("FTL logical capacity exhausted")
        self.host_writes += 1
        self._lost.discard(logical)  # rewriting a lost page makes it valid again
        self._invalidate(logical)
        self._program(logical, page)
        if self.free_blocks <= self.gc_threshold:
            self._collect_garbage()

    def _program(self, logical: int, page: Page) -> None:
        if self._active.is_full(self.pages_per_block):
            self._advance_active()
        slot = self._slot(self._active)
        self._active.next_page += 1
        self._active.valid += 1
        self._l2p[logical] = slot
        self._p2l[slot] = (logical, page)
        self.nand_writes += 1

    def _invalidate(self, logical: int) -> None:
        slot = self._l2p.pop(logical, None)
        if slot is not None:
            self._p2l.pop(slot)
            self._blocks[slot // self.pages_per_block].valid -= 1

    # -- read path -----------------------------------------------------------

    def read(self, logical: int) -> Page:
        if logical in self._lost:
            raise BadBlockError(
                f"logical page {logical} was lost when its block went bad"
            )
        slot = self._l2p.get(logical)
        if slot is None:
            raise StorageError(f"logical page {logical} has never been written")
        return self._p2l[slot][1]

    def __contains__(self, logical: int) -> bool:
        # lost pages *were* written; reads of them raise BadBlockError
        return logical in self._l2p or logical in self._lost

    # -- garbage collection ----------------------------------------------------

    def _collect_garbage(self) -> None:
        while self.free_blocks <= self.gc_threshold:
            victim = self._pick_victim()
            if victim is None:
                return  # nothing reclaimable
            self._relocate_and_erase(victim)

    def _pick_victim(self) -> Optional[_Block]:
        candidates = [
            b
            for b in self._blocks
            if b is not self._active
            and b.index not in self._free
            and b.index not in self.bad_blocks
            and b.is_full(self.pages_per_block)
        ]
        reclaimable = [
            b for b in candidates if b.valid < self.pages_per_block
        ]
        if not reclaimable:
            return None
        # greedy: fewest valid pages; ties to least-worn (wear levelling)
        return min(reclaimable, key=lambda b: (b.valid, b.erase_count))

    def _relocate_and_erase(self, victim: _Block) -> None:
        base = victim.index * self.pages_per_block
        live = [
            (slot, self._p2l[slot])
            for slot in range(base, base + self.pages_per_block)
            if slot in self._p2l
        ]
        for slot, (logical, page) in live:
            self._p2l.pop(slot)
            self._l2p.pop(logical)
            victim.valid -= 1
            self._program(logical, page)
            self.gc_relocations += 1
        victim.next_page = 0
        victim.valid = 0
        victim.erase_count += 1
        self.erases += 1
        self._free.append(victim.index)

    # -- bad-block management --------------------------------------------------

    def retire_block(self, index: int, relocate: bool = True) -> int:
        """Take one erase block permanently out of service (it went bad).

        With ``relocate=True`` the controller could still read the failing
        block (e.g. a program/erase failure) and moves its live pages to
        healthy blocks — no data is lost. With ``relocate=False`` the
        block died outright: its live pages are *lost* and every future
        read of them raises :class:`repro.errors.BadBlockError` until the
        host rewrites them. Returns the number of live pages affected.
        """
        if not 0 <= index < len(self._blocks):
            raise PageBoundsError(f"no block {index} to retire")
        if index in self.bad_blocks:
            return 0
        block = self._blocks[index]
        if block is self._active:
            self._advance_active()
        if index in self._free:
            self._free.remove(index)
        self.bad_blocks.add(index)
        base = index * self.pages_per_block
        live = [
            (slot, self._p2l[slot])
            for slot in range(base, base + self.pages_per_block)
            if slot in self._p2l
        ]
        for slot, (logical, page) in live:
            self._p2l.pop(slot)
            self._l2p.pop(logical)
            block.valid -= 1
            if relocate:
                self._program(logical, page)
                self.gc_relocations += 1
            else:
                self._lost.add(logical)
        if self.free_blocks <= self.gc_threshold:
            self._collect_garbage()
        return len(live)


class FTLFlashArray(FlashArray):
    """A FlashArray whose page store is backed by the FTL.

    Drop-in for :class:`repro.storage.flash.FlashArray`: the device,
    index and system layers run unchanged on flash-realistic plumbing.
    Read time is still ``StorageParams.flash_seconds`` of the bytes
    moved; the FTL adds the *write-side* realism (overwrites, GC, wear)
    that the plain array idealises away.
    """

    def __init__(
        self,
        params: Optional[StorageParams] = None,
        pages_per_block: int = PAGES_PER_BLOCK,
    ) -> None:
        super().__init__(params)
        num_blocks = -(-self.params.capacity_pages // pages_per_block)
        self.ftl = FlashTranslationLayer(
            num_blocks=num_blocks + GC_FREE_BLOCK_THRESHOLD + 2,
            pages_per_block=pages_per_block,
        )
        self._pages = _FTLPageView(self.ftl)  # replace the dict store


class _FTLPageView:
    """dict-like adapter exposing the FTL as FlashArray's page store."""

    def __init__(self, ftl: FlashTranslationLayer) -> None:
        self._ftl = ftl

    def __contains__(self, address: int) -> bool:
        return address in self._ftl

    def __getitem__(self, address: int) -> Page:
        if address not in self._ftl:
            raise KeyError(address)
        return self._ftl.read(address)

    def __setitem__(self, address: int, page: Page) -> None:
        self._ftl.write(address, page)

    def __len__(self) -> int:
        return len(self._ftl._l2p)
