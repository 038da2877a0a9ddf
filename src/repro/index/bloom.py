"""Per-page Bloom-filter index: the alternative indexing strategy.

Section 6 stresses that MithriLog's accelerator "can be coupled with any
indexing strategy that accesses storage, as long as the index can
generate a stream of page addresses". The natural competitor to an
inverted index for that job is a per-page Bloom filter (the design zone
maps / SuRF-style systems occupy): one small bit array per data page,
queried by testing each positive term against every page's filter.

The system always runs on :class:`repro.index.inverted.InvertedIndex`;
this module serves the indexing-strategy ablation
(``benchmarks/bench_ablate_index_strategy.py``), which quantifies the
trade-offs against it:

- memory is strictly proportional to data volume (bits per page), with
  no per-token state and no balancing concerns;
- lookup cost is O(pages) bit-tests per term instead of a posting
  traversal — cheap in memory, but candidate quality degrades with the
  false-positive rate instead of with row collisions;
- like the inverted index it is probabilistic-superset: false positives
  only cost filter work, never correctness.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.query import Query
from repro.errors import LogIndexError


@dataclass(frozen=True)
class BloomParams:
    """Sizing of one per-page filter."""

    bits: int = 2048  # 256 bytes per 4 KB page: ~6% space overhead
    hashes: int = 4

    def __post_init__(self) -> None:
        if self.bits <= 0 or self.bits & (self.bits - 1):
            raise LogIndexError("bloom bits must be a positive power of two")
        if self.hashes <= 0:
            raise LogIndexError("bloom needs at least one hash")

    def false_positive_rate(self, items: int) -> float:
        """The textbook FPR estimate for ``items`` inserted tokens."""
        if items == 0:
            return 0.0
        return (1 - math.exp(-self.hashes * items / self.bits)) ** self.hashes


class BloomFilter:
    """A fixed-size Bloom filter over byte tokens."""

    def __init__(self, params: Optional[BloomParams] = None, seed: int = 0) -> None:
        self.params = params if params is not None else BloomParams()
        self.seed = seed
        self._bits = 0
        self.items = 0

    def _positions(self, token: bytes) -> list[int]:
        digest = hashlib.blake2b(
            token, digest_size=8 * self.params.hashes,
            key=self.seed.to_bytes(8, "little"),
        ).digest()
        mask = self.params.bits - 1
        return [
            int.from_bytes(digest[8 * i : 8 * (i + 1)], "little") & mask
            for i in range(self.params.hashes)
        ]

    def add(self, token: bytes) -> None:
        for position in self._positions(token):
            self._bits |= 1 << position
        self.items += 1

    def __contains__(self, token: bytes) -> bool:
        return all(self._bits & (1 << p) for p in self._positions(token))

    @property
    def memory_bytes(self) -> int:
        return self.params.bits // 8


class PageBloomIndex:
    """One Bloom filter per data page, same candidate API as the inverted
    index (minus the in-storage machinery it doesn't need)."""

    def __init__(self, params: Optional[BloomParams] = None, seed: int = 0) -> None:
        self.params = params if params is not None else BloomParams()
        self.seed = seed
        self._filters: dict[int, BloomFilter] = {}
        self._order: list[int] = []

    @property
    def total_data_pages(self) -> int:
        return len(self._filters)

    def index_page(self, page_addr: int, tokens: Iterable[bytes]) -> None:
        if self._order and page_addr <= self._order[-1]:
            raise LogIndexError(
                f"page {page_addr} indexed out of append order"
            )
        bloom = BloomFilter(self.params, seed=self.seed)
        for token in set(tokens):
            bloom.add(token)
        self._filters[page_addr] = bloom
        self._order.append(page_addr)

    def lookup_token(self, token: bytes) -> list[int]:
        """Pages whose filter cannot rule the token out."""
        return [addr for addr in self._order if token in self._filters[addr]]

    def candidate_pages(self, query: Query) -> list[int]:
        """Superset of matching pages (positive terms only, like Sec. 6)."""
        candidates: set[int] = set()
        for iset in query.intersections:
            positives = iset.positives
            if not positives:
                candidates.update(self._order)
                continue
            acc: Optional[set[int]] = None
            for term in positives:
                pages = set(self.lookup_token(term.token))
                acc = pages if acc is None else acc & pages
                if not acc:
                    break
            candidates.update(acc or ())
        return sorted(candidates)

    def memory_footprint_bytes(self) -> int:
        return sum(f.memory_bytes for f in self._filters.values())

    def mean_false_positive_rate(self) -> float:
        if not self._filters:
            return 0.0
        rates = [
            f.params.false_positive_rate(f.items) for f in self._filters.values()
        ]
        return sum(rates) / len(rates)

