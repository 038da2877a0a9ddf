"""The in-memory side of the inverted index (Sections 6.1-6.2).

A fixed-size hash table indexed by *two* hash functions. The table is
probabilistic: it never stores tokens, so distinct tokens can share a
row; that only costs extra candidate pages, which the filter engine
discards (Section 6.2). During ingest a token's page address goes to
whichever of its two rows has accumulated fewer pages so far (each row
keeps a counter); during query both rows are read and unioned.

Each row holds the paper's small ingest state: a 16-address buffer, the
partially-built root node, the list head, and the counter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.index.storetree import NIL, NODE_FANOUT, TreeListStore
from repro.params import IndexParams


@dataclass
class RowState:
    """Mutable per-row ingest state (a few dozen bytes each)."""

    buffer: list[int] = field(default_factory=list)  # pending data-page addrs
    partial_root: list[int] = field(default_factory=list)  # pending leaf ids
    head_root: int = NIL  # newest persisted root node id
    total_pages: int = 0  # counter used for two-choice balancing

    def memory_footprint_bytes(self) -> int:
        # buffer + partial root entries (u32 each) + head + counter
        return 4 * (len(self.buffer) + len(self.partial_root) + 2)


class HashIndexTable:
    """Two-hash-function row map in front of the store trees."""

    def __init__(self, params: Optional[IndexParams] = None, seed: int = 0) -> None:
        self.params = params if params is not None else IndexParams()
        self.seed = seed
        self._rows: dict[int, RowState] = {}
        # the keyed, salted hash states, set up once: hashing a token is
        # a copy + update, bit-identical to building the state per call
        self._hashers = tuple(
            hashlib.blake2b(
                digest_size=8,
                salt=(0x10 + which).to_bytes(8, "little"),
                key=seed.to_bytes(8, "little"),
            )
            for which in range(self.params.num_hash_functions)
        )

    def candidate_rows(self, token: bytes) -> tuple[int, ...]:
        """The rows a token may occupy (one or two per configuration)."""
        mask = self.params.hash_rows - 1
        rows = []
        for hasher in self._hashers:
            state = hasher.copy()
            state.update(token)
            rows.append(int.from_bytes(state.digest(), "little") & mask)
        return tuple(rows)

    def row(self, row_id: int) -> RowState:
        state = self._rows.get(row_id)
        if state is None:
            state = RowState()
            self._rows[row_id] = state
        return state

    def peek_row(self, row_id: int) -> Optional[RowState]:
        return self._rows.get(row_id)

    def choose_insert_row(self, token: bytes) -> int:
        """Two-choice balancing: insert into the lighter row (Section 6.2)."""
        candidates = self.candidate_rows(token)
        return min(candidates, key=lambda r: self.row(r).total_pages)

    def insert(self, token: bytes, page_addr: int, store: TreeListStore) -> None:
        """Record that ``token`` occurs in data page ``page_addr``."""
        self.insert_page((token,), page_addr, store)

    def insert_page(
        self, tokens: Iterable[bytes], page_addr: int, store: TreeListStore
    ) -> None:
        """Record that every token of ``tokens`` occurs in ``page_addr``.

        Tokens go in sorted order (deterministic balancing), each to the
        lighter of its candidate rows, ties to the first; both candidate
        rows come into existence either way. A row takes a page once.
        Spills the 16-address buffer into a leaf node when full, and the
        16-leaf partial root into a persisted root (prepended to the
        linked list) when that fills.
        """
        rows = self._rows
        hashers = self._hashers
        mask = self.params.hash_rows - 1
        buffer_addrs = self.params.memory_buffer_addrs
        from_bytes = int.from_bytes
        for token in sorted(set(tokens)):
            row = None
            for hasher in hashers:  # candidate_rows, inlined: the hot loop
                state = hasher.copy()
                state.update(token)
                row_id = from_bytes(state.digest(), "little") & mask
                candidate = rows.get(row_id)
                if candidate is None:
                    candidate = rows[row_id] = RowState()
                if row is None or candidate.total_pages < row.total_pages:
                    row = candidate
            buffer = row.buffer
            if buffer and buffer[-1] == page_addr:
                continue  # this page is already recorded for this row
            buffer.append(page_addr)
            row.total_pages += 1
            if len(buffer) == buffer_addrs:
                self._spill_buffer(row, store)

    def _spill_buffer(self, row: RowState, store: TreeListStore) -> None:
        # buffers larger than a leaf (naive-list ablation configs) chunk
        # into several leaves; the prototype's 16-entry buffer fills one
        for base in range(0, len(row.buffer), NODE_FANOUT):
            leaf_id = store.write_leaf(row.buffer[base : base + NODE_FANOUT])
            row.partial_root.append(leaf_id)
            if len(row.partial_root) == NODE_FANOUT:
                row.head_root = store.write_root(
                    row.partial_root, next_root=row.head_root
                )
                row.partial_root = []
        row.buffer = []

    def flush_all(self, store: TreeListStore) -> None:
        """Persist every partial buffer/root (snapshot or shutdown path)."""
        for row in self._rows.values():
            if row.buffer:
                self._spill_buffer(row, store)
            if row.partial_root:
                row.head_root = store.write_root(
                    row.partial_root, next_root=row.head_root
                )
                row.partial_root = []
        store.flush()

    def to_state(self) -> dict:
        """JSON-serialisable snapshot of every row's ingest state."""
        return {
            str(row_id): {
                "buffer": row.buffer,
                "partial_root": row.partial_root,
                "head_root": row.head_root,
                "total_pages": row.total_pages,
            }
            for row_id, row in self._rows.items()
        }

    def restore_state(self, state: dict) -> None:
        self._rows = {
            int(row_id): RowState(
                buffer=[int(a) for a in row["buffer"]],
                partial_root=[int(n) for n in row["partial_root"]],
                head_root=int(row["head_root"]),
                total_pages=int(row["total_pages"]),
            )
            for row_id, row in state.items()
        }

    @property
    def rows_in_use(self) -> int:
        return len(self._rows)

    def memory_footprint_bytes(self) -> int:
        """Total in-memory state — the paper's ~small-footprint claim."""
        return sum(r.memory_footprint_bytes() for r in self._rows.values())
