"""The in-memory side of the inverted index (Sections 6.1-6.2).

A fixed-size hash table indexed by *two* hash functions. The table is
probabilistic: it never stores tokens, so distinct tokens can share a
row; that only costs extra candidate pages, which the filter engine
discards (Section 6.2). During ingest a token's page address goes to
whichever of its two rows has accumulated fewer pages so far (each row
keeps a counter); during query both rows are read and unioned.

Each row holds the paper's small ingest state: a 16-address buffer, the
partially-built root node, the list head, and the counter. On the host a
row is a slotted record whose partial root is the shared empty tuple
until its first leaf spills, and a checkpoint writes the table as packed
u32 columns. The table keeps a running count of the u32 words its rows
model, updated where rows, buffers and partial roots change, so reading
the footprint costs nothing per row.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional, Union

from repro.errors import LogIndexError
from repro.index.storetree import NIL, NODE_FANOUT, TreeListStore
from repro.params import IndexParams

#: The ``array`` type code of a u32 (``"I"`` on every common platform).
_U32 = next(code for code in "IL" if array(code).itemsize == 4)


@dataclass(slots=True)
class RowState:
    """Mutable per-row ingest state: the model counts it in u32 words.

    ``partial_root`` is the shared ``()`` while the row has no pending
    leaf; the first spilled leaf makes it a list, and writing the root
    makes it ``()`` again.
    """

    buffer: list[int] = field(default_factory=list)  # pending data-page addrs
    partial_root: Union[list[int], tuple[()]] = ()  # pending leaf ids
    head_root: int = NIL  # newest persisted root node id
    total_pages: int = 0  # counter used for two-choice balancing

    def memory_footprint_bytes(self) -> int:
        # buffer + partial root entries (u32 each) + head + counter
        return 4 * (len(self.buffer) + len(self.partial_root) + 2)


def _pack(values: Iterable[int]) -> str:
    """Hex of ``values`` as little-endian u32s (how ``NodePool`` keeps
    its tail)."""
    column = array(_U32, values)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes().hex()


def _unpack(text: str) -> list[int]:
    column = array(_U32)
    column.frombytes(bytes.fromhex(text))
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist()


class HashIndexTable:
    """Two-hash-function row map in front of the store trees."""

    def __init__(self, params: Optional[IndexParams] = None, seed: int = 0) -> None:
        self.params = params if params is not None else IndexParams()
        self.seed = seed
        self._rows: dict[int, RowState] = {}
        #: The modelled table's u32 words, kept as rows change:
        #: ``4 * words == memory_footprint_bytes()`` (the walk it is
        #: tested against).
        self.words = 0
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

    def peek_row(self, row_id: int) -> Optional[RowState]:
        return self._rows.get(row_id)

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
                    self.words += 2  # its head and counter
                if row is None or candidate.total_pages < row.total_pages:
                    row = candidate
            buffer = row.buffer
            if buffer and buffer[-1] == page_addr:
                continue  # this page is already recorded for this row
            buffer.append(page_addr)
            self.words += 1
            row.total_pages += 1
            if len(buffer) == buffer_addrs:
                self._spill_buffer(row, store)

    def _spill_buffer(self, row: RowState, store: TreeListStore) -> None:
        # buffers larger than a leaf (naive-list ablation configs) chunk
        # into several leaves; the prototype's 16-entry buffer fills one
        held = len(row.buffer) + len(row.partial_root)
        for base in range(0, len(row.buffer), NODE_FANOUT):
            leaf_id = store.write_leaf(row.buffer[base : base + NODE_FANOUT])
            if row.partial_root:
                row.partial_root.append(leaf_id)
            else:
                row.partial_root = [leaf_id]
            if len(row.partial_root) == NODE_FANOUT:
                row.head_root = store.write_root(
                    row.partial_root, next_root=row.head_root
                )
                row.partial_root = ()
        row.buffer = []
        self.words += len(row.partial_root) - held

    def flush_all(self, store: TreeListStore) -> None:
        """Persist every partial buffer/root (snapshot or shutdown path)."""
        for row in self._rows.values():
            if row.buffer:
                self._spill_buffer(row, store)
            if row.partial_root:
                row.head_root = store.write_root(
                    row.partial_root, next_root=row.head_root
                )
                self.words -= len(row.partial_root)
                row.partial_root = ()
        store.flush()

    def to_state(self) -> dict:
        """JSON-serialisable image of every row's ingest state.

        Packed columns, hex-encoded little-endian u32s, rows in table
        order (which is flush order): row ids, heads, totals, buffer and
        partial-root lengths, then every buffer and every partial root
        end to end.
        """
        rows = self._rows.values()
        return {
            "row_ids": _pack(self._rows),
            "heads": _pack([row.head_root for row in rows]),
            "totals": _pack([row.total_pages for row in rows]),
            "buffer_lengths": _pack([len(row.buffer) for row in rows]),
            "root_lengths": _pack([len(row.partial_root) for row in rows]),
            "buffers": _pack(chain.from_iterable(row.buffer for row in rows)),
            "partial_roots": _pack(
                chain.from_iterable(row.partial_root for row in rows)
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the rows from :meth:`to_state` output."""
        row_ids = _unpack(state["row_ids"])
        columns = [
            _unpack(state[name])
            for name in ("heads", "totals", "buffer_lengths", "root_lengths")
        ]
        buffers = _unpack(state["buffers"])
        roots = _unpack(state["partial_roots"])
        if any(len(column) != len(row_ids) for column in columns) or (
            sum(columns[2]), sum(columns[3])
        ) != (len(buffers), len(roots)):
            raise LogIndexError("hash table image columns disagree in length")
        rows: dict[int, RowState] = {}
        at_buffer = at_root = 0
        for row_id, head, total, buffer_length, root_length in zip(
            row_ids, *columns
        ):
            rows[row_id] = RowState(
                buffers[at_buffer : at_buffer + buffer_length],
                roots[at_root : at_root + root_length] if root_length else (),
                head,
                total,
            )
            at_buffer += buffer_length
            at_root += root_length
        self._rows = rows
        self.words = 2 * len(rows) + len(buffers) + len(roots)

    @property
    def rows_in_use(self) -> int:
        return len(self._rows)

    def memory_footprint_bytes(self) -> int:
        """The modelled table, in bytes of u32 words: per row its buffer
        and partial-root entries, head and counter (not host bytes).

        A walk over every row: the reference :attr:`words` is tested
        against, and what the probe's gauge reads."""
        return sum(r.memory_footprint_bytes() for r in self._rows.values())
