"""In-storage linked list of height-two trees (Section 6.1).

The index's storage layout is built from two node pools on the shared
flash array:

- a **leaf pool** of 16-entry leaf nodes (16 x u32 data-page addresses),
- a **root pool** of root nodes (16 x u32 leaf-node ids, a u32 next-root
  pointer forming the linked list, and a u32 entry count).

Node ids are ``page_sequence * slots_per_page + slot`` within a pool;
each pool tracks which flash pages it occupies. A pool buffers its tail
page in memory and spills full pages to flash, so per-row ingest memory
stays tiny — the whole point of the design (Section 6.1's contrast with
naive large index nodes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

from repro.errors import LogIndexError
from repro.storage.flash import FlashArray
from repro.storage.page import Page

#: Sentinel for "no node" in next pointers and padding.
NIL = 0xFFFFFFFF

#: Entries per tree node (root fan-out == leaf fan-out == 16 in the paper).
NODE_FANOUT = 16

_LEAF_STRUCT = struct.Struct("<16I")  # 16 data-page addresses
_ROOT_STRUCT = struct.Struct("<16III")  # 16 leaf ids, next root id, count

#: Root nodes are padded to a power-of-two slot so they pack evenly into
#: 4 KB index pages (72 payload bytes -> 128-byte slots, 32 per page).
_ROOT_NODE_BYTES = 128


class NodePool:
    """Fixed-size-node storage pool over a shared flash array."""

    def __init__(self, flash: FlashArray, node_bytes: int, page_bytes: int) -> None:
        if page_bytes % node_bytes:
            raise LogIndexError(
                f"page size {page_bytes} not a multiple of node size {node_bytes}"
            )
        self.flash = flash
        self.node_bytes = node_bytes
        self.page_bytes = page_bytes
        self.slots_per_page = page_bytes // node_bytes
        self._page_addrs: list[int] = []  # pool page sequence -> flash address
        self._tail: bytearray = bytearray()
        self._next_node_id = 0
        self.nodes_written = 0

    @property
    def pages_spilled(self) -> int:
        return len(self._page_addrs)

    @property
    def memory_footprint_bytes(self) -> int:
        """Tail buffer plus the page-address map."""
        return len(self._tail) + 4 * len(self._page_addrs)

    def append(self, node: bytes) -> int:
        """Store one node; returns its node id."""
        if len(node) != self.node_bytes:
            raise LogIndexError(
                f"node of {len(node)} bytes in a {self.node_bytes}-byte pool"
            )
        self._tail.extend(node)
        node_id = self._next_node_id
        self._next_node_id += 1
        self.nodes_written += 1
        if len(self._tail) == self.page_bytes:
            self._spill_tail()
        return node_id

    def _spill_tail(self) -> None:
        addr = self.flash.append_page(Page(bytes(self._tail)))
        self._page_addrs.append(addr)
        self._tail.clear()

    def flush(self) -> None:
        """Spill a partial tail page (padded with 0xFF) to flash."""
        if self._tail:
            pad = self.page_bytes - len(self._tail)
            self._tail.extend(b"\xff" * pad)
            self._spill_tail()
            # account for the padded slots so ids keep mapping correctly
            self._next_node_id = self.pages_spilled * self.slots_per_page

    def read(self, node_id: int) -> bytes:
        """Fetch one node: a flash page read once persisted, the buffered
        tail page otherwise."""
        if not 0 <= node_id < self._next_node_id:
            raise LogIndexError(f"node id {node_id} was never written")
        seq, slot = divmod(node_id, self.slots_per_page)
        start, end = slot * self.node_bytes, (slot + 1) * self.node_bytes
        if seq < len(self._page_addrs):
            node = self.flash.read_page(self._page_addrs[seq]).data[start:end]
        else:  # still buffered in memory: free access
            node = bytes(self._tail[start:end])
        if len(node) != self.node_bytes:
            raise LogIndexError(f"node id {node_id} not materialised yet")
        return node

    def to_state(self) -> dict:
        """JSON-serialisable snapshot of the pool's in-memory side."""
        return {
            "page_addrs": list(self._page_addrs),
            "tail_hex": bytes(self._tail).hex(),
            "next_node_id": self._next_node_id,
            "nodes_written": self.nodes_written,
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild the in-memory side from :meth:`to_state` output.

        The flash pages themselves live in the shared flash array, which
        is persisted separately.
        """
        self._page_addrs = [int(a) for a in state["page_addrs"]]
        self._tail = bytearray(bytes.fromhex(state["tail_hex"]))
        self._next_node_id = int(state["next_node_id"])
        self.nodes_written = int(state["nodes_written"])

    def read_many(self, node_ids: Sequence[int]) -> list[bytes]:
        """Fetch several nodes, in order.

        This is the "many parallel leaf node accesses" behaviour the tree
        design exists for: a root's 16 leaves usually live on one or two
        sequential leaf pages.
        """
        return [self.read(node_id) for node_id in node_ids]


@dataclass(frozen=True)
class LeafNode:
    """16 data-page addresses (padded with NIL)."""

    addresses: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.addresses) > NODE_FANOUT:
            raise LogIndexError("leaf node overflow")

    def pack(self) -> bytes:
        padded = self.addresses + (NIL,) * (NODE_FANOUT - len(self.addresses))
        return _LEAF_STRUCT.pack(*padded)


def leaf_addresses(data: bytes) -> tuple[int, ...]:
    """The data-page addresses of a packed leaf node: one unpack, cut at
    the ``NIL`` padding (:meth:`LeafNode.pack` writes the addresses
    first, and no address is ``NIL``)."""
    values = _LEAF_STRUCT.unpack(data)
    if values[-1] != NIL:
        return values
    return values[: values.index(NIL)]


@dataclass(frozen=True)
class RootNode:
    """Up to 16 leaf ids plus the linked-list next pointer."""

    leaf_ids: tuple[int, ...]
    next_root: int  # node id of the next (older) root, or NIL

    def __post_init__(self) -> None:
        if len(self.leaf_ids) > NODE_FANOUT:
            raise LogIndexError("root node overflow")

    def pack(self) -> bytes:
        padded = self.leaf_ids + (NIL,) * (NODE_FANOUT - len(self.leaf_ids))
        payload = _ROOT_STRUCT.pack(*padded, self.next_root, len(self.leaf_ids))
        return payload + b"\0" * (_ROOT_NODE_BYTES - len(payload))

    @classmethod
    def unpack(cls, data: bytes) -> "RootNode":
        *leaves, next_root, count = _ROOT_STRUCT.unpack(data[: _ROOT_STRUCT.size])
        if count == 0xFFFFFFFF:  # flush padding slot
            return cls(leaf_ids=(), next_root=NIL)
        return cls(leaf_ids=tuple(leaves[:count]), next_root=next_root)


@dataclass(frozen=True)
class WalkResult:
    """Outcome of traversing one row's linked list of trees."""

    addresses: list[int]
    root_visits: int


class TreeListStore:
    """The on-flash side of the index: leaf and root pools plus traversal."""

    def __init__(self, flash: FlashArray, page_bytes: int) -> None:
        self.leaves = NodePool(flash, _LEAF_STRUCT.size, page_bytes)
        self.roots = NodePool(flash, _ROOT_NODE_BYTES, page_bytes)

    def write_leaf(self, addresses: list[int]) -> int:
        return self.leaves.append(LeafNode(addresses=tuple(addresses)).pack())

    def write_root(self, leaf_ids: list[int], next_root: int) -> int:
        return self.roots.append(
            RootNode(leaf_ids=tuple(leaf_ids), next_root=next_root).pack()
        )

    def flush(self) -> None:
        self.leaves.flush()
        self.roots.flush()

    @property
    def memory_footprint_bytes(self) -> int:
        return self.leaves.memory_footprint_bytes + self.roots.memory_footprint_bytes

    def walk(self, head_root: int) -> "WalkResult":
        """Collect all data-page addresses reachable from a list head.

        Returns them in traversal order: newest root first, a root's
        leaves in insertion order (i.e. reverse-chronological by root, as
        Section 6.3 describes). Each root visit is one latency-bound
        access (``InvertedIndex.lookup_seconds`` prices them); its
        leaves are fetched together.
        """
        addresses: list[int] = []
        root_id = head_root
        hops = 0
        while root_id != NIL:
            hops += 1
            if hops > self.roots.nodes_written + 1:
                raise LogIndexError("root linked list contains a cycle")
            root = RootNode.unpack(self.roots.read(root_id))
            for blob in self.leaves.read_many(root.leaf_ids):
                addresses.extend(leaf_addresses(blob))
            root_id = root.next_root
        return WalkResult(addresses=addresses, root_visits=hops)
