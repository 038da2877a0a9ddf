"""Tests for node pools and the linked list of trees (Section 6.1)."""

import pytest

from repro.errors import LogIndexError
from repro.index.storetree import (
    NIL,
    LeafNode,
    NodePool,
    RootNode,
    TreeListStore,
)
from repro.params import PAGE_BYTES, StorageParams
from repro.storage.flash import FlashArray


@pytest.fixture
def flash():
    return FlashArray(StorageParams(capacity_pages=4096))


@pytest.fixture
def store(flash):
    return TreeListStore(flash, PAGE_BYTES)


class TestNodeSerialisation:
    def test_leaf_roundtrip(self):
        leaf = LeafNode(addresses=(1, 2, 3))
        assert LeafNode.unpack(leaf.pack()).addresses == (1, 2, 3)

    def test_full_leaf_roundtrip(self):
        leaf = LeafNode(addresses=tuple(range(16)))
        assert LeafNode.unpack(leaf.pack()).addresses == tuple(range(16))

    def test_leaf_overflow_rejected(self):
        with pytest.raises(LogIndexError):
            LeafNode(addresses=tuple(range(17)))

    def test_root_roundtrip(self):
        root = RootNode(leaf_ids=(10, 20), next_root=99)
        again = RootNode.unpack(root.pack())
        assert again.leaf_ids == (10, 20)
        assert again.next_root == 99

    def test_root_nil_next(self):
        root = RootNode(leaf_ids=(1,), next_root=NIL)
        assert RootNode.unpack(root.pack()).next_root == NIL

    def test_root_node_padded_to_slot(self):
        assert len(RootNode(leaf_ids=(), next_root=NIL).pack()) == 128


class TestNodePool:
    def test_append_and_read_from_tail(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        node_id = pool.append(b"a" * 64)
        assert pool.read(node_id) == b"a" * 64
        assert pool.pages_spilled == 0  # still buffered

    def test_page_spills_when_full(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        ids = [pool.append(bytes([i]) * 64) for i in range(64)]  # exactly 1 page
        assert pool.pages_spilled == 1
        assert pool.read(ids[5]) == bytes([5]) * 64

    def test_read_across_spill_boundary(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        ids = [pool.append(bytes([i % 251]) * 64) for i in range(100)]
        for i, node_id in enumerate(ids):
            assert pool.read(node_id) == bytes([i % 251]) * 64

    def test_flush_pads_partial_page(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        node_id = pool.append(b"b" * 64)
        pool.flush()
        assert pool.pages_spilled == 1
        assert pool.read(node_id) == b"b" * 64
        # appends continue on a fresh page boundary
        next_id = pool.append(b"c" * 64)
        assert next_id == 64

    def test_unwritten_node_rejected(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        with pytest.raises(LogIndexError):
            pool.read(0)

    def test_wrong_node_size_rejected(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        with pytest.raises(LogIndexError):
            pool.append(b"short")

    def test_nondividing_page_size_rejected(self, flash):
        with pytest.raises(LogIndexError):
            NodePool(flash, node_bytes=72, page_bytes=PAGE_BYTES)

    def test_read_many_matches_single_reads(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        ids = [pool.append(bytes([i]) * 64) for i in range(80)]  # spills once
        wanted = [ids[70], ids[3], ids[64], ids[3]]  # tail, spilled, repeat
        assert pool.read_many(wanted) == [pool.read(i) for i in wanted]

    def test_memory_footprint_small(self, flash):
        pool = NodePool(flash, node_bytes=64, page_bytes=PAGE_BYTES)
        for i in range(1000):
            pool.append(bytes([i % 251]) * 64)
        # tail (< 1 page) + 4 bytes per spilled page
        assert pool.memory_footprint_bytes < PAGE_BYTES + 4 * pool.pages_spilled + 64


class TestTreeListWalk:
    def _build_list(self, store, n_roots, leaves_per_root=16):
        head = NIL
        expected = []
        addr = 0
        for _ in range(n_roots):
            leaf_ids = []
            root_addrs = []
            for _ in range(leaves_per_root):
                addrs = list(range(addr, addr + 16))
                addr += 16
                leaf_ids.append(store.write_leaf(addrs))
                root_addrs.extend(addrs)
            head = store.write_root(leaf_ids, next_root=head)
            expected.append(root_addrs)
        return head, expected

    def test_single_root_walk(self, store):
        head, expected = self._build_list(store, n_roots=1)
        walk = store.walk(head)
        assert walk.addresses == expected[0]
        assert walk.root_visits == 1

    def test_multi_root_newest_first(self, store):
        head, expected = self._build_list(store, n_roots=3)
        walk = store.walk(head)
        assert walk.root_visits == 3
        # traversal order: newest root first
        assert walk.addresses == expected[2] + expected[1] + expected[0]

    def test_each_hop_yields_256_addresses(self, store):
        head, _ = self._build_list(store, n_roots=2)
        walk = store.walk(head)
        assert len(walk.addresses) == 2 * 256

    def test_cycle_detection(self, store):
        # hand-craft a self-referencing root
        leaf = store.write_leaf([1, 2, 3])
        root_id = store.write_root([leaf], next_root=0)  # points at itself
        with pytest.raises(LogIndexError):
            store.walk(root_id)
