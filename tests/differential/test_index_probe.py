"""Differential tests for the index probe's node reads (Section 6.1).

The probe decodes a leaf node straight to its addresses
(:func:`~repro.index.storetree.leaf_addresses`: one unpack, cut at the
``NIL`` padding) and intersects page *sets*; only the public
``lookup_token`` sorts. The oracle here is the traversal it replaced:
every leaf unpacked into its non-``NIL`` values
(:func:`unpack_leaf`, the former ``LeafNode.unpack``), a sorted list
per token, and sets rebuilt from those lists.

One hypothesis property runs sequences of page inserts, index flushes,
bare table flushes and ``to_state`` → ``restore_state`` round trips on
small tables, then holds the fast path to the oracle on

- ``lookup_token`` and ``walk`` (pages, order and root visits);
- ``candidate_pages``: the pages and every ``IndexLookupStats`` field;
- the flash addresses a recording read hook sees, in order;
- every leaf node the store wrote, decoded both ways.
"""

import json
from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from repro.core.query import IntersectionSet, Query, Term
from repro.index.inverted import IndexLookupStats, InvertedIndex
from repro.index.storetree import _LEAF_STRUCT, NIL, RootNode, leaf_addresses
from repro.params import IndexParams, StorageParams
from repro.storage.flash import FlashArray
from repro.storage.page import Page

# ---------------------------------------------------------------------------
# the oracle: the per-leaf traversal the probe replaced
# ---------------------------------------------------------------------------


def unpack_leaf(data: bytes) -> tuple[int, ...]:
    """Every non-``NIL`` value of a packed leaf (the former
    ``LeafNode.unpack``)."""
    return tuple(v for v in _LEAF_STRUCT.unpack(data) if v != NIL)


def oracle_walk(store, head_root: int) -> tuple[list[int], int]:
    addresses: list[int] = []
    root_id, hops = head_root, 0
    while root_id != NIL:
        hops += 1
        root = RootNode.unpack(store.roots.read(root_id))
        for blob in store.leaves.read_many(list(root.leaf_ids)):
            addresses.extend(unpack_leaf(blob))
        root_id = root.next_root
    return addresses, hops


def oracle_lookup(index, token: bytes) -> tuple[list[int], int]:
    pages: set[int] = set()
    visits = 0
    for row_id in index.table.candidate_rows(token):
        row = index.table.peek_row(row_id)
        if row is None:
            continue
        pages.update(row.buffer)
        if row.partial_root:
            for blob in index.store.leaves.read_many(list(row.partial_root)):
                pages.update(unpack_leaf(blob))
        if row.head_root != NIL:
            addresses, hops = oracle_walk(index.store, row.head_root)
            pages.update(addresses)
            visits += hops
    return sorted(pages), visits


def oracle_candidates(index, query) -> tuple[tuple[int, ...], IndexLookupStats]:
    stats = IndexLookupStats()
    candidates: set[int] = set()
    for iset in query.intersections:
        if not iset.positives:
            stats.full_scan = True
            candidates.update(index.data_pages)
            continue
        set_pages = None
        for term in iset.positives:
            pages, visits = oracle_lookup(index, term.token)
            stats.tokens_looked_up += 1
            stats.root_visits += visits
            set_pages = set(pages) if set_pages is None else set_pages & set(pages)
            if not set_pages:
                break
        candidates.update(set_pages or ())
    pages = tuple(sorted(candidates))
    stats.candidate_pages = len(pages)
    return pages, stats


class RecordingHook:
    """A read hook in the fault injector's place: records each address."""

    def __init__(self) -> None:
        self.addresses: list[int] = []

    def on_read(self, address: int, page: Page) -> Page:
        self.addresses.append(address)
        return page


def _recorded(flash, call):
    """``(call(), the flash addresses it read in order)``."""
    hook = flash.fault_injector = RecordingHook()
    try:
        return call(), hook.addresses
    finally:
        flash.fault_injector = None


# ---------------------------------------------------------------------------
# the property
# ---------------------------------------------------------------------------

VOCAB = [b"a", b"b", b"c", b"d", b"e", b"f"]
ABSENT = b"never-indexed"
QUERIES = [
    Query.single(b"a"),
    Query.single(b"a", b"b"),
    Query.single(b"c", ABSENT),  # an empty set stops the set early
    Query.single(b"b", Term(b"c", negative=True)),
    Query.of(IntersectionSet.of(b"d", b"e"), IntersectionSet.of(b"f")),
    Query.of(IntersectionSet.of(b"a"), IntersectionSet.of(Term(b"b", negative=True))),
]
PARAMS = [
    IndexParams(hash_rows=4),
    # a 4-address buffer spills 4-address leaves: NIL padding in every one
    IndexParams(hash_rows=8, memory_buffer_addrs=4),
    IndexParams(hash_rows=2, num_hash_functions=1),
]

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("pages"),
            st.sets(st.sampled_from(VOCAB), min_size=1),
            st.integers(1, 48),
        ),
        st.just(("flush",)),
        st.just(("flush_all",)),
        st.just(("restore",)),
    ),
    max_size=24,
)


def _restored(index: InvertedIndex, flash, params, seed) -> InvertedIndex:
    """A fresh index over the same flash, rebuilt from JSON images of the
    old one's in-memory side (as ``open_store`` does)."""
    image = json.loads(json.dumps({
        "data_pages": list(index.data_pages),
        "table": index.table.to_state(),
        "leaves": index.store.leaves.to_state(),
        "roots": index.store.roots.to_state(),
    }))
    again = InvertedIndex(flash, params, seed=seed)
    again._data_pages = image["data_pages"]
    again.table.restore_state(image["table"])
    again.store.leaves.restore_state(image["leaves"])
    again.store.roots.restore_state(image["roots"])
    return again


@settings(max_examples=60, deadline=None)
@given(params=st.sampled_from(PARAMS), seed=st.integers(0, 3), ops=_ops)
def test_node_reads_equal_the_per_leaf_traversal(params, seed, ops):
    flash = FlashArray(StorageParams(capacity_pages=1 << 14))
    index = InvertedIndex(flash, params, seed=seed)
    clock = 0.0
    for op in ops:
        if op[0] == "pages":
            _, tokens, count = op
            for _ in range(count):
                # data pages share the flash with the index's node pages
                index.index_page(flash.append_page(Page(b"data")), sorted(tokens))
        elif op[0] == "flush":
            clock += 1.0
            index.flush(clock)
        elif op[0] == "flush_all":
            index.table.flush_all(index.store)
        else:
            index = _restored(index, flash, params, seed)

    for token in VOCAB + [ABSENT]:
        assert _recorded(flash, lambda: index.lookup_token(token)) == _recorded(
            flash, lambda: oracle_lookup(index, token)
        )
    heads = {row.head_root for row in index.table._rows.values()} - {NIL}
    for head in sorted(heads):
        walk, reads = _recorded(flash, lambda: index.store.walk(head))
        assert ((walk.addresses, walk.root_visits), reads) == _recorded(
            flash, lambda: oracle_walk(index.store, head)
        )
    for query in QUERIES:
        result, reads = _recorded(flash, lambda: index.candidate_pages(query))
        (pages, stats), oracle_reads = _recorded(
            flash, lambda: oracle_candidates(index, query)
        )
        assert result.pages == pages
        assert asdict(result.stats) == asdict(stats)
        assert reads == oracle_reads

    # every leaf the store wrote (flush padding slots included)
    for node_id in range(index.store.leaves._next_node_id):
        blob = index.store.leaves.read(node_id)
        assert leaf_addresses(blob) == unpack_leaf(blob)


def test_a_row_with_a_list_and_spilled_partial_leaves_reads_in_order():
    """One fixed sequence the property reaches only now and then: a row
    holds both a list of trees and partial-root leaves already on flash,
    and its leaves carry NIL padding, after a restore."""
    params = PARAMS[1]
    flash = FlashArray(StorageParams(capacity_pages=1 << 14))
    index = InvertedIndex(flash, params, seed=1)
    for tokens, count in (([b"a", b"b"], 300), ([b"a"], 30), ([b"c"], 300)):
        for _ in range(count):
            index.index_page(flash.append_page(Page(b"data")), tokens)
        if count == 300 and tokens != [b"c"]:
            index.table.flush_all(index.store)
            index = _restored(index, flash, params, 1)
    leaves = index.store.leaves
    on_flash = leaves.pages_spilled * leaves.slots_per_page
    assert any(
        row.head_root != NIL and row.partial_root and min(row.partial_root) < on_flash
        for row in index.table._rows.values()
    )
    for token in VOCAB:
        fast = _recorded(flash, lambda: index.lookup_token(token))
        assert fast == _recorded(flash, lambda: oracle_lookup(index, token))
    (pages, visits), reads = _recorded(flash, lambda: index.lookup_token(b"a"))
    assert visits > 1 and len(pages) >= 330 and reads
    blob = leaves.read(leaves._next_node_id - 1)  # a 4-address leaf
    assert len(leaf_addresses(blob)) == 4 and leaf_addresses(blob) == unpack_leaf(blob)
