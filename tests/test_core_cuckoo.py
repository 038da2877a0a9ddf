"""Tests for the cuckoo hash table (Figure 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cuckoo import CuckooHashTable
from repro.errors import CapacityError, PlacementError
from repro.params import CuckooParams


@pytest.fixture
def table():
    return CuckooHashTable()


class TestBasicOperations:
    def test_insert_then_lookup(self, table):
        row = table.add_term(b"RAS", iset_index=0, negative=False)
        found = table.lookup(b"RAS")
        assert found is not None
        assert found[0] == row
        assert found[1].token == b"RAS"

    def test_lookup_missing_returns_none(self, table):
        assert table.lookup(b"nothing") is None

    def test_flags_recorded(self, table):
        table.add_term(b"FATAL", iset_index=2, negative=True)
        _, entry = table.lookup(b"FATAL")
        assert entry.flags[2].valid and entry.flags[2].negative
        assert not entry.flags[0].valid

    def test_same_token_multiple_sets_merges(self, table):
        row1 = table.add_term(b"RAS", 0, negative=False)
        row2 = table.add_term(b"RAS", 1, negative=True)
        assert row1 == row2
        assert table.occupied == 1
        _, entry = table.lookup(b"RAS")
        assert entry.flags[0].valid and not entry.flags[0].negative
        assert entry.flags[1].valid and entry.flags[1].negative

    def test_conflicting_polarity_same_set_rejected(self, table):
        table.add_term(b"A", 0, negative=False)
        with pytest.raises(PlacementError):
            table.add_term(b"A", 0, negative=True)

    def test_flag_pair_bound_enforced(self, table):
        with pytest.raises(CapacityError):
            table.add_term(b"A", iset_index=8, negative=False)
        with pytest.raises(CapacityError):
            table.add_term(b"A", iset_index=-1, negative=False)

    def test_lookup_candidates_only_two_rows(self, table):
        r0, r1 = table.candidate_rows(b"token")
        assert 0 <= r0 < 256 and 0 <= r1 < 256


class TestOverflow:
    def test_short_token_uses_no_overflow(self, table):
        table.add_term(b"x" * 16, 0, negative=False)
        assert table.overflow_used == 0

    def test_long_token_reserves_overflow(self, table):
        table.add_term(b"x" * 17, 0, negative=False)
        assert table.overflow_used == 1
        table.add_term(b"y" * 48, 0, negative=False)
        assert table.overflow_used == 3

    def test_overflow_exhaustion_raises(self):
        params = CuckooParams(overflow_rows=2)
        table = CuckooHashTable(params)
        table.add_term(b"a" * 32, 0, negative=False)  # 1 row
        with pytest.raises(CapacityError):
            table.add_term(b"b" * 64, 0, negative=False)  # needs 3 more


class TestLoadFactorAndDisplacement:
    def test_load_factor_tracks_occupancy(self, table):
        for i in range(64):
            table.add_term(f"tok{i}".encode(), 0, negative=False)
        assert table.occupied == 64
        assert table.load_factor == pytest.approx(0.25)

    def test_fill_to_half_load_succeeds(self):
        # cuckoo hashing statistically succeeds at load factor <= 0.5
        table = CuckooHashTable()
        for i in range(128):
            table.add_term(f"token-{i}".encode(), i % 8, negative=False)
        assert table.load_factor == pytest.approx(0.5)

    def test_past_max_load_factor_rejected(self):
        params = CuckooParams(rows=16, max_load_factor=0.5)
        table = CuckooHashTable(params)
        for i in range(8):
            table.add_term(f"t{i}".encode(), 0, negative=False)
        with pytest.raises(PlacementError):
            table.add_term(b"one-too-many", 0, negative=False)

    def test_all_inserted_tokens_remain_findable_after_kicks(self):
        table = CuckooHashTable()
        tokens = [f"displacement-test-{i}".encode() for i in range(100)]
        for t in tokens:
            table.add_term(t, 0, negative=False)
        for token in tokens:
            found = table.lookup(token)
            assert found is not None
            assert found[1].token == token

    def test_entries_enumeration(self, table):
        table.add_term(b"A", 0, negative=False)
        table.add_term(b"B", 1, negative=True)
        entries = table.entries()
        assert len(entries) == 2
        assert {e.token for _, e in entries} == {b"A", b"B"}


class TestCuckooProperties:
    @given(
        st.sets(
            st.binary(min_size=1, max_size=24).filter(
                lambda t: not any(d in t for d in b" \t\n")
            ),
            max_size=100,
        )
    )
    @settings(max_examples=50)
    def test_insert_lookup_consistency(self, tokens):
        table = CuckooHashTable()
        placed = {}
        for i, token in enumerate(sorted(tokens)):
            placed[token] = table.add_term(token, i % 8, negative=False)
        for token, row in placed.items():
            found = table.lookup(token)
            assert found is not None
            # entries stay within their two candidate rows
            assert found[0] in table.candidate_rows(token)

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=100)
    def test_hashes_deterministic(self, token):
        t1, t2 = CuckooHashTable(), CuckooHashTable()
        assert t1.candidate_rows(token) == t2.candidate_rows(token)

    def test_different_seeds_give_different_placement(self):
        tokens = [f"seed-check-{i}".encode() for i in range(40)]
        rows_a = [CuckooHashTable(seed=1).candidate_rows(t) for t in tokens]
        rows_b = [CuckooHashTable(seed=2).candidate_rows(t) for t in tokens]
        assert rows_a != rows_b
