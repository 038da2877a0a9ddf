"""Tests for the query workload generator."""

import pytest

from repro.core.query import Query
from repro.errors import QueryError
from repro.templates.fttree import FTTree, FTTreeParams
from repro.templates.querygen import build_workload, combine


def corpus():
    lines = []
    lines += [f"sshd auth failure user u{i}".encode() for i in range(30)]
    lines += [f"kernel panic cpu {i}".encode() for i in range(20)]
    lines += [b"cron job started"] * 15
    return lines


class TestQueryWorkload:
    @pytest.fixture
    def tree(self):
        return FTTree.from_lines(corpus(), FTTreeParams(prune_threshold=8))

    def test_workload_shapes(self, tree):
        workload = build_workload(tree, num_pairs=10, num_eights=4)
        assert len(workload.pairs) == 10
        assert len(workload.eights) == 4
        assert len(workload.singles) == len(tree.templates)
        assert workload.total_queries() == len(workload.singles) + 14

    def test_workload_deterministic(self, tree):
        w1 = build_workload(tree, seed=7)
        w2 = build_workload(tree, seed=7)
        assert w1.pairs == w2.pairs
        assert w1.eights == w2.eights

    def test_different_seeds_differ(self, tree):
        w1 = build_workload(tree, seed=1, num_pairs=20)
        w2 = build_workload(tree, seed=2, num_pairs=20)
        assert w1.pairs != w2.pairs

    def test_pairs_are_unions_of_two(self, tree):
        workload = build_workload(tree, num_pairs=5)
        for pair in workload.pairs:
            assert len(pair.intersections) >= 2

    def test_combo_semantics_is_or(self, tree):
        workload = build_workload(tree, num_pairs=5, num_eights=2)
        q = workload.pairs[0]
        line = b"cron job started"
        memberwise = any(
            single.matches_line(line)
            and set(single.intersections).issubset(set(q.intersections))
            for single in workload.singles
        )
        if memberwise:
            assert q.matches_line(line)

    def test_batches_map(self, tree):
        workload = build_workload(tree, num_pairs=3, num_eights=2)
        batches = workload.all_batches
        assert set(batches) == {1, 2, 8}
        assert batches[2] == workload.pairs

    def test_max_singles_truncates(self, tree):
        workload = build_workload(tree, max_singles=1)
        assert len(workload.singles) == 1

    def test_combine_empty_rejected(self):
        with pytest.raises(QueryError):
            combine([])

    def test_combine_single(self):
        q = Query.single("x")
        assert combine([q]) == q
