"""Tests for FT-tree extraction and the Section 4.3 query compiler."""

import pytest

from repro.core.query import Term
from repro.core.tagger import TemplateTagger
from repro.errors import QueryError
from repro.templates.fttree import FTTree, FTTreeParams, Template


def figure7_corpus():
    """A corpus realising the paper's Figure 7 tree.

    Global frequency order must be A > B > C > D > E. Three templates:
    T1 = {A, B}, T2 = {A, C, D} (a prefix of T3's path), T3 = {A, C, D, E}.
    """
    lines = []
    lines += [b"A B"] * 10
    lines += [b"A C D"] * 6
    lines += [b"A C D E"] * 4
    # frequencies: A=20, B=10, C=10, D=10, E=4 -> tie-break B < C < D by name
    return lines


class TestFigure7:
    @pytest.fixture
    def tree(self):
        return FTTree.from_lines(figure7_corpus(), FTTreeParams(prune_threshold=8))

    def test_frequency_order(self, tree):
        f = tree.frequencies
        assert f[b"A"] == 20
        assert f[b"A"] > f[b"B"] >= f[b"C"] >= f[b"D"] > f[b"E"]

    def test_three_templates_extracted(self, tree):
        paths = {t.tokens for t in tree.templates}
        assert (b"A", b"B") in paths
        assert (b"A", b"C", b"D") in paths
        assert (b"A", b"C", b"D", b"E") in paths
        assert len(paths) == 3

    def test_template1_query_needs_no_negation(self, tree):
        t1 = next(t for t in tree.templates if t.tokens == (b"A", b"B"))
        query = tree.template_query(t1)
        terms = query.intersections[0].terms
        # C is a lower-frequency sibling of B: no negation needed (paper)
        assert set(terms) == {Term(b"A"), Term(b"B")}

    def test_template3_query_negates_higher_frequency_sibling(self, tree):
        t3 = next(t for t in tree.templates if t.tokens == (b"A", b"C", b"D", b"E"))
        query = tree.template_query(t3)
        terms = set(query.intersections[0].terms)
        # paper: ((A and C and not B) and D and E)
        assert terms == {
            Term(b"A"),
            Term(b"C"),
            Term(b"B", negative=True),
            Term(b"D"),
            Term(b"E"),
        }

    def test_joined_queries_form_single_offloadable_union(self, tree):
        t1 = next(t for t in tree.templates if t.tokens == (b"A", b"B"))
        t3 = next(t for t in tree.templates if t.tokens == (b"A", b"C", b"D", b"E"))
        joined = tree.template_query(t1) | tree.template_query(t3)
        assert len(joined.intersections) == 2
        assert joined.matches_line(b"A B extra")
        assert joined.matches_line(b"A C D E")
        assert not joined.matches_line(b"A C D")  # T2, matches neither

    def test_queries_discriminate_corpus_lines(self, tree):
        t1 = next(t for t in tree.templates if t.tokens == (b"A", b"B"))
        q1 = tree.template_query(t1)
        for line in figure7_corpus():
            assert q1.matches_line(line) == (line == b"A B")


class TestPruning:
    def test_variable_field_collapses(self):
        # 'user' appears everywhere; the user id varies wildly
        lines = [f"login user u{i}".encode() for i in range(50)] * 2
        tree = FTTree.from_lines(lines, FTTreeParams(prune_threshold=8))
        # one template: {login, user} with the ids pruned into a wildcard
        paths = {t.tokens for t in tree.templates}
        assert any(set(p) == {b"login", b"user"} for p in paths)
        assert all(
            not any(tok.startswith(b"u") and tok[1:].isdigit() for tok in p)
            for p in paths
        )

    def test_structure_below_wildcard_survives(self):
        # variable middle field, but a constant rare token below it
        lines = [f"connect port-{i} zfinal".encode() for i in range(40)]
        tree = FTTree.from_lines(lines, FTTreeParams(prune_threshold=8, min_support=10))
        paths = {t.tokens for t in tree.templates}
        assert any(b"zfinal" in p for p in paths)

    def test_min_support_filters_rare_paths(self):
        lines = [b"common alpha"] * 10 + [b"common beta"]
        tree = FTTree.from_lines(lines, FTTreeParams(min_support=2))
        paths = {t.tokens for t in tree.templates}
        assert (b"common", b"alpha") in paths
        assert all(b"beta" not in p for p in paths)


class TestClassification:
    def test_lines_classify_to_their_template(self):
        corpus = figure7_corpus()
        tree = FTTree.from_lines(corpus, FTTreeParams(prune_threshold=8))
        t = tree.classify_line(b"A B")
        assert t is not None and t.tokens == (b"A", b"B")

    def test_a_bare_cr_ends_a_line_when_mining_and_tagging(self):
        # the stored page holds "A C D" and " E" as two lines
        corpus = [b"A B"] * 10 + [b"A C D\r E"] * 6
        tree = FTTree.from_lines(corpus, FTTreeParams(prune_threshold=8))
        assert all(b"\r" not in tok for t in tree.templates for tok in t.tokens)
        assert sum(tree.frequencies.values()) == 10 * 2 + 6 * 4
        template = tree.classify_line(b"A C D\r E")
        assert template == tree.classify_line(b"A C D E")
        tagger = TemplateTagger.from_tree(tree)
        assert tagger.tag_line(b"A C D\r E") == template.template_id

    def test_unknown_line_classifies_none_or_partial(self):
        tree = FTTree.from_lines(figure7_corpus(), FTTreeParams(prune_threshold=8))
        assert tree.classify_line(b"X Y Z") is None


class TestStopwords:
    def test_universal_tokens_filtered_when_enabled(self):
        lines = [f"HDR always u{i}".encode() for i in range(20)] * 2
        tree = FTTree.from_lines(
            lines, FTTreeParams(max_doc_frequency=0.9, prune_threshold=8)
        )
        assert b"HDR" in tree.stopwords
        assert all(b"HDR" not in t.tokens for t in tree.templates)

    def test_disabled_by_default(self):
        lines = [b"HDR msg"] * 10
        tree = FTTree.from_lines(lines)
        assert tree.stopwords == frozenset()
        assert any(b"HDR" in t.tokens for t in tree.templates)

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            FTTreeParams(max_doc_frequency=0.0)
        with pytest.raises(ValueError):
            FTTreeParams(max_doc_frequency=1.5)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            FTTreeParams(max_depth=0)
        with pytest.raises(ValueError):
            FTTreeParams(prune_threshold=1)
        with pytest.raises(ValueError):
            FTTreeParams(min_support=0)

    def test_template_str(self):
        t = Template(template_id=3, tokens=(b"A", b"B"), support=7)
        assert "T3" in str(t) and "A B" in str(t)

    def test_template_query_rejects_missing_token(self):
        tree = FTTree.from_lines(figure7_corpus())
        fake = Template(template_id=99, tokens=(b"ZZZ",), support=5)
        with pytest.raises(QueryError):
            tree.template_query(fake)
