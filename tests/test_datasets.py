"""Tests for the synthetic dataset generators and corpus loader."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.grep import grep_lines
from repro.core.query import Query
from repro.datasets.loader import chunk_lines_into_pages, read_log_lines
from repro.datasets.schema import DATASET_SPECS
from repro.datasets.synthetic import all_generators, generator_for
from repro.errors import IngestError
from repro.system.mithrilog import MithriLogSystem


class TestSchema:
    def test_table1_values(self):
        assert DATASET_SPECS["BGL2"].paper_templates == 93
        assert DATASET_SPECS["Liberty2"].paper_templates == 197
        assert DATASET_SPECS["Spirit2"].paper_templates == 241
        assert DATASET_SPECS["Thunderbird"].paper_templates == 125

    def test_avg_line_lengths_plausible(self):
        for spec in DATASET_SPECS.values():
            assert 80 < spec.avg_line_bytes < 200

    def test_scaling(self):
        spec = DATASET_SPECS["BGL2"]
        assert spec.scaled_lines(0.001) == 4700
        with pytest.raises(ValueError):
            spec.scaled_lines(0.0)


class TestGenerators:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            generator_for("nope")

    def test_deterministic_per_seed(self):
        a = generator_for("BGL2", seed=5).generate(50)
        b = generator_for("BGL2", seed=5).generate(50)
        assert a == b

    def test_seeds_differ(self):
        a = generator_for("BGL2", seed=1).generate(50)
        b = generator_for("BGL2", seed=2).generate(50)
        assert a != b

    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    def test_line_shape(self, name):
        lines = generator_for(name).generate(200)
        assert len(lines) == 200
        for line in lines:
            assert b"\n" not in line
            fields = line.split()
            assert len(fields) >= 6
            assert fields[1].isdigit()  # epoch column

    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    def test_mean_line_length_near_table1(self, name):
        lines = generator_for(name).generate(2000)
        mean = sum(len(ln) + 1 for ln in lines) / len(lines)
        target = DATASET_SPECS[name].avg_line_bytes
        assert 0.5 * target < mean < 1.8 * target

    def test_timestamps_monotone(self):
        lines = generator_for("Liberty2").generate(500)
        epochs = [int(ln.split()[1]) for ln in lines]
        assert epochs == sorted(epochs)

    def test_template_skew(self):
        # Zipf weighting: the most common message dominates the rarest
        gen = generator_for("Thunderbird")
        lines = gen.generate(5000)
        from collections import Counter

        # bucket by the facility token (field 8 of the syslog format)
        facilities = Counter(ln.split()[8] for ln in lines if len(ln.split()) > 8)
        counts = facilities.most_common()
        assert counts[0][1] > 10 * counts[-1][1]

    def test_variable_fields_vary(self):
        lines = generator_for("BGL2").generate(300)
        nodes = {ln.split()[3] for ln in lines}
        assert len(nodes) > 50

    def test_all_generators_cover_specs(self):
        gens = all_generators()
        assert set(gens) == set(DATASET_SPECS)

    def test_fttree_recovers_templates(self):
        from repro.templates.fttree import FTTree, FTTreeParams

        gen = generator_for("Liberty2")
        lines = gen.generate(4000)
        tree = FTTree.from_lines(lines, FTTreeParams(max_depth=6, prune_threshold=12))
        # scaled corpora won't hit Table 1's 197, but the library must be
        # substantial and smaller than the line count by orders of magnitude
        assert 10 <= len(tree.templates) <= 400

    def test_generate_text_newline_terminated(self):
        text = generator_for("BGL2").generate_text(10)
        assert text.endswith(b"\n")
        assert len(text.splitlines()) == 10


class TestLoader:
    def test_read_log_lines_roundtrip(self, tmp_path):
        path = tmp_path / "x.log"
        path.write_bytes(b"one\ntwo\n\nthree\n")
        assert read_log_lines(path) == [b"one", b"two", b"", b"three"]
        path.write_bytes(b"node1 kernel panic\r\nnode2 disk ok\r\n")
        lines = read_log_lines(path)
        assert lines == [b"node1 kernel panic", b"node2 disk ok"]
        system = MithriLogSystem()
        system.ingest(lines)
        query = Query.single(b"panic")
        assert system.query(query).matched_lines == grep_lines(query, lines)
        assert grep_lines(query, lines) == [b"node1 kernel panic"]

    def test_a_bare_cr_ends_a_line_as_a_stored_page_ends_it(self, tmp_path):
        path = tmp_path / "x.log"
        text = b"node1 kernel panic\rnode2 disk ok\r\n\rtail"
        path.write_bytes(text)
        lines = read_log_lines(path)
        assert lines == text.splitlines() == [
            b"node1 kernel panic", b"node2 disk ok", b"", b"tail"
        ]
        system = MithriLogSystem()
        system.ingest(lines)  # ingest refuses a line holding a line end
        assert system.query(Query.single(b"ok")).matched_lines == [b"node2 disk ok"]

    def test_read_limit(self, tmp_path):
        path = tmp_path / "x.log"
        path.write_bytes(b"a\nb\nc\n")
        assert read_log_lines(path, limit=2) == [b"a", b"b"]
        path.write_bytes(b"a\rb\rc\n")
        assert read_log_lines(path, limit=2) == [b"a", b"b"]

    def test_chunks_respect_budget(self):
        lines = [b"x" * 100] * 100
        for text, chunk in chunk_lines_into_pages(lines, page_bytes=1024):
            assert len(text) <= 1024
            assert text == b"".join(ln + b"\n" for ln in chunk)

    def test_chunks_break_at_line_boundaries(self):
        lines = [b"abc", b"de", b"fghi"]
        chunks = list(chunk_lines_into_pages(lines, page_bytes=8))
        rebuilt = [ln for _, chunk in chunks for ln in chunk]
        assert rebuilt == lines
        for text, _ in chunks:
            assert text.endswith(b"\n")

    def test_oversized_line_rejected(self):
        with pytest.raises(IngestError):
            list(chunk_lines_into_pages([b"x" * 5000], page_bytes=4096))

    def test_target_fill_scales_budget(self):
        lines = [b"y" * 100] * 10
        loose = list(chunk_lines_into_pages(lines, page_bytes=256, target_fill=2.0))
        tight = list(chunk_lines_into_pages(lines, page_bytes=256, target_fill=1.0))
        assert len(loose) < len(tight)

    @given(st.lists(st.binary(max_size=64).filter(lambda ln: b"\n" not in ln), max_size=60))
    @settings(max_examples=60)
    def test_chunking_loses_nothing(self, lines):
        chunks = list(chunk_lines_into_pages(lines, page_bytes=256))
        rebuilt = [ln for _, chunk in chunks for ln in chunk]
        assert rebuilt == lines
        assert b"".join(t for t, _ in chunks) == b"".join(ln + b"\n" for ln in lines)
