"""Equivalence suite for the rewritten hot-path kernels.

The scan hot path (tokenizer, hash-filter batch kernel, LZAH decoder)
was rewritten for host speed; each rewrite keeps a byte-at-a-time
reference implementation, and this suite pins the fast paths to those
references on synthetic and adversarial inputs — empty pages,
delimiter-only lines, max-length tokens, every byte value.
"""

import random

import pytest

from repro.compression.lzah import LZAHCompressor
from repro.core.hashfilter import HashFilter, LineEvaluator, compile_queries
from repro.core.query import parse_query
from repro.core.tokenizer import (
    split_tokens,
    split_tokens_reference,
    tokenize_page,
)
from repro.datasets.synthetic import generator_for
from repro.errors import CompressedFormatError
from repro.params import LZAHParams
from repro.system.mithrilog import MithriLogSystem

ADVERSARIAL_LINES = [
    b"",
    b"\n",
    b" ",
    b"\t",
    b" \t \t ",  # delimiter-only
    b"\t\t\t\t\t\t\t\t",
    b"one",
    b" leading",
    b"trailing ",
    b"a b\tc  d\t\te",
    b"x" * 4096,  # max-length token
    b"x" * 4096 + b" " + b"y" * 4096,
    b"tab\tseparated\tcolumns\there",
    b"ends with newline\n",
    b"\tstarts with tab",
    b"null\x00byte inside",
    bytes(range(1, 256)).replace(b"\n", b""),  # every byte but the terminator
]


class TestTokenizer:
    @pytest.mark.parametrize("line", ADVERSARIAL_LINES)
    def test_adversarial_lines_match_reference(self, line):
        assert split_tokens(line) == split_tokens_reference(line)

    def test_random_lines_match_reference(self):
        rng = random.Random(11)
        alphabet = b"abcXYZ019 \t\t  "
        for _ in range(500):
            line = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            assert split_tokens(line) == split_tokens_reference(line), line

    def test_tokenize_page_matches_per_line_path(self):
        rng = random.Random(12)
        alphabet = b"abcXYZ019 \t "
        for _ in range(100):
            lines = [
                bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
                for _ in range(rng.randint(0, 30))
            ]
            payload = b"".join(ln + b"\n" for ln in lines)
            raw_lines, token_lists = tokenize_page(payload)
            assert raw_lines == payload.splitlines()
            assert token_lists == [split_tokens(ln) for ln in raw_lines]

    def test_tokenize_page_empty_and_delimiter_only_pages(self):
        for payload in (b"", b"\n", b"\n\n\n", b" \t \n\t\t\n", b"\t\n" * 50):
            raw_lines, token_lists = tokenize_page(payload)
            assert raw_lines == payload.splitlines()
            assert token_lists == [split_tokens(ln) for ln in raw_lines]

    def test_raw_lines_keep_tabs(self):
        # kept lines must be the raw bytes; only token *matching* sees
        # the tab->space translation
        raw_lines, token_lists = tokenize_page(b"a\tb\n")
        assert raw_lines == [b"a\tb"]
        assert token_lists == [[b"a", b"b"]]


def _random_token_lists(rng, vocabulary, lines):
    return [
        [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        for _ in range(lines)
    ]


def per_token_verdicts(program, tokens):
    """The batch kernel's reference: one line's tokens fed one at a time
    through a :class:`LineEvaluator`."""
    evaluator = LineEvaluator(program)
    for token in tokens:
        evaluator.feed(token)
    return evaluator.query_verdicts()


class TestHashFilterBatchKernel:
    QUERIES = [
        parse_query('"alpha"'),
        parse_query('"beta" AND "gamma"'),
        parse_query('"delta" OR "alpha"'),
        parse_query('"epsilon" AND NOT "beta"'),
    ]

    def _program(self):
        return compile_queries(tuple(self.QUERIES), seed=0)

    def test_batch_verdicts_match_per_token_path(self):
        rng = random.Random(21)
        vocabulary = [
            b"alpha", b"beta", b"gamma", b"delta", b"epsilon",
            b"zeta", b"noise", b"x" * 300,
        ]
        token_lists = _random_token_lists(rng, vocabulary, 2000)
        program = self._program()
        fast = HashFilter(program).evaluate_token_lists(token_lists)
        assert fast == [per_token_verdicts(program, tokens) for tokens in token_lists]

    def test_batch_verdicts_match_query_oracles(self):
        rng = random.Random(22)
        vocabulary = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"n"]
        token_lists = _random_token_lists(rng, vocabulary, 500)
        verdicts = HashFilter(self._program()).evaluate_token_lists(token_lists)
        for tokens, verdict in zip(token_lists, verdicts):
            want = tuple(q.matches_tokens(tokens) for q in self.QUERIES)
            assert verdict == want, tokens

    def test_batch_counters_match_serial(self):
        token_lists = [[b"alpha"], [], [b"beta", b"gamma"]]
        batched = HashFilter(self._program())
        batched.evaluate_token_lists(token_lists)
        per_line = HashFilter(self._program())
        for tokens in token_lists:
            per_line.evaluate_token_lists([tokens])
        assert batched.lines_processed == per_line.lines_processed == 3
        assert batched.tokens_processed == per_line.tokens_processed == 3

    def test_empty_batch(self):
        assert HashFilter(self._program()).evaluate_token_lists([]) == []


class TestLZAHDecoder:
    def _codec(self, **overrides):
        return LZAHCompressor(LZAHParams(**overrides)) if overrides else LZAHCompressor()

    @pytest.mark.parametrize(
        "payload",
        [
            b"",
            b"\n",
            b"a\n",
            b"one line\n",
            b"the same line\n" * 200,
            b"\t\t\t\n \n" * 40,
            (b"x" * 4096 + b"\n") * 3,
            bytes(range(256)) * 16,
        ],
    )
    def test_adversarial_roundtrip(self, payload):
        codec = self._codec()
        blob = codec.compress(payload)
        assert codec.decompress(blob) == payload
        assert codec.decompress_into(blob) == payload

    def test_fast_decode_matches_word_reference(self):
        rng = random.Random(31)
        codec = self._codec()
        words = [b"alpha", b"beta", b"gamma", b"longer-token-here", b"1", b""]
        for _ in range(100):
            payload = b"".join(
                b" ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
                + b"\n"
                for _ in range(rng.randint(0, 40))
            )
            blob = codec.compress(payload)
            fast = codec.decompress_into(blob)
            via_words = b"".join(
                consumed for consumed, _padded in codec.decompress_words(blob)
            )
            assert via_words == fast
            assert fast == payload

    def test_corrupt_blob_raises_same_error_as_reference(self):
        codec = self._codec()
        blob = bytearray(codec.compress(b"hello corruptible world\n" * 50))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CompressedFormatError) as reference:
            list(codec.decompress_words(bytes(blob)))
        with pytest.raises(CompressedFormatError) as fast:
            codec.decompress_into(bytes(blob))
        assert str(fast.value) == str(reference.value)

    def test_truncated_blob_raises(self):
        codec = self._codec()
        blob = codec.compress(b"some text that compresses\n" * 20)
        with pytest.raises(CompressedFormatError):
            codec.decompress(blob[: len(blob) // 2])


class TestScanInvariance:
    """``scan_all`` is invariant across workers × kernel variants.

    The tentpole guarantee: results, per-query counts, and every
    *simulated* stat (breakdown, bottleneck attribution, deterministic
    profile) are identical whether the scan runs the reference or the
    vectorized kernel, inline or fanned out over a pool. Only host
    wall-clock may differ.
    """

    QUERIES = (
        parse_query("session AND opened"),
        parse_query("root OR admin"),
        parse_query("session AND NOT root"),
    )

    @pytest.fixture(scope="class")
    def corpus(self):
        pytest.importorskip("numpy")  # every test here pins "vectorized"
        return list(generator_for("Liberty2", seed=13).iter_lines(2500))

    def run_variant(self, corpus, workers, kernel, queries=None, offloaded=True):
        system = MithriLogSystem(seed=13, cache_pages=0, scan_kernel=kernel)
        system.ingest(corpus)
        outcome = system.scan_all(*(queries or self.QUERIES), workers=workers)
        assert system.engine.offloaded is offloaded
        system.close()
        stats = outcome.stats
        return {
            "matches": outcome.matched_lines,
            "per_query": outcome.per_query_counts,
            "breakdown": stats.breakdown,
            "bottleneck": stats.bottleneck,
            "profile": stats.profile,
            "counts": (
                stats.pages_read,
                stats.bytes_from_flash,
                stats.bytes_decompressed,
                stats.bytes_to_host,
                stats.lines_seen,
                stats.lines_kept,
            ),
        }

    def test_results_and_stats_invariant(self, corpus):
        variants = {
            (workers, kernel): self.run_variant(corpus, workers, kernel)
            for workers in (1, 4)
            for kernel in ("reference", "vectorized")
        }
        base = variants[(1, "reference")]
        assert base["matches"], "scan matched nothing; invariance check is vacuous"
        assert len(base["per_query"]) == len(self.QUERIES)
        for key, variant in variants.items():
            assert variant == base, f"variant {key} diverged from (1, reference)"

    def test_software_fallback_invariance(self, corpus):
        """A program that exceeds hardware provisioning (more
        intersection sets than flag pairs) runs in software — there the
        vectorized kernel routes through the softmatch batch matcher,
        and the same workers × kernel invariance must hold."""
        from collections import Counter

        from repro.core.tokenizer import split_tokens

        frequency = Counter(
            t for line in corpus for t in set(split_tokens(line))
        )
        tokens = [
            t.decode()
            for t, n in frequency.most_common()
            if n < len(corpus) and t.isalnum()
        ]
        queries = tuple(parse_query(f'"{t}"') for t in tokens[:10])
        variants = {
            (workers, kernel): self.run_variant(
                corpus, workers, kernel, queries=queries, offloaded=False
            )
            for workers in (1, 4)
            for kernel in ("reference", "vectorized")
        }
        base = variants[(1, "reference")]
        assert base["matches"], "scan matched nothing; invariance check is vacuous"
        assert len(base["per_query"]) == len(queries)
        for key, variant in variants.items():
            assert variant == base, f"variant {key} diverged from (1, reference)"

    def test_scan_kernel_argument_is_honoured(self, corpus):
        # the constructor argument is the one switch; None means auto
        for kernel, resolved in (
            (None, "vectorized"),
            ("auto", "vectorized"),
            ("reference", "reference"),
        ):
            system = MithriLogSystem(scan_kernel=kernel)
            assert system.scan_spec().kernel == resolved
        pinned = self.run_variant(corpus, workers=1, kernel="reference")
        assert pinned == self.run_variant(corpus, workers=1, kernel=None)
