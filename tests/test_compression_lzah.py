"""Unit and property tests for LZAH (Section 5).

``LZAHCompressor.compress`` pads each line to whole words and steps the
padded text. The encoder it replaced — one window a step, cut just after
a newline and zero-padded when short, then a per-pair loop setting header
bits — lives on here as the oracle, :func:`per_window_compress`: the
stream must equal it byte for byte.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.lzah import LZAHCompressor
from repro.core.backend import numpy_or_none
from repro.errors import CompressedFormatError
from repro.params import LZAHParams


@pytest.fixture
def codec():
    return LZAHCompressor()


LINE = b"Jul  5 12:00:01 sn352 kernel: RAS KERNEL INFO generating core.2275\n"


def per_window_compress(params: LZAHParams, data: bytes) -> bytes:
    """The deleted per-window encoder."""
    p = params
    table = [None] * p.hash_table_slots
    pairs = []
    w = p.word_bytes
    n = len(data)
    pos = 0
    while pos < n:
        end = min(pos + w, n)
        if p.newline_realign:
            nl = data.find(b"\n", pos, end)
            if nl != -1:
                end = nl + 1
        word = data[pos:end]
        pos = end
        word += b"\0" * (w - len(word))
        slot = zlib.crc32(word) & (p.hash_table_slots - 1)
        if table[slot] == word:
            pairs.append((True, slot.to_bytes(2, "little")))
        else:
            table[slot] = word
            pairs.append((False, word))
    body = bytearray()
    for base in range(0, len(pairs), p.pairs_per_chunk):
        chunk = pairs[base : base + p.pairs_per_chunk]
        header = 0
        for i, (is_match, _) in enumerate(chunk):
            if is_match:
                header |= 1 << i
        body.extend(header.to_bytes(p.pairs_per_chunk // 8, "little"))
        for _, payload in chunk:
            body.extend(payload)
        body.extend(b"\0" * (-len(body) % w))
    return (
        len(data).to_bytes(4, "little")
        + len(pairs).to_bytes(4, "little")
        + zlib.crc32(data).to_bytes(4, "little")
        + bytes(body)
    )


def header_counts(params: LZAHParams, stream: bytes) -> tuple:
    """``(pairs, matches)`` of a stream, read off its pair count and the
    set bits of its chunk headers."""
    w, per_chunk = params.word_bytes, params.pairs_per_chunk
    header_bytes = per_chunk // 8
    pairs = int.from_bytes(stream[4:8], "little")
    pos, matches = 12, 0
    for remaining in range(pairs, 0, -per_chunk):
        in_chunk = min(remaining, per_chunk)
        header = int.from_bytes(stream[pos : pos + header_bytes], "little")
        found = bin(header & ((1 << in_chunk) - 1)).count("1")
        size = header_bytes + 2 * found + (in_chunk - found) * w
        pos += size + -size % w
        matches += found
    return pairs, matches


#: word sizes × realignment × chunk sizes, each on a 4-slot table so that
#: words overwrite each other's slots all the time
ORACLE_PARAMS = [
    LZAHParams(
        word_bytes=w, newline_realign=realign, pairs_per_chunk=chunk, hash_table_bytes=4 * w
    )
    for w in (8, 16, 32)
    for realign in (True, False)
    for chunk in (8, 128)
]
PARAM_IDS = [
    f"w{p.word_bytes}-{'realign' if p.newline_realign else 'fixed'}-c{p.pairs_per_chunk}"
    for p in ORACLE_PARAMS
]


@st.composite
def page_texts(draw, word_bytes: int) -> bytes:
    """Arbitrary bytes, or lines drawn (with repeats) from a few of length
    0 (runs of ``\\n``), 1, w−1, w, w+1, 2w or any up to 3w, over an
    alphabet holding NUL, ``\\r`` and tab, with or without a trailing
    ``\\n``."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=400))
    w = word_bytes
    length = st.sampled_from([0, 1, w - 1, w, w + 1, 2 * w]) | st.integers(0, 3 * w)
    line = length.flatmap(
        lambda n: st.lists(st.sampled_from(b"ab \0\r\t\xff"), min_size=n, max_size=n).map(bytes)
    )
    pool = draw(st.lists(line, min_size=1, max_size=4))
    lines = draw(st.lists(st.sampled_from(pool), max_size=30))
    return b"\n".join(lines) + (b"\n" if draw(st.booleans()) else b"")


class TestEncoderOracle:
    """``compress`` against :func:`per_window_compress`."""

    @staticmethod
    def _assert_equal(params: LZAHParams, data: bytes) -> None:
        codec = LZAHCompressor(params)
        stream = per_window_compress(params, data)
        assert codec.compress(data) == stream
        assert codec.decompress(stream) == data

    @pytest.mark.parametrize("params", ORACLE_PARAMS, ids=PARAM_IDS)
    def test_edge_cases(self, params):
        w = params.word_bytes
        cases = [
            b"",
            b"\n",
            b"\n\n\n\n",
            b"no trailing newline",
            b"a" * (w - 1) + b"\n",
            b"a" * w + b"\n",
            b"a" * (w + 1) + b"\n",
            b"a" * (2 * w) + b"\n",
            b"b" * (w - 1),
            b"b" * w,
            b"b" * (w + 1),
            b"nul\0\0\0\nend\r\n\r\r\n" * 3,
            b"\0" * (3 * w),
            # 3 chunks at 8 pairs a chunk, the last one short
            b"".join(b"%d\n" % (i % 5) for i in range(21)),
        ]
        for data in cases:
            self._assert_equal(params, data)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle_on_arbitrary_text(self, data):
        params = data.draw(st.sampled_from(ORACLE_PARAMS))
        self._assert_equal(params, data.draw(page_texts(params.word_bytes)))

    def test_default_params_on_log_lines(self):
        self._assert_equal(LZAHParams(), LINE * 300 + b"tail without newline")


class TestParams:
    @pytest.mark.parametrize("pairs", [0, -8, 4, 12, 127])
    def test_pairs_per_chunk_must_be_a_positive_multiple_of_8(self, pairs):
        with pytest.raises(ValueError, match="multiple of 8"):
            LZAHParams(pairs_per_chunk=pairs)

    @pytest.mark.skipif(numpy_or_none() is None, reason="the bulk decoder needs numpy")
    @pytest.mark.parametrize("pairs", [8, 16, 136])
    def test_bulk_decoder_takes_every_valid_chunk_size(self, pairs):
        codec = LZAHCompressor(LZAHParams(pairs_per_chunk=pairs))
        data = LINE * 40 + b"short"
        decoded = codec._bulk_decode([codec.compress(data), codec.compress(LINE)])
        assert decoded is not None and bytes(decoded) == data + LINE


#: 8-byte words on a 4-slot table: every 7-byte line plus its ``\n`` is one
#: window, and a slot is two bits of the window's CRC
TINY = LZAHParams(word_bytes=8, hash_table_bytes=4 * 8, pairs_per_chunk=8)


def _tiny_slot(word: bytes) -> int:
    return zlib.crc32(word) & (TINY.hash_table_slots - 1)


def _two_words_one_slot() -> tuple:
    """Two different one-window lines whose words share a slot."""
    words = [b"line%03d\n" % i for i in range(32)]
    first = words[0]
    second = next(w for w in words[1:] if _tiny_slot(w) == _tiny_slot(first))
    return first, second


def _hand_stream(pairs, declared: bytes) -> bytes:
    """A one-chunk TINY stream: ``pairs`` are ``("match", slot)`` or
    ``("literal", word)``; ``declared`` sets the length and CRC fields."""
    header = sum(1 << i for i, (kind, _) in enumerate(pairs) if kind == "match")
    body = header.to_bytes(1, "little") + b"".join(
        value.to_bytes(2, "little") if kind == "match" else value for kind, value in pairs
    )
    return (
        len(declared).to_bytes(4, "little")
        + len(pairs).to_bytes(4, "little")
        + zlib.crc32(declared).to_bytes(4, "little")
        + body
    )


def _error(decode, *streams) -> str:
    with pytest.raises(CompressedFormatError) as info:
        decode(*streams)
    return str(info.value)


class TestSlotOverwrites:
    """What a match means when its slot has held more than one word."""

    def test_overwritten_slot_decodes_alike_on_both_decoders(self):
        a, b = _two_words_one_slot()
        data = a + a + b + b + a + a  # each word matched before and after it is replaced
        codec = LZAHCompressor(TINY)
        stream = codec.compress(data)
        assert header_counts(TINY, stream) == (6, 3)
        assert stream == per_window_compress(TINY, data)
        assert codec.decompress(stream) == data
        assert codec.decompress_into(stream) == data
        if numpy_or_none() is not None:
            assert bytes(codec._bulk_decode([stream])) == data

    def test_a_match_to_a_slot_written_only_later_is_refused(self):
        a, _b = _two_words_one_slot()
        stream = _hand_stream([("match", _tiny_slot(a)), ("literal", a)], a + a)
        codec = LZAHCompressor(TINY)
        message = _error(codec.decompress, stream)
        assert "empty slot" in message
        assert _error(codec.decompress_into, stream) == message
        if numpy_or_none() is not None:
            assert codec._bulk_decode([stream]) is None

    @pytest.mark.parametrize("match_first", [False, True], ids=["after", "before"])
    def test_a_match_to_a_slot_written_only_by_a_neighbour_is_refused(self, match_first):
        a, _b = _two_words_one_slot()
        codec = LZAHCompressor(TINY)
        neighbour = codec.compress(a)  # writes a's slot in its own stream only
        stream = _hand_stream([("match", _tiny_slot(a))], a)
        message = _error(codec.decompress, stream)
        run = (stream, neighbour) if match_first else (neighbour, stream)
        assert _error(codec.decompress_into, *run) == message
        if numpy_or_none() is not None:
            assert codec._bulk_decode(run) is None


class TestRoundTrip:
    def test_empty(self, codec):
        assert codec.decompress(codec.compress(b"")) == b""

    def test_short_line(self, codec):
        assert codec.decompress(codec.compress(b"hi\n")) == b"hi\n"

    def test_no_trailing_newline(self, codec):
        data = b"line one\nline two without newline"
        assert codec.decompress(codec.compress(data)) == data

    def test_repeated_lines(self, codec):
        data = LINE * 100
        assert codec.decompress(codec.compress(data)) == data

    def test_exact_word_multiple(self, codec):
        data = b"x" * 64
        assert codec.decompress(codec.compress(data)) == data

    def test_trailing_nul_bytes_preserved(self, codec):
        data = b"abc\n" + b"\0" * 10
        assert codec.decompress(codec.compress(data)) == data

    def test_empty_lines(self, codec):
        data = b"\n\n\na\n\n"
        assert codec.decompress(codec.compress(data)) == data

    def test_newline_at_word_boundary(self, codec):
        data = b"x" * 15 + b"\n" + b"y" * 16
        assert codec.decompress(codec.compress(data)) == data

    @given(st.binary(max_size=2048))
    @settings(max_examples=150)
    def test_roundtrip_arbitrary_bytes(self, data):
        codec = LZAHCompressor()
        assert codec.decompress(codec.compress(data)) == data

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=60,
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip_text_lines(self, lines):
        codec = LZAHCompressor()
        data = "\n".join(lines).encode()
        assert codec.decompress(codec.compress(data)) == data

    @given(st.integers(2, 32), st.integers(1, 8), st.binary(max_size=600))
    @settings(max_examples=60)
    def test_roundtrip_parameter_variants(self, word, chunk_exp, data):
        params = LZAHParams(
            word_bytes=word,
            pairs_per_chunk=8 * chunk_exp,
            hash_table_bytes=64 * word,
        )
        codec = LZAHCompressor(params)
        assert codec.decompress(codec.compress(data)) == data


class TestCompressionBehaviour:
    def test_repeated_lines_shrink_substantially(self, codec):
        data = LINE * 500
        ratio = len(data) / len(codec.compress(data))
        assert ratio > 3.0

    def test_newline_realignment_enables_matches(self):
        # lines whose shared prefix would be destroyed by pure word-stepping
        lines = [
            b"INFO fixed prefix of this line varies " + str(i).encode() + b"\n"
            for i in range(200)
        ]
        data = b"".join(lines)
        codec = LZAHCompressor()
        compressed = codec.compress(data)
        pairs, matches = header_counts(codec.params, compressed)
        assert matches / pairs > 0.3
        assert len(compressed) < len(data)

    def test_unique_data_expands_bounded(self, codec):
        import random

        rng = random.Random(3)
        data = bytes(rng.randrange(256) for _ in range(4096))
        compressed = codec.compress(data)
        # worst case ~ 1 header word per 128 pairs + full literal words
        assert len(compressed) < len(data) * 1.2 + 64

    def test_stats_track_matches_and_literals(self, codec):
        stream = codec.compress(LINE * 10)
        pairs, matches = header_counts(codec.params, stream)
        words_per_line = -(-len(LINE) // codec.params.word_bytes)
        assert pairs == 10 * words_per_line
        # the first line's words are literals, every later line matches
        assert matches == pairs - words_per_line

    def test_match_payloads_are_two_bytes(self):
        # all-matching stream compresses toward 16/2.125 ~ 7.5x
        data = (b"z" * 15 + b"\n") * 2000
        codec = LZAHCompressor()
        ratio = len(data) / len(codec.compress(data))
        assert 6.0 < ratio < 7.6


class TestWordStream:
    def test_words_are_zero_padded(self, codec):
        compressed = codec.compress(b"ab\ncdef\n")
        words = list(codec.decompress_words(compressed))
        assert words[0][1] == b"ab\n" + b"\0" * 13
        assert words[0][0] == b"ab\n"

    def test_full_words_unpadded(self, codec):
        compressed = codec.compress(b"x" * 32)
        for consumed, padded in codec.decompress_words(compressed):
            assert consumed == padded == b"x" * 16


class TestMalformedStreams:
    def test_too_short_stream(self, codec):
        with pytest.raises(CompressedFormatError):
            codec.decompress(b"\x01\x02")

    def test_match_to_empty_slot(self, codec):
        # 1 pair, header bit set, index 0, but nothing was ever inserted
        header_word = (1).to_bytes(16, "little")
        stream = (
            (16).to_bytes(4, "little")
            + (1).to_bytes(4, "little")
            + header_word
            + (0).to_bytes(2, "little")
        )
        with pytest.raises(CompressedFormatError):
            codec.decompress(stream)

    def test_declared_length_mismatch(self, codec):
        good = codec.compress(b"hello world, this is a test line\n")
        tampered = (999).to_bytes(4, "little") + good[4:]
        with pytest.raises(CompressedFormatError):
            codec.decompress(tampered)

    def test_truncated_literal(self, codec):
        good = codec.compress(b"some uncompressible text here")
        with pytest.raises(CompressedFormatError):
            codec.decompress(good[:-4])

    def test_oversized_table_index_rejected(self):
        params = LZAHParams(hash_table_bytes=64 * 16)  # 64 slots
        codec = LZAHCompressor(params)
        header_word = (1).to_bytes(16, "little")
        stream = (
            (16).to_bytes(4, "little")
            + (1).to_bytes(4, "little")
            + header_word
            + (5000).to_bytes(2, "little")
        )
        with pytest.raises(CompressedFormatError):
            codec.decompress(stream)

    def test_u16_index_capacity_enforced(self):
        with pytest.raises(ValueError):
            LZAHCompressor(LZAHParams(hash_table_bytes=16 * (1 << 17)))
