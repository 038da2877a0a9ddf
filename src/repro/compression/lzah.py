"""LZAH — LZ Aligned Header (Section 5).

The paper's hardware-optimized LZRW1 derivative. Three properties define
it, and all three are kept here:

1. **Word alignment.** A fixed window of ``word_bytes`` (16 in the
   prototype) slides across the input in word-aligned steps, so the
   hardware needs no variable-amount shifters. A window that contains a
   newline is cut just after it and the next window starts at the
   following character, re-aligning recurring per-line patterns (Figure 8).
   The cut word is zero-padded before hashing/storing so characters of the
   next line never pollute the hash table.

2. **Dictionary of whole words.** Like LZRW1, a hash table remembers the
   most recent occurrence of each word. A re-occurrence emits a 1-bit
   header plus the table index; a miss emits a 0-bit header plus the
   literal word.

3. **Aligned header chunks.** 128 header bits are gathered into one
   16-byte header word followed by the 128 payloads, and chunks are padded
   to word boundaries (Figure 9), so the decoder parses headers without
   shifting. Each page's stream is self-contained: the hash table resets
   per page, which is what lets storage pages decompress independently.

Stream layout produced by :meth:`LZAHCompressor.compress` (one page):

``u32 uncompressed_len | u32 num_pairs | u32 crc32 | chunk*``

where each chunk is ``header word (word_bytes) | payloads | zero padding
to word alignment`` and a payload is either a ``u16`` little-endian table
index (header bit 1) or a zero-padded literal word (header bit 0).

``crc32`` covers the *uncompressed* bytes, so any corruption of the
stream that changes the decoded output is detected
(:class:`repro.errors.CompressedFormatError`) instead of silently
returning wrong log lines — the durability property the robustness
suite's single-byte-corruption tests pin down.

Two decoders read this format: :meth:`LZAHCompressor.decompress_words`,
the word-by-word specification (:meth:`~LZAHCompressor.decompress` is
its join), and :meth:`~LZAHCompressor.decompress_into`, the scan
kernel's bulk decoder, which rebuilds a *run* of streams with one set of
numpy operations — literal slots from a CRC table (:func:`word_crc32`),
matches resolved by a sort over ``(stream, slot, position)`` keys — and
defers to the specification for any run it cannot verify.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Optional, Sequence

from repro.compression.base import Compressor
from repro.core.backend import numpy_or_none
from repro.errors import CompressedFormatError
from repro.params import LZAHParams

_LEN_HEADER = 12  # u32 uncompressed_len + u32 num_pairs + u32 crc32
_INDEX_BYTES = 2


#: ``word_bytes → (crc32 of the zero word, word_bytes × 256 table)``.
_CRC_TABLES: dict = {}


def word_crc32(np, words):
    """``zlib.crc32`` of every row of a ``(n × word_bytes)`` ``uint8`` array.

    CRC-32 is affine over inputs of one length, so a word's CRC is the
    zero word's XOR one table entry per byte: ``crc(w) = crc(0…0) ⊕
    XOR_i T[i, w[i]]`` with ``T[i, v] = crc(v at byte i) ⊕ crc(0…0)``.
    ``T`` is built once per width from ``zlib.crc32`` itself, so the
    result is bit-identical to calling it per word.
    """
    word_bytes = words.shape[1]
    entry = _CRC_TABLES.get(word_bytes)
    if entry is None:
        zero = bytes(word_bytes)
        base = zlib.crc32(zero)
        table = np.array(
            [
                [zlib.crc32(zero[:i] + bytes((v,)) + zero[i + 1 :]) ^ base for v in range(256)]
                for i in range(word_bytes)
            ],
            dtype=np.uint32,
        )
        entry = _CRC_TABLES[word_bytes] = (base, table)
    base, table = entry
    return np.bitwise_xor.reduce(table[np.arange(word_bytes), words], axis=1) ^ base


class LZAHCompressor(Compressor):
    """LZ Aligned Header encoder/decoder."""

    name = "LZAH"

    def __init__(self, params: Optional[LZAHParams] = None) -> None:
        self.params = params if params is not None else LZAHParams()
        if self.params.hash_table_slots > 1 << (8 * _INDEX_BYTES):
            raise ValueError("hash table too large for u16 match indices")
        # encoder tables: _line_ends[r] is "\n" plus the zeros that pad a
        # line of r mod word_bytes bytes to whole words, _slot_codes[s]
        # the u16 payload of a match to slot s
        w = self.params.word_bytes
        self._line_ends = [b"\n" + bytes(w - 1 - r) for r in range(w)]
        self._slot_codes = [
            s.to_bytes(_INDEX_BYTES, "little") for s in range(self.params.hash_table_slots)
        ]

    # -- encoding ----------------------------------------------------------

    def _hash(self, word: bytes) -> int:
        return zlib.crc32(word) & (self.params.hash_table_slots - 1)

    def compress(self, data: bytes) -> bytes:
        """Encode one page a line at a time: each line, its ``\\n``
        included, is zero-padded to whole words (without newline
        realignment the text is one line), and each word is one table step
        that records a match flag and a payload. A chunk's flags become its
        header in one conversion, its payloads its body in one join. The
        per-window loop this replaced is the oracle in
        ``tests/test_compression_lzah.py``.
        """
        p = self.params
        w, per_chunk, slots = p.word_bytes, p.pairs_per_chunk, p.hash_table_slots
        line_ends, slot_codes = self._line_ends, self._slot_codes
        lines = data.split(b"\n") if p.newline_realign else [data]
        last = lines.pop()  # the text after the last "\n"
        text = b"".join([line + line_ends[len(line) % w] for line in lines])
        text += last + bytes(-len(last) % w)

        table: list[Optional[bytes]] = [None] * slots
        mask = slots - 1
        crc32 = zlib.crc32
        flags = bytearray()  # b"1" per match, b"0" per literal
        flag = flags.append
        payloads: list[bytes] = []
        payload = payloads.append
        for at in range(0, len(text), w):
            word = text[at : at + w]
            slot = crc32(word) & mask
            if table[slot] == word:
                flag(49)
                payload(slot_codes[slot])
            else:
                table[slot] = word
                flag(48)
                payload(word)

        # header bit i is pair i, so a chunk's flags reversed are its header
        # in binary. Chunks are padded to word alignment within the body
        # (the 12-byte stream header does not count)
        out = [n.to_bytes(4, "little") for n in (len(data), len(flags), crc32(data))]
        header_bytes = per_chunk // 8
        for base in range(0, len(flags), per_chunk):
            header = int(flags[base : base + per_chunk][::-1], 2).to_bytes(header_bytes, "little")
            body = b"".join(payloads[base : base + per_chunk])
            out += (header, body, bytes(-(header_bytes + len(body)) % w))
        return b"".join(out)

    def cut(self, stream: bytes, prefix: bytes) -> bytes:
        """``compress(prefix)``, cut from ``stream``, the encode of a text
        that begins with ``prefix``, without encoding again.

        With newline realignment every line pads to whole words and the
        table evolves word by word from the start, so a prefix that ends
        just after a ``\\n`` encodes to the first pairs of the whole
        text's encode. Its whole chunks are the stream's own; the last
        chunk keeps its header's low bits and their payloads, and the
        declared length, pair count and CRC are the prefix's.
        """
        p = self.params
        if not p.newline_realign or prefix[-1:] not in (b"", b"\n"):
            raise ValueError("only a line-aligned prefix of a realigned text cuts")
        w, per_chunk = p.word_bytes, p.pairs_per_chunk
        header_bytes = per_chunk // 8
        lines = prefix.split(b"\n")
        lines.pop()  # the empty text after the last "\n"
        pairs = sum([len(line) // w for line in lines]) + len(lines)
        out = [n.to_bytes(4, "little") for n in (len(prefix), pairs, zlib.crc32(prefix))]
        pos = _LEN_HEADER
        for _ in range(pairs // per_chunk):  # whole chunks stay as they are
            matches = int.from_bytes(stream[pos : pos + header_bytes], "little").bit_count()
            size = header_bytes + matches * _INDEX_BYTES + (per_chunk - matches) * w
            pos += size + -size % w
        out.append(stream[_LEN_HEADER:pos])
        left = pairs % per_chunk
        if left:
            flags = int.from_bytes(stream[pos : pos + header_bytes], "little") & ((1 << left) - 1)
            matches = flags.bit_count()
            body = matches * _INDEX_BYTES + (left - matches) * w
            pos += header_bytes
            out += (
                flags.to_bytes(header_bytes, "little"),
                stream[pos : pos + body],
                bytes(-(header_bytes + body) % w),
            )
        return b"".join(out)

    # -- decoding ----------------------------------------------------------

    def decompress(self, data: bytes) -> bytes:
        """Decode one stream: the join of :meth:`decompress_words`, so
        every :class:`repro.errors.CompressedFormatError` case and message
        is the specification's."""
        return b"".join([consumed for consumed, _padded in self.decompress_words(data)])

    @staticmethod
    def declared_length(data: bytes) -> int:
        """The text length a stream's header declares (every decoder
        verifies it before returning)."""
        return int.from_bytes(data[0:4], "little")

    def decompress_into(self, data: bytes, *more: bytes) -> bytes:
        """Decode a run of streams on the bulk (numpy) path: their texts,
        concatenated in order.

        :meth:`_bulk_decode` rebuilds every stream of the run with one set
        of array operations and returns them only after verifying each
        one's length and CRC. If it cannot vouch for any stream
        (truncated, out-of-range or corrupt, no numpy), the run goes to
        :meth:`decompress` stream by stream, so output and every
        :class:`repro.errors.CompressedFormatError` case and message are
        the specification's — for a run, those of its first bad stream.
        """
        streams = (data, *more)
        decoded = self._bulk_decode(streams)
        if decoded is None:
            return b"".join(map(self.decompress, streams))
        return decoded.tobytes()

    def _bulk_decode(self, streams: Sequence[bytes]):
        """The decoded streams, concatenated, as a ``uint8`` array, or
        ``None`` to defer.

        Never raises on a malformed stream. The only Python-level loops
        are over the run's chunks and over its streams (length and CRC).
        """
        np = numpy_or_none()
        p = self.params
        word_bytes = p.word_bytes
        pairs_per_chunk = p.pairs_per_chunk
        slots = p.hash_table_slots
        if np is None:
            return None
        header_bytes = pairs_per_chunk // 8

        # walk every stream's chunks: a header's popcount gives its payload
        # size, and so what to add to a pair's running payload offset (over
        # the whole run) to land in that chunk of the joined streams
        headers, in_chunks, rebases, num_pairs = [], [], [], []
        base = payload = 0
        for data in streams:
            if len(data) < _LEN_HEADER:
                return None
            pairs = int.from_bytes(data[4:8], "little")
            pos = _LEN_HEADER
            for remaining in range(pairs, 0, -pairs_per_chunk):
                header = data[pos : pos + header_bytes]
                if len(header) < header_bytes:
                    return None
                in_chunk = min(remaining, pairs_per_chunk)
                bits = int.from_bytes(header, "little") & ((1 << in_chunk) - 1)
                size = in_chunk * word_bytes - bits.bit_count() * (word_bytes - _INDEX_BYTES)
                headers.append(header)
                in_chunks.append(in_chunk)
                rebases.append(base + pos + header_bytes - payload)
                payload += size
                pos += header_bytes + size
                if pos > len(data):
                    return None
                pos += -(pos - _LEN_HEADER) % word_bytes  # alignment padding
            base += len(data)
            num_pairs.append(pairs)
        blob = np.frombuffer(b"".join(streams), dtype=np.uint8)
        total_pairs = sum(num_pairs)
        in_chunks = np.array(in_chunks, dtype=np.int64)
        # a stream's last chunk may be short: its unused header bits go
        bits = np.unpackbits(
            np.frombuffer(b"".join(headers), dtype=np.uint8), bitorder="little"
        ).reshape(-1, pairs_per_chunk)
        is_match = bits[np.arange(pairs_per_chunk) < in_chunks[:, None]].astype(bool)
        sizes = np.where(is_match, _INDEX_BYTES, word_bytes)
        offsets = sizes.cumsum() - sizes
        offsets += np.repeat(np.array(rebases, dtype=np.int64), in_chunks)
        stream_of = np.repeat(np.arange(len(streams)), num_pairs)

        # literals: gather every word; the CRC table names its slot
        literal_at = np.flatnonzero(~is_match)
        literals = blob[offsets[literal_at][:, None] + np.arange(word_bytes)]
        literal_slots = word_crc32(np, literals).astype(np.int64) & (slots - 1)

        # the literal each pair decodes to: itself, or for a match the
        # latest earlier literal of the same stream in the same slot.
        # Literals sorted by (stream, slot, position) make that one
        # searchsorted.
        source = np.empty(total_pairs, dtype=np.int64)
        source[literal_at] = np.arange(literal_at.size)
        match_at = np.flatnonzero(is_match)
        if match_at.size:
            match_offsets = offsets[match_at]
            match_slots = blob[match_offsets] | (
                blob[match_offsets + 1].astype(np.int64) << 8
            )
            if match_slots.max() >= slots:
                return None  # an index outside the table
            literal_keys = stream_of[literal_at] * slots + literal_slots
            match_keys = stream_of[match_at] * slots + match_slots
            keys = literal_keys * total_pairs + literal_at
            order = np.argsort(keys)
            found = keys[order].searchsorted(match_keys * total_pairs + match_at) - 1
            if found.min() < 0:
                return None  # no literal at all below the match's key
            found = order[found]
            if (literal_keys[found] != match_keys).any():
                return None  # an empty slot
            source[match_at] = found

        # cut each literal window just after its newline, then flatten
        # every pair's kept bytes in order
        if p.newline_realign:
            is_newline = literals == 0x0A
            lengths = np.where(
                is_newline.any(axis=1), is_newline.argmax(axis=1) + 1, word_bytes
            )
            kept = np.arange(word_bytes) < lengths[:, None]
            decoded = literals.take(source, axis=0)[kept.take(source, axis=0)]
            produced = np.bincount(
                stream_of, weights=lengths.take(source), minlength=len(streams)
            ).astype(np.int64).tolist()
        else:
            decoded = literals.take(source, axis=0).ravel()
            produced = [pairs * word_bytes for pairs in num_pairs]

        # each stream: its declared length (only its final window may
        # overrun it), then its CRC
        texts, at = [], 0
        for data, size in zip(streams, produced):
            total_len = self.declared_length(data)
            if size < total_len:
                return None
            text = decoded[at : at + total_len]
            if zlib.crc32(text) != int.from_bytes(data[8:12], "little"):
                return None
            texts.append(text)
            at += size
        if sum(map(len, texts)) == decoded.size:
            return decoded
        return np.concatenate(texts)

    def decompress_words(self, data: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Decode a stream word by word (reference decoder).

        Yields ``(consumed, padded)`` per window word: ``consumed`` is the
        exact reconstructed byte span (what joining the stream yields), and
        ``padded`` is the full zero-padded word the hardware decoder would
        emit in its "zero-padded words for the tokenizer" configuration.
        This generator is the specification: :meth:`decompress` joins it,
        the bulk decoder is tested against it, and it verifies the stream
        CRC incrementally, word by word, the way the hardware decoder does.
        """
        p = self.params
        if len(data) < _LEN_HEADER:
            raise CompressedFormatError("LZAH stream shorter than its header")
        total_len = int.from_bytes(data[0:4], "little")
        num_pairs = int.from_bytes(data[4:8], "little")
        expected_crc = int.from_bytes(data[8:12], "little")
        header_bytes = p.pairs_per_chunk // 8

        table: list[Optional[bytes]] = [None] * p.hash_table_slots
        pos = _LEN_HEADER
        produced = 0
        running_crc = 0
        remaining = num_pairs
        while remaining > 0:
            if pos + header_bytes > len(data):
                raise CompressedFormatError("truncated LZAH chunk header")
            header = int.from_bytes(data[pos : pos + header_bytes], "little")
            pos += header_bytes
            in_chunk = min(remaining, p.pairs_per_chunk)
            for i in range(in_chunk):
                if header & (1 << i):
                    if pos + _INDEX_BYTES > len(data):
                        raise CompressedFormatError("truncated LZAH match index")
                    slot = int.from_bytes(data[pos : pos + _INDEX_BYTES], "little")
                    pos += _INDEX_BYTES
                    if slot >= p.hash_table_slots:
                        raise CompressedFormatError(
                            f"LZAH match index {slot} outside table"
                        )
                    padded = table[slot]
                    if padded is None:
                        raise CompressedFormatError(
                            f"LZAH match references empty slot {slot}"
                        )
                else:
                    if pos + p.word_bytes > len(data):
                        raise CompressedFormatError("truncated LZAH literal word")
                    padded = data[pos : pos + p.word_bytes]
                    pos += p.word_bytes
                    table[self._hash(padded)] = padded
                if p.newline_realign:
                    nl = padded.find(b"\n")
                    consumed = padded[: nl + 1] if nl != -1 else padded
                else:
                    consumed = padded
                # the final window may be short without a newline; trim to
                # the declared uncompressed length
                if produced + len(consumed) > total_len:
                    consumed = consumed[: total_len - produced]
                produced += len(consumed)
                running_crc = zlib.crc32(consumed, running_crc)
                yield consumed, padded
            remaining -= in_chunk
            # skip the chunk's alignment padding
            tail = (pos - _LEN_HEADER) % p.word_bytes
            if tail:
                pos += p.word_bytes - tail
        if produced != total_len:
            raise CompressedFormatError(
                f"LZAH stream declared {total_len} bytes but decoded {produced}"
            )
        if running_crc != expected_crc:
            raise CompressedFormatError(
                "LZAH stream checksum mismatch: decoded data is corrupt"
            )
