"""Cycle-approximate performance model of the filter engine.

Reproduces the arithmetic behind Figures 13 and 14:

- :func:`measure_tokenized_stats` measures the padding amplification of the
  tokenized datapath on real lines (Figure 13's useful-bit percentages).
- :class:`PipelineCycleModel` counts the cycles a filter pipeline spends on
  a corpus, modelling the three in-order stages the RTL has: a decompressor
  emitting one datapath word per cycle, eight 2 B/cycle tokenizers fed
  line-by-line round-robin, and two hash filters each consuming one
  tokenized word per cycle. The max over stages per round-robin group is
  what creates the paper's "imbalance between lengths of consecutive log
  lines" penalty.
- :class:`EngineThroughputModel` combines pipeline capability with the
  decompressor ceiling and the storage supply (internal bandwidth x
  compression ratio), yielding Figure 14's per-dataset effective
  throughputs including the BGL2 storage-bound case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.backend import numpy_or_none
from repro.core.tokenizer import split_tokens
from repro.obs.metrics import handle
from repro.params import (
    DECOMPRESSOR_BYTES_PER_SEC,
    INTERNAL_BANDWIDTH,
    NUM_PIPELINES,
    PipelineParams,
)


@dataclass(frozen=True)
class TokenizedStats:
    """Measured shape of a corpus's tokenized datapath stream."""

    raw_bytes: int
    lines: int
    token_words: int
    useful_bytes: int
    datapath_bytes: int

    @property
    def tokenized_bytes(self) -> int:
        """Bytes on the tokenized datapath including zero padding."""
        return self.token_words * self.datapath_bytes

    @property
    def useful_fraction(self) -> float:
        """Figure 13's metric: non-padding share of the tokenized stream."""
        if self.token_words == 0:
            return 1.0
        return self.useful_bytes / self.tokenized_bytes

    @property
    def amplification(self) -> float:
        """Tokenized bytes per raw input byte (paper: typically ~2x)."""
        if self.raw_bytes == 0:
            return 1.0
        return self.tokenized_bytes / self.raw_bytes


#: Lines per block of the array form. Its transient arrays come to about
#: ten bytes per sample byte; 128 lines keep a block's worth inside heap
#: the process already holds. At 512 they outgrew the allocator's trim
#: threshold: each 2000-line sample gave ~400 KB back to the kernel and
#: faulted it in again (~100 minor faults a call, none at 128), which
#: cost more than the extra blocks do and made one call differ from the
#: next.
_BLOCK_LINES = 128


#: The ``shapes`` default of :func:`measure_tokenized_stats`: compute
#: :func:`_line_shapes` in the call. A caller that ran the cycle model
#: over the same sample passes that count's ``shapes`` instead.
_OWN_SHAPES = object()


def _line_shapes(lines: Sequence[bytes], datapath_bytes: int):
    """Per-line ``(raw bytes, token words, useful bytes)`` int64 arrays.

    The array form of the two scalar loops below: newline and delimiter
    masks over the joined lines, token run lengths from the mask edges,
    per-line sums from a running total cut at each line end. Returns
    ``None`` when it cannot vouch for the answer: no numpy, no lines, or
    a line carrying ``\\n`` (which :func:`split_tokens` strips from the
    line's tail and keeps inside a token anywhere else).
    """
    np = numpy_or_none()
    if np is None or not lines:
        return None
    blocks = []
    for base in range(0, len(lines), _BLOCK_LINES):
        block = lines[base : base + _BLOCK_LINES]
        # a newline ahead of the first line as well: every line then sits
        # between two breaks, and every token run opens inside the text
        data = np.frombuffer(b"\n" + b"\n".join(block) + b"\n", dtype=np.uint8)
        newline = data == 0x0A
        breaks = np.flatnonzero(newline)
        if breaks.size != len(block) + 1:
            return None
        in_token = ~(newline | (data == 0x20) | (data == 0x09))
        # the byte before each run, then the run's last byte, alternating
        edges = np.flatnonzero(in_token[1:] != in_token[:-1])
        opens, lengths = edges[0::2], edges[1::2] - edges[0::2]
        # tokens opened before each break: a running count, from 0
        through = np.searchsorted(opens, breaks)

        def per_line(per_token):
            running = np.concatenate(([0], np.cumsum(per_token)))[through]
            return running[1:] - running[:-1]

        blocks.append((
            breaks[1:] - breaks[:-1],  # the line and its newline
            np.maximum(per_line(-(-lengths // datapath_bytes)), 1),
            per_line(lengths),
        ))
    return tuple(np.concatenate(column) for column in zip(*blocks))


def measure_tokenized_stats(
    lines: Iterable[bytes], datapath_bytes: int = 16, shapes=_OWN_SHAPES
) -> TokenizedStats:
    """Tokenize ``lines`` and measure padding amplification.

    Uses the same token-splitting rules as the functional tokenizer
    (:func:`repro.core.tokenizer.split_tokens`) so the model and the
    functional engine cannot drift apart; :func:`_line_shapes` computes
    the same totals in bulk where it can (``shapes``, when given, is its
    result for ``lines`` at ``datapath_bytes``).
    """
    if not isinstance(lines, (list, tuple)):
        lines = list(lines)
    if shapes is _OWN_SHAPES:
        shapes = _line_shapes(lines, datapath_bytes)
    if shapes is not None:
        raw, words, useful = (int(column.sum()) for column in shapes)
    else:
        raw = words = useful = 0
        for line in lines:
            raw += len(line) + 1  # count the newline the storage stream carries
            line_words = 0
            for token in split_tokens(line):
                useful += len(token)
                line_words += max(1, math.ceil(len(token) / datapath_bytes))
            words += max(1, line_words)  # token-less lines still emit one word
    stats = TokenizedStats(
        raw_bytes=raw,
        lines=len(lines),
        token_words=words,
        useful_bytes=useful,
        datapath_bytes=datapath_bytes,
    )
    if stats.token_words:
        handle("mithrilog_pipeline_useful_bits_ratio").set(stats.useful_fraction)
        handle("mithrilog_pipeline_padding_amplification").set(stats.amplification)
    return stats


@dataclass(frozen=True)
class PipelineCycleCount:
    """Cycle accounting for one pipeline over a corpus."""

    cycles: int
    raw_bytes: int
    params: PipelineParams
    #: :func:`_line_shapes` of the counted lines at this datapath width,
    #: for :func:`measure_tokenized_stats` over the same lines
    shapes: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def bytes_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.raw_bytes / self.cycles

    @property
    def throughput_bytes_per_sec(self) -> float:
        """Decompressed-text throughput this pipeline sustains."""
        return self.bytes_per_cycle * self.params.clock_hz


class PipelineCycleModel:
    """Counts the cycles one filter pipeline needs for a list of lines."""

    def __init__(self, params: Optional[PipelineParams] = None) -> None:
        self.params = params if params is not None else PipelineParams()

    def _line_token_words(self, line: bytes) -> int:
        w = self.params.datapath_bytes
        words = sum(max(1, math.ceil(len(t) / w)) for t in split_tokens(line))
        return max(1, words)  # token-less lines still emit one flagged word

    def count_cycles(self, lines: Sequence[bytes]) -> PipelineCycleCount:
        """Simulate round-robin scatter/gather over the tokenizer array.

        Lines are processed in groups of ``tokenizers``; within a group all
        stages run concurrently, and the group completes when its slowest
        stage does:

        - decompressor: one datapath word per cycle over the group's raw
          bytes (it feeds all tokenizers),
        - each tokenizer: ``bytes_per_cycle`` over its assigned line,
        - each hash filter: one tokenized word per cycle over the lines of
          the tokenizer sub-group it gathers from.
        """
        p = self.params
        shapes = _line_shapes(lines, p.datapath_bytes)
        if shapes is not None:
            total_cycles, raw_total = self._reduce_groups(shapes[0], shapes[1])
        else:
            total_cycles, raw_total = self._walk_groups(lines)
        if total_cycles:
            handle("mithrilog_pipeline_cycles_total").inc(total_cycles)
        return PipelineCycleCount(
            cycles=total_cycles, raw_bytes=raw_total, params=p, shapes=shapes
        )

    def _walk_groups(self, lines: Sequence[bytes]) -> tuple[int, int]:
        """``(cycles, raw bytes)``, one group and one line at a time."""
        p = self.params
        per_filter = p.tokenizers // p.hash_filters
        total_cycles = 0
        raw_total = 0
        for base in range(0, len(lines), p.tokenizers):
            group = lines[base : base + p.tokenizers]
            group_raw = sum(len(line) + 1 for line in group)
            raw_total += group_raw
            decomp_cycles = math.ceil(group_raw / p.datapath_bytes)
            tok_cycles = max(
                math.ceil((len(line) + 1) / p.tokenizer_bytes_per_cycle)
                for line in group
            )
            filter_cycles = 0
            for f in range(p.hash_filters):
                assigned = group[f * per_filter : (f + 1) * per_filter]
                words = sum(self._line_token_words(line) for line in assigned)
                filter_cycles = max(filter_cycles, words)
            total_cycles += max(decomp_cycles, tok_cycles, filter_cycles)
        return total_cycles, raw_total

    def _reduce_groups(self, raw, words) -> tuple[int, int]:
        """:meth:`_walk_groups` over per-line arrays, in integers.

        The short last group is padded with zero-byte, zero-word lines,
        which add nothing to any stage.
        """
        np = numpy_or_none()
        p = self.params
        per_filter = p.tokenizers // p.hash_filters
        groups = -(-raw.size // p.tokenizers)
        padded = np.zeros((2, groups * p.tokenizers), dtype=np.int64)
        padded[:, : raw.size] = raw, words
        raw_by_group, words_by_group = padded.reshape(2, groups, p.tokenizers)
        decomp_cycles = -(-raw_by_group.sum(axis=1) // p.datapath_bytes)
        tok_cycles = -(-raw_by_group.max(axis=1) // p.tokenizer_bytes_per_cycle)
        filter_cycles = (
            words_by_group[:, : p.hash_filters * per_filter]
            .reshape(groups, p.hash_filters, per_filter)
            .sum(axis=2)
            .max(axis=1)
        )
        cycles = np.maximum(np.maximum(decomp_cycles, tok_cycles), filter_cycles)
        return int(cycles.sum()), int(raw.sum())


@dataclass(frozen=True)
class EngineThroughput:
    """Figure 14 datapoint: what bounds the engine and what it achieves."""

    dataset: str
    pipeline_capability: float
    decompressor_ceiling: float
    storage_supply: float

    @property
    def effective_bytes_per_sec(self) -> float:
        """Achieved decompressed-text throughput: min of the three bounds."""
        return min(
            self.pipeline_capability, self.decompressor_ceiling, self.storage_supply
        )

    @property
    def bound_by(self) -> str:
        """Which stage limits this dataset ('filter', 'decompressor', 'storage')."""
        bounds = {
            "filter": self.pipeline_capability,
            "decompressor": self.decompressor_ceiling,
            "storage": self.storage_supply,
        }
        return min(bounds, key=bounds.get)


class EngineThroughputModel:
    """Combines pipeline, decompressor and storage bounds (Figure 14)."""

    def __init__(
        self,
        num_pipelines: int = NUM_PIPELINES,
        internal_bandwidth: int = INTERNAL_BANDWIDTH,
        decompressor_bytes_per_sec: int = DECOMPRESSOR_BYTES_PER_SEC,
        params: Optional[PipelineParams] = None,
    ) -> None:
        self.num_pipelines = num_pipelines
        self.internal_bandwidth = internal_bandwidth
        self.decompressor_bytes_per_sec = decompressor_bytes_per_sec
        self.cycle_model = PipelineCycleModel(params)

    def evaluate(
        self, dataset: str, lines: Sequence[bytes], compression_ratio: float
    ) -> EngineThroughput:
        """Model the engine's effective throughput on a corpus.

        ``compression_ratio`` is the dataset's LZAH ratio: the storage's
        internal bandwidth delivers compressed pages, so the decompressed
        supply is ``internal_bandwidth * ratio``.
        """
        if compression_ratio <= 0:
            raise ValueError("compression_ratio must be positive")
        count = self.cycle_model.count_cycles(lines)
        return EngineThroughput(
            dataset=dataset,
            pipeline_capability=self.num_pipelines
            * count.throughput_bytes_per_sec,
            decompressor_ceiling=self.num_pipelines
            * self.decompressor_bytes_per_sec,
            storage_supply=self.internal_bandwidth * compression_ratio,
        )
