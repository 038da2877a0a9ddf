"""Prototype constants of the MithriLog system, as published in the paper.

Every component reads its provisioning from here so that design-space
ablations (datapath width, hash-filter replication, index node sizes) can be
expressed by constructing components with overridden parameters while the
defaults always match the MICRO 2021 prototype.

Units: bytes unless suffixed otherwise; bandwidths in bytes/second; clock in
Hz; latencies in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Datapath / filter-engine provisioning (Sections 4, 7.2)
# --------------------------------------------------------------------------

#: Width of the accelerator datapath: 128 bits = 16 bytes.
DATAPATH_BYTES = 16

#: Accelerator clock. All pipelines run at 200 MHz in the prototype.
CLOCK_HZ = 200_000_000

#: Number of filter pipelines instantiated across the two FPGAs.
NUM_PIPELINES = 4

#: Tokenizers per pipeline; each ingests 2 bytes/cycle, so eight sustain the
#: 16-byte datapath.
TOKENIZERS_PER_PIPELINE = 8

#: Bytes each tokenizer ingests per cycle (design-space winner, Section 4.1).
TOKENIZER_BYTES_PER_CYCLE = 2

#: Hash filters per pipeline. Two, to absorb the ~2x padding amplification of
#: the tokenized stream (Section 7.4.1).
HASH_FILTERS_PER_PIPELINE = 2

#: Per-pipeline wire-speed: 16 bytes/cycle * 200 MHz = 3.2 GB/s.
PIPELINE_BYTES_PER_SEC = DATAPATH_BYTES * CLOCK_HZ

# --------------------------------------------------------------------------
# Cuckoo hash filter provisioning (Section 4.2)
# --------------------------------------------------------------------------

#: Rows in the cuckoo hash table.
HASH_TABLE_ROWS = 256

#: Bytes provisioned per hash-table token slot (same as datapath width).
HASH_SLOT_BYTES = DATAPATH_BYTES

#: (valid, negative) flag pairs per entry => max intersection sets per query.
FLAG_PAIRS = 8

#: Overflow-table entries for tokens longer than one slot.
OVERFLOW_TABLE_ROWS = 256

#: Cuckoo hashing statistically succeeds below this load factor; the engine
#: refuses queries that would exceed it (the paper over-provisions for this).
CUCKOO_MAX_LOAD_FACTOR = 0.5

#: Maximum displacement chain length before declaring placement failure.
CUCKOO_MAX_KICKS = 64

# --------------------------------------------------------------------------
# LZAH compression (Section 5)
# --------------------------------------------------------------------------

#: LZAH window word size; matches the filter datapath.
LZAH_WORD_BYTES = DATAPATH_BYTES

#: Header-payload pairs grouped per chunk (header = 128 bits = one word).
LZAH_PAIRS_PER_CHUNK = 128

#: Compressor hash table size ("modestly sized 16 KB", Section 7.3.1).
LZAH_HASH_TABLE_BYTES = 16 * 1024

#: Decompressor emits exactly one word per cycle: 3.2 GB/s at 200 MHz.
DECOMPRESSOR_BYTES_PER_SEC = LZAH_WORD_BYTES * CLOCK_HZ

# --------------------------------------------------------------------------
# Storage provisioning (Sections 3, 6, 7.2)
# --------------------------------------------------------------------------

#: Flash page size used throughout (index math in Section 6.1 assumes 4 KB).
PAGE_BYTES = 4096

#: Internal (flash-side) bandwidth of the emulated device: 4 x 1.2 GB/s.
INTERNAL_BANDWIDTH = int(4.8e9)

#: External (PCIe Gen2 x8 DMA) bandwidth to host: 3.1 GB/s.
PCIE_BANDWIDTH = int(3.1e9)

#: Storage access latency assumed by the index design (100 microseconds).
STORAGE_LATENCY_S = 100e-6

#: Comparison platform's RAID-0 NVMe measured peak (Table 3).
COMPARISON_STORAGE_BANDWIDTH = int(7e9)

#: Hyper-threads on the comparison i7-8700K (Section 7.5's /12 amortization).
COMPARISON_THREADS = 12

# --------------------------------------------------------------------------
# Inverted-index provisioning (Section 6)
# --------------------------------------------------------------------------

#: Data-page addresses buffered in memory per hash entry before spilling.
INDEX_MEMORY_BUFFER_ADDRS = 16

#: Entries per in-storage tree root node (linked-list node).
INDEX_ROOT_FANOUT = 16

#: Entries per in-storage leaf node.
INDEX_LEAF_FANOUT = 16

#: Default in-memory hash-table rows for the inverted index. The paper quotes
#: a ~256 MB steady-state footprint; we keep the structure but default to a
#: laptop-friendly row count (parameterisable).
INDEX_HASH_ROWS = 1 << 16

#: Leaf pages created between automatic snapshots (time-based indexing).
SNAPSHOT_LEAF_PAGE_THRESHOLD = 1024


@dataclass(frozen=True)
class PipelineParams:
    """Parameter bundle for one filter pipeline.

    The defaults are the prototype's; ablation benches construct variants
    (e.g. 8- or 32-byte datapaths) and feed them to the performance model.
    """

    datapath_bytes: int = DATAPATH_BYTES
    clock_hz: int = CLOCK_HZ
    tokenizers: int = TOKENIZERS_PER_PIPELINE
    tokenizer_bytes_per_cycle: int = TOKENIZER_BYTES_PER_CYCLE
    hash_filters: int = HASH_FILTERS_PER_PIPELINE

    def __post_init__(self) -> None:
        if self.datapath_bytes <= 0 or self.datapath_bytes % 2:
            raise ValueError("datapath_bytes must be a positive even size")
        ingest = self.tokenizers * self.tokenizer_bytes_per_cycle
        if ingest < self.datapath_bytes:
            raise ValueError(
                f"{self.tokenizers} tokenizers x {self.tokenizer_bytes_per_cycle} B/cy "
                f"cannot sustain a {self.datapath_bytes}-byte datapath"
            )

    @property
    def wire_speed_bytes_per_sec(self) -> int:
        """Raw text throughput at full utilisation: datapath * clock."""
        return self.datapath_bytes * self.clock_hz


@dataclass(frozen=True)
class CuckooParams:
    """Parameter bundle for the cuckoo hash filter."""

    rows: int = HASH_TABLE_ROWS
    slot_bytes: int = HASH_SLOT_BYTES
    flag_pairs: int = FLAG_PAIRS
    overflow_rows: int = OVERFLOW_TABLE_ROWS
    max_load_factor: float = CUCKOO_MAX_LOAD_FACTOR
    max_kicks: int = CUCKOO_MAX_KICKS

    def __post_init__(self) -> None:
        if self.rows & (self.rows - 1):
            raise ValueError("cuckoo row count must be a power of two")
        if not 0 < self.max_load_factor <= 1:
            raise ValueError("max_load_factor must be in (0, 1]")


@dataclass(frozen=True)
class LZAHParams:
    """Parameter bundle for LZAH compression.

    ``newline_realign`` is Section 5's special newline treatment; turning
    it off (ablation) keeps the window moving in fixed word steps across
    line boundaries, costing compression on line-aligned patterns.
    """

    word_bytes: int = LZAH_WORD_BYTES
    pairs_per_chunk: int = LZAH_PAIRS_PER_CHUNK
    hash_table_bytes: int = LZAH_HASH_TABLE_BYTES
    page_bytes: int = PAGE_BYTES
    newline_realign: bool = True

    def __post_init__(self) -> None:
        if self.word_bytes <= 0:
            raise ValueError("word_bytes must be positive")
        if self.pairs_per_chunk <= 0 or self.pairs_per_chunk % 8:
            # a chunk's header is pairs_per_chunk // 8 bytes, one bit a pair
            raise ValueError("pairs_per_chunk must be a positive multiple of 8")
        if self.hash_table_bytes % self.word_bytes:
            raise ValueError("hash table must hold an integral number of words")

    @property
    def hash_table_slots(self) -> int:
        """Number of word-sized slots in the compressor hash table."""
        return self.hash_table_bytes // self.word_bytes


@dataclass(frozen=True)
class StorageParams:
    """Parameter bundle for the simulated near-storage device."""

    page_bytes: int = PAGE_BYTES
    internal_bandwidth: int = INTERNAL_BANDWIDTH
    external_bandwidth: int = PCIE_BANDWIDTH
    latency_s: float = STORAGE_LATENCY_S
    capacity_pages: int = 1 << 20

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        if self.capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")

    def flash_seconds(self, nbytes: float) -> float:
        """Streaming ``nbytes`` off flash: one access latency, then the
        internal bandwidth. Independent page reads queue behind one
        pipeline fill, so this is the flash stage of every ingest, scan
        and plan estimate."""
        return self.latency_s + nbytes / self.internal_bandwidth


@dataclass(frozen=True)
class IndexParams:
    """Parameter bundle for the in-storage inverted index."""

    hash_rows: int = INDEX_HASH_ROWS
    memory_buffer_addrs: int = INDEX_MEMORY_BUFFER_ADDRS
    root_fanout: int = INDEX_ROOT_FANOUT
    leaf_fanout: int = INDEX_LEAF_FANOUT
    num_hash_functions: int = 2
    snapshot_leaf_threshold: int = SNAPSHOT_LEAF_PAGE_THRESHOLD

    def __post_init__(self) -> None:
        if self.hash_rows & (self.hash_rows - 1):
            raise ValueError("index hash rows must be a power of two")
        if self.num_hash_functions not in (1, 2):
            raise ValueError("index supports one or two hash functions")

    @property
    def addrs_per_root_visit(self) -> int:
        """Data-page addresses retrieved per latency-bound list hop."""
        return self.root_fanout * self.leaf_fanout


@dataclass(frozen=True)
class SystemParams:
    """Top-level bundle tying the prototype together."""

    pipeline: PipelineParams = field(default_factory=PipelineParams)
    cuckoo: CuckooParams = field(default_factory=CuckooParams)
    lzah: LZAHParams = field(default_factory=LZAHParams)
    storage: StorageParams = field(default_factory=StorageParams)
    index: IndexParams = field(default_factory=IndexParams)
    num_pipelines: int = NUM_PIPELINES

    @property
    def aggregate_wire_speed(self) -> int:
        """Peak decompressed-text bandwidth across all pipelines (12.8 GB/s)."""
        return self.num_pipelines * self.pipeline.wire_speed_bytes_per_sec


#: The default prototype configuration used throughout examples and benches.
PROTOTYPE = SystemParams()
