"""In-storage inverted index (Section 6).

A probabilistic, storage-resident inverted index tuned for the
accelerator: a small in-memory hash table (two hash functions, 16-address
buffers, occupancy counters) in front of an in-storage linked list of
height-two trees (16-ary roots over 16-ary leaves, so each latency-bound
list hop yields up to 256 data-page addresses).

- :mod:`repro.index.storetree` — node pools and the list-of-trees layout,
- :mod:`repro.index.hashindex` — the two-hash-function in-memory table,
- :mod:`repro.index.snapshots` — coarse time-based snapshot indexing,
- :mod:`repro.index.inverted` — the :class:`InvertedIndex` facade,
- :mod:`repro.index.bloom` — per-page Bloom filters, the alternative
  strategy the indexing ablation bench measures against it.
"""

from repro.index.bloom import PageBloomIndex
from repro.index.inverted import InvertedIndex
from repro.index.snapshots import SnapshotIndex

__all__ = [
    "InvertedIndex",
    "PageBloomIndex",
    "SnapshotIndex",
]
