"""Log-optimized compression (Section 5).

The centerpiece is :mod:`repro.compression.lzah` — the paper's LZ Aligned
Header algorithm, a word-aligned LZRW1 derivative designed for one-word-
per-cycle hardware decompression. The package also carries the baselines
Table 5 compares against:

- :mod:`repro.compression.lzrw1` — faithful LZRW1 (Williams 1991),
- :mod:`repro.compression.lz4like` — an LZ4-block-format greedy compressor,
- :mod:`repro.compression.snappylike` — a Snappy block-format codec,
- :mod:`repro.compression.gziplike` — DEFLATE via :mod:`zlib`,

and :mod:`repro.compression.decoder_model`, the cycle model of the
hardware decoder in Figure 10.
"""

from repro.compression.base import Compressor, compression_ratio
from repro.compression.gziplike import GzipCompressor
from repro.compression.lz4like import LZ4LikeCompressor
from repro.compression.lzah import LZAHCompressor
from repro.compression.lzrw1 import LZRW1Compressor
from repro.compression.snappylike import SnappyLikeCompressor

__all__ = [
    "Compressor",
    "GzipCompressor",
    "LZ4LikeCompressor",
    "LZAHCompressor",
    "LZRW1Compressor",
    "SnappyLikeCompressor",
    "compression_ratio",
]
