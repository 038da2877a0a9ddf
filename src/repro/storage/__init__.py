"""Simulated NAND-flash storage substrate.

MithriLog's prototype is four BlueDBM flash cards behind two FPGAs; here the
equivalent is a page-addressed :class:`repro.storage.flash.FlashArray`
carrying the paper's bandwidth/latency parameters, wrapped by
:class:`repro.storage.device.MithriLogDevice`, which serves FILTER reads
through a scan program and raw page fetches for the host-side scan
executor.
"""

from repro.storage.device import MithriLogDevice
from repro.storage.flash import FlashArray
from repro.storage.page import PAGE_BYTES, Page

__all__ = [
    "FlashArray",
    "MithriLogDevice",
    "PAGE_BYTES",
    "Page",
]
