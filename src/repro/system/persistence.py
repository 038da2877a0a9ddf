"""Save and load a MithriLog store.

A store directory contains:

- ``pages.bin`` — every flash page: ``u32 addr | u32 len | u32 checksum |
  payload`` records (both data pages and spilled index/leaf pages),
- ``store.json`` — system metadata, the inverted index's in-memory state
  (the hash table as a packed image of u32 columns, pool tails,
  snapshots) and the key parameters needed to reconstruct a compatible
  system,
- ``wal.bin`` — when the store is journaled (:mod:`repro.system.wal`),
  the batches ingested since the last checkpoint; ``store.json`` says
  how much of it the store already contains (``wal_bytes_applied``).

Only the prototype-parameterisable state is persisted; a loaded system
answers queries identically to the one that was saved (the round-trip
tests assert exactly that).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Union

from repro.errors import StorageError
from repro.params import (
    CuckooParams,
    IndexParams,
    LZAHParams,
    PipelineParams,
    StorageParams,
    SystemParams,
)
from repro.storage.page import Page
from repro.system.mithrilog import MithriLogSystem

_PAGE_HEADER = struct.Struct("<III")
#: 3: the filter pipelines' rate is the one stored rate (2 also stored
#: the decompressor's rate and their minimum; 1 held a dict per hash row).
_FORMAT_VERSION = 3
#: The write-ahead journal of a journaled store, next to ``store.json``.
JOURNAL_NAME = "wal.bin"


def _params_to_dict(params: SystemParams) -> dict:
    return {
        "pipeline": vars(params.pipeline).copy(),
        "cuckoo": vars(params.cuckoo).copy(),
        "lzah": vars(params.lzah).copy(),
        "storage": vars(params.storage).copy(),
        "index": vars(params.index).copy(),
        "num_pipelines": params.num_pipelines,
    }


def _params_from_dict(data: dict) -> SystemParams:
    return SystemParams(
        pipeline=PipelineParams(**data["pipeline"]),
        cuckoo=CuckooParams(**data["cuckoo"]),
        lzah=LZAHParams(**data["lzah"]),
        storage=StorageParams(**data["storage"]),
        index=IndexParams(**data["index"]),
        num_pipelines=int(data["num_pipelines"]),
    )


def save_store(system: MithriLogSystem, directory: Union[str, Path]) -> None:
    """Persist a system's store to ``directory`` (created if missing).

    Each page is read through the device's retry loop, so a transient
    read fault costs a retry, not the checkpoint.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    with open(path / "pages.bin", "wb") as handle:
        device = system.device
        flash = device.flash
        for addr in sorted(a for a in range(flash.next_free_address) if a in flash):
            page, _ = device._read_one_with_retry(addr)
            handle.write(_PAGE_HEADER.pack(addr, len(page.data), page.checksum))
            handle.write(page.data)
    save_metadata(system, path)


def save_metadata(system: MithriLogSystem, directory: Union[str, Path]) -> None:
    """Write ``store.json`` alone (``pages.bin`` is as the system has it).

    The store is taken to contain the directory's journal as it stands
    (a journaled system applies a batch right after journaling it) and
    says so in ``wal_bytes_applied``.
    """
    path = Path(directory)
    journal = path / JOURNAL_NAME
    metadata = {
        "version": _FORMAT_VERSION,
        "params": _params_to_dict(system.params),
        "original_bytes": system.original_bytes,
        "total_lines": system.total_lines,
        "pipeline_rate": system._pipeline_rate,
        "wal_bytes_applied": journal.stat().st_size if journal.exists() else 0,
        "index": {
            "data_pages": list(system.index.data_pages),
            "table": system.index.table.to_state(),
            "leaves": system.index.store.leaves.to_state(),
            "roots": system.index.store.roots.to_state(),
            "snapshots": system.index.snapshots.to_state(),
        },
    }
    # dumps, not dump: one C-speed encode, 4x faster on a 3 MB store
    (path / "store.json").write_text(json.dumps(metadata), encoding="utf-8")


def load_store(directory: Union[str, Path], seed: int = 0) -> MithriLogSystem:
    """Reconstruct a system from a directory written by :func:`save_store`."""
    return open_store(directory, seed)[0]


def open_store(
    directory: Union[str, Path], seed: int = 0
) -> tuple[MithriLogSystem, int]:
    """:func:`load_store`, plus the store's ``wal_bytes_applied``."""
    path = Path(directory)
    try:
        with open(path / "store.json", "r", encoding="utf-8") as handle:
            metadata = json.load(handle)
    except FileNotFoundError as exc:
        raise StorageError(f"{path} is not a MithriLog store: {exc}") from exc
    if metadata.get("version") != _FORMAT_VERSION:
        raise StorageError(
            f"store format version {metadata.get('version')} not supported "
            f"(this build reads version {_FORMAT_VERSION})"
        )

    system = MithriLogSystem(_params_from_dict(metadata["params"]), seed=seed)
    flash = system.device.flash
    with open(path / "pages.bin", "rb") as handle:
        while True:
            header = handle.read(_PAGE_HEADER.size)
            if not header:
                break
            if len(header) != _PAGE_HEADER.size:
                raise StorageError("truncated pages.bin record header")
            addr, length, checksum = _PAGE_HEADER.unpack(header)
            payload = handle.read(length)
            if len(payload) != length:
                raise StorageError("truncated pages.bin payload")
            page = Page(data=payload, checksum=checksum)
            page.verify()
            flash.write_page(addr, page)

    index_state = metadata["index"]
    system.index._data_pages = [int(a) for a in index_state["data_pages"]]
    system.index.table.restore_state(index_state["table"])
    system.index.store.leaves.restore_state(index_state["leaves"])
    system.index.store.roots.restore_state(index_state["roots"])
    system.index.snapshots.restore_state(index_state["snapshots"])

    system.original_bytes = int(metadata["original_bytes"])
    system.total_lines = int(metadata["total_lines"])
    rate = metadata["pipeline_rate"]
    system._pipeline_rate = None if rate is None else float(rate)
    return system, int(metadata["wal_bytes_applied"])
