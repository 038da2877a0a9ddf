"""Query-encoding cuckoo hash table (Section 4.2, Figure 5).

Queries are handed to the accelerator as a cuckoo hash table: each row
stores a token (16 bytes in-slot, remainder in an overflow table), plus an
array of (valid, negative) flag pairs — one pair per intersection set the
query uses. Cuckoo hashing gives two candidate rows per token, so lookups
are two Block-RAM reads, and placement statistically succeeds up to a 0.5
load factor; beyond that the query cannot be offloaded and software must
take over (:class:`repro.errors.PlacementError`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import CapacityError, PlacementError
from repro.params import CuckooParams


@dataclass
class FlagPair:
    """One (valid, negative) pair: this token's role in one intersection set."""

    valid: bool = False
    negative: bool = False


@dataclass
class CuckooEntry:
    """One hash-table row: a token plus its per-intersection-set flags."""

    token: bytes
    flags: list[FlagPair]

    def overflow_rows_needed(self, slot_bytes: int) -> int:
        """Overflow-table rows this token consumes beyond its slot."""
        if len(self.token) <= slot_bytes:
            return 0
        excess = len(self.token) - slot_bytes
        return -(-excess // slot_bytes)


class CuckooHashTable:
    """A two-hash-function cuckoo table storing query terms."""

    def __init__(self, params: Optional[CuckooParams] = None, seed: int = 0) -> None:
        self.params = params if params is not None else CuckooParams()
        self.seed = seed
        self._rows: list[Optional[CuckooEntry]] = [None] * self.params.rows
        self._overflow_used = 0

    # -- hashing -----------------------------------------------------------

    def _hash(self, token: bytes, which: int) -> int:
        digest = hashlib.blake2b(
            token,
            digest_size=8,
            salt=which.to_bytes(8, "little"),
            key=self.seed.to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "little") & (self.params.rows - 1)

    def candidate_rows(self, token: bytes) -> tuple[int, int]:
        """The two rows where ``token`` may live."""
        return self._hash(token, 0), self._hash(token, 1)

    # -- state -------------------------------------------------------------

    @property
    def occupied(self) -> int:
        return sum(1 for row in self._rows if row is not None)

    @property
    def load_factor(self) -> float:
        return self.occupied / self.params.rows

    @property
    def overflow_used(self) -> int:
        return self._overflow_used

    def entries(self) -> list[tuple[int, CuckooEntry]]:
        return [(i, e) for i, e in enumerate(self._rows) if e is not None]

    # -- lookup ------------------------------------------------------------

    def lookup(self, token: bytes) -> Optional[tuple[int, CuckooEntry]]:
        """Find a token; at most one of the two candidate rows can match."""
        for row in self.candidate_rows(token):
            entry = self._rows[row]
            if entry is not None and entry.token == token:
                return row, entry
        return None

    # -- insertion ---------------------------------------------------------

    def add_term(self, token: bytes, iset_index: int, negative: bool) -> int:
        """Record that ``token`` participates in intersection set ``iset_index``.

        Returns the row the token occupies. Raises
        :class:`repro.errors.CapacityError` when the flag-pair, load-factor
        or overflow provisioning is exceeded, and
        :class:`repro.errors.PlacementError` when cuckoo displacement
        cannot place the token.
        """
        if not 0 <= iset_index < self.params.flag_pairs:
            raise CapacityError(
                f"intersection set {iset_index} exceeds the "
                f"{self.params.flag_pairs} provisioned flag pairs"
            )
        found = self.lookup(token)
        if found is not None:
            row, entry = found
            pair = entry.flags[iset_index]
            if pair.valid and pair.negative != negative:
                raise PlacementError(
                    f"token {token!r} is both positive and negative in "
                    f"intersection set {iset_index}"
                )
            pair.valid = True
            pair.negative = negative
            return row
        entry = CuckooEntry(
            token=token,
            flags=[FlagPair() for _ in range(self.params.flag_pairs)],
        )
        entry.flags[iset_index] = FlagPair(valid=True, negative=negative)
        self._reserve_overflow(entry)
        if (self.occupied + 1) / self.params.rows > self.params.max_load_factor:
            raise PlacementError(
                f"inserting {token!r} would push load factor past "
                f"{self.params.max_load_factor}; query too large to offload"
            )
        return self._place(entry)

    def _reserve_overflow(self, entry: CuckooEntry) -> None:
        needed = entry.overflow_rows_needed(self.params.slot_bytes)
        if self._overflow_used + needed > self.params.overflow_rows:
            raise CapacityError(
                f"token {entry.token!r} needs {needed} overflow rows; only "
                f"{self.params.overflow_rows - self._overflow_used} remain"
            )
        self._overflow_used += needed

    def _place(self, entry: CuckooEntry) -> int:
        """Cuckoo displacement: insert, evicting residents to their alternates."""
        original = entry.token
        target = self._hash(entry.token, 0)
        for _ in range(self.params.max_kicks):
            resident = self._rows[target]
            self._rows[target] = entry
            if resident is None:
                # every entry always sits at one of its two candidate rows,
                # so the original token is findable after any kick chain
                found = self.lookup(original)
                assert found is not None
                return found[0]
            # move the evicted entry to its alternate row
            h0, h1 = self.candidate_rows(resident.token)
            target = h1 if target == h0 else h0
            entry = resident
        raise PlacementError(
            f"cuckoo displacement exceeded {self.params.max_kicks} kicks; "
            "query cannot be offloaded"
        )
