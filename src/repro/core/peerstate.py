"""Struct-of-arrays peer state for 10^5–10^6-host overlays.

The object-per-peer layout that the overlays started from (one Python
object per node, per-message dict churn) caps experiments around 10^4
hosts: every liveness check chases a pointer, every neighbor update
rehashes a set, and the garbage collector walks millions of small
objects.  This module keeps the *hot* per-peer state — liveness/churn
status, region (AS) assignment, neighbor sets, piece/role bitmaps — in
contiguous numpy columns keyed by a dense **slot** index, with a
free-list allocator mapping arbitrary host ids onto slots.

Layout
------
- :class:`SlotAllocator` — host id ↔ slot mapping with a LIFO free list;
  slots of evicted hosts are recycled, and every allocation (fresh or
  recycled) clears the slot's row in all registered columns, so a host
  admitted into a recycled slot can never observe its predecessor's
  neighbors, bitmap bits, or liveness status.
- :class:`NeighborColumns` — one bounded neighbor set per slot as a row
  of a ``(capacity, max_degree)`` int64 matrix plus a count vector.
  Rows are kept **ascending-sorted**, which makes membership a
  ``searchsorted``, iteration deterministic, and batch degree queries a
  single vectorised read.
- :class:`Bitmap2D` — one packed bitset per slot (``uint64`` words):
  piece maps, ultrapeer/role flags, any per-peer boolean vector.
- :class:`PeerState` — the façade combining the allocator, a status
  column (offline/online/crashed), a region (AS) column, named neighbor
  tables, and named bitmaps.

``tests/test_peerstate_equiv.py`` pins these columns to the
object-per-peer oracle in ``tests/peerstate_oracle.py``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Liveness states of a slot (the churn/liveness column).
OFFLINE, ONLINE, CRASHED = 0, 1, 2

_STATUS_NAMES = {OFFLINE: "offline", ONLINE: "online", CRASHED: "crashed"}


class SlotAllocator:
    """Free-list allocator: arbitrary hashable host ids → dense slots.

    Slots are handed out densely (0, 1, 2, …) and recycled LIFO when
    freed, so the column arrays stay compact under churn instead of
    growing monotonically.  Columns register a ``clear_row(slot)``
    callback; it runs on **every** allocation, which is what guarantees
    a recycled slot carries no stale state.
    """

    def __init__(self, initial_capacity: int = 64) -> None:
        if initial_capacity < 1:
            raise ConfigurationError("initial capacity must be >= 1")
        self._capacity = int(initial_capacity)
        self._slot_of: dict[Hashable, int] = {}
        self._host_at: list[Optional[Hashable]] = [None] * self._capacity
        self._free: list[int] = []          # LIFO recycled slots
        self._next_fresh = 0                # never-used watermark
        self._clearers: list[Callable[[int], None]] = []
        self._growers: list[Callable[[int], None]] = []
        self.recycles = 0

    # -- capacity ---------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, host: Hashable) -> bool:
        return host in self._slot_of

    def hosts(self) -> Iterator[Hashable]:
        """Live hosts in slot order (deterministic)."""
        for slot in range(self._next_fresh):
            host = self._host_at[slot]
            if host is not None:
                yield host

    def register(
        self,
        clear_row: Callable[[int], None],
        grow: Callable[[int], None],
    ) -> None:
        """Attach a column: ``clear_row(slot)`` on every alloc,
        ``grow(new_capacity)`` when the slot space expands."""
        self._clearers.append(clear_row)
        self._growers.append(grow)
        grow(self._capacity)

    def _grow(self, needed: int) -> None:
        new_cap = self._capacity
        while new_cap < needed:
            new_cap *= 2
        self._host_at.extend([None] * (new_cap - self._capacity))
        self._capacity = new_cap
        for grow in self._growers:
            grow(new_cap)

    # -- alloc / free ------------------------------------------------------------
    def alloc(self, host: Hashable) -> int:
        """Admit ``host``; returns its (possibly recycled) slot.  The
        slot's row is cleared in every registered column first."""
        if host in self._slot_of:
            raise ConfigurationError(f"host {host!r} already has a slot")
        if self._free:
            slot = self._free.pop()
            self.recycles += 1
        else:
            if self._next_fresh >= self._capacity:
                self._grow(self._next_fresh + 1)
            slot = self._next_fresh
            self._next_fresh += 1
        self._slot_of[host] = slot
        self._host_at[slot] = host
        for clear in self._clearers:
            clear(slot)
        return slot

    def free(self, host: Hashable) -> int:
        """Evict ``host``; its slot goes on the free list for reuse."""
        slot = self._slot_of.pop(host, None)
        if slot is None:
            raise ConfigurationError(f"host {host!r} has no slot")
        self._host_at[slot] = None
        self._free.append(slot)
        return slot

    def slot_of(self, host: Hashable) -> int:
        return self._slot_of[host]

    def get_slot(self, host: Hashable) -> Optional[int]:
        return self._slot_of.get(host)

    def host_at(self, slot: int) -> Hashable:
        host = self._host_at[slot]
        if host is None:
            raise ConfigurationError(f"slot {slot} is not allocated")
        return host

    @property
    def free_slots(self) -> int:
        """Recycled slots currently awaiting reuse."""
        return len(self._free)

    @property
    def high_water(self) -> int:
        """Highest slot count ever allocated at once (fresh watermark)."""
        return self._next_fresh

    def check_invariants(self) -> None:
        """Free-list accounting must balance exactly — the property the
        10^5-host churn smoke test asserts (no leaked slots)."""
        if len(self._slot_of) + len(self._free) != self._next_fresh:
            raise AssertionError(
                f"slot leak: {len(self._slot_of)} live + {len(self._free)} free "
                f"!= {self._next_fresh} allocated"
            )
        if len(set(self._free)) != len(self._free):
            raise AssertionError("free list contains duplicate slots")


class NeighborColumns:
    """Bounded per-slot neighbor sets as rows of one int64 matrix.

    Rows hold **host ids** (not slots, so entries never dangle when a
    neighbor is evicted) in ascending order; ``counts[slot]`` is the row
    length.  The width doubles on demand, so ``max_degree`` is a starting
    hint, not a cap.
    """

    def __init__(self, allocator: SlotAllocator, max_degree: int = 8) -> None:
        if max_degree < 1:
            raise ConfigurationError("max_degree must be >= 1")
        self._width = int(max_degree)
        self._ids = np.empty((0, self._width), dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int32)
        allocator.register(self._clear_row, self._grow)

    def _grow(self, capacity: int) -> None:
        if capacity <= self._ids.shape[0]:
            return
        ids = np.zeros((capacity, self._width), dtype=np.int64)
        counts = np.zeros(capacity, dtype=np.int32)
        n = self._ids.shape[0]
        ids[:n] = self._ids
        counts[:n] = self.counts
        self._ids, self.counts = ids, counts

    def _widen(self) -> None:
        ids = np.zeros((self._ids.shape[0], self._width * 2), dtype=np.int64)
        ids[:, : self._width] = self._ids
        self._ids, self._width = ids, self._width * 2

    def _clear_row(self, slot: int) -> None:
        self.counts[slot] = 0

    # -- set operations -----------------------------------------------------------
    def add(self, slot: int, host_id: int) -> bool:
        """Insert ``host_id`` keeping the row sorted; False if present."""
        n = int(self.counts[slot])
        row = self._ids[slot, :n]
        i = int(np.searchsorted(row, host_id))
        if i < n and row[i] == host_id:
            return False
        if n == self._width:
            self._widen()
        self._ids[slot, i + 1 : n + 1] = self._ids[slot, i:n]
        self._ids[slot, i] = host_id
        self.counts[slot] = n + 1
        return True

    def discard(self, slot: int, host_id: int) -> bool:
        n = int(self.counts[slot])
        row = self._ids[slot, :n]
        i = int(np.searchsorted(row, host_id))
        if i >= n or row[i] != host_id:
            return False
        self._ids[slot, i : n - 1] = self._ids[slot, i + 1 : n]
        self.counts[slot] = n - 1
        return True

    def contains(self, slot: int, host_id: int) -> bool:
        n = int(self.counts[slot])
        row = self._ids[slot, :n]
        i = int(np.searchsorted(row, host_id))
        return i < n and row[i] == host_id

    def row(self, slot: int) -> np.ndarray:
        """The slot's neighbor ids, ascending (a read-only view)."""
        out = self._ids[slot, : int(self.counts[slot])]
        out.flags.writeable = False
        return out

    def clear(self, slot: int) -> None:
        self.counts[slot] = 0

    def degree(self, slot: int) -> int:
        return int(self.counts[slot])

    def degrees(self, slots: Sequence[int]) -> np.ndarray:
        """Vectorised degree gather for a batch of slots."""
        return self.counts[np.asarray(slots, dtype=np.intp)]


class Bitmap2D:
    """Per-slot packed bitsets: one ``uint64``-word row per slot."""

    def __init__(self, allocator: SlotAllocator, n_bits: int = 64) -> None:
        if n_bits < 1:
            raise ConfigurationError("bitmap width must be >= 1")
        self.n_bits = int(n_bits)
        self._words = (self.n_bits + 63) // 64
        self._bits = np.empty((0, self._words), dtype=np.uint64)
        allocator.register(self._clear_row, self._grow)

    def _grow(self, capacity: int) -> None:
        if capacity <= self._bits.shape[0]:
            return
        bits = np.zeros((capacity, self._words), dtype=np.uint64)
        n = self._bits.shape[0]
        bits[:n] = self._bits
        self._bits = bits

    def _clear_row(self, slot: int) -> None:
        self._bits[slot] = 0

    def _locate(self, bit: int) -> tuple[int, np.uint64]:
        if not (0 <= bit < self.n_bits):
            raise ConfigurationError(
                f"bit {bit} out of range for {self.n_bits}-bit bitmap"
            )
        return bit >> 6, np.uint64(1 << (bit & 63))

    def set(self, slot: int, bit: int) -> None:
        word, mask = self._locate(bit)
        self._bits[slot, word] |= mask

    def clear(self, slot: int, bit: int) -> None:
        word, mask = self._locate(bit)
        self._bits[slot, word] &= ~mask

    def test(self, slot: int, bit: int) -> bool:
        word, mask = self._locate(bit)
        return bool(self._bits[slot, word] & mask)

    def clear_row(self, slot: int) -> None:
        self._bits[slot] = 0

    def count(self, slot: int) -> int:
        """Popcount of one slot's row."""
        return int(
            np.bitwise_count(self._bits[slot]).sum()
            if hasattr(np, "bitwise_count")
            else sum(int(w).bit_count() for w in self._bits[slot])
        )

    def bits(self, slot: int) -> list[int]:
        """Set bit positions of one slot, ascending."""
        row = self._bits[slot]
        out: list[int] = []
        for w, word in enumerate(row):
            word = int(word)
            base = w << 6
            while word:
                low = word & -word
                out.append(base + low.bit_length() - 1)
                word ^= low
        return out

    def counts(self, slots: Sequence[int]) -> np.ndarray:
        """Vectorised popcount over a batch of slots."""
        rows = self._bits[np.asarray(slots, dtype=np.intp)]
        if hasattr(np, "bitwise_count"):
            return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        return np.array(
            [sum(int(w).bit_count() for w in r) for r in rows], dtype=np.int64
        )

    # -- column (per-bit) batch operations ----------------------------------------
    def test_slots(self, slots: Sequence[int], bit: int) -> np.ndarray:
        """Vectorised :meth:`test` of one bit over a batch of slots."""
        word, mask = self._locate(bit)
        idx = np.asarray(slots, dtype=np.intp)
        return (self._bits[idx, word] & mask) != 0

    def set_slots(self, slots: Sequence[int], bit: int) -> None:
        """Vectorised :meth:`set` of one bit over a batch of slots."""
        word, mask = self._locate(bit)
        idx = np.asarray(slots, dtype=np.intp)
        self._bits[idx, word] |= mask

    def clear_column(self, bit: int) -> None:
        """Clear one bit across *all* slots (one masked word-column AND —
        how a generation-expired seen-filter key is retired)."""
        word, mask = self._locate(bit)
        self._bits[:, word] &= ~mask


class PeerState:
    """The struct-of-arrays hot state of a peer population.

    One instance can back several overlays at once: each named neighbor
    table (``table("neighbors")``) and named bitmap (``bitmap("pieces",
    n_bits)``) is an independent column family over the same slot space,
    and all of them are cleared together when a slot is recycled.
    """

    def __init__(
        self,
        *,
        initial_capacity: int = 64,
        max_degree: int = 8,
    ) -> None:
        self.slots = SlotAllocator(initial_capacity)
        self._default_degree = max_degree
        self.status = np.zeros(0, dtype=np.int8)
        self.region = np.zeros(0, dtype=np.int32)
        self._tables: dict[str, NeighborColumns] = {}
        self._bitmaps: dict[str, Bitmap2D] = {}
        self.slots.register(self._clear_row, self._grow)

    def _grow(self, capacity: int) -> None:
        if capacity <= self.status.shape[0]:
            return
        status = np.zeros(capacity, dtype=np.int8)
        region = np.zeros(capacity, dtype=np.int32)
        n = self.status.shape[0]
        status[:n] = self.status
        region[:n] = self.region
        self.status, self.region = status, region

    def _clear_row(self, slot: int) -> None:
        self.status[slot] = OFFLINE
        self.region[slot] = 0

    # -- column families ---------------------------------------------------------
    def table(self, name: str, max_degree: Optional[int] = None) -> NeighborColumns:
        """The named neighbor table (created on first use)."""
        cols = self._tables.get(name)
        if cols is None:
            cols = NeighborColumns(
                self.slots, max_degree or self._default_degree
            )
            self._tables[name] = cols
        return cols

    def bitmap(self, name: str, n_bits: int = 64) -> Bitmap2D:
        """The named bitmap (created on first use)."""
        bm = self._bitmaps.get(name)
        if bm is None:
            bm = Bitmap2D(self.slots, n_bits)
            self._bitmaps[name] = bm
        return bm

    # -- membership ---------------------------------------------------------------
    def admit(self, host: Hashable, region: int = 0) -> int:
        slot = self.slots.alloc(host)
        self.region[slot] = region
        return slot

    def evict(self, host: Hashable) -> int:
        slot = self.slots.free(host)
        # Freed slots stay out of the allocator until recycled, but the
        # bulk liveness scans (online_count/online_hosts) read the status
        # column straight through the high-water mark — reset it here so
        # an evicted-while-online host cannot linger in those counts.
        self.status[slot] = OFFLINE
        return slot

    def __contains__(self, host: Hashable) -> bool:
        return host in self.slots

    def __len__(self) -> int:
        return len(self.slots)

    def slot_of(self, host: Hashable) -> int:
        return self.slots.slot_of(host)

    def host_at(self, slot: int) -> Hashable:
        return self.slots.host_at(slot)

    def hosts(self) -> list[Hashable]:
        return list(self.slots.hosts())

    # -- liveness -----------------------------------------------------------------
    def set_online(self, host: Hashable) -> None:
        self.status[self.slots.slot_of(host)] = ONLINE

    def set_offline(self, host: Hashable) -> None:
        self.status[self.slots.slot_of(host)] = OFFLINE

    def set_crashed(self, host: Hashable) -> None:
        self.status[self.slots.slot_of(host)] = CRASHED

    def is_online(self, host: Hashable) -> bool:
        return bool(self.status[self.slots.slot_of(host)] == ONLINE)

    def status_of(self, host: Hashable) -> str:
        return _STATUS_NAMES[int(self.status[self.slots.slot_of(host)])]

    def online_count(self) -> int:
        return int(np.count_nonzero(self.status[: self.slots.high_water] == ONLINE))

    def online_hosts(self) -> list[Hashable]:
        """Online hosts in slot order."""
        live = np.flatnonzero(self.status[: self.slots.high_water] == ONLINE)
        return [self.slots.host_at(int(s)) for s in live]

    def set_status_many(self, hosts: Iterable[Hashable], status: int) -> None:
        """Batch liveness update by host id (one fancy-index write)."""
        idx = np.fromiter(
            (self.slots.slot_of(h) for h in hosts), dtype=np.intp
        )
        if idx.size:
            self.status[idx] = status

    def slots_of(self, hosts: Sequence[Hashable]) -> np.ndarray:
        """Resolve a host batch to a slot vector once; steady-state bulk
        callers (churn sweeps, scans at 10^5+ hosts) hold the vector and
        use the slot-level operations instead of re-resolving per call."""
        return np.fromiter(
            (self.slots.slot_of(h) for h in hosts),
            dtype=np.intp,
            count=len(hosts),
        )

    def set_status_slots(self, slots: np.ndarray, status: int) -> None:
        """Batch liveness update by slot vector — one vectorised write,
        no per-host resolution."""
        self.status[slots] = status

    # -- regions -------------------------------------------------------------------
    def region_of(self, host: Hashable) -> int:
        return int(self.region[self.slots.slot_of(host)])

    # -- diagnostics ---------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.slots.capacity

    def memory_bytes(self) -> int:
        """Bytes held by the column arrays (not Python-side indices)."""
        total = self.status.nbytes + self.region.nbytes
        for cols in self._tables.values():
            total += cols._ids.nbytes + cols.counts.nbytes
        for bm in self._bitmaps.values():
            total += bm._bits.nbytes
        return total


class ArrayNeighborSet:
    """Set-like view of one slot's row in a :class:`NeighborColumns`.

    Drop-in for the ``set[int]`` neighbor fields of overlay nodes:
    ``add``/``discard``/``clear``/``in``/``len``/iteration, with
    **ascending** iteration order (the canonical order of the sorted
    rows — deterministic, unlike hash order).
    """

    __slots__ = ("_cols", "_slot")

    def __init__(self, cols: NeighborColumns, slot: int) -> None:
        self._cols = cols
        self._slot = slot

    def add(self, host_id: int) -> None:
        self._cols.add(self._slot, int(host_id))

    def discard(self, host_id: int) -> None:
        self._cols.discard(self._slot, int(host_id))

    def clear(self) -> None:
        self._cols.clear(self._slot)

    def update(self, host_ids: Iterable[int]) -> None:
        for h in host_ids:
            self._cols.add(self._slot, int(h))

    def __contains__(self, host_id: object) -> bool:
        return isinstance(host_id, int) and self._cols.contains(
            self._slot, host_id
        )

    def __len__(self) -> int:
        return self._cols.degree(self._slot)

    def __iter__(self) -> Iterator[int]:
        return iter(self._cols.row(self._slot).tolist())

    def __bool__(self) -> bool:
        return self._cols.degree(self._slot) > 0

    def __or__(self, other: Iterable[int]) -> set[int]:
        return set(self) | set(other)

    __ror__ = __or__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset, ArrayNeighborSet)):
            return set(self) == set(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayNeighborSet({set(self)!r})"
