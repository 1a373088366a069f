"""Kademlia routing table: 160 k-buckets keyed by shared-prefix length.

Retention policy.  Plain Kademlia retains the *oldest live* contacts
(LRU with head preference) because old contacts predict future
liveness.  The proximity variant of Kaune et al. [17] instead retains
the *lowest-latency* contacts among the candidates for a full bucket —
"embracing the peer next door" — which leaves routing correctness
untouched (any contact in the right bucket works) while making every
hop cheaper for the underlay.

Storage is struct-of-arrays: contact ids as 20-byte rows of a ``uint8``
matrix, host ids and RTTs as parallel ``int64``/``float64`` columns,
one row block per *occupied* bucket (lazily allocated — a node at
10^5-host scale touches ~log2(N) buckets, so preallocating all 160
would waste two orders of magnitude of memory).  ``closest()`` is
vectorised: XOR distance comparison equals lexicographic comparison of
the XORed big-endian byte rows, so one ``np.lexsort`` ranks the whole
table without converting a single 160-bit Python int.
``tests/test_peerstate_equiv.py`` pins the columns bucket-for-bucket to
the list-of-contacts k-bucket oracle in ``tests/peerstate_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import OverlayError
from repro.overlay.kademlia.id_space import ID_BITS, bucket_index, validate_id


@dataclass(frozen=True)
class Contact:
    """A routing-table entry: overlay id + transport address (+ measured
    proximity, used only by the PNS policy)."""

    node_id: int
    host_id: int
    rtt_ms: float = float("inf")


_ID_BYTES = ID_BITS // 8


def _id_bytes(node_id: int) -> np.ndarray:
    return np.frombuffer(node_id.to_bytes(_ID_BYTES, "big"), dtype=np.uint8)


class ArrayBucketView:
    """Read/write view of one bucket of a :class:`RoutingTable`.

    ``proximity`` False: classic LRU — new contacts appended, existing
    contacts moved to the tail on update, inserts into a full bucket are
    dropped (we skip the liveness-ping eviction dance; under our churn
    model stale contacts are removed explicitly).  ``proximity`` True:
    the bucket keeps the k lowest-RTT contacts seen.
    """

    __slots__ = ("_table", "_bucket")

    def __init__(self, table: "RoutingTable", bucket: int) -> None:
        self._table = table
        self._bucket = bucket

    def __len__(self) -> int:
        return self._table._bucket_len(self._bucket)

    def __contains__(self, node_id: int) -> bool:
        return self._table._bucket_get(self._bucket, node_id) is not None

    def get(self, node_id: int) -> Optional[Contact]:
        return self._table._bucket_get(self._bucket, node_id)

    def contacts(self) -> list[Contact]:
        return self._table._bucket_contacts(self._bucket)

    def update(self, contact: Contact) -> bool:
        return self._table._bucket_update(self._bucket, contact)

    def remove(self, node_id: int) -> None:
        self._table._bucket_remove(self._bucket, node_id)


class _BucketList:
    """Lazy sequence façade so ``table.buckets[i]`` yields a bucket view."""

    __slots__ = ("_table",)

    def __init__(self, table: "RoutingTable") -> None:
        self._table = table

    def __len__(self) -> int:
        return ID_BITS

    def __getitem__(self, bucket: int) -> ArrayBucketView:
        if not (-ID_BITS <= bucket < ID_BITS):
            raise IndexError(bucket)
        return ArrayBucketView(self._table, bucket % ID_BITS)

    def __iter__(self) -> Iterator[ArrayBucketView]:
        for b in range(ID_BITS):
            yield ArrayBucketView(self._table, b)


class RoutingTable:
    """160 k-buckets indexed by shared-prefix length with the owner id."""

    def __init__(
        self,
        own_id: int,
        *,
        k: int = 8,
        proximity: bool = False,
    ) -> None:
        self.own_id = validate_id(own_id)
        self.k = k
        self.proximity = proximity
        if k < 1:
            raise OverlayError("bucket size must be >= 1")
        self.buckets = _BucketList(self)
        # SoA columns: one row block per occupied bucket, grown on demand.
        self._row_of: dict[int, int] = {}    # bucket index -> row
        self._bucket_of: list[int] = []      # row -> bucket index
        self._ids = np.zeros((0, k, _ID_BYTES), dtype=np.uint8)
        self._ids_int: list[list[int]] = []  # row -> python ids (scan index)
        self._hosts = np.zeros((0, k), dtype=np.int64)
        self._rtts = np.zeros((0, k), dtype=np.float64)
        self._counts = np.zeros(0, dtype=np.int16)

    # -- column internals -----------------------------------------------------------
    def _row(self, bucket: int) -> int:
        row = self._row_of.get(bucket)
        if row is not None:
            return row
        row = len(self._bucket_of)
        if row >= self._ids.shape[0]:
            new_rows = max(8, self._ids.shape[0] * 2)
            grow = lambda a, shape: np.concatenate(  # noqa: E731
                [a, np.zeros(shape, dtype=a.dtype)]
            )
            add = new_rows - self._ids.shape[0]
            self._ids = grow(self._ids, (add, self.k, _ID_BYTES))
            self._hosts = grow(self._hosts, (add, self.k))
            self._rtts = grow(self._rtts, (add, self.k))
            self._counts = np.concatenate(
                [self._counts, np.zeros(add, dtype=np.int16)]
            )
        self._row_of[bucket] = row
        self._bucket_of.append(bucket)
        self._ids_int.append([])
        return row

    def _bucket_len(self, bucket: int) -> int:
        row = self._row_of.get(bucket)
        return 0 if row is None else int(self._counts[row])

    def _contact_at(self, row: int, i: int) -> Contact:
        return Contact(
            node_id=self._ids_int[row][i],
            host_id=int(self._hosts[row, i]),
            rtt_ms=float(self._rtts[row, i]),
        )

    def _bucket_get(self, bucket: int, node_id: int) -> Optional[Contact]:
        row = self._row_of.get(bucket)
        if row is None:
            return None
        ids = self._ids_int[row]
        for i in range(int(self._counts[row])):
            if ids[i] == node_id:
                return self._contact_at(row, i)
        return None

    def _bucket_contacts(self, bucket: int) -> list[Contact]:
        row = self._row_of.get(bucket)
        if row is None:
            return []
        return [self._contact_at(row, i) for i in range(int(self._counts[row]))]

    def _delete_slot(self, row: int, i: int, n: int) -> None:
        """Remove slot ``i`` from a row of length ``n``, shifting the tail
        left (LRU order is slot order)."""
        self._ids[row, i : n - 1] = self._ids[row, i + 1 : n]
        self._hosts[row, i : n - 1] = self._hosts[row, i + 1 : n]
        self._rtts[row, i : n - 1] = self._rtts[row, i + 1 : n]
        del self._ids_int[row][i]
        self._counts[row] = n - 1

    def _append_slot(self, row: int, contact: Contact) -> None:
        n = int(self._counts[row])
        self._ids[row, n] = _id_bytes(contact.node_id)
        self._hosts[row, n] = contact.host_id
        self._rtts[row, n] = contact.rtt_ms
        self._ids_int[row].append(contact.node_id)
        self._counts[row] = n + 1

    def _bucket_update(self, bucket: int, contact: Contact) -> bool:
        """Insert or refresh a contact; True if it is (now) in the bucket."""
        row = self._row(bucket)
        n = int(self._counts[row])
        ids = self._ids_int[row]
        for i in range(n):
            if ids[i] == contact.node_id:
                # refresh: move to tail (LRU) or keep best RTT (proximity)
                if self.proximity and self._rtts[row, i] < contact.rtt_ms:
                    contact = self._contact_at(row, i)
                self._delete_slot(row, i, n)
                self._append_slot(row, contact)
                return True
        if n < self.k:
            self._append_slot(row, contact)
            return True
        if self.proximity:
            rtts = self._rtts[row, :n]
            worst_i = int(np.argmax(rtts))
            if contact.rtt_ms < rtts[worst_i]:
                self._delete_slot(row, worst_i, n)
                self._append_slot(row, contact)
                return True
        return False

    def _bucket_remove(self, bucket: int, node_id: int) -> None:
        row = self._row_of.get(bucket)
        if row is None:
            return
        ids = self._ids_int[row]
        for i in range(int(self._counts[row])):
            if ids[i] == node_id:
                self._delete_slot(row, i, int(self._counts[row]))
                return

    def _occupancy_mask(self) -> np.ndarray:
        """Boolean (rows, k) mask of live slots."""
        rows = len(self._bucket_of)
        return np.arange(self.k) < self._counts[:rows, None]

    # -- public API ------------------------------------------------------------------
    def update(self, contact: Contact) -> bool:
        """Record that we heard from ``contact``; returns True if retained."""
        if contact.node_id == self.own_id:
            return False
        return self._bucket_update(bucket_index(self.own_id, contact.node_id), contact)

    def remove(self, node_id: int) -> None:
        if node_id == self.own_id:
            return
        self._bucket_remove(bucket_index(self.own_id, node_id), node_id)

    def get(self, node_id: int) -> Optional[Contact]:
        if node_id == self.own_id:
            return None
        return self._bucket_get(bucket_index(self.own_id, node_id), node_id)

    def all_contacts(self) -> list[Contact]:
        out: list[Contact] = []
        for bucket in sorted(self._row_of):
            out.extend(self._bucket_contacts(bucket))
        return out

    def closest(self, target: int, count: Optional[int] = None) -> list[Contact]:
        """The ``count`` contacts closest to ``target`` by XOR distance."""
        count = self.k if count is None else count
        target = validate_id(target)
        rows = len(self._bucket_of)
        if rows == 0 or count <= 0:
            return []
        mask = self._occupancy_mask()
        flat_ids = self._ids[:rows][mask]            # (n_contacts, 20)
        if flat_ids.shape[0] == 0:
            return []
        xored = flat_ids ^ _id_bytes(target)
        # Big-endian byte rows compare like the 160-bit integers they
        # encode: lexsort with byte 0 (most significant) as primary key.
        order = np.lexsort(tuple(xored[:, i] for i in range(_ID_BYTES - 1, -1, -1)))
        take = order[:count]
        # map flat positions back to (row, slot); distances are unique
        # (node ids are unique), so the order is fully determined
        row_idx, slot_idx = np.nonzero(mask)
        return [
            self._contact_at(int(row_idx[p]), int(slot_idx[p])) for p in take
        ]

    def size(self) -> int:
        rows = len(self._bucket_of)
        return int(self._counts[:rows].sum())

    def nonempty_buckets(self) -> list[int]:
        return sorted(
            b for b, row in self._row_of.items() if self._counts[row]
        )
