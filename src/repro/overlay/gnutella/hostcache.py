"""Gnutella hostcache: the bounded pool of known peer addresses.

A node bootstraps from its hostcache (filled, as in the testlab of [1],
with a random subset of the network's addresses) and keeps it fresh from
PONG advertisements.  The ``limit`` parameter of :meth:`snapshot` models
the "list size 100 / 1000" sent to the oracle in the biased experiments.

:class:`HostCache` is array-backed (struct-of-arrays: a peer column and
an insertion-stamp column, grown geometrically up to ``capacity`` so
10^5 nodes do not each preallocate a 1000-entry pool), with a dict index
for O(1) membership.  LRU order lives in the stamps, not in element
positions, so ``remove`` is a swap-with-last instead of a shift.
``tests/test_peerstate_equiv.py`` pins it to the ordered-dict oracle
in ``tests/peerstate_oracle.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import OverlayError
from repro.rng import SeedLike, ensure_rng


class HostCache:
    """Insertion-ordered bounded set of peer addresses (host ids)."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise OverlayError("hostcache capacity must be >= 1")
        self.capacity = capacity
        self._slot_of: dict[int, int] = {}
        size = min(capacity, 16)
        self._peers = np.zeros(size, dtype=np.int64)
        self._stamps = np.zeros(size, dtype=np.int64)
        self._n = 0
        self._clock = 0

    def __len__(self) -> int:
        return self._n

    def __contains__(self, peer: int) -> bool:
        return peer in self._slot_of

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def add(self, peer: int) -> None:
        """Insert (move-to-back on re-add); evicts the oldest when full."""
        slot = self._slot_of.get(peer)
        if slot is not None:
            self._stamps[slot] = self._tick()
            return
        if self._n == self.capacity:
            # evict the minimum-stamp (oldest) entry, reuse its slot
            victim = int(np.argmin(self._stamps[: self._n]))
            del self._slot_of[int(self._peers[victim])]
            slot = victim
        else:
            if self._n == len(self._peers):
                grow = min(self.capacity, len(self._peers) * 2)
                self._peers = np.resize(self._peers, grow)
                self._stamps = np.resize(self._stamps, grow)
            slot = self._n
            self._n += 1
        self._peers[slot] = peer
        self._stamps[slot] = self._tick()
        self._slot_of[peer] = slot

    def add_all(self, peers: Iterable[int]) -> None:
        for p in peers:
            self.add(p)

    def remove(self, peer: int) -> None:
        slot = self._slot_of.pop(peer, None)
        if slot is None:
            return
        last = self._n - 1
        if slot != last:
            moved = int(self._peers[last])
            self._peers[slot] = moved
            self._stamps[slot] = self._stamps[last]
            self._slot_of[moved] = slot
        self._n = last

    def snapshot(self, limit: Optional[int] = None) -> list[int]:
        """Most recent entries first, truncated to ``limit``."""
        n = self._n
        if n == 0:
            return []
        # stamps are unique and increasing: descending stamp == most
        # recent first
        order = np.argsort(self._stamps[:n])[::-1]
        if limit is not None:
            order = order[:limit]
        return [int(p) for p in self._peers[:n][order]]

    def fill_random(
        self, population: Sequence[int], n: int, rng: SeedLike = None
    ) -> None:
        """Bootstrap fill: a random ``n``-subset of ``population``."""
        rng = ensure_rng(rng)
        pop = list(population)
        n = min(n, len(pop), self.capacity)
        if n == 0:
            return
        idx = rng.choice(len(pop), size=n, replace=False)
        for i in idx:
            self.add(pop[int(i)])
