"""Object-per-peer references for the struct-of-arrays peer state.

Each class here is the plain layout a ``src/`` structure replaced: one
record object per peer, Python sets and lists inside.  The equivalence
tests drive a production structure and its reference with identical
operation sequences and assert identical observable state:

- :class:`PeerStateReference` — :class:`repro.core.peerstate.PeerState`
  (liveness, regions, neighbor tables, bitmaps);
- :class:`HostCacheReference` — :class:`repro.overlay.gnutella.hostcache.HostCache`
  (an insertion-ordered dict);
- :class:`KBucket` / :class:`RoutingTableReference` —
  :class:`repro.overlay.kademlia.routing_table.RoutingTable` (160 lists
  of contacts);
- :class:`SetLiveness` — the liveness column behind
  :class:`repro.sim.churn.ChurnProcess` (a set of online peers; pass it
  as ``peerstate=``);
- :class:`SeenSetReference` — :class:`repro.sim.queryplane.SeenFilter`
  (a dict of host sets per key).

``benchmarks/test_microbench_scale.py`` also times
:class:`PeerStateReference` as the baseline of its headline claim.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterable, Optional, Sequence

from repro.core.peerstate import CRASHED, OFFLINE, ONLINE
from repro.errors import ConfigurationError, OverlayError, SimulationError
from repro.overlay.kademlia.id_space import (
    ID_BITS,
    bucket_index,
    validate_id,
    xor_distance,
)
from repro.overlay.kademlia.routing_table import Contact
from repro.rng import SeedLike, ensure_rng

_STATUS_NAMES = {OFFLINE: "offline", ONLINE: "online", CRASHED: "crashed"}


# -- PeerState --------------------------------------------------------------------
class _RefPeer:
    """One peer record: per-peer object, Python sets, attribute storage."""

    __slots__ = ("status", "region", "tables", "bitmaps")

    def __init__(self, region: int) -> None:
        self.status = OFFLINE
        self.region = region
        self.tables: dict[str, set[int]] = {}
        self.bitmaps: dict[str, set[int]] = {}


class PeerStateReference:
    """The observable API of ``PeerState`` on one object per peer."""

    def __init__(self) -> None:
        self._peers: dict[Hashable, _RefPeer] = {}
        self._bitmap_widths: dict[str, int] = {}

    # -- membership ---------------------------------------------------------------
    def admit(self, host: Hashable, region: int = 0) -> None:
        if host in self._peers:
            raise ConfigurationError(f"host {host!r} already has a slot")
        self._peers[host] = _RefPeer(region)

    def evict(self, host: Hashable) -> None:
        if host not in self._peers:
            raise ConfigurationError(f"host {host!r} has no slot")
        del self._peers[host]

    def __contains__(self, host: Hashable) -> bool:
        return host in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    def hosts(self) -> list[Hashable]:
        return list(self._peers)

    # -- liveness -----------------------------------------------------------------
    def status_of(self, host: Hashable) -> str:
        return _STATUS_NAMES[self._peers[host].status]

    def online_count(self) -> int:
        return sum(1 for p in self._peers.values() if p.status == ONLINE)

    def online_hosts(self) -> list[Hashable]:
        return [h for h, p in self._peers.items() if p.status == ONLINE]

    def set_status_many(self, hosts: Iterable[Hashable], status: int) -> None:
        for h in hosts:
            self._peers[h].status = status

    def region_of(self, host: Hashable) -> int:
        return self._peers[host].region

    # -- neighbor tables ------------------------------------------------------------
    def _table(self, host: Hashable, name: str) -> set[int]:
        return self._peers[host].tables.setdefault(name, set())

    def table_add(self, host: Hashable, name: str, host_id: int) -> bool:
        t = self._table(host, name)
        if host_id in t:
            return False
        t.add(host_id)
        return True

    def table_discard(self, host: Hashable, name: str, host_id: int) -> bool:
        t = self._table(host, name)
        if host_id not in t:
            return False
        t.discard(host_id)
        return True

    def table_row(self, host: Hashable, name: str) -> list[int]:
        return sorted(self._table(host, name))

    def table_degree(self, host: Hashable, name: str) -> int:
        return len(self._table(host, name))

    # -- bitmaps ---------------------------------------------------------------------
    def declare_bitmap(self, name: str, n_bits: int) -> None:
        self._bitmap_widths[name] = n_bits

    def _bitmap(self, host: Hashable, name: str) -> set[int]:
        return self._peers[host].bitmaps.setdefault(name, set())

    def bitmap_set(self, host: Hashable, name: str, bit: int) -> None:
        width = self._bitmap_widths.setdefault(name, 64)
        if not (0 <= bit < width):
            raise ConfigurationError(
                f"bit {bit} out of range for {width}-bit bitmap"
            )
        self._bitmap(host, name).add(bit)

    def bitmap_clear(self, host: Hashable, name: str, bit: int) -> None:
        self._bitmap(host, name).discard(bit)

    def bitmap_bits(self, host: Hashable, name: str) -> list[int]:
        return sorted(self._bitmap(host, name))

    def bitmap_count(self, host: Hashable, name: str) -> int:
        return len(self._bitmap(host, name))


# -- HostCache ----------------------------------------------------------------------
class HostCacheReference:
    """The hostcache as an insertion-ordered dict."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise OverlayError("hostcache capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[int, None] = {}  # ordered set

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, peer: int) -> bool:
        return peer in self._entries

    def add(self, peer: int) -> None:
        """Insert (move-to-back on re-add); evicts the oldest when full."""
        if peer in self._entries:
            del self._entries[peer]
        self._entries[peer] = None
        while len(self._entries) > self.capacity:
            del self._entries[next(iter(self._entries))]

    def remove(self, peer: int) -> None:
        self._entries.pop(peer, None)

    def snapshot(self, limit: Optional[int] = None) -> list[int]:
        """Most recent entries first, truncated to ``limit``."""
        entries = list(reversed(self._entries))
        return entries if limit is None else entries[:limit]

    def fill_random(
        self, population: Sequence[int], n: int, rng: SeedLike = None
    ) -> None:
        """Bootstrap fill: a random ``n``-subset of ``population``."""
        rng = ensure_rng(rng)
        pop = list(population)
        n = min(n, len(pop), self.capacity)
        if n == 0:
            return
        for i in rng.choice(len(pop), size=n, replace=False):
            self.add(pop[int(i)])


# -- Kademlia routing table -----------------------------------------------------------
class KBucket:
    """A bounded, ordered list of contacts.

    ``proximity`` False: classic LRU — new contacts appended, existing
    contacts moved to the tail on update, inserts into a full bucket are
    dropped.  ``proximity`` True: the bucket keeps the k lowest-RTT
    contacts seen.
    """

    def __init__(self, k: int = 8, proximity: bool = False) -> None:
        if k < 1:
            raise OverlayError("bucket size must be >= 1")
        self.k = k
        self.proximity = proximity
        self._contacts: list[Contact] = []

    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: int) -> bool:
        return any(c.node_id == node_id for c in self._contacts)

    def contacts(self) -> list[Contact]:
        return list(self._contacts)

    def get(self, node_id: int) -> Optional[Contact]:
        for c in self._contacts:
            if c.node_id == node_id:
                return c
        return None

    def update(self, contact: Contact) -> bool:
        """Insert or refresh a contact; True if it is (now) in the bucket."""
        for i, c in enumerate(self._contacts):
            if c.node_id == contact.node_id:
                # refresh: move to tail (LRU) or keep best RTT (proximity)
                del self._contacts[i]
                if self.proximity and c.rtt_ms < contact.rtt_ms:
                    contact = c
                self._contacts.append(contact)
                return True
        if len(self._contacts) < self.k:
            self._contacts.append(contact)
            return True
        if self.proximity:
            worst_i = max(
                range(len(self._contacts)), key=lambda i: self._contacts[i].rtt_ms
            )
            if contact.rtt_ms < self._contacts[worst_i].rtt_ms:
                del self._contacts[worst_i]
                self._contacts.append(contact)
                return True
        return False

    def remove(self, node_id: int) -> None:
        self._contacts = [c for c in self._contacts if c.node_id != node_id]


class RoutingTableReference:
    """160 :class:`KBucket` lists indexed by shared-prefix length."""

    def __init__(self, own_id: int, *, k: int = 8, proximity: bool = False) -> None:
        self.own_id = validate_id(own_id)
        self.k = k
        self.buckets = [KBucket(k=k, proximity=proximity) for _ in range(ID_BITS)]

    def update(self, contact: Contact) -> bool:
        if contact.node_id == self.own_id:
            return False
        return self.buckets[bucket_index(self.own_id, contact.node_id)].update(contact)

    def remove(self, node_id: int) -> None:
        if node_id != self.own_id:
            self.buckets[bucket_index(self.own_id, node_id)].remove(node_id)

    def get(self, node_id: int) -> Optional[Contact]:
        if node_id == self.own_id:
            return None
        return self.buckets[bucket_index(self.own_id, node_id)].get(node_id)

    def all_contacts(self) -> list[Contact]:
        out: list[Contact] = []
        for b in self.buckets:
            out.extend(b.contacts())
        return out

    def closest(self, target: int, count: Optional[int] = None) -> list[Contact]:
        count = self.k if count is None else count
        target = validate_id(target)
        return heapq.nsmallest(
            count, self.all_contacts(), key=lambda c: xor_distance(c.node_id, target)
        )

    def size(self) -> int:
        return sum(len(b) for b in self.buckets)

    def nonempty_buckets(self) -> list[int]:
        return [i for i, b in enumerate(self.buckets) if len(b)]


# -- churn liveness --------------------------------------------------------------------
class SetLiveness:
    """The liveness calls ``ChurnProcess`` makes on its ``peerstate``,
    answered from a set of known peers and a set of online ones."""

    def __init__(self) -> None:
        self._known: set[Hashable] = set()
        self._online: set[Hashable] = set()

    def __contains__(self, peer: Hashable) -> bool:
        return peer in self._known

    def admit(self, peer: Hashable) -> None:
        self._known.add(peer)

    def is_online(self, peer: Hashable) -> bool:
        return peer in self._online

    def set_online(self, peer: Hashable) -> None:
        self._online.add(peer)

    def set_offline(self, peer: Hashable) -> None:
        self._online.discard(peer)

    set_crashed = set_offline


# -- seen filter ------------------------------------------------------------------------
class SeenSetReference:
    """The (key, host) duplicate-suppression window as a dict of host
    sets, with the same FIFO expiry of the oldest key."""

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise SimulationError(f"seen window must be >= 1, got {window}")
        self.window = int(window)
        self._sets: dict[Hashable, set] = {}
        self.expired_keys = 0

    def __len__(self) -> int:
        return len(self._sets)

    def known(self, key: Hashable) -> bool:
        return key in self._sets

    def _admit(self, key: Hashable) -> set:
        entry = self._sets.get(key)
        if entry is None:
            if len(self._sets) >= self.window:
                del self._sets[next(iter(self._sets))]
                self.expired_keys += 1
            entry = self._sets[key] = set()
        return entry

    def test(self, host: Hashable, key: Hashable) -> bool:
        entry = self._sets.get(key)
        return entry is not None and host in entry

    def mark(self, host: Hashable, key: Hashable) -> None:
        self._admit(key).add(host)

    def mark_many(self, hosts: Sequence[Hashable], key: Hashable) -> None:
        self._admit(key).update(hosts)

    def membership(self, key: Hashable) -> Optional[Callable[[Hashable], bool]]:
        if not self.known(key):
            return None
        return lambda host: self.test(host, key)
