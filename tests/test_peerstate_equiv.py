"""Equivalence harness: SoA columns vs the object references.

Every struct-of-arrays data structure introduced by the scale refactor
is pinned to its object-based predecessor, kept in
``tests/peerstate_oracle.py``.  These tests drive both arms with
identical operation sequences — random admit/evict/churn/table/bitmap
ops from hypothesis, plus seeded numpy streams for the overlay
structures — and assert the observable state is identical.  Any
divergence is a semantics change the refactor smuggled in, not an
optimisation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peerstate import CRASHED, OFFLINE, ONLINE, PeerState
from repro.overlay.gnutella.hostcache import HostCache
from repro.overlay.kademlia.id_space import ID_BITS
from repro.overlay.kademlia.routing_table import Contact, RoutingTable
from repro.sim import ChurnConfig, ChurnProcess, Simulation

from tests.peerstate_oracle import (
    HostCacheReference,
    PeerStateReference,
    RoutingTableReference,
    SetLiveness,
)

SEEDS = (101, 202, 303)


# -- PeerState vs PeerStateReference -------------------------------------------------
HOSTS = st.integers(min_value=0, max_value=15)
_op = st.one_of(
    st.tuples(st.just("admit"), HOSTS, st.integers(0, 5)),
    st.tuples(st.just("evict"), HOSTS),
    st.tuples(st.just("status"), HOSTS, st.sampled_from([OFFLINE, ONLINE, CRASHED])),
    st.tuples(st.just("tadd"), HOSTS, st.integers(0, 30)),
    st.tuples(st.just("tdel"), HOSTS, st.integers(0, 30)),
    st.tuples(st.just("bset"), HOSTS, st.integers(0, 63)),
    st.tuples(st.just("bclr"), HOSTS, st.integers(0, 63)),
)


def _apply_peerstate_ops(ops):
    """Run one op sequence through both arms, returning them for comparison."""
    soa = PeerState(initial_capacity=2, max_degree=2)
    ref = PeerStateReference()
    table = soa.table("nbrs")
    bitmap = soa.bitmap("bits", 64)
    ref.declare_bitmap("bits", 64)
    for op in ops:
        kind, host = op[0], op[1]
        present = host in soa
        assert present == (host in ref)
        if kind == "admit" and not present:
            soa.admit(host, region=op[2])
            ref.admit(host, region=op[2])
        elif kind == "evict" and present:
            soa.evict(host)
            ref.evict(host)
        elif not present:
            continue
        elif kind == "status":
            soa.set_status_many([host], op[2])
            ref.set_status_many([host], op[2])
        elif kind == "tadd":
            assert table.add(soa.slot_of(host), op[2]) == ref.table_add(
                host, "nbrs", op[2]
            )
        elif kind == "tdel":
            assert table.discard(soa.slot_of(host), op[2]) == ref.table_discard(
                host, "nbrs", op[2]
            )
        elif kind == "bset":
            bitmap.set(soa.slot_of(host), op[2])
            ref.bitmap_set(host, "bits", op[2])
        elif kind == "bclr":
            bitmap.clear(soa.slot_of(host), op[2])
            ref.bitmap_clear(host, "bits", op[2])
    return soa, table, bitmap, ref


def _assert_peerstate_equal(soa, table, bitmap, ref):
    assert sorted(soa.hosts(), key=repr) == sorted(ref.hosts(), key=repr)
    assert len(soa) == len(ref)
    assert soa.online_count() == ref.online_count()
    assert sorted(soa.online_hosts()) == sorted(ref.online_hosts())
    for host in ref.hosts():
        slot = soa.slot_of(host)
        assert soa.status_of(host) == ref.status_of(host)
        assert soa.region_of(host) == ref.region_of(host)
        assert table.row(slot).tolist() == ref.table_row(host, "nbrs")
        assert table.degree(slot) == ref.table_degree(host, "nbrs")
        assert bitmap.bits(slot) == ref.bitmap_bits(host, "bits")
        assert bitmap.count(slot) == ref.bitmap_count(host, "bits")


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op, max_size=120))
def test_peerstate_equivalent_under_random_ops(ops):
    soa, table, bitmap, ref = _apply_peerstate_ops(ops)
    soa.slots.check_invariants()
    _assert_peerstate_equal(soa, table, bitmap, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_peerstate_equivalent_under_seeded_churn(seed):
    """Long seeded sequence with heavy slot recycling (beyond what
    hypothesis shrinks to) — the free-list stress version."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(2500):
        r = rng.random()
        host = int(rng.integers(40))
        if r < 0.30:
            ops.append(("admit", host, int(rng.integers(6))))
        elif r < 0.50:
            ops.append(("evict", host))
        elif r < 0.65:
            ops.append(("status", host, int(rng.integers(3))))
        elif r < 0.80:
            ops.append(("tadd", host, int(rng.integers(64))))
        elif r < 0.88:
            ops.append(("tdel", host, int(rng.integers(64))))
        elif r < 0.96:
            ops.append(("bset", host, int(rng.integers(64))))
        else:
            ops.append(("bclr", host, int(rng.integers(64))))
    soa, table, bitmap, ref = _apply_peerstate_ops(ops)
    soa.slots.check_invariants()
    assert soa.slots.recycles > 100  # the stress actually recycled slots
    _assert_peerstate_equal(soa, table, bitmap, ref)


# -- RoutingTable vs RoutingTableReference -------------------------------------------
def _random_contacts(rng, n, id_pool):
    for _ in range(n):
        node_id = id_pool[int(rng.integers(len(id_pool)))]
        yield Contact(
            node_id=node_id,
            host_id=node_id % 1000,
            rtt_ms=float(rng.uniform(1.0, 300.0)),
        )


def _assert_tables_equal(arr: RoutingTable, obj: RoutingTableReference):
    assert arr.size() == obj.size()
    assert arr.nonempty_buckets() == obj.nonempty_buckets()
    for b in obj.nonempty_buckets():
        # bucket-for-bucket, in LRU slot order
        assert arr.buckets[b].contacts() == obj.buckets[b].contacts()
    assert arr.all_contacts() == obj.all_contacts()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("proximity", [False, True])
def test_routing_table_backends_equivalent(seed, proximity):
    rng = np.random.default_rng(seed)

    def rand_id():
        return int.from_bytes(rng.bytes(ID_BITS // 8), "big")

    own_id = rand_id() or 1
    # a mixed pool: single-bit flips of own_id hit every bucket depth,
    # fully random ids concentrate in the far buckets
    id_pool = [own_id ^ (1 << int(b)) for b in rng.integers(0, ID_BITS, size=30)]
    id_pool += [rand_id() for _ in range(30)]
    id_pool = [i for i in id_pool if i != own_id] or [own_id ^ 1]
    arr = RoutingTable(own_id, k=4, proximity=proximity)
    obj = RoutingTableReference(own_id, k=4, proximity=proximity)
    for i, contact in enumerate(_random_contacts(rng, 400, id_pool)):
        assert arr.update(contact) == obj.update(contact)
        if i % 10 == 0:
            victim = id_pool[int(rng.integers(len(id_pool)))]
            arr.remove(victim)
            obj.remove(victim)
        if i % 25 == 0:
            target = rand_id()
            assert arr.closest(target, 8) == obj.closest(target, 8)
            probe = id_pool[int(rng.integers(len(id_pool)))]
            assert arr.get(probe) == obj.get(probe)
    _assert_tables_equal(arr, obj)
    target = rand_id()
    assert arr.closest(target) == obj.closest(target)


# -- HostCache vs HostCacheReference -------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_hostcache_equivalent_under_seeded_ops(seed):
    rng = np.random.default_rng(seed)
    arr, ref = HostCache(capacity=20), HostCacheReference(capacity=20)
    for _ in range(1500):
        r = rng.random()
        peer = int(rng.integers(60))
        if r < 0.70:
            arr.add(peer)
            ref.add(peer)
        elif r < 0.85:
            arr.remove(peer)
            ref.remove(peer)
        else:
            limit = int(rng.integers(1, 25))
            assert arr.snapshot(limit) == ref.snapshot(limit)
        assert (peer in arr) == (peer in ref)
        assert len(arr) == len(ref)
    assert arr.snapshot() == ref.snapshot()


@pytest.mark.parametrize("seed", SEEDS)
def test_hostcache_fill_random_equivalent(seed):
    arr, ref = HostCache(capacity=30), HostCacheReference(capacity=30)
    population = list(range(200, 300))
    arr.fill_random(population, 25, rng=seed)
    ref.fill_random(population, 25, rng=seed)
    assert arr.snapshot() == ref.snapshot()


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 30)),
        max_size=200,
    )
)
@settings(max_examples=80, deadline=None)
def test_hostcache_equivalent_property(ops):
    arr, ref = HostCache(capacity=8), HostCacheReference(capacity=8)
    for kind, peer in ops:
        getattr(arr, kind)(peer)
        getattr(ref, kind)(peer)
    assert len(arr) == len(ref)
    assert arr.snapshot() == ref.snapshot()
    assert arr.snapshot(3) == ref.snapshot(3)


# -- ChurnProcess: SoA liveness vs SetLiveness ----------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_churn_liveness_column_equivalent(seed):
    """Same seed, same peers: the SoA status column and a plain Python
    set agree on the online population at every sampled time."""
    peers = [f"p{i}" for i in range(30)]
    cfg = ChurnConfig(mean_session=600.0, mean_offline=300.0)

    def run(reference: bool):
        sim = Simulation()
        log = []
        churn = ChurnProcess(
            sim, peers, cfg,
            lambda p: log.append(("j", p)),
            lambda p: log.append(("l", p)),
            rng=seed, peerstate=SetLiveness() if reference else None,
        )
        churn.start(warmup=120.0)
        snapshots = []
        for t in (200.0, 1000.0, 3000.0):
            sim.run(until=t)
            snapshots.append((churn.online, churn.joins, churn.leaves))
        churn.stop()
        return log, snapshots

    log_soa, snaps_soa = run(reference=False)
    log_ref, snaps_ref = run(reference=True)
    assert log_soa == log_ref
    assert snaps_soa == snaps_ref
    assert snaps_soa[-1][1] > 0  # the scenario actually churned
