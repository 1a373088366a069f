"""Unit tests for the struct-of-arrays peer state (repro.core.peerstate).

The recycled-slot regressions at the bottom pin the bug class the
free-list design exists to prevent: a host admitted into a recycled slot
inheriting its predecessor's neighbors, bitmap bits, or liveness status.
"""

import numpy as np
import pytest

from repro.core.peerstate import (
    CRASHED,
    OFFLINE,
    ONLINE,
    ArrayNeighborSet,
    Bitmap2D,
    NeighborColumns,
    PeerState,
    SlotAllocator,
)
from repro.errors import ConfigurationError
from repro.sim import ChurnConfig, ChurnProcess, Simulation


# -- SlotAllocator ------------------------------------------------------------------
class TestSlotAllocator:
    def test_dense_allocation(self):
        alloc = SlotAllocator(4)
        assert [alloc.alloc(f"h{i}") for i in range(3)] == [0, 1, 2]
        assert len(alloc) == 3
        assert alloc.slot_of("h1") == 1
        assert alloc.host_at(2) == "h2"
        assert list(alloc.hosts()) == ["h0", "h1", "h2"]

    def test_lifo_recycling(self):
        alloc = SlotAllocator(4)
        for i in range(3):
            alloc.alloc(i)
        alloc.free(0)
        alloc.free(2)
        # LIFO: the most recently freed slot (2) is reused first
        assert alloc.alloc("new-a") == 2
        assert alloc.alloc("new-b") == 0
        assert alloc.recycles == 2
        assert alloc.alloc("fresh") == 3  # free list drained -> fresh slot

    def test_grows_past_initial_capacity(self):
        alloc = SlotAllocator(2)
        for i in range(10):
            alloc.alloc(i)
        assert alloc.capacity >= 10
        assert len(alloc) == 10
        assert [alloc.slot_of(i) for i in range(10)] == list(range(10))

    def test_double_alloc_raises(self):
        alloc = SlotAllocator()
        alloc.alloc("x")
        with pytest.raises(ConfigurationError):
            alloc.alloc("x")

    def test_free_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            SlotAllocator().free("ghost")

    def test_host_at_unallocated_raises(self):
        alloc = SlotAllocator()
        alloc.alloc("x")
        alloc.free("x")
        with pytest.raises(ConfigurationError):
            alloc.host_at(0)

    def test_invariants_hold_under_churn(self):
        alloc = SlotAllocator(2)
        rng = np.random.default_rng(0)
        live = set()
        for _ in range(500):
            if live and rng.random() < 0.45:
                host = live.pop()
                alloc.free(host)
            else:
                host = int(rng.integers(10_000))
                if host not in live:
                    alloc.alloc(host)
                    live.add(host)
            alloc.check_invariants()
        assert len(alloc) == len(live)
        assert len(alloc) + alloc.free_slots == alloc.high_water

    def test_clear_callback_runs_on_every_alloc(self):
        alloc = SlotAllocator(4)
        cleared = []
        alloc.register(cleared.append, lambda cap: None)
        alloc.alloc("a")
        alloc.alloc("b")
        alloc.free("a")
        alloc.alloc("c")  # recycles a's slot
        assert cleared == [0, 1, 0]


# -- NeighborColumns ----------------------------------------------------------------
class TestNeighborColumns:
    def _make(self, width=4):
        alloc = SlotAllocator(4)
        cols = NeighborColumns(alloc, max_degree=width)
        return alloc, cols

    def test_sorted_set_semantics(self):
        alloc, cols = self._make()
        s = alloc.alloc("n")
        assert cols.add(s, 30)
        assert cols.add(s, 10)
        assert cols.add(s, 20)
        assert not cols.add(s, 20)  # duplicate
        assert cols.row(s).tolist() == [10, 20, 30]
        assert cols.contains(s, 20)
        assert not cols.contains(s, 15)
        assert cols.discard(s, 20)
        assert not cols.discard(s, 20)
        assert cols.row(s).tolist() == [10, 30]
        assert cols.degree(s) == 2

    def test_widens_past_max_degree(self):
        alloc, cols = self._make(width=2)
        s = alloc.alloc("n")
        for h in range(7):
            cols.add(s, h)
        assert cols.row(s).tolist() == list(range(7))

    def test_rows_are_independent(self):
        alloc, cols = self._make()
        a, b = alloc.alloc("a"), alloc.alloc("b")
        cols.add(a, 1)
        cols.add(b, 2)
        assert cols.row(a).tolist() == [1]
        assert cols.row(b).tolist() == [2]
        assert cols.degrees([a, b]).tolist() == [1, 1]

    def test_row_view_is_readonly(self):
        alloc, cols = self._make()
        s = alloc.alloc("n")
        cols.add(s, 5)
        with pytest.raises(ValueError):
            cols.row(s)[0] = 9


# -- Bitmap2D -----------------------------------------------------------------------
class TestBitmap2D:
    def test_set_clear_test(self):
        alloc = SlotAllocator(4)
        bm = Bitmap2D(alloc, n_bits=130)  # multi-word row
        s = alloc.alloc("n")
        for bit in (0, 63, 64, 129):
            bm.set(s, bit)
        assert bm.bits(s) == [0, 63, 64, 129]
        assert bm.count(s) == 4
        assert bm.test(s, 64)
        bm.clear(s, 64)
        assert not bm.test(s, 64)
        assert bm.bits(s) == [0, 63, 129]

    def test_out_of_range_raises(self):
        alloc = SlotAllocator(4)
        bm = Bitmap2D(alloc, n_bits=8)
        s = alloc.alloc("n")
        with pytest.raises(ConfigurationError):
            bm.set(s, 8)
        with pytest.raises(ConfigurationError):
            bm.test(s, -1)

    def test_batch_counts(self):
        alloc = SlotAllocator(4)
        bm = Bitmap2D(alloc, n_bits=64)
        slots = [alloc.alloc(i) for i in range(3)]
        for i, s in enumerate(slots):
            for bit in range(i + 1):
                bm.set(s, bit)
        assert bm.counts(slots).tolist() == [1, 2, 3]


# -- PeerState ----------------------------------------------------------------------
class TestPeerState:
    def test_membership_and_liveness(self):
        state = PeerState(initial_capacity=2)
        state.admit("a", region=7)
        state.admit("b", region=9)
        assert "a" in state and len(state) == 2
        assert state.status_of("a") == "offline"
        state.set_online("a")
        state.set_crashed("b")
        assert state.is_online("a") and not state.is_online("b")
        assert state.status_of("b") == "crashed"
        assert state.online_count() == 1
        assert state.online_hosts() == ["a"]
        state.evict("a")
        assert "a" not in state

    def test_set_status_many(self):
        state = PeerState()
        for h in range(6):
            state.admit(h)
        state.set_status_many(range(4), ONLINE)
        state.set_status_many([0, 1], CRASHED)
        assert state.online_count() == 2
        assert state.online_hosts() == [2, 3]

    def test_regions(self):
        state = PeerState()
        state.admit("x", region=13)
        assert state.region_of("x") == 13
        state.evict("x")
        state.admit("y")  # recycles x's slot with a cleared region
        assert state.region_of("y") == 0

    def test_named_column_families_are_cached(self):
        state = PeerState()
        assert state.table("nbrs") is state.table("nbrs")
        assert state.bitmap("pieces", 32) is state.bitmap("pieces")

    def test_memory_bytes_counts_all_columns(self):
        state = PeerState(initial_capacity=8)
        state.admit("a")
        base = state.memory_bytes()
        state.table("nbrs", 16)
        state.bitmap("pieces", 256)
        assert state.memory_bytes() > base


# -- ArrayNeighborSet ---------------------------------------------------------------
class TestArrayNeighborSet:
    def _view(self):
        state = PeerState()
        slot = state.admit("me")
        return ArrayNeighborSet(state.table("nbrs", 4), slot)

    def test_set_protocol(self):
        s = self._view()
        assert not s and len(s) == 0
        s.update([5, 3, 9])
        s.add(1)
        s.discard(3)
        s.discard(99)  # no-op
        assert list(s) == [1, 5, 9]  # ascending, deterministic
        assert 5 in s and 3 not in s
        assert "not-an-int" not in s
        assert len(s) == 3 and bool(s)
        assert (s | {2}) == {1, 2, 5, 9}
        assert ({2} | s) == {1, 2, 5, 9}
        assert s == {1, 5, 9}
        s.clear()
        assert len(s) == 0


# -- recycled-slot regressions ------------------------------------------------------
class TestRecycledSlotHygiene:
    def test_recycled_slot_rows_are_clean(self):
        """Evict A, admit B into A's slot: B must not inherit A's
        neighbors, bitmap bits, liveness status, or region."""
        state = PeerState(initial_capacity=4)
        nbrs = state.table("nbrs", 4)
        pieces = state.bitmap("pieces", 64)
        slot_a = state.admit("A", region=42)
        nbrs.add(slot_a, 7)
        nbrs.add(slot_a, 8)
        pieces.set(slot_a, 3)
        state.set_online("A")
        state.evict("A")
        slot_b = state.admit("B")
        assert slot_b == slot_a  # the slot really was recycled
        assert nbrs.row(slot_b).tolist() == []
        assert pieces.bits(slot_b) == []
        assert state.status_of("B") == "offline"
        assert state.region_of("B") == 0

    def test_column_created_after_recycling_starts_clean(self):
        """A table created *after* slots have churned must still present
        clean rows for later recycled allocations."""
        state = PeerState(initial_capacity=4)
        state.admit("A")
        state.evict("A")
        late = state.table("late", 4)
        slot = state.admit("B")
        assert late.row(slot).tolist() == []

    def test_churn_revive_after_eviction_readmits_cleanly(self):
        """ChurnProcess.revive() of a peer that was evicted from a shared
        PeerState (its slot since recycled by another host) must re-admit
        it with a fresh row instead of reading the recycled slot."""
        sim = Simulation()
        state = PeerState(initial_capacity=4)
        joined, left = [], []
        churn = ChurnProcess(
            sim,
            ["p0", "p1"],
            ChurnConfig(mean_session=1e9, mean_offline=1e9),
            joined.append,
            left.append,
            rng=1,
            peerstate=state,
        )
        churn.start(warmup=1.0)
        sim.run(until=2.0)
        assert set(joined) == {"p0", "p1"}

        churn.crash("p0")
        assert state.status_of("p0") == "crashed"
        # the overlay tears p0 down and reuses its slot for a new host
        slot_p0 = state.slot_of("p0")
        state.evict("p0")
        assert state.admit("intruder") == slot_p0
        state.set_online("intruder")

        # revive must not be fooled by the recycled slot's ONLINE status
        churn.revive("p0", delay=1.0)
        assert "p0" in state
        assert state.slot_of("p0") != slot_p0  # fresh slot, not intruder's
        assert state.status_of("p0") == "offline"
        sim.run(until=sim.now + 2.0)
        assert joined.count("p0") == 2  # the revive join fired
        assert state.is_online("p0") and state.is_online("intruder")
        state.slots.check_invariants()

    def test_churn_crash_on_recycled_slot_does_not_touch_new_host(self):
        """crash() of a peer no longer in the shared PeerState must not
        flip the status of whoever now owns the recycled slot."""
        sim = Simulation()
        state = PeerState(initial_capacity=4)
        churn = ChurnProcess(
            sim,
            ["p0"],
            ChurnConfig(mean_session=1e9, mean_offline=1e9),
            lambda p: None,
            lambda p: None,
            rng=1,
            peerstate=state,
        )
        churn.start(warmup=0.0)
        sim.run(until=1.0)
        state.evict("p0")
        slot = state.admit("other")
        state.set_online("other")
        churn.crash("p0")  # p0 gone from the state: must be a no-op
        assert state.is_online("other")
        assert state.host_at(slot) == "other"
