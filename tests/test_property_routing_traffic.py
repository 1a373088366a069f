"""Property tests over generated topologies: valley-free routing and
traffic-accounting conservation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.underlay import (
    ASRouting,
    TopologyConfig,
    TrafficAccountant,
    Underlay,
    UnderlayConfig,
    generate_topology,
)

from tests.ledger_oracle import MessageLedger, ledger_state

topo_configs = st.builds(
    TopologyConfig,
    n_tier1=st.integers(min_value=1, max_value=4),
    n_tier2=st.integers(min_value=2, max_value=8),
    n_stub=st.integers(min_value=2, max_value=15),
    n_regions=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


def _is_valley_free(topo, path):
    phase = "up"
    for a, b in zip(path, path[1:]):
        asys = topo.asys(a)
        if b in asys.providers:
            step = "up"
        elif b in asys.peers:
            step = "peer"
        elif b in asys.customers:
            step = "down"
        else:
            return False
        if phase == "up":
            phase = step
        elif phase in ("peer", "down"):
            if step != "down":
                return False
            phase = "down"
    return True


@settings(max_examples=25, deadline=None)
@given(topo_configs)
def test_generated_topologies_fully_valley_free_routable(cfg):
    topo = generate_topology(cfg)
    routing = ASRouting(topo)
    mat = routing.hop_matrix()  # raises if any pair unroutable
    assert (mat >= 0).all()
    # spot-check path structure from a few sources
    n = len(topo)
    for src in range(0, n, max(1, n // 4)):
        for dst in range(0, n, max(1, n // 3)):
            path = routing.path(src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(set(path)) == len(path)  # loop-free
            assert _is_valley_free(topo, path), path


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=29),
            st.integers(min_value=0, max_value=29),
            st.integers(min_value=1, max_value=10_000),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_traffic_accounting_conserves_bytes(seed, messages):
    underlay = Underlay.generate(UnderlayConfig(n_hosts=30, seed=seed % 100))
    acct = TrafficAccountant(underlay.topology, underlay.routing, underlay.asn_of)
    ids = underlay.host_ids()
    sent = 0
    for src_i, dst_i, size in messages:
        src, dst = ids[src_i], ids[dst_i]
        if src == dst:
            continue
        acct.observe(src, dst, size, "K")
        sent += size
    # every sent byte lands in exactly one class
    assert acct.summary.total_bytes == sent
    # link-level bytes: each inter-AS message charges each traversed link
    # once, so link totals are at least the inter-AS class totals
    inter = acct.summary.peering_bytes + acct.summary.transit_bytes
    assert sum(acct.link_bytes.values()) >= inter
    # paying ASes exist iff transit was crossed
    assert bool(acct.paid_transit_bytes) == (acct.summary.transit_bytes > 0)


_LEDGER_UNDERLAY = Underlay.generate(UnderlayConfig(n_hosts=30, seed=21))
_LEDGER_IDS = _LEDGER_UNDERLAY.host_ids()

#: each step: optional clock jump (some cross a 300 s bucket), optional
#: read or reset, then one send among ten hosts (so AS pairs repeat)
_ledger_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.just(0) | st.integers(min_value=1, max_value=10_000),
        st.sampled_from(["QUERY", "DATA"]),
        st.sampled_from([0.0] * 6 + [150.0, 299.5, 700.0]),
        st.sampled_from(["send", "send", "send", "read", "reset"]),
    ),
    max_size=60,
)


def _without_billing_order(state):
    """``ledger_state`` with the billing ledger's dicts sorted."""
    samples, totals = state[4], state[5]
    return state[:4] + (
        sorted((k, sorted(v)) for k, v in samples), sorted(totals)
    ) + state[6:]


@settings(max_examples=60, deadline=None)
@given(_ledger_steps)
def test_deferred_ledger_matches_per_message_oracle(steps):
    """Random sends (many of zero bytes), clock jumps across 300 s
    buckets, reads between sends and resets: the deferred ledger equals
    the per-message oracle in values and in dict insertion order at every
    read.  The one documented exception: once a pending (src AS, dst AS,
    bucket) counter was opened by a zero-byte message, the billing
    ledger may list its payer earlier, so its order is not compared."""
    u = _LEDGER_UNDERLAY
    now = [0.0]

    def clock():
        return now[0]

    def assert_same():
        a, o = ledger_state(acct), ledger_state(oracle)
        if opened_by_zero:
            a, o = _without_billing_order(a), _without_billing_order(o)
        assert a == o

    acct = TrafficAccountant(u.topology, u.routing, u.asn_of, clock=clock)
    oracle = MessageLedger(u.topology, u.routing, u.asn_of, clock=clock)
    opened = set()  # pending keys since the last read or reset
    opened_by_zero = False
    for i, j, size, kind, jump, action in steps:
        now[0] += jump
        if action == "read":
            assert_same()
            opened.clear()
        elif action == "reset":
            acct.reset()
            oracle.reset()
            opened.clear()
            opened_by_zero = False
        src, dst = _LEDGER_IDS[i], _LEDGER_IDS[j]
        key = (u.asn_of(src), u.asn_of(dst), int(now[0] // 300.0))
        if key[0] != key[1] and key not in opened:
            opened.add(key)
            opened_by_zero = opened_by_zero or size == 0
        acct.observe(src, dst, size, kind)
        oracle.observe(src, dst, size, kind)
    assert_same()
