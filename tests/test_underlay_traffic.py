"""Unit tests for traffic accounting."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.experiments.fig5_gnutella_oracle import _run_arm
from repro.experiments.isp_bill import run_isp_bill
from repro.overlay.gnutella import NeighborPolicy
from repro.service import Bootstrapper, ServiceConfig
from repro.underlay import (
    ASRouting,
    AutonomousSystem,
    InternetTopology,
    Position,
    Tier,
    TrafficAccountant,
    Underlay,
)
from repro.underlay.autonomous_system import LinkType
from repro.underlay.routing import TrafficClass

from tests.ledger_oracle import MessageLedger, ledger_state


@pytest.fixture()
def accountant(small_underlay):
    u = small_underlay
    return u, TrafficAccountant(u.topology, u.routing, u.asn_of)


def _pair_with(u, want_same_as: bool):
    hosts = u.hosts
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            if (a.asn == b.asn) == want_same_as:
                return a.host_id, b.host_id
    raise AssertionError("no suitable pair found")


def test_intra_as_message(accountant):
    u, acct = accountant
    a, b = _pair_with(u, True)
    acct.observe(a, b, 500, "X")
    assert acct.summary.intra_as_bytes == 500
    assert acct.summary.transit_bytes == 0
    assert acct.summary.intra_as_fraction == 1.0


def test_inter_as_message_charges_links(accountant):
    u, acct = accountant
    a, b = _pair_with(u, False)
    acct.observe(a, b, 1000, "X")
    assert acct.summary.total_bytes == 1000
    assert acct.link_bytes  # at least one inter-AS link used
    links = u.routing.path_links(u.asn_of(a), u.asn_of(b))
    crossed_transit = any(t is LinkType.TRANSIT for _x, _y, t in links)
    if crossed_transit:
        assert acct.summary.transit_bytes == 1000
        # the paying AS is a customer on some link of the route
        assert acct.paid_transit_bytes
    else:
        assert acct.summary.peering_bytes == 1000


def test_message_counter(accountant):
    u, acct = accountant
    a, b = _pair_with(u, True)
    for _ in range(5):
        acct.observe(a, b, 10, "K")
    assert acct.summary.messages == 5


def test_kind_breakdown(accountant):
    u, acct = accountant
    same = _pair_with(u, True)
    diff = _pair_with(u, False)
    acct.observe(*same, 100, "CTRL")
    acct.observe(*diff, 200, "CTRL")
    intra, inter = acct.kind_bytes["CTRL"]
    assert (intra, inter) == (100, 200)


def test_reset(accountant):
    u, acct = accountant
    a, b = _pair_with(u, False)
    acct.observe(a, b, 100, "X")
    acct.reset()
    assert acct.summary.total_bytes == 0
    assert not acct.link_bytes


def test_peak_billing_with_clock(small_underlay):
    u = small_underlay
    t = {"now": 0.0}
    acct = TrafficAccountant(
        u.topology, u.routing, u.asn_of, clock=lambda: t["now"], bucket_seconds=300.0
    )
    a, b = _pair_with(u, False)
    links = u.routing.path_links(u.asn_of(a), u.asn_of(b))
    transit = [(x, y) for x, y, lt in links if lt is LinkType.TRANSIT]
    if not transit:
        pytest.skip("sampled pair crosses no transit link")
    # steady 1000 B per bucket for 10 buckets, then one 100x spike
    for k in range(10):
        t["now"] = k * 300.0
        acct.observe(a, b, 1000, "DATA")
    t["now"] = 10 * 300.0
    acct.observe(a, b, 100_000, "DATA")
    link = transit[0]
    p95 = acct.peak_transit_mbps(link, percentile=95)
    p100 = acct.peak_transit_mbps(link, percentile=100)
    assert p100 > p95  # sampled-peak billing shaves the spike
    assert p95 > 0


def test_negative_size_rejected_before_any_counter_changes(accountant):
    u, acct = accountant
    a, b = _pair_with(u, False)
    acct.observe(a, b, 100, "X")
    before = ledger_state(acct)
    for src, dst in (_pair_with(u, False), _pair_with(u, True)):
        with pytest.raises(ConfigurationError):
            acct.observe(src, dst, -1, "X")
    assert ledger_state(acct) == before


def test_unroutable_pair_fails_at_the_send():
    # peer-only chain 0 - 1 - 2: no valley-free route from AS0 to AS2
    a = AutonomousSystem(0, Tier.TIER1, Position(0, 0))
    b = AutonomousSystem(1, Tier.TIER1, Position(1, 0))
    c = AutonomousSystem(2, Tier.TIER1, Position(2, 0))
    a.peers.add(1); b.peers.update({0, 2}); c.peers.add(1)
    topo = InternetTopology([a, b, c])
    acct = TrafficAccountant(topo, ASRouting(topo), lambda asn: asn)
    acct.observe(0, 1, 100, "X")
    before = ledger_state(acct)
    with pytest.raises(RoutingError):
        acct.observe(0, 2, 100, "X")
    # the rejected message left no trace, and later sends and reads work
    assert ledger_state(acct) == before
    acct.observe(1, 2, 50, "X")
    assert acct.summary.peering_bytes == 150
    assert acct.summary.messages == 2
    assert dict(acct.link_bytes) == {(0, 1): 100, (1, 2): 50}


def test_zero_byte_messages_leave_oracle_values(small_underlay):
    u = small_underlay
    t = {"now": 0.0}
    acct = TrafficAccountant(u.topology, u.routing, u.asn_of, clock=lambda: t["now"])
    oracle = MessageLedger(u.topology, u.routing, u.asn_of, clock=lambda: t["now"])
    ids = u.host_ids()
    for k, (i, j) in enumerate([(0, 5), (3, 17), (0, 5), (9, 30), (3, 17)]):
        t["now"] = 250.0 * k
        size = 0 if k % 2 == 0 else 700
        for ledger in (acct, oracle):
            ledger.observe(ids[i], ids[j], size, "X")
    # values agree; a zero-byte message can only move a payer's position
    # in the billing ledger, which charges nothing for it
    assert acct.summary == oracle.summary
    assert acct.link_bytes == oracle.link_bytes
    assert acct.paid_transit_bytes == oracle.paid_transit_bytes
    assert acct.transit_samples == oracle.transit_samples
    assert acct.billing.samples == oracle.billing.samples
    assert acct.billing.total_bytes == oracle.billing.total_bytes


def test_charge_plan_is_memoised_until_invalidate(small_underlay):
    routing = small_underlay.routing
    a, b = _pair_with(small_underlay, False)
    src, dst = small_underlay.asn_of(a), small_underlay.asn_of(b)
    plan = routing.charge_plan(src, dst)
    assert routing.charge_plan(src, dst) is plan
    route = routing.path_links(src, dst)
    assert plan.links == tuple((min(x, y), max(x, y)) for x, y, _t in route)
    assert [link for link, _payer in plan.transit] == [
        (min(x, y), max(x, y)) for x, y, t in route if t is LinkType.TRANSIT
    ]
    routing.invalidate()
    assert routing.charge_plan(src, dst) == plan
    assert routing.charge_plan(src, dst) is not plan
    assert routing.charge_plan(src, src) == ((), (), TrafficClass.INTRA_AS)


def _capture_ledgers(monkeypatch):
    """Patch ``Underlay.message_bus`` so every accounted bus also feeds a
    per-message oracle; returns the (bus, accountant, oracle) list."""
    captured = []
    original = Underlay.message_bus

    def message_bus(self, sim, **kwargs):
        bus, acct = original(self, sim, **kwargs)
        if acct is not None:
            oracle = MessageLedger(
                self.topology, self.routing, self.asn_of,
                clock=lambda: sim.now / 1000.0,
            )
            bus.add_observer(oracle)
            captured.append((bus, acct, oracle))
        return bus, acct

    monkeypatch.setattr(Underlay, "message_bus", message_bus)
    return captured


def _assert_conserved(bus, acct, oracle):
    assert acct.summary.total_bytes == bus.stats.bytes_sent
    assert sum(acct.paid_transit_bytes.values()) == sum(acct.billing.total_bytes.values())
    for link, buckets in acct.transit_samples.items():
        assert sum(buckets.values()) == acct.link_bytes[link]
    assert ledger_state(acct) == ledger_state(oracle)


def _assert_messages_conserved(bus):
    """At quiescence every message the bus sent was delivered or dropped."""
    s = bus.stats
    assert s.sent > 0
    assert s.sent == (
        s.delivered + s.dropped_loss + s.dropped_fault + s.dropped_no_handler
    )


def test_fig5_run_conserves_bytes(monkeypatch):
    """A tiny FIG5 arm on both flood paths: the batch kernel commits its
    message counts through ``account_external``."""
    captured = _capture_ledgers(monkeypatch)
    for query_backend in ("reference", "batch"):
        _run_arm(
            name="unbiased", policy=NeighborPolicy.UNBIASED,
            oracle_list_limit=None, biased_download=False, n_hosts=40,
            cache_fill=30, seed=3, query_backend=query_backend,
        )
    assert len(captured) == 2
    for bus, acct, oracle in captured:
        _assert_conserved(bus, acct, oracle)
        _assert_messages_conserved(bus)


def test_kademlia_service_drive_conserves_messages():
    boot = Bootstrapper(ServiceConfig(overlay="kademlia", n_hosts=24, seed=5))
    boot.build()
    boot.drive_sync(rate_per_s=20.0, duration_ms=3_000.0, drain_ms=5_000.0)
    boot.sim.run()  # drain every in-flight message and timeout
    assert boot.sim.pending() == 0
    _assert_messages_conserved(boot.network.bus)
    boot.stop_sync()


def test_isp_bill_run_conserves_bytes(monkeypatch):
    captured = _capture_ledgers(monkeypatch)
    run_isp_bill(n_hosts=80, seed=3)
    assert len(captured) == 2
    for bus, acct, oracle in captured:
        assert acct.summary.transit_bytes > 0
        _assert_conserved(bus, acct, oracle)
        _assert_messages_conserved(bus)
