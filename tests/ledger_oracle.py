"""Per-message reference ledger for :class:`TrafficAccountant`.

:class:`MessageLedger` charges every message along its route the moment
it is observed, walking ``ASRouting.path_links`` once per message: the
direct form of the charging rule.  The deferred ledger must leave
exactly the same state, dict insertion order included; :func:`ledger_state`
captures that state for comparison.
"""

from __future__ import annotations

from collections import defaultdict

from repro.underlay.autonomous_system import LinkType
from repro.underlay.cost import TransitBillingLedger
from repro.underlay.traffic import TrafficSummary


class MessageLedger:
    """Charges each message along its route as it is observed."""

    def __init__(self, topology, routing, asn_of, *, clock=None,
                 bucket_seconds=300.0):
        self.topology = topology
        self.routing = routing
        self._asn_of = asn_of
        self._clock = clock
        self.bucket_seconds = float(bucket_seconds)
        self.reset()

    def observe(self, src, dst, size_bytes, kind):
        self._charge(None, src, dst, kind, size_bytes)

    def record(self, time_ms, src, dst, kind, size_bytes):
        self._charge(time_ms / 1000.0, src, dst, kind, size_bytes)

    def _charge(self, seconds, src, dst, kind, size_bytes):
        asn_src = self._asn_of(src)
        asn_dst = self._asn_of(dst)
        self.summary.messages += 1
        if asn_src == asn_dst:
            self.summary.intra_as_bytes += size_bytes
            self.kind_bytes[kind][0] += size_bytes
            return
        self.kind_bytes[kind][1] += size_bytes
        if self._clock is None:
            bucket = 0
        else:
            now = self._clock() if seconds is None else seconds
            bucket = int(now // self.bucket_seconds)
        crossed_transit = False
        crossed_peering = False
        for a, b, link_type in self.routing.path_links(asn_src, asn_dst):
            key = (min(a, b), max(a, b))
            self.link_bytes[key] += size_bytes
            if link_type is LinkType.TRANSIT:
                crossed_transit = True
                # the customer side of the link pays, regardless of direction
                payer = a if b in self.topology.asys(a).providers else b
                self.paid_transit_bytes[payer] += size_bytes
                self.transit_samples[key][bucket] += size_bytes
                self.billing.record(payer, bucket * self.bucket_seconds, size_bytes)
            else:
                crossed_peering = True
        # classify the flow by its most expensive link class
        if crossed_transit:
            self.summary.transit_bytes += size_bytes
        elif crossed_peering:
            self.summary.peering_bytes += size_bytes
        else:  # direct link of unknown type should not happen
            self.summary.intra_as_bytes += size_bytes

    def reset(self):
        self.summary = TrafficSummary()
        self.link_bytes = defaultdict(int)
        self.paid_transit_bytes = defaultdict(int)
        self.transit_samples = defaultdict(lambda: defaultdict(int))
        self.billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)
        self.kind_bytes = defaultdict(lambda: [0, 0])


def ledger_state(acct) -> tuple:
    """Every counter of a ledger as nested item lists, so that comparing
    two states checks values and dict insertion order."""
    s = acct.summary
    return (
        (s.intra_as_bytes, s.peering_bytes, s.transit_bytes, s.messages),
        list(acct.link_bytes.items()),
        list(acct.paid_transit_bytes.items()),
        [(k, list(v.items())) for k, v in acct.transit_samples.items()],
        [(k, list(v.items())) for k, v in acct.billing.samples.items()],
        list(acct.billing.total_bytes.items()),
        [(k, list(v)) for k, v in acct.kind_bytes.items()],
    )
