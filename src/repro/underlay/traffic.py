"""Traffic accounting over the AS topology.

The accountant observes every delivered message (or bulk transfer) and
attributes its bytes to the inter-AS links its route traverses, classified
as *intra-AS*, *peering* or *transit*.  Transit bytes are additionally
charged to the paying AS (the customer side of each customer-provider link,
in both directions, matching how transit billing works), and sampled into
time buckets so the cost model can apply peak-rate (95th percentile)
billing as described in the survey's §2.1.

The ledger is deferred.  Per message, the accountant only counts the
message, the intra-AS and per-kind bytes, and adds an inter-AS message's
bytes to one pending ``(src AS, dst AS, bucket)`` counter, which holds the
AS pair's memoised :meth:`~repro.underlay.routing.ASRouting.charge_plan`
from the send that created it (so an unroutable pair fails at that send).
Reading any ledger view folds the pending counters in through their plans,
so a route is walked once per AS pair and charged once per (AS pair,
bucket) instead of once per message.  The fold runs in first-occurrence
order of the pending keys: the first message to touch a link or payer is
always the first occurrence of its key, so every ledger dict ends up with
the values and insertion order that charging message by message would
give (byte sums are integers, exact in the float billing ledger below
2**53).  The one exception is order, not value: the billing ledger skips
zero-byte charges, so a key whose first message is empty can list its
payer there earlier than per-message charging would.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.errors import ConfigurationError
from repro.underlay.cost import CostModel, TransitBillingLedger
from repro.underlay.routing import ASRouting, TrafficClass
from repro.underlay.topology import InternetTopology

#: the simulation clock's unit: send times given to ``record`` are in ms
_MS_PER_SECOND = 1000.0


@dataclass
class TrafficSummary:
    """Aggregated byte counters."""

    intra_as_bytes: int = 0
    peering_bytes: int = 0
    transit_bytes: int = 0
    messages: int = 0

    @property
    def total_bytes(self) -> int:
        return self.intra_as_bytes + self.peering_bytes + self.transit_bytes

    @property
    def intra_as_fraction(self) -> float:
        """Fraction of end-to-end flows' bytes that never left the source AS."""
        total = self.total_bytes
        return self.intra_as_bytes / total if total else 0.0

    @property
    def transit_fraction(self) -> float:
        total = self.total_bytes
        return self.transit_bytes / total if total else 0.0


class TrafficAccountant:
    """Attributes message bytes to AS links; implements the
    :class:`repro.sim.messages.TrafficObserver` protocol.

    Parameters
    ----------
    topology, routing:
        The underlay to account against.
    asn_of:
        Maps a bus endpoint id to its ASN.
    clock:
        Optional callable returning current (simulation) time in seconds;
        enables time-bucketed transit sampling for percentile billing.
        Without it every message lands in bucket 0.
    bucket_seconds:
        Width of the billing sample buckets (5 minutes by default, the
        industry-standard sampling interval).
    """

    def __init__(
        self,
        topology: InternetTopology,
        routing: ASRouting,
        asn_of: Callable[[Hashable], int],
        *,
        clock: Optional[Callable[[], float]] = None,
        bucket_seconds: float = 300.0,
    ) -> None:
        self.topology = topology
        self.routing = routing
        self._asn_of = asn_of
        self._clock = clock
        self.bucket_seconds = float(bucket_seconds)
        self._summary = TrafficSummary()
        self._link_bytes: dict[tuple[int, int], int] = defaultdict(int)
        self._paid_transit_bytes: dict[int, int] = defaultdict(int)
        self._transit_samples: dict[tuple[int, int], dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)
        #: inter-AS bytes not yet folded into the ledger with the AS pair's
        #: charge plan, keyed by (src ASN, dst ASN, bucket) in
        #: first-occurrence order
        self._pending: dict[tuple[int, int, int], list] = {}
        #: per message-kind byte counters (kind -> (intra, inter))
        self.kind_bytes: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    # -- TrafficObserver ------------------------------------------------------
    def observe(self, src: Hashable, dst: Hashable, size_bytes: int, kind: str) -> None:
        """Account one message sent now (at ``clock()``)."""
        self._charge(src, dst, size_bytes, kind, None)

    def record(
        self, time_ms: float, src: Hashable, dst: Hashable, kind: str, size_bytes: int
    ) -> None:
        """Account one message sent at simulation time ``time_ms`` (in
        milliseconds): the hook batch kernels call with the virtual send
        time they computed."""
        self._charge(src, dst, size_bytes, kind, time_ms / _MS_PER_SECOND)

    def _charge(
        self, src: Hashable, dst: Hashable, size_bytes: int, kind: str,
        seconds: Optional[float],
    ) -> None:
        if size_bytes < 0:
            raise ConfigurationError(f"message size must be non-negative, got {size_bytes}")
        asn_src = self._asn_of(src)
        asn_dst = self._asn_of(dst)
        summary = self._summary
        if asn_src == asn_dst:
            summary.messages += 1
            summary.intra_as_bytes += size_bytes
            self.kind_bytes[kind][0] += size_bytes
            return
        clock = self._clock
        if clock is None:
            bucket = 0
        else:
            if seconds is None:
                seconds = clock()
            bucket = int(seconds // self.bucket_seconds)
        key = (asn_src, asn_dst, bucket)
        entry = self._pending.get(key)
        if entry is None:
            # resolve the route before any counter changes
            self._pending[key] = [self.routing.charge_plan(asn_src, asn_dst), size_bytes]
        else:
            entry[1] += size_bytes
        summary.messages += 1
        self.kind_bytes[kind][1] += size_bytes

    def _flush(self) -> None:
        """Fold the pending counters into the ledger."""
        pending = self._pending
        if not pending:
            return
        summary = self._summary
        link_bytes = self._link_bytes
        paid = self._paid_transit_bytes
        samples = self._transit_samples
        record = self._billing.record
        width = self.bucket_seconds
        for (_src, _dst, bucket), (plan, nbytes) in pending.items():
            for link in plan.links:
                link_bytes[link] += nbytes
            for link, payer in plan.transit:
                paid[payer] += nbytes
                samples[link][bucket] += nbytes
                record(payer, bucket * width, nbytes)
            if plan.traffic_class is TrafficClass.TRANSIT:
                summary.transit_bytes += nbytes
            else:
                summary.peering_bytes += nbytes
        pending.clear()

    # -- ledger views (each folds the pending counters in first) --------------
    @property
    def summary(self) -> TrafficSummary:
        self._flush()
        return self._summary

    @property
    def link_bytes(self) -> dict[tuple[int, int], int]:
        """Bytes per inter-AS link keyed by (min_asn, max_asn)."""
        self._flush()
        return self._link_bytes

    @property
    def paid_transit_bytes(self) -> dict[int, int]:
        """Transit bytes charged to each paying (customer) AS."""
        self._flush()
        return self._paid_transit_bytes

    @property
    def transit_samples(self) -> dict[tuple[int, int], dict[int, int]]:
        """Per transit link: {bucket_index: bytes} for percentile billing."""
        self._flush()
        return self._transit_samples

    @property
    def billing(self) -> TransitBillingLedger:
        """Per paying AS: bucketed transit samples for percentile billing —
        the same ledger shape the flow-level data plane writes."""
        self._flush()
        return self._billing

    # -- queries ----------------------------------------------------------------
    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase), pending ones too."""
        self._pending.clear()
        self._summary = TrafficSummary()
        self._link_bytes.clear()
        self._paid_transit_bytes.clear()
        self._transit_samples.clear()
        self.kind_bytes.clear()
        self._billing = TransitBillingLedger(bucket_seconds=self.bucket_seconds)

    def per_as_bills(
        self, model: CostModel, *, percentile: float | None = None
    ) -> dict[int, float]:
        """Monthly transit bill per paying AS, percentile-billed through
        the shared :class:`~repro.underlay.cost.TransitBillingLedger`."""
        return self.billing.bills(model, percentile=percentile)

    def peak_transit_mbps(self, link: tuple[int, int], percentile: float = 95.0) -> float:
        """Billable rate of a transit link: the given percentile of the
        per-bucket rates (Mbps)."""
        import numpy as np

        samples = self.transit_samples.get((min(link), max(link)))
        if not samples:
            return 0.0
        buckets = np.array(sorted(samples))
        rates = np.array([samples[int(b)] for b in buckets], dtype=float)
        rates_mbps = rates * 8.0 / 1e6 / self.bucket_seconds
        return float(np.percentile(rates_mbps, percentile))
