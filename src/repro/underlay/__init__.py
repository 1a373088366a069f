"""Synthetic Internet underlay: AS topology, routing, latency, hosts,
traffic accounting and ISP economics.

Quick path::

    from repro.underlay import Underlay, UnderlayConfig
    u = Underlay.generate(UnderlayConfig(n_hosts=100, seed=1))
"""

from repro.underlay.autonomous_system import AutonomousSystem, LinkType, Tier
from repro.underlay.cache import (
    SubstrateCache,
    cached_generate,
    configure_default_cache,
    default_cache,
    disable_default_cache,
    substrate_digest,
)
from repro.underlay.cost import CostModel, CostParams, TransitBillingLedger
from repro.underlay.geometry import Position, pairwise_distances
from repro.underlay.hosts import ACCESS_CLASSES, Host, HostFactory, PeerResources
from repro.underlay.latency import (
    LatencyConfig,
    LatencyModel,
    StreamingDelayKernel,
    pair_jitter,
)
from repro.underlay.mobility import (
    MobilityConfig,
    MobilityTrace,
    cached_info_accuracy,
    generate_mobility,
    refresh_tradeoff,
)
from repro.underlay.network import (
    STREAM_AUTO_HOST_THRESHOLD,
    Underlay,
    UnderlayConfig,
)
from repro.underlay.routing import ASRouting, ChargePlan, TrafficClass
from repro.underlay.topology import InternetTopology, TopologyConfig, generate_topology
from repro.underlay.traffic import TrafficAccountant, TrafficSummary

__all__ = [
    "ACCESS_CLASSES",
    "ASRouting",
    "AutonomousSystem",
    "ChargePlan",
    "CostModel",
    "CostParams",
    "Host",
    "HostFactory",
    "InternetTopology",
    "LatencyConfig",
    "LatencyModel",
    "LinkType",
    "MobilityConfig",
    "MobilityTrace",
    "PeerResources",
    "Position",
    "STREAM_AUTO_HOST_THRESHOLD",
    "StreamingDelayKernel",
    "SubstrateCache",
    "Tier",
    "TopologyConfig",
    "TrafficAccountant",
    "TrafficClass",
    "TrafficSummary",
    "TransitBillingLedger",
    "Underlay",
    "UnderlayConfig",
    "cached_generate",
    "cached_info_accuracy",
    "configure_default_cache",
    "default_cache",
    "disable_default_cache",
    "generate_mobility",
    "generate_topology",
    "pair_jitter",
    "pairwise_distances",
    "refresh_tradeoff",
    "substrate_digest",
]
