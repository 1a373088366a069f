"""Table 1: the catalogue of underlay-aware systems, as a code registry.

Each entry records a system the survey lists, its information type, and
which module of this repository implements the corresponding technique.
Entries whose technique is implemented carry a factory used by the
Table 1 benchmark to instantiate a representative configuration; survey
entries we cover by an equivalent technique point at that technique.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.collection.base import UnderlayInfoType


@dataclass(frozen=True)
class SystemEntry:
    """One row of Table 1."""

    name: str
    info_type: UnderlayInfoType
    reference: str           # citation key in the paper
    technique: str           # short description of the mechanism
    implemented_by: str      # module path in this repo realising it
    representative: bool = False  # used as its class representative in benches


TABLE1_SYSTEMS: tuple[SystemEntry, ...] = (
    # --- ISP-location -------------------------------------------------------
    SystemEntry(
        "BNS (biased neighbor selection)", UnderlayInfoType.ISP_LOCATION, "[3]",
        "tracker returns same-AS peers plus a small external quota",
        "repro.overlay.bittorrent.tracker", representative=True,
    ),
    SystemEntry(
        "Oracle (ISP-aided)", UnderlayInfoType.ISP_LOCATION, "[1]",
        "in-network ISP component ranks candidate lists by AS hops",
        "repro.collection.oracle", representative=True,
    ),
    SystemEntry(
        "Ono", UnderlayInfoType.ISP_LOCATION, "[5]",
        "CDN redirection ratio maps as a free proximity signal",
        "repro.collection.cdn", representative=True,
    ),
    SystemEntry(
        "CAT (cost-aware BitTorrent)", UnderlayInfoType.ISP_LOCATION, "[32]",
        "choking prefers low-cost (same-AS) peers",
        "repro.overlay.bittorrent.peer",
    ),
    SystemEntry(
        "TSO / LSH hierarchy", UnderlayInfoType.ISP_LOCATION, "[31]",
        "topology-aware hierarchical structured overlay",
        "repro.overlay.chord",
    ),
    SystemEntry(
        "LTM (location-aware topology matching)", UnderlayInfoType.ISP_LOCATION,
        "[21]", "cuts low-productive overlay links with a cheaper 2-hop relay",
        "repro.core.ltm", representative=True,
    ),
    SystemEntry(
        "P4P (iTracker)", UnderlayInfoType.ISP_LOCATION, "[29]",
        "ISP publishes PID-level p-distances; appTrackers weight peers by them",
        "repro.collection.p4p", representative=True,
    ),
    SystemEntry(
        "Brocade", UnderlayInfoType.ISP_LOCATION, "[36]",
        "landmark supernodes route across ASes",
        "repro.overlay.hierarchical",
    ),
    SystemEntry(
        "Plethora", UnderlayInfoType.ISP_LOCATION, "[9]",
        "local + global overlay split along locality boundaries",
        "repro.overlay.hierarchical", representative=True,
    ),
    SystemEntry(
        "Mithos", UnderlayInfoType.ISP_LOCATION, "[28]",
        "topology-aware embedding for overlay construction",
        "repro.coords.vivaldi",
    ),
    SystemEntry(
        "MBC (measurement-based construction)", UnderlayInfoType.ISP_LOCATION,
        "[35]", "sparing explicit measurement + locality-aware links",
        "repro.collection.measurement",
    ),
    # --- Latency --------------------------------------------------------------
    SystemEntry(
        "Vivaldi", UnderlayInfoType.LATENCY, "[7]",
        "decentralized spring-embedding coordinates",
        "repro.coords.vivaldi", representative=True,
    ),
    SystemEntry(
        "ICS (Lim et al.)", UnderlayInfoType.LATENCY, "[20]",
        "PCA of a beacon distance matrix; hosts embed locally",
        "repro.coords.ics", representative=True,
    ),
    SystemEntry(
        "GNP / landmark proximity", UnderlayInfoType.LATENCY, "[26]",
        "landmark embedding and distributed binning",
        "repro.coords.gnp", representative=True,
    ),
    SystemEntry(
        "gMeasure", UnderlayInfoType.LATENCY, "[23]",
        "group-based network performance measurement",
        "repro.collection.group_measurement", representative=True,
    ),
    SystemEntry(
        "Genius", UnderlayInfoType.LATENCY, "[23]",
        "location-aware gossip using network coordinates",
        "repro.coords.vivaldi",
    ),
    SystemEntry(
        "eCAN", UnderlayInfoType.LATENCY, "[30]",
        "topology-aware structured overlay (proximity route/neighbor selection)",
        "repro.overlay.chord", representative=True,
    ),
    SystemEntry(
        "Leopard", UnderlayInfoType.LATENCY, "[33]",
        "geographically scoped hashing joins content and locality",
        "repro.overlay.kademlia.scoped", representative=True,
    ),
    SystemEntry(
        "Proximity in DHTs", UnderlayInfoType.LATENCY, "[4]",
        "PNS/PR in structured overlays",
        "repro.overlay.kademlia", representative=True,
    ),
    SystemEntry(
        "Proximity in Kademlia", UnderlayInfoType.LATENCY, "[17]",
        "low-RTT bucket retention (the peer next door)",
        "repro.overlay.kademlia.routing_table",
    ),
    # --- Geolocation -------------------------------------------------------------
    SystemEntry(
        "Globase.KOM", UnderlayInfoType.GEOLOCATION, "[18][19]",
        "hierarchical zone tree, fully retrievable location search",
        "repro.overlay.geo.globase", representative=True,
    ),
    SystemEntry(
        "GeoPeer", UnderlayInfoType.GEOLOCATION, "[2]",
        "location-constrained queries and dissemination",
        "repro.overlay.geo.queries",
    ),
    # --- Peer resources --------------------------------------------------------------
    SystemEntry(
        "SkyEye.KOM", UnderlayInfoType.PEER_RESOURCES, "[11]",
        "information management over-overlay (oracle view)",
        "repro.collection.skyeye", representative=True,
    ),
    SystemEntry(
        "Bandwidth-aware P2P-TV scheduling", UnderlayInfoType.PEER_RESOURCES,
        "[6]", "capacity-ordered chunk scheduling in a mesh-pull stream",
        "repro.overlay.streaming", representative=True,
    ),
    SystemEntry(
        "Capacity-based super-peer election", UnderlayInfoType.PEER_RESOURCES,
        "[11]", "strongest peers take the super-peer role",
        "repro.overlay.superpeer.hybrid", representative=True,
    ),
)


def systems_by_type(info: UnderlayInfoType) -> list[SystemEntry]:
    """Registry rows for one information type."""
    return [s for s in TABLE1_SYSTEMS if s.info_type == info]


def representatives() -> list[SystemEntry]:
    """Registry rows marked as their class representative."""
    return [s for s in TABLE1_SYSTEMS if s.representative]


def implemented_modules() -> set[str]:
    """Distinct module paths the registry maps systems onto."""
    return {s.implemented_by for s in TABLE1_SYSTEMS}
