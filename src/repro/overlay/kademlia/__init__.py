"""Kademlia DHT with proximity neighbor selection (Kaune et al. [17])."""

from repro.overlay.kademlia.id_space import (
    ID_BITS,
    ID_SPACE,
    bucket_index,
    key_for,
    random_id,
    random_id_in_bucket,
    sort_by_distance,
    xor_distance,
)
from repro.overlay.kademlia.network import KademliaNetwork, LookupStats
from repro.overlay.kademlia.node import KademliaConfig, KademliaNode, LookupResult
from repro.overlay.kademlia.routing_table import Contact, RoutingTable
from repro.overlay.kademlia.scoped import ScopedHashing, ScopedKademlia

__all__ = [
    "Contact",
    "ID_BITS",
    "ID_SPACE",
    "KademliaConfig",
    "KademliaNetwork",
    "KademliaNode",
    "LookupResult",
    "LookupStats",
    "RoutingTable",
    "ScopedHashing",
    "ScopedKademlia",
    "bucket_index",
    "key_for",
    "random_id",
    "random_id_in_bucket",
    "sort_by_distance",
    "xor_distance",
]
