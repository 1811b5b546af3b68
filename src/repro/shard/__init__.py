"""Sharded PNW: hash-partitioned zones with concurrent batch pipelines."""

from .rebalance import Rebalancer
from .router import (
    ROUTER_SEED,
    RouterStats,
    RoutingTable,
    assign_shards,
    hash_keys,
    shard_of,
)
from .store import ShardedPNWStore, make_store, shard_configs

__all__ = [
    "ROUTER_SEED",
    "Rebalancer",
    "RouterStats",
    "RoutingTable",
    "ShardedPNWStore",
    "assign_shards",
    "hash_keys",
    "make_store",
    "shard_configs",
    "shard_of",
]
