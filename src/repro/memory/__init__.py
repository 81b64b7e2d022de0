"""Memory-hierarchy substrate: caches, DRAM, replacement, partitioning."""

from .address import BLOCK_SIZE, addr_of, block_of, fold_hash, hash32
from .cache import AccessResult, Cache, CacheStats, Line
from .dram import DRAM, DRAMStats
from .events import EV, EventBus
from .hierarchy import CacheLevel, CoreHierarchy, SharedUncore, UncoreLevel
from .metadata_store import MetadataTraffic, PartitionController
from .replacement import (HawkeyeLitePolicy, LRUPolicy, RandomPolicy,
                          ReplacementPolicy, SRRIPPolicy, make_policy)

__all__ = [
    "BLOCK_SIZE", "addr_of", "block_of", "fold_hash", "hash32",
    "AccessResult", "Cache", "CacheStats", "Line",
    "DRAM", "DRAMStats",
    "EV", "EventBus",
    "CacheLevel", "CoreHierarchy", "SharedUncore", "UncoreLevel",
    "MetadataTraffic", "PartitionController",
    "HawkeyeLitePolicy", "LRUPolicy", "RandomPolicy", "ReplacementPolicy",
    "SRRIPPolicy", "make_policy",
]
