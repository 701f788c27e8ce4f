"""Disk search engines: cost model, candidate sets, beam & block search, RS."""

from .batch import EXEC_MODES, BatchExecutor, ExecSpec
from .beam_search import BeamSearchEngine
from .block_cache import CachedDiskGraph, DecodeCache
from .block_search import BlockSearchEngine
from .cache import HotVertexCache, build_hot_vertex_cache
from .cache_strategies import (
    CACHE_STRATEGY_NAMES,
    LocalityBlockCache,
    PinnedBlockCache,
    select_hot_blocks,
    wrap_with_cache_strategy,
)
from .cost import ComputeSpec, FaultStats, QueryStats, WaveStats
from .early_stop import AdaptiveEarlyStopper, DeadlineStopper
from .frontier import CandidateSet, ResultSet, ordered_unique
from .range_search import incremental_range_search, repeated_anns_range_search
from .resilience import RetryPolicy
from .results import RangeResult, SearchResult
from .serve import (
    CircuitBreaker,
    Overloaded,
    SearchService,
    ServeReport,
    ServeSpec,
    ServedQuery,
    Ticket,
    poisson_arrivals_us,
)

__all__ = [
    "CACHE_STRATEGY_NAMES",
    "EXEC_MODES",
    "AdaptiveEarlyStopper",
    "BatchExecutor",
    "BeamSearchEngine",
    "BlockSearchEngine",
    "CachedDiskGraph",
    "CandidateSet",
    "CircuitBreaker",
    "ComputeSpec",
    "DeadlineStopper",
    "DecodeCache",
    "ExecSpec",
    "FaultStats",
    "HotVertexCache",
    "LocalityBlockCache",
    "Overloaded",
    "PinnedBlockCache",
    "QueryStats",
    "RangeResult",
    "ResultSet",
    "RetryPolicy",
    "SearchResult",
    "SearchService",
    "ServeReport",
    "ServeSpec",
    "ServedQuery",
    "Ticket",
    "WaveStats",
    "build_hot_vertex_cache",
    "incremental_range_search",
    "ordered_unique",
    "poisson_arrivals_us",
    "repeated_anns_range_search",
    "select_hot_blocks",
    "wrap_with_cache_strategy",
]
