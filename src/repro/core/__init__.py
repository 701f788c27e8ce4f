"""Core library: segment index facades, builders, budgets, coordination."""

from .builder import build_diskann, build_starling
from .config import (
    DiskANNConfig,
    GraphConfig,
    NavigationConfig,
    PQConfig,
    SegmentBudget,
    StarlingConfig,
)
from .coordinator import CoordinatedResult, SegmentCoordinator, split_dataset
from .lifecycle import (
    InvalidVectorError,
    LifecycleError,
    LifecycleSpec,
    SealedSegment,
    SegmentLifecycle,
    UnknownIdError,
    UpdateError,
    plan_compaction,
)
from .segment import (
    BudgetReport,
    BuildTimings,
    DiskANNIndex,
    MemoryFootprint,
    StarlingIndex,
)

__all__ = [
    "BudgetReport",
    "BuildTimings",
    "CoordinatedResult",
    "DiskANNConfig",
    "DiskANNIndex",
    "GraphConfig",
    "InvalidVectorError",
    "LifecycleError",
    "LifecycleSpec",
    "MemoryFootprint",
    "NavigationConfig",
    "PQConfig",
    "SealedSegment",
    "SegmentBudget",
    "SegmentCoordinator",
    "SegmentLifecycle",
    "StarlingConfig",
    "StarlingIndex",
    "UnknownIdError",
    "UpdateError",
    "build_diskann",
    "build_starling",
    "plan_compaction",
    "split_dataset",
]
