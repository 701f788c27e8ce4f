"""Configuration for segment indexes (the paper's Tab. 16/17/21 parameters)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..engine.resilience import RetryPolicy
from ..storage.faults import FaultSpec


@dataclass(frozen=True)
class SegmentBudget:
    """Space limits of one data segment (§2.2).

    The paper's segment holds ≤ 4 GB of raw vectors with 2 GB of memory and
    10 GB of disk.  Reproductions run at reduced scale, so
    :meth:`for_data_bytes` keeps the paper's *ratios*: memory = data/2,
    disk = 2.5 × data.
    """

    memory_bytes: int
    disk_bytes: int

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0 or self.disk_bytes <= 0:
            raise ValueError("budgets must be positive")

    @classmethod
    def for_data_bytes(
        cls, data_bytes: int, *, memory_fraction: float = 0.5,
        disk_fraction: float = 2.5,
    ) -> "SegmentBudget":
        return cls(
            memory_bytes=max(int(data_bytes * memory_fraction), 1),
            disk_bytes=max(int(data_bytes * disk_fraction), 1),
        )

    @classmethod
    def paper_segment(cls) -> "SegmentBudget":
        """The literal 2 GB / 10 GB segment of §6.1."""
        return cls(memory_bytes=2 * 1024**3, disk_bytes=10 * 1024**3)


@dataclass(frozen=True)
class GraphConfig:
    """Disk-based graph construction parameters (Λ, L, α)."""

    algorithm: str = "vamana"  # "vamana" | "nsg" | "hnsw"
    max_degree: int = 32
    build_ef: int = 64
    alpha: float = 1.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ("vamana", "nsg", "hnsw"):
            raise ValueError(
                f"unknown graph algorithm {self.algorithm!r}; expected "
                "'vamana', 'nsg' or 'hnsw'"
            )


@dataclass(frozen=True)
class NavigationConfig:
    """In-memory navigation graph parameters (μ, Λ', §4.2)."""

    sample_ratio: float = 0.1
    max_degree: int = 16
    build_ef: int = 48
    search_ef: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ValueError("sample_ratio must be in (0, 1]")


@dataclass(frozen=True)
class PQConfig:
    """Product-quantization parameters (memory budget B of the paper)."""

    num_subspaces: int = 8
    num_centroids: int = 256


@dataclass(frozen=True)
class StarlingConfig:
    """Everything needed to build and query a Starling segment index."""

    graph: GraphConfig = field(default_factory=GraphConfig)
    navigation: NavigationConfig = field(default_factory=NavigationConfig)
    pq: PQConfig = field(default_factory=PQConfig)
    #: the block layout strategy: a shuffler — "bnf" | "bnp" | "bns" |
    #: "gp1" | "gp2" | "gp3" | "kmeans" | "none" (ID-contiguous baseline
    #: layout) — or "bamg" (block-aware monotonic pruning over a shuffler)
    shuffle: str = "bnf"
    shuffle_iterations: int = 8  # β
    shuffle_gain_threshold: float = 0.01  # τ
    #: strategy-specific options as hashable ``((key, value), ...)`` pairs
    #: (e.g. ``(("base", "bnf"), ("alpha", 1.2))`` for bamg)
    layout_params: tuple = ()
    #: block-cache strategy: "none" | "lru" | "hot" (pinned blocks) |
    #: "locality" (GoVector-style); any of them wraps nothing while
    #: ``block_cache_blocks`` is 0
    cache_strategy: str = "lru"
    #: cache-strategy options as hashable ``((key, value), ...)`` pairs
    #: (e.g. ``(("decay", 0.5), ("prefetch_blocks", 1))`` for locality)
    cache_params: tuple = ()
    block_bytes: int = 4096  # η
    beam_width: int = 4
    pruning_ratio: float = 0.3  # σ
    pipeline: bool = True
    use_pq_routing: bool = True
    num_entry_points: int = 4
    use_navigation_graph: bool = True
    #: LRU block cache capacity in blocks (0 disables; charged to memory)
    block_cache_blocks: int = 0
    #: approximate router: "pq" (paper default), "opq" (learned rotation,
    #: L2 only) or "sq8" (per-dimension scalar quantization)
    quantizer: str = "pq"
    seed: int = 0
    #: fault model of the simulated disk; the default (all rates zero) keeps
    #: the read path byte-identical and counter-identical to a healthy device
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: retry/hedging policy, active only while ``faults`` is enabled
    resilience: RetryPolicy = field(default_factory=RetryPolicy)

    _QUANTIZERS = ("pq", "opq", "sq8")

    def __post_init__(self) -> None:
        from ..layout.strategies import LAYOUT_STRATEGY_NAMES

        if self.shuffle not in LAYOUT_STRATEGY_NAMES:
            raise ValueError(
                f"unknown shuffler or layout strategy {self.shuffle!r}; "
                f"expected one of {LAYOUT_STRATEGY_NAMES}"
            )
        if self.quantizer not in self._QUANTIZERS:
            raise ValueError(
                f"unknown quantizer {self.quantizer!r}; expected one of "
                f"{self._QUANTIZERS}"
            )
        if not 0.0 <= self.pruning_ratio <= 1.0:
            raise ValueError("pruning_ratio must be in [0, 1]")
        from ..engine.cache_strategies import CACHE_STRATEGY_NAMES

        if self.cache_strategy not in CACHE_STRATEGY_NAMES:
            raise ValueError(
                f"unknown cache strategy {self.cache_strategy!r}; "
                f"expected one of {CACHE_STRATEGY_NAMES}"
            )
        # JSON round-trips turn tuples into lists; normalizing here keeps
        # equality/hashing stable however the config was constructed.
        for name in ("layout_params", "cache_params"):
            value = getattr(self, name)
            if not isinstance(value, tuple) or any(
                not isinstance(p, tuple) for p in value
            ):
                object.__setattr__(
                    self, name, tuple(tuple(p) for p in value)
                )

    @property
    def fold_coresident(self) -> bool:
        """The bamg strategy's search-side contract: co-resident fold.

        Portal collapse makes each surviving cross-edge the block's single
        monotone entry, and the engine completes the bargain by consuming
        every candidate co-resident with an in-memory block instead of
        re-fetching it later.  Only active for the bamg layout strategy
        (``(("fold", False), ...)`` in ``layout_params`` opts out), so the
        default configuration's traversal stays bit-identical.
        """
        if self.shuffle != "bamg":
            return False
        for key, value in self.layout_params:
            if key == "fold":
                return bool(value)
        return True

    def with_(self, **changes) -> "StarlingConfig":
        """Functional update helper used heavily by sweeps."""
        return replace(self, **changes)


@dataclass(frozen=True)
class DiskANNConfig:
    """The baseline framework: same disk graph, hot cache, vertex search."""

    graph: GraphConfig = field(default_factory=GraphConfig)
    pq: PQConfig = field(default_factory=PQConfig)
    block_bytes: int = 4096
    beam_width: int = 4
    cache_ratio: float = 0.06  # π — fraction of hot vertices pinned in memory
    cache_sample_queries: int = 64
    use_pq_routing: bool = True
    #: LRU block cache capacity in blocks (0 disables; charged to memory)
    block_cache_blocks: int = 0
    #: approximate router: "pq" | "opq" | "sq8" (see StarlingConfig)
    quantizer: str = "pq"
    seed: int = 0
    #: fault model of the simulated disk (see StarlingConfig.faults)
    faults: FaultSpec = field(default_factory=FaultSpec)
    #: retry/hedging policy, active only while ``faults`` is enabled
    resilience: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.cache_ratio <= 1.0:
            raise ValueError("cache_ratio must be in [0, 1]")
        if self.quantizer not in StarlingConfig._QUANTIZERS:
            raise ValueError(
                f"unknown quantizer {self.quantizer!r}; expected one of "
                f"{StarlingConfig._QUANTIZERS}"
            )

    def with_(self, **changes) -> "DiskANNConfig":
        return replace(self, **changes)
