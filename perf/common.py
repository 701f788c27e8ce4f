"""Pieces every workload shares: seed streams, sizing, summaries."""

from __future__ import annotations

import statistics
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.buildspec import BuildSpec
from repro.core.builder import build_starling
from repro.core.config import GraphConfig, StarlingConfig

from .check import Tally

#: every search asks for this many neighbours (the paper's recall@10)
K = 10


class InvalidRun(RuntimeError):
    """The run broke one of the rules that make its numbers comparable."""


@dataclass(frozen=True)
class Sizing:
    """How much work a run does.

    ``seconds`` is turned into a fixed amount of work through each
    workload's nominal rate, so both sides of a comparison do identical
    work and every count repeats exactly.  ``scale`` < 1 shrinks datasets
    and work for the smoke test; such a run relaxes the sample floors and
    is stamped ``not_for_comparison``.
    """

    seconds: float
    scale: float = 1.0
    #: BENCHMARK.json's ``run_seconds``; a shorter run is not comparable
    reference_seconds: float = 0.0

    @property
    def full(self) -> bool:
        return self.scale >= 1.0 and self.seconds >= self.reference_seconds

    def rows(self, n: int, floor: int = 200) -> int:
        return max(int(n * self.scale), floor)

    def work(self, nominal_per_s: float, unit: int = 1) -> int:
        """Operations for this run: nominal rate × seconds, in whole units."""
        ops = nominal_per_s * self.seconds * min(self.scale, 1.0)
        return max(int(round(ops / unit)), 1) * unit


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def supported_percentile(samples, pct: float, sizing: Sizing,
                         what: str) -> float:
    """``pct``-th percentile, refused unless ten samples lie beyond it."""
    samples = np.asarray(samples, dtype=np.float64)
    beyond = samples.shape[0] * (1.0 - pct / 100.0)
    if sizing.full and beyond < 10:
        raise InvalidRun(
            f"{what}: p{pct:g} of {samples.shape[0]} samples has only "
            f"{beyond:.1f} beyond it"
        )
    return float(np.percentile(samples, pct))


def median(values) -> float:
    return float(statistics.median(values))


def build_index(dataset, algorithm: str, **kwargs):
    """The one index configuration every workload builds (wave-batched)."""
    config = StarlingConfig(
        graph=GraphConfig(algorithm=algorithm, max_degree=24, build_ef=48)
    )
    return build_starling(dataset, config,
                          build_spec=BuildSpec(mode="batched"), **kwargs)


def count_rows(stats) -> dict[str, float]:
    """The end-to-end I/O rows from a list of ``QueryStats``."""
    n = len(stats)
    return {
        "blocks_per_query": sum(s.num_ios for s in stats) / n,
        "round_trips_per_query": sum(s.round_trips for s in stats) / n,
    }


@dataclass
class Measured:
    """What one timed phase produced."""

    #: end-to-end rows (all but ``setup_s`` and ``peak_rss_mb``)
    rows: dict[str, float] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    #: timed wall-clock seconds, for the tracing-overhead estimate
    timed_s: float = 0.0
    #: anything the per-layer pass wants to reuse
    extra: dict = field(default_factory=dict)
