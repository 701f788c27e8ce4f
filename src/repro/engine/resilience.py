"""Retry / hedging policy for the disk read path.

When a :class:`~repro.storage.faults.FaultInjector` sits under the disk
graph, reads can fail (transient errors, permanent bad blocks), return
detectable garbage (checksum mismatches), or stall (latency spikes).  This
module turns those events into the standard production countermeasures,
with every countermeasure charged honestly in the cost model:

- **Bounded retries with backoff** — each retry round re-issues only the
  failed blocks as a fresh round-trip (an extra entry in
  ``stats.round_trip_blocks``) plus an exponential backoff wait recorded in
  ``stats.fault.backoff_us``.
- **Hedged reads** — when a round-trip's injected latency exceeds
  :attr:`RetryPolicy.hedge_after_us`, a duplicate read is issued and the
  *faster* of the two completions is paid: the duplicate blocks are charged
  as I/O, but the suffered spike time is capped at the hedge trigger plus
  the duplicate's own spike.
- **Graceful abandonment** — blocks still unreadable after
  :attr:`RetryPolicy.max_retries` rounds are given up on; the engines then
  skip the affected vertices and keep searching, marking the result
  ``degraded`` instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..storage.faults import KIND_CHECKSUM
from .cost import QueryStats


@dataclass(frozen=True)
class RetryPolicy:
    """How the read path responds to faults.

    Attributes:
        max_retries: Retry rounds per read before abandoning the still-failed
            blocks (0 = detect-and-abandon, no re-issue).
        backoff_us: Simulated wait before retry round r is
            ``backoff_us * 2**(r-1)`` (exponential backoff).
        hedge_after_us: Issue a duplicate read when a round-trip's injected
            latency exceeds this many simulated microseconds; ``None``
            disables hedging.
    """

    max_retries: int = 2
    backoff_us: float = 50.0
    hedge_after_us: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_us < 0:
            raise ValueError("backoff_us must be non-negative")
        if self.hedge_after_us is not None and self.hedge_after_us < 0:
            raise ValueError("hedge_after_us must be non-negative")

    def retry_backoff_us(self, attempt: int) -> float:
        """Backoff before retry round ``attempt`` (1-based)."""
        return self.backoff_us * (2.0 ** (attempt - 1))


def _charge_spike(
    device, block_ids: Sequence[int], stats: QueryStats, policy: RetryPolicy
) -> None:
    """Collect the last read's injected latency; hedge it when worthwhile."""
    take = getattr(device, "take_injected_latency_us", None)
    if take is None:
        return
    spike_us = take()
    if spike_us <= 0.0:
        return
    stats.fault.latency_spikes += 1
    if policy.hedge_after_us is not None and spike_us > policy.hedge_after_us:
        # The duplicate read races the stalled one; pay the faster completion
        # (hedge trigger + the duplicate's own spike) but charge both I/Os.
        stats.fault.hedges += 1
        hedge_spike_us = device.hedge_read(block_ids)
        stats.round_trip_blocks.append(len(block_ids))
        spike_us = min(spike_us, policy.hedge_after_us + hedge_spike_us)
    stats.fault.injected_latency_us += spike_us


def settle_attempt(
    device, block_ids: Sequence[int], failed: dict[int, str], attempt: int,
    stats: QueryStats, policy: RetryPolicy,
) -> bool:
    """Charge one resilient read attempt's spike and faults to ``stats``.

    ``block_ids`` is what the attempt asked for, ``failed`` what it could
    not read and ``attempt`` how many retries came before it.  Returns
    whether the failed blocks get another round (charging its backoff);
    once the budget is spent they are abandoned.
    """
    _charge_spike(device, block_ids, stats, policy)
    if not failed:
        return False
    corrupt = sum(1 for kind in failed.values() if kind == KIND_CHECKSUM)
    stats.fault.corrupt_blocks += corrupt
    stats.fault.read_errors += len(failed) - corrupt
    if attempt >= policy.max_retries:
        stats.fault.blocks_abandoned += len(failed)
        return False
    stats.fault.retries += len(failed)
    stats.fault.backoff_us += policy.retry_backoff_us(attempt + 1)
    return True
