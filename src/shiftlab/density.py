"""Finite-horizon density estimators for sets of nonnegative integers.

Everything here is an estimate at an explicit horizon N: an index set is an
eager boolean mask over [0, N). The upper-density surrogate looks at prefix
windows of a schedule and keeps the worst value near the horizon; the Banach
surrogate slides windows of a few lengths over the whole prefix. Neither is a
limit and no output pretends otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "IndexSet",
    "DensityEstimate",
    "upper_density",
    "banach_density",
    "default_prefix_schedule",
    "default_window_lengths",
    "sliding_window_maxima",
]


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Subset of [0, horizon) as an eager boolean mask."""

    horizon: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.mask, dtype=bool)
        if m.ndim != 1 or m.size != self.horizon:
            raise ValueError("mask length must equal the horizon")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_positions(cls, positions: Iterable[int], horizon: int) -> "IndexSet":
        mask = np.zeros(horizon, dtype=bool)
        pos = np.asarray(list(positions), dtype=np.int64)
        if pos.size:
            if pos.min() < 0 or pos.max() >= horizon:
                raise ValueError("positions must lie in [0, horizon)")
            mask[pos] = True
        return cls(horizon, mask)

    @classmethod
    def from_predicate(cls, fn: Callable, horizon: int) -> "IndexSet":
        """Set of i in [0, horizon) where fn, applied to the index array, is true."""
        return cls(horizon, np.asarray(fn(np.arange(horizon)), dtype=bool))

    @property
    def positions(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class DensityEstimate:
    """Per-window counts plus the headline value, tagged with its horizon."""

    kind: str
    horizon: int
    window_lengths: tuple[int, ...]
    per_window: tuple[float, ...]
    value: float

    def as_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "horizon": self.horizon,
            "window_lengths": list(self.window_lengths),
            "per_window": list(self.per_window),
            "value": self.value,
        }


def default_prefix_schedule(horizon: int, points: int = 16) -> tuple[int, ...]:
    """Evenly spaced prefix lengths ending at the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    raw = {max(1, round(horizon * j / points)) for j in range(1, points + 1)}
    return tuple(sorted(raw))


def default_window_lengths(horizon: int) -> tuple[int, ...]:
    """Dyadic sliding-window lengths N/2, N/4, ..., N/64."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    raw = {max(1, horizon // (1 << j)) for j in range(1, 7)}
    return tuple(sorted(raw))


def _validate_schedule(lengths: Sequence[int], horizon: int) -> tuple[int, ...]:
    lengths = tuple(int(n) for n in lengths)
    if not lengths:
        raise ValueError("schedule must be nonempty")
    if any(n < 1 for n in lengths):
        raise ValueError("window lengths must be positive")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("schedule must be strictly increasing")
    if lengths[-1] > horizon:
        raise ValueError(f"window length {lengths[-1]} exceeds horizon {horizon}")
    return lengths


def sliding_window_maxima(values: np.ndarray, lengths: Sequence[int]) -> tuple[float, ...]:
    """For each length n: the largest sum of n consecutive values, divided by n."""
    prefix = np.concatenate(([0], np.cumsum(values)))
    return tuple(float((prefix[n:] - prefix[:-n]).max()) / n for n in lengths)


def upper_density(
    F: IndexSet, schedule: Sequence[int] | None = None
) -> DensityEstimate:
    """Prefix-window surrogate for the upper density of F.

    per_window[n] = #(F in [0, n)) / n for each scheduled n; the headline value
    is the maximum over the last quarter of the schedule, so early transients
    do not drown out the tail behavior.
    """
    if schedule is None:
        schedule = default_prefix_schedule(F.horizon)
    lengths = _validate_schedule(schedule, F.horizon)
    csum = np.cumsum(F.mask, dtype=np.int64)
    per = tuple(float(csum[n - 1]) / n for n in lengths)
    tail = max(1, -(-len(lengths) // 4))
    value = max(per[-tail:])
    return DensityEstimate("upper", F.horizon, lengths, per, value)


def banach_density(
    F: IndexSet, window_lengths: Sequence[int] | None = None
) -> DensityEstimate:
    """Sliding-window surrogate for the upper Banach density of F.

    per_window[n] = max over all length-n windows inside [0, horizon) of the
    in-window density; the headline value is the maximum over the two longest
    window lengths. For every common window length the sliding maximum
    dominates the prefix value, which is the finite form of the containment
    between the two notions.
    """
    if window_lengths is None:
        window_lengths = default_window_lengths(F.horizon)
    lengths = _validate_schedule(window_lengths, F.horizon)
    per = sliding_window_maxima(F.mask.astype(np.int64), lengths)
    value = max(per[-min(2, len(per)) :])
    return DensityEstimate("banach", F.horizon, lengths, per, value)
