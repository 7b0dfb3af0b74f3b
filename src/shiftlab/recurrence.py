"""Simultaneous near-return search along powers of the shift.

Looks for the smallest n such that the orbit points after n, 2n, ..., dn
steps all start with the same m-symbol prefix as the base point, i.e. all
land within 1/m of it. The search is exhaustive and stops at its first hit:
it scans the prefix's return times q <= d*N in doubling blocks N = 4096,
8192, ..., horizon, each block's new q only, and keeps them as sorted
positions. Once a block is in, every n <= N is decided, and n qualifies when
n, 2n, ..., dn are all return times. Found returns are re-verified, and
their gaps read, by an independent prefix comparison. Raw findings only:
nothing here certifies minimality of the diagonal orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_DEPTH_CAP,
    Count,
    HorizonError,
    SymbolicSequence,
    _block_occurrences,
    checked,
)

__all__ = ["RecurrenceResult", "multi_recurrence_search"]

_FIRST_BLOCK = 4096  # n-values the search decides before its first check


@dataclass(frozen=True)
class RecurrenceResult:
    """Outcome of a simultaneous near-return search."""

    powers: int
    epsilon_depth: int
    found: int | None
    gaps: tuple[float, ...]
    horizon: int

    @property
    def epsilon(self) -> float:
        return 1.0 / self.epsilon_depth

    def as_json_dict(self) -> dict:
        return {
            "d": self.powers,
            "epsilon": self.epsilon,
            "epsilon_depth": self.epsilon_depth,
            "n": self.found,
            "gaps": list(self.gaps),
            "horizon": self.horizon,
        }


@checked
def multi_recurrence_search(
    x: SymbolicSequence,
    powers: Count = 2,
    epsilon_depth: Count = 8,
    horizon: Count = 100000,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
) -> RecurrenceResult:
    """Smallest n <= horizon with x[jn+1 .. jn+m] = x[1 .. m] for j = 1..powers.

    The tolerance is 1/epsilon_depth, i.e. prefix agreement on m =
    epsilon_depth symbols. gaps[j-1] bounds the distance from σ^{jn} x to x
    at the found time: 1/i for the first 1-based index i <= gap_cap =
    max(m + 1, depth_cap) at which they differ, else 1/gap_cap. A return for
    (d, m) is automatically a return for any smaller d and any smaller m at
    the same n.
    """
    m = epsilon_depth
    gap_cap = max(m + 1, depth_cap)
    need = powers * horizon + gap_cap
    if x.length < need:
        raise HorizonError(
            f"search needs {need} symbols (powers*horizon + max(m+1, depth_cap));"
            f" buffer holds {x.length}"
        )
    buf, word = x.data, x.prefix(m).symbols
    # returns: the sorted shifts q < scanned at which the prefix recurs; 0 is one
    returns, scanned, done, n = np.empty(0, np.int64), 0, 0, None
    while n is None and done < horizon:
        top = min(max(2 * done, _FIRST_BLOCK), horizon)
        block = _block_occurrences(buf[scanned : powers * top + m], word, scanned)
        returns, scanned = np.concatenate((returns, block)), powers * top + 1
        lo, hi = np.searchsorted(returns, (done, top), side="right")
        found = returns[lo:hi]  # the returns n in (done, top]; every jn <= powers*top is in
        for j in range(2, powers + 1):
            jn = j * found
            found = found[returns[np.minimum(np.searchsorted(returns, jn), returns.size - 1)] == jn]
        if found.size:
            n = int(found[0])
        done = top
    if n is None:
        return RecurrenceResult(powers, epsilon_depth, None, (), horizon)
    gaps = []
    for j in range(1, powers + 1):
        hits = np.flatnonzero(buf[j * n : j * n + gap_cap] != buf[:gap_cap])
        first = int(hits[0]) + 1 if hits.size else gap_cap
        if first <= m:
            raise RuntimeError("post-hoc prefix verification failed")
        gaps.append(1.0 / first)
    return RecurrenceResult(powers, epsilon_depth, n, tuple(gaps), horizon)
