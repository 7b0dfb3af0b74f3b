"""Simultaneous near-return search along powers of the shift.

Looks for the smallest n such that the orbit points after n, 2n, ..., dn
steps all start with the same m-symbol prefix as the base point, i.e. all
land within 1/m of it. The search is exhaustive and stops at its first hit:
it reads the prefix's return times q <= d*N as sorted positions, in doubling
blocks N = 4096, 8192, ..., horizon, each an `occurrences` call that resumes
the last block's scan, so only the block's new q are scanned. Once a block is
in, every n <= N is decided, and n qualifies when n, 2n, ..., dn are all
return times. Found returns are re-verified, and their gaps read, by an
independent prefix comparison. Raw findings only: nothing here certifies
minimality of the diagonal orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_DEPTH_CAP,
    Count,
    HorizonError,
    SymbolicSequence,
    checked,
    occurrences,
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
    buf, prefix = x.data, x.prefix(m)
    scan, done, n = None, 0, None
    while n is None and done < horizon:
        top = min(max(2 * done, _FIRST_BLOCK), horizon)
        scan = occurrences(x, prefix, powers * top + m, scan)
        returns = scan.positions  # the sorted shifts q <= powers*top at which the prefix recurs
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
