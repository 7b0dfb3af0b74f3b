"""Primitives for one-sided symbolic sequences.

A point of the full shift on k symbols is materialized as a finite prefix
stored in a uint8 buffer. Indexing in the public API is 1-based (a sequence
is x_1 x_2 x_3 ...), matching the convention that the distance between two
distinct points is 1/i where i is the first index at which they differ.
Shifted views share the underlying buffer; nothing here mutates it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "HorizonError",
    "SizingError",
    "PrecisionError",
    "BudgetError",
    "FiniteWord",
    "SymbolicSequence",
    "TruncatedDistance",
    "OccurrenceIndex",
    "DEFAULT_DEPTH_CAP",
    "metric_distance",
    "occurrences",
    "factors",
    "window_codes",
    "save_sequence",
]

DEFAULT_DEPTH_CAP = 64


class HorizonError(ValueError):
    """A request reached past the materialized prefix of a sequence."""


class SizingError(ValueError):
    """A construction or scan would exceed its size budget."""


class PrecisionError(RuntimeError):
    """Arithmetic could not be carried out at the required precision."""


class BudgetError(RuntimeError):
    """Estimated work exceeds the configured budget."""


@dataclass(frozen=True)
class FiniteWord:
    """A word over the alphabet {0, ..., alphabet_size - 1}."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        for s in self.symbols:
            if not 0 <= s < self.alphabet_size:
                raise ValueError(
                    f"symbol {s} outside alphabet of size {self.alphabet_size}"
                )

    @classmethod
    def from_digits(cls, text: str, alphabet_size: int | None = None) -> "FiniteWord":
        syms = tuple(int(c) for c in text)
        if alphabet_size is None:
            alphabet_size = max(syms, default=0) + 1
        return cls(syms, alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if other.alphabet_size != self.alphabet_size:
            raise ValueError("cannot concatenate words over different alphabets")
        return FiniteWord(self.symbols + other.symbols, self.alphabet_size)

    def __str__(self) -> str:
        if self.alphabet_size <= 10:
            return "".join(str(s) for s in self.symbols)
        return "-".join(str(s) for s in self.symbols)

    def as_array(self) -> np.ndarray:
        return np.array(self.symbols, dtype=np.uint8)


class SymbolicSequence:
    """An immutable finite prefix of a point in the full shift on k symbols.

    `shift(n)` returns a zero-copy view exposing x_{n+1} x_{n+2} ...; the
    view's length shrinks accordingly. `generator_id` and `params` record how
    the buffer was produced, so a sequence can be re-derived from its sidecar.
    `_derived` holds arrays computed from the whole buffer on first use (the
    diam kernel's packed bit planes); every shift view shares it.
    """

    __slots__ = ("_buf", "_offset", "alphabet_size", "generator_id", "params", "_derived")

    def __init__(
        self,
        buffer: np.ndarray,
        alphabet_size: int,
        generator_id: str = "adhoc",
        params: dict | None = None,
        _offset: int = 0,
        _validated: bool = False,
        _derived: dict | None = None,
    ) -> None:
        if alphabet_size < 1 or alphabet_size > 256:
            raise ValueError("alphabet_size must be in [1, 256]")
        buf = np.asarray(buffer, dtype=np.uint8)
        if buf.ndim != 1:
            raise ValueError("sequence buffer must be one-dimensional")
        if buf.size == 0:
            raise ValueError("sequence buffer must be nonempty")
        if not _validated and int(buf.max()) >= alphabet_size:
            raise ValueError("buffer contains symbols outside the alphabet")
        buf = buf.view()
        buf.setflags(write=False)
        self._buf = buf
        self._offset = _offset
        self.alphabet_size = alphabet_size
        self.generator_id = generator_id
        self.params = dict(params or {})
        self._derived = {} if _derived is None else _derived

    @classmethod
    def from_symbols(
        cls,
        symbols: Iterable[int],
        alphabet_size: int | None = None,
        generator_id: str = "adhoc",
        params: dict | None = None,
    ) -> "SymbolicSequence":
        arr = np.array(list(symbols), dtype=np.uint8)
        if alphabet_size is None:
            alphabet_size = int(arr.max()) + 1 if arr.size else 1
        return cls(arr, alphabet_size, generator_id, params)

    @property
    def length(self) -> int:
        """Number of symbols this view exposes."""
        return self._buf.size - self._offset

    @property
    def data(self) -> np.ndarray:
        """Read-only uint8 view of the exposed symbols (0-based)."""
        return self._buf[self._offset :]

    def symbol(self, i: int) -> int:
        """x_i with 1-based i."""
        if i < 1:
            raise ValueError("indices are 1-based")
        if i > self.length:
            raise HorizonError(
                f"index {i} past materialized horizon {self.length}"
                f" of {self.generator_id!r}"
            )
        return int(self._buf[self._offset + i - 1])

    def word(self, i: int, j: int) -> FiniteWord:
        """The word x_i ... x_j (inclusive, 1-based)."""
        if not 1 <= i <= j:
            raise ValueError("need 1 <= i <= j")
        if j > self.length:
            raise HorizonError(f"index {j} past materialized horizon {self.length}")
        chunk = self._buf[self._offset + i - 1 : self._offset + j]
        return FiniteWord(tuple(int(s) for s in chunk), self.alphabet_size)

    def prefix(self, m: int) -> FiniteWord:
        return self.word(1, m)

    def shift(self, n: int) -> "SymbolicSequence":
        """View of the n-fold shift; shares the buffer."""
        if n < 0:
            raise ValueError("shift amount must be nonnegative")
        if n == 0:
            return self
        if n >= self.length:
            raise HorizonError(
                f"shift by {n} leaves no symbols (horizon {self.length})"
            )
        return SymbolicSequence(
            self._buf,
            self.alphabet_size,
            self.generator_id,
            self.params,
            _offset=self._offset + n,
            _validated=True,
            _derived=self._derived,
        )

    def __repr__(self) -> str:
        head = "".join(str(int(s)) for s in self.data[:12])
        tail = "..." if self.length > 12 else ""
        return (
            f"SymbolicSequence({head}{tail}, k={self.alphabet_size},"
            f" length={self.length}, from={self.generator_id!r})"
        )


@dataclass(frozen=True)
class TruncatedDistance:
    """Distance between two sequences probed only on the first depth_cap symbols.

    first_diff is the 1-based index of the first disagreement when it is at
    most depth_cap, else None ("censored": the sequences agree through the
    cap, so the true distance is at most 1/depth_cap).
    """

    first_diff: int | None
    depth_cap: int

    def __post_init__(self) -> None:
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be positive")
        if self.first_diff is not None and not 1 <= self.first_diff <= self.depth_cap:
            raise ValueError("first_diff must lie in [1, depth_cap]")

    @property
    def censored(self) -> bool:
        return self.first_diff is None

    @property
    def upper_bound(self) -> float:
        """Valid upper bound for the true distance."""
        if self.first_diff is None:
            return 1.0 / self.depth_cap
        return 1.0 / self.first_diff

    @property
    def mean_term(self) -> float:
        """Contribution used by averaged statistics: censored counts as 0.

        Replacing a censored value by 0 under-counts by at most 1/depth_cap,
        which is exactly the bias bound the averaged estimators report.
        """
        if self.first_diff is None:
            return 0.0
        return 1.0 / self.first_diff

    def as_json_dict(self) -> dict:
        return {
            "first_diff": self.first_diff,
            "depth_cap": self.depth_cap,
            "upper_bound": self.upper_bound,
        }


def metric_distance(
    x: SymbolicSequence, y: SymbolicSequence, depth_cap: int = DEFAULT_DEPTH_CAP
) -> TruncatedDistance:
    """Truncated 1/i metric: compare the first depth_cap symbols of x and y."""
    if depth_cap < 1:
        raise ValueError("depth_cap must be positive")
    for name, s in (("x", x), ("y", y)):
        if s.length < depth_cap:
            raise HorizonError(
                f"{name} ({s.generator_id!r}) exposes {s.length} symbols,"
                f" fewer than depth_cap={depth_cap}"
            )
    a = x.data[:depth_cap]
    b = y.data[:depth_cap]
    hits = np.flatnonzero(a != b)
    if hits.size == 0:
        return TruncatedDistance(None, depth_cap)
    return TruncatedDistance(int(hits[0]) + 1, depth_cap)


@dataclass(frozen=True, eq=False)
class OccurrenceIndex:
    """Start offsets q (0-based shift amounts) where `word` occurs in a scan.

    Offset q means the word occupies positions q+1 ... q+len(word) in 1-based
    sequence coordinates, i.e. the shifted view x.shift(q) starts with word.
    """

    word: FiniteWord
    positions: np.ndarray
    limit: int

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def count(self) -> int:
        return int(self.positions.size)


def occurrences(
    x: SymbolicSequence, w: FiniteWord, limit: int | None = None
) -> OccurrenceIndex:
    """All occurrences of w within the first `limit` symbols of x.

    Vectorized conjunction of per-symbol equality masks, exhaustive within the
    scan window; for one word this costs less than building `window_codes`.
    """
    n = len(w)
    if n == 0:
        raise ValueError("cannot scan for the empty word")
    if w.alphabet_size != x.alphabet_size:
        raise ValueError("word and sequence alphabets differ")
    if limit is None:
        limit = x.length
    if limit > x.length:
        raise HorizonError(f"scan limit {limit} past horizon {x.length}")
    if limit < n:
        raise ValueError(f"scan limit {limit} shorter than the word ({n})")
    buf = x.data
    span = limit - n + 1
    mask = buf[0:span] == w.symbols[0]
    for j in range(1, n):
        mask = mask & (buf[j : j + span] == w.symbols[j])
    pos = np.flatnonzero(mask).astype(np.int64)
    return OccurrenceIndex(w, pos, limit)


def window_codes(x: SymbolicSequence, n: int, limit: int | None = None) -> np.ndarray:
    """One int64 code per start of a length-n window in the first `limit` symbols.

    Codes are equal exactly when their windows are equal, and sort in the
    lexicographic order of the words. Windows of s symbols, k**s <= 2**62,
    get their base-k value; longer ones come from prefix doubling (Manber &
    Myers 1993): re-rank the h-window codes, then pair the ranks at q and
    q + n' - h for n' = min(2h, n). Ranks stay below 2**31, so a pair fits
    in int64 and nothing is hashed. The codes take 8 bytes per scanned symbol.
    """
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if limit is None:
        limit = x.length
    if limit > x.length:
        raise HorizonError(f"scan limit {limit} past horizon {x.length}")
    if limit < n:
        raise ValueError(f"scan limit {limit} shorter than factor length {n}")
    if limit > 1 << 31:
        raise SizingError(f"scan limit {limit} past the 2**31 symbols window codes can rank")
    buf = x.data[:limit]
    k = x.alphabet_size
    h = 1
    while h < n and max(k, 2) ** (h + 1) <= 1 << 62:
        h += 1
    span = limit - h + 1
    codes = buf[0:span].astype(np.int64)
    for j in range(1, h):
        codes = codes * k + buf[j : j + span]
    while h < n:
        step = min(2 * h, n) - h
        _, ranks = np.unique(codes, return_inverse=True)
        codes = ranks[: ranks.size - step] * (int(ranks.max()) + 1) + ranks[step:]
        h += step
    return codes


def factors(x: SymbolicSequence, n: int, limit: int | None = None) -> set[FiniteWord]:
    """The set of length-n words occurring in the first `limit` symbols."""
    _, starts = np.unique(window_codes(x, n, limit), return_index=True)
    return {x.word(q + 1, q + n) for q in starts.tolist()}


def save_sequence(x: SymbolicSequence, path: str | Path) -> Path:
    """Write the exposed symbols as raw bytes plus a JSON sidecar."""
    path = Path(path)
    path.write_bytes(x.data.tobytes())
    sidecar = path.with_name(path.name + ".json")
    sidecar.write_text(
        json.dumps(
            {
                "alphabet_size": x.alphabet_size,
                "length": x.length,
                "generator_id": x.generator_id,
                "params": x.params,
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    return path
