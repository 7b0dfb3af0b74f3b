"""Primitives for one-sided symbolic sequences.

A point of the full shift on k symbols is materialized as a finite prefix
stored in a uint8 buffer. Indexing in the public API is 1-based (a sequence
is x_1 x_2 x_3 ...), matching the convention that the distance between two
distinct points is 1/i where i is the first index at which they differ.
The shifted point σ^q x is addressed by its 0-based buffer position q;
nothing here mutates the buffer.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = [
    "HorizonError",
    "PrecisionError",
    "BudgetError",
    "FiniteWord",
    "SymbolicSequence",
    "OccurrenceIndex",
    "DEFAULT_DEPTH_CAP",
    "occurrences",
    "factors",
    "factor_counts",
    "window_groups",
    "save_sequence",
]

DEFAULT_DEPTH_CAP = 64
_SCAN_BLOCK = 1 << 21  # starts per block of an occurrence scan
_DENSE = 16  # a scan masks while more than 1 in _DENSE starts are candidates, then gathers
_TABLE_BLOCK = 1 << 15  # windows per block of factor_counts' presence table

# Range kinds, declared as the annotation of a config field or a library parameter.
# `shiftlab.cli` checks a config field, and `checked` a parameter, against RANGES.
Count = int  # an integer of at least 1
Increasing = tuple[int, ...]  # a nonempty, strictly increasing list of integers, each at least 1
Share = float  # a number in (0, 1]
RANGES = {  # kind -> its (message, holds) rules, checked in order
    "Count": [("must be at least 1", lambda v: v >= 1)],
    "Increasing": [  # len, not bool: a library caller may pass an array
        ("must be a nonempty list", len),
        ("every element must be at least 1", lambda v: all(e >= 1 for e in v)),
        ("must be strictly increasing", lambda v: all(a < b for a, b in zip(v, v[1:]))),
    ],
    "Share": [("must lie in (0, 1]", lambda v: 0 < v <= 1)],
}


def broken_rule(kind: str, value) -> str | None:
    """The first rule of range kind `kind` that `value` breaks, or None ("K | None" passes None)."""
    if value is None and kind.endswith(" | None"):
        return None
    rules = RANGES.get(kind.removesuffix(" | None"), ())
    return next((message for message, holds in rules if not holds(value)), None)


def checked(fn):
    """`fn`, refusing a parameter value that breaks a rule of its declared range kind
    with ValueError("<parameter> <rule>") before `fn` runs (a default is not checked)."""
    sig = inspect.signature(fn)
    kinds = {p.name: p.annotation for p in sig.parameters.values()
             if str(p.annotation).removesuffix(" | None") in RANGES}

    @functools.wraps(fn)
    def call(*args, **kwargs):
        for name, value in sig.bind(*args, **kwargs).arguments.items():
            if name in kinds and (message := broken_rule(kinds[name], value)):
                raise ValueError(f"{name} {message}")
        return fn(*args, **kwargs)

    return call


class HorizonError(ValueError):
    """A request reached past the materialized prefix of a sequence."""


class PrecisionError(RuntimeError):
    """Arithmetic could not be carried out at the required precision."""


class BudgetError(RuntimeError):
    """A construction, a scan or its estimated work would exceed its budget."""


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

    def __str__(self) -> str:
        if self.alphabet_size <= 10:
            return "".join(str(s) for s in self.symbols)
        return "-".join(str(s) for s in self.symbols)

    def as_array(self) -> np.ndarray:
        return np.array(self.symbols, dtype=np.uint8)


class SymbolicSequence:
    """An immutable finite prefix of a point in the full shift on k symbols.

    `data` is the read-only uint8 buffer (0-based). The shifted point
    σ^q x is buffer position q: every scan and kernel takes positions, and a
    caller who wants σ^q x as a sequence of its own builds
    `SymbolicSequence(x.data[q:], k)`. `generator_id` and `params` record how
    the buffer was produced: "adhoc" and {}, unless `shiftlab.generate`'s registry
    set them, and then `build({"generator": generator_id, "params": params})` rebuilds it.
    `_derived` caches arrays computed from the buffer on first use (the diam
    kernel's packed bit planes).
    """

    __slots__ = ("data", "alphabet_size", "generator_id", "params", "_derived")

    def __init__(self, buffer: np.ndarray, alphabet_size: int) -> None:
        if alphabet_size < 1 or alphabet_size > 256:
            raise ValueError("alphabet_size must be in [1, 256]")
        buf = np.asarray(buffer, dtype=np.uint8)
        if buf.ndim != 1:
            raise ValueError("sequence buffer must be one-dimensional")
        if buf.size == 0:
            raise ValueError("sequence buffer must be nonempty")
        if int(buf.max()) >= alphabet_size:
            raise ValueError("buffer contains symbols outside the alphabet")
        buf = buf.view()
        buf.setflags(write=False)
        self.data = buf
        self.alphabet_size = alphabet_size
        self.generator_id = "adhoc"
        self.params = {}
        self._derived = {}

    @property
    def length(self) -> int:
        """Number of materialized symbols."""
        return self.data.size

    def word(self, i: int, j: int) -> FiniteWord:
        """The word x_i ... x_j (inclusive, 1-based)."""
        if not 1 <= i <= j:
            raise ValueError("need 1 <= i <= j")
        if j > self.length:
            raise HorizonError(f"index {j} past materialized horizon {self.length}")
        chunk = self.data[i - 1 : j]
        return FiniteWord(tuple(int(s) for s in chunk), self.alphabet_size)

    def prefix(self, m: int) -> FiniteWord:
        return self.word(1, m)

    def __repr__(self) -> str:
        head = "".join(str(int(s)) for s in self.data[:12])
        tail = "..." if self.length > 12 else ""
        return (
            f"SymbolicSequence({head}{tail}, k={self.alphabet_size},"
            f" length={self.length}, from={self.generator_id!r})"
        )


@dataclass(frozen=True, eq=False)
class OccurrenceIndex:
    """Start offsets q (0-based shift amounts) where `word` occurs in a scan.

    Offset q means the word occupies positions q+1 ... q+len(word) in 1-based
    sequence coordinates, i.e. the shifted point σ^q x starts with word.
    """

    word: FiniteWord
    positions: np.ndarray
    limit: int

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)


def occurrences(
    x: SymbolicSequence, w: FiniteWord, limit: int | None = None,
    after: OccurrenceIndex | None = None,
) -> OccurrenceIndex:
    """All occurrences of w within the first `limit` symbols of x.

    Exhaustive within the scan window, which is scanned in blocks of
    _SCAN_BLOCK starts; a scan of one block returns that block's positions
    as they are, a longer one joins the blocks' positions. Within a block,
    the mask over every start compares the first symbol, or the first 8 in
    one compare through a uint64 view of the buffer at byte stride. While the
    candidates are dense, one equality mask per further symbol is ANDed in
    place (2 bytes per start: the mask and one compare). Once the candidate
    positions and their gathered symbols fit in the mask's bytes (8 + 8 bytes
    per candidate), the mask is freed and the positions are filtered by
    gathers (`_matching_starts`). So a word whose first symbols are rare
    peaks near 1 byte per start.
    For one word this costs less than building `window_groups`.

    `after`, an earlier index on x of a prefix of w (w itself included),
    resumes a scan: its starts that leave room for w are filtered from its
    word's end on, and only the starts past its window are scanned. Where w
    is longer and `after`'s starts are dense (more than 1 in _DENSE of the
    window), a fresh scan beats the gathers and `after` is not read.
    """
    n = len(w)
    if n == 0:
        raise ValueError("cannot scan for the empty word")
    if w.alphabet_size != x.alphabet_size:
        raise ValueError("word and sequence alphabets differ")
    limit = _scan_limit(x, n, limit)
    span = limit - n + 1
    parts, lo = [], 0
    if after is not None:
        a = len(after.word)
        if after.word != FiniteWord(w.symbols[:a], w.alphabet_size):
            raise ValueError(f"cannot resume a scan for {w} from {after.word}, not its prefix")
        if n == a or _DENSE * after.positions.size <= limit:
            kept = after.positions[: np.searchsorted(after.positions, span)]
            parts, lo = [_matching_starts(x.data[:limit], kept, w.symbols, a)], after.limit - a + 1
    parts += [
        _block_occurrences(x.data[q : min(q + _SCAN_BLOCK, span) + n - 1], w.symbols, q)
        for q in range(lo, span, _SCAN_BLOCK)
    ]
    return OccurrenceIndex(w, parts[0] if len(parts) == 1 else np.concatenate(parts), limit)


def _block_occurrences(buf: np.ndarray, word: tuple[int, ...], lo: int) -> np.ndarray:
    """lo + q for each start q of `word` in `buf`, ascending (int64)."""
    n = len(word)
    span = buf.size - n + 1
    if n >= 8:  # the first 8 symbols in one compare
        mask, j = _octets(buf)[:span] == _octet(word, 0), 8
    else:
        mask, j = buf[:span] == word[0], 1
    while j < n and _DENSE * np.count_nonzero(mask) > span:
        mask &= buf[j : j + span] == word[j]
        j += 1
    pos = np.flatnonzero(mask)
    del mask
    pos = _matching_starts(buf, pos, word, j)
    if lo:
        pos += lo
    return pos


def _octets(buf: np.ndarray) -> np.ndarray:
    """A uint64 view of buf at byte stride: octets[q] holds the bytes buf[q : q + 8]."""
    return np.lib.stride_tricks.as_strided(buf, (buf.size - 7, 8), (1, 1)).view(np.uint64)[:, 0]


def _octet(word: tuple[int, ...], j: int) -> np.uint64:
    """word[j : j + 8] as the uint64 that `_octets` reads for those bytes."""
    return np.frombuffer(bytes(word[j : j + 8]), np.uint64)[0]


def _matching_starts(buf: np.ndarray, pos: np.ndarray, word: tuple[int, ...], j: int) -> np.ndarray:
    """The q in pos (q + len(word) <= buf.size) with word[j:] at q + j: 8 symbols a gather."""
    if j + 8 <= len(word):
        octets = _octets(buf)
    while j + 8 <= len(word):
        pos = pos[octets[j:][pos] == _octet(word, j)]
        j += 8
    for j in range(j, len(word)):
        pos = pos[buf[j:][pos] == word[j]]
    return pos


def _scan_limit(x: SymbolicSequence, n: int, limit: int | None) -> int:
    """The checked scan limit of a length-n window scan (n >= 1, checked by its caller)."""
    if limit is None:
        limit = x.length
    if limit > x.length:
        raise HorizonError(f"scan limit {limit} past horizon {x.length}")
    if limit < n:
        raise ValueError(f"scan limit {limit} shorter than word length {n}")
    if limit > 1 << 31:
        raise BudgetError(f"scan limit {limit} past the 2**31 symbols window scans can rank")
    return limit


@checked
def window_groups(
    x: SymbolicSequence, n: Count, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The starts of the length-n windows in the first `limit` symbols, grouped by word.

    Returns `order`, the starts sorted by word and then by start (int32), and
    `heads`, the index in `order` where each distinct word begins.
    """
    sorts = _window_sorts(x, (n,), _scan_limit(x, n, limit), grouped=True)
    next(sorts)  # the exact start's codes
    order, new = next(sorts)
    return order, np.flatnonzero(new)


@checked
def factor_counts(
    x: SymbolicSequence, lengths: Increasing, limit: int | None = None
) -> tuple[int, ...]:
    """p(n), the number of distinct n-words in the first `limit` symbols, for each n.

    Exact. With h the longest n, if max(k, 2)**h <= T = max(limit, 2**16), the
    h-windows' base-k codes (uint16 where k**h <= 2**16), _TABLE_BLOCK windows
    at a time, mark a table of k**h entries; p(n) counts its rows of k**(h - n)
    entries with a mark, plus the new words among the h - n n-windows past the
    last h-window. Else one sort of the h-windows' codes, int32 where they fit:
    h is the longest n if k**n <= 2**62 (a plain sort), else `_window_sorts`'
    start, whose rounds stop at each n > h (each n, on table rounds), where p(n)
    counts the groups. For n <= h the quotients codes // k**(h - n) (n-prefixes)
    stay sorted, and `np.searchsorted` checks the h - n later n-windows.
    """
    limit = _scan_limit(x, lengths[-1], limit)
    buf, k, h = x.data[:limit], x.alphabet_size, lengths[-1]
    if max(k, 2) ** h <= max(limit, 1 << 16):
        seen, dtype = np.zeros(k**h, bool), np.uint16 if k**h <= 1 << 16 else np.int32
        for lo in range(0, limit - h + 1, _TABLE_BLOCK):  # a block's codes stay in cache
            codes = _base_k_codes(buf[lo : lo + _TABLE_BLOCK + h - 1], k, h, dtype)
            seen[codes.astype(np.intp)] = True  # twice as fast as through uint16 indices
        counts = []
        for n in lengths:
            rows = seen.reshape(k**n, -1).any(axis=1)
            tail = _base_k_codes(buf[limit - h + 1 :], k, n)  # the n-windows past the h-windows
            counts.append(int(np.count_nonzero(rows)) + len(set(tail[~rows[tail]].tolist())))
        return tuple(counts)
    if max(k, 2) ** h <= 1 << 62:
        sorts = ()
        codes = _base_k_codes(buf, k, h, _key_dtype(k**h))
        codes.sort()
    else:
        sorts = _window_sorts(x, lengths, limit)
        h, codes = next(sorts)
    counts, at, new = [], h, None
    for n in reversed([n for n in lengths if n <= h]):
        if n < at:
            codes //= k ** (at - n)  # in place, longest n first
        at, tail = n, np.sort(_base_k_codes(buf[limit - h :], k, n, codes.dtype))
        fresh = _changes(tail) & (codes.take(np.searchsorted(codes, tail), mode="clip") != tail)
        new = _changes(codes, new)  # one mask for every length
        counts.insert(0, int(np.count_nonzero(new) + np.count_nonzero(fresh)))
    del codes, new  # and `map` keeps no reference to a round's arrays past its count
    return tuple(counts) + tuple(map(lambda group: int(np.count_nonzero(group[1])), sorts))


def _window_sorts(x: SymbolicSequence, lengths: tuple[int, ...], limit: int, grouped: bool = False):
    """Yield (h, codes), the sorted base-k codes of the h-windows, then (order, new)
    at each n > h of the increasing `lengths`, or at the last: `order` as in
    `window_groups`, new[j] whether order[j] starts a word.

    A start fits in b bits (those of limit - 1) and k**h <= 2**(63 - b), so
    one value sort of code << b | start sorts the h-windows. A round ranks the
    h-words 1 to G; if t = ceil(n / h) ranks fit a key, t·bits(G) + b <= 63,
    one sort of those at q, q + h, ..., q + n - h orders the n-windows (prefix
    doubling, Manber & Myers 1993, with t ranks a key). Else, with step =
    min(2h, n) - h, a sort of rank(q) << b | index over the starts
    order[order >= step] - step orders the (h + step)-windows, carrying the
    order (Larsson & Sadakane 2007). Keys are int32 where they fit
    (`_key_dtype`). A round peaks at about 30 bytes per window.

    Table rounds skip the sorts where words are few: if rounds are needed and
    the D distinct h-words of the first 4·√T symbols, T = max(limit, 2**16),
    give D·n/h <= √T at the last n (so linear complexity keeps the tables
    within T), the first yield is (0, None) and each n yields (ranked, present):
    ranked[q] the rank from 0 of the n-word at q, present[c] whether key c
    occurs. `_table_ranks` ranks the codes of h = lengths[0], halved until
    k**h <= T, then each round's keys rank(q)·G + rank(q + step) while G**2 <= T.
    Else, and at the last n if `grouped`, one sort of rank << b | start
    returns to (order, new) and the sort rounds.
    """
    buf, k = x.data[:limit], x.alphabet_size
    b, cap = (limit - 1).bit_length(), max(limit, 1 << 16)
    h = 1
    while h < lengths[-1] and max(k, 2) ** (h + 1) <= 1 << (63 - b):
        h += 1
    ranked, todo = None, [n for n in lengths if n > h] or lengths[-1:]
    if h < lengths[-1]:
        head = np.sort(_base_k_codes(buf[: 4 * isqrt(cap)], k, h))
        if (np.count_nonzero(_changes(head)) * lengths[-1]) ** 2 <= cap * h * h:
            h, todo = lengths[0], lengths
            while max(k, 2) ** h > cap:  # halved, rounding up, so the rounds double back
                h = -(-h // 2)
            ranked, present = _table_ranks(_base_k_codes(buf, k, h, np.int32).astype(np.intp), k**h)
            yield 0, None
    if ranked is None:
        codes = _base_k_codes(buf, k, h, _key_dtype(k**h << b))
        idx, new = _sort_packed(codes, b)
        order = idx.astype(np.int32)
        yield h, codes
        del codes, idx
    for n in todo:
        while ranked is not None and h < n and (G := int(np.count_nonzero(present))) ** 2 <= cap:
            step = min(2 * h, n) - h
            keys = ranked[: ranked.size - step].astype(np.intp)
            keys *= G
            keys += ranked[step:]
            del ranked
            ranked, present = _table_ranks(keys, G * G)
            h += step
            del keys
        if ranked is not None and (h < n or grouped):
            G = int(np.count_nonzero(present))
            idx, new = _sort_packed(ranked.astype(_key_dtype(G << b), copy=False), b)
            order, ranked = idx.astype(np.int32, copy=False), None
            del idx
        while h < n:
            rank = np.cumsum(new, dtype=np.int32)
            ranks = np.empty(order.size, np.int32)
            ranks[order] = rank
            t, bits = -(-n // h), int(rank[-1]).bit_length()  # rank[-1] is G
            if t * bits + b <= 63:  # t ranks a key: one sort reaches n
                del order, new, rank
                keys = ranks[: limit - n + 1].astype(_key_dtype(1 << (t * bits + b)))
                for at in [*range(h, n - h, h), n - h]:
                    keys <<= bits
                    keys |= ranks[at : at + keys.size]
                del ranks
                idx, new = _sort_packed(keys, b)
                order, h = idx.astype(np.int32, copy=False), n
                del keys, idx
                continue
            step = min(2 * h, n) - h
            keep = order >= step
            second = order[keep] - step  # sorted by the h-word at q + step, ties by q
            tail = rank[keep]  # the rank of that word
            del order, new, rank, keep
            idx, new = _sort_packed(ranks[second].astype(_key_dtype(1 << (bits + b)), copy=False), b)
            order = second[idx]
            new |= _changes(tail[idx])
            del ranks, second, tail, idx
            h += step
        yield (order, new) if ranked is None else (ranked, present)


def _table_ranks(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank from 0 of each of `keys` among the distinct keys, and present[c],
    whether c occurs: exact, with no sort. Keys are intp, each below `size`:
    numpy scatters and gathers through intp indices twice as fast as int32."""
    present = np.zeros(size, bool)
    present[keys] = True
    rank = np.cumsum(present, dtype=np.int32)
    rank -= 1
    return rank.take(keys), present


def _key_dtype(top: int) -> type:
    """int32 if it holds every value below `top`, else int64."""
    return np.int32 if top <= 1 << 31 else np.int64


def _sort_packed(keys: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable value sort of `keys`, int32 below 2**(31 - b) or int64 below 2**(63 - b).

    Packs each key with its index, key << b | i, and leaves `keys` sorted.
    Returns the sorting permutation and new[j], whether the j-th key in
    sorted order differs from the one before.
    """
    keys <<= b
    keys |= np.arange(keys.size, dtype=keys.dtype)
    keys.sort()
    idx = keys & ((1 << b) - 1)
    keys >>= b
    return idx, _changes(keys)


def _changes(ranked: np.ndarray, new: np.ndarray | None = None) -> np.ndarray:
    """new[i] says whether ranked[i] starts a run of equal values, written into
    `new` if it is given (a bool array of ranked's size)."""
    if new is None:
        new = np.empty(ranked.size, bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    return new


def _base_k_codes(buf: np.ndarray, k: int, h: int, dtype: type = np.int64) -> np.ndarray:
    """The base-k value c_h[q] of every h-window of buf, in a dtype that holds k**h - 1.

    Built by binary doubling, reading h's bits from the top:
    c_{2a}[q] = c_a[q]*k**a + c_a[q+a] and c_{a+1}[q] = c_a[q]*k + buf[q+a],
    so h symbols take about 2*log2(h) passes, and every partial value stays
    below k**h. It holds two code arrays, and each doubling writes into the
    other one. A function of its own, so that its scratch array is freed
    before the caller allocates.
    """
    codes = buf.astype(dtype)  # c_a for a = 1
    spare = np.empty_like(codes) if h > 1 else None
    a = 1
    for bit in bin(h)[3:]:
        doubled = np.multiply(codes[: codes.size - a], k**a, out=spare[: codes.size - a])
        doubled += codes[a:]
        codes, spare, a = doubled, codes, 2 * a
        if bit == "1":
            codes = codes[:-1]
            codes *= k
            codes += buf[a:]
            a += 1
    return codes


@checked
def factors(x: SymbolicSequence, n: Count, limit: int | None = None) -> set[FiniteWord]:
    """The set of length-n words occurring in the first `limit` symbols."""
    order, heads = window_groups(x, n, limit)
    return {x.word(q + 1, q + n) for q in order[heads].tolist()}


def save_sequence(x: SymbolicSequence, path: str | Path) -> Path:
    """Write the symbols as raw bytes plus a JSON sidecar, each on a fresh inode:
    an older file at either path is unlinked, not rewritten, so a hard link to
    it keeps its bytes."""
    path = Path(path)
    sidecar = path.with_name(path.name + ".json")
    for p in (path, sidecar):
        p.unlink(missing_ok=True)
    x.data.tofile(path)  # no copy of the buffer
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
        + "\n",
        encoding="utf-8",
    )
    return path
