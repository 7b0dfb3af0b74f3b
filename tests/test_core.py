"""Words, sequences, occurrence scans, serialization."""

import json
import os
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shiftlab as sl
from shiftlab import FiniteWord, SymbolicSequence, core
from test_generate import ROUND_TRIP_CASES


def naive_occurrences(symbols, word):
    """Reference rescan: every start offset where word matches, by slicing."""
    n = len(word)
    return [
        q
        for q in range(len(symbols) - n + 1)
        if tuple(symbols[q : q + n]) == tuple(word)
    ]


# ---------------------------------------------------------------------------
# finite words


def test_word_from_digits_round_trip():
    w = FiniteWord.from_digits("0213", 4)
    assert w.symbols == (0, 2, 1, 3)
    assert str(w) == "0213"
    assert len(w) == 4
    assert list(w) == [0, 2, 1, 3]


def test_word_rejects_out_of_alphabet_symbols():
    with pytest.raises(ValueError):
        FiniteWord((0, 5), 4)
    with pytest.raises(ValueError):
        FiniteWord.from_digits("2", 2)


def test_word_as_array_is_uint8():
    arr = FiniteWord.from_digits("123", 4).as_array()
    assert arr.dtype == np.uint8
    assert arr.tolist() == [1, 2, 3]


# ---------------------------------------------------------------------------
# sequences


def test_sequence_indexing_is_one_based():
    x = SymbolicSequence([5, 6, 7, 8], 9)
    assert str(x.word(1, 1)) == "5"
    assert str(x.word(4, 4)) == "8"
    with pytest.raises(ValueError):
        x.word(0, 1)
    with pytest.raises(sl.HorizonError):
        x.word(5, 5)
    assert str(x.word(2, 3)) == "67"
    assert str(x.prefix(2)) == "56"


# ---------------------------------------------------------------------------
# truncated metric: the first-disagreement rank the diam kernel reads for a pair


short_seqs = st.lists(st.integers(0, 2), min_size=8, max_size=8)


def rank(x, y):
    """First disagreement offset of x and y through a cap of 8, or a sentinel
    past the cap when censored.

    The buffer is [0] + x + [0] + y; iterate 1 of the two-point diam series
    from positions 0 and 9 compares buffer offsets 1..8 past each, that is
    x and y symbol by symbol.
    """
    buf = SymbolicSequence([0, *x, 0, *y], 3)
    s = sl.diam_series_from_positions(buf, buf.prefix(1), [0, 9], horizon=1, depth_cap=8)
    first = int(s.first_disagreement[0])
    return first if first else 10**9


@given(short_seqs, short_seqs)
def test_metric_is_symmetric(a, b):
    assert rank(a, b) == rank(b, a)


@given(short_seqs)
def test_metric_identity_censors(a):
    assert rank(a, a) == 10**9


@given(short_seqs, short_seqs, short_seqs)
def test_metric_is_ultrametric(a, b, c):
    # first-disagreement ranks satisfy rank(a,c) >= min(rank(a,b), rank(b,c))
    assert rank(a, c) >= min(rank(a, b), rank(b, c))


# ---------------------------------------------------------------------------
# occurrence scans


def test_occurrences_on_the_alternating_point():
    x = sl.periodic("01", 32)
    occ = sl.occurrences(x, FiniteWord.from_digits("01", 2), limit=10)
    assert occ.positions.tolist() == [0, 2, 4, 6, 8]
    assert occ.positions.size == 5


def test_occurrences_validates_inputs():
    x = sl.periodic("01", 32)
    w = FiniteWord.from_digits("01", 2)
    with pytest.raises(ValueError):
        sl.occurrences(x, FiniteWord((), 2))
    with pytest.raises(ValueError):
        sl.occurrences(x, FiniteWord.from_digits("01", 3))
    with pytest.raises(ValueError):
        sl.occurrences(x, w, limit=1)
    with pytest.raises(sl.HorizonError):
        sl.occurrences(x, w, limit=33)


@given(
    st.lists(st.integers(0, 1), min_size=4, max_size=64),
    st.lists(st.integers(0, 1), min_size=1, max_size=3),
)
def test_occurrences_agree_with_naive_rescan(symbols, word):
    x = SymbolicSequence(symbols, 2)
    w = FiniteWord(tuple(word), 2)
    got = sl.occurrences(x, w).positions.tolist()
    assert got == naive_occurrences(symbols, word)


def rare_twos(rng, size):
    """Random binary symbols with a 2 at about one start in 200."""
    symbols = rng.integers(0, 2, size=size)
    symbols[rng.random(size) < 0.005] = 2
    return symbols


@st.composite
def occurrence_scans(draw):
    """A scan of a buffer's suffix (an unaligned start for the 8-symbol
    compares), with a word that is a slice of it or random.

    Periodic buffers give dense words that never leave the full-width mask;
    rare 2s give words that leave it after their first symbol; words up to
    40 symbols are long enough for 8-symbol compares and a tail."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(60, 600))
    shape = draw(st.sampled_from(["random", "periodic", "rare"]))
    if shape == "random":
        symbols = rng.integers(0, 3, size=size)
    elif shape == "periodic":
        symbols = np.resize(rng.integers(0, 3, size=draw(st.integers(1, 6))), size)
    else:
        symbols = rare_twos(rng, size)
    offset = draw(st.integers(0, 20))
    data = symbols[offset:].tolist()
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        q = draw(st.integers(0, len(data) - n))
        word = data[q : q + n]
    else:
        word = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    limit = draw(st.integers(n, len(data)))
    return symbols.tolist(), offset, word, limit


@settings(max_examples=200)
@given(occurrence_scans())
@example(([0, 1] * 200, 3, [1, 0] * 20, 397))  # dense through all 40 symbols
@example(([0, 1] * 100 + [2] + [0, 1] * 100, 1, [2] + [0, 1] * 19 + [0], 400))  # narrows at j = 1
def test_occurrences_agree_with_naive_slices(case):
    symbols, offset, word, limit = case
    x = SymbolicSequence(np.array(symbols, np.uint8)[offset:], 3)
    got = sl.occurrences(x, FiniteWord(tuple(word), 3), limit).positions.tolist()
    assert got == naive_occurrences(symbols[offset : offset + limit], word)


@settings(max_examples=200)
@given(occurrence_scans(), st.integers(1, 50))
@example(([0, 1] * 200, 3, [1, 0] * 20, 397), 7)  # a dense word across 57 blocks
def test_occurrences_in_small_blocks_agree_with_naive_slices(case, block):
    """Words that straddle a block edge, and blocks shorter than the word."""
    symbols, offset, word, limit = case
    x = SymbolicSequence(np.array(symbols, np.uint8)[offset:], 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_SCAN_BLOCK", block)
        got = sl.occurrences(x, FiniteWord(tuple(word), 3), limit).positions.tolist()
    assert got == naive_occurrences(symbols[offset : offset + limit], word)


@st.composite
def resumed_scans(draw):
    """A scan of `occurrence_scans`, resumed in blocks of 1 to 50 starts from one
    for a prefix of its word (the word itself included) or for a random word,
    whose limit lies below or above the resumed scan's."""
    symbols, offset, word, limit = draw(occurrence_scans())
    a = draw(st.integers(1, len(word)))
    u = draw(st.one_of(st.just(word[:a]), st.lists(st.integers(0, 2), min_size=a, max_size=a)))
    first = draw(st.integers(a, len(symbols) - offset))
    return symbols, offset, word, limit, u, first, draw(st.integers(1, 50))


RARE = [0, 1] * 100 + [2] + [0, 1] * 100


@settings(max_examples=200)
@given(resumed_scans())
@example(([0, 1] * 200, 3, [1, 0] * 20, 300, [1, 0, 1, 0], 397, 7))  # dense: a fresh scan
@example((RARE, 1, [2] + [0, 1] * 19 + [0], 400, [2, 0, 1], 230, 7))  # sparse: 199 filtered
@example((RARE, 1, [2] + [0, 1] * 19 + [0], 400, [2, 1, 1], 230, 7))  # not a prefix
def test_a_resumed_scan_agrees_with_a_fresh_one_and_naive_slices(case):
    """The prefix's starts that leave room for the word, filtered, and a scan
    of the starts past the prefix's window, or a fresh scan where the prefix's
    starts are dense."""
    symbols, offset, word, limit, u, first, block = case
    x = SymbolicSequence(np.array(symbols, np.uint8)[offset:], 3)
    w = FiniteWord(tuple(word), 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_SCAN_BLOCK", block)
        after = sl.occurrences(x, FiniteWord(tuple(u), 3), first)
        if u != word[: len(u)]:
            with pytest.raises(ValueError, match="not its prefix"):
                sl.occurrences(x, w, limit, after)
            return
        got = sl.occurrences(x, w, limit, after).positions.tolist()
        fresh = sl.occurrences(x, w, limit).positions.tolist()
    assert got == fresh == naive_occurrences(symbols[offset : offset + limit], word)


@pytest.mark.parametrize("scan", [
    lambda x: sl.occurrences(x, x.prefix(4), 3),
    lambda x: sl.factors(x, 4, 3),
    lambda x: sl.factor_counts(x, (2, 4), 3),
    lambda x: sl.window_groups(x, 4, 3),
], ids=["occurrences", "factors", "factor_counts", "window_groups"])
def test_every_scan_refuses_a_limit_below_its_word_in_the_config_text(scan):
    with pytest.raises(ValueError, match=r"^scan limit 3 shorter than word length 4$"):
        scan(sl.periodic("01", 32))


def peak_bytes(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape, word", [
    ("periodic", "01" * 20),  # every other start stays a candidate to the end
    ("sturmian", None),  # the prefixes of 8, 40 and 300 symbols
    ("rare", "2" + "01" * 20),
])
def test_occurrences_peak_at_two_bytes_per_scanned_symbol(shape, word):
    size = 1 << 20
    if shape == "periodic":
        x = SymbolicSequence(np.resize([0, 1], size), 3)
    elif shape == "rare":
        x = SymbolicSequence(rare_twos(np.random.default_rng(0), size), 3)
    else:
        x = sl.sturmian(size)
    words = [FiniteWord.from_digits(word, 3)] if word else [x.prefix(m) for m in (8, 40, 300)]
    for w in words:
        occ, peak = peak_bytes(lambda: sl.occurrences(x, w))
        # besides the result's own 8 bytes per occurrence, and a fixed 4 KiB
        assert peak <= 2 * size + occ.positions.nbytes + 4096, (shape, len(w))


def test_occurrences_of_a_word_with_a_rare_first_symbol_peak_near_one_byte_per_symbol():
    size = 1 << 20
    x = SymbolicSequence(rare_twos(np.random.default_rng(1), size), 3)
    occ, peak = peak_bytes(lambda: sl.occurrences(x, FiniteWord.from_digits("2" + "0" * 20, 3)))
    assert peak <= 1.1 * size


@pytest.mark.parametrize("spec", [
    {"generator": "sturmian", "params": {"length": (1 << 21) + 7}},  # about 1 start in 9
    {"generator": "full-shift", "params": {"length": (1 << 21) + 7, "mode": "random"}},
])
def test_a_cold_occurrence_scan_faults_in_its_mask_and_positions(cold_faults, spec):
    """An 8-word over 2**21 starts: the first 8 symbols are one compare, so a cold
    scan writes its mask and its result, and no compare buffer per symbol."""
    x = sl.build(spec)
    must_write = (1 << 21) + sl.occurrences(x, x.prefix(8)).positions.nbytes
    setup = f"import shiftlab as sl\nx = sl.build({spec!r})\nw = x.prefix(8)"
    faults = cold_faults(setup, "sl.occurrences(x, w)")
    assert faults <= 1.5 * must_write / resource.getpagesize()


@pytest.mark.parametrize("shape, word", [
    ("periodic", "01" * 20),  # half the starts are positions
    ("rare", "201101001"),  # the mask of a block is the whole transient
])
def test_a_scan_of_several_blocks_peaks_at_one_block_beside_its_positions(shape, word):
    """Three blocks, the last one short: the mask and one compare of a block,
    and the blocks' positions beside their join, never a mask of the scan."""
    size = 2 * core._SCAN_BLOCK + 4099
    if shape == "periodic":
        x = SymbolicSequence(np.resize([0, 1], size), 3)
    else:
        x = SymbolicSequence(rare_twos(np.random.default_rng(2), size), 3)
    w = FiniteWord.from_digits(word, 3)
    occ, peak = peak_bytes(lambda: sl.occurrences(x, w))
    assert peak <= 2 * core._SCAN_BLOCK + 2 * occ.positions.nbytes + 4096
    if shape == "rare":
        assert 0 < occ.positions.size < 1000 and peak < size  # 2 bytes per symbol before blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_SCAN_BLOCK", size)  # one block: the scan as it was
        assert np.array_equal(sl.occurrences(x, w).positions, occ.positions)


# ---------------------------------------------------------------------------
# factor sets


def naive_factors(symbols, n):
    return {tuple(symbols[i : i + n]) for i in range(len(symbols) - n + 1)}


def test_factors_small_example():
    x = sl.periodic("01", 16)
    got = {str(w) for w in sl.factors(x, 2)}
    assert got == {"01", "10"}


@given(st.lists(st.integers(0, 2), min_size=6, max_size=48), st.integers(1, 4))
def test_factors_agree_with_naive_slices(symbols, n):
    x = SymbolicSequence(symbols, 3)
    got = {w.symbols for w in sl.factors(x, n)}
    assert got == naive_factors(symbols, n)


def test_factors_long_words_take_the_doubling_path():
    # alphabet 4 with n = 32 passes 2**62 (4**31 is the longest exact code),
    # so window_groups doubles once; the answer must match naive slicing exactly
    rng = np.random.default_rng(7)
    symbols = rng.integers(0, 4, size=64).tolist()
    x = SymbolicSequence(symbols, 4)
    got = {w.symbols for w in sl.factors(x, 32)}
    assert got == naive_factors(symbols, 32)


# (alphabet, longest window whose base-k code stays within 2**62)
EXACT_LENGTHS = {2: 62, 3: 39, 256: 7}


@st.composite
def defective_powers(draw, copies=3):
    """A repeated block with a few point defects: long windows repeat, and
    some differ only near their end, which the doubling order must see. The
    longest runs about `copies` times the longest exact window."""
    k = draw(st.sampled_from(sorted(EXACT_LENGTHS)))
    block = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
    symbols = block * draw(st.integers(1, copies * EXACT_LENGTHS[k] // len(block) + 2))
    for i in draw(st.lists(st.integers(0, len(symbols) - 1), max_size=6)):
        symbols[i] = draw(st.integers(0, k - 1))
    longer = min(len(symbols), EXACT_LENGTHS[k] + 1)
    n = draw(st.integers(1, len(symbols)) | st.integers(longer, len(symbols)))
    limit = draw(st.integers(n, len(symbols)))
    return k, symbols, n, limit


def base_k_codes(symbols, k, n, dtype=np.int64):
    return sl.core._base_k_codes(np.array(symbols, np.uint8), k, n, dtype)


def naive_counts(symbols, lengths, limit):
    return tuple(len({tuple(symbols[q : q + n]) for q in range(limit - n + 1)}) for n in lengths)


# Window codes are the base-k values `_base_k_codes` gives the windows of up to
# EXACT_LENGTHS[k] symbols; past the table cap `factor_counts` sorts them and
# reads every shorter count off the quotients code // k**(h - n).
@settings(max_examples=150)
@given(defective_powers())
def test_window_codes_rank_windows_like_their_words(case):
    k, symbols, n, limit = case
    h = min(n, EXACT_LENGTHS[k])
    codes = base_k_codes(symbols[:limit], k, h)
    windows = [tuple(symbols[q : q + h]) for q in range(limit - h + 1)]
    naive_rank = {w: r for r, w in enumerate(sorted(set(windows)))}
    assert codes.dtype == np.int64
    # equal codes exactly for equal windows, and codes in lexicographic order
    assert np.unique(codes, return_inverse=True)[1].tolist() == [naive_rank[w] for w in windows]
    # the quotient by k**(h - m) is the code of the m-word that starts the window
    m = (h + 1) // 2
    prefixes = base_k_codes(symbols[:limit], k, m)[: codes.size]
    assert (codes // k ** (h - m)).tolist() == prefixes.tolist()


@pytest.mark.parametrize("k", sorted(EXACT_LENGTHS))
def test_window_codes_cover_both_sides_of_the_exact_length(k):
    # 200 symbols leave the table cap at 2**16, so (1, h) takes the plain sort
    # of the h-codes, and (1,) alone the table; h + 1 and 2h + 3 take the
    # packed sort and doubling rounds that stop at each longer length
    rng = np.random.default_rng(k)
    block = rng.integers(0, k, size=5).tolist()
    symbols = block * 40
    symbols[150] = (symbols[150] + 1) % k
    x = SymbolicSequence(symbols, k)
    lengths = (1, EXACT_LENGTHS[k], EXACT_LENGTHS[k] + 1, 2 * EXACT_LENGTHS[k] + 3)
    for j in range(1, len(lengths) + 1):
        for part in (lengths[:j], lengths[j - 1 :]):
            assert sl.factor_counts(x, part) == naive_counts(symbols, part, 200), part


@pytest.mark.parametrize("k", sorted(EXACT_LENGTHS))
def test_window_codes_are_base_k_values_through_the_exact_length(k):
    # a run of the top symbol reaches the largest value, k**h - 1; the codes
    # are checked as int64 and as int32 wherever k**n fits in it
    rng = np.random.default_rng(k)
    symbols = [k - 1] * EXACT_LENGTHS[k] + rng.integers(0, k, size=24).tolist()
    for n in range(1, EXACT_LENGTHS[k] + 1):
        values = [
            sum(s * k ** (n - 1 - j) for j, s in enumerate(symbols[q : q + n]))
            for q in range(len(symbols) - n + 1)
        ]
        for dtype in {np.int64, core._key_dtype(k**n)}:
            codes = base_k_codes(symbols, k, n, dtype)
            assert codes.dtype == dtype and codes.tolist() == values, (n, dtype)
    assert max(values) == k ** EXACT_LENGTHS[k] - 1


def test_counts_see_the_windows_past_the_last_longest_window():
    # the only 1 starts no 50-window, nor at 200 symbols a 55-window (the
    # exact start below 100 when starts take 8 bits): it is counted among
    # the shorter windows past the last start of the sorted ones
    assert sl.factor_counts(sl.periodic("0" * 99 + "1", 100), (1, 50)) == (2, 2)
    assert sl.factor_counts(sl.periodic("0" * 199 + "1", 200), (1, 2, 100)) == (2, 2, 2)


def recording_codes(monkeypatch):
    """Record each `_base_k_codes` call as (symbols passed, window length, dtype)."""
    seen, base_k_codes = [], core._base_k_codes

    def recording(buf, k, h, dtype=np.int64):
        seen.append((buf.size, h, np.dtype(dtype).name))
        return base_k_codes(buf, k, h, dtype)

    monkeypatch.setattr(core, "_base_k_codes", recording)
    return seen


@st.composite
def table_cases(draw):
    """A scan whose longest length h has max(k, 2)**h <= 2**16, under the table
    cap of any limit: a defective power or a random word over 1 to 4 or 256 symbols, h up
    to the cap (2 for 256), every shorter length from 1 on (so 0 to h - 1 tail
    windows), and a presence-table block of 1 to 50 windows, which ends
    mid-word."""
    k = draw(st.sampled_from([1, 2, 3, 4, 256]))
    block = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))
    if draw(st.booleans()):
        symbols = block * draw(st.integers(1, 120 // len(block) + 1))
        for i in draw(st.lists(st.integers(0, len(symbols) - 1), max_size=4)):
            symbols[i] = draw(st.integers(0, k - 1))
    else:
        symbols = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=150))
    top = {1: 16, 2: 16, 3: 10, 4: 8, 256: 2}[k]  # max(k, 2)**top <= 2**16
    h = draw(st.integers(1, min(top, len(symbols))))
    limit = draw(st.integers(h, len(symbols)))
    lengths = sorted({h, *draw(st.lists(st.integers(1, h), max_size=3))})
    return k, symbols, tuple(lengths), limit, draw(st.integers(1, 50))


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_table_counts_agree_with_naive_slices(case):
    """Blocks of any size tile the h-windows once, each row of the table is an
    n-word, and the tail adds each new n-word past the last h-window once."""
    k, symbols, lengths, limit, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_TABLE_BLOCK", block)
        calls = recording_codes(mp)
        got = sl.factor_counts(SymbolicSequence(symbols, k), lengths, limit)
    assert got == naive_counts(symbols, lengths, limit)
    h = lengths[-1]
    blocks = [size for size, n, _ in calls if n == h][: -(-(limit - h + 1) // block)]
    assert blocks and max(blocks) <= block + h - 1  # the table path, block by block
    assert calls[0][2] == "uint16"


def bytes_counts(symbols, lengths):
    """`naive_counts` over every window of a uint8 buffer, keyed by bytes."""
    data = bytes(symbols)
    return tuple(len({data[q : q + n] for q in range(len(data) - n + 1)}) for n in lengths)


@pytest.mark.parametrize("k, size, h, dtype", [
    (2, 1 << 16, 16, "uint16"),  # k**h == T == 2**16
    (4, 1 << 16, 8, "uint16"),
    (256, 1 << 16, 2, "uint16"),
    (2, 1 << 17, 17, "int32"),  # T = limit = k**h, past 2**16
    (1, 1 << 16, 16, "uint16"),  # one symbol: a table of one entry
])
def test_counts_on_both_sides_of_the_table_cap(monkeypatch, k, size, h, dtype):
    """At k**h == T the codes mark a table, block by block; the next h sorts
    the codes of all the windows at once."""
    symbols = np.random.default_rng(k).integers(0, k, size).astype(np.uint8)
    x = SymbolicSequence(symbols, k)
    calls = recording_codes(monkeypatch)
    for longest, blocks in ((h, True), (h + 1, False)):
        lengths = tuple(sorted({1, longest // 2, longest - 1, longest} - {0}))
        calls.clear()
        assert sl.factor_counts(x, lengths) == bytes_counts(symbols, lengths), longest
        assert (calls[0][0] <= core._TABLE_BLOCK + h - 1) == blocks, longest
        if blocks:
            assert calls[0][2] == dtype


def naive_groups(symbols, n, limit):
    """The window starts in a stable sort by their words, and where each word begins."""
    starts = sorted(range(limit - n + 1), key=lambda q: symbols[q : q + n])
    words = [symbols[q : q + n] for q in starts]
    heads = [i for i, w in enumerate(words) if i == 0 or w != words[i - 1]]
    return starts, heads


@settings(max_examples=150)
@given(defective_powers())
def test_window_groups_are_a_stable_sort_of_the_windows(case):
    k, symbols, n, limit = case
    order, heads = sl.window_groups(SymbolicSequence(symbols, k), n, limit)
    assert order.dtype == np.int32
    assert (order.tolist(), heads.tolist()) == naive_groups(symbols, n, limit)


def test_window_groups_double_below_the_exact_length_when_starts_take_the_bits():
    # 300 starts take 9 bits of each key, so the base-k codes stop at
    # 256**6 <= 2**54 and 7-windows, though exact, take one doubling round
    rng = np.random.default_rng(256)
    symbols = rng.integers(0, 256, size=6).tolist() * 50
    for q in (40, 150, 151, 299):
        symbols[q] = (symbols[q] + 1) % 256
    order, heads = sl.window_groups(SymbolicSequence(symbols, 256), 7)
    assert (order.tolist(), heads.tolist()) == naive_groups(symbols, 7, 300)


def test_window_groups_peak_at_32_bytes_per_window():
    x = sl.sturmian(1 << 20)
    (order, _), peak = peak_bytes(lambda: sl.window_groups(x, 128))
    assert peak <= 32 * order.size


def test_factor_counts_peak_at_32_bytes_per_window():
    x = sl.sturmian(1 << 20)
    counts, peak = peak_bytes(lambda: sl.factor_counts(x, (8, 16, 32, 64, 128)))
    assert counts == (9, 17, 33, 65, 129)  # a Sturmian word has n + 1 factors of length n
    assert peak <= 32 * x.length


RETURNS_FULL_SHIFT = {"generator": "full-shift", "params": {"length": 1 << 21, "mode": "random"}}


def test_a_cold_full_shift_count_faults_in_at_most_256_pages(cold_faults):
    """The returns workload's full-shift entropy, 2**16 codes: the windows mark a
    presence table block by block, so a cold call writes the 64 KiB table and a
    block's scratch, which are reused, not an array of 10**6 codes."""
    faults = cold_faults(f"import shiftlab as sl\nx = sl.build({RETURNS_FULL_SHIFT!r})",
                         "sl.factor_counts(x, (4, 8, 12, 16), 10**6)")
    assert faults <= 256


def test_a_full_shift_count_peaks_at_one_mebibyte():
    """The same count holds the table and one block's codes, not 10**6 codes."""
    x = sl.build(RETURNS_FULL_SHIFT)
    counts, peak = peak_bytes(lambda: sl.factor_counts(x, (4, 8, 12, 16), 10**6))
    assert counts == (16, 256, 4096, 65536)
    assert peak <= 1 << 20


@pytest.mark.parametrize("dtype, k, hs", [
    (np.int32, 2, (1, 2, 13, 16, 31)),  # 16 only doubles; 13 and 31 append symbols too
    (np.int64, 3, (7, 32, 39)),
    (np.int64, 256, (6, 7)),
])
def test_base_k_codes_peak_at_two_code_arrays(dtype, k, hs):
    buf = np.random.default_rng(k).integers(0, k, size=1 << 18).astype(np.uint8)
    for h in hs:
        codes, peak = peak_bytes(lambda: core._base_k_codes(buf, k, h, dtype))
        assert codes.dtype == dtype
        arrays = 2 if h > 1 else 1
        # and the cast buffers of `codes += buf[a:]`, numpy's 8192 elements each
        assert peak <= (arrays * buf.size + 2 * np.getbufsize()) * codes.itemsize, h


def test_table_rounds_peak_at_16_bytes_per_window():
    # a round holds each start's rank (4 bytes) and its pair key (8, intp); the
    # one sort of the ranks that groups the windows holds less
    x = sl.sturmian(1 << 20)
    (order, _), peak = peak_bytes(lambda: sl.window_groups(x, 128))
    assert peak <= 16 * order.size
    counts, peak = peak_bytes(lambda: sl.factor_counts(x, (8, 16, 32, 64, 128)))
    assert counts == (9, 17, 33, 65, 129)
    assert peak <= 16 * x.length

def symbols_of(shape):
    """2**16 binary symbols: 65,536 starts take b = 16 bits, and the exact start is
    h = 47 (2**47 << 16 <= 2**63). A Sturmian word has G = h + 1 distinct h-words;
    a random one has about 65k, 17 bits' worth."""
    if shape == "random":
        return np.random.default_rng(16).integers(0, 2, 1 << 16).tolist()
    return sl.sturmian(1 << 16).data.tolist()


def recording_rounds(monkeypatch):
    """Record each `_sort_packed` call as (key dtype, key count, largest key), and
    each `_table_ranks` call as ("table", key count, table size)."""
    seen, sort_packed, table_ranks = [], sl.core._sort_packed, sl.core._table_ranks

    def recording(keys, b):
        seen.append((str(keys.dtype), keys.size, int(keys.max())))
        return sort_packed(keys, b)

    def tabling(keys, size):
        seen.append(("table", keys.size, size))
        return table_ranks(keys, size)

    monkeypatch.setattr(sl.core, "_sort_packed", recording)
    monkeypatch.setattr(sl.core, "_table_ranks", tabling)
    return seen


@pytest.mark.parametrize("shape, n, key_dtypes", [
    # G ~ 65k >= 2**15 ranks
    pytest.param("random", 64, ["int64", "int64"], id="random-key_dtypes0"),
    # table rounds from the 16-words to 32 and 64, then the 65 ranks' keys fit in int32
    pytest.param("sturmian", 64, ["table", "table", "table", "int32"], id="sturmian-key_dtypes1"),
    # the exact start alone: 2**3 << 16 <= 2**31
    pytest.param("sturmian", 3, ["int32"], id="sturmian-depth-3"),
])
def test_window_groups_key_width_follows_the_largest_rank(monkeypatch, shape, n, key_dtypes):
    symbols = symbols_of(shape)
    seen = recording_rounds(monkeypatch)
    order, heads = sl.window_groups(SymbolicSequence(symbols, 2), n)
    assert [dtype for dtype, _, _ in seen] == key_dtypes  # the start, then any round
    assert (order.tolist(), heads.tolist()) == naive_groups(bytes(symbols), n, 1 << 16)


@pytest.mark.parametrize("shape, n, rounds", [
    # 48 Sturmian 47-words in the first 1024 symbols, scaled to n: 48·n/47 <= 256 =
    # sqrt(2**16), so the 16-words are ranked through a 2**16 table, each round's
    # pair keys through a G**2 table, and one int32 sort groups the n-words' ranks
    ("sturmian", 64, [("table", 1 << 16), ("table", 17**2), ("table", 33**2), ("ranks", "int32")]),
    ("sturmian", 128, [("table", 1 << 16), ("table", 17**2), ("table", 33**2), ("table", 65**2),
                       ("ranks", "int32")]),
    # 48·500/47 > 256: the sort rounds. t = 11 ranks of 6 bits do not fit; after
    # one doubling round, t = 6 of 7 bits do
    ("sturmian", 500, [("doubling", "int32"), ("t-rank", "int64")]),
    ("random", 64, [("t-rank", "int64")]),  # t = 2 ranks of 17 bits
    ("random", 141, [("doubling", "int64"), ("t-rank", "int64")]),  # t = 4 of 17 do not fit
])
def test_a_round_keys_t_ranks_where_they_fit(monkeypatch, shape, n, rounds):
    """A round's keys pack the t = ceil(n / h) ranks of the h-words at q, q + h,
    ..., q + n - h, one for each n-window, so the largest passes G, the number of
    h-words; a doubling round keys one rank of each start it carries. A scan of
    few words ranks by table instead, and sorts only the ranks of the n-words."""
    symbols = symbols_of(shape)
    x = SymbolicSequence(symbols, 2)
    distinct = dict(zip((47, 94), sl.factor_counts(x, (47, 94))))  # G at each h
    seen = recording_rounds(monkeypatch)
    order, heads = sl.window_groups(x, n)
    got, h = [], 47
    for dtype, count, top in seen[seen[0][0] != "table" :]:  # past the exact start's sort
        if dtype == "table":
            got.append(("table", top))
        elif got and got[-1][0] == "table":  # the n-words' ranks, from 0
            got.append(("ranks", dtype))
            assert (count, top) == ((1 << 16) - n + 1, heads.size - 1)
        elif top > distinct[h]:
            got.append(("t-rank", dtype))
            assert count == (1 << 16) - n + 1  # every n-window
            h = n
        else:
            got.append(("doubling", dtype))
            h = min(2 * h, n)
    assert got == rounds
    assert (order.tolist(), heads.tolist()) == naive_groups(bytes(symbols), n, 1 << 16)


@st.composite
def rank_cases(draw):
    """A scan on few words or on many: a defective power; a 1024-symbol
    periodic prefix (4·sqrt(T) for T = 2**16, the symbols the path is chosen
    from) before a random tail of at least 300, whose words outgrow the
    table; or a random word over 4 to 256 symbols, which past about 300
    symbols has more than sqrt(T) distinct h-words."""
    shape = draw(st.sampled_from(["power", "switch", "random"]))
    if shape == "power":
        return draw(defective_powers(copies=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([4, 16, 256]))
    size = draw(st.integers(1324, 1600) if shape == "switch" else st.integers(300, 1600))
    symbols = rng.integers(0, k, size)
    if shape == "switch":
        symbols[:1024] = np.resize(rng.integers(0, k, draw(st.integers(1, 6))), 1024)
    exact = {4: 26, 16: 13, 256: 6}[k]  # the exact start at 11 start bits
    n = draw(st.integers(exact + 1, 3 * exact))
    limit = draw(st.integers(1324 if shape == "switch" else n, size))
    return k, symbols.tolist(), n, limit


def test_both_rank_paths_sort_and_count_the_windows(monkeypatch):
    """Small scans fit the table, so this property draws scans whose words do
    not: every draw must match the naive oracles, and the draws must take the
    table rounds, the sort rounds, and the table rounds falling back to sorts."""
    paths = set()
    seen = recording_rounds(monkeypatch)

    def path(grouping_sorts):
        sorts = sum(kind != "table" for kind, _, _ in seen)
        if not any(kind == "table" for kind, _, _ in seen):
            return "sorts"
        return "table" if sorts == grouping_sorts else "table, then sorts"

    @settings(max_examples=120, deadline=None)
    @given(rank_cases(), st.data())
    def check(case, data):
        k, symbols, n, limit = case
        x = SymbolicSequence(symbols, k)
        seen.clear()
        order, heads = sl.window_groups(x, n, limit)
        assert (order.tolist(), heads.tolist()) == naive_groups(symbols, n, limit)
        paths.add(path(1))  # window_groups sorts the table's ranks once
        lengths = sorted({n, *data.draw(st.lists(st.integers(1, limit), max_size=3))})
        seen.clear()
        assert sl.factor_counts(x, tuple(lengths), limit) == naive_counts(symbols, lengths, limit)
        paths.add(path(0))

    check()
    assert paths == {"table", "sorts", "table, then sorts"}


@settings(max_examples=150, deadline=None)
@given(defective_powers(copies=12), st.data())
def test_t_rank_rounds_sort_and_count_the_windows(case, data):
    """Up to 12 times the longest exact window, every kind of round occurs: over
    300 draws, t = 2 ranks a key in about a quarter of the rounds, t >= 3 in two
    thirds, int64 keys in a third, and a doubling round, where t ranks do not
    fit, in one of 15."""
    k, symbols, n, limit = case
    x = SymbolicSequence(symbols, k)
    order, heads = sl.window_groups(x, n, limit)
    assert order.dtype == np.int32
    assert (order.tolist(), heads.tolist()) == naive_groups(symbols, n, limit)
    lengths = sorted({n, *data.draw(st.lists(st.integers(1, limit), max_size=3))})
    assert sl.factor_counts(x, tuple(lengths), limit) == naive_counts(symbols, lengths, limit)


@settings(max_examples=100)
@given(defective_powers(), st.data())
def test_entropy_counts_the_distinct_windows(case, data):
    k, symbols, n, limit = case
    lengths = sorted({n, *data.draw(st.lists(st.integers(1, limit), max_size=3))})
    curve = sl.entropy_complexity(SymbolicSequence(symbols, k), tuple(lengths), limit)
    assert curve.counts == naive_counts(symbols, lengths, limit)


def test_factors_validate_args():
    x = sl.periodic("01", 8)
    with pytest.raises(ValueError):
        sl.factors(x, 0)
    with pytest.raises(sl.HorizonError):
        sl.factors(x, 2, limit=9)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("generator, params", ROUND_TRIP_CASES)
def test_sequence_save_load_round_trip(tmp_path, generator, params):
    """save_sequence writes one byte per symbol and a JSON sidecar naming the
    construction, whose generator_id and params rebuild the file's bytes."""
    x = sl.build({"generator": generator, "params": params})
    path = sl.save_sequence(x, tmp_path / "p.seq")
    assert np.array_equal(np.fromfile(path, dtype=np.uint8), x.data)
    sidecar = json.loads(path.with_name("p.seq.json").read_text())
    assert sidecar == {
        "alphabet_size": x.alphabet_size,
        "length": x.length,
        "generator_id": generator,
        "params": {**x.params, **json.loads(json.dumps(params))},
    }
    back = sl.build({"generator": sidecar["generator_id"], "params": sidecar["params"]})
    assert back.data.tobytes() == path.read_bytes()


def test_save_sequence_leaves_hard_links_to_older_files_as_they_were(tmp_path):
    """A save unlinks the older files at its paths, so links to them keep their bytes."""
    path = sl.save_sequence(sl.periodic("01", 64), tmp_path / "p.seq")
    sidecar = path.with_name("p.seq.json")
    old = (path.read_bytes(), sidecar.read_text())
    os.link(path, tmp_path / "snap.seq")
    os.link(sidecar, tmp_path / "snap.seq.json")
    sl.save_sequence(sl.periodic("011", 96), path)
    assert len(path.read_bytes()) == 96 and json.loads(sidecar.read_text())["length"] == 96
    assert (tmp_path / "snap.seq").read_bytes() == old[0] and len(old[0]) == 64
    assert (tmp_path / "snap.seq.json").read_text() == old[1]


def test_save_sequence_writes_the_buffer_without_a_copy(tmp_path):
    """The file holds the buffer's bytes, written from the buffer itself: the
    write's peak is far below the buffer's size, a strided buffer included."""
    x = sl.periodic("0312", 1 << 23, alphabet_size=4)
    tracemalloc.start()
    try:
        path = sl.save_sequence(x, tmp_path / "p.seq")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == x.data.tobytes()
    assert peak < x.length // 64
    strided = sl.SymbolicSequence((np.arange(1201) % 7).astype(np.uint8)[::2], 7)
    assert not strided.data.flags.contiguous
    path = sl.save_sequence(strided, tmp_path / "s.seq")
    assert path.read_bytes() == strided.data.tobytes()


# ---------------------------------------------------------------------------
# diam series sampling direction


@settings(max_examples=50)
@given(
    st.lists(st.integers(0, 1), min_size=48, max_size=48),
    st.sets(st.integers(0, 31), min_size=2, max_size=8),
    st.sets(st.integers(0, 31), min_size=1, max_size=4),
)
def test_diam_values_are_antitone_in_the_sample(symbols, base, extra):
    """Adding occurrence shifts can only raise (or keep) each diam value."""
    x = SymbolicSequence(symbols, 2)
    w = FiniteWord.from_digits("0", 2)
    small = sorted(base)
    large = sorted(base | extra)
    s_small = sl.diam_series_from_positions(x, w, small, horizon=8, depth_cap=8)
    s_large = sl.diam_series_from_positions(x, w, large, horizon=8, depth_cap=8)
    assert (s_large.values() >= s_small.values()).all()
