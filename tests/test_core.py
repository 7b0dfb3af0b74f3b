"""Words, the truncated metric, occurrence scans, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab import FiniteWord, SymbolicSequence


def seq_of(symbols, alphabet_size):
    return SymbolicSequence.from_symbols(symbols, alphabet_size)


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


def test_word_concatenation_keeps_alphabet():
    a = FiniteWord.from_digits("01", 2)
    b = FiniteWord.from_digits("10", 2)
    assert str(a + b) == "0110"
    assert (a + b).alphabet_size == 2


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
# sequences and the shift


def test_sequence_indexing_is_one_based():
    x = seq_of([5, 6, 7, 8], 9)
    assert x.symbol(1) == 5
    assert x.symbol(4) == 8
    with pytest.raises(ValueError):
        x.symbol(0)
    with pytest.raises(sl.HorizonError):
        x.symbol(5)
    assert str(x.word(2, 3)) == "67"
    assert str(x.prefix(2)) == "56"


def test_shift_is_a_zero_copy_view():
    x = seq_of(range(16), 16)
    y = x.shift(3)
    assert y.length == 13
    assert y.symbol(1) == x.symbol(4)
    assert np.shares_memory(x.data, y.data)
    with pytest.raises(ValueError):
        x.shift(-1)


def test_shift_composes():
    x = seq_of([0, 1, 0, 1, 1, 0, 1], 2)
    assert np.array_equal(x.shift(2).shift(3).data, x.shift(5).data)


# ---------------------------------------------------------------------------
# truncated metric


def test_metric_reports_first_disagreement():
    x = seq_of([0, 1, 0, 1], 2)
    y = seq_of([0, 1, 1, 1], 2)
    d = sl.metric_distance(x, y, depth_cap=4)
    assert d.first_diff == 3
    assert d.upper_bound == pytest.approx(1 / 3)
    assert not d.censored


def test_metric_censors_agreement_through_the_cap():
    x = seq_of([1, 1, 1, 1, 0], 2)
    y = seq_of([1, 1, 1, 1, 1], 2)
    d = sl.metric_distance(x, y, depth_cap=4)
    assert d.censored
    assert d.first_diff is None
    assert d.upper_bound == pytest.approx(1 / 4)
    assert d.mean_term == 0.0


def test_metric_needs_enough_symbols():
    x = seq_of([0, 1], 2)
    with pytest.raises(sl.HorizonError):
        sl.metric_distance(x, x, depth_cap=3)
    with pytest.raises(ValueError):
        sl.metric_distance(x, x, depth_cap=0)


short_seqs = st.lists(st.integers(0, 2), min_size=8, max_size=8)


def rank(x, y):
    """First disagreement offset, or a sentinel past the cap when censored."""
    d = sl.metric_distance(seq_of(x, 3), seq_of(y, 3), depth_cap=8)
    return d.first_diff if d.first_diff is not None else 10**9


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
    assert occ.count == 5


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
    x = seq_of(symbols, 2)
    w = FiniteWord(tuple(word), 2)
    got = sl.occurrences(x, w).positions.tolist()
    assert got == naive_occurrences(symbols, word)


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
    x = seq_of(symbols, 3)
    got = {w.symbols for w in sl.factors(x, n)}
    assert got == naive_factors(symbols, n)


def test_factors_long_words_take_the_doubling_path():
    # alphabet 4 with n = 32 passes 2**62 (4**31 is the longest exact code),
    # so window_codes doubles once; the answer must match naive slicing exactly
    rng = np.random.default_rng(7)
    symbols = rng.integers(0, 4, size=64).tolist()
    x = seq_of(symbols, 4)
    got = {w.symbols for w in sl.factors(x, 32)}
    assert got == naive_factors(symbols, 32)


# (alphabet, longest window whose base-k code stays within 2**62)
EXACT_LENGTHS = {2: 62, 3: 39, 256: 7}


@st.composite
def defective_powers(draw):
    """A repeated block with a few point defects: long windows repeat, and
    some differ only near their end, which the doubling order must see."""
    k = draw(st.sampled_from(sorted(EXACT_LENGTHS)))
    block = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
    symbols = block * draw(st.integers(1, 3 * EXACT_LENGTHS[k] // len(block) + 2))
    for i in draw(st.lists(st.integers(0, len(symbols) - 1), max_size=6)):
        symbols[i] = draw(st.integers(0, k - 1))
    longer = min(len(symbols), EXACT_LENGTHS[k] + 1)
    n = draw(st.integers(1, len(symbols)) | st.integers(longer, len(symbols)))
    limit = draw(st.integers(n, len(symbols)))
    return k, symbols, n, limit


@settings(max_examples=150)
@given(defective_powers())
def test_window_codes_rank_windows_like_their_words(case):
    k, symbols, n, limit = case
    codes = sl.window_codes(seq_of(symbols, k), n, limit)
    windows = [tuple(symbols[q : q + n]) for q in range(limit - n + 1)]
    naive_rank = {w: r for r, w in enumerate(sorted(set(windows)))}
    assert codes.dtype == np.int64
    # equal codes exactly for equal windows, and codes in lexicographic order
    assert np.unique(codes, return_inverse=True)[1].tolist() == [naive_rank[w] for w in windows]


@pytest.mark.parametrize("k", sorted(EXACT_LENGTHS))
def test_window_codes_cover_both_sides_of_the_exact_length(k):
    rng = np.random.default_rng(k)
    block = rng.integers(0, k, size=5).tolist()
    symbols = block * 40
    symbols[150] = (symbols[150] + 1) % k
    x = seq_of(symbols, k)
    for n in (1, EXACT_LENGTHS[k], EXACT_LENGTHS[k] + 1, 2 * EXACT_LENGTHS[k] + 3):
        windows = [tuple(symbols[q : q + n]) for q in range(len(symbols) - n + 1)]
        order = {w: r for r, w in enumerate(sorted(set(windows)))}
        ranks = np.unique(sl.window_codes(x, n), return_inverse=True)[1]
        assert ranks.tolist() == [order[w] for w in windows], n


def test_factors_validate_args():
    x = sl.periodic("01", 8)
    with pytest.raises(ValueError):
        sl.factors(x, 0)
    with pytest.raises(sl.HorizonError):
        sl.factors(x, 2, limit=9)


# ---------------------------------------------------------------------------
# serialization


def test_sequence_save_load_round_trip(tmp_path):
    """save_sequence writes one byte per symbol and a JSON sidecar naming the construction."""
    x = sl.periodic("0312", 40, alphabet_size=4)
    path = sl.save_sequence(x, tmp_path / "p.seq")
    assert np.array_equal(np.fromfile(path, dtype=np.uint8), x.data)
    assert json.loads(path.with_name("p.seq.json").read_text()) == {
        "alphabet_size": 4,
        "length": 40,
        "generator_id": "periodic",
        "params": {"word": "0312", "length": 40, "alphabet_size": 4},
    }


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
    x = seq_of(symbols, 2)
    w = FiniteWord.from_digits("0", 2)
    small = sorted(base)
    large = sorted(base | extra)
    s_small = sl.diam_series_from_positions(x, w, small, horizon=8, depth_cap=8)
    s_large = sl.diam_series_from_positions(x, w, large, horizon=8, depth_cap=8)
    assert (s_large.values() >= s_small.values()).all()
