"""Sequence toolkit checks: LCS and subsequence against brute force, the
fast LCS kernels against plain dynamic programs, the
supersequence count against direct enumeration, and the counting bounds."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes import seqkit
from delcodes.errors import GuardExceeded, LengthMismatch, NotBinary, OutOfRange
from delcodes.seqkit import Interval, Word


def brute_lcs(a, b):
    best = 0
    for mask in range(1 << len(a)):
        sub = tuple(a[i] for i in range(len(a)) if mask >> i & 1)
        if len(sub) > best and seqkit._is_subseq_seq(sub, b):
            best = len(sub)
    return best


def all_words(k, m):
    return itertools.product(range(k), repeat=m)


def rolling_lcs(xs, ys):
    """Pairwise LCS by the O(|xs| * |ys|) dynamic program with one rolling
    row: the reference for the bit-parallel seqkit._lcs_seq."""
    if len(xs) < len(ys):
        xs, ys = ys, xs
    if not ys:
        return 0
    row = [0] * (len(ys) + 1)
    for x in xs:
        prev_diag = 0
        for j, y in enumerate(ys, start=1):
            tmp = row[j]
            if x == y:
                row[j] = prev_diag + 1
            elif row[j - 1] > row[j]:
                row[j] = row[j - 1]
            prev_diag = tmp
    return row[len(ys)]


def table_multi_lcs(seqs):
    """Multi-word LCS by the full dynamic program over the flat
    prod(len + 1) table: the reference for the dominant-point
    seqkit._multi_lcs."""
    dims = [len(s) + 1 for s in seqs]
    total = math.prod(dims)
    strides = [0] * len(dims)
    acc = 1
    for i in range(len(dims) - 1, -1, -1):
        strides[i] = acc
        acc *= dims[i]
    table = [0] * total
    all_stride = sum(strides)
    for coords in itertools.product(*(range(d) for d in dims)):
        if 0 in coords:
            continue
        idx = sum(c * st for c, st in zip(coords, strides))
        sym = seqs[0][coords[0] - 1]
        if all(s[c - 1] == sym for s, c in zip(seqs, coords)):
            best = table[idx - all_stride] + 1
        else:
            best = 0
        for st in strides:
            best = max(best, table[idx - st])
        table[idx] = best
    return table[total - 1]


# Five words of at most 8 symbols have at most 9^5 dominant points.
ORACLE_GUARD = 10**6


class TestWord:
    def test_parse_and_render(self):
        w = Word.from_digits("10110", 2)
        assert w.symbols == (1, 0, 1, 1, 0)
        assert w.digits() == "10110"
        assert len(w) == 5
        assert w.ones() == 3

    def test_alphabet_validation(self):
        with pytest.raises(OutOfRange):
            Word((0, 3), 3)
        with pytest.raises(OutOfRange):
            Word((0, 1), 1)

    def test_base36_digits(self):
        w = Word.from_digits("0az", 36)
        assert w.symbols == (0, 10, 35)

    def test_interval(self):
        iv = Interval(3, 4)
        assert iv.end == 7


class TestLcs:
    def test_frozen_example(self):
        a = Word.from_digits("10110", 2)
        b = Word.from_digits("01101", 2)
        assert seqkit.lcs(a, b) == 4

    def test_identical_and_disjoint(self):
        w = Word.from_digits("0123", 5)
        assert seqkit.lcs(w, w) == 4
        assert seqkit.lcs(Word.from_digits("000", 2), Word.from_digits("111", 2)) == 0

    def test_empty(self):
        assert seqkit.lcs(Word((), 2), Word.from_digits("0101", 2)) == 0

    def test_against_brute_force_binary(self):
        for a in all_words(2, 5):
            for b in all_words(2, 4):
                assert seqkit._lcs_seq(a, b) == brute_lcs(a, b)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=120)
    def test_against_brute_force_random(self, k, data):
        a = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=7)))
        b = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=7)))
        assert seqkit._lcs_seq(a, b) == brute_lcs(a, b)

    @given(st.sampled_from([2, 3, 256]), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_bit_parallel_matches_rolling_dp(self, k, private, data):
        # With private set, symbol k - 1 can occur in b alone.  Lengths up
        # to 100 take the bit vector past 64 bits (hirate words have 84).
        a = tuple(data.draw(st.lists(
            st.integers(0, k - 2 if private else k - 1), max_size=100)))
        b = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=100)))
        assert seqkit._lcs_seq(a, b) == rolling_lcs(a, b)

    @given(st.lists(st.integers(0, 2), max_size=8),
           st.lists(st.integers(0, 2), max_size=8))
    def test_symmetry_and_bounds(self, a, b):
        a, b = tuple(a), tuple(b)
        v = seqkit._lcs_seq(a, b)
        assert v == seqkit._lcs_seq(b, a)
        assert 0 <= v <= min(len(a), len(b))


class TestSubsequence:
    def test_basic(self):
        assert seqkit.is_subsequence(Word.from_digits("11", 2),
                                     Word.from_digits("1010", 2))
        assert not seqkit.is_subsequence(Word.from_digits("110", 2),
                                         Word.from_digits("1011", 2))
        assert seqkit.is_subsequence(Word((), 2), Word.from_digits("0", 2))

    @given(st.lists(st.integers(0, 1), max_size=6),
           st.lists(st.integers(0, 1), max_size=10))
    def test_matches_lcs_characterization(self, s, t):
        s, t = tuple(s), tuple(t)
        assert seqkit._is_subseq_seq(s, t) == (seqkit._lcs_seq(s, t) == len(s))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
    def test_deleting_symbols_gives_subsequence(self, t, data):
        t = tuple(t)
        keep = data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t)))
        s = tuple(x for x, f in zip(t, keep) if f)
        assert seqkit._is_subseq_seq(s, t)


class TestMultiwayCommon:
    def test_pair_reduces_to_lcs(self):
        a = Word.from_digits("10110", 2)
        b = Word.from_digits("01101", 2)
        for ell in range(6):
            assert seqkit.common_subsequence_at_least([a, b], ell) == (4 >= ell)

    def test_three_way_brute(self):
        words = [Word.from_digits(s, 2) for s in ("110100", "011010", "010110")]
        # brute force: longest string contained in all three
        best = 0
        a = words[0].symbols
        for mask in range(1 << 6):
            sub = tuple(a[i] for i in range(6) if mask >> i & 1)
            if all(seqkit._is_subseq_seq(sub, w.symbols) for w in words):
                best = max(best, len(sub))
        for ell in range(7):
            assert seqkit.common_subsequence_at_least(words, ell) == (best >= ell)

    def test_trivial_cases(self):
        w = Word.from_digits("101", 2)
        assert seqkit.common_subsequence_at_least([w], 3)
        assert seqkit.common_subsequence_at_least([w, w], 0)
        assert not seqkit.common_subsequence_at_least([w, w], 4)

    def test_guard(self):
        # Word r is (0^r 1^r)* cut to 60 symbols: the search generates
        # 1741 dominant points, and the full table would hold 61^5 cells.
        words = [Word(tuple(j // r % 2 for j in range(60)), 2)
                 for r in range(1, 6)]
        with pytest.raises(GuardExceeded):
            seqkit.common_subsequence_at_least(words, 2, guard=1000)
        assert seqkit.common_subsequence_at_least(words, 2)

    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    @settings(max_examples=150, deadline=None)  # a 9^5 table takes ~0.15 s
    def test_multi_lcs_matches_table_dp(self, n, k, data):
        seqs = [tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=8)))
                for _ in range(n)]
        assert seqkit._multi_lcs(seqs, ORACLE_GUARD) == table_multi_lcs(seqs)

    def test_multi_lcs_agrees_on_3000_seeded_instances(self):
        rng = random.Random(20141124)
        for _ in range(3000):
            k = rng.randint(2, 4)
            seqs = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 8)))
                    for _ in range(rng.randint(2, 5))]
            assert (seqkit._multi_lcs(seqs, ORACLE_GUARD)
                    == table_multi_lcs(seqs)), seqs

    @given(st.data())
    @settings(max_examples=60)
    def test_monotone_in_ell(self, data):
        words = [Word(tuple(data.draw(
            st.lists(st.integers(0, 1), min_size=1, max_size=6))), 2)
            for _ in range(3)]
        results = [seqkit.common_subsequence_at_least(words, ell)
                   for ell in range(8)]
        # once False, stays False
        assert all(a or not b for a, b in zip(results, results[1:]))


class TestZeroRuns:
    def test_finds_maximal_runs(self):
        w = Word.from_digits("0011000101", 2)
        assert seqkit.runs_of_zero(w, 1) == [Interval(0, 2), Interval(4, 3),
                                             Interval(8, 1)]
        assert seqkit.runs_of_zero(w, 2) == [Interval(0, 2), Interval(4, 3)]
        assert seqkit.runs_of_zero(w, 4) == []

    def test_all_zero(self):
        assert seqkit.runs_of_zero(Word.from_digits("0000", 2), 2) == [Interval(0, 4)]

    def test_binary_only(self):
        with pytest.raises(NotBinary):
            seqkit.runs_of_zero(Word.from_digits("012", 3), 1)


class TestDensity:
    def test_window_counting(self):
        # beta = 1/4, m = 16: window 4, need ceil(4/10) = 1
        beta = Fraction(1, 4)
        assert seqkit.is_beta_dense(Word.from_digits("1001100110011001", 2), beta)
        assert not seqkit.is_beta_dense(Word.from_digits("1000011001100111", 2), beta)

    def test_short_word_uses_whole(self):
        assert seqkit.is_beta_dense(Word.from_digits("10", 2), Fraction(3, 4))

    def test_beta_m_below_one(self):
        with pytest.raises(OutOfRange):
            seqkit.is_beta_dense(Word.from_digits("1111", 2), Fraction(1, 8))

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=12))
    def test_all_ones_always_dense_all_zeros_never(self, bits):
        m = len(bits)
        beta = Fraction(1, 2)
        assert seqkit.is_beta_dense(Word((1,) * m, 2), beta)
        assert not seqkit.is_beta_dense(Word((0,) * m, 2), beta)


class TestEntropy:
    def test_endpoints_and_symmetry(self):
        assert seqkit.entropy(Fraction(0)) == 0.0
        assert seqkit.entropy(Fraction(1)) == 0.0
        assert seqkit.entropy(Fraction(1, 2)) == 1.0
        assert math.isclose(seqkit.entropy(Fraction(1, 4)),
                            seqkit.entropy(Fraction(3, 4)))

    def test_known_value(self):
        # h(1/4) = 2 - (3/4) log2 3
        assert math.isclose(seqkit.entropy(Fraction(1, 4)),
                            2 - 0.75 * math.log2(3))


def brute_supersequence_count(s, m, k):
    return sum(1 for t in all_words(k, m) if seqkit._is_subseq_seq(s, t))


class TestSupersequenceCounts:
    def test_frozen_example(self):
        assert seqkit.count_supersequences(Word.from_digits("0", 3), 2, 3) == 5

    def test_exact_against_enumeration(self):
        for k in (2, 3):
            for m in range(1, 7):
                for ell in range(0, m + 1):
                    for s in itertools.product(range(k), repeat=ell):
                        w = Word(s, k)
                        assert (seqkit.count_supersequences(w, m, k)
                                == brute_supersequence_count(s, m, k)), (s, m, k)

    def test_empty_pattern(self):
        assert seqkit.count_supersequences(Word((), 2), 4, 2) == 16

    def test_equal_length_patterns_count_equally(self):
        # the count depends on the pattern only through its length
        a = seqkit.count_supersequences(Word.from_digits("01", 3), 4, 3)
        b = seqkit.count_supersequences(Word.from_digits("22", 3), 4, 3)
        assert a == b

    def test_pattern_longer_than_word(self):
        with pytest.raises(LengthMismatch):
            seqkit.count_supersequences(Word.from_digits("010", 2), 2, 2)

    def test_general_bound_dominates(self):
        for k in (2, 3, 4):
            for m in range(1, 8):
                for ell in range(0, m + 1):
                    s = Word(tuple(i % k for i in range(ell)), k)
                    exact = seqkit.count_supersequences(s, m, k)
                    assert exact <= seqkit.count_bound_general(ell, m, k)

    def test_binary_bound_dominates_above_half(self):
        # The (m - ell) * C(m, ell) estimate genuinely fails on the two
        # diagonals ell in {m-1, m}: a single deletion leaves m + 1
        # supersequences against a bound of m, and ell = m gives 1 vs 0.
        # It holds on the rest of the ell > m/2 range.
        for m in range(2, 11):
            for ell in range(m // 2 + 1, m - 1):
                bound = seqkit.count_bound_binary(ell, m)
                for s in itertools.product(range(2), repeat=ell):
                    exact = seqkit.count_supersequences(Word(s, 2), m, 2)
                    assert exact <= bound, (s, m)

    def test_binary_bound_fails_on_final_diagonals(self):
        for m in range(3, 11):
            one_del = Word((0,) * (m - 1), 2)
            assert seqkit.count_supersequences(one_del, m, 2) == m + 1
            assert seqkit.count_bound_binary(m - 1, m) == m
            assert seqkit.count_supersequences(Word((0,) * m, 2), m, 2) == 1
            assert seqkit.count_bound_binary(m, m) == 0

    def test_binary_bound_requires_majority_length(self):
        with pytest.raises(OutOfRange):
            seqkit.count_bound_binary(2, 4)

    def test_frozen_bound_values(self):
        assert seqkit.count_bound_binary(3, 5) == 20
        assert seqkit.count_bound_general(3, 5, 2) == 40
        assert seqkit.count_bound_general(2, 4, 3) == 54

    @given(st.integers(2, 3), st.integers(1, 6), st.data())
    @settings(max_examples=80)
    def test_random_patterns_match_enumeration(self, k, m, data):
        ell = data.draw(st.integers(0, m))
        s = tuple(data.draw(st.integers(0, k - 1)) for _ in range(ell))
        assert (seqkit.count_supersequences(Word(s, k), m, k)
                == brute_supersequence_count(s, m, k))
