"""Sequence toolkit checks: LCS and subsequence against brute force, the
fast LCS kernels against plain dynamic programs, the bit-parallel
subsequence kernel against the two-pointer scan, the supersequence count
against direct enumeration, and the counting bounds."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes import seqkit
from delcodes.errors import LengthMismatch, OutOfRange
from delcodes.seqkit import Word
from oracles import (
    brute_lcs,
    rolling_lcs,
    shares_subsequence,
    subseq_oracle,
    table_multi_lcs,
)


def all_words(k, m):
    return itertools.product(range(k), repeat=m)


class TestWord:
    def test_parse_and_render(self):
        w = Word.from_digits("10110", 2)
        assert w.symbols == (1, 0, 1, 1, 0)
        assert len(w) == 5

    def test_alphabet_validation(self):
        with pytest.raises(OutOfRange):
            Word((0, 3), 3)
        with pytest.raises(OutOfRange):
            Word((0, 1), 1)

    def test_base36_digits(self):
        w = Word.from_digits("0az", 36)
        assert w.symbols == (0, 10, 35)


def kernel_lcs(a, b):
    """The LCS of a with b by the kernel, one pass of a over the one-word
    book of b."""
    book = seqkit._LcsBook([b])
    return book.lcs(seqkit._lcs_seq(a, book))[0]


def lcs_both_ways(a, b):
    """The LCS of two Words by the bit-parallel kernel, which must agree
    with the brute force and the dynamic program."""
    a, b = a.symbols, b.symbols
    got = kernel_lcs(a, b)
    assert got == brute_lcs(a, b) == rolling_lcs(a, b)
    return got


def kernel_subseq(s, t):
    """Whether the kernel, on the one-word layout of t, finds s in t."""
    return seqkit._is_subseq_seq(s, *seqkit._subseq_layout([t])) != 0


class TestLcs:
    def test_frozen_example(self):
        a = Word.from_digits("10110", 2)
        b = Word.from_digits("01101", 2)
        assert lcs_both_ways(a, b) == 4

    def test_identical_and_disjoint(self):
        w = Word.from_digits("0123", 5)
        assert lcs_both_ways(w, w) == 4
        assert lcs_both_ways(Word.from_digits("000", 2),
                             Word.from_digits("111", 2)) == 0

    def test_empty(self):
        assert lcs_both_ways(Word((), 2), Word.from_digits("0101", 2)) == 0

    def test_against_brute_force_binary(self):
        for a in all_words(2, 5):
            for b in all_words(2, 4):
                assert kernel_lcs(a, b) == brute_lcs(a, b)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=120)
    def test_against_brute_force_random(self, k, data):
        a = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=7)))
        b = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=7)))
        assert kernel_lcs(a, b) == brute_lcs(a, b)

    @given(st.sampled_from([2, 3, 256]), st.booleans(), st.data())
    @settings(max_examples=200)
    def test_bit_parallel_matches_rolling_dp(self, k, private, data):
        # With private set, symbol k - 1 can occur in b alone.  Lengths up
        # to 100 take the bit vector past 64 bits (hirate words have 84).
        a = tuple(data.draw(st.lists(
            st.integers(0, k - 2 if private else k - 1), max_size=100)))
        b = tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=100)))
        assert kernel_lcs(a, b) == rolling_lcs(a, b)

    @given(st.lists(st.integers(0, 2), max_size=8),
           st.lists(st.integers(0, 2), max_size=8))
    def test_symmetry_and_bounds(self, a, b):
        a, b = tuple(a), tuple(b)
        v = kernel_lcs(a, b)
        assert v == kernel_lcs(b, a)
        assert 0 <= v <= min(len(a), len(b))


class TestSubsequence:
    def test_basic(self):
        for s, t, expected in [(Word.from_digits("11", 2),
                                Word.from_digits("1010", 2), True),
                               (Word.from_digits("110", 2),
                                Word.from_digits("1011", 2), False),
                               (Word((), 2), Word.from_digits("0", 2), True)]:
            assert (kernel_subseq(s.symbols, t.symbols)
                    == subseq_oracle(s.symbols, t.symbols) == expected)

    @given(st.lists(st.integers(0, 1), max_size=6),
           st.lists(st.integers(0, 1), max_size=10))
    def test_matches_lcs_characterization(self, s, t):
        s, t = tuple(s), tuple(t)
        assert subseq_oracle(s, t) == (kernel_lcs(s, t) == len(s))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
    def test_deleting_symbols_gives_subsequence(self, t, data):
        t = tuple(t)
        keep = data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t)))
        s = tuple(x for x, f in zip(t, keep) if f)
        assert subseq_oracle(s, t)


def kernel_contains(text, words):
    """Indices of the words that seqkit._is_subseq_seq finds containing
    text, read off the segments of the layout of words.  Each live segment
    holds one bit, and no bit lies past the last segment."""
    live = seqkit._is_subseq_seq(text, *seqkit._subseq_layout(words))
    found = []
    for i, w in enumerate(words):
        segment = live & ((2 << len(w)) - 1)
        assert segment.bit_count() <= 1
        if segment:
            found.append(i)
        live >>= len(w) + 1
    assert live == 0
    return found


def books(alphabet, max_words=6, max_len=10):
    """Books of a few words over alphabet, and a text that is either a
    subsequence of one of them or drawn from their symbols plus one or two
    more from alphabet, which may be in no word."""
    @st.composite
    def draw(draw):
        words = draw(st.lists(st.lists(alphabet, max_size=max_len).map(tuple),
                              min_size=1, max_size=max_words))
        w = draw(st.sampled_from(words))
        if w and draw(st.booleans()):
            keep = draw(st.lists(st.booleans(), min_size=len(w),
                                 max_size=len(w)))
            text = tuple(x for x, f in zip(w, keep) if f)
        else:
            pool = sorted({x for word in words for x in word}) + draw(
                st.lists(alphabet, min_size=1, max_size=2))
            text = tuple(draw(st.lists(st.sampled_from(pool),
                                       max_size=max_len + 2)))
        return words, text
    return draw()


class TestBookSubseq:
    """seqkit._is_subseq_seq, one pass over a whole book, against the
    two-pointer oracle."""

    def test_every_short_binary_pair(self):
        texts = [s for n in range(10) for s in all_words(2, n)]
        for m in range(9):
            for t in all_words(2, m):
                layout = seqkit._subseq_layout([t])
                for s in texts:
                    assert ((seqkit._is_subseq_seq(s, *layout) != 0)
                            == subseq_oracle(s, t)), (s, t)

    def test_every_short_binary_book(self):
        # One book holding every binary word of length 0 to 8.
        book = [t for m in range(9) for t in all_words(2, m)]
        for n in range(10):
            for s in all_words(2, n):
                assert kernel_contains(s, book) == [
                    i for i, t in enumerate(book) if subseq_oracle(s, t)], s

    def test_every_byte_stands_for_itself(self):
        for c in range(256):
            layout = seqkit._subseq_layout([(c,)])
            assert seqkit._is_subseq_seq((c,), *layout)
            assert seqkit._is_subseq_seq((), *layout)
            assert not seqkit._is_subseq_seq((c, c), *layout)
            assert not seqkit._is_subseq_seq((c ^ 1,), *layout)

    def test_symbol_no_word_holds_matches_nothing(self):
        book = [(0, 1, 2) * 3, (2, 1, 0), (0,) * 8]
        for text in [(3,), (0, 3), (3, 0, 1), (2, 1, 0, 7)]:
            assert kernel_contains(text, book) == []

    @given(books(st.integers(0, 255)))
    @settings(max_examples=300)
    def test_matches_oracle_over_bytes(self, case):
        words, text = case
        assert kernel_contains(text, words) == [
            i for i, w in enumerate(words) if subseq_oracle(text, w)]

    @given(books(st.sampled_from((0, 7, 0x110000, 2**21 - 1)), max_len=8))
    def test_is_subsequence_past_the_character_range(self, case):
        words, text = case
        assert kernel_contains(text, words) == [
            i for i, w in enumerate(words) if subseq_oracle(text, w)]
        for w in words:
            assert kernel_subseq(text, w) == subseq_oracle(text, w)


class TestBookLcs:
    """seqkit._LcsBook, the LCS of one text with a whole book in one pass,
    against the rolling-row dynamic program, and whether the text holds
    some word of it, against subseq_oracle, after every append."""

    @pytest.mark.parametrize("alphabet", [
        (0, 1), tuple(range(3)), tuple(range(256)),
        (0, 7, 0x110000, 2**21 - 1),
    ], ids=["binary", "k3", "k256", "past-character-range"])
    def test_matches_rolling_dp_after_every_append(self, alphabet):
        rng = random.Random(20041104)
        lengths = set()
        for _ in range(60):
            book, words = seqkit._LcsBook(), []
            assert book.lcs(seqkit._lcs_seq((alphabet[0],), book)) == []
            assert not book.holds((alphabet[0],))
            for _ in range(rng.randint(1, 6)):
                word = tuple(rng.choice(alphabet)
                             for _ in range(rng.randint(0, 10)))
                book.append(word)
                words.append(word)
                lengths.add(len(word))
                # Texts from empty to twice the longest word, and the
                # words themselves.
                texts = [tuple(rng.choice(alphabet) for _ in range(n))
                         for n in (0, 1, rng.randint(2, 9), 20)] + words
                for text in texts:
                    assert book.lcs(seqkit._lcs_seq(text, book)) == [
                        rolling_lcs(text, w) for w in words], (words, text)
                    assert book.holds(text) == any(
                        subseq_oracle(w, text) for w in words), (words, text)
        assert lengths == set(range(11))


class TestReach:
    """seqkit._LcsBook.reach, the guard bits of the words whose LCS with a
    text reaches t, peeled from the state of one pass, against the full
    per-word readout _LcsBook.lcs and the rolling-row dynamic program."""

    def test_matches_full_readout_on_seeded_corpus(self):
        # Books of 0, 1 or 2-8 words over k in {2, 3, 5}, of one length
        # (0 to 12) or mixed lengths, the empty word among them; every t
        # from -1 to two past the longest word.  The threshold test peels
        # the state's zeros on mixed books, and on books of one length
        # whichever side takes fewer rounds; both must occur.
        rng = random.Random(20261035)
        sizes, kinds, sides = set(), set(), set()
        for _ in range(400):
            k = rng.choice((2, 3, 5))
            n = rng.choice((0, 1, rng.randint(2, 8)))
            one = rng.random() < 0.5
            size = rng.randint(0, 12)
            lengths = [size if one else rng.randint(0, 12) for _ in range(n)]
            words = [tuple(rng.randrange(k) for _ in range(x))
                     for x in lengths]
            book = seqkit._LcsBook(words)
            longest = max(lengths, default=0)
            sizes.add(min(n, 2))
            kinds.add((len(set(lengths)) > 1, 0 in lengths))
            texts = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 16)))
                     for _ in range(3)] + words[:1]
            for text in texts:
                state = seqkit._lcs_seq(text, book)
                row = book.lcs(state)
                assert row == [rolling_lcs(text, w) for w in words]
                for t in range(-1, longest + 3):
                    assert book.reach(state, t) == sum(
                        1 << hi for (_, hi), v in zip(book.spans, row)
                        if v >= t), (words, text, t)
                    if n and 1 <= t <= longest:
                        sides.add(len(set(lengths)) == 1
                                  and longest - t < t - 1)
        assert sizes == {0, 1, 2} and sides == {True, False}
        assert kinds == {(False, False), (False, True), (True, False),
                         (True, True)}


def checked(words, cand, near, ell, need):
    """The words seqkit._multi_lcs returned, after checking each by
    subseq_oracle: ell symbols, in cand and in need - 1 of the near words,
    no word twice."""
    assert len(set(words)) == len(words), (words, cand)
    for word in words:
        assert len(word) == ell and subseq_oracle(word, cand) and (
            sum(subseq_oracle(word, w) for w in near) >= need - 1), (
                word, cand)
    return words


def multi_lcs(seqs, ell, need):
    """seqkit._multi_lcs of seqs[0] against all of seqs[1:], as one book,
    checked."""
    book = seqkit._LcsBook(seqs[1:])
    return checked(seqkit._multi_lcs(seqs[0], book, book.guards, ell, need),
                   seqs[0], seqs[1:], ell, need)


def assert_multi_lcs(seqs, v):
    """The threshold search returns words at t = v and none at t = v + 1,
    so the words' common subsequences are at most v long."""
    assert multi_lcs(seqs, v, len(seqs))
    assert not multi_lcs(seqs, v + 1, len(seqs))


class TestMultiwayCommon:
    def test_pair_reduces_to_lcs(self):
        a, b = (1, 0, 1, 1, 0), (0, 1, 1, 0, 1)
        assert kernel_lcs(a, b) == 4
        assert_multi_lcs([a, b], 4)

    def test_three_way_brute(self):
        words = [Word.from_digits(s, 2).symbols
                 for s in ("110100", "011010", "010110")]
        # brute force: longest string contained in all three
        best = 0
        a = words[0]
        for mask in range(1 << 6):
            sub = tuple(a[i] for i in range(6) if mask >> i & 1)
            if all(subseq_oracle(sub, w) for w in words):
                best = max(best, len(sub))
        assert_multi_lcs(words, best)

    def test_trivial_cases(self):
        w = (1, 0, 1)
        assert_multi_lcs([w], 3)
        assert_multi_lcs([w, w], 3)
        assert_multi_lcs([w, (), w], 0)
        assert_multi_lcs([w, (0, 0)], 1)

    def test_periodic_words_share_their_least_pairwise_lcs(self):
        # Word r is (0^r 1^r)* cut to 60 symbols.  The five share a common
        # subsequence as long as their least pairwise LCS, 36, and the full
        # table would hold 61^5 cells.
        words = [tuple(j // r % 2 for j in range(60)) for r in range(1, 6)]
        pairwise = min(kernel_lcs(a, b)
                       for a, b in itertools.combinations(words, 2))
        assert pairwise == 36
        assert_multi_lcs(words, pairwise)

    def test_long_random_words_share_a_half_length_subsequence(self):
        # Five random 100-bit words share a subsequence of half their
        # length; the full table would hold 101^5 cells.  They share so
        # many that the walk stops at the most words it returns.
        rng = random.Random(0)
        words = [tuple(rng.randrange(2) for _ in range(100))
                 for _ in range(5)]
        assert len(multi_lcs(words, 50, 5)) == seqkit._MOST_SHARED

    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    @settings(max_examples=150, deadline=None)  # a 9^5 table takes ~0.15 s
    def test_multi_lcs_matches_table_dp(self, n, k, data):
        seqs = [tuple(data.draw(st.lists(st.integers(0, k - 1), max_size=8)))
                for _ in range(n)]
        assert_multi_lcs(seqs, table_multi_lcs(seqs))

    def test_threshold_agrees_on_3000_seeded_instances(self):
        # With a threshold t the search returns a word exactly when the
        # words share a common subsequence of length t.
        rng = random.Random(20141124)
        for _ in range(3000):
            k = rng.randint(2, 4)
            seqs = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 8)))
                    for _ in range(rng.randint(2, 5))]
            full = table_multi_lcs(seqs)
            for t in range(max(map(len, seqs)) + 2):
                got = multi_lcs(seqs, t, len(seqs))
                assert bool(got) == (full >= t), (seqs, t)

    def test_shared_by_need_words_matches_brute_force(self):
        # With need below the word count the search asks whether some
        # t-subsequence of the first word lies in need of the words.  The
        # walk goes on past the first such word and returns every one it
        # spells out, each checked, so many results hold more than one.
        rng = random.Random(20261020)
        several = 0
        for _ in range(3000):
            k = rng.randint(2, 4)
            seqs = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 8)))
                    for _ in range(rng.randint(1, 5))]
            for t in range(max(map(len, seqs)) + 2):
                for need in range(1, len(seqs) + 1):
                    got = multi_lcs(seqs, t, need)
                    assert bool(got) == shares_subsequence(
                        seqs, t, need), (seqs, t, need)
                    several += len(got) > 1
        assert several >= 10000

    def test_words_outside_near_never_count(self):
        # The build hands the walk its whole book and the guard bits of the
        # near words.  The book also holds words outside near, some of them
        # supersequences of cand that hold every subsequence of it, words
        # of other lengths and an empty word; only the near words count.
        rng = random.Random(20261021)
        masked = 0
        for _ in range(1000):
            k = rng.randint(2, 3)
            cand = tuple(rng.randrange(k) for _ in range(rng.randint(0, 8)))
            words = []
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.3:
                    word = list(cand)
                    for _ in range(rng.randint(0, 3)):
                        word.insert(rng.randint(0, len(word)),
                                    rng.randrange(k))
                else:
                    word = [rng.randrange(k)
                            for _ in range(rng.randint(0, 10))]
                words.append(tuple(word))
            words.insert(rng.randint(0, len(words)), ())
            near = sorted(rng.sample(range(len(words)),
                                     rng.randint(0, len(words))))
            book = seqkit._LcsBook(words)
            bits = sum(1 << book.spans[i][1] for i in near)
            for t in range(len(cand) + 2):
                for need in range(1, len(near) + 2):
                    shared = shares_subsequence(
                        [cand, *(words[i] for i in near)], t, need)
                    got = checked(
                        seqkit._multi_lcs(cand, book, bits, t, need),
                        cand, [words[i] for i in near], t, need)
                    assert bool(got) == shared, (
                        cand, words, near, t, need)
                    masked += not shared and shares_subsequence(
                        [cand, *words], t, need)
        # Many cases would share if the words outside near counted.
        assert masked >= 1000


def beta_dense(word, beta):
    """Whether a binary Word obeys the DENSE word rule for its length."""
    return seqkit.is_dense_word(word.symbols,
                                *seqkit.density_rule(len(word), beta))


class TestDensity:
    def test_window_counting(self):
        # beta = 1/4, m = 16: window 4, need ceil(4/10) = 1
        beta = Fraction(1, 4)
        assert beta_dense(Word.from_digits("1001100110011001", 2), beta)
        assert not beta_dense(Word.from_digits("1000011001100111", 2), beta)
        # Dense windows, but a word must also begin and end with 1.
        assert not beta_dense(Word.from_digits("0001100110011001", 2), beta)
        assert not beta_dense(Word.from_digits("1001100110011000", 2), beta)

    def test_short_word_uses_whole(self):
        # beta = 1, m = 21: the one window is the word, and needs 3 ones.
        assert beta_dense(Word.from_digits("1" + "0" * 9 + "1" + "0" * 9 + "1",
                                           2), Fraction(1))
        assert not beta_dense(Word.from_digits("1" + "0" * 19 + "1", 2),
                              Fraction(1))

    def test_beta_m_below_one(self):
        with pytest.raises(OutOfRange):
            beta_dense(Word.from_digits("1111", 2), Fraction(1, 8))

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=12))
    def test_all_ones_always_dense_all_zeros_never(self, bits):
        m = len(bits)
        beta = Fraction(1, 2)
        assert beta_dense(Word((1,) * m, 2), beta)
        assert not beta_dense(Word((0,) * m, 2), beta)


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


class TestSupersequenceCounts:
    def test_frozen_example(self):
        assert seqkit.count_supersequences(Word.from_digits("0", 3), 2, 3) == 5

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
