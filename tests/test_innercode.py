"""Greedy codebook construction: frozen small traces, post-hoc invariant
re-verification, decode round-trips, and persistence."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from delcodes import innercode, seqkit
from delcodes.errors import (
    Ambiguous,
    IndexOutOfRange,
    InvalidOverride,
    NoMatch,
    NotBinary,
    OutOfRange,
    TargetUnreachable,
)
from delcodes.innercode import (
    CandidatePolicy,
    Codebook,
    CodebookKind,
    check_codebook,
    count_dense_words,
    greedy_dense,
    greedy_listdec,
    greedy_unique,
    inner_decode_list,
    inner_decode_unique,
    inner_encode,
    load_codebook,
    rate_report,
    save_codebook,
)
from delcodes.seqkit import Word

F = Fraction


def digits(cb):
    return [w.digits() for w in cb.codewords]


class TestGreedyUnique:
    def test_lex_trace_m3(self):
        with pytest.raises(TargetUnreachable) as ei:
            greedy_unique(2, 3, F(1, 3), target_size=16)
        assert ei.value.achieved_size == 2
        assert digits(ei.value.codebook) == ["000", "011"]

    def test_delta_one_admits_single_codeword(self):
        with pytest.raises(TargetUnreachable) as ei:
            greedy_unique(2, 3, F(1), target_size=2)
        assert ei.value.achieved_size == 1
        assert digits(ei.value.codebook) == ["000"]

    def test_target_one_returns_first_candidate(self):
        cb = greedy_unique(3, 4, F(1, 2), target_size=1)
        assert digits(cb) == ["0000"]

    def test_exhaustion_without_target(self):
        cb = greedy_unique(2, 3, F(1, 3), target_size=None)
        assert digits(cb) == ["000", "011"]

    def test_separation_threshold(self):
        cb = greedy_unique(2, 8, F(1, 4), target_size=None)
        assert cb.separation_threshold == 6
        assert check_codebook(cb)["ok"]

    def test_seeded_random_is_deterministic(self):
        a = greedy_unique(4, 6, F(1, 2), target_size=4,
                          policy=CandidatePolicy.SEEDED_RANDOM, seed=7)
        b = greedy_unique(4, 6, F(1, 2), target_size=4,
                          policy=CandidatePolicy.SEEDED_RANDOM, seed=7)
        c = greedy_unique(4, 6, F(1, 2), target_size=4,
                          policy=CandidatePolicy.SEEDED_RANDOM, seed=8)
        assert a.codewords == b.codewords
        assert a.codewords != c.codewords

    def test_parameter_validation(self):
        with pytest.raises(OutOfRange):
            greedy_unique(1, 3, F(1, 2))
        with pytest.raises(OutOfRange):
            greedy_unique(2, 0, F(1, 2))
        with pytest.raises(OutOfRange):
            greedy_unique(2, 3, F(0))
        with pytest.raises(OutOfRange):
            greedy_unique(2, 3, F(3, 2))
        with pytest.raises(OutOfRange):
            greedy_unique(2, 3, F(1, 2), target_size=0)

    @pytest.mark.parametrize("k,m,delta", [
        (2, 8, F(1, 4)), (2, 8, F(1, 2)), (3, 6, F(1, 3)), (4, 5, F(1, 2)),
    ])
    def test_lex_greedy_is_maximal(self, k, m, delta):
        cb = greedy_unique(k, m, delta, target_size=None)
        ell = cb.separation_threshold
        chosen = set(w.symbols for w in cb.codewords)
        for cand in itertools.product(range(k), repeat=m):
            if cand in chosen:
                continue
            assert any(seqkit._lcs_seq(cand, w.symbols) >= ell
                       for w in cb.codewords), cand


class TestGreedyDense:
    def test_all_invariants_on_small_trace(self):
        cb = greedy_dense(4, F(1, 4), F(1, 2), target_size=None)
        assert len(cb) >= 1
        rep = check_codebook(cb)
        assert rep["ok"], rep

    def test_beta_one_whole_word_window(self):
        cb = greedy_dense(2, F(1, 2), F(1), target_size=1)
        assert digits(cb) == ["11"]

    def test_unreachable_target_reports_achieved(self):
        with pytest.raises(TargetUnreachable) as ei:
            greedy_dense(3, F(1, 3), F(9, 10), target_size=50)
        assert ei.value.achieved_size == 1
        assert digits(ei.value.codebook) == ["101"]

    def test_candidates_filtered_before_lcs(self):
        # dense stream over m=6: all codewords start/end with 1 and are dense
        cb = greedy_dense(6, F(1, 2), F(1, 3), target_size=None)
        for w in cb.codewords:
            assert w.symbols[0] == 1 and w.symbols[-1] == 1
            assert seqkit.is_beta_dense(w, F(1, 3))

    def test_random_policy_wide_gap_layout(self):
        cb = greedy_dense(84, F(5, 84), F(1, 48), target_size=8,
                          policy=CandidatePolicy.SEEDED_RANDOM, seed=3,
                          zeros=14, min_gap=4)
        assert len(cb) == 8
        assert check_codebook(cb)["ok"]
        for w in cb.codewords:
            digits = w.digits()
            assert digits[0] == "1" and digits[-1] == "1"
            assert digits.count("0") == 14
            assert "00" not in digits
            runs = [len(r) for r in digits.split("0")]
            assert all(r >= 4 for r in runs[1:-1])
        again = greedy_dense(84, F(5, 84), F(1, 48), target_size=8,
                             policy=CandidatePolicy.SEEDED_RANDOM, seed=3,
                             zeros=14, min_gap=4)
        assert cb.codewords == again.codewords

    def test_binary_only(self):
        with pytest.raises(OutOfRange):
            greedy_dense(4, F(1, 4), F(2))


class TestGreedyListdec:
    def test_pair_trace(self):
        with pytest.raises(TargetUnreachable) as ei:
            greedy_listdec(2, F(1, 2), 2, target_size=4)
        assert digits(ei.value.codebook) == ["00", "11"]

    def test_l3_trace_rejects_shared_triple(self):
        with pytest.raises(TargetUnreachable) as ei:
            greedy_listdec(2, F(1, 2), 3, target_size=4)
        cb = ei.value.codebook
        assert digits(cb) == ["00", "01", "11"]
        # no 3 codewords share a length-1 subsequence
        assert check_codebook(cb)["ok"]

    def test_target_one(self):
        cb = greedy_listdec(4, F(1, 4), 2, target_size=1)
        assert len(cb) == 1

    @pytest.mark.parametrize("m,delta,lsz", [
        (8, F(1, 4), 2), (8, F(1, 2), 3), (10, F(1, 4), 3), (12, F(1, 2), 4),
    ])
    def test_exhaustive_soundness(self, m, delta, lsz):
        cb = greedy_listdec(m, delta, lsz, target_size=None,
                            policy=CandidatePolicy.SEEDED_RANDOM, seed=1,
                            attempt_cap=3000)
        rep = check_codebook(cb)
        assert rep["mode"] == "exhaustive"
        assert rep["ok"], rep
        assert rep["max_list_size"] <= lsz - 1

    def test_larger_l_never_smaller_book(self):
        # relaxing the constraint (larger L) can only admit more codewords
        small = greedy_listdec(8, F(1, 2), 2, target_size=None,
                               policy=CandidatePolicy.SEEDED_RANDOM, seed=5,
                               attempt_cap=2000)
        large = greedy_listdec(8, F(1, 2), 4, target_size=None,
                               policy=CandidatePolicy.SEEDED_RANDOM, seed=5,
                               attempt_cap=2000)
        assert len(large) >= len(small)


class TestInnerCoding:
    @pytest.fixture()
    def book(self):
        return greedy_unique(2, 3, F(1, 3), target_size=None)

    def test_encode(self, book):
        assert inner_encode(book, 0).digits() == "000"
        assert inner_encode(book, 1).digits() == "011"
        with pytest.raises(IndexOutOfRange):
            inner_encode(book, 2)

    def test_decode_unique(self, book):
        assert inner_decode_unique(book, Word.from_digits("01", 2)) == 1
        assert inner_decode_unique(book, Word.from_digits("00", 2)) == 0
        with pytest.raises(Ambiguous):
            inner_decode_unique(book, Word.from_digits("0", 2))
        with pytest.raises(NoMatch):
            inner_decode_unique(book, Word.from_digits("110", 2))

    def test_decode_list(self):
        with pytest.raises(TargetUnreachable) as ei:
            greedy_listdec(2, F(1, 2), 2, target_size=4)
        cb = ei.value.codebook  # {00, 11}
        assert inner_decode_list(cb, Word.from_digits("0", 2)) == [0]
        assert inner_decode_list(cb, Word.from_digits("01", 2)) == []
        assert inner_decode_list(cb, Word((), 2)) == [0, 1]

    @pytest.mark.parametrize("k,m,delta", [(2, 8, F(1, 4)), (2, 10, F(1, 2)),
                                           (3, 7, F(2, 7))])
    def test_roundtrip_under_all_deletion_patterns(self, k, m, delta):
        cb = greedy_unique(k, m, delta, target_size=None,
                           policy=CandidatePolicy.SEEDED_RANDOM, seed=2,
                           attempt_cap=4000)
        budget = math.floor(delta * m)
        for idx, w in enumerate(cb.codewords):
            for r in range(budget + 1):
                for drop in itertools.combinations(range(m), r):
                    kept = tuple(s for i, s in enumerate(w.symbols)
                                 if i not in drop)
                    assert inner_decode_unique(cb, Word(kept, k)) == idx


class TestRateReport:
    def test_rate_of_two_word_book(self):
        cb = greedy_unique(2, 3, F(1, 3), target_size=None)
        rep = rate_report(cb)
        assert math.isclose(rep.rate, 1 / 3)

    def test_single_codeword_rate_zero(self):
        cb = greedy_unique(2, 3, F(1), target_size=None)
        assert rate_report(cb).rate == 0.0

    def test_full_lex_beats_counting_bound(self):
        cb = greedy_unique(2, 8, F(1, 4), target_size=None)
        rep = rate_report(cb)
        assert rep.satisfied
        assert rep.achieved_size >= rep.size_bound

    def test_dense_report_uses_dense_pool(self):
        cb = greedy_dense(8, F(1, 4), F(1, 4), target_size=None)
        rep = rate_report(cb)
        assert rep.satisfied

    def test_listdec_report(self):
        cb = greedy_listdec(8, F(1, 4), 4, target_size=None,
                            policy=CandidatePolicy.SEEDED_RANDOM, seed=1,
                            attempt_cap=2000)
        rep = rate_report(cb)
        expected = 1 - seqkit.entropy(F(1, 4)) - 3 / 4
        assert math.isclose(rep.paper_lower_bound, max(expected, 0.0))


class TestDenseCounting:
    @staticmethod
    def brute(m, beta):
        n = 0
        for bits in itertools.product((0, 1), repeat=m):
            w = Word(bits, 2)
            if bits[0] == 1 and bits[-1] == 1 and seqkit.is_beta_dense(w, beta):
                n += 1
        return n

    @pytest.mark.parametrize("m,beta", [
        (4, F(1, 2)), (6, F(1, 3)), (8, F(1, 4)), (8, F(1, 2)), (10, F(1, 5)),
        (10, F(9, 10)), (5, F(1)), (7, F(2, 7)), (12, F(1, 6)), (12, F(1, 12)),
    ])
    def test_matches_enumeration(self, m, beta):
        assert count_dense_words(m, beta) == self.brute(m, beta)

    def test_tiny_edges(self):
        assert count_dense_words(1, F(1)) == 1
        assert count_dense_words(2, F(1)) == 1


class TestPersistence:
    def test_roundtrip_exact(self, tmp_path):
        cb = greedy_dense(8, F(1, 4), F(1, 4), target_size=None)
        path = tmp_path / "book.txt"
        save_codebook(cb, path)
        assert load_codebook(path) == cb

    def test_roundtrip_listdec(self, tmp_path):
        cb = greedy_listdec(8, F(1, 2), 3, target_size=None,
                            policy=CandidatePolicy.SEEDED_RANDOM, seed=9,
                            attempt_cap=1000)
        path = tmp_path / "book.txt"
        save_codebook(cb, path)
        assert load_codebook(path) == cb

    def test_roundtrip_wide_alphabet(self, tmp_path):
        cb = greedy_unique(256, 4, F(1, 2), target_size=3,
                           policy=CandidatePolicy.SEEDED_RANDOM, seed=0)
        path = tmp_path / "book.txt"
        save_codebook(cb, path)
        assert load_codebook(path) == cb
        text = path.read_text()
        assert "," in text.splitlines()[1]

    def test_header_shape(self, tmp_path):
        cb = greedy_unique(2, 3, F(1, 3), target_size=None)
        path = tmp_path / "book.txt"
        save_codebook(cb, path)
        head = path.read_text().splitlines()[0].split()
        assert head == ["UNIQUE", "2", "3", "1", "3", "0", "1", "0", "0",
                        "LEX", "2"]


class TestCheckCodebook:
    def test_detects_separation_violation(self):
        cb = greedy_unique(2, 6, F(1, 2), target_size=None)
        w = cb.codewords[0]
        broken = dataclasses.replace(
            cb, codewords=cb.codewords + (Word(w.symbols[:-1] + (1 - w.symbols[-1],), 2),))
        rep = check_codebook(broken)
        assert not rep["ok"]

    def test_detects_duplicates(self):
        cb = greedy_unique(2, 6, F(1, 2), target_size=None)
        broken = dataclasses.replace(cb, codewords=cb.codewords + cb.codewords[:1])
        assert not check_codebook(broken)["ok"]


class TestSpecCodebookCache:
    """A scheme spec loads its cached inner book only if that is the book
    it would build; an edited cache is rejected, not used."""

    def book(self, path, target=12, **overrides):
        return innercode.spec_codebook(
            CodebookKind.UNIQUE, 4, 6, F(1, 2), target=target,
            overrides={"seed": 5, **overrides}, require_full=False,
            cache_path=path)

    def edited(self, tmp_path, edit):
        path = tmp_path / "book.txt"
        built = self.book(path)
        assert self.book(path).codewords == built.codewords
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_other_seed_is_rejected(self, tmp_path):
        def reseed(lines):
            head = lines[0].split()
            head[8] = "999"
            lines[0] = " ".join(head)

        with pytest.raises(InvalidOverride, match="seed 999"):
            self.book(self.edited(tmp_path, reseed))

    def test_other_policy_is_rejected(self, tmp_path):
        def repolicy(lines):
            lines[0] = lines[0].replace(" LEX ", " SEEDED_RANDOM ")

        with pytest.raises(InvalidOverride, match="policy SEEDED_RANDOM"):
            self.book(self.edited(tmp_path, repolicy))

    def test_book_failing_its_check_is_rejected(self, tmp_path):
        def duplicate(lines):
            lines[2] = lines[1]

        with pytest.raises(InvalidOverride, match="codebook check"):
            self.book(self.edited(tmp_path, duplicate))

    def test_book_larger_than_its_target_is_rejected(self, tmp_path):
        # A spec asking for fewer pairs must not decode against the extra
        # codewords of a book cached for a larger one.
        path = tmp_path / "book.txt"
        assert len(self.book(path)) == 6
        with pytest.raises(InvalidOverride, match="more than the target 3"):
            self.book(path, target=3)

    def test_book_cut_short_by_a_smaller_cap_is_rejected(self, tmp_path):
        # The cache is not keyed by attempt_cap: a book cut short by a cap
        # of 3 must not stand in for the default cap's longer build.
        path = tmp_path / "book.txt"
        short = self.book(path, policy="SEEDED_RANDOM", attempt_cap=3)
        assert len(short) == 1
        again = self.book(path, policy="SEEDED_RANDOM", attempt_cap=3)
        assert again.codewords == short.codewords
        with pytest.raises(InvalidOverride, match="not the book the spec"):
            self.book(path, policy="SEEDED_RANDOM")
