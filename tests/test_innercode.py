"""Greedy codebook construction: frozen small traces, post-hoc invariant
re-verification and decode round-trips."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from delcodes import innercode, seqkit
from delcodes.common import Profile
from delcodes.errors import (
    AlphabetMismatch,
    Ambiguous,
    InfeasibleAtDeskScale,
    InvalidOverride,
    NoMatch,
    OutOfRange,
)
from delcodes.innercode import (
    CandidatePolicy,
    Codebook,
    CodebookKind,
    check_codebook,
    count_dense_words,
    greedy_listdec,
    inner_decode_list,
    inner_decode_unique,
    rate_report,
)
from delcodes.highnoise import hn_make_spec
from delcodes.hirate import br_make_spec
from delcodes.listdec import ld_make_spec
from delcodes.presets import PRESETS, make_scheme_spec
from delcodes.seqkit import Word
from oracles import (
    greedy_oracle,
    pairwise_check,
    probe_scan,
    subseq_oracle,
    table_multi_lcs,
    unique_oracle,
)
from pins import BOOKS, book_digest

F = Fraction
LEX = CandidatePolicy.LEX
RANDOM = CandidatePolicy.SEEDED_RANDOM
UNIQUE = CodebookKind.UNIQUE
DENSE = CodebookKind.DENSE
LISTDEC = CodebookKind.LISTDEC


def digits(cb):
    return ["".join(map(str, w.symbols)) for w in cb.codewords]


class TestGreedyUnique:
    def test_lex_trace_m3(self):
        with pytest.raises(InfeasibleAtDeskScale,
                           match=r"reached 2 of 16 codewords after all 2\^3"):
            innercode._build(UNIQUE, 2, 3, F(1, 3), target_size=16)
        assert digits(innercode._build(UNIQUE, 2, 3, F(1, 3))) == ["000", "011"]

    def test_delta_one_admits_single_codeword(self):
        with pytest.raises(InfeasibleAtDeskScale, match="reached 1 of 2"):
            innercode._build(UNIQUE, 2, 3, F(1), target_size=2)
        assert digits(innercode._build(UNIQUE, 2, 3, F(1))) == ["000"]

    def test_target_one_returns_first_candidate(self):
        cb = innercode._build(UNIQUE, 3, 4, F(1, 2), target_size=1)
        assert digits(cb) == ["0000"]

    def test_exhaustion_without_target(self):
        cb = innercode._build(UNIQUE, 2, 3, F(1, 3))
        assert digits(cb) == ["000", "011"]

    def test_separation_threshold(self):
        cb = innercode._build(UNIQUE, 2, 8, F(1, 4))
        assert cb.separation_threshold == 6
        assert check_codebook(cb)["ok"]

    def test_seeded_random_is_deterministic(self):
        a = innercode._build(UNIQUE, 4, 6, F(1, 2), target_size=4,
                             policy=CandidatePolicy.SEEDED_RANDOM, seed=7)
        b = innercode._build(UNIQUE, 4, 6, F(1, 2), target_size=4,
                             policy=CandidatePolicy.SEEDED_RANDOM, seed=7)
        c = innercode._build(UNIQUE, 4, 6, F(1, 2), target_size=4,
                             policy=CandidatePolicy.SEEDED_RANDOM, seed=8)
        assert a.codewords == b.codewords
        assert a.codewords != c.codewords

    def test_parameter_validation(self):
        with pytest.raises(OutOfRange):
            innercode._build(UNIQUE, 1, 3, F(1, 2))
        with pytest.raises(OutOfRange):
            innercode._build(UNIQUE, 2, 0, F(1, 2))
        with pytest.raises(OutOfRange):
            innercode._build(UNIQUE, 2, 3, F(0))
        with pytest.raises(OutOfRange):
            innercode._build(UNIQUE, 2, 3, F(3, 2))
        with pytest.raises(OutOfRange):
            innercode._build(UNIQUE, 2, 3, F(1, 2), target_size=0)

    @pytest.mark.parametrize("k,m,delta", [
        (2, 8, F(1, 4)), (2, 8, F(1, 2)), (3, 6, F(1, 3)), (4, 5, F(1, 2)),
    ])
    def test_lex_greedy_is_maximal(self, k, m, delta):
        cb = innercode._build(UNIQUE, k, m, delta)
        ell = cb.separation_threshold
        chosen = set(w.symbols for w in cb.codewords)
        book = seqkit._LcsBook(chosen)
        for cand in itertools.product(range(k), repeat=m):
            if cand in chosen:
                continue
            assert max(book.lcs(seqkit._lcs_seq(cand, book))) >= ell, cand


class TestGreedyDense:
    def test_all_invariants_on_small_trace(self):
        cb = innercode._build(DENSE, 2, 4, F(1, 4), beta=F(1, 2))
        assert len(cb) >= 1
        rep = check_codebook(cb)
        assert rep["ok"], rep

    def test_beta_one_whole_word_window(self):
        cb = innercode._build(DENSE, 2, 2, F(1, 2), beta=F(1), target_size=1)
        assert digits(cb) == ["11"]

    def test_unreachable_target_reports_achieved(self):
        with pytest.raises(InfeasibleAtDeskScale, match="reached 1 of 50"):
            innercode._build(DENSE, 2, 3, F(1, 3), beta=F(9, 10),
                             target_size=50)
        cb = innercode._build(DENSE, 2, 3, F(1, 3), beta=F(9, 10))
        assert digits(cb) == ["101"]

    def test_candidates_filtered_before_lcs(self):
        # dense stream over m=6: all codewords start/end with 1 and are dense
        cb = innercode._build(DENSE, 2, 6, F(1, 2), beta=F(1, 3))
        for w in cb.codewords:
            assert w.symbols[0] == 1 and w.symbols[-1] == 1
            assert seqkit.is_dense_word(w.symbols,
                                        *seqkit.density_rule(6, F(1, 3)))

    def test_random_policy_wide_gap_layout(self):
        cb = innercode._build(DENSE, 2, 84, F(5, 84), beta=F(1, 48),
                              target_size=8,
                              policy=CandidatePolicy.SEEDED_RANDOM, seed=3,
                              zeros=14, min_gap=4)
        assert len(cb) == 8
        assert check_codebook(cb)["ok"]
        for w in cb.codewords:
            digits = "".join(map(str, w.symbols))
            assert digits[0] == "1" and digits[-1] == "1"
            assert digits.count("0") == 14
            assert "00" not in digits
            runs = [len(r) for r in digits.split("0")]
            assert all(r >= 4 for r in runs[1:-1])
        again = innercode._build(DENSE, 2, 84, F(5, 84), beta=F(1, 48),
                                 target_size=8,
                                 policy=CandidatePolicy.SEEDED_RANDOM, seed=3,
                                 zeros=14, min_gap=4)
        assert cb.codewords == again.codewords

    @pytest.mark.parametrize("m", [2, 3, 5, 84])
    def test_stream_without_zeros_is_all_ones(self, m):
        # Stars and bars with no bar to place: every candidate is the
        # all-ones word, and none draws from the RNG.
        rng = random.Random(7)
        stream = innercode._random_dense_stream(m, rng, 5, 0, 2)
        assert list(stream) == [(1,) * m] * 5
        assert rng.getstate() == random.Random(7).getstate()

    def test_binary_only(self):
        with pytest.raises(AlphabetMismatch):
            innercode._build(DENSE, 3, 4, F(1, 4), beta=F(1, 2))
        with pytest.raises(OutOfRange):
            innercode._build(DENSE, 2, 4, F(1, 4), beta=F(2))


@pytest.mark.parametrize("kind,k,m,delta,target,policy,seed,extra,reached", [
    (UNIQUE, 2, 8, F(1, 4), None, LEX, 0, {}, False),
    (UNIQUE, 2, 10, F(3, 10), 4, LEX, 0, {}, True),
    (UNIQUE, 3, 6, F(1, 3), None, LEX, 0, {}, False),
    (UNIQUE, 4, 5, F(1, 2), 6, LEX, 0, {}, True),
    (UNIQUE, 256, 2, F(1, 2), 16, LEX, 0, {}, True),
    (UNIQUE, 2, 12, F(1, 4), None, RANDOM, 1, {}, False),
    (UNIQUE, 3, 6, F(1, 3), 60, RANDOM, 4, {}, False),
    (UNIQUE, 4, 8, F(1, 2), 3, RANDOM, 2, {}, True),
    (UNIQUE, 256, 8, F(1, 2), 30, RANDOM, 3, {}, True),
    (DENSE, 2, 8, F(1, 4), None, LEX, 0, {"beta": F(1, 2)}, False),
    (DENSE, 2, 8, F(1, 4), 2, LEX, 0, {"beta": F(1, 2)}, True),
    (DENSE, 2, 48, F(1, 16), 12, RANDOM, 1, {"beta": F(1, 24)}, True),
    (DENSE, 2, 48, F(1, 16), 60, RANDOM, 5, {"beta": F(1, 24)}, False),
    (DENSE, 2, 84, F(5, 84), 8, RANDOM, 3,
     {"beta": F(1, 48), "zeros": 14, "min_gap": 4}, True),
    (DENSE, 2, 40, F(1, 20), None, RANDOM, 5,
     {"beta": F(1, 20), "zeros": 8, "min_gap": 3}, False),
])
def test_search_matches_pairwise_greedy(kind, k, m, delta, target, policy,
                                        seed, extra, reached):
    # The pairwise greedy takes the same candidate stream and the same
    # density filter, and tests each candidate against each accepted word
    # with the rolling-row dynamic program.
    cap = 120
    ell = innercode.separation_threshold(m, delta)
    rng = random.Random(seed)
    if policy is LEX:
        stream = itertools.product(range(k), repeat=m)
    elif kind is DENSE:
        z, g = innercode.dense_layout(m, delta, extra.get("zeros"),
                                      extra.get("min_gap"))
        stream = innercode._random_dense_stream(m, rng, cap, z, g)
    else:
        stream = innercode._random_stream(k, m, rng, cap)
    admit = None
    if kind is DENSE:
        win, need = seqkit.density_rule(m, extra["beta"])

        def admit(c):
            return c[0] == c[-1] == 1 and all(
                sum(c[i:i + win]) >= need for i in range(max(1, m - win + 1)))
    expected = greedy_oracle(stream, ell, target, admit)
    assert (len(expected) == target) == reached
    build = dict(target_size=target, policy=policy, seed=seed,
                 attempt_cap=cap, **extra)
    if target is not None and not reached:
        with pytest.raises(InfeasibleAtDeskScale):
            innercode._build(kind, k, m, delta, **build)
        build["target_size"] = None
    cb = innercode._build(kind, k, m, delta, **build)
    assert [w.symbols for w in cb.codewords] == expected


class TestGreedyListdec:
    def test_pair_trace(self):
        with pytest.raises(InfeasibleAtDeskScale, match="reached 2 of 4"):
            innercode._build(LISTDEC, 2, 2, F(1, 2), list_size=2,
                             target_size=4)
        assert digits(greedy_listdec(2, F(1, 2), 2)) == ["00", "11"]

    def test_l3_trace_rejects_shared_triple(self):
        with pytest.raises(InfeasibleAtDeskScale, match="reached 3 of 4"):
            innercode._build(LISTDEC, 2, 2, F(1, 2), list_size=3,
                             target_size=4)
        cb = greedy_listdec(2, F(1, 2), 3)
        assert digits(cb) == ["00", "01", "11"]
        # no 3 codewords share a length-1 subsequence
        assert check_codebook(cb)["ok"]

    def test_target_one(self):
        cb = innercode._build(LISTDEC, 2, 4, F(1, 4), list_size=2,
                              target_size=1)
        assert len(cb) == 1

    def test_duplicate_refused_before_any_subset_is_full(self):
        # 50 draws from the four words of length 2 repeat some before all
        # four are in, while fewer than list_size - 1 = 4 near words could
        # refuse them by a shared subsequence.
        cb = innercode._build(LISTDEC, 2, 2, F(1, 2), list_size=5,
                              policy=RANDOM, seed=0, attempt_cap=50)
        assert sorted(digits(cb)) == ["00", "01", "10", "11"]

    @pytest.mark.parametrize("m,delta,lsz", [
        (8, F(1, 4), 2), (8, F(1, 2), 3), (10, F(1, 4), 3), (12, F(1, 2), 4),
    ])
    def test_exhaustive_soundness(self, m, delta, lsz):
        cb = innercode._build(LISTDEC, 2, m, delta, list_size=lsz,
                              policy=RANDOM, seed=1, attempt_cap=3000)
        rep = check_codebook(cb)
        assert rep["ok"], rep
        assert rep["max_list_size"] <= lsz - 1

    def test_larger_l_never_smaller_book(self):
        # relaxing the constraint (larger L) can only admit more codewords
        small = innercode._build(LISTDEC, 2, 8, F(1, 2), list_size=2,
                                 policy=RANDOM, seed=5, attempt_cap=2000)
        large = innercode._build(LISTDEC, 2, 8, F(1, 2), list_size=4,
                                 policy=RANDOM, seed=5, attempt_cap=2000)
        assert len(large) >= len(small)

    @pytest.mark.parametrize("m,delta,lsz,target,policy,seed", [
        (6, F(1, 4), 2, None, LEX, 0),
        (6, F(1, 4), 3, 10, LEX, 0),
        (6, F(1, 2), 3, None, LEX, 0),
        (4, F(1, 4), 4, None, LEX, 0),
        (5, F(1, 2), 4, None, LEX, 0),
        (8, F(1, 4), 2, None, RANDOM, 1),
        (8, F(1, 4), 3, 8, RANDOM, 2),
        (8, F(1, 2), 3, None, RANDOM, 3),
        (7, F(1, 4), 4, 7, RANDOM, 4),
        (6, F(1, 4), 4, 8, RANDOM, 7),
        (5, F(1, 2), 5, 7, LEX, 0),
    ])
    def test_sharing_search_matches_brute_force(self, m, delta, lsz, target,
                                                policy, seed):
        # The brute force rejects a candidate that shares an
        # ell-subsequence with any list_size - 1 accepted words, found by
        # the full multi-word LCS table.
        ell = innercode.separation_threshold(m, delta)
        if policy is LEX:
            stream = itertools.product(range(2), repeat=m)
        else:
            stream = innercode._random_stream(2, m, random.Random(seed), 400)
        expected = []
        for cand in stream:
            if cand in expected or any(
                    table_multi_lcs([*group, cand]) >= ell
                    for group in itertools.combinations(expected, lsz - 1)):
                continue
            expected.append(cand)
            if len(expected) == target:
                break
        build = dict(list_size=lsz, policy=policy, seed=seed, attempt_cap=400)
        if target is not None and len(expected) < target:
            with pytest.raises(InfeasibleAtDeskScale):
                innercode._build(LISTDEC, 2, m, delta, target_size=target,
                                 **build)
            target = None
        cb = innercode._build(LISTDEC, 2, m, delta, target_size=target,
                              **build)
        assert [w.symbols for w in cb.codewords] == expected

    @pytest.mark.parametrize("build,pin", [
        pytest.param(lambda: greedy_listdec(10, F(1, 4), 3), "c05", id="c05"),
        pytest.param(lambda: make_scheme_spec("listdec").inner, "listdec",
                     id="desk"),
    ])
    def test_walk_reads_the_build_layout(self, monkeypatch, build, pin):
        # The walk lays out no words of its own and steps inline, so
        # neither _subseq_layout nor _is_subseq_seq is called; the books
        # keep their pinned SHA-256, which the benchmark pins too.
        def refuse(*args):
            raise AssertionError("words laid out again")
        monkeypatch.setattr(seqkit, "_subseq_layout", refuse)
        monkeypatch.setattr(seqkit, "_is_subseq_seq", refuse)
        walks = []
        walk = seqkit._multi_lcs
        monkeypatch.setattr(seqkit, "_multi_lcs",
                            lambda *args: walks.append(args) or walk(*args))
        assert book_digest(build()) == BOOKS[pin] and walks

    @pytest.mark.parametrize("build,walks,pin", [
        pytest.param(lambda: greedy_listdec(10, F(1, 4), 3), 63, "c05",
                     id="c05"),
        pytest.param(lambda: make_scheme_spec("listdec").inner, 14,
                     "listdec", id="desk"),
        pytest.param(lambda: make_scheme_spec("listdec",
                                              overrides={"m": 20}).inner, 23,
                     "listdec.m20", id="m20"),
    ])
    def test_kept_words_refuse_only_what_the_walk_refuses(
            self, monkeypatch, build, walks, pin):
        # A candidate that holds a word kept from an earlier walk is
        # refused before its own walk.  The walk, against its near words
        # in the book as it stood (the words below it: the stream is LEX),
        # must refuse it too.  The walks each build makes are pinned, and
        # its words keep their SHA-256.
        refused, walked = [], []
        holds, walk = seqkit._LcsBook.holds, seqkit._multi_lcs

        def recorded(book, text):
            found = holds(book, text)
            if found:
                refused.append(text)
            return found
        monkeypatch.setattr(seqkit._LcsBook, "holds", recorded)
        monkeypatch.setattr(seqkit, "_multi_lcs",
                            lambda *args: walked.append(args) or walk(*args))
        cb = build()
        words = [w.symbols for w in cb.codewords]
        assert book_digest(cb) == BOOKS[pin] and len(walked) == walks
        assert cb.candidate_policy is LEX and words == sorted(words)
        ell, book, below = cb.separation_threshold, seqkit._LcsBook(), 0
        for cand in refused:
            for w in words[below:]:
                if w > cand:
                    break
                book.append(w)
                below += 1
            near = book.reach(seqkit._lcs_seq(cand, book), ell)
            assert walk(cand, book, near, ell, cb.list_size), cand
        assert refused

    def test_no_multi_lcs_before_list_size_minus_one_words(self, monkeypatch):
        # The paper-profile list size is far beyond its 12-word book, so
        # no candidate ever has list_size - 1 near words and no walk runs.
        # PAPER refuses that book; DESK builds it from the same parameters.
        def refuse(*args):
            raise AssertionError("multi-word LCS called")
        monkeypatch.setattr(seqkit, "_multi_lcs", refuse)
        preset = PRESETS[("listdec", Profile.PAPER_ASYMPTOTIC)]
        spec = ld_make_spec(preset["epsilon"], preset["q"], Profile.DESK,
                            preset["overrides"])
        assert len(spec.inner) < spec.inner.list_size - 1


class TestInnerCoding:
    @pytest.fixture()
    def book(self):
        return innercode._build(UNIQUE, 2, 3, F(1, 3))

    def test_encode(self, book):
        assert book.codewords[0].symbols == (0, 0, 0)
        assert book.codewords[1].symbols == (0, 1, 1)

    def test_decode_unique(self, book):
        assert inner_decode_unique(book, (0, 1)) == 1
        assert inner_decode_unique(book, (0, 0)) == 0
        with pytest.raises(Ambiguous):
            inner_decode_unique(book, (0,))
        with pytest.raises(NoMatch):
            inner_decode_unique(book, (1, 1, 0))

    def test_symbol_outside_the_book_matches_nothing(self, book):
        # The decoders take bare symbol tuples; a symbol no codeword holds
        # is no error, it just matches nothing.
        with pytest.raises(NoMatch):
            inner_decode_unique(book, (2,))
        assert inner_decode_list(book, (2,)) == []
        assert inner_decode_list(book, ()) == list(range(len(book)))

    def test_decode_list(self):
        cb = greedy_listdec(2, F(1, 2), 2)  # {00, 11}
        assert inner_decode_list(cb, (0,)) == [0]
        assert inner_decode_list(cb, (0, 1)) == []
        assert inner_decode_list(cb, ()) == [0, 1]

    @pytest.mark.parametrize("k,m,delta", [(2, 8, F(1, 4)), (2, 10, F(1, 2)),
                                           (3, 7, F(2, 7))])
    def test_roundtrip_under_all_deletion_patterns(self, k, m, delta):
        cb = innercode._build(UNIQUE, k, m, delta,
                              policy=CandidatePolicy.SEEDED_RANDOM, seed=2,
                              attempt_cap=4000)
        budget = math.floor(delta * m)
        for idx, w in enumerate(cb.codewords):
            for r in range(budget + 1):
                for drop in itertools.combinations(range(m), r):
                    kept = tuple(s for i, s in enumerate(w.symbols)
                                 if i not in drop)
                    assert inner_decode_unique(cb, kept) == idx


def scan_decode_unique(cb, received):
    """Oracle: the linear scan of every codeword, in index order, that the
    indexed inner_decode_unique replaced."""
    found = -1
    for i, cw in enumerate(cb.codewords):
        if subseq_oracle(received, cw.symbols):
            if found >= 0:
                raise Ambiguous(f"codewords {found} and {i} both contain received")
            found = i
    if found < 0:
        raise NoMatch("no codeword contains the received word")
    return found


def scan_decode_list(cb, received):
    """Oracle: the linear scan behind inner_decode_list."""
    return [i for i, cw in enumerate(cb.codewords)
            if subseq_oracle(received, cw.symbols)]


def outcome(decode, cb, received):
    """A decoder's result, or the type and message of what it raised."""
    try:
        return decode(cb, received)
    except (Ambiguous, NoMatch) as exc:
        return type(exc), str(exc)


def decode_inputs(cb, seed, count=300):
    """Seeded random subsequences of codewords (every length from empty to
    whole), random words of length up to m, non-codewords of length m
    (a codeword with one symbol changed), words longer than m (a codeword
    with symbols inserted), and the empty word."""
    rng = random.Random(seed)
    inputs = [()]
    for _ in range(count):
        cw = rng.choice(cb.codewords).symbols
        keep = sorted(rng.sample(range(cb.m), rng.randint(0, cb.m)))
        inputs.append(tuple(cw[i] for i in keep))
        inputs.append(tuple(rng.randrange(cb.k)
                            for _ in range(rng.randint(1, cb.m))))
        at = rng.randrange(cb.m)
        changed = (cw[at] + rng.randrange(1, cb.k)) % cb.k
        inputs.append(cw[:at] + (changed,) + cw[at + 1:])
        longer = list(cw)
        for _ in range(rng.randint(1, 3)):
            longer.insert(rng.randint(0, len(longer)), rng.randrange(cb.k))
        inputs.append(tuple(longer))
    return inputs


def assert_matches_scan(book, inputs):
    """The decoders agree with the oracle scans on every input, the unique
    one also with its vote through _containing, and every outcome kind
    occurs at least once."""
    seen = set()
    for received in inputs:
        want = outcome(scan_decode_unique, book, received)
        assert (outcome(inner_decode_unique, book, received) == want
                == outcome(unique_oracle, book, received))
        assert inner_decode_list(book, received) == scan_decode_list(book,
                                                                     received)
        seen.add(want[0] if isinstance(want, tuple) else int)
    assert seen == {int, Ambiguous, NoMatch}


class TestIndexedDecoderOracle:
    """The codeword lookup and the bit-parallel pass change no result."""

    @pytest.fixture(params=["highnoise", "c10", "hirate", "listdec"])
    def book(self, request):
        if request.param == "c10":
            return hn_make_spec(F(1, 2), q=5, overrides={
                "D": 4, "k": 256, "m": 8, "seed": 5}).inner
        return request.getfixturevalue(
            {"highnoise": "hn_desk", "hirate": "br_desk",
             "listdec": "ld_desk"}[request.param]).inner

    def test_unique_and_list_match_the_scan(self, book):
        assert_matches_scan(book, decode_inputs(book, seed=len(book)))

    def test_alphabet_past_the_character_range(self):
        # Symbols past chr()'s range, 0x10FFFF, are plain layout keys.
        k, m = 2**21, 6
        symbols = (0, 0x10FFFF, 0x110000, k - 1)
        rng = random.Random(21)
        words = sorted({tuple(rng.choice(symbols) for _ in range(m))
                        for _ in range(8)})
        book = Codebook(CodebookKind.UNIQUE, k, m, F(1, 3), None, None,
                        tuple(Word(w, k) for w in words),
                        CandidatePolicy.LEX)
        inputs = decode_inputs(book, seed=21) + [
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, m)))
            for _ in range(300)]
        assert_matches_scan(book, inputs)

    def test_repeated_codeword_is_ambiguous_at_full_length(self):
        # A piece of length m is looked up by its symbols; a word spelled
        # by several codewords names the first two.
        words = ((0, 1, 1), (1, 0, 1), (0, 1, 1), (0, 1, 1))
        book = Codebook(UNIQUE, 2, 3, F(1, 3), None, None,
                        tuple(Word(w, 2) for w in words), LEX)
        assert outcome(inner_decode_unique, book, (0, 1, 1)) == (
            Ambiguous, "codewords 0 and 2 both contain received")
        assert_matches_scan(book, decode_inputs(book, seed=3))

    def test_layout_builds_on_first_decode(self):
        book = innercode._build(UNIQUE, 3, 6, F(1, 3))
        assert "_layout" not in vars(book)
        inner_decode_list(book, (0, 1))
        assert vars(book)["_layout"] == seqkit._subseq_layout(
            cw.symbols for cw in book.codewords)


# Shapes whose k^m space is small enough that spec_codebook picks LEX itself.
@pytest.mark.parametrize("make", [
    lambda o: hn_make_spec(F(1, 2), 5, overrides={
        "D": 4, "k": 4, "m": 8, "n": 5, "n_prime": 1, **o}),
    lambda o: br_make_spec(F(1, 64), 2, overrides={
        "delta": F(1, 2), "m": 12, "n": 2, "n_prime": 1, **o}),
    lambda o: ld_make_spec(F(1, 5), 5, overrides={
        "n": 3, "n_prime": 1, "m": 8, **o}),
], ids=["highnoise", "hirate", "listdec"])
def test_candidate_policy_is_not_an_override(make):
    with pytest.raises(InvalidOverride, match="policy"):
        make({"policy": "LEX"})


class TestRateReport:
    def test_rate_of_two_word_book(self):
        cb = innercode._build(UNIQUE, 2, 3, F(1, 3))
        rep = rate_report(cb)
        assert math.isclose(rep["rate"], 1 / 3)

    def test_single_codeword_rate_zero(self):
        cb = innercode._build(UNIQUE, 2, 3, F(1))
        assert rate_report(cb)["rate"] == 0.0

    def test_full_lex_beats_counting_bound(self):
        cb = innercode._build(UNIQUE, 2, 8, F(1, 4))
        rep = rate_report(cb)
        assert rep["bound_satisfied"]
        assert rep["achieved_size"] >= rep["counting_size_bound"]

    def test_dense_report_uses_dense_pool(self):
        cb = innercode._build(DENSE, 2, 8, F(1, 4), beta=F(1, 4))
        rep = rate_report(cb)
        assert rep["bound_satisfied"]

    def test_listdec_report(self):
        cb = innercode._build(LISTDEC, 2, 8, F(1, 4), list_size=4,
                              policy=RANDOM, seed=1, attempt_cap=2000)
        rep = rate_report(cb)
        expected = 1 - seqkit.entropy(F(1, 4)) - 3 / 4
        assert math.isclose(rep["counting_rate_bound"], max(expected, 0.0))


class TestDenseCounting:
    @staticmethod
    def brute(m, beta):
        n = 0
        for bits in itertools.product((0, 1), repeat=m):
            if seqkit.is_dense_word(bits, *seqkit.density_rule(m, beta)):
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


class TestCheckCodebook:
    def test_detects_separation_violation(self):
        cb = innercode._build(UNIQUE, 2, 6, F(1, 2))
        w = cb.codewords[0]
        broken = dataclasses.replace(
            cb, codewords=cb.codewords + (Word(w.symbols[:-1] + (1 - w.symbols[-1],), 2),))
        rep = check_codebook(broken)
        assert not rep["ok"]

    def test_detects_duplicates(self):
        cb = innercode._build(UNIQUE, 2, 6, F(1, 2))
        broken = dataclasses.replace(cb, codewords=cb.codewords + cb.codewords[:1])
        assert not check_codebook(broken)["ok"]

    @pytest.mark.parametrize("m,ell", [(20, 15), (24, 18), (32, 24)])
    def test_listdec_checked_past_2_to_the_14_probe_words(self, m, ell):
        # Every one of the 2^ell probe words is walked: the desk book at a
        # larger m passes, and a copy holding one codeword list_size times
        # fails on the probe words that codeword holds.
        cb = make_scheme_spec("listdec", overrides={"m": m}).inner
        assert cb.separation_threshold == ell
        rep = check_codebook(cb)
        assert rep["ok"] and rep["max_list_size"] == 3
        w = cb.codewords[0]
        broken = dataclasses.replace(
            cb, codewords=cb.codewords + (w,) * (cb.list_size - 1))
        rep = check_codebook(broken)
        assert not rep["ok"] and rep["max_list_size"] >= cb.list_size
        dup, *words = rep["violations"]
        assert dup == "duplicate codewords" and words
        for line in words:
            probe = tuple(map(int, line.split()[1]))
            assert len(probe) == ell and subseq_oracle(probe, w.symbols)


def random_listdec_books(count, seed):
    """Books of 0-11 random binary words of length m in 3-12, some with a
    word repeated and some with a word of another length, at every ell
    from 0 to m and list sizes 2-5.  A word longer than m comes only with
    ell < m: at ell = m the scan looks probes up as whole codewords."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(3, 12)
        ell = rng.randint(0, m)
        words = [tuple(rng.randrange(2) for _ in range(m))
                 for _ in range(rng.randint(0, 11))]
        if words and rng.random() < 0.3:
            words += [rng.choice(words)] * rng.randint(1, 3)
        if words and rng.random() < 0.2:
            words[0] = tuple(rng.randrange(2) for _ in range(
                rng.randint(0, m + 2 if ell < m else m)))
        yield Codebook(LISTDEC, 2, m, F(m - ell, m), None, rng.randint(2, 5),
                       tuple(Word(w, 2) for w in words), LEX)


def assert_check_matches_probe_scan(cb):
    rep = check_codebook(cb)
    lines = [v for v in rep["violations"] if v.startswith("word ")]
    assert (rep["max_list_size"], lines) == probe_scan(cb)
    return bool(lines)


def test_listdec_check_matches_probe_scan_on_corpus():
    # Every LEX LISTDEC book for m 4-10, and 300 seeded books of random
    # words, many of which fail the check.
    lex = (greedy_listdec(m, delta, lsz) for m in range(4, 11)
           for delta in (F(1, 4), F(1, 3), F(1, 2)) for lsz in range(2, 6))
    failed = [assert_check_matches_probe_scan(cb)
              for cb in itertools.chain(lex, random_listdec_books(300, 30))]
    assert len(failed) == 384 and sum(failed) >= 100


@pytest.mark.parametrize("build", [
    pytest.param(lambda: make_scheme_spec("listdec").inner, id="desk"),
    pytest.param(lambda: greedy_listdec(10, F(1, 4), 3), id="c05"),
])
def test_listdec_check_matches_probe_scan_on_construct_books(build):
    assert not assert_check_matches_probe_scan(build())


def random_pairwise_books(count, seed):
    """UNIQUE books over k in {2, 3, 4} and binary DENSE books of 0-12
    random words of length m in 2-10, at every ell from 1 to m.  Some hold
    a copy of a word with a few symbols redrawn, which plants a pair of
    LCS near m, some a word repeated, and some a word of another length
    (the empty word and words shorter than a density window among them).
    DENSE words lean to ones, so some are dense and some are not."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice((2, 3, 4))
        kind = DENSE if k == 2 and rng.random() < 0.5 else UNIQUE

        def draw(n):
            if kind is DENSE:
                return tuple(int(rng.random() < 0.7) for _ in range(n))
            return tuple(rng.randrange(k) for _ in range(n))
        m = rng.randint(2, 10)
        words = [draw(m) for _ in range(rng.randint(0, 12))]
        if words and rng.random() < 0.5:
            words.append(tuple(s if rng.random() < 0.7 else draw(1)[0]
                               for s in rng.choice(words)))
        if words and rng.random() < 0.3:
            words.append(rng.choice(words))
        if words and rng.random() < 0.2:
            words[rng.randrange(len(words))] = draw(rng.randrange(m + 3))
        rng.shuffle(words)
        yield Codebook(kind, k, m, F(rng.randint(0, m - 1), m),
                       rng.choice((F(1, 2), F(1))) if kind is DENSE else None,
                       None, tuple(Word(w, k) for w in words), LEX)


def test_pairwise_check_matches_rolling_lcs_on_corpus():
    # The whole report, violations in order, against one rolling_lcs per
    # pair: the highnoise and hirate desk books at three seeds, and 200
    # seeded books, many of which fail the check.
    desk = (make_scheme_spec(scheme, overrides={"seed": seed}).inner
            for scheme in ("highnoise", "hirate") for seed in (1, 2, 3))
    sizes, failed, single = set(), 0, 0
    for cb in itertools.chain(desk, random_pairwise_books(200, 34)):
        rep = check_codebook(cb)
        assert rep == pairwise_check(cb)
        sizes.add(len(cb))
        failed += not rep["ok"]
        single += cb.kind is DENSE and any(len(w) == 1 for w in cb.codewords)
    assert {0, 1, 16, 64} <= sizes and failed >= 80 and single >= 1


def test_dense_check_reports_a_word_shorter_than_a_window():
    # A word of length 1 is shorter than the window of 2 the density rule
    # of length-4 words at beta = 1/2 asks for; it is misshapen, not
    # tested for density.
    cb = Codebook(DENSE, 2, 4, F(1, 4), F(1, 2), None,
                  (Word((1,), 2), Word((1, 1, 1, 1), 2)), LEX)
    rep = check_codebook(cb)
    assert rep == pairwise_check(cb) == {
        "kind": "DENSE", "size": 2, "separation_threshold": 3, "ok": False,
        "violations": ["codeword shape mismatch"], "max_pairwise_lcs": 1}
    # Nor are the empty word and a longer word that begins with 0; only
    # 1001, of the book's shape, breaks the rule.
    words = ((1,), (), (0, 1, 1, 1, 1, 0), (1, 1, 1, 1), (1, 0, 0, 1))
    cb = dataclasses.replace(cb, codewords=tuple(Word(w, 2) for w in words))
    rep = check_codebook(cb)
    assert rep == pairwise_check(cb) and rep["violations"] == [
        "codeword shape mismatch", "pair (2, 3) has lcs 4",
        "codeword 4 not dense"]


def test_built_words_are_valid_words():
    # The build hands its words over unchecked, as every candidate stream
    # draws its symbols from range(k): each must pass Word's own check and
    # have the book's shape.
    books = [make_scheme_spec(scheme, overrides={"seed": seed}).inner
             for scheme in ("highnoise", "hirate", "listdec")
             for seed in (1, 2, 3)]
    books += [greedy_listdec(10, F(1, 4), 3),
              innercode._build(UNIQUE, 3, 6, F(1, 3)),
              innercode._build(UNIQUE, 4, 6, F(1, 2), target_size=4,
                               policy=RANDOM, seed=7),
              innercode._build(DENSE, 2, 10, F(1, 5), beta=F(1, 2))]
    for cb in books:
        assert cb.codewords
        for w in cb.codewords:
            assert Word(w.symbols, w.alphabet_size) == w
            assert len(w) == cb.m and w.alphabet_size == cb.k
