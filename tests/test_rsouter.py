"""Outer code contract: exact recovery inside the error/erasure budget,
checked exhaustively where the pattern space is small and by sampling above,
and agreement with a Berlekamp-Welch oracle on every received word.  The
decoder's memo changes no outcome, and the one-pass outer word equals the
per-position set rule.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.errors import (
    DecodeFailure,
    GuardExceeded,
    LengthMismatch,
    OutOfRange,
)
from delcodes import rsouter
from delcodes.gf import make_field
from delcodes.rsouter import (
    ERASED,
    RsParams,
    _decode,
    _interpolation_data,
    _poly_divmod,
    candidate_sets,
    outer_word,
    poly_eval,
    rs_decode_ee,
    rs_encode,
    rs_list_recover_bruteforce,
)


def _nullspace_vector(field, rows, ncols):
    # Row-reduce and back-substitute one free variable; None when the
    # columns are independent.
    mat = [row[:] for row in rows]
    pivot_col_of_row = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[r])]
        pivot_col_of_row.append(c)
        r += 1
        if r == len(mat):
            break
    pivots = set(pivot_col_of_row)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    sol = [0] * ncols
    sol[free] = 1
    for row_i, pc in enumerate(pivot_col_of_row):
        sol[pc] = field.neg(mat[row_i][free])
    return sol


def berlekamp_welch(rs, received):
    """Oracle for rs_decode_ee: the message of the codeword within
    floor((n1 - nprime) / 2) of the n1 unerased points, found by one
    Berlekamp-Welch linear solve; raises DecodeFailure when there is none."""
    field, nprime = rs.field, rs.nprime
    xs = [x for x, v in enumerate(received) if v is not ERASED]
    ys = [received[x] for x in xs]
    n1 = len(xs)
    if n1 < nprime:
        raise DecodeFailure("too few unerased points")
    e = (n1 - nprime) // 2
    # Unknowns: Q of degree < e + nprime, then E of degree <= e.
    nq = e + nprime
    rows = []
    for x, y in zip(xs, ys):
        powers = [field.pow(x, i) for i in range(nq)]
        rows.append(powers + [field.neg(field.mul(y, p))
                              for p in powers[:e + 1]])
    sol = _nullspace_vector(field, rows, nq + e + 1)
    if sol is None:
        raise DecodeFailure("no codeword within the correction radius")
    coeffs, rem = _poly_divmod(field, sol[:nq], sol[nq:])
    if any(rem) or any(coeffs[nprime:]):
        raise DecodeFailure("no codeword within the correction radius")
    coeffs = (coeffs + [0] * nprime)[:nprime]
    t = sum(1 for x, y in zip(xs, ys) if poly_eval(field, coeffs, x) != y)
    if t > e:
        raise DecodeFailure("no codeword within the correction radius")
    return coeffs


def outcome(decode, rs, received):
    """The decoded message values, or None on DecodeFailure."""
    try:
        return decode(rs, received)
    except DecodeFailure:
        return None


def corrupt(code, erasures, errors):
    """Apply an erasure set and an {index: wrong_value} error map."""
    out = []
    for i, c in enumerate(code):
        if i in erasures:
            out.append(ERASED)
        elif i in errors:
            out.append(errors[i])
        else:
            out.append(c)
    return out


class TestParams:
    def test_accepts_standard_shapes(self):
        for q, n, npr in [(5, 4, 2), (11, 8, 3), (16, 10, 4)]:
            p = RsParams(make_field(q), n, npr)
            assert (p.field.order, p.n, p.nprime) == (q, n, npr)

    def test_block_length_capped_by_field_order(self):
        with pytest.raises(OutOfRange):
            RsParams(make_field(5), 6, 2)

    def test_dimension_capped_by_length(self):
        with pytest.raises(OutOfRange):
            RsParams(make_field(5), 4, 5)


class TestEncode:
    def test_linear_message_over_gf5(self):
        code = rs_encode(RsParams(make_field(5), 4, 2), [1, 2])
        # 1 + 2x at x = 0,1,2,3
        assert code == [1, 3, 0, 2]

    def test_constant_message_repeats(self):
        code = rs_encode(RsParams(make_field(7), 5, 1), [4])
        assert code == [4] * 5

    def test_message_longer_than_block_rejected(self):
        with pytest.raises(LengthMismatch):
            rs_encode(RsParams(make_field(5), 2, 2), [1, 2, 3])
        # a message must have exactly nprime symbols, so shorter fails too
        with pytest.raises(LengthMismatch):
            rs_encode(RsParams(make_field(5), 4, 2), [1])

    def test_symbol_outside_field_rejected(self):
        with pytest.raises(OutOfRange):
            rs_encode(RsParams(make_field(5), 4, 2), [1, 5])

    def test_binary_field_encode_is_xor_structured(self):
        code = rs_encode(RsParams(make_field(4), 4, 2), [1, 1])
        # 1 + x at the four field points 0,1,2,3
        assert code == [1, 0, 3, 2]


class TestDecodeErrorsAndErasures:
    def test_clean_roundtrip(self):
        rs = RsParams(make_field(11), 8, 3)
        msg = [3, 1, 4]
        assert rs_decode_ee(rs, rs_encode(rs, msg)) == msg

    def test_exhaustive_small_grid(self):
        # (5, 4, 2): margin 2, so any r + 2t <= 2 pattern must decode.
        n, npr = 4, 2
        rs = RsParams(make_field(5), n, npr)
        for msg in itertools.product(range(5), repeat=npr):
            code = rs_encode(rs, msg)
            for r_set_size, t in [(0, 0), (1, 0), (2, 0), (0, 1)]:
                for erasures in itertools.combinations(range(n), r_set_size):
                    free = [i for i in range(n) if i not in erasures]
                    for err_pos in itertools.combinations(free, t):
                        wrongs = [
                            {p: (code[p] + d) % 5 for p in err_pos}
                            for d in range(1, 5)
                        ] if t else [{}]
                        for errors in wrongs:
                            rec = corrupt(code, set(erasures), errors)
                            assert rs_decode_ee(rs, rec) == list(msg)

    def test_too_many_erasures_fail_loudly(self):
        rs = RsParams(make_field(5), 4, 2)
        rec = corrupt(rs_encode(rs, [1, 2]), {0, 1, 2}, {})
        with pytest.raises(DecodeFailure):
            rs_decode_ee(rs, rec)

    def test_no_slack_words_decode_to_the_line_through_them(self):
        # (5, 4, 2) with 2 or 3 unerased points leaves no error slack
        # (e = 0): the word decodes to the one line through its points when
        # there is one, and fails otherwise.  Exhaustive over every such word.
        n, npr = 4, 2
        rs = RsParams(make_field(5), n, npr)
        lines = {msg: rs_encode(rs, msg)
                 for msg in itertools.product(range(5), repeat=npr)}
        for kept in (2, 3):
            for xs in itertools.combinations(range(n), kept):
                for ys in itertools.product(range(5), repeat=kept):
                    rec = [ERASED] * n
                    for x, y in zip(xs, ys):
                        rec[x] = y
                    through = [msg for msg, code in lines.items()
                               if all(code[x] == y for x, y in zip(xs, ys))]
                    assert len(through) <= 1
                    if through:
                        assert tuple(rs_decode_ee(rs, rec)) == through[0]
                    else:
                        with pytest.raises(DecodeFailure):
                            rs_decode_ee(rs, rec)

    def test_dimension_beyond_block_rejected(self):
        # a received word shorter than the block, here than the dimension
        with pytest.raises(LengthMismatch):
            rs_decode_ee(RsParams(make_field(5), 3, 3), [1, 2])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_recovery_inside_budget(self, data):
        q, n, npr = data.draw(st.sampled_from([(5, 4, 2), (11, 8, 3), (16, 10, 4)]))
        rs = RsParams(make_field(q), n, npr)
        msg = data.draw(st.lists(st.integers(0, q - 1), min_size=npr, max_size=npr))
        code = rs_encode(rs, msg)
        margin = n - npr
        t = data.draw(st.integers(0, margin // 2))
        r = data.draw(st.integers(0, margin - 2 * t))
        pos = data.draw(st.permutations(range(n)))
        erasures = set(pos[:r])
        errors = {}
        for p in pos[r:r + t]:
            errors[p] = data.draw(
                st.integers(0, q - 1).filter(lambda v, c=code[p]: v != c))
        assert rs_decode_ee(rs, corrupt(code, erasures, errors)) == msg


class TestAgreesWithBerlekampWelch:
    """rs_decode_ee against the Berlekamp-Welch oracle: the same message, or
    DecodeFailure from both, on every word tried."""

    @pytest.mark.parametrize("q,n", [(5, 4), (5, 5), (4, 4), (3, 3)])
    def test_every_received_word(self, q, n):
        f = make_field(q)
        for word in itertools.product([ERASED, *range(q)], repeat=n):
            word = list(word)
            for npr in range(1, n + 1):
                rs = RsParams(f, n, npr)
                assert (outcome(rs_decode_ee, rs, word)
                        == outcome(berlekamp_welch, rs, word)), (word, npr)

    @pytest.mark.parametrize("q,n,npr", [(16, 10, 4), (256, 12, 5)])
    def test_seeded_words_around_the_radius(self, q, n, npr):
        # Codewords with r erasures and t errors, t up to two past the
        # radius, so both decodable and undecodable words occur.
        rng = random.Random(q * 1000 + n)
        rs = RsParams(make_field(q), n, npr)
        for _ in range(1000):
            code = rs_encode(rs, [rng.randrange(q) for _ in range(npr)])
            r = rng.randrange(n - npr + 1)
            t = rng.randrange((n - npr - r) // 2 + 3)
            pos = rng.sample(range(n), min(n, r + t))
            errors = {p: (code[p] + rng.randrange(1, q)) % q
                      for p in pos[r:]}
            word = corrupt(code, set(pos[:r]), errors)
            assert (outcome(rs_decode_ee, rs, word)
                    == outcome(berlekamp_welch, rs, word)), (word, npr)

    # Boundary words of the return before Gao's loop, which is taken when
    # the survivors' interpolant has degree < nprime.
    SHAPES = [(16, 10, 4), (256, 12, 5)]

    @pytest.mark.parametrize("q,n,npr", SHAPES)
    def test_zero_codeword_under_erasures(self, q, n, npr):
        # The interpolant of all-zero survivors trims to [].
        rng = random.Random(q + 1)
        rs = RsParams(make_field(q), n, npr)
        for r in range(n + 1):
            for _ in range(20):
                word = corrupt([0] * n, set(rng.sample(range(n), r)), {})
                assert (outcome(rs_decode_ee, rs, word)
                        == outcome(berlekamp_welch, rs, word)), (word, npr)

    @pytest.mark.parametrize("q,n,npr", SHAPES)
    def test_exactly_nprime_survivors(self, q, n, npr):
        # Any npr values lie on one polynomial of degree < npr.
        rng = random.Random(q + 2)
        rs = RsParams(make_field(q), n, npr)
        for _ in range(200):
            kept = set(rng.sample(range(n), npr))
            word = [rng.randrange(q) if x in kept else ERASED
                    for x in range(n)]
            got = outcome(rs_decode_ee, rs, word)
            assert got is not None
            assert got == outcome(berlekamp_welch, rs, word), (word, npr)

    @pytest.mark.parametrize("q,n,npr", SHAPES)
    def test_one_wrong_value_at_either_end(self, q, n, npr):
        # A clean codeword with one wrong value at the first or the last
        # unerased position; with n - npr - 1 erasures or more there is no
        # slack for it, so failures occur too.
        rng = random.Random(q + 3)
        rs = RsParams(make_field(q), n, npr)
        for _ in range(200):
            code = rs_encode(rs, [rng.randrange(q) for _ in range(npr)])
            erasures = set(rng.sample(range(n), rng.randrange(n - npr + 1)))
            kept = [x for x in range(n) if x not in erasures]
            for p in (kept[0], kept[-1]):
                wrong = {p: (code[p] + rng.randrange(1, q)) % q}
                word = corrupt(code, erasures, wrong)
                assert (outcome(rs_decode_ee, rs, word)
                        == outcome(berlekamp_welch, rs, word)), (word, npr)

    def test_fields_sharing_an_erasure_set(self):
        # GF(4) and GF(5) decode alternately on the points (0, 1, 3), so a
        # cache keyed on the points alone would hand one field's
        # interpolation data to the other.
        fields = [make_field(4), make_field(5)]
        for ys in itertools.product(range(4), repeat=3):
            word = [ys[0], ys[1], ERASED, ys[2]]
            for f in fields:
                for npr in (1, 2, 3):
                    rs = RsParams(f, 4, npr)
                    assert (outcome(rs_decode_ee, rs, word)
                            == outcome(berlekamp_welch, rs, word))

    def test_interpolation_data_is_immutable(self):
        g0, bases = _interpolation_data(make_field(5), (0, 1, 3))
        assert isinstance(g0, tuple)
        assert isinstance(bases, tuple)
        assert all(isinstance(b, tuple) for b in bases)


def decode_outcome(decode, rs, received):
    """The decoded coefficients, or the class and message of the error."""
    try:
        return decode(rs, list(received))
    except (DecodeFailure, LengthMismatch, OutOfRange) as exc:
        return type(exc), str(exc)


def memo_corpus(rs, rng, count=300):
    """Seeded received words of rs: clean codewords, erasures only, errors
    inside the radius, and words past it or with too few survivors, so that
    both results and every DecodeFailure message occur."""
    q, n, npr = rs.field.order, rs.n, rs.nprime
    words = []
    for k in range(count):
        code = rs_encode(rs, [rng.randrange(q) for _ in range(npr)])
        kind = k % 4
        if kind == 0:
            r = t = 0
        elif kind == 1:
            r, t = rng.randrange(n - npr + 1), 0
        elif kind == 2:
            r = rng.randrange(n - npr + 1)
            t = rng.randrange((n - npr - r) // 2 + 1)
        else:
            r = rng.randrange(n + 1)
            t = (n - npr - r) // 2 + 1 + rng.randrange(2)
        pos = rng.sample(range(n), min(n, r + max(t, 0)))
        errors = {p: (code[p] + rng.randrange(1, q)) % q for p in pos[r:]}
        words.append(tuple(corrupt(code, set(pos[:r]), errors)))
    return words


class TestDecodeMemo:
    """rs_decode_ee remembers outcomes per received word; the memo's
    oracle is _decode, the decoder without it."""

    @pytest.fixture(params=["hn_desk", "br_desk", "gf5"])
    def rs(self, request):
        if request.param == "gf5":
            return RsParams(make_field(5), 5, 2)
        return request.getfixturevalue(request.param).rs

    def test_cold_and_warm_memo_agree_with_the_plain_decoder(self, rs):
        rng = random.Random(rs.field.order * 100 + rs.n)
        corpus = memo_corpus(rs, rng)
        plain = [decode_outcome(_decode, rs, w) for w in corpus]
        kinds = {type(o) if isinstance(o, list) else o[0] for o in plain}
        assert kinds == {list, DecodeFailure}
        assert len(set(corpus)) < len(corpus)  # repeated words hit
        shape = (rs.field, rs.n, rs.nprime)
        cold = [decode_outcome(rs_decode_ee, RsParams(*shape), w)
                for w in corpus]
        warm_rs = RsParams(*shape)
        for w in rng.sample(corpus, len(corpus)):
            decode_outcome(rs_decode_ee, warm_rs, w)
        assert len(warm_rs._decode_memo) == len(set(corpus))
        warm = [decode_outcome(rs_decode_ee, warm_rs, w) for w in corpus]
        assert cold == plain
        assert warm == plain

    def test_a_hit_returns_a_fresh_list(self, rs):
        rs = RsParams(rs.field, rs.n, rs.nprime)
        code = rs_encode(rs, [1] * rs.nprime)
        first = rs_decode_ee(rs, code)
        first.append(7)
        first[0] = 0
        assert rs_decode_ee(rs, code) == [1] * rs.nprime

    def test_a_hit_raises_the_same_failure(self):
        rs = RsParams(make_field(5), 5, 2)
        word = [0, 1, 0, 1, ERASED]
        raised = []
        for _ in range(2):
            with pytest.raises(DecodeFailure) as info:
                rs_decode_ee(rs, word)
            raised.append(info.value)
        assert (DecodeFailure, str(raised[0])) == decode_outcome(
            _decode, rs, word)
        assert str(raised[1]) == str(raised[0])
        assert raised[0] is not raised[1]
        assert tuple(word) in rs._decode_memo

    def test_malformed_words_are_not_remembered(self):
        rs = RsParams(make_field(5), 5, 2)
        for word, error in (([0, 1, 2, 3], LengthMismatch),
                            ([0, 1, 2, 3, 5], OutOfRange),
                            ([0, 1, -1, ERASED, 4], OutOfRange)):
            for _ in range(2):
                with pytest.raises(error):
                    rs_decode_ee(rs, word)
        assert rs._decode_memo == {}

    def test_memo_holds_at_most_its_cap(self, rs, monkeypatch):
        monkeypatch.setattr(rsouter, "_DECODE_MEMO", 8)
        rng = random.Random(rs.n)
        corpus = memo_corpus(rs, rng, count=100)
        fresh = RsParams(rs.field, rs.n, rs.nprime)
        for w in corpus + corpus[::-1]:
            assert (decode_outcome(rs_decode_ee, fresh, w)
                    == decode_outcome(_decode, rs, w))
            assert 1 <= len(fresh._decode_memo) <= 8


def outer_word_by_sets(pairs, n):
    """The per-position set rule outer_word replaced, as its oracle: one
    voted value is kept, none or several erase the position."""
    sets = candidate_sets(pairs, n)
    word = [next(iter(vs)) if len(vs) == 1 else ERASED for vs in sets]
    return word, sum(1 for vs in sets if len(vs) > 1)


def test_outer_word_matches_the_set_rule():
    rng = random.Random(26)
    assert outer_word([], 3) == outer_word_by_sets([], 3) == ([ERASED] * 3, 0)
    for _ in range(2000):
        n, q = rng.randrange(1, 9), rng.randrange(2, 9)
        pairs = [(rng.randrange(n), rng.randrange(q))
                 for _ in range(rng.randrange(3 * n))]
        pairs += rng.sample(pairs, rng.randrange(len(pairs) + 1))
        rng.shuffle(pairs)
        expected = outer_word_by_sets(pairs, n)
        assert outer_word(pairs, n) == expected, pairs
        assert outer_word(set(pairs), n) == expected, pairs


def test_repeated_votes_are_no_conflict():
    assert outer_word([(1, 2), (0, 3), (1, 2)], 3) == ([3, 2, ERASED], 0)
    assert outer_word([(1, 2), (1, 4), (1, 2)], 2) == ([ERASED, ERASED], 1)


class TestListRecover:
    def test_constant_polynomials_against_sets(self):
        rs = RsParams(make_field(5), 3, 1)
        sets = [{1, 2}, {1}, {1, 3}]
        assert rs_list_recover_bruteforce(rs, sets, 3) == [(1,)]

    def test_threshold_one_admits_every_touching_constant(self):
        rs = RsParams(make_field(5), 3, 1)
        sets = [{1, 2}, {1}, {1, 3}]
        hits = rs_list_recover_bruteforce(rs, sets, 1)
        assert sorted(m[0] for m in hits) == [1, 2, 3]

    def test_singleton_sets_pin_the_codeword(self):
        rs = RsParams(make_field(11), 6, 2)
        msg = [7, 2]
        sets = [{c} for c in rs_encode(rs, msg)]
        assert rs_list_recover_bruteforce(rs, sets, 6) == [tuple(msg)]

    def test_threshold_zero_returns_whole_message_space(self):
        rs = RsParams(make_field(4), 2, 1)
        hits = rs_list_recover_bruteforce(rs, [set(), set()], 0)
        assert len(hits) == 4

    def test_guard_trips_on_large_search(self):
        rs = RsParams(make_field(16), 8, 7)
        with pytest.raises(GuardExceeded):
            rs_list_recover_bruteforce(rs, [set()] * 8, 1)

    def test_wrong_number_of_candidate_sets_rejected(self):
        rs = RsParams(make_field(5), 3, 1)
        with pytest.raises(LengthMismatch):
            rs_list_recover_bruteforce(rs, [{1}, {1}], 1)

    def test_two_codewords_can_share_the_list(self):
        rs = RsParams(make_field(5), 4, 1)
        a = rs_encode(rs, [1])
        b = rs_encode(rs, [2])
        sets = [{a[i], b[i]} for i in range(4)]
        hits = rs_list_recover_bruteforce(rs, sets, 4)
        assert sorted(m[0] for m in hits) == [1, 2]

    def test_sampled_noise_still_finds_truth(self):
        rng = random.Random(9)
        rs = RsParams(make_field(11), 8, 3)
        msg = [5, 9, 1]
        sets = []
        for c in rs_encode(rs, msg):
            s = {c}
            while len(s) < 3:
                s.add(rng.randrange(11))
            sets.append(s)
        hits = rs_list_recover_bruteforce(rs, sets, 8)
        assert tuple(msg) in hits


def test_entry_points_return_plain_ints():
    rs = RsParams(make_field(16), 6, 2)
    code = rs_encode(rs, [3, 9])
    decoded = rs_decode_ee(rs, code)
    [listed] = rs_list_recover_bruteforce(rs, [{c} for c in code], 6)
    assert decoded == list(listed) == [3, 9]
    assert all(type(v) is int for v in [*code, *decoded, *listed])
