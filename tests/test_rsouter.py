"""Outer code contract: exact recovery inside the error/erasure budget,
checked exhaustively where the pattern space is small and by sampling above.
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
from delcodes.gf import make_field
from delcodes.rsouter import (
    ERASED,
    RsParams,
    rs_decode_ee,
    rs_encode,
    rs_list_recover_bruteforce,
)


def corrupt(field, code, erasures, errors):
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
        f = make_field(5)
        code = rs_encode(f, [1, 2], 4)
        # 1 + 2x at x = 0,1,2,3
        assert [c.value for c in code] == [1, 3, 0, 2]

    def test_constant_message_repeats(self):
        f = make_field(7)
        code = rs_encode(f, [4], 5)
        assert [c.value for c in code] == [4] * 5

    def test_message_longer_than_block_rejected(self):
        f = make_field(5)
        with pytest.raises(LengthMismatch):
            rs_encode(f, [1, 2, 3], 2)

    def test_binary_field_encode_is_xor_structured(self):
        f = make_field(4)
        code = rs_encode(f, [1, 1], 4)
        # 1 + x at the four field points 0,1,2,3
        assert [c.value for c in code] == [1, 0, 3, 2]


class TestDecodeErrorsAndErasures:
    def test_clean_roundtrip(self):
        f = make_field(11)
        msg = [3, 1, 4]
        got = rs_decode_ee(f, rs_encode(f, msg, 8), 3)
        assert [g.value for g in got] == msg

    def test_exhaustive_small_grid(self):
        # (5, 4, 2): margin 2, so any r + 2t <= 2 pattern must decode.
        f = make_field(5)
        n, npr = 4, 2
        for msg in itertools.product(range(5), repeat=npr):
            code = rs_encode(f, list(msg), n)
            for r_set_size, t in [(0, 0), (1, 0), (2, 0), (0, 1)]:
                for erasures in itertools.combinations(range(n), r_set_size):
                    free = [i for i in range(n) if i not in erasures]
                    for err_pos in itertools.combinations(free, t):
                        wrongs = [
                            {p: (code[p].value + d) % 5 for p in err_pos}
                            for d in range(1, 5)
                        ] if t else [{}]
                        for errors in wrongs:
                            rec = corrupt(f, code, set(erasures), errors)
                            got = rs_decode_ee(f, rec, npr)
                            assert [g.value for g in got] == list(msg)

    def test_too_many_erasures_fail_loudly(self):
        f = make_field(5)
        code = rs_encode(f, [1, 2], 4)
        rec = corrupt(f, code, {0, 1, 2}, {})
        with pytest.raises(DecodeFailure):
            rs_decode_ee(f, rec, 2)

    def test_no_slack_words_decode_to_the_line_through_them(self):
        # (5, 4, 2) with 2 or 3 unerased points leaves no error slack
        # (e = 0): the word decodes to the one line through its points when
        # there is one, and fails otherwise.  Exhaustive over every such word.
        f = make_field(5)
        n, npr = 4, 2
        lines = {msg: [c.value for c in rs_encode(f, list(msg), n)]
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
                        got = rs_decode_ee(f, rec, npr)
                        assert tuple(g.value for g in got) == through[0]
                    else:
                        with pytest.raises(DecodeFailure):
                            rs_decode_ee(f, rec, npr)

    def test_dimension_beyond_block_rejected(self):
        f = make_field(5)
        with pytest.raises(OutOfRange):
            rs_decode_ee(f, [1, 2], 3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_recovery_inside_budget(self, data):
        q, n, npr = data.draw(st.sampled_from([(5, 4, 2), (11, 8, 3), (16, 10, 4)]))
        f = make_field(q)
        msg = data.draw(st.lists(st.integers(0, q - 1), min_size=npr, max_size=npr))
        code = rs_encode(f, msg, n)
        margin = n - npr
        t = data.draw(st.integers(0, margin // 2))
        r = data.draw(st.integers(0, margin - 2 * t))
        pos = data.draw(st.permutations(range(n)))
        erasures = set(pos[:r])
        errors = {}
        for p in pos[r:r + t]:
            errors[p] = data.draw(
                st.integers(0, q - 1).filter(lambda v, c=code[p].value: v != c))
        got = rs_decode_ee(f, corrupt(f, code, erasures, errors), npr)
        assert [g.value for g in got] == msg


class TestListRecover:
    def test_constant_polynomials_against_sets(self):
        f = make_field(5)
        sets = [{1, 2}, {1}, {1, 3}]
        hits = rs_list_recover_bruteforce(f, sets, 1, 3)
        assert [[e.value for e in m] for m in hits] == [[1]]

    def test_threshold_one_admits_every_touching_constant(self):
        f = make_field(5)
        sets = [{1, 2}, {1}, {1, 3}]
        hits = rs_list_recover_bruteforce(f, sets, 1, 1)
        assert sorted(m[0].value for m in hits) == [1, 2, 3]

    def test_singleton_sets_pin_the_codeword(self):
        f = make_field(11)
        msg = [7, 2]
        code = rs_encode(f, msg, 6)
        sets = [{c.value} for c in code]
        hits = rs_list_recover_bruteforce(f, sets, 2, 6)
        assert [[e.value for e in m] for m in hits] == [msg]

    def test_threshold_zero_returns_whole_message_space(self):
        f = make_field(4)
        hits = rs_list_recover_bruteforce(f, [set(), set()], 1, 0)
        assert len(hits) == 4

    def test_guard_trips_on_large_search(self):
        f = make_field(16)
        with pytest.raises(GuardExceeded):
            rs_list_recover_bruteforce(f, [set()] * 8, 7, 1)

    def test_two_codewords_can_share_the_list(self):
        f = make_field(5)
        a = rs_encode(f, [1], 4)
        b = rs_encode(f, [2], 4)
        sets = [{a[i].value, b[i].value} for i in range(4)]
        hits = rs_list_recover_bruteforce(f, sets, 1, 4)
        assert sorted(m[0].value for m in hits) == [1, 2]

    def test_sampled_noise_still_finds_truth(self):
        rng = random.Random(9)
        f = make_field(11)
        msg = [5, 9, 1]
        code = rs_encode(f, msg, 8)
        sets = []
        for c in code:
            s = {c.value}
            while len(s) < 3:
                s.add(rng.randrange(11))
            sets.append(s)
        hits = rs_list_recover_bruteforce(f, sets, 3, 8)
        values = [[e.value for e in m] for m in hits]
        assert msg in values
