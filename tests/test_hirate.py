"""Buffered dense-code scheme: derivations, window cutting, attack pricing,
and the decode pipeline at desk scale."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes import hirate, innercode
from delcodes.channel import DeletionPattern, apply_deletions
from delcodes.common import Profile
from delcodes.errors import (
    InfeasibleAtDeskScale,
    InvalidOverride,
    OutOfRange,
)
from delcodes.hirate import (
    br_decode,
    br_derive,
    br_encode,
    br_guarantee_report,
    br_make_spec,
    br_rate_report,
    br_windows,
    frac_sqrt,
)
from delcodes.presets import make_scheme_spec
from delcodes.seqkit import Word
from oracles import erase_cost_oracle

F = Fraction


def bits(text):
    return Word(tuple(int(c) for c in text), 2)


@pytest.fixture(scope="module")
def thr3_spec(br_desk):
    # window cutting only reads run_threshold, which is 3 on the desk preset
    assert br_desk.run_threshold == 3
    return br_desk


class TestDerive:
    def test_forty_root_eps(self, br_desk):
        d = br_derive(F(1, 10000), 2)
        assert d["delta"] == F(2, 5)
        # beta defaults to delta / 4 of the possibly overridden delta
        assert br_desk.inner.beta == br_desk.inner.delta / 4

    def test_margin_covers_all_error_worst_case(self):
        d = br_derive(F(1, 10000), 50)
        # 24*sqrt(eps)*n = 24*(1/100)*50 = 12
        assert d["n"] - d["n_prime"] == 12
        assert d["n_prime"] == 38

    def test_epsilon_bounds(self):
        for bad in (0, 1, F(3, 2)):
            with pytest.raises(OutOfRange):
                br_derive(bad, 4)

    def test_exact_square_roots_stay_rational(self):
        assert frac_sqrt(F(1, 4)) == F(1, 2)
        assert frac_sqrt(F(9, 16)) == F(3, 4)


class TestMakeSpec:
    def test_desk_starved_book_is_infeasible(self):
        # two beta-dense length-16 words would share 1^8, beyond the
        # separation threshold; the book stops at one of 25, so no spec
        # is built
        with pytest.raises(InfeasibleAtDeskScale,
                           match=r"reached 1 of 25 codewords after all 2\^16"):
            br_make_spec(F(1, 64), 5, overrides={
                "delta": F(1, 2), "beta": F(1, 8), "m": 16, "n": 5,
                "n_prime": 2})

    def test_buffer_defaults_to_delta_m(self):
        # the desk preset without its buffer_len override
        spec = br_make_spec(F(7, 372), 4, overrides={
            "m": 84, "delta": F(5, 84), "n": 4, "n_prime": 1, "zeros": 14,
            "min_gap": 4, "seed": 3})
        assert spec.buffer_len == 5  # ceil(delta * m)
        assert spec.run_threshold == 3  # ceil(delta * m / 2)

    def test_paper_profile_rejects_delta_at_or_above_one(self):
        for eps in (F(1, 1600), F(1, 4)):
            with pytest.raises(OutOfRange, match="use DESK"):
                br_make_spec(eps, 4, Profile.PAPER_ASYMPTOTIC, {"m": 40})

    def test_paper_profile_reports_starved_book_as_infeasible(self):
        with pytest.raises(InfeasibleAtDeskScale,
                           match=r"reached 2 of 4 codewords after all 2\^12"):
            br_make_spec(F(1, 10000), 2, Profile.PAPER_ASYMPTOTIC, {"m": 12})

    @pytest.mark.parametrize("shape", [
        {"n": 2, "n_prime": 3},  # n_prime > n
        {"n": 5, "n_prime": 1},  # n > q
    ])
    def test_outer_shape_checked_before_the_build(self, monkeypatch, shape):
        def refuse(*args, **kwargs):
            raise AssertionError("inner book built")
        monkeypatch.setattr(innercode, "_build", refuse)
        with pytest.raises(OutOfRange):
            br_make_spec(F(1, 64), 4, overrides={
                "h": 2, "delta": F(1, 2), "m": 12, **shape})

    def test_block_length_is_mandatory(self):
        with pytest.raises(InvalidOverride, match="m must be supplied"):
            br_make_spec(F(1, 100), 4)

    def test_buffer_below_run_threshold_rejected(self):
        with pytest.raises(OutOfRange, match="run threshold"):
            br_make_spec(F(1, 64), 2, overrides={
                "delta": F(1, 2), "m": 12, "n": 2, "n_prime": 1,
                "buffer_len": 2})

    def test_paper_profile_rejects_shape_overrides(self):
        with pytest.raises(InvalidOverride):
            br_make_spec(F(1, 10000), 2, Profile.PAPER_ASYMPTOTIC,
                         {"m": 12, "delta": F(1, 3)})

    def test_desk_preset_shape(self, br_desk):
        spec = br_desk
        assert spec.epsilon == F(7, 372)
        assert spec.inner.delta == F(5, 84)
        assert (spec.m, spec.buffer_len, spec.n, spec.n_prime) == (84, 12, 4, 1)
        assert spec.encoded_length == 372
        assert spec.run_threshold == 3
        assert len(spec.inner.codewords) == spec.n * spec.rs.field.order == 16

    def test_desk_preset_codewords_are_buffer_safe(self, br_desk):
        thr = br_desk.run_threshold
        for w in br_desk.inner.codewords:
            assert w.symbols[0] == 1 and w.symbols[-1] == 1
            assert b"\0" * thr not in bytes(w.symbols)

    def test_guarantee_prices_exceed_budget(self, br_desk):
        rep = br_guarantee_report(br_desk)
        budget = int(br_desk.epsilon * br_desk.encoded_length)
        assert budget == 7
        assert rep["kill_cost"] == 10
        assert rep["split_cost"] == 8
        assert rep["erase_cost"] == 4
        assert min(rep["kill_cost"], rep["split_cost"]) > budget

    def test_erase_cost_matches_exhaustive_oracle(self):
        # every word of length 2 to 10 that starts and ends with 1, as a
        # DENSE codeword does, at every loss from 1 to its length
        for m in range(2, 11):
            for body in itertools.product((0, 1), repeat=m - 2):
                word = (1, *body, 1)
                zpos = [i for i, s in enumerate(word) if s == 0]
                for loss in range(1, m + 1):
                    assert (hirate._erase_cost(zpos, m, loss)
                            == erase_cost_oracle(word, loss)), (word, loss)

    def test_rate_report_factors(self, br_desk):
        rep = br_rate_report(br_desk)
        assert 0 < rep["rate"] < 1
        assert 0 < rep["buffer_factor_claimed"] < 1
        assert rep["outer_factor_achieved"] == pytest.approx(1 / 8)


class TestEncode:
    def test_single_block_has_no_buffer(self):
        spec = make_scheme_spec("hirate", overrides={"n": 1, "n_prime": 1})
        word = br_encode(spec, [0])
        assert len(word) == spec.m
        assert word == spec.inner.codewords[0]

    def test_desk_layout(self, br_desk):
        spec = br_desk
        word = br_encode(spec, [2])
        assert len(word) == spec.n * spec.m + (spec.n - 1) * spec.buffer_len
        assert len(word) == spec.encoded_length == 372
        stride = spec.m + spec.buffer_len
        for i in range(spec.n - 1):
            gap = word.symbols[i * stride + spec.m: (i + 1) * stride]
            assert gap == (0,) * spec.buffer_len

    def test_blocks_are_pair_codewords(self, br_desk):
        spec = br_desk
        from delcodes.rsouter import rs_encode
        msg = [3]
        code = rs_encode(spec.rs, msg)
        word = br_encode(spec, msg)
        stride = spec.m + spec.buffer_len
        for i, c in enumerate(code):
            seg = word.symbols[i * stride: i * stride + spec.m]
            cw = spec.inner.codewords[i * spec.q + c]
            assert seg == cw.symbols


class TestWindows:
    def test_single_internal_buffer(self, thr3_spec):
        wins = br_windows(thr3_spec, bits("111" + "000000" + "101"))
        assert wins == [bits("111").symbols, bits("101").symbols]

    def test_all_zeros_yield_nothing(self, thr3_spec):
        assert br_windows(thr3_spec, bits("0" * 10)) == []

    def test_leading_zeros_trimmed(self, thr3_spec):
        assert br_windows(thr3_spec, bits("00111")) == [bits("111").symbols]

    def test_trailing_zeros_trimmed(self, thr3_spec):
        assert br_windows(thr3_spec, bits("1110")) == [bits("111").symbols]

    def test_run_at_threshold_cuts_but_shorter_does_not(self, thr3_spec):
        cut = br_windows(thr3_spec, bits("11" + "000" + "11"))
        assert cut == [bits("11").symbols, bits("11").symbols]
        kept = br_windows(thr3_spec, bits("11" + "00" + "11"))
        assert kept == [bits("110011").symbols]

    def test_empty_word(self, thr3_spec):
        assert br_windows(thr3_spec, bits("")) == []

    @given(st.lists(st.integers(0, 1), max_size=60))
    @settings(max_examples=120)
    def test_windows_are_clean_ordered_segments(self, thr3_spec, syms):
        # The word must read as zeros, window, a cut of at least threshold
        # zeros, window, ..., window, zeros; each window starts and ends
        # with 1 and holds no cut-length zero run.
        w = Word(tuple(syms), 2)
        wins = br_windows(thr3_spec, w)
        thr = thr3_spec.run_threshold
        pos = 0
        for i, win in enumerate(wins):
            gap = 0
            while w.symbols[pos + gap] == 0:
                gap += 1
            if i:
                assert gap >= thr
            pos += gap
            assert win == w.symbols[pos:pos + len(win)]
            assert win[0] == win[-1] == 1
            assert b"\0" * thr not in bytes(win)
            pos += len(win)
        assert set(w.symbols[pos:]) <= {0}


class TestDecode:
    def test_clean_roundtrip_all_field_values(self, br_desk):
        spec = br_desk
        for v in range(spec.rs.field.order):
            res = br_decode(spec, br_encode(spec, [v]))
            assert [e.value for e in res.message] == [v]
            t = res.telemetry
            assert t.window_count == spec.n
            assert t.inner_successes == spec.n
            assert t.erasures == 0

    def test_window_count_inside_lemma_bracket_when_clean(self, br_desk):
        spec = br_desk
        res = br_decode(spec, br_encode(spec, [1]))
        root = float(frac_sqrt(spec.epsilon))
        w = res.telemetry.window_count
        assert (1 - 2 * root) * spec.n <= w <= (1 + 2 * root) * spec.n

    def test_budget_of_deletions_inside_one_buffer(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [2])
        start = spec.m  # first buffer
        pattern = DeletionPattern(tuple(range(start, start + 7)))
        res = br_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == [2]
        # 5 zeros remain, still at or past the run threshold
        assert res.telemetry.window_count == spec.n

    def test_budget_of_deletions_inside_one_block(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [3])
        pattern = DeletionPattern(tuple(range(10, 17)))
        res = br_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == [3]

    def test_whole_block_and_buffer_loss_costs_erasures_not_failure(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [1])
        # beyond budget on purpose: drop block 0 plus its trailing buffer
        pattern = DeletionPattern(tuple(range(spec.m + spec.buffer_len)))
        res = br_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == [1]
        assert res.telemetry.erasures >= 1

    def test_window_in_several_codewords_is_an_inner_failure(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [2])
        # a lone 1 after a buffer: every codeword begins with 1
        rec = Word(sent.symbols + (0,) * spec.buffer_len + (1,), 2)
        res = br_decode(spec, rec)
        assert [e.value for e in res.message] == [2]
        t = res.telemetry
        assert t.window_count == spec.n + 1
        assert t.inner_failures == 1
        assert t.inner_successes == spec.n
        assert t.erasures == 0

    def test_two_votes_for_one_position_are_a_conflict(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [2])
        other = spec.inner.codewords[0 * spec.q + 3].symbols
        rec = Word(sent.symbols + (0,) * spec.buffer_len + other, 2)
        res = br_decode(spec, rec)
        assert [e.value for e in res.message] == [2]
        t = res.telemetry
        assert t.inner_successes == spec.n + 1
        assert {(0, 2), (0, 3)} <= set(t.pairs)
        assert t.conflicts_removed == 1
        assert t.erasures == 1

    def test_lost_block_is_one_erasure(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [1])
        # block 1 and the buffer after it
        start = spec.m + spec.buffer_len
        pattern = DeletionPattern(
            tuple(range(start, start + spec.m + spec.buffer_len)))
        res = br_decode(spec, apply_deletions(sent, pattern))
        assert [e.value for e in res.message] == [1]
        t = res.telemetry
        assert t.window_count == spec.n - 1
        assert t.inner_failures == 0
        assert t.conflicts_removed == 0
        assert t.erasures == 1


class TestBinaryWordIO:
    def test_ascii_roundtrip(self):
        w = bits("10110")
        assert w.symbols == (1, 0, 1, 1, 0)
        assert Word.from_digits("10110", 2) == w
