"""Buffered dense-code scheme: derivations, window cutting, attack pricing,
and the decode pipeline at desk scale."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.channel import DeletionPattern, apply_deletions
from delcodes.common import Profile
from delcodes.errors import (
    DecodeFailure,
    InfeasibleAtDeskScale,
    InvalidOverride,
    LengthMismatch,
    NotBinary,
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
from delcodes.innercode import inner_encode
from delcodes.presets import make_scheme_spec
from delcodes.seqkit import Word, runs_of_zero

F = Fraction


def bits(text):
    return Word(tuple(int(c) for c in text), 2)


@pytest.fixture(scope="module")
def thr3_spec():
    # single-codeword book is fine: window cutting only reads run_threshold
    return br_make_spec(F(1, 64), 2, 1,
                        overrides={"delta": F(1, 2), "m": 12, "n": 2, "n_prime": 1})


class TestDerive:
    def test_forty_root_eps(self):
        d = br_derive(F(1, 10000), 2, 1)
        assert d["delta"] == F(2, 5)
        assert d["beta"] == F(1, 10)

    def test_margin_covers_all_error_worst_case(self):
        d = br_derive(F(1, 10000), 50, 1)
        # 24*sqrt(eps)*n = 24*(1/100)*50 = 12
        assert d["margin"] == 12
        assert d["n_prime"] == 38

    def test_epsilon_bounds(self):
        for bad in (0, 1, F(3, 2)):
            with pytest.raises(OutOfRange):
                br_derive(bad, 4, 1)

    def test_exact_square_roots_stay_rational(self):
        assert frac_sqrt(F(1, 4)) == F(1, 2)
        assert frac_sqrt(F(9, 16)) == F(3, 4)


class TestMakeSpec:
    def test_desk_consistency_example_builds_even_when_starved(self):
        spec = br_make_spec(F(1, 64), 5, 1, overrides={
            "delta": F(1, 2), "beta": F(1, 8), "m": 16, "n": 5, "n_prime": 2})
        assert spec.buffer_len == 8
        assert spec.run_threshold == 4
        # two beta-dense length-16 words would share 1^8, beyond the
        # separation threshold; the book stops at one and says so
        assert len(spec.inner.codewords) == 1
        assert not spec.full_book

    def test_paper_profile_rejects_delta_at_or_above_one(self):
        for eps in (F(1, 1600), F(1, 4)):
            with pytest.raises(OutOfRange, match="use DESK"):
                br_make_spec(eps, 4, 1, Profile.PAPER_ASYMPTOTIC, {"m": 40})

    def test_paper_profile_reports_starved_book_as_infeasible(self):
        with pytest.raises(InfeasibleAtDeskScale):
            br_make_spec(F(1, 10000), 2, 1, Profile.PAPER_ASYMPTOTIC, {"m": 12})

    def test_block_length_is_mandatory(self):
        with pytest.raises(InvalidOverride, match="m must be supplied"):
            br_make_spec(F(1, 100), 4, 1)

    def test_buffer_below_run_threshold_rejected(self):
        with pytest.raises(OutOfRange, match="run threshold"):
            br_make_spec(F(1, 64), 2, 1, overrides={
                "delta": F(1, 2), "m": 12, "n": 2, "n_prime": 1,
                "buffer_len": 2})

    def test_paper_profile_rejects_shape_overrides(self):
        with pytest.raises(InvalidOverride):
            br_make_spec(F(1, 10000), 2, 1, Profile.PAPER_ASYMPTOTIC,
                         {"m": 12, "delta": F(1, 3)})

    def test_desk_preset_shape(self, br_desk):
        spec = br_desk
        assert spec.epsilon == F(7, 372)
        assert spec.delta == F(5, 84)
        assert (spec.m, spec.buffer_len, spec.n, spec.n_prime) == (84, 12, 4, 1)
        assert spec.run_threshold == 3
        assert spec.full_book
        assert len(spec.inner.codewords) == 16

    def test_desk_preset_codewords_are_buffer_safe(self, br_desk):
        thr = br_desk.run_threshold
        for w in br_desk.inner.codewords:
            assert w.symbols[0] == 1 and w.symbols[-1] == 1
            assert runs_of_zero(w, thr) == []

    def test_guarantee_prices_exceed_budget(self, br_desk):
        rep = br_guarantee_report(br_desk)
        budget = int(br_desk.epsilon * br_desk.encoded_length)
        assert budget == 7
        assert rep["kill_cost"] == 10
        assert rep["split_cost"] == 8
        assert rep["erase_cost"] == 4
        assert min(rep["kill_cost"], rep["split_cost"]) > budget

    def test_rate_report_factors(self, br_desk):
        rep = br_rate_report(br_desk)
        assert 0 < rep["rate"] < 1
        assert 0 < rep["buffer_factor_claimed"] < 1
        assert rep["outer_factor_achieved"] == pytest.approx(1 / 8)

    def test_cache_roundtrip_and_shape_guard(self, tmp_path, br_desk):
        path = tmp_path / "dense.txt"
        spec = make_scheme_spec("hirate", cache_path=path)
        assert spec.inner.codewords == br_desk.inner.codewords
        again = make_scheme_spec("hirate", cache_path=path)
        assert again.inner.codewords == br_desk.inner.codewords
        with pytest.raises(InvalidOverride, match="different codebook shape"):
            make_scheme_spec("hirate", overrides={"m": 80}, cache_path=path)


class TestEncode:
    def test_single_block_has_no_buffer(self):
        spec = br_make_spec(F(1, 64), 2, 1,
                            overrides={"delta": F(1, 2), "m": 8,
                                       "n": 1, "n_prime": 1})
        word = br_encode(spec, [0])
        assert len(word) == spec.m
        assert word == inner_encode(spec.inner, 0)

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
        code = rs_encode(spec.rs.field, msg, spec.n)
        word = br_encode(spec, msg)
        stride = spec.m + spec.buffer_len
        for i, c in enumerate(code):
            seg = word.symbols[i * stride: i * stride + spec.m]
            cw = inner_encode(spec.inner, spec.pair_index(i, c.value))
            assert seg == cw.symbols

    def test_wrong_message_length(self, br_desk):
        with pytest.raises(LengthMismatch):
            br_encode(br_desk, [0, 0])

    def test_starved_book_fails_per_pair(self):
        spec = br_make_spec(F(1, 64), 5, 1, overrides={
            "delta": F(1, 2), "beta": F(1, 8), "m": 16, "n": 5, "n_prime": 2})
        with pytest.raises(InfeasibleAtDeskScale):
            br_encode(spec, [0, 0])


class TestWindows:
    def test_single_internal_buffer(self, thr3_spec):
        wins = br_windows(thr3_spec, bits("111" + "000000" + "101"))
        assert [(w.start, w.symbols) for w in wins] == [
            (0, (1, 1, 1)), (9, (1, 0, 1))]

    def test_all_zeros_yield_nothing(self, thr3_spec):
        assert br_windows(thr3_spec, bits("0" * 10)) == []

    def test_leading_zeros_trimmed(self, thr3_spec):
        wins = br_windows(thr3_spec, bits("00111"))
        assert [(w.start, w.symbols) for w in wins] == [(2, (1, 1, 1))]

    def test_trailing_zeros_trimmed(self, thr3_spec):
        wins = br_windows(thr3_spec, bits("1110"))
        assert [(w.start, w.symbols) for w in wins] == [(0, (1, 1, 1))]

    def test_run_at_threshold_cuts_but_shorter_does_not(self, thr3_spec):
        cut = br_windows(thr3_spec, bits("11" + "000" + "11"))
        assert [w.symbols for w in cut] == [(1, 1), (1, 1)]
        kept = br_windows(thr3_spec, bits("11" + "00" + "11"))
        assert [w.symbols for w in kept] == [(1, 1, 0, 0, 1, 1)]

    def test_empty_word(self, thr3_spec):
        assert br_windows(thr3_spec, bits("")) == []

    def test_non_binary_rejected(self, thr3_spec):
        with pytest.raises(NotBinary):
            br_windows(thr3_spec, Word((0, 2), 3))

    @given(st.lists(st.integers(0, 1), max_size=60))
    @settings(max_examples=120)
    def test_windows_are_clean_ordered_segments(self, thr3_spec, syms):
        w = Word(tuple(syms), 2)
        wins = br_windows(thr3_spec, w)
        thr = thr3_spec.run_threshold
        pos = -1
        for win in wins:
            assert win.start > pos
            pos = win.start + len(win.symbols) - 1
            assert win.symbols == w.symbols[win.start:win.start + len(win.symbols)]
            assert runs_of_zero(Word(win.symbols, 2), thr) == []
        if wins:
            assert wins[0].symbols[0] == 1
            assert wins[-1].symbols[-1] == 1


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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoder_is_total(self, br_desk, data):
        # Any received word, empty included: a result or DecodeFailure.
        syms = data.draw(st.lists(st.integers(0, 1),
                                  max_size=br_desk.encoded_length))
        try:
            br_decode(br_desk, Word(tuple(syms), 2))
        except DecodeFailure:
            pass


class TestBinaryWordIO:
    def test_ascii_roundtrip(self):
        w = bits("10110")
        assert w.digits() == "10110"
        assert Word.from_digits("10110", 2) == w

    @given(st.lists(st.integers(0, 1), max_size=70))
    def test_roundtrips_agree(self, symbols):
        w = Word(tuple(symbols), 2)
        assert Word.from_digits(w.digits(), 2) == w
