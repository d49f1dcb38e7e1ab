"""Window-grid list decoding: spec derivation, the window arithmetic, the
candidate pipeline, and exhaustive containment at desk scale."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.channel import DeletionPattern, apply_deletions
from delcodes.common import Profile
from delcodes.errors import (
    AlphabetMismatch,
    DecodeFailure,
    InfeasibleAtDeskScale,
    InvalidOverride,
    LengthMismatch,
    OutOfRange,
)
from delcodes.innercode import inner_decode_list, inner_encode
from delcodes.listdec import (
    CandidateList,
    ld_decode,
    ld_encode,
    ld_make_spec,
    ld_report,
    ld_windows,
)
from delcodes.presets import make_scheme_spec
from delcodes.rsouter import rs_encode
from delcodes.seqkit import Word

F = Fraction


def message_values(result):
    return {tuple(e.value for e in m) for m in result.messages}


@pytest.fixture(scope="module")
def grid_spec():
    # delta m = ceil(0.5) = 1, window ceil(6) = 6: the unit-step grid
    return ld_make_spec(F(1, 5), (2, 2, 1),
                        overrides={"delta": F(1, 22), "m": 11, "seed": 1})


@pytest.fixture(scope="module")
def eps8_spec():
    # agree threshold 1, budget floor((1/2 - 1/8)*24) = 9 >= one whole block
    return ld_make_spec(F(1, 8), (5, 3, 1), overrides={"m": 8, "seed": 11})


class TestMakeSpec:
    def test_paper_derivation(self):
        spec = make_scheme_spec("listdec", profile=Profile.PAPER_ASYMPTOTIC)
        assert spec.epsilon == F(1, 5)
        assert spec.delta == F(1, 20)
        assert spec.window_len == 5  # ceil(0.55 * 8)
        assert spec.window_step == 1
        assert spec.inner.list_size == 400  # ceil(1/delta^2)
        assert spec.ell == 8000

    def test_desk_preset_shape(self, ld_desk):
        spec = ld_desk
        assert spec.epsilon == F(5, 12)
        assert spec.delta == F(1, 4)
        assert (spec.m, spec.n_out, spec.k_out, spec.q) == (8, 3, 1, 5)
        assert spec.alpha == spec.epsilon
        assert spec.agree_count == 2
        assert spec.window_len == 6
        assert spec.window_step == 2
        assert spec.delta_inner == F(1, 4)
        assert spec.encoded_length == 24
        assert spec.full_book
        assert len(spec.inner.codewords) == 15

    def test_epsilon_range(self):
        for bad in (F(1, 2), F(3, 4), 0, F(-1, 5)):
            with pytest.raises(OutOfRange, match="out of theorem range"):
                ld_make_spec(bad, (5, 3, 1), overrides={"m": 8})

    def test_block_length_is_mandatory(self):
        with pytest.raises(InvalidOverride, match="m must be supplied"):
            ld_make_spec(F(1, 5), (5, 3, 1))

    def test_paper_profile_rejects_shape_overrides(self):
        with pytest.raises(InvalidOverride):
            ld_make_spec(F(1, 5), (5, 3, 1), Profile.PAPER_ASYMPTOTIC,
                         {"m": 8, "delta": F(1, 8)})

    def test_outer_message_space_guarded(self):
        with pytest.raises(InfeasibleAtDeskScale):
            ld_make_spec(F(1, 5), (16, 10, 7), overrides={"m": 8})

    def test_outer_dimension_chain(self):
        with pytest.raises(OutOfRange):
            ld_make_spec(F(1, 5), (5, 6, 1), overrides={"m": 8})
        with pytest.raises(OutOfRange):
            ld_make_spec(F(1, 5), (5, 3, 4), overrides={"m": 8})

    def test_report_exposes_recovery_recipe(self, ld_desk):
        rep = ld_report(ld_desk)
        assert rep["alpha"] == pytest.approx(5 / 12)
        assert rep["agree_count"] == 2
        assert rep["inner_list_size"] == 4
        assert rep["candidate_budget"] == ld_desk.ell * ld_desk.n_out
        assert rep["recipe_s"] >= 1
        assert isinstance(rep["recipe_threshold_met"], bool)

    def test_cache_roundtrip_and_shape_guard(self, tmp_path, ld_desk):
        path = tmp_path / "ld.txt"
        spec = make_scheme_spec("listdec", cache_path=path)
        assert spec.inner.codewords == ld_desk.inner.codewords
        again = make_scheme_spec("listdec", cache_path=path)
        assert again.inner.codewords == ld_desk.inner.codewords
        with pytest.raises(InvalidOverride, match="different codebook shape"):
            make_scheme_spec("listdec", overrides={"m": 10}, cache_path=path)


class TestEncode:
    def test_blocks_are_pair_codewords(self, ld_desk):
        spec = ld_desk
        msg = [3]
        code = rs_encode(spec.rs.field, msg, spec.n_out)
        word = ld_encode(spec, msg)
        assert len(word) == spec.encoded_length
        for i, c in enumerate(code):
            seg = word.symbols[i * spec.m:(i + 1) * spec.m]
            cw = inner_encode(spec.inner, spec.pair_index(i, c.value))
            assert seg == cw.symbols

    def test_single_outer_position(self):
        spec = ld_make_spec(F(1, 5), (2, 1, 1),
                            overrides={"delta": F(1, 4), "m": 8,
                                       "list_size": 4, "seed": 11})
        word = ld_encode(spec, [1])
        assert len(word) == spec.m
        assert word == inner_encode(spec.inner, spec.pair_index(0, 1))
        assert (1,) in message_values(ld_decode(spec, word))

    def test_wrong_message_length(self, ld_desk):
        with pytest.raises(LengthMismatch):
            ld_encode(ld_desk, [0, 0])


class TestWindows:
    def test_unit_step_grid_on_twenty_symbols(self, grid_spec):
        received = Word((1, 0) * 10, 2)
        wins = ld_windows(grid_spec, received)
        assert [s for s, _ in wins] == list(range(15))
        assert all(len(w) == 6 for _, w in wins)

    def test_received_equal_to_window_length(self, grid_spec):
        received = Word((1,) * 6, 2)
        wins = ld_windows(grid_spec, received)
        assert [(s, w.symbols) for s, w in wins] == [(0, (1,) * 6)]

    def test_short_received_is_one_whole_window(self, grid_spec):
        received = Word((1, 0, 1), 2)
        assert ld_windows(grid_spec, received) == [(0, received)]

    def test_final_suffix_window_added_off_grid(self, ld_desk):
        # step 2, len 23: grid starts 0..16, suffix start 17 appended
        received = Word(tuple(itertools.islice(itertools.cycle((1, 0)), 23)), 2)
        starts = [s for s, _ in ld_windows(ld_desk, received)]
        assert starts == [0, 2, 4, 6, 8, 10, 12, 14, 16, 17]

    def test_grid_landing_on_suffix_not_duplicated(self, ld_desk):
        received = Word((0, 1) * 12, 2)
        starts = [s for s, _ in ld_windows(ld_desk, received)]
        assert starts == [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]

    def test_non_binary_rejected(self, ld_desk):
        with pytest.raises(AlphabetMismatch):
            ld_windows(ld_desk, Word((0, 2), 3))

    @given(st.integers(0, 40))
    @settings(max_examples=60)
    def test_windows_tile_the_received_word(self, ld_desk, length):
        received = Word(tuple(i % 2 for i in range(length)), 2)
        wins = ld_windows(ld_desk, received)
        assert wins, "at least the whole-word window"
        w = ld_desk.window_len
        for s, win in wins:
            assert win.symbols == received.symbols[s:s + len(win)]
        if length >= w:
            assert all(len(win) == w for _, win in wins)
            assert wins[-1][0] == length - w  # suffix coverage
        else:
            assert wins == [(0, received)]


class TestCandidates:
    def test_sets_mirror_pairs(self):
        cl = CandidateList(3, ((0, 1), (0, 4), (2, 2)))
        sets = cl.per_index_sets
        assert sets[0] == frozenset({1, 4})
        assert sets[1] == frozenset()
        assert sets[2] == frozenset({2})
        assert cl.total_size == 3

    def test_clean_word_votes_its_own_pairs(self, ld_desk):
        spec = ld_desk
        msg = [4]
        code = rs_encode(spec.rs.field, msg, spec.n_out)
        res = ld_decode(spec, ld_encode(spec, msg))
        pairs = set(res.telemetry.candidates.pairs)
        for i, c in enumerate(code):
            assert (i, c.value) in pairs


class TestDecode:
    def test_exhaustive_containment_within_budget(self, ld_desk):
        spec = ld_desk
        budget = int((F(1, 2) - spec.epsilon) * spec.encoded_length)
        assert budget == 2
        n = spec.encoded_length
        patterns = [()]
        patterns += [(i,) for i in range(n)]
        patterns += list(itertools.combinations(range(n), 2))
        worst = 0
        for v in range(spec.q):
            sent = ld_encode(spec, [v])
            for p in patterns:
                res = ld_decode(spec, apply_deletions(sent, DeletionPattern(p)))
                assert (v,) in message_values(res)
                assert res.telemetry.max_inner_list <= spec.inner.list_size - 1
                worst = max(worst, res.telemetry.output_size)
        assert worst <= spec.rs.field.order ** spec.k_out

    def test_whole_block_deletion_still_contained(self, eps8_spec):
        spec = eps8_spec
        budget = int((F(1, 2) - spec.epsilon) * spec.encoded_length)
        assert budget >= spec.m
        for v in range(spec.q):
            sent = ld_encode(spec, [v])
            for b in range(spec.n_out):
                pat = DeletionPattern(tuple(range(b * spec.m, (b + 1) * spec.m)))
                res = ld_decode(spec, apply_deletions(sent, pat))
                assert (v,) in message_values(res)

    def test_light_block_surfaces_its_pair_through_some_window(self, eps8_spec):
        # a block with at most (1/2 - 2*delta)m deletions must contribute
        # its true pair to the candidate union
        spec = eps8_spec
        light_cap = int((F(1, 2) - 2 * spec.delta) * spec.m)
        assert light_cap == 3
        msg = [2]
        code = rs_encode(spec.rs.field, msg, spec.n_out)
        sent = ld_encode(spec, msg)
        for block in range(spec.n_out):
            base = block * spec.m
            for pat in itertools.combinations(range(base, base + spec.m), light_cap):
                received = apply_deletions(sent, DeletionPattern(pat))
                found = set()
                for _, win in ld_windows(spec, received):
                    for idx in inner_decode_list(spec.inner, win):
                        if idx < spec.pair_count:
                            found.add(spec.pair_of_index(idx))
                assert (block, code[block].value) in found

    def test_decode_on_empty_received(self, ld_desk):
        res = ld_decode(ld_desk, Word((), 2))
        # empty window matches every codeword; recovery may return many
        # messages but must not fail
        assert res.telemetry.window_count == 1

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_decoder_is_total(self, ld_desk, data):
        # Any received word, empty included: a result or DecodeFailure.
        syms = data.draw(st.lists(st.integers(0, 1),
                                  max_size=ld_desk.encoded_length))
        try:
            ld_decode(ld_desk, Word(tuple(syms), 2))
        except DecodeFailure:
            pass
