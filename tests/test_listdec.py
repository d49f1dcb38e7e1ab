"""Window-grid list decoding: spec derivation, the window arithmetic, the
candidate pipeline, and exhaustive containment at desk scale."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.channel import DeletionPattern, apply_deletions
from delcodes.common import Profile
from delcodes.errors import (
    InfeasibleAtDeskScale,
    InvalidOverride,
    OutOfRange,
)
from delcodes.innercode import inner_decode_list
from delcodes.listdec import (
    ld_decode,
    ld_encode,
    ld_make_spec,
    ld_report,
    ld_windows,
)
from delcodes.presets import PRESETS
from delcodes.rsouter import candidate_sets, rs_encode
from delcodes.seqkit import Word

F = Fraction


def message_values(result):
    return {tuple(e.value for e in m) for m in result.messages}


@pytest.fixture(scope="module")
def grid_spec():
    # delta m = ceil(0.5) = 1, window ceil(6) = 6: the unit-step grid
    return ld_make_spec(F(1, 5), 2, overrides={
        "n": 2, "n_prime": 1, "delta": F(1, 22), "m": 11, "seed": 1})


@pytest.fixture(scope="module")
def eps8_spec():
    # agree threshold 1, budget floor((1/2 - 1/8)*24) = 9 >= one whole block
    return ld_make_spec(F(1, 8), 5, overrides={
        "n": 3, "n_prime": 1, "m": 8, "seed": 11})


class TestMakeSpec:
    def test_paper_derivation(self):
        # The paper preset's list size, 400, exceeds its 12-word book, so
        # PAPER refuses it; DESK derives the same parameters and builds it.
        preset = PRESETS[("listdec", Profile.PAPER_ASYMPTOTIC)]
        args = preset["epsilon"], preset["q"]
        with pytest.raises(InfeasibleAtDeskScale, match="400 exceeds the 12"):
            ld_make_spec(*args, Profile.PAPER_ASYMPTOTIC, preset["overrides"])
        spec = ld_make_spec(*args, Profile.DESK, preset["overrides"])
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
        assert (spec.m, spec.n, spec.n_prime, spec.q) == (8, 3, 1, 5)
        assert spec.agree_count == 2
        assert spec.window_len == 6
        assert spec.window_step == 2
        assert spec.encoded_length == 24
        assert len(spec.inner.codewords) == spec.n * spec.q == 15

    def test_epsilon_range(self):
        for bad in (F(1, 2), F(3, 4), 0, F(-1, 5)):
            with pytest.raises(OutOfRange, match="out of theorem range"):
                ld_make_spec(bad, 5, overrides={"n": 3, "n_prime": 1, "m": 8})

    def test_block_length_is_mandatory(self):
        with pytest.raises(InvalidOverride, match="m must be supplied"):
            ld_make_spec(F(1, 5), 5, overrides={"n": 3, "n_prime": 1})

    def test_outer_shape_is_mandatory(self):
        # listdec derives no outer shape, so neither profile has a default
        for profile in Profile:
            with pytest.raises(InvalidOverride, match="n must be supplied"):
                ld_make_spec(F(1, 5), 5, profile, {"m": 8, "n_prime": 1})

    def test_paper_profile_rejects_shape_overrides(self):
        with pytest.raises(InvalidOverride):
            ld_make_spec(F(1, 5), 5, Profile.PAPER_ASYMPTOTIC,
                         {"n": 3, "n_prime": 1, "m": 8, "delta": F(1, 8)})

    def test_outer_message_space_guarded(self):
        with pytest.raises(InfeasibleAtDeskScale):
            ld_make_spec(F(1, 5), 16, overrides={"n": 10, "n_prime": 7, "m": 8})

    def test_outer_dimension_chain(self):
        with pytest.raises(OutOfRange):
            ld_make_spec(F(1, 5), 5, overrides={"n": 6, "n_prime": 1, "m": 8})
        with pytest.raises(OutOfRange):
            ld_make_spec(F(1, 5), 5, overrides={"n": 3, "n_prime": 4, "m": 8})

    def test_report_exposes_recovery_recipe(self, ld_desk):
        rep = ld_report(ld_desk)
        assert rep["alpha"] == pytest.approx(5 / 12)
        assert rep["agree_count"] == 2
        assert rep["inner_list_size"] == 4
        assert rep["candidate_budget"] == ld_desk.ell * ld_desk.n
        # q^n_prime = 5: a list of every message would still hold the truth
        assert rep["message_space"] == 5
        assert rep["recipe_s"] >= 1
        assert isinstance(rep["recipe_threshold_met"], bool)


class TestEncode:
    def test_blocks_are_pair_codewords(self, ld_desk):
        spec = ld_desk
        msg = [3]
        code = rs_encode(spec.rs, msg)
        word = ld_encode(spec, msg)
        assert len(word) == spec.encoded_length
        for i, c in enumerate(code):
            seg = word.symbols[i * spec.m:(i + 1) * spec.m]
            cw = spec.inner.codewords[i * spec.q + c]
            assert seg == cw.symbols

    def test_single_outer_position(self):
        spec = ld_make_spec(F(1, 5), 2, overrides={
            "n": 1, "n_prime": 1, "delta": F(1, 4), "m": 8, "list_size": 4,
            "seed": 11})
        word = ld_encode(spec, [1])
        assert len(word) == spec.m
        assert word == spec.inner.codewords[0 * spec.q + 1]
        assert (1,) in message_values(ld_decode(spec, word))


def grid(received, starts, length):
    """The windows of the given length at the given starts."""
    return [received.symbols[s:s + length] for s in starts]


class TestWindows:
    def test_unit_step_grid_on_twenty_symbols(self, grid_spec):
        received = Word((1, 0) * 10, 2)
        assert ld_windows(grid_spec, received) == grid(received, range(15), 6)

    def test_received_equal_to_window_length(self, grid_spec):
        received = Word((1,) * 6, 2)
        assert ld_windows(grid_spec, received) == [received.symbols]

    def test_short_received_is_one_whole_window(self, grid_spec):
        received = Word((1, 0, 1), 2)
        assert ld_windows(grid_spec, received) == [received.symbols]

    def test_final_suffix_window_added_off_grid(self, ld_desk):
        # step 2, len 23: grid starts 0..16, suffix start 17 appended
        received = Word(tuple(itertools.islice(itertools.cycle((1, 0)), 23)), 2)
        starts = [0, 2, 4, 6, 8, 10, 12, 14, 16, 17]
        assert ld_windows(ld_desk, received) == grid(received, starts, 6)

    def test_grid_landing_on_suffix_not_duplicated(self, ld_desk):
        received = Word((0, 1) * 12, 2)
        starts = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        assert ld_windows(ld_desk, received) == grid(received, starts, 6)

    @given(st.lists(st.integers(0, 1), max_size=40))
    @settings(max_examples=60)
    def test_windows_tile_the_received_word(self, ld_desk, syms):
        received = Word(tuple(syms), 2)
        wins = ld_windows(ld_desk, received)
        w, step = ld_desk.window_len, ld_desk.window_step
        if len(syms) <= w:
            assert wins == [received.symbols]
            return
        # Window j starts at j * step, except the last, which is flush with
        # the end; the grid stops exactly where it would reach the suffix.
        assert wins[:-1] == grid(received, range(0, step * (len(wins) - 1),
                                                 step), w)
        assert wins[-1] == received.symbols[-w:]
        assert step * (len(wins) - 2) < len(syms) - w <= step * (len(wins) - 1)


class TestCandidates:
    def test_sets_mirror_pairs(self):
        sets = candidate_sets({(0, 1), (0, 4), (2, 2)}, 3)
        assert sets == [{1, 4}, set(), {2}]

    def test_clean_word_votes_its_own_pairs(self, ld_desk):
        spec = ld_desk
        msg = [4]
        code = rs_encode(spec.rs, msg)
        res = ld_decode(spec, ld_encode(spec, msg))
        pairs = set(res.telemetry.pairs)
        for i, c in enumerate(code):
            assert (i, c) in pairs


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
        assert worst <= spec.q ** spec.n_prime

    def test_whole_block_deletion_still_contained(self, eps8_spec):
        spec = eps8_spec
        budget = int((F(1, 2) - spec.epsilon) * spec.encoded_length)
        assert budget >= spec.m
        for v in range(spec.q):
            sent = ld_encode(spec, [v])
            for b in range(spec.n):
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
        code = rs_encode(spec.rs, msg)
        sent = ld_encode(spec, msg)
        for block in range(spec.n):
            base = block * spec.m
            for pat in itertools.combinations(range(base, base + spec.m), light_cap):
                received = apply_deletions(sent, DeletionPattern(pat))
                found = set()
                for win in ld_windows(spec, received):
                    for idx in inner_decode_list(spec.inner, win):
                        found.add(spec.pair_of_index(idx))
                assert (block, code[block]) in found

    def test_decode_on_empty_received(self, ld_desk):
        res = ld_decode(ld_desk, Word((), 2))
        # empty window matches every codeword; recovery may return many
        # messages but must not fail
        assert res.telemetry.window_count == 1
