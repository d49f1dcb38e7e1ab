"""Adversary suite: pattern mechanics, budget discipline across every
strategy and scheme, the exhaustive worst-case oracle, and the trial runner's
deterministic reporting."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.channel import (
    EXHAUSTIVE_PATTERN_CAP,
    STRATEGY_NAMES,
    DeletionPattern,
    Strategy,
    TrialReport,
    apply_deletions,
    attack,
    parse_trial_line,
    read_reports,
    run_trials,
    trial_line,
    write_reports,
)
from delcodes.errors import (
    BudgetExceeded,
    GuardExceeded,
    InvalidOverride,
    OutOfRange,
    PatternOutOfRange,
)
from delcodes.highnoise import hn_encode
from delcodes.hirate import br_encode
from delcodes.innercode import greedy_unique
from delcodes.listdec import ld_encode
from delcodes.seqkit import Word, is_subsequence

F = Fraction


def word(text, k=5):
    return Word(tuple(int(c) for c in text), k)


class TestPattern:
    def test_strictly_increasing_enforced(self):
        DeletionPattern((0, 3, 9))
        for bad in [(1, 1), (3, 2), (-1, 0)]:
            with pytest.raises(PatternOutOfRange):
                DeletionPattern(bad)

    def test_len_counts_deletions(self):
        assert len(DeletionPattern(())) == 0
        assert len(DeletionPattern((2, 5))) == 2


class TestApply:
    def test_drops_exactly_the_pattern(self):
        assert apply_deletions(word("01234"), DeletionPattern((1, 3))) == word("024")

    def test_empty_pattern_is_identity(self):
        w = word("01234")
        assert apply_deletions(w, DeletionPattern(())) == w

    def test_all_positions_leave_empty_word(self):
        got = apply_deletions(word("01234"), DeletionPattern((0, 1, 2, 3, 4)))
        assert len(got) == 0

    def test_past_end_rejected(self):
        with pytest.raises(PatternOutOfRange):
            apply_deletions(word("012"), DeletionPattern((3,)))

    def test_headered_words_supported(self, hn_desk):
        sent = hn_encode(hn_desk, [0, 0])
        got = apply_deletions(sent, DeletionPattern((0, 8)))
        assert len(got) == len(sent) - 2
        assert got.symbols == sent.symbols[1:8] + sent.symbols[9:]

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.data())
    @settings(max_examples=100)
    def test_result_is_subsequence_of_expected_length(self, syms, data):
        w = Word(tuple(syms), 4)
        size = data.draw(st.integers(0, len(syms)))
        picks = data.draw(st.permutations(range(len(syms))))
        pat = DeletionPattern(tuple(sorted(picks[:size])))
        got = apply_deletions(w, pat)
        assert len(got) == len(w) - size
        assert is_subsequence(got, w)


class TestStrategy:
    def test_unknown_name_lists_the_valid_ones(self):
        with pytest.raises(InvalidOverride) as ei:
            Strategy("SCRAMBLE")
        for name in STRATEGY_NAMES:
            assert name in str(ei.value)

    def test_param_lookup_with_default(self):
        s = Strategy("RANDOM", params=(("burst", 3),))
        assert s.param("burst", 1) == 3
        assert s.param("other", 7) == 7


class TestAttackDiscipline:
    def encoded(self, request_spec):
        spec, kind = request_spec
        if kind == "hn":
            return spec, hn_encode(spec, [1, 2])
        if kind == "br":
            return spec, br_encode(spec, [2])
        return spec, ld_encode(spec, [3])

    @pytest.fixture(params=["hn", "br", "ld"])
    def scheme_word(self, request, hn_desk, br_desk, ld_desk):
        spec = {"hn": hn_desk, "br": br_desk, "ld": ld_desk}[request.param]
        return self.encoded((spec, request.param))

    @staticmethod
    def greedy_cap(length):
        # largest budget whose full pattern count fits the exhaustive cap
        total, b = 1, 0
        while total + math.comb(length, b + 1) <= EXHAUSTIVE_PATTERN_CAP:
            b += 1
            total += math.comb(length, b)
        return b

    def test_every_strategy_respects_every_budget(self, scheme_word):
        spec, sent = scheme_word
        length = len(sent)
        for name in STRATEGY_NAMES:
            if name == "GREEDY_LCS":
                budgets = list(range(self.greedy_cap(length) + 1))
            else:
                budgets = [0, 3, 7, length]
            for budget in budgets:
                for seed in range(3):
                    pat = attack(Strategy(name, seed=seed), sent, spec, budget)
                    assert len(pat) <= budget
                    apply_deletions(sent, pat)  # also validates positions

    def test_deterministic_given_seed(self, scheme_word):
        spec, sent = scheme_word
        for name in STRATEGY_NAMES:
            budget = (self.greedy_cap(len(sent)) if name == "GREEDY_LCS" else 5)
            a = attack(Strategy(name, seed=9), sent, spec, budget)
            b = attack(Strategy(name, seed=9), sent, spec, budget)
            assert a == b

    def test_budget_beyond_length_rejected(self, hn_desk):
        sent = hn_encode(hn_desk, [0, 0])
        with pytest.raises(OutOfRange):
            attack(Strategy("RANDOM"), sent, hn_desk, len(sent) + 1)

    def test_random_spends_whole_budget(self, hn_desk):
        sent = hn_encode(hn_desk, [0, 0])
        pat = attack(Strategy("RANDOM", seed=4), sent, hn_desk, 11)
        assert len(pat) == 11

    def test_window_shift_deletes_prefix(self, ld_desk):
        sent = ld_encode(ld_desk, [1])
        pat = attack(Strategy("WINDOW_SHIFT"), sent, ld_desk, 3)
        assert pat.positions == (0, 1, 2)

    def test_block_erase_covers_whole_blocks(self, hn_desk):
        spec = hn_desk
        sent = hn_encode(spec, [3, 1])
        pat = attack(Strategy("BLOCK_ERASE", seed=1), sent, spec, spec.m)
        assert len(pat) == spec.m
        start = pat.positions[0]
        assert start % spec.m == 0
        assert pat.positions == tuple(range(start, start + spec.m))

    def test_block_erase_fits_as_many_blocks_as_affordable(self, hn_desk):
        spec = hn_desk
        sent = hn_encode(spec, [3, 1])
        pat = attack(Strategy("BLOCK_ERASE", seed=0), sent, spec, 2 * spec.m + 3)
        assert len(pat) == 2 * spec.m

    def test_buffer_kill_spends_threshold_runs_inside_buffers(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [1])
        thr = spec.run_threshold
        pat = attack(Strategy("BUFFER_KILL", seed=2), sent, spec, thr)
        assert len(pat) == thr
        stride = spec.m + spec.buffer_len
        starts = {p - (p % stride) for p in pat.positions}
        assert len(starts) == 1  # one buffer targeted
        for p in pat.positions:
            assert sent.symbols[p] == 0
            assert p % stride >= spec.m  # inside the buffer span

    def test_merge_attack_erases_separating_blocks(self, hn_desk):
        spec = hn_desk
        sent = hn_encode(spec, [0, 5])
        cost = (spec.D - 1) * spec.m
        pat = attack(Strategy("MERGE_ATTACK", seed=3), sent, spec, cost)
        assert len(pat) == cost
        # contiguous run of D-1 whole blocks, block aligned
        assert pat.positions == tuple(range(pat.positions[0], pat.positions[0] + cost))
        assert pat.positions[0] % spec.m == 0

    def test_density_attack_stays_budgeted_on_buffered_scheme(self, br_desk):
        spec = br_desk
        sent = br_encode(spec, [0])
        for budget in (0, 4, 9):
            pat = attack(Strategy("DENSITY_ATTACK", seed=6), sent, spec, budget)
            assert len(pat) <= budget


@pytest.fixture(scope="module")
def tiny_book():
    return greedy_unique(2, 3, F(1, 3))  # codewords 000, 011


class TestExhaustiveOracle:

    def test_oracle_finds_the_confusing_pattern(self, tiny_book):
        sent = tiny_book.codewords[1]  # 011
        pat = attack(Strategy("GREEDY_LCS"), sent, tiny_book, 2)
        got = apply_deletions(sent, pat)
        # deleting both ones leaves 0, a subsequence of the other codeword
        assert got.symbols == (0,)

    def test_oracle_reports_no_confusion_when_none_exists(self, tiny_book):
        sent = tiny_book.codewords[0]  # 000
        pat = attack(Strategy("GREEDY_LCS"), sent, tiny_book, 1)
        got = apply_deletions(sent, pat)
        # 00 is not a subsequence of 011; no pattern of size <= 1 confuses
        assert not is_subsequence(got, tiny_book.codewords[1])

    def test_transmitted_must_be_a_codeword(self, tiny_book):
        with pytest.raises(OutOfRange):
            attack(Strategy("GREEDY_LCS"), word("010", 2), tiny_book, 1)

    def test_pattern_space_guard(self, hn_desk):
        sent = hn_encode(hn_desk, [0, 0])
        with pytest.raises(GuardExceeded):
            attack(Strategy("GREEDY_LCS"), sent, hn_desk, 3)

    def test_cap_is_the_documented_power_of_two(self):
        assert EXHAUSTIVE_PATTERN_CAP == 1 << 15


class TestTrialReports:
    def report(self, **kw):
        base = dict(scheme="highnoise", strategy="RANDOM", fraction=F(1, 2),
                    seed_index=3, budget=32, pattern_size=32, outcome="ok",
                    telemetry=(("erasures", 0), ("wrong_votes", 0)),
                    wall_time=0.125)
        base.update(kw)
        return TrialReport(**base)

    def test_line_format_frozen(self):
        line = trial_line(self.report())
        assert line == ("scheme=highnoise strategy=RANDOM fraction=1/2 "
                        "seed=3 budget=32 pattern=32 outcome=ok "
                        "telemetry=erasures:0,wrong_votes:0")

    def test_wall_time_never_reaches_the_line(self):
        a = trial_line(self.report(wall_time=0.1))
        b = trial_line(self.report(wall_time=99.9))
        assert a == b

    def test_empty_telemetry_marker(self):
        line = trial_line(self.report(telemetry=()))
        assert line.endswith("telemetry=-")
        back = parse_trial_line(line)
        assert back.telemetry == ()

    def test_parse_inverts_format(self):
        r = self.report()
        back = parse_trial_line(trial_line(r))
        assert back == TrialReport(**{**r.__dict__, "wall_time": 0.0})

    def test_pattern_over_budget_rejected(self):
        with pytest.raises(BudgetExceeded):
            self.report(pattern_size=33)

    def test_file_roundtrip(self, tmp_path):
        reports = [self.report(seed_index=i) for i in range(4)]
        path = tmp_path / "trials.log"
        write_reports(reports, path)
        back = read_reports(path)
        assert [trial_line(r) for r in back] == [trial_line(r) for r in reports]


class TestRunTrials:
    def test_factorial_shape_and_within_budget_success(self, hn_desk):
        strategies = [Strategy("RANDOM"), Strategy("BLOCK_ERASE")]
        fractions = [F(0), F(1, 2)]
        reports = run_trials(hn_desk, strategies, fractions, 4, master_seed=7)
        assert len(reports) == 2 * 2 * 4
        assert all(r.outcome == "ok" for r in reports)

    def test_fraction_zero_never_deletes(self, ld_desk):
        reports = run_trials(ld_desk, [Strategy("RANDOM")], [F(0)], 3)
        assert all(r.pattern_size == 0 and r.outcome == "ok" for r in reports)

    def test_fraction_one_is_recorded_not_raised(self, br_desk):
        reports = run_trials(br_desk, [Strategy("RANDOM")], [F(1)], 2)
        assert len(reports) == 2
        for r in reports:
            assert r.outcome != "ok"
            assert r.pattern_size == r.budget == 372

    def test_same_master_seed_reproduces_lines(self, br_desk):
        args = ([Strategy("RANDOM"), Strategy("BUFFER_KILL")],
                [F(0), F(7, 372)], 5)
        a = run_trials(br_desk, *args, master_seed=13)
        b = run_trials(br_desk, *args, master_seed=13)
        assert [trial_line(r) for r in a] == [trial_line(r) for r in b]

    def test_seed_changes_random_patterns(self, hn_desk):
        sent = hn_encode(hn_desk, [0, 0])
        a = attack(Strategy("RANDOM", seed=0), sent, hn_desk, 11)
        b = attack(Strategy("RANDOM", seed=1), sent, hn_desk, 11)
        assert a != b

    def test_payload_basis_shrinks_hirate_budget(self, br_desk):
        frac = F(7, 372)
        on_wire = run_trials(br_desk, [Strategy("RANDOM")], [frac], 1)
        payload = run_trials(br_desk, [Strategy("RANDOM")], [frac], 1,
                             budget_basis="payload")
        assert on_wire[0].budget == 7
        assert payload[0].budget == 6  # floor(eps * n * m)

    def test_invalid_basis_and_fraction_rejected(self, hn_desk):
        with pytest.raises(InvalidOverride):
            run_trials(hn_desk, [Strategy("RANDOM")], [F(0)], 1,
                       budget_basis="wire")
        with pytest.raises(OutOfRange):
            run_trials(hn_desk, [Strategy("RANDOM")], [F(3, 2)], 1)

    def test_bare_codebook_is_rejected(self, tiny_book):
        with pytest.raises(InvalidOverride, match="cannot drive Codebook"):
            run_trials(tiny_book, [Strategy("RANDOM")], [F(0)], 1)

    def test_telemetry_snapshot_carries_accounting_keys(self, hn_desk):
        reports = run_trials(hn_desk, [Strategy("MERGE_ATTACK")], [F(1, 2)], 2)
        for r in reports:
            keys = dict(r.telemetry)
            assert "erasures" in keys
            assert "wrong_votes" in keys
