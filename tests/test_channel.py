"""Adversary suite: pattern mechanics, budget discipline across every
strategy and scheme, the exhaustive worst-case oracle, and the trial runner's
deterministic reporting."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from delcodes import channel, innercode
from delcodes.channel import (
    EXHAUSTIVE_PATTERN_CAP,
    STRATEGY_NAMES,
    DeletionPattern,
    Strategy,
    TrialReport,
    _buffer_kill,
    apply_deletions,
    attack,
    parse_trial_line,
    read_reports,
    run_trials,
    trial_line,
    write_reports,
)
from delcodes.cli import _default_strategies
from delcodes.errors import (BudgetExceeded, GuardExceeded, InvalidOverride,
                             OutOfRange)
from delcodes.highnoise import hn_encode, hn_make_spec
from delcodes.hirate import br_encode
from delcodes.listdec import ld_encode
from delcodes.seqkit import Word
from oracles import buffer_kill_oracle, sliced_kept, subseq_oracle

F = Fraction


def word(text, k=5):
    return Word(tuple(int(c) for c in text), k)


def scan_worst(message, transmitted, spec, budget):
    """Oracle: GREEDY_LCS's pattern scan decoding every pattern, with no
    memory of the words it has decoded."""
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(len(transmitted)), size):
            pattern = DeletionPattern(combo)
            outcome, _ = spec.scorer(message, transmitted)(
                pattern, apply_deletions(transmitted, pattern))
            if outcome != "ok":
                return combo
    return ()


def assert_greedy_matches_scan(message, transmitted, spec, cap):
    """GREEDY_LCS returns the scan's pattern at every budget up to cap.

    The scan tries patterns by size, so at budget b it returns its first
    defeat at the cap budget when that has at most b deletions, else ()."""
    first = scan_worst(message, transmitted, spec, cap)
    for budget in range(cap + 1):
        got = attack(Strategy("GREEDY_LCS"), message, transmitted, spec,
                     budget)
        assert got.positions == (first if len(first) <= budget else ())


class TestPattern:
    def test_strictly_increasing_enforced(self):
        DeletionPattern((0, 3, 9))
        for bad in [(1, 1), (3, 2), (-1, 0)]:
            with pytest.raises(OutOfRange):
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
        with pytest.raises(OutOfRange):
            apply_deletions(word("012"), DeletionPattern((3,)))

    def test_one_copy_matches_the_slices(self):
        # Seeded words of length 0 to 11 under the empty pattern, the
        # first and the last position, the whole word and seeded patterns.
        rng = random.Random(5)
        for n in range(12):
            syms = tuple(rng.randrange(4) for _ in range(n))
            ends = sorted({0, n - 1}) if n else []
            patterns = [(), tuple(range(n)), tuple(ends)]
            patterns += [(p,) for p in ends]
            patterns += [tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                         for _ in range(30)]
            for pos in patterns:
                assert channel._kept(syms, pos) == sliced_kept(syms, pos)

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
        assert subseq_oracle(got.symbols, w.symbols)

    @given(st.lists(st.integers(0, 3), max_size=30), st.data())
    @settings(max_examples=200)
    def test_equals_the_filtered_word(self, syms, data):
        w = Word(tuple(syms), 4)
        # The empty and the delete-everything patterns are drawn often.
        size = data.draw(st.sampled_from((0, len(syms)))
                         | st.integers(0, len(syms)))
        p = tuple(sorted(data.draw(st.permutations(range(len(syms))))[:size]))
        got = apply_deletions(w, DeletionPattern(p))
        assert got == Word(tuple(s for i, s in enumerate(w)
                                 if i not in set(p)), 4)


class TestStrategy:
    def test_unknown_name_lists_the_valid_ones(self):
        with pytest.raises(InvalidOverride) as ei:
            Strategy("SCRAMBLE")
        for name in STRATEGY_NAMES:
            assert name in str(ei.value)


class TestAttackDiscipline:
    def encoded(self, request_spec):
        spec, kind = request_spec
        msg = {"hn": [1, 2], "br": [2], "ld": [3]}[kind]
        return spec, msg, spec.encode(msg)

    @pytest.fixture(params=["hn", "br", "ld"])
    def scheme_word(self, request, hn_desk, br_desk, ld_desk):
        spec = {"hn": hn_desk, "br": br_desk, "ld": ld_desk}[request.param]
        return self.encoded((spec, request.param))

    @staticmethod
    def greedy_cap(length):
        # largest budget whose full pattern count fits the exhaustive cap;
        # a word short enough to fit whole stops at its own length
        total, b = 1, 0
        while (b < length
               and total + math.comb(length, b + 1) <= EXHAUSTIVE_PATTERN_CAP):
            b += 1
            total += math.comb(length, b)
        return b

    def test_greedy_cap_stops_at_a_short_word_length(self):
        assert self.greedy_cap(6) == 6

    def test_every_strategy_respects_every_budget(self, scheme_word):
        spec, msg, sent = scheme_word
        length = len(sent)
        for name in STRATEGY_NAMES:
            if name == "GREEDY_LCS":
                budgets = list(range(self.greedy_cap(length) + 1))
            else:
                budgets = [0, 3, 7, length]
            for budget in budgets:
                for seed in range(3):
                    pat = attack(Strategy(name, seed=seed), msg, sent, spec,
                                 budget)
                    assert len(pat) <= budget
                    apply_deletions(sent, pat)  # also validates positions

    def test_zero_budget_runs_no_strategy(self, monkeypatch, scheme_word):
        # attack answers budget 0 itself, before it seeds an rng: no
        # strategy helper is reached, and every strategy deletes nothing.
        def refuse(*args):
            raise AssertionError("strategy run at budget 0")
        for helper in ("_erase_groups", "_merge_attack", "_buffer_kill",
                       "_density_attack", "_exhaustive_worst"):
            monkeypatch.setattr(channel, helper, refuse)
        monkeypatch.setattr(channel, "random", SimpleNamespace(Random=refuse))
        spec, msg, sent = scheme_word
        for name in STRATEGY_NAMES:
            pat = attack(Strategy(name, seed=5), msg, sent, spec, 0)
            assert pat.positions == (), name

    def test_greedy_matches_the_pattern_scan(self, scheme_word):
        spec, msg, sent = scheme_word
        assert_greedy_matches_scan(msg, sent, spec, self.greedy_cap(len(sent)))

    def test_deterministic_given_seed(self, scheme_word):
        spec, msg, sent = scheme_word
        for name in STRATEGY_NAMES:
            budget = (self.greedy_cap(len(sent)) if name == "GREEDY_LCS" else 5)
            a = attack(Strategy(name, seed=9), msg, sent, spec, budget)
            b = attack(Strategy(name, seed=9), msg, sent, spec, budget)
            assert a == b

    def test_budget_beyond_length_rejected(self, hn_desk):
        msg = [0, 0]
        sent = hn_encode(hn_desk, msg)
        with pytest.raises(OutOfRange):
            attack(Strategy("RANDOM"), msg, sent, hn_desk, len(sent) + 1)

    def test_random_spends_whole_budget(self, hn_desk):
        msg = [0, 0]
        sent = hn_encode(hn_desk, msg)
        pat = attack(Strategy("RANDOM", seed=4), msg, sent, hn_desk, 11)
        assert len(pat) == 11

    def test_window_shift_deletes_prefix(self, ld_desk):
        msg = [1]
        sent = ld_encode(ld_desk, msg)
        pat = attack(Strategy("WINDOW_SHIFT"), msg, sent, ld_desk, 3)
        assert pat.positions == (0, 1, 2)

    def test_block_erase_covers_whole_blocks(self, hn_desk):
        spec = hn_desk
        msg = [3, 1]
        sent = hn_encode(spec, msg)
        pat = attack(Strategy("BLOCK_ERASE", seed=1), msg, sent, spec, spec.m)
        assert len(pat) == spec.m
        start = pat.positions[0]
        assert start % spec.m == 0
        assert pat.positions == tuple(range(start, start + spec.m))

    def test_block_erase_fits_as_many_blocks_as_affordable(self, hn_desk):
        spec = hn_desk
        msg = [3, 1]
        sent = hn_encode(spec, msg)
        pat = attack(Strategy("BLOCK_ERASE", seed=0), msg, sent, spec,
                     2 * spec.m + 3)
        assert len(pat) == 2 * spec.m

    def test_buffer_kill_spends_threshold_runs_inside_buffers(self, br_desk):
        spec = br_desk
        msg = [1]
        sent = br_encode(spec, msg)
        thr = spec.run_threshold
        pat = attack(Strategy("BUFFER_KILL", seed=2), msg, sent, spec, thr)
        assert len(pat) == thr
        stride = spec.m + spec.buffer_len
        starts = {p - (p % stride) for p in pat.positions}
        assert len(starts) == 1  # one buffer targeted
        for p in pat.positions:
            assert sent.symbols[p] == 0
            assert p % stride >= spec.m  # inside the buffer span

    def test_buffer_kill_matches_round_robin_oracle(self, br_desk):
        # Random buffers, thresholds, budgets and seeds, then every budget
        # of the desk hirate word through attack, five seeds each.
        rng = random.Random(174)
        for _ in range(20_000):
            spec = SimpleNamespace(run_threshold=rng.randint(1, 6))
            buffers, pos = [], 0
            for _ in range(rng.randint(1, 6)):
                pos += rng.randint(0, 9)
                buffers.append((pos, pos + rng.randint(0, 20)))
                pos = buffers[-1][1]
            budget = rng.randint(0, pos + 5)
            seed = rng.randrange(1000)
            assert (_buffer_kill(random.Random(seed), spec, buffers, budget)
                    == buffer_kill_oracle(random.Random(seed), spec, buffers,
                                          budget)), (spec, buffers, budget)
        msg = [1]
        sent = br_encode(br_desk, msg)
        buffers = br_desk.spans()[1]
        for budget in range(len(sent) + 1):
            for seed in range(5):
                pat = attack(Strategy("BUFFER_KILL", seed=seed), msg, sent,
                             br_desk, budget)
                assert list(pat.positions) == buffer_kill_oracle(
                    random.Random(seed), br_desk, buffers, budget), budget

    def test_merge_attack_erases_separating_blocks(self, hn_desk):
        spec = hn_desk
        msg = [0, 5]
        sent = hn_encode(spec, msg)
        cost = (spec.D - 1) * spec.m
        pat = attack(Strategy("MERGE_ATTACK", seed=3), msg, sent, spec, cost)
        assert len(pat) == cost
        # contiguous run of D-1 whole blocks, block aligned
        assert pat.positions == tuple(range(pat.positions[0], pat.positions[0] + cost))
        assert pat.positions[0] % spec.m == 0

    def test_density_attack_stays_budgeted_on_buffered_scheme(self, br_desk):
        spec = br_desk
        msg = [0]
        sent = br_encode(spec, msg)
        for budget in (0, 4, 9):
            pat = attack(Strategy("DENSITY_ATTACK", seed=6), msg, sent, spec,
                         budget)
            assert len(pat) <= budget


class TestExhaustiveOracle:
    # Message [1] sends pairs (0, 1), (1, 1), (2, 1) as inner words 11, 44,
    # 77 under headers 0, 1, 0: six symbols, two per block.  D = 2 is far
    # below the theorem's 8/epsilon = 16, so this spec is expected to fall
    # within the 1 - epsilon budget.

    @pytest.fixture(scope="class")
    def tiny_spec(self):
        return hn_make_spec(F(1, 2), 3, overrides={
            "D": 2, "k": 9, "m": 2, "n": 3, "n_prime": 1})

    def test_oracle_finds_the_confusing_pattern(self, tiny_spec):
        sent = hn_encode(tiny_spec, [1])
        assert len(sent) == 6
        pat = attack(Strategy("GREEDY_LCS"), [1], sent, tiny_spec, 2)
        # Erasing block 1 merges blocks 0 and 2, both with header 0, into
        # one run longer than m: every position is erased.
        assert pat.positions == (2, 3)
        outcome, _ = tiny_spec.scorer([1], sent)(
            pat, apply_deletions(sent, pat))
        assert outcome == "fail-decode"

    def test_greedy_matches_the_pattern_scan(self, tiny_spec):
        sent = hn_encode(tiny_spec, [1])
        assert_greedy_matches_scan([1], sent, tiny_spec, len(sent))

    def test_oracle_reports_no_confusion_when_none_exists(self, tiny_spec):
        sent = hn_encode(tiny_spec, [1])
        # one deletion leaves every block at least min_block long
        pat = attack(Strategy("GREEDY_LCS"), [1], sent, tiny_spec, 1)
        assert pat.positions == ()

    def test_pattern_space_guard(self, hn_desk):
        msg = [0, 0]
        sent = hn_encode(hn_desk, msg)
        with pytest.raises(GuardExceeded):
            attack(Strategy("GREEDY_LCS"), msg, sent, hn_desk, 3)

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
        msg = [0, 0]
        sent = hn_encode(hn_desk, msg)
        a = attack(Strategy("RANDOM", seed=0), msg, sent, hn_desk, 11)
        b = attack(Strategy("RANDOM", seed=1), msg, sent, hn_desk, 11)
        assert a != b

    def test_out_of_range_fraction_rejected(self, hn_desk):
        with pytest.raises(OutOfRange):
            run_trials(hn_desk, [Strategy("RANDOM")], [F(3, 2)], 1)

    def test_negative_trial_count_rejected(self, hn_desk):
        with pytest.raises(OutOfRange, match="-1"):
            run_trials(hn_desk, [Strategy("RANDOM")], [F(0)], -1)

    def test_bare_codebook_is_rejected(self):
        book = innercode._build(innercode.CodebookKind.UNIQUE, 2, 3, F(1, 3))
        with pytest.raises(InvalidOverride, match="cannot drive Codebook"):
            run_trials(book, [Strategy("RANDOM")], [F(0)], 1)

    def test_telemetry_snapshot_carries_accounting_keys(self, hn_desk):
        reports = run_trials(hn_desk, [Strategy("MERGE_ATTACK")], [F(1, 2)], 2)
        for r in reports:
            keys = dict(r.telemetry)
            assert "erasures" in keys
            assert "wrong_votes" in keys


# SHA-256 of the record lines past each unique decoder's guarantee (six
# default strategies, 5 seeds, master seed 77), where outer decodes fail:
# 13 of highnoise's 90 trials and 12 of hirate's 60 score fail-decode, so
# the telemetry a DecodeFailure carries is pinned as well.
_PAST_GUARANTEE = {
    "highnoise": ("hn_desk", (F(5, 8), F(3, 4), F(7, 8)), 13,
        "e905eb7f47a48dabbbb7763509064624442a17fd50cfe554f5bbb38218b229e9"),
    "hirate": ("br_desk", (F(1, 16), F(1, 8)), 12,
        "5b070d8d255085bcd078ba6b65b049e513c728ed2ddde9fc2e1a20444491f302"),
}


@pytest.mark.parametrize("scheme", sorted(_PAST_GUARANTEE))
def test_records_past_the_guarantee_are_pinned(request, scheme):
    fixture, fractions, failures, digest = _PAST_GUARANTEE[scheme]
    spec = request.getfixturevalue(fixture)
    strategies = [Strategy(n) for n in _default_strategies()]
    reports = run_trials(spec, strategies, fractions, 5, master_seed=77)
    assert sum(r.outcome == "fail-decode" for r in reports) == failures
    text = "".join(trial_line(r) + "\n" for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
