"""Command-line contract: the documented exit codes (0 success, 1 falsified,
2 config/feasibility error), report plumbing, and build determinism."""

import pytest

from delcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_rate_report_printed(self, capsys):
        code, out, err = run(capsys, "build", "--scheme", "highnoise")
        assert code == 0
        assert "[rate]" in out
        assert "rate_over_epsilon_sq" in out
        assert "[inner counting]" in out
        assert "counting_size_bound" in out
        assert "inner codebook: 64 codewords" in out

    def test_hirate_prints_guarantee_decomposition(self, capsys):
        code, out, _ = run(capsys, "build", "--scheme", "hirate")
        assert code == 0
        assert "outer_factor_claimed" in out
        assert "buffer_factor_claimed" in out
        assert "kill_cost = 10" in out
        assert "split_cost = 8" in out

    def test_listdec_prints_recovery_recipe(self, capsys):
        code, out, _ = run(capsys, "build", "--scheme", "listdec")
        assert code == 0
        assert "achieved_rate" in out
        assert "recipe_threshold_met" in out

    def test_cache_reuse_is_bit_identical(self, capsys, tmp_path):
        cache = tmp_path / "hn.book"
        code1, out1, _ = run(capsys, "build", "--scheme", "highnoise",
                             "--codebook", str(cache))
        first = cache.read_bytes()
        code2, out2, _ = run(capsys, "build", "--scheme", "highnoise",
                             "--codebook", str(cache))
        assert code1 == code2 == 0
        assert out1 == out2
        assert cache.read_bytes() == first

    def test_impossible_target_names_the_budget(self, capsys):
        code, _, err = run(capsys, "build", "--scheme", "hirate",
                           "--profile", "paper")
        assert code == 2
        assert err.startswith("infeasible:")
        assert "attempts" in err


class TestRoundtrip:
    def test_buffer_kill_at_guarantee(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--scheme", "hirate",
                           "--strategy", "BUFFER_KILL",
                           "--fraction", "7/372", "--trials", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("scheme=")]
        assert len(lines) == 2
        assert all("outcome=ok" in l for l in lines)

    def test_fraction_zero_succeeds(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--scheme", "listdec",
                           "--strategy", "RANDOM", "--fraction", "0",
                           "--trials", "1")
        assert code == 0
        assert "pattern=0" in out

    def test_beyond_guarantee_is_reported_not_asserted(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--scheme", "highnoise",
                           "--strategy", "RANDOM", "--fraction", "9/10",
                           "--trials", "2")
        assert code == 0
        assert "scheme=highnoise" in out


class TestSweep:
    def test_defaults_write_reports_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "trials.log"
        code, out, _ = run(capsys, "sweep", "--scheme", "highnoise",
                           "--trials", "2", "--out", str(out_file))
        assert code == 0
        assert "ok/total" in out
        assert out_file.exists()
        lines = out_file.read_text().splitlines()
        # six default strategies x two fractions x two seeds
        assert len(lines) == 6 * 2 * 2

    def test_same_seed_sweeps_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--scheme", "listdec",
                             "--trials", "3", "--seed", "42",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_strategy_list_is_an_empty_report(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "listdec",
                           "--strategy", "", "--trials", "1")
        assert code == 0
        assert "no trials" in out

    def test_unknown_strategy_exits_two_with_valid_names(self, capsys):
        code, _, err = run(capsys, "sweep", "--scheme", "highnoise",
                           "--strategy", "SCRAMBLE", "--trials", "1")
        assert code == 2
        assert "RANDOM" in err and "GREEDY_LCS" in err

    def test_within_budget_failure_is_falsification(self, capsys):
        # margin-zero outer code: one erased block already breaks recovery,
        # so a within-guarantee trial fails and the contract demands exit 1
        code, out, err = run(capsys, "sweep", "--scheme", "highnoise",
                             "--set", "n_prime=8",
                             "--strategy", "BLOCK_ERASE",
                             "--fraction", "1/8", "--trials", "1")
        assert code == 1
        assert "FALSIFIED" in err

    def test_records_format_prints_lines(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "listdec",
                           "--strategy", "RANDOM", "--fraction", "0",
                           "--trials", "2", "--format", "records")
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("scheme=")) == 2


class TestReport:
    def test_rereads_written_records(self, capsys, tmp_path):
        out_file = tmp_path / "trials.log"
        run(capsys, "sweep", "--scheme", "listdec", "--strategy", "RANDOM",
            "--trials", "2", "--out", str(out_file))
        code, out, _ = run(capsys, "report", str(out_file))
        assert code == 0
        assert "ok/total" in out

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", str(tmp_path / "absent.log"))
        assert code == 2
        assert err.startswith("error:")


class TestVerifyInner:
    def test_built_book_passes(self, capsys, tmp_path):
        cache = tmp_path / "hn.book"
        run(capsys, "build", "--scheme", "highnoise", "--codebook", str(cache))
        code, out, _ = run(capsys, "verify-inner", "--codebook", str(cache))
        assert code == 0
        assert "ok" in out

    def test_tampered_book_fails(self, capsys, tmp_path):
        cache = tmp_path / "hn.book"
        run(capsys, "build", "--scheme", "highnoise", "--codebook", str(cache))
        text = cache.read_text().splitlines()
        # duplicate the last codeword line: pairwise separation collapses
        tampered = text + [text[-1]]
        cache.write_text("\n".join(tampered) + "\n")
        code, out, err = run(capsys, "verify-inner", "--codebook", str(cache))
        assert code != 0


class TestCount:
    def test_prints_exact_count_and_bounds(self, capsys):
        code, out, _ = run(capsys, "count", "--word", "01", "--k", "2",
                           "--length", "4")
        assert code == 0
        assert "exact" in out
        # supersequences of 01 at length 4 over bits: 2^4 - (strings missing 01)
        assert "11" in out

    def test_binary_bound_noted_out_of_range(self, capsys):
        code, out, _ = run(capsys, "count", "--word", "01", "--k", "2",
                           "--length", "5")
        assert code == 0
        assert "not stated" in out


class TestContract:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "build" in out and "sweep" in out

    def test_bad_fraction_is_config_error(self, capsys):
        code, _, err = run(capsys, "build", "--scheme", "highnoise",
                           "--eps", "abc")
        assert code == 2

    def test_unknown_override_is_config_error(self, capsys):
        code, _, err = run(capsys, "build", "--scheme", "highnoise",
                           "--set", "gremlins=9")
        assert code == 2
        assert "error:" in err

    def test_flags_a_command_does_not_use_are_rejected(self, capsys):
        code, _, _ = run(capsys, "build", "--scheme", "highnoise",
                         "--out", "x")
        assert code == 2
        code, _, _ = run(capsys, "roundtrip", "--format", "records")
        assert code == 2
