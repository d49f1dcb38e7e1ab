"""Command-line contract: the documented exit codes (0 success, 1 falsified
or a failed inner-book check, 2 config/feasibility error), report plumbing,
and build determinism."""

import dataclasses
import hashlib
import re
import shlex
from pathlib import Path

import pytest

import delcodes.cli
from delcodes import innercode, seqkit
from delcodes.cli import build_parser, main
from delcodes.presets import SCHEMES, make_scheme_spec

# Each build's exit code, SHA-256 of its stdout (every [rate],
# [guarantee], [rate and recovery] and [inner check] value) and stderr.
# The hirate paper book cannot be built at desk scale, and the listdec
# paper book would be vacuous: each prints only its error.
_BUILDS = {
    ("highnoise", "desk"): (
        0, "a1b990a79cb94877e62f62b0d6f310655bccb3fc07fef4eaaced83be7d8086a6",
        ""),
    ("highnoise", "paper"): (
        0, "9d9c97dac52175cf7cc5fe2a2779c89c34459e18280741d354235444358e100a",
        ""),
    ("hirate", "desk"): (
        0, "509c0c87231e3394e678babc5a8143b453382f2711ef7e2d37aad85a4135a68c",
        ""),
    ("hirate", "paper"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "infeasible: DENSE inner codebook reached 1 of 16 codewords within "
        "500 attempts\n"),
    ("listdec", "desk"): (
        0, "2a17f30e34405ea93928fa24b4296f05250c59c784ca167b2709982bf8f2eb81",
        ""),
    ("listdec", "paper"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "infeasible: inner list size 400 exceeds the 12 codewords of the "
        "book, so its list property would hold for any book\n"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands():
    """Every delcodes command in README's code blocks, continuations
    joined, comments and shell tails dropped, $s taken as a scheme."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(), re.S | re.M)
    for line in "".join(blocks).replace("\\\n", " ").splitlines():
        words = shlex.split(line.replace("$s", SCHEMES[0]), comments=True)
        if words[:1] == ["delcodes"]:
            yield words[1:words.index("||") if "||" in words else None]


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

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_build_is_deterministic(self, capsys, scheme):
        for profile in ("desk", "paper"):
            argv = ("build", "--scheme", scheme, "--profile", profile)
            code, out, err = run(capsys, *argv)
            assert run(capsys, *argv) == (code, out, err)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest, err) == _BUILDS[(scheme, profile)]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_spec_book_passes_its_check(self, capsys, scheme):
        code, out, _ = run(capsys, "build", "--scheme", scheme)
        assert code == 0
        check = out.split("[inner check]\n", 1)[1]
        assert "  ok = True\n" in check
        assert "violation:" not in out

    @pytest.mark.parametrize("sets,vacuous", [
        pytest.param(("--set", "list_size=16"), True, id="list_size16-True"),
        pytest.param((), False, id="desk-False"),
    ])
    def test_listdec_check_says_when_it_is_vacuous(self, capsys, sets,
                                                   vacuous):
        # A list size of 16 exceeds the desk book's 15 codewords, so any
        # book passes.
        code, out, _ = run(capsys, "build", "--scheme", "listdec", *sets)
        assert code == 0
        check = out.split("[inner check]\n", 1)[1]
        assert f"  vacuous = {vacuous}\n" in check

    def test_listdec_book_past_2_to_the_14_probe_words_is_checked(self,
                                                                  capsys):
        # ell = 18: all 2^18 probe words are walked, none refused.
        code, out, _ = run(capsys, "build", "--scheme", "listdec",
                           "--set", "m=24")
        assert code == 0
        check = out.split("[inner check]\n", 1)[1]
        assert "  separation_threshold = 18\n" in check
        assert "  ok = True\n" in check

    def test_book_at_its_target_searches_no_subset(self, capsys,
                                                    monkeypatch):
        # A candidate is walked only against list size - 1 = 15 near
        # words, and the target is met at the 15th word, so no candidate
        # ever has that many.
        def refuse(*args):
            raise AssertionError("multi-word LCS called")
        monkeypatch.setattr(seqkit, "_multi_lcs", refuse)
        code, out, _ = run(capsys, "build", "--scheme", "listdec",
                           "--set", "list_size=16")
        assert code == 0
        assert "inner codebook: 15 codewords" in out

    def test_large_list_size_book_builds_the_same_words(self, capsys):
        # 28 words of length 8 that nearly all share 6-subsequences, so
        # they hold very many sharing subsets of list size - 1 = 15 words.
        # The digest is of the words, one digit line each.
        sets = ("--q", "7", "--set", "list_size=16", "--set", "n=4")
        code, out, _ = run(capsys, "build", "--scheme", "listdec", *sets)
        assert code == 0
        assert "inner codebook: 28 codewords" in out
        book = make_scheme_spec("listdec", q=7,
                                overrides={"list_size": 16, "n": 4}).inner
        text = "\n".join("".join(map(str, w.symbols))
                         for w in book.codewords)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "34cdb4ee06c2f65364152a28b8b5255c1bae18b5a6d1496257606356f6a8dd94")

    def test_listdec_paper_preset_is_infeasible(self, capsys):
        # Its list size, 400, exceeds its 12-word book: no vacuous build.
        code, out, err = run(capsys, "build", "--scheme", "listdec",
                             "--profile", "paper")
        assert code == 2
        assert out == ""
        assert err.startswith("infeasible:")
        assert "400" in err and "12" in err

    def test_failed_book_check_exits_one(self, capsys, monkeypatch):
        spec = make_scheme_spec("highnoise")
        book = spec.inner
        # a duplicated codeword breaks pairwise separation
        broken = dataclasses.replace(spec, inner=dataclasses.replace(
            book, codewords=book.codewords[:-1] + book.codewords[:1]))
        monkeypatch.setattr(delcodes.cli, "make_scheme_spec",
                            lambda *args, **kwargs: broken)
        code, out, _ = run(capsys, "build", "--scheme", "highnoise")
        assert code == 1
        assert "  ok = False\n" in out
        assert "violation: duplicate codewords" in out.splitlines()

    @pytest.mark.parametrize("command", ["build", "sweep"])
    def test_codebook_flag_is_build_only(self, capsys, tmp_path, command):
        code, _, err = run(capsys, command, "--codebook",
                           str(tmp_path / "book"))
        assert code == 2
        assert "unrecognized arguments: --codebook" in err
        assert not (tmp_path / "book").exists()

    def test_verify_inner_is_gone(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify-inner", "--codebook",
                           str(tmp_path / "book"))
        assert code == 2
        assert "invalid choice: 'verify-inner'" in err

    def test_impossible_target_names_the_budget(self, capsys):
        code, _, err = run(capsys, "build", "--scheme", "hirate",
                           "--profile", "paper")
        assert code == 2
        assert err.startswith("infeasible:")
        assert "attempts" in err

    def test_starved_desk_book_is_infeasible(self, capsys):
        code, out, err = run(capsys, "build", "--scheme", "highnoise",
                             "--set", "k=4", "--set", "n=5",
                             "--set", "n_prime=1")
        assert code == 2
        assert out == ""
        assert err.startswith("infeasible:")
        assert "reached 4 of 40 codewords" in err

    def test_seeded_target_past_k_to_the_ell_is_refused(self, capsys,
                                                         monkeypatch):
        # GF(1024) asks the highnoise desk book (k = 256, ell = 2) for
        # 1024^2 codewords.  Each would hold a 2-subsequence that no other
        # holds, and there are only 256^2 of those, so the search is
        # refused before any candidate is drawn.
        def refuse(*args):
            raise AssertionError("candidate stream opened")
        monkeypatch.setattr(innercode, "_random_stream", refuse)
        code, out, err = run(capsys, "build", "--q", "1024")
        assert (code, out) == (2, "")
        assert err.startswith("infeasible:")
        assert "1048576" in err and "65536" in err

    def test_field_past_the_order_cap_is_refused(self, capsys):
        # 65537 is prime, but no spec over it could hold its n * q inner
        # codewords: the field is refused before any book is searched.
        code, out, err = run(capsys, "build", "--q", "65537")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "65536" in err


class TestSweepRecords:
    """One-cell sweeps printed as trial records: encode, attack, decode,
    compare."""

    def test_buffer_kill_at_guarantee(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "hirate",
                           "--strategy", "BUFFER_KILL", "--fraction", "7/372",
                           "--trials", "2", "--format", "records")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("scheme=")]
        assert len(lines) == 2
        assert all("outcome=ok" in l for l in lines)

    def test_fraction_zero_succeeds(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "listdec",
                           "--strategy", "RANDOM", "--fraction", "0",
                           "--trials", "1", "--format", "records")
        assert code == 0
        assert "pattern=0" in out

    def test_beyond_guarantee_is_reported_not_asserted(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scheme", "highnoise",
                           "--strategy", "RANDOM", "--fraction", "9/10",
                           "--trials", "2", "--format", "records")
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

    def test_negative_trial_count_is_config_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--scheme", "highnoise",
                             "--trials", "-1")
        assert code == 2
        assert err.startswith("error:")
        assert "no trials" not in out

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

    @pytest.mark.parametrize("line,problem", [
        ("hello=world", "lacks field"),
        ("scheme=hirate strategy=RANDOM fraction=1/0 seed=0 budget=0 "
         "pattern=0 outcome=ok telemetry=-", "zero denominator"),
        ("scheme=hirate strategy", "token 'strategy' lacks '='"),
        ("scheme=hirate strategy=RANDOM fraction=0 seed=0 budget=0 "
         "pattern=0 outcome=ok telemetry=voted:3,erasures",
         "token 'erasures' lacks ':'"),
    ], ids=["missing-fields", "zero-denominator", "token-without-equals",
            "telemetry-without-colon"])
    def test_malformed_record_is_config_error(self, capsys, tmp_path, line,
                                              problem):
        path = tmp_path / "trials.log"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "report", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert problem in err


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

    def test_bad_digit_is_config_error(self, capsys):
        code, out, err = run(capsys, "count", "--word", "0120", "--k", "2",
                             "--length", "6")
        assert code == 2
        assert err.startswith("error:")
        assert "exact" not in out


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
        # listdec's ell is ceil(1/delta^3), read from delta, not a key
        code, _, err = run(capsys, "build", "--scheme", "listdec",
                           "--set", "ell=5")
        assert code == 2
        assert "error:" in err

    def test_flags_a_command_does_not_use_are_rejected(self, capsys):
        code, _, _ = run(capsys, "build", "--scheme", "highnoise",
                         "--out", "x")
        assert code == 2
        code, _, err = run(capsys, "report", "--format", "records", "PATH")
        assert code == 2
        assert "unrecognized arguments: --format" in err
        code, _, err = run(capsys, "roundtrip")
        assert code == 2
        assert "invalid choice: 'roundtrip'" in err
        code, _, _ = run(capsys, "build", "--seed", "7")
        assert code == 2
        # an override key the scheme does not take
        code, _, err = run(capsys, "build", "--scheme", "highnoise",
                           "--set", "h=3")
        assert code == 2
        assert err.startswith("error:")
        # the outer shape is set by --q and --set keys, not by flags
        for argv in (("--scheme", "hirate", "--h", "3"),
                     ("--scheme", "listdec", "--outer", "5", "3", "1")):
            code, _, err = run(capsys, "build", *argv)
            assert code == 2
            assert "unrecognized arguments" in err
        # --q reaches listdec: GF(7) asks its book for 21 codewords
        code, _, err = run(capsys, "build", "--scheme", "listdec", "--q", "7")
        assert code == 2
        assert err.startswith("infeasible:")
        assert "reached 18 of 21 codewords" in err

    @pytest.mark.parametrize("argv,problem", [
        (("build", "--eps", "1/0"), "zero denominator"),
        (("sweep", "--fraction", "1/0", "--trials", "1"), "zero denominator"),
        (("build", "--set", "delta=1/0"), "zero denominator"),
        (("build", "--scheme", "hirate", "--set", "zeros=1/2"),
         "must be an integer"),
        (("build", "--scheme", "hirate", "--set", "min_gap=1/2"),
         "must be an integer"),
        (("build", "--set", "m=17/2"), "must be an integer"),
    ], ids=["eps", "fraction", "delta", "zeros", "min_gap", "m"])
    def test_malformed_value_is_config_error(self, capsys, argv, problem):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "error" in err
        assert problem in err

    def test_listdec_outer_length_is_an_override(self, capsys):
        code, _, _ = run(capsys, "build", "--scheme", "listdec",
                         "--set", "n=2")
        assert code == 0

    def test_readme_commands_parse(self):
        commands = list(_readme_commands())
        assert len(commands) >= 8
        for argv in commands:
            build_parser().parse_args(argv)
