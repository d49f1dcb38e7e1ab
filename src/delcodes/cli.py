"""Command-line front end: build specs, sweep trials, report.

Exit codes are a contract for CI: 0 success, 1 a within-budget trial
falsified a decoding guarantee or a built inner book failed its defining
property (a real bug), 2 configuration or feasibility trouble.  Every
command is deterministic given its flags: sweep derives every trial from
the master --seed, and an inner book's seed is set with --set seed=N.
Rationals (--eps, --fraction and every --set value) are passed as NUM/DEN
so threshold integerizations stay exact; the spec builders give each
override value its type.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .channel import (
    STRATEGY_NAMES,
    Strategy,
    read_reports,
    run_trials,
    trial_line,
    write_reports,
)
from .common import Profile
from .errors import DeletionCodeError, InfeasibleAtDeskScale
from .innercode import check_codebook, rate_report
from .presets import SCHEMES, make_scheme_spec
from .seqkit import (
    Word,
    count_bound_binary,
    count_bound_general,
    count_supersequences,
)

_PROFILES = {"paper": Profile.PAPER_ASYMPTOTIC, "desk": Profile.DESK}


def _rational(text: str) -> Fraction:
    """An exact NUM/DEN (or integer) value; ArgumentTypeError names the
    problem, and argparse (a flag) or main (a --set value) exits 2."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _rationals(text: str) -> list[Fraction]:
    return [_rational(t) for t in text.split(",")]


def _parse_overrides(items: list[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key] = _rational(value)
    return out


def _parse_strategies(text: str) -> list[str]:
    # Strategy checks the names.
    return [t.strip().upper() for t in text.split(",") if t.strip()]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="delcodes",
        description="Worst-case deletion codes: build, corrupt, decode, report.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scheme", choices=SCHEMES, default="highnoise")
        p.add_argument("--profile", choices=sorted(_PROFILES),
                       default="desk")
        p.add_argument("--eps", type=_rational, default=None,
                       metavar="NUM/DEN")
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides")

    p = sub.add_parser("build", help="construct a spec, print the rate "
                                     "report, check its inner book")
    common(p)

    p = sub.add_parser("sweep", help="full strategy x fraction x seed sweep")
    common(p)
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--out", default=None, metavar="PATH")
    p.add_argument("--format", choices=["text", "records"], default="text",
                   dest="fmt")
    p.add_argument("--strategy", type=_parse_strategies, default=None,
                   metavar="NAME[,NAME...]")
    p.add_argument("--fraction", type=_rationals, default=None,
                   metavar="NUM/DEN[,NUM/DEN...]")
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("report", help="summarize a sweep records file")
    p.add_argument("path", metavar="RECORDS")

    p = sub.add_parser("count",
                       help="supersequence counting oracle and its bounds")
    p.add_argument("--word", required=True, metavar="DIGITS")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--length", type=int, required=True, metavar="M")

    # Whole flag names only, so a removed flag (--h) is not taken for --help.
    for p in (top, *sub.choices.values()):
        p.allow_abbrev = False
    return top


def _spec_for(ns: argparse.Namespace):
    return make_scheme_spec(
        ns.scheme, _PROFILES[ns.profile], epsilon=ns.eps,
        overrides=_parse_overrides(ns.overrides), q=ns.q)


def _guarantee_fraction(spec) -> Fraction:
    """spec.guarantee_fraction, under the name bench/workloads.py calls."""
    return spec.guarantee_fraction


def _print_report(title: str, report: dict) -> None:
    print(f"[{title}]")
    for key, value in report.items():
        print(f"  {key} = {value}")


def cmd_build(ns: argparse.Namespace) -> int:
    spec = _spec_for(ns)
    for title, report in spec.report_sections():
        _print_report(title, report)
    book = spec.inner
    _print_report("inner counting", rate_report(book))
    print(f"inner codebook: {len(book.codewords)} codewords, kind "
          f"{book.kind.value}")
    check = check_codebook(book)
    violations = check.pop("violations")
    _print_report("inner check", check)
    for v in violations:
        print(f"violation: {v}")
    return 0 if check["ok"] else 1


def _default_strategies() -> list[str]:
    return [n for n in STRATEGY_NAMES if n != "GREEDY_LCS"]


def cmd_sweep(ns: argparse.Namespace) -> int:
    names = ns.strategy if ns.strategy is not None else _default_strategies()
    strategies = [Strategy(n) for n in names]
    spec = _spec_for(ns)
    guarantee = spec.guarantee_fraction
    reports = run_trials(spec, strategies, ns.fraction or [0, guarantee],
                         ns.trials, master_seed=ns.seed)
    if ns.out:
        write_reports(reports, ns.out)
        print(f"{len(reports)} trial records written to {ns.out}")
    if ns.fmt == "records":
        for r in reports:
            print(trial_line(r))
    else:
        _summary(reports)
    bad = [r for r in reports
           if r.fraction <= guarantee and r.outcome != "ok"]
    if bad:
        print(f"FALSIFIED: {len(bad)} within-budget trials failed "
              f"(guarantee fraction {guarantee})", file=sys.stderr)
        return 1
    return 0


def _summary(reports) -> None:
    cells: dict[tuple[str, Fraction], list[int]] = {}
    for r in reports:
        ok, total = cells.setdefault((r.strategy, r.fraction), [0, 0])
        cells[(r.strategy, r.fraction)] = [ok + (r.outcome == "ok"), total + 1]
    if not cells:
        print("no trials")
        return
    width = max(len(s) for s, _ in cells) + 2
    print(f"{'strategy':<{width}}{'fraction':>12}{'ok/total':>12}")
    for (strategy, fraction), (ok, total) in sorted(
            cells.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        print(f"{strategy:<{width}}{str(fraction):>12}{f'{ok}/{total}':>12}")


def cmd_report(ns: argparse.Namespace) -> int:
    _summary(read_reports(ns.path))
    return 0


def cmd_count(ns: argparse.Namespace) -> int:
    if ns.k <= 10:
        w = Word.from_digits(ns.word, ns.k)
    else:
        w = Word(tuple(int(c) for c in ns.word.split(",")), ns.k)
    ell = len(w)
    m = ns.length
    exact = count_supersequences(w, m, ns.k)
    general = count_bound_general(ell, m, ns.k)
    print(f"word length {ell}, target length {m}, alphabet {ns.k}")
    print(f"exact supersequence count = {exact}")
    print(f"general bound k^(m-l)*C(m,l) = {general}")
    if ns.k == 2:
        if 2 * ell > m:
            print(f"binary bound (m-l)*C(m,l) = {count_bound_binary(ell, m)}")
        else:
            print("binary bound (m-l)*C(m,l): not stated for l <= m/2")
    return 0


_COMMANDS = {
    "build": cmd_build,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "count": cmd_count,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return _COMMANDS[ns.command](ns)
    except InfeasibleAtDeskScale as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (DeletionCodeError, ValueError, argparse.ArgumentTypeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
