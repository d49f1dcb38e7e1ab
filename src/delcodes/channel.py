"""Adversarial deletion channel: patterns, attack strategies, trial runner.

Every channel target is a scheme spec that sends a Word, and every received
word is scored one way, by the spec's scorer for the message that was
sent.  The decoders' guarantees quantify over every deletion pattern
within a budget, which no finite strategy suite can cover.  The
compromise here is exhaustive enumeration where it is affordable
(GREEDY_LCS on small words: the first pattern that defeats the decoder)
plus named strategies that reproduce each failure case the constructions
defend against: erasing whole blocks, merging same-header neighbours,
killing or forging buffers, and shifting the decoding grid.  Every
strategy is budget-respecting by hard assertion, and the runner records
ground-truth accounting (wrong votes, surviving blocks) per trial so a
broken bound shows up even when decoding happens to succeed.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .common import derive_seed
from .errors import (
    BudgetExceeded,
    GuardExceeded,
    InvalidOverride,
    OutOfRange,
    PatternOutOfRange,
)
from .seqkit import Word

STRATEGY_NAMES = (
    "RANDOM",
    "BLOCK_ERASE",
    "MERGE_ATTACK",
    "BUFFER_KILL",
    "DENSITY_ATTACK",
    "WINDOW_SHIFT",
    "GREEDY_LCS",
)

# Exhaustive pattern enumeration cap for GREEDY_LCS.
EXHAUSTIVE_PATTERN_CAP = 1 << 15


@dataclass(frozen=True)
class DeletionPattern:
    positions: tuple[int, ...]

    def __post_init__(self):
        prev = -1
        for p in self.positions:
            if p <= prev:
                raise PatternOutOfRange(
                    "pattern positions must be strictly increasing and >= 0")
            prev = p

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Strategy:
    name: str
    seed: int = 0

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise InvalidOverride(
                f"unknown strategy {self.name!r}; valid: {', '.join(STRATEGY_NAMES)}")


def apply_deletions(w, p: DeletionPattern):
    """The subsequence of w omitting exactly the pattern positions, as a
    word over the same alphabet."""
    if p.positions and p.positions[-1] >= len(w.symbols):
        raise PatternOutOfRange(
            f"position {p.positions[-1]} outside word of length {len(w)}")
    return Word._trusted(_kept(w.symbols, p.positions), w.alphabet_size)


def _kept(syms: tuple[int, ...], positions) -> tuple[int, ...]:
    # The slices between the ascending positions, joined.
    kept = []
    for a, b in zip((-1, *positions), (*positions, len(syms))):
        kept += syms[a + 1:b]
    return tuple(kept)


def attack(strategy: Strategy, message, transmitted, scheme_spec,
           budget: int) -> DeletionPattern:
    """A budget-respecting deletion pattern against transmitted, the
    encoding of message, deterministic given the seed.

    Strategies tied to a geometry the spec does not have degrade to the
    closest meaningful thing: BUFFER_KILL and DENSITY_ATTACK fall back to
    RANDOM off the buffered scheme, MERGE_ATTACK deletes across a block
    junction when there are no buffers or headers to exploit.
    """
    length = len(transmitted.symbols)
    if not 0 <= budget <= length:
        raise OutOfRange(f"budget {budget} outside [0, {length}]")
    rng = random.Random(strategy.seed)
    # Codeword and buffer spans of the clean transmitted word, clamped.
    blocks, buffers = ([(min(s, length), min(e, length)) for s, e in spans]
                       for spans in scheme_spec.spans())
    name = strategy.name

    if name == "GREEDY_LCS":
        positions = _exhaustive_worst(message, transmitted, scheme_spec,
                                      budget)
    elif name == "WINDOW_SHIFT":
        positions = list(range(budget))
    elif name == "BLOCK_ERASE":
        # Whole blocks only: a partially erased block still carries votes.
        positions = _erase_groups(rng, [[b] for b in blocks], budget)
    elif name == "MERGE_ATTACK":
        positions = _merge_attack(rng, scheme_spec, blocks, buffers,
                                  budget, length)
    elif name == "BUFFER_KILL" and buffers:
        positions = _buffer_kill(rng, scheme_spec, buffers, budget)
    elif name == "DENSITY_ATTACK" and buffers:
        positions = _density_attack(rng, scheme_spec, transmitted, blocks,
                                    budget)
    else:  # RANDOM, and the buffer attacks on a scheme without buffers
        positions = sorted(rng.sample(range(length), budget))

    pattern = DeletionPattern(tuple(positions))
    if len(pattern) > budget:
        raise BudgetExceeded(
            f"{name} produced {len(pattern)} deletions over budget {budget}")
    return pattern


def _erase_groups(rng, groups, budget: int) -> list[int]:
    # Erase whole span groups in random order, each while the budget lasts;
    # a group of no symbols, or sharing a span already erased, is skipped.
    order = list(range(len(groups)))
    rng.shuffle(order)
    out: list[int] = []
    erased: set[tuple[int, int]] = set()
    remaining = budget
    for g in order:
        group = groups[g]
        cost = sum(e - s for s, e in group)
        if not 0 < cost <= remaining or not erased.isdisjoint(group):
            continue
        for span in group:
            out.extend(range(*span))
        erased.update(group)
        remaining -= cost
    return sorted(out)


def _merge_attack(rng, spec, blocks, buffers, budget: int,
                  length: int) -> list[int]:
    groups = spec.merge_victims(blocks, buffers)
    if groups is not None:
        return _erase_groups(rng, groups, budget)
    # No headers, no buffers: chew through one block junction.
    if len(blocks) < 2 or budget == 0:
        return []
    boundary = blocks[rng.randrange(len(blocks) - 1)][1]
    span = min(budget, blocks[0][1] - blocks[0][0])
    start = max(0, min(boundary - span // 2, length - span))
    return list(range(start, start + span))


def _buffer_kill(rng, spec, buffers, budget: int) -> list[int]:
    # Thin buffers by the decoder's run threshold, round-robin: round r
    # takes the r-th run of thr symbols of every buffer that still holds
    # one, buffers in a shuffled order, while the budget lasts.
    thr = spec.run_threshold
    order = list(range(len(buffers)))
    rng.shuffle(order)
    rounds = max((e - s) // thr for s, e in buffers)
    starts = [buffers[b][0] + r * thr for r in range(rounds) for b in order
              if buffers[b][0] + (r + 1) * thr <= buffers[b][1]]
    return sorted(p for start in starts[:budget // thr]
                  for p in range(start, start + thr))


def _density_attack(rng, spec, transmitted, blocks,
                    budget: int) -> list[int]:
    # Delete the 1-runs between threshold many in-codeword zeros so a run
    # of run_threshold zeros appears inside a codeword and splits it.
    thr = spec.run_threshold
    syms = transmitted.symbols
    options: list[tuple[int, int, tuple[int, ...]]] = []
    for s, e in blocks:
        zeros = [p for p in range(s, e) if syms[p] == 0]
        for i in range(len(zeros) - thr + 1):
            span = zeros[i:i + thr]
            ones = tuple(p for p in range(span[0], span[-1] + 1)
                         if syms[p] == 1)
            options.append((len(ones), rng.random(), ones))
    options.sort(key=lambda t: (t[0], t[1]))
    out: set[int] = set()
    remaining = budget
    for cost, _, ones in options:
        fresh = [p for p in ones if p not in out]
        if cost == 0 or len(fresh) > remaining:
            continue
        out.update(fresh)
        remaining -= len(fresh)
    return sorted(out)


# ---------------------------------------------------------------------------
# Exhaustive minimax oracle


def _exhaustive_worst(message, transmitted, spec, budget: int) -> list[int]:
    """The first pattern within budget that defeats the decoder, or [].

    Patterns are tried by size, 1 up to budget, each size in
    itertools.combinations order, and each surviving word is scored as a
    trial is, by the spec's scorer for the sent message, where any outcome
    but "ok" is a defeat.  So the result is empty iff no pattern of 1 to
    budget deletions defeats the decoder; tests use this as a true
    worst-case certificate on small instances.

    The outcome depends on the received word alone (only telemetry reads
    the pattern), and deleting any symbol of a run leaves the same word, so
    each distinct received word is decoded once.
    """
    length = len(transmitted.symbols)
    total = sum(math.comb(length, j) for j in range(budget + 1))
    if total > EXHAUSTIVE_PATTERN_CAP:
        raise GuardExceeded(
            f"{total} patterns exceed the exhaustive cap {EXHAUSTIVE_PATTERN_CAP}")
    score = spec.scorer(message)
    outcomes: dict[tuple[int, ...], str] = {}
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(length), size):
            kept = _kept(transmitted.symbols, combo)
            if kept not in outcomes:
                outcomes[kept], _ = score(DeletionPattern(combo), Word._trusted(
                    kept, transmitted.alphabet_size))
            if outcomes[kept] != "ok":
                return list(combo)
    return []


# ---------------------------------------------------------------------------
# Trial runner


@dataclass(frozen=True)
class TrialReport:
    scheme: str
    strategy: str
    fraction: Fraction
    seed_index: int
    budget: int
    pattern_size: int
    outcome: str
    telemetry: tuple[tuple[str, int], ...]
    wall_time: float

    def __post_init__(self):
        if self.pattern_size > self.budget:
            raise BudgetExceeded(
                f"trial pattern {self.pattern_size} over budget {self.budget}")


def trial_line(r: TrialReport) -> str:
    """One trial per line, fixed field order.

    Wall time stays out of the line on purpose: report files must be
    byte-identical across runs with the same master seed.
    """
    tel = ",".join(f"{k}:{v}" for k, v in r.telemetry) or "-"
    return (f"scheme={r.scheme} strategy={r.strategy} fraction={r.fraction} "
            f"seed={r.seed_index} budget={r.budget} pattern={r.pattern_size} "
            f"outcome={r.outcome} telemetry={tel}")


def _split_token(token: str, sep: str) -> list[str]:
    if sep not in token:
        raise ValueError(f"trial record token {token!r} lacks {sep!r}")
    return token.split(sep, 1)


def parse_trial_line(line: str) -> TrialReport:
    """The report trial_line printed; ValueError, naming the problem, for
    a line that lacks a field or a separator, or has a zero denominator."""
    parts = dict(_split_token(item, "=") for item in line.split())
    try:
        tel_text = parts["telemetry"]
        telemetry: tuple[tuple[str, int], ...] = ()
        if tel_text != "-":
            telemetry = tuple(
                (k, int(v)) for k, v in
                (_split_token(item, ":") for item in tel_text.split(",")))
        return TrialReport(
            scheme=parts["scheme"],
            strategy=parts["strategy"],
            fraction=Fraction(parts["fraction"]),
            seed_index=int(parts["seed"]),
            budget=int(parts["budget"]),
            pattern_size=int(parts["pattern"]),
            outcome=parts["outcome"],
            telemetry=telemetry,
            wall_time=0.0,
        )
    except KeyError as exc:
        raise ValueError(f"trial record lacks field {exc}: {line!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"trial record fraction {parts['fraction']} has a "
                         "zero denominator") from None


def write_reports(reports, path) -> None:
    Path(path).write_text("".join(trial_line(r) + "\n" for r in reports))


def read_reports(path) -> list[TrialReport]:
    return [parse_trial_line(line)
            for line in Path(path).read_text().splitlines() if line.strip()]


def run_trials(spec, strategies, budget_fractions, num_seeds: int,
               master_seed: int = 0) -> list[TrialReport]:
    """Full factorial sweep: strategy x budget fraction x seed.

    Per-trial seeds derive from the master seed and the cell labels, so a
    single integer reproduces the whole sweep.  Individual decode failures
    are recorded as outcomes, never raised.  A budget fraction applies to
    the whole transmitted word, buffers included.
    """
    if not hasattr(spec, "scorer"):
        raise InvalidOverride(
            f"trial runner cannot drive {type(spec).__name__}")
    if num_seeds < 0:
        raise OutOfRange(f"trial count {num_seeds} is negative")
    order, msg_len = spec.rs.field.order, spec.rs.nprime
    reports: list[TrialReport] = []
    for strat in strategies:
        for frac in budget_fractions:
            frac = Fraction(frac)
            if not 0 <= frac <= 1:
                raise OutOfRange(f"budget fraction {frac} outside [0, 1]")
            for si in range(num_seeds):
                tseed = derive_seed(master_seed, spec.name, strat.name,
                                    frac, si)
                rng = random.Random(tseed)
                msg = [rng.randrange(order) for _ in range(msg_len)]
                transmitted = spec.encode(msg)
                budget = int(frac * len(transmitted.symbols))
                t0 = time.perf_counter()
                pattern = attack(replace(strat, seed=tseed), msg,
                                 transmitted, spec, budget)
                received = apply_deletions(transmitted, pattern)
                outcome, snapshot = spec.scorer(msg)(pattern, received)
                wall = time.perf_counter() - t0
                reports.append(TrialReport(
                    scheme=spec.name, strategy=strat.name, fraction=frac,
                    seed_index=si, budget=budget,
                    pattern_size=len(pattern), outcome=outcome,
                    telemetry=snapshot, wall_time=wall,
                ))
    return reports
