"""Adversarial deletion channel: patterns, attack strategies, trial runner.

The decoders' guarantees quantify over every deletion pattern within a
budget, which no finite strategy suite can cover.  The compromise here is
exhaustive enumeration where it is affordable (GREEDY_LCS on small words)
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
    params: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise InvalidOverride(
                f"unknown strategy {self.name!r}; valid: {', '.join(STRATEGY_NAMES)}")

    def param(self, key: str, default: int) -> int:
        for k, v in self.params:
            if k == key:
                return v
        return default


def apply_deletions(w, p: DeletionPattern):
    """The subsequence of w omitting exactly the pattern positions, as a
    word of the same type and alphabet."""
    syms = w.symbols
    if p.positions and p.positions[-1] >= len(syms):
        raise PatternOutOfRange(
            f"position {p.positions[-1]} outside word of length {len(syms)}")
    drop = frozenset(p.positions)
    kept = tuple(s for i, s in enumerate(syms) if i not in drop)
    return replace(w, symbols=kept)


def attack(strategy: Strategy, transmitted, scheme_spec,
           budget: int) -> DeletionPattern:
    """A budget-respecting deletion pattern, deterministic given the seed.

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
        positions = _exhaustive_worst(transmitted, scheme_spec, budget)
    elif name == "RANDOM":
        positions = sorted(rng.sample(range(length), budget))
    elif name == "WINDOW_SHIFT":
        positions = list(range(budget))
    elif name == "BLOCK_ERASE":
        positions = _block_erase(rng, blocks, budget)
    elif name == "MERGE_ATTACK":
        positions = _merge_attack(rng, scheme_spec, blocks, buffers,
                                  budget, length)
    elif name == "BUFFER_KILL":
        if buffers:
            positions = _buffer_kill(rng, scheme_spec, buffers, budget)
        else:
            positions = sorted(rng.sample(range(length), budget))
    elif name == "DENSITY_ATTACK":
        if buffers:
            positions = _density_attack(rng, scheme_spec, transmitted,
                                        blocks, budget)
        else:
            positions = sorted(rng.sample(range(length), budget))
    else:  # unreachable: Strategy validates the name
        raise InvalidOverride(f"unknown strategy {name!r}")

    pattern = DeletionPattern(tuple(positions))
    if len(pattern) > budget:
        raise BudgetExceeded(
            f"{name} produced {len(pattern)} deletions over budget {budget}")
    return pattern


def _block_erase(rng, blocks, budget: int) -> list[int]:
    # Whole blocks only: a partially erased block still carries votes.
    sizes = [e - s for s, e in blocks]
    order = list(range(len(blocks)))
    rng.shuffle(order)
    out: list[int] = []
    remaining = budget
    for b in order:
        if sizes[b] and sizes[b] <= remaining:
            out.extend(range(*blocks[b]))
            remaining -= sizes[b]
    return sorted(out)


def _merge_attack(rng, spec, blocks, buffers, budget: int,
                  length: int) -> list[int]:
    groups = spec.merge_victims(blocks, buffers)
    if groups is not None:
        # Erase whole groups in random order, each while the budget lasts.
        order = list(range(len(groups)))
        rng.shuffle(order)
        out: list[int] = []
        erased: set[tuple[int, int]] = set()
        remaining = budget
        for g in order:
            cost = sum(e - s for s, e in groups[g])
            if (not 0 < cost <= remaining
                    or any(span in erased for span in groups[g])):
                continue
            for span in groups[g]:
                out.extend(range(*span))
                erased.add(span)
            remaining -= cost
        return sorted(out)
    # No headers, no buffers: chew through one block junction.
    if len(blocks) < 2 or budget == 0:
        return []
    boundary = blocks[rng.randrange(len(blocks) - 1)][1]
    span = min(budget, blocks[0][1] - blocks[0][0])
    start = max(0, min(boundary - span // 2, length - span))
    return list(range(start, start + span))


def _buffer_kill(rng, spec: HiRateSpec, buffers, budget: int) -> list[int]:
    # Thin buffers by the decoder's run threshold, round-robin.
    thr = spec.run_threshold
    order = list(range(len(buffers)))
    rng.shuffle(order)
    taken = {b: 0 for b in order}
    out: list[int] = []
    remaining = budget
    progress = True
    while remaining >= thr and progress:
        progress = False
        for b in order:
            size = buffers[b][1] - buffers[b][0]
            take = min(thr, size - taken[b], remaining)
            if take < thr:
                continue
            start = buffers[b][0] + taken[b]
            out.extend(range(start, start + take))
            taken[b] += take
            remaining -= take
            progress = True
            if remaining < thr:
                break
    return sorted(out)


def _density_attack(rng, spec: HiRateSpec, transmitted, blocks,
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


def _exhaustive_worst(transmitted, spec, budget: int) -> list[int]:
    """Enumerate every pattern within budget, keep the most damaging one.

    The score is the decoder's confusion on the surviving word, so the
    returned pattern defeats the decoder iff any pattern does; tests use
    this as a true worst-case certificate on small instances.
    """
    length = len(transmitted.symbols)
    total = sum(math.comb(length, j) for j in range(budget + 1))
    if total > EXHAUSTIVE_PATTERN_CAP:
        raise GuardExceeded(
            f"{total} patterns exceed the exhaustive cap {EXHAUSTIVE_PATTERN_CAP}")
    score = spec.confusion_score(transmitted)
    best: tuple[int, ...] = ()
    best_score = score(transmitted)
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(length), size):
            received = apply_deletions(transmitted, DeletionPattern(combo))
            sc = score(received)
            if sc > best_score:
                best, best_score = combo, sc
    return list(best)


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


def parse_trial_line(line: str) -> TrialReport:
    parts = dict(item.split("=", 1) for item in line.split())
    tel_text = parts["telemetry"]
    telemetry: tuple[tuple[str, int], ...] = ()
    if tel_text != "-":
        telemetry = tuple((k, int(v)) for k, v in
                          (item.split(":", 1) for item in tel_text.split(",")))
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


def write_reports(reports, path) -> None:
    text = "".join(trial_line(r) + "\n" for r in reports)
    Path(path).write_text(text)


def read_reports(path) -> list[TrialReport]:
    out = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            out.append(parse_trial_line(line))
    return out


def run_trials(spec, strategies, budget_fractions, num_seeds: int,
               master_seed: int = 0,
               budget_basis: str = "transmitted") -> list[TrialReport]:
    """Full factorial sweep: strategy x budget fraction x seed.

    Per-trial seeds derive from the master seed and the cell labels, so a
    single integer reproduces the whole sweep.  Individual decode failures
    are recorded as outcomes, never raised.  budget_basis picks the length
    the fraction applies to: the literal transmitted word, or "payload" for
    codeword symbols only (excluding buffers).
    """
    if budget_basis not in ("transmitted", "payload"):
        raise InvalidOverride(f"unknown budget basis {budget_basis!r}")
    if not hasattr(spec, "decode_and_score"):
        raise InvalidOverride(
            f"trial runner cannot drive {type(spec).__name__}")
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
                basis = (len(transmitted.symbols)
                         if budget_basis == "transmitted"
                         else spec.payload_length)
                budget = min(int(frac * basis), len(transmitted.symbols))
                t0 = time.perf_counter()
                pattern = attack(replace(strat, seed=tseed), transmitted,
                                 spec, budget)
                received = apply_deletions(transmitted, pattern)
                outcome, snapshot = spec.decode_and_score(msg, pattern,
                                                          received)
                wall = time.perf_counter() - t0
                reports.append(TrialReport(
                    scheme=spec.name, strategy=strat.name, fraction=frac,
                    seed_index=si, budget=budget,
                    pattern_size=len(pattern), outcome=outcome,
                    telemetry=snapshot, wall_time=wall,
                ))
    return reports
