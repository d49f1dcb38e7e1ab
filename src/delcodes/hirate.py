"""High-rate binary code correcting an epsilon fraction of deletions.

Outer Reed-Solomon symbols over GF(q^h) are labeled with their position,
pair-encoded by a DENSE inner codebook, and the inner codewords are joined
with all-zero buffers.  Density keeps long zero runs out of codewords, so
the decoder can cut the received word at surviving buffer runs, decode each
window to a (position, value) vote, and finish with errors-and-erasures
outer decoding exactly as in the high-noise scheme.

The window threshold is ceil(delta*m/2): a buffer must lose enough zeros to
drop below it before windows merge, and a codeword must lose enough ones to
manufacture a run that long before a window splits.  br_guarantee_report
prices those attacks for a concrete spec so tests can check the adversary
budget cannot afford them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .common import ConcatenatedSpec, Profile
from .errors import (
    Ambiguous,
    DecodeFailure,
    InvalidOverride,
    NoMatch,
    NotBinary,
    OutOfRange,
)
from .gf import FieldElem, make_field
from .innercode import (
    Codebook,
    CodebookKind,
    inner_decode_unique,
    separation_threshold,
    spec_codebook,
)
from .rsouter import ERASED, RsParams, outer_word, rs_decode_ee
from .seqkit import Word, runs_of_zero


def frac_sqrt(x: Fraction) -> Fraction:
    """Square root as an exact Fraction when x is a perfect rational square,
    else the closest double. Derived thresholds stay exact in the cases the
    asymptotic formulas are actually exercised (epsilon a square)."""
    x = Fraction(x)
    if x < 0:
        raise OutOfRange("square root of a negative rational")
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return Fraction(math.sqrt(x))


@dataclass(frozen=True)
class DecodingWindow:
    start: int
    symbols: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class HiRateSpec(ConcatenatedSpec):
    epsilon: Fraction
    delta: Fraction
    beta: Fraction
    buffer_len: int
    m: int
    n: int
    q: int
    h: int
    n_prime: int
    inner: Codebook
    rs: RsParams
    profile: Profile

    name = "hirate"

    @property
    def run_threshold(self) -> int:
        # Minimum zero-run length treated as a buffer by the decoder.
        return math.ceil(self.delta * self.m / 2)

    @property
    def ell(self) -> int:
        return separation_threshold(self.m, self.delta)

    @property
    def encoded_length(self) -> int:
        return self.n * self.m + (self.n - 1) * self.buffer_len

    @property
    def guarantee_fraction(self) -> Fraction:
        """Largest deletion fraction the theorem still covers."""
        return self.epsilon

    def encode(self, message) -> Word:
        return br_encode(self, message)

    def decode(self, received: Word) -> BrDecodeResult:
        return br_decode(self, received)

    def spans(self):
        """Inner codeword spans, each followed by a buffer but the last."""
        stride = self.m + self.buffer_len
        blocks = [(i * stride, i * stride + self.m) for i in range(self.n)]
        buffers = [(i * stride + self.m, (i + 1) * stride)
                   for i in range(self.n - 1)]
        return blocks, buffers

    def merge_victims(self, blocks, buffers):
        # A whole buffer: its two neighbouring codewords become one window.
        return [[b] for b in buffers]

    def report_sections(self) -> list[tuple[str, dict]]:
        return [("rate", br_rate_report(self)),
                ("guarantee", br_guarantee_report(self))]


@dataclass(frozen=True)
class BrTelemetry:
    window_count: int
    inner_successes: int
    inner_failures: int
    conflicts_removed: int
    erasures: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BrDecodeResult:
    message: tuple[FieldElem, ...]
    telemetry: BrTelemetry


def br_derive(epsilon, q: int, h: int) -> dict:
    """Parameter derivations shared by both profiles: delta = 40*sqrt(eps),
    beta = delta/4, n = q, and the outer margin covering a 12*sqrt(eps)
    fraction of errors and erasures in the all-errors worst case."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise OutOfRange(f"epsilon {eps} must lie in (0, 1)")
    root = frac_sqrt(eps)
    delta = 40 * root
    n = q
    margin = max(1, math.ceil(24 * root * n))
    return {
        "delta": delta,
        "beta": delta / 4,
        "n": n,
        "n_prime": n - margin,
        "margin": margin,
    }


_PAPER_KEYS = {"m", "seed", "policy", "attempt_cap", "zeros", "min_gap"}
_DESK_KEYS = _PAPER_KEYS | {"delta", "beta", "buffer_len", "n", "n_prime"}


def br_make_spec(epsilon, q: int, h: int, profile: Profile = Profile.DESK,
                 overrides: dict | None = None, *,
                 cache_path=None) -> HiRateSpec:
    """Validate parameters and build (or load) the DENSE inner codebook.

    The inner block length m has no closed-form derivation (the paper takes
    whatever the inner construction provides), so both profiles require it
    via overrides.  DESK may further override delta, beta, buffer_len, n and
    n_prime; a short inner book keeps the spec valid with full_book False.
    """
    eps = Fraction(epsilon)
    overrides = dict(overrides or {})
    allowed = _PAPER_KEYS if profile is Profile.PAPER_ASYMPTOTIC else _DESK_KEYS
    unknown = set(overrides) - allowed
    if unknown:
        raise InvalidOverride(f"unknown override keys {sorted(unknown)}")
    if profile is Profile.PAPER_ASYMPTOTIC and eps >= Fraction(1, 1600):
        raise OutOfRange(
            f"epsilon {eps} forces delta = 40*sqrt(eps) >= 1; use DESK")

    derived = br_derive(eps, q, h)
    delta = Fraction(overrides.get("delta", derived["delta"]))
    beta = Fraction(overrides.get("beta", delta / 4))
    if "m" not in overrides:
        raise InvalidOverride("inner block length m must be supplied")
    m = int(overrides["m"])
    n = int(overrides.get("n", derived["n"]))
    n_prime = int(overrides.get("n_prime", derived["n_prime"]))
    buffer_len = int(overrides.get("buffer_len", math.ceil(delta * m)))

    if not 0 < delta <= 1:
        raise OutOfRange(f"delta {delta} must lie in (0, 1]")
    if h < 1:
        raise OutOfRange(f"field power {h} must be >= 1")
    field = make_field(q**h)
    if not 1 <= n_prime <= n <= q:
        raise OutOfRange(f"need 1 <= n_prime <= n <= q, got {n_prime}, {n}, {q}")
    thr = math.ceil(delta * m / 2)
    if buffer_len < thr:
        raise OutOfRange(
            f"buffer of {buffer_len} zeros is below the run threshold {thr}; "
            "the decoder could never find it")

    inner = spec_codebook(CodebookKind.DENSE, 2, m, delta, beta=beta,
                          target=n * field.order, overrides=overrides,
                          require_full=profile is Profile.PAPER_ASYMPTOTIC,
                          cache_path=cache_path)
    rs = RsParams(field, n, n_prime)
    return HiRateSpec(eps, delta, beta, buffer_len, m, n, q, h, n_prime,
                      inner, rs, profile)


def br_rate_report(spec: HiRateSpec) -> dict:
    """Achieved rate and the three claimed factors of the rate lemma."""
    root = float(frac_sqrt(spec.epsilon))
    d = float(spec.delta)
    achieved = (spec.n_prime * spec.h * math.log2(spec.q)) / spec.encoded_length
    outer_achieved = (spec.n_prime / spec.n) * (spec.h / (spec.h + 1))
    if 0 < d < 1:
        entropy = -(d * math.log2(d) + (1 - d) * math.log2(1 - d))
    else:
        entropy = 0.0
    return {
        "rate": achieved,
        "outer_factor_achieved": outer_achieved,
        "outer_factor_claimed": (1 - 24 * root) * spec.h / (spec.h + 1),
        "inner_factor_claimed": 1 - 2 * entropy,
        "buffer_factor_claimed": 1 / (1 + d),
        "inner_size": len(spec.inner.codewords),
        "inner_target": spec.pair_count,
        "full_book": spec.full_book,
    }


def br_guarantee_report(spec: HiRateSpec) -> dict:
    """Exact attack prices for this spec's actual codebook.

    kill_cost: deletions to shrink one buffer below the run threshold.
    split_cost: cheapest way to manufacture a threshold run inside any
    codeword (delete the ones between consecutive zeros).
    erase_cost: cheapest way to push one window below the inner threshold,
    counting boundary zeros absorbed into adjacent buffers.
    """
    thr = spec.run_threshold
    kill = spec.buffer_len - thr + 1
    split = None
    erase = None
    loss_needed = spec.m - spec.ell + 1
    for w in spec.inner.codewords:
        zpos = [i for i, s in enumerate(w.symbols) if s == 0]
        for a in range(len(zpos) - thr + 1):
            span = zpos[a + thr - 1] - zpos[a] + 1
            cost = span - thr
            split = cost if split is None else min(split, cost)
        erase = _min_erase(erase, w.symbols, zpos, loss_needed)
    return {
        "budget": int(spec.epsilon * spec.encoded_length),
        "run_threshold": thr,
        "kill_cost": kill,
        "split_cost": split,
        "erase_cost": erase,
        "loss_needed": loss_needed,
    }


def _end_moves(symbols, zpos, from_left: bool):
    # Absorption moves at one end: deleting a whole run of ones lets the
    # zero behind it merge into the adjacent buffer, losing run + 1 window
    # symbols for run deletions.
    moves = []
    if not zpos:
        return moves
    idx = list(zpos) if from_left else [len(symbols) - 1 - p for p in reversed(zpos)]
    prev = -1
    for p in idx:
        run = p - prev - 1
        moves.append((run, run + 1))
        prev = p
    return moves


def _min_erase(best, symbols, zpos, loss_needed):
    left = _end_moves(symbols, zpos, True)
    right = _end_moves(symbols, zpos, False)
    for nl in range(len(left) + 1):
        cl = sum(c for c, _ in left[:nl])
        ll = sum(l for _, l in left[:nl])
        for nr in range(len(right) + 1):
            if nl + nr > len(zpos):
                break
            cost = cl + sum(c for c, _ in right[:nr])
            loss = ll + sum(l for _, l in right[:nr])
            remaining = max(0, loss_needed - loss)
            cost += remaining  # interior deletions lose one symbol each
            best = cost if best is None else min(best, cost)
    return best


def br_encode(spec: HiRateSpec, message) -> Word:
    """RS-encode over GF(q^h), pair-label, inner-encode, join with buffers."""
    out: list[int] = []
    for i, w in enumerate(spec.inner_words(message)):
        if i:
            out.extend([0] * spec.buffer_len)
        out.extend(w.symbols)
    return Word(tuple(out), 2)


def br_windows(spec: HiRateSpec, received: Word) -> list[DecodingWindow]:
    """Cut the received word at zero runs of threshold length, then trim
    leading zeros off the first window and trailing zeros off the last."""
    if received.alphabet_size != 2:
        raise NotBinary("received word must be binary")
    thr = spec.run_threshold
    syms = received.symbols
    cuts = runs_of_zero(received, thr)
    segments: list[tuple[int, tuple[int, ...]]] = []
    pos = 0
    for iv in cuts:
        if iv.start > pos:
            segments.append((pos, syms[pos:iv.start]))
        pos = iv.end
    if pos < len(syms):
        segments.append((pos, syms[pos:]))

    windows: list[DecodingWindow] = []
    for i, (start, seg) in enumerate(segments):
        if i == 0:
            while seg and seg[0] == 0:
                seg = seg[1:]
                start += 1
        if i == len(segments) - 1:
            while seg and seg[-1] == 0:
                seg = seg[:-1]
        if seg:
            windows.append(DecodingWindow(start, tuple(seg)))
    return windows


def br_decode(spec: HiRateSpec, received: Word) -> BrDecodeResult:
    """Window, vote, drop conflicting positions, outer-decode.

    Same accounting as the high-noise scheme; the pair payload identifies
    the outer position, so window alignment is never needed.
    """
    windows = br_windows(spec, received)
    pairs: set[tuple[int, int]] = set()
    successes = failures = 0
    for win in windows:
        try:
            idx = inner_decode_unique(spec.inner, Word(win.symbols, 2))
        except (NoMatch, Ambiguous):
            failures += 1
            continue
        successes += 1
        pairs.add(spec.pair_of_index(idx))

    vector, conflicts = outer_word(pairs, spec.n)
    erasures = sum(1 for v in vector if v is ERASED)

    telemetry = BrTelemetry(
        window_count=len(windows),
        inner_successes=successes,
        inner_failures=failures,
        conflicts_removed=conflicts,
        erasures=erasures,
        pairs=tuple(sorted(pairs)),
    )
    try:
        msg = rs_decode_ee(spec.rs.field, vector, spec.n_prime)
    except DecodeFailure as exc:
        raise DecodeFailure(str(exc), telemetry=telemetry) from exc
    return BrDecodeResult(tuple(msg), telemetry)
