"""High-rate binary code correcting an epsilon fraction of deletions.

Outer Reed-Solomon symbols over GF(q^h) are labeled with their position,
pair-encoded by a DENSE inner codebook, and the inner codewords are joined
with all-zero buffers.  Density keeps long zero runs out of codewords, so
the decoder can cut the received word at surviving buffer runs, decode each
window to a (position, value) vote, and finish with errors-and-erasures
outer decoding exactly as in the high-noise scheme.

The window threshold is ceil(delta*m/2), delta and m the dense book's: a
buffer must lose enough zeros to drop below it before windows merge, and a
codeword must lose enough ones to manufacture a run that long before a
window splits.  br_guarantee_report prices those attacks for a concrete
spec so tests can check the adversary budget cannot afford them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .common import ConcatenatedSpec, DecodeResult, Profile, check_overrides
from .errors import OutOfRange
from .gf import make_field
from .innercode import Codebook, CodebookKind, spec_codebook
from .rsouter import RsParams
from .seqkit import Word, entropy


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
class HiRateSpec(ConcatenatedSpec):
    epsilon: Fraction
    buffer_len: int
    h: int
    inner: Codebook
    rs: RsParams

    name = "hirate"

    @cached_property
    def run_threshold(self) -> int:
        return run_threshold(self.inner.delta, self.m)

    @property
    def guarantee_fraction(self) -> Fraction:
        """Largest deletion fraction the theorem still covers."""
        return self.epsilon

    def encode(self, message) -> Word:
        return br_encode(self, message)

    def decode(self, received: Word) -> DecodeResult:
        return br_decode(self, received)

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


def run_threshold(delta, m: int) -> int:
    """Minimum zero-run length the decoder treats as a buffer."""
    return math.ceil(delta * m / 2)


def br_derive(epsilon, q: int) -> dict:
    """Parameter derivations shared by both profiles: delta = 40*sqrt(eps),
    n = q, and n_prime = n minus an outer margin covering a 12*sqrt(eps)
    fraction of errors and erasures in the all-errors worst case."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise OutOfRange(f"epsilon {eps} must lie in (0, 1)")
    root = frac_sqrt(eps)
    n = q
    margin = max(1, math.ceil(24 * root * n))
    return {"delta": 40 * root, "n": n, "n_prime": n - margin}


_PAPER_KEYS = {"m", "h", "seed", "attempt_cap", "zeros", "min_gap"}
_DESK_KEYS = _PAPER_KEYS | {"delta", "beta", "buffer_len", "n", "n_prime"}


def br_make_spec(epsilon, q: int, profile: Profile = Profile.DESK,
                 overrides: dict | None = None) -> HiRateSpec:
    """Validate parameters and build the DENSE inner codebook.

    q is the base field size; the outer code works over GF(q^h), where the
    field power h is an override key of both profiles (default 1).  The
    inner block length m has no closed-form derivation (the paper takes
    whatever the inner construction provides), so both profiles require it
    via overrides.  DESK may further override delta, beta, buffer_len, n and
    n_prime.  The inner book holds one codeword per (position, value) pair;
    under either profile a build that falls short raises
    InfeasibleAtDeskScale.
    """
    eps = Fraction(epsilon)
    overrides = check_overrides(overrides or {}, profile, _PAPER_KEYS,
                                _DESK_KEYS, ("m",))
    if profile is Profile.PAPER_ASYMPTOTIC and eps >= Fraction(1, 1600):
        raise OutOfRange(
            f"epsilon {eps} forces delta = 40*sqrt(eps) >= 1; use DESK")

    derived = br_derive(eps, q)
    delta = overrides.get("delta", derived["delta"])
    beta = overrides.get("beta", delta / 4)
    m = overrides["m"]
    h = overrides.get("h", 1)
    n = overrides.get("n", derived["n"])
    n_prime = overrides.get("n_prime", derived["n_prime"])
    buffer_len = overrides.get("buffer_len", math.ceil(delta * m))

    if not 0 < delta <= 1:
        raise OutOfRange(f"delta {delta} must lie in (0, 1]")
    if h < 1:
        raise OutOfRange(f"field power {h} must be >= 1")
    if n > q:
        raise OutOfRange(f"outer length {n} exceeds the base field size {q}")
    rs = RsParams(make_field(q**h), n, n_prime)
    thr = run_threshold(delta, m)
    if buffer_len < thr:
        raise OutOfRange(
            f"buffer of {buffer_len} zeros is below the run threshold {thr}; "
            "the decoder could never find it")

    inner = spec_codebook(CodebookKind.DENSE, 2, m, delta, beta=beta,
                          target=n * rs.field.order, overrides=overrides)
    return HiRateSpec(eps, buffer_len, h, inner, rs)


def br_rate_report(spec: HiRateSpec) -> dict:
    """Achieved rate and the three claimed factors of the rate lemma."""
    root = float(frac_sqrt(spec.epsilon))
    d = float(spec.inner.delta)
    achieved = spec.n_prime * math.log2(spec.q) / spec.encoded_length
    outer_achieved = (spec.n_prime / spec.n) * (spec.h / (spec.h + 1))
    return {
        "rate": achieved,
        "outer_factor_achieved": outer_achieved,
        "outer_factor_claimed": (1 - 24 * root) * spec.h / (spec.h + 1),
        "inner_factor_claimed": 1 - 2 * entropy(d),
        "buffer_factor_claimed": 1 / (1 + d),
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
    loss_needed = spec.m - spec.inner.separation_threshold + 1
    zeros = [[i for i, s in enumerate(w.symbols) if s == 0]
             for w in spec.inner.codewords]
    return {
        "budget": int(spec.epsilon * spec.encoded_length),
        "run_threshold": thr,
        "kill_cost": spec.buffer_len - thr + 1,
        "split_cost": min((z[a + thr - 1] - z[a] + 1 - thr for z in zeros
                           for a in range(len(z) - thr + 1)), default=None),
        "erase_cost": min(_erase_cost(z, spec.m, loss_needed) for z in zeros),
        "loss_needed": loss_needed,
    }


def _erase_cost(zpos, m: int, loss_needed: int) -> int:
    # Fewest deletions that shorten a window, a codeword of length m with
    # zeros at zpos, by loss_needed symbols.  An end move deletes the ones
    # before the next zero from that end, and the zero merges into the
    # buffer: the a-th move from the left loses left[a] symbols for
    # left[a] - a deletions, likewise from the right, and each interior
    # deletion loses one symbol.
    left = [0] + [p + 1 for p in zpos]
    right = [0] + [m - p for p in reversed(zpos)]
    return min(max(left[a] + right[b], loss_needed) - a - b
               for a in range(len(left)) for b in range(len(left) - a))


def br_encode(spec: HiRateSpec, message) -> Word:
    """RS-encode over GF(q^h), pair-label, inner-encode, join with buffers."""
    return spec.channel_word(message)


def br_windows(spec: HiRateSpec, received: Word) -> list[tuple[int, ...]]:
    """Strip the zeros off both ends of the received word and cut it at
    zero runs of threshold length; each window is a tuple of symbols."""
    spec.check_alphabet(received)
    body = bytes(received.symbols).strip(b"\0")
    return [tuple(seg) for seg in
            re.split(b"\0{%d,}" % spec.run_threshold, body) if seg]


def br_decode(spec: HiRateSpec, received: Word) -> DecodeResult:
    """Cut the received word into windows and hand them to the spec's one
    vote-to-message step: vote, drop conflicting positions, outer-decode.

    Same accounting as the high-noise scheme; the pair payload identifies
    the outer position, so window alignment is never needed.
    """
    windows = br_windows(spec, received)
    return spec.decode_pieces(
        windows, lambda voted, conflicts, erasures, pairs: BrTelemetry(
            window_count=len(windows), inner_successes=voted,
            inner_failures=len(windows) - voted, conflicts_removed=conflicts,
            erasures=erasures, pairs=pairs))
