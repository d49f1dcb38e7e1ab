"""Concatenated code correcting a 1 - epsilon fraction of deletions.

Outer Reed-Solomon symbols are replaced by pairs (position, value), each pair
is encoded by a UNIQUE inner codebook, and every inner symbol carries a small
header: the position index mod D.  A channel symbol is one letter of the
alphabet of size D*k that encodes (header, payload) as header*k + payload.
Headers let the decoder cut the received word into blocks without trusting
symbol counts, in one scan: a block runs while symbols stay in the
[h*k, h*k + k) range of its first symbol.  The pair payload then pins the
outer position exactly, so header arithmetic never has to be inverted.

Decoding collects one (position, value) vote per surviving block, drops
positions with conflicting votes, and hands the rest to the errors-and-
erasures outer decoder.  The accounting that makes this work is surfaced as
telemetry: with s wrong votes and r missing positions, recovery needs
2s + r below the outer margin, and tests assert the inequality per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .common import ConcatenatedSpec, DecodeResult, Profile, check_overrides
from .errors import OutOfRange
from .gf import make_field
from .innercode import Codebook, CodebookKind, spec_codebook
from .rsouter import RsParams
from .seqkit import Word


@dataclass(frozen=True)
class HighNoiseSpec(ConcatenatedSpec):
    epsilon: Fraction
    D: int
    inner: Codebook
    rs: RsParams

    name = "highnoise"
    buffer_len = 0

    @property
    def delta_in(self) -> Fraction:
        return self.inner.delta

    @property
    def guarantee_fraction(self) -> Fraction:
        """Largest deletion fraction the theorem still covers."""
        return 1 - self.epsilon

    @cached_property
    def alphabet_size(self) -> int:
        """D * k letters: a position header times k plus an inner symbol."""
        return self.D * self.inner.k

    @cached_property
    def pair_words(self) -> tuple[tuple[int, ...], ...]:
        """The inner codeword of each pair index i*q + c with every symbol s
        tagged by the header of position i, as (i % D)*k + s."""
        k, q = self.inner.k, self.q
        return tuple(tuple((idx // q % self.D) * k + s for s in cw.symbols)
                     for idx, cw in enumerate(self.inner.codewords))

    def encode(self, message) -> Word:
        return hn_encode(self, message)

    def decode(self, received: Word) -> DecodeResult:
        return hn_decode(self, received)

    def merge_victims(self, blocks, buffers):
        # The D - 1 blocks separating two positions with equal header.
        return [blocks[j + 1:j + self.D] for j in range(self.n - self.D)]

    def report_sections(self) -> list[tuple[str, dict]]:
        return [("rate", hn_rate_report(self))]


@dataclass(frozen=True)
class HnTelemetry:
    block_count: int
    inner_successes: int
    conflicts_removed: int
    erasures: int
    skipped_blocks: int
    pairs: tuple[tuple[int, int], ...]


_PAPER_KEYS = {"seed", "attempt_cap"}
_DESK_KEYS = _PAPER_KEYS | {"D", "k", "m", "n", "n_prime"}


def hn_make_spec(epsilon, q: int, profile: Profile = Profile.DESK,
                 overrides: dict | None = None) -> HighNoiseSpec:
    """Validate parameters and build the inner codebook.

    PAPER_ASYMPTOTIC derives D, k, m, n, n_prime from epsilon and q; DESK
    starts from the same derivation and applies overrides.  The inner book
    holds one codeword per (position, value) pair; under either profile a
    build that falls short raises InfeasibleAtDeskScale.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise OutOfRange(f"epsilon {eps} out of theorem range (0, 1/2]")
    overrides = check_overrides(overrides or {}, profile, _PAPER_KEYS,
                                _DESK_KEYS)

    field = make_field(q)
    D = overrides.get("D", math.ceil(8 / eps))
    k = overrides.get("k", math.ceil(64 / eps**3))
    m = overrides.get("m", math.ceil(12 * math.log2(q) / eps))
    n = overrides.get("n", q)
    n_prime = overrides.get("n_prime", math.ceil(eps * n / 2))

    if D < 2:
        raise OutOfRange(f"header modulus must be >= 2, got {D}")
    rs = RsParams(field, n, n_prime)

    inner = spec_codebook(CodebookKind.UNIQUE, k, m, 1 - eps / 2,
                          target=n * q, overrides=overrides)
    return HighNoiseSpec(eps, D, inner, rs)


def hn_rate_report(spec: HighNoiseSpec) -> dict:
    """Overall rate and its factor decomposition against the eps^2 claim."""
    log_alpha = math.log2(spec.alphabet_size)
    rate = spec.n_prime * math.log2(spec.q) / (spec.encoded_length * log_alpha)
    eps_sq = float(spec.epsilon) ** 2
    return {
        "rate": rate,
        "dimension_ratio": Fraction(spec.n_prime, spec.n),
        "inner_bits_per_symbol": math.log2(spec.q) / spec.m,
        "alphabet_bits": log_alpha,
        "epsilon_sq": eps_sq,
        "rate_over_epsilon_sq": rate / eps_sq,
    }


def hn_encode(spec: HighNoiseSpec, message) -> Word:
    """RS-encode, wrap each outer symbol as (position, value), inner-encode,
    and tag every inner symbol s with the position header h as h*k + s."""
    return spec.channel_word(message)


def hn_partition_blocks(received: Word, k: int) -> list[tuple[int, ...]]:
    """Cut the received word into maximal constant-header runs (equal
    header h = symbol // k), and return each run's payloads (symbol - h*k)
    as a tuple of inner symbols, in one scan: a run goes on while symbols
    stay in [base, base + k), base = h*k of its first symbol."""
    runs: list[list[int]] = []
    base = top = 0
    for s in received.symbols:
        if base <= s < top:
            run.append(s - base)
        else:
            base = s - s % k
            top = base + k
            run = [s - base]
            runs.append(run)
    return list(map(tuple, runs))


def hn_decode(spec: HighNoiseSpec, received: Word) -> DecodeResult:
    """Partition into blocks, keep those whose length can vote, and hand
    them to the spec's one vote-to-message step: one (position, value) vote
    per decodable block, conflicting positions dropped, outer decode.

    Raises DecodeFailure (telemetry attached) when the outer decoder cannot
    finish; under the deletion budget this cannot happen.
    """
    spec.check_alphabet(received)
    k, m, shortest = spec.inner.k, spec.m, spec.inner.separation_threshold
    blocks = hn_partition_blocks(received, k)
    fitting = [b for b in blocks if shortest <= len(b) <= m]
    return spec.decode_pieces(
        fitting, lambda voted, conflicts, erasures, pairs: HnTelemetry(
            block_count=len(blocks), inner_successes=voted,
            conflicts_removed=conflicts, erasures=erasures,
            skipped_blocks=len(blocks) - len(fitting), pairs=pairs))
