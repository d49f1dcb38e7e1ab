"""Concatenated code correcting a 1 - epsilon fraction of deletions.

Outer Reed-Solomon symbols are replaced by pairs (position, value), each pair
is encoded by a UNIQUE inner codebook, and every inner symbol carries a small
header: the position index mod D.  Headers let the decoder cut the received
word into blocks without trusting symbol counts; the pair payload then pins
the outer position exactly, so header arithmetic never has to be inverted.

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

from .common import ConcatenatedSpec, Profile
from .errors import (
    AlphabetMismatch,
    Ambiguous,
    DecodeFailure,
    InvalidOverride,
    NoMatch,
    OutOfRange,
)
from .gf import FieldElem
from .gf import make_field
from .innercode import (
    Codebook,
    CodebookKind,
    inner_decode_unique,
    spec_codebook,
)
from .rsouter import ERASED, RsParams, outer_word, rs_decode_ee
from .seqkit import Word


@dataclass(frozen=True)
class HeaderedWord:
    """Sequence of (header, payload) channel symbols."""

    symbols: tuple[tuple[int, int], ...]
    header_mod: int
    alphabet: int

    def __post_init__(self):
        if self.header_mod < 1 or self.alphabet < 1:
            raise OutOfRange("header modulus and alphabet must be positive")
        for h, p in self.symbols:
            if not 0 <= h < self.header_mod:
                raise OutOfRange(f"header {h} outside [0, {self.header_mod})")
            if not 0 <= p < self.alphabet:
                raise OutOfRange(f"payload {p} outside [0, {self.alphabet})")

    def __len__(self) -> int:
        return len(self.symbols)

    def headers(self) -> tuple[int, ...]:
        return tuple(h for h, _ in self.symbols)


@dataclass(frozen=True)
class Block:
    """Maximal constant-header run of a received word."""

    start: int
    header: int
    payload: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class HighNoiseSpec(ConcatenatedSpec):
    epsilon: Fraction
    D: int
    k: int
    m: int
    n: int
    q: int
    n_prime: int
    inner: Codebook
    rs: RsParams
    profile: Profile

    name = "highnoise"

    @property
    def delta_in(self) -> Fraction:
        return 1 - self.epsilon / 2

    @property
    def min_block(self) -> int:
        # Minimum decodable block length; equal to the inner separation
        # threshold, so any block this long matches at most one codeword.
        return math.ceil(self.epsilon * self.m / 2)

    @property
    def guarantee_fraction(self) -> Fraction:
        """Largest deletion fraction the theorem still covers."""
        return 1 - self.epsilon

    def encode(self, message) -> HeaderedWord:
        return hn_encode(self, message)

    def decode(self, received: HeaderedWord) -> HnDecodeResult:
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


@dataclass(frozen=True)
class HnDecodeResult:
    message: tuple[FieldElem, ...]
    telemetry: HnTelemetry


_OVERRIDE_KEYS = {"D", "k", "m", "n", "n_prime", "seed", "policy", "attempt_cap"}


def hn_make_spec(epsilon, q: int, profile: Profile = Profile.DESK,
                 overrides: dict | None = None, *,
                 cache_path=None) -> HighNoiseSpec:
    """Validate parameters and build (or load) the inner codebook.

    PAPER_ASYMPTOTIC derives D, k, m, n, n_prime from epsilon and q; DESK
    starts from the same derivation and applies overrides.  The inner target
    is one codeword per (position, value) pair.  A DESK spec whose book
    comes up short stays valid (the shortfall is visible via full_book);
    encoding then fails only for pairs beyond the achieved size.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise OutOfRange(f"epsilon {eps} out of theorem range (0, 1/2]")
    overrides = dict(overrides or {})
    unknown = set(overrides) - _OVERRIDE_KEYS
    if unknown:
        raise InvalidOverride(f"unknown override keys {sorted(unknown)}")
    if profile is Profile.PAPER_ASYMPTOTIC and set(overrides) - {"seed", "policy", "attempt_cap"}:
        raise InvalidOverride("PAPER_ASYMPTOTIC derives all shape parameters")

    field = make_field(q)
    D = int(overrides.get("D", math.ceil(8 / eps)))
    k = int(overrides.get("k", math.ceil(64 / eps**3)))
    m = int(overrides.get("m", math.ceil(12 * math.log2(q) / eps)))
    n = int(overrides.get("n", q))
    n_prime = int(overrides.get("n_prime", math.ceil(eps * n / 2)))

    if D < 2:
        raise OutOfRange(f"header modulus must be >= 2, got {D}")
    if k < 2:
        raise OutOfRange(f"inner alphabet must be >= 2, got {k}")
    if m < 1:
        raise OutOfRange(f"inner length must be >= 1, got {m}")
    if not 1 <= n_prime <= n <= q:
        raise OutOfRange(f"need 1 <= n_prime <= n <= q, got {n_prime}, {n}, {q}")

    inner = spec_codebook(CodebookKind.UNIQUE, k, m, 1 - eps / 2,
                          target=n * q, overrides=overrides,
                          require_full=profile is Profile.PAPER_ASYMPTOTIC,
                          cache_path=cache_path)
    rs = RsParams(field, n, n_prime)
    return HighNoiseSpec(eps, D, k, m, n, q, n_prime, inner, rs, profile)


def hn_rate_report(spec: HighNoiseSpec) -> dict:
    """Overall rate and its factor decomposition against the eps^2 claim."""
    log_alpha = math.log2(spec.D * spec.k)
    rate = spec.n_prime * math.log2(spec.q) / (spec.n * spec.m * log_alpha)
    eps_sq = float(spec.epsilon) ** 2
    return {
        "rate": rate,
        "dimension_ratio": Fraction(spec.n_prime, spec.n),
        "inner_bits_per_symbol": math.log2(spec.q) / spec.m,
        "alphabet_bits": log_alpha,
        "epsilon_sq": eps_sq,
        "rate_over_epsilon_sq": rate / eps_sq,
        "inner_size": len(spec.inner.codewords),
        "inner_target": spec.pair_count,
        "full_book": spec.full_book,
    }


def hn_encode(spec: HighNoiseSpec, message) -> HeaderedWord:
    """RS-encode, wrap each outer symbol as (position, value), inner-encode,
    and tag every inner symbol with the position header."""
    syms: list[tuple[int, int]] = []
    for i, w in enumerate(spec.inner_words(message)):
        h = i % spec.D
        syms.extend((h, s) for s in w.symbols)
    return HeaderedWord(tuple(syms), spec.D, spec.k)


def hn_partition_blocks(received: HeaderedWord) -> list[Block]:
    """Cut the received word into maximal constant-header runs."""
    blocks: list[Block] = []
    i = 0
    syms = received.symbols
    while i < len(syms):
        j = i
        h = syms[i][0]
        while j < len(syms) and syms[j][0] == h:
            j += 1
        blocks.append(Block(i, h, tuple(p for _, p in syms[i:j])))
        i = j
    return blocks


def hn_decode(spec: HighNoiseSpec, received: HeaderedWord) -> HnDecodeResult:
    """Partition into blocks, vote one (position, value) pair per decodable
    block, drop conflicting positions, and outer-decode the rest.

    Raises DecodeFailure (telemetry attached) when the outer decoder cannot
    finish; under the deletion budget this cannot happen.
    """
    if received.header_mod != spec.D or received.alphabet != spec.k:
        raise AlphabetMismatch("received word does not match the spec alphabet")
    blocks = hn_partition_blocks(received)
    pairs: set[tuple[int, int]] = set()
    successes = 0
    skipped = 0
    for b in blocks:
        if not spec.min_block <= len(b) <= spec.m:
            skipped += 1
            continue
        try:
            idx = inner_decode_unique(spec.inner, Word(b.payload, spec.k))
        except (NoMatch, Ambiguous):
            continue
        successes += 1
        pairs.add(spec.pair_of_index(idx))

    vector, conflicts = outer_word(pairs, spec.n)
    erasures = sum(1 for v in vector if v is ERASED)

    telemetry = HnTelemetry(
        block_count=len(blocks),
        inner_successes=successes,
        conflicts_removed=conflicts,
        erasures=erasures,
        skipped_blocks=skipped,
        pairs=tuple(sorted(pairs)),
    )
    try:
        msg = rs_decode_ee(spec.rs.field, vector, spec.n_prime)
    except DecodeFailure as exc:
        raise DecodeFailure(str(exc), telemetry=telemetry) from exc
    return HnDecodeResult(tuple(msg), telemetry)
