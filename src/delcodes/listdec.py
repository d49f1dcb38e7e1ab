"""Binary list decoding past the unique-decoding barrier at one half.

With n/2 deletions an adversary can flatten any binary word into all-ones
or all-zeros, so unique decoding is dead there.  This scheme instead
returns a short list while tolerating a 1/2 - epsilon deletion fraction.
A message is outer-encoded, each coordinate c_i is replaced by the
self-identifying pair (i, c_i), and each pair is inner-encoded with a
codebook in which no list_size words share a common subsequence of the
threshold length.  Inner blocks are concatenated directly: no buffers,
because the decoder never tries to find block boundaries.

Decoding slides a grid of windows of length ceil((1/2+delta)*m) over the
received word, pitch ceil(delta*m), plus one window flush with the end.
Every window is inner list-decoded and the surviving pairs are pooled into
per-position candidate sets for the outer list recovery.  An inner block
that kept at least a (1/2+2*delta) fraction of its symbols contains some
grid window as a substring, so its pair always surfaces; averaging the
global deletion budget over blocks leaves at least an epsilon fraction of
such blocks, which is exactly the outer agreement threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .common import ConcatenatedSpec, Profile, check_overrides, int_snapshot
from .errors import InfeasibleAtDeskScale, OutOfRange
from .gf import FieldElem, make_field
from .innercode import (
    Codebook,
    CodebookKind,
    inner_decode_list,
    spec_codebook,
)
from .rsouter import (
    LIST_GUARD,
    RsParams,
    candidate_sets,
    rs_list_recover_bruteforce,
)
from .seqkit import Word


@dataclass(frozen=True)
class ListDecSpec(ConcatenatedSpec):
    """delta is the window pitch; the inner book separates at 1/2 - delta."""

    epsilon: Fraction
    inner: Codebook
    rs: RsParams

    name = "listdec"
    buffer_len = 0

    @cached_property
    def delta(self) -> Fraction:
        return Fraction(1, 2) - self.inner.delta

    @cached_property
    def ell(self) -> int:
        return math.ceil(1 / self.delta**3)

    @cached_property
    def agree_count(self) -> int:
        """Agreements the outer recovery demands: ceil(epsilon * n)."""
        return math.ceil(self.epsilon * self.n)

    @cached_property
    def window_len(self) -> int:
        return math.ceil((Fraction(1, 2) + self.delta) * self.m)

    @cached_property
    def window_step(self) -> int:
        return math.ceil(self.delta * self.m)

    @property
    def guarantee_fraction(self) -> Fraction:
        """Largest deletion fraction the list guarantee still covers."""
        return Fraction(1, 2) - self.epsilon

    def encode(self, message) -> Word:
        return ld_encode(self, message)

    def decode(self, received: Word) -> LdDecodeResult:
        return ld_decode(self, received)

    def report_sections(self) -> list[tuple[str, dict]]:
        return [("rate and recovery", ld_report(self))]

    def scorer(self, msg, sent: Word):
        """List-decode scoring for the message msg: "ok" when the list
        holds the message, else "missing", and the telemetry snapshot.
        The clean word sent is not read: no vote is scored against it."""
        expected = tuple(map(self.rs.field.elem, msg))
        def score(pattern, received):
            res = ld_decode(self, received)
            outcome = "ok" if expected in res.messages else "missing"
            snap = int_snapshot(res.telemetry) + (
                ("candidate_pairs", len(res.telemetry.pairs)),
                ("light_blocks", self._light_blocks(pattern)),
            )
            return outcome, tuple(sorted(snap))
        return score

    @cached_property
    def _light_cutoff(self) -> int:
        # Most deletions a light block may take: floor((1/2 - 2 delta) m).
        return math.floor((Fraction(1, 2) - 2 * self.delta) * self.m)

    def _light_blocks(self, pattern) -> int:
        # Blocks that kept enough symbols for the window-coverage argument.
        cutoff, m, n = self._light_cutoff, self.m, self.n
        per_block = [0] * n
        for p in pattern.positions:
            b = p // m
            if b < n:
                per_block[b] += 1
        return sum(1 for d in per_block if d <= cutoff)


@dataclass(frozen=True)
class LdTelemetry:
    window_count: int
    max_inner_list: int
    pairs: tuple[tuple[int, int], ...]
    output_size: int


@dataclass(frozen=True)
class LdDecodeResult:
    messages: tuple[tuple[FieldElem, ...], ...]
    telemetry: LdTelemetry


_PAPER_KEYS = {"m", "n", "n_prime", "seed", "attempt_cap"}
_DESK_KEYS = _PAPER_KEYS | {"delta", "list_size"}


def ld_make_spec(epsilon, q: int, profile: Profile = Profile.DESK,
                 overrides: dict | None = None) -> ListDecSpec:
    """Validate parameters and build the inner codebook.

    q is the outer field size.  The outer length n, dimension n_prime and
    inner block length m have no closed form at finite scale, so both
    profiles take them from overrides.  PAPER_ASYMPTOTIC pins the grid
    pitch at delta = epsilon/4 and the inner list size at ceil(1/delta^2);
    DESK may override both.  The recovery budget ell = ceil(1/delta^3)
    follows from delta.  The inner book holds one codeword per (position,
    value) pair; under either profile a build that falls short raises
    InfeasibleAtDeskScale, and PAPER_ASYMPTOTIC raises it before the build
    when the list size exceeds the n * q codewords (a vacuous property).
    """
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise OutOfRange(f"epsilon {eps} out of theorem range (0, 1/2)")
    overrides = check_overrides(overrides or {}, profile, _PAPER_KEYS,
                                _DESK_KEYS, ("m", "n", "n_prime"))

    n, n_prime = overrides["n"], overrides["n_prime"]
    rs = RsParams(make_field(q), n, n_prime)
    if q ** n_prime > LIST_GUARD:
        raise InfeasibleAtDeskScale(
            f"outer recovery would enumerate {q}^{n_prime} messages, "
            f"above the brute-force guard {LIST_GUARD}")

    delta = overrides.get("delta", eps / 4)
    if not 0 < delta < Fraction(1, 2):
        raise OutOfRange(f"window pitch delta {delta} outside (0, 1/2)")
    m = overrides["m"]
    list_size = overrides.get("list_size", math.ceil(1 / delta**2))
    if profile is Profile.PAPER_ASYMPTOTIC and list_size > n * q:
        raise InfeasibleAtDeskScale(
            f"inner list size {list_size} exceeds the {n * q} codewords of "
            "the book, so its list property would hold for any book")

    inner = spec_codebook(CodebookKind.LISTDEC, 2, m, Fraction(1, 2) - delta,
                          list_size=list_size, target=n * q,
                          overrides=overrides)
    return ListDecSpec(eps, inner, rs)


def ld_report(spec: ListDecSpec) -> dict:
    """Achieved rate and list-size budget next to the asymptotic recipe.

    The outer recovery is consumed through its interface (candidate sets
    in, agreement threshold, list out), so the recipe parameters s and r
    and the threshold condition alpha > (s+1) (K/N)^(s/(s+1)) ell^(1/(s+1))
    are evaluated here for inspection only; nothing downstream depends on
    them.
    """
    eps = float(spec.epsilon)
    achieved = (spec.n_prime * math.log2(spec.q)) / spec.encoded_length
    s = max(1, math.ceil(math.log2(1 / eps)))
    ratio = spec.n_prime / spec.n
    threshold_rhs = (s + 1) * ratio ** (s / (s + 1)) * spec.ell ** (1 / (s + 1))
    return {
        "achieved_rate": achieved,
        "claimed_rate_scale": eps**3,
        "window_len": spec.window_len,
        "window_step": spec.window_step,
        "inner_list_size": spec.inner.list_size,
        "ell": spec.ell,
        "candidate_budget": spec.ell * spec.n,
        "message_space": spec.q ** spec.n_prime,
        "alpha": float(spec.epsilon),
        "agree_count": spec.agree_count,
        "recipe_s": s,
        "recipe_r": 2,
        "recipe_threshold_rhs": threshold_rhs,
        "recipe_threshold_met": eps > threshold_rhs,
    }


def ld_encode(spec: ListDecSpec, message) -> Word:
    """Outer-encode, pair-label each coordinate, inner-encode, concatenate."""
    return spec.channel_word(message)


def ld_windows(spec: ListDecSpec, received: Word) -> list[tuple[int, ...]]:
    """Fixed grid of windows over the received word, each a tuple of
    symbols.

    Full windows of length window_len start at multiples of window_step,
    as far as the received length allows, plus one window flush with the
    end.  A received word no longer than a window becomes a single window.
    The grid is position arithmetic only; nothing here inspects symbols.
    """
    spec.check_alphabet(received)
    syms = received.symbols
    w = spec.window_len
    if len(syms) <= w:
        return [syms]
    starts = list(range(0, len(syms) - w + 1, spec.window_step))
    if starts[-1] != len(syms) - w:
        starts.append(len(syms) - w)
    return [syms[s:s + w] for s in starts]


def ld_decode(spec: ListDecSpec, received: Word) -> LdDecodeResult:
    """List-decode every window, pool pairs, run outer list recovery.

    Candidates only ever accumulate, so a window that decodes to garbage
    can enlarge the sets but never evict the transmitted pair; the
    returned list is guaranteed to contain the transmitted message while
    deletions stay within floor((1/2 - epsilon) * encoded_length).
    """
    windows = ld_windows(spec, received)
    pairs: set[tuple[int, int]] = set()
    max_list = 0
    for win in windows:
        hits = inner_decode_list(spec.inner, win)
        max_list = max(max_list, len(hits))
        pairs.update(spec.pair_of_index(idx) for idx in hits)
    messages = rs_list_recover_bruteforce(
        spec.rs, candidate_sets(pairs, spec.n), spec.agree_count)
    telemetry = LdTelemetry(
        window_count=len(windows),
        max_inner_list=max_list,
        pairs=tuple(sorted(pairs)),
        output_size=len(messages),
    )
    elem = spec.rs.field.elem
    return LdDecodeResult(tuple(tuple(map(elem, m)) for m in messages),
                          telemetry)
