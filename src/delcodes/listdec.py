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

from .common import ConcatenatedSpec, Profile, int_snapshot
from .errors import (
    AlphabetMismatch,
    InfeasibleAtDeskScale,
    InvalidOverride,
    OutOfRange,
)
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
    rs_decode_ee,
    rs_list_recover_bruteforce,
)
from .seqkit import Word


@dataclass(frozen=True)
class ListDecSpec(ConcatenatedSpec):
    epsilon: Fraction
    delta: Fraction
    m: int
    inner: Codebook
    n_out: int
    k_out: int
    q: int
    ell: int
    rs: RsParams
    profile: Profile

    name = "listdec"

    @property
    def alpha(self) -> Fraction:
        """Agreement fraction the outer recovery demands."""
        return self.epsilon

    @property
    def agree_count(self) -> int:
        return math.ceil(self.alpha * self.n_out)

    @property
    def window_len(self) -> int:
        return math.ceil((Fraction(1, 2) + self.delta) * self.m)

    @property
    def window_step(self) -> int:
        return math.ceil(self.delta * self.m)

    @property
    def encoded_length(self) -> int:
        return self.n_out * self.m

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

    def decode_and_score(self, msg, pattern, received):
        """List-decode a received word of the message msg: "ok" when the
        list holds the message, else "missing", and the telemetry
        snapshot."""
        expected = tuple(self.rs.field.elem(v) for v in msg)
        res = ld_decode(self, received)
        outcome = "ok" if expected in res.messages else "missing"
        snap = int_snapshot(res.telemetry) + (
            ("candidate_pairs", len(res.telemetry.pairs)),
            ("light_blocks", self._light_blocks(pattern)),
        )
        return outcome, tuple(sorted(snap))

    def _light_blocks(self, pattern) -> int:
        # Blocks that kept enough symbols for the window-coverage argument.
        cutoff = (Fraction(1, 2) - 2 * self.delta) * self.m
        per_block = [0] * self.n_out
        for p in pattern.positions:
            b = p // self.m
            if b < self.n_out:
                per_block[b] += 1
        return sum(1 for d in per_block if d <= cutoff)

    def confusion_score(self, transmitted: Word):
        """Scorer of received words: 1 when the decoded list misses the
        transmitted message."""
        # Read the outer values straight off the clean blocks; the decode
        # list is no use here since it may hold several messages.
        values = []
        for i in range(self.n_out):
            block = transmitted.symbols[i * self.m:(i + 1) * self.m]
            hits = [j for j, cw in enumerate(self.inner.codewords)
                    if cw.symbols == block]
            if not hits:
                raise OutOfRange("transmitted word is not a clean codeword")
            _, val = self.pair_of_index(hits[0])
            values.append(val)
        expected = tuple(rs_decode_ee(self.rs.field, values, self.k_out))

        def score(received):
            return 0 if expected in ld_decode(self, received).messages else 1
        return score


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


_PAPER_KEYS = {"m", "seed", "policy", "attempt_cap"}
_DESK_KEYS = _PAPER_KEYS | {"delta", "list_size", "ell"}


def ld_make_spec(epsilon, outer_params, profile: Profile = Profile.DESK,
                 overrides: dict | None = None, *,
                 cache_path=None) -> ListDecSpec:
    """Validate parameters and build (or load) the inner codebook.

    outer_params is (q, n_out, k_out).  PAPER_ASYMPTOTIC pins the grid
    pitch at delta = epsilon/4, the inner list size at ceil(1/delta^2),
    and the recovery budget at ell = ceil(1/delta^3); DESK may override
    all three.  The inner block length m has no closed form at finite
    scale, so both profiles take it from overrides.  The inner target is
    one codeword per (position, value) pair; a DESK book that comes up
    short stays valid, with the shortfall visible via full_book.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 2):
        raise OutOfRange(f"epsilon {eps} out of theorem range (0, 1/2)")
    q, n_out, k_out = (int(x) for x in outer_params)
    overrides = dict(overrides or {})
    allowed = _PAPER_KEYS if profile is Profile.PAPER_ASYMPTOTIC else _DESK_KEYS
    unknown = set(overrides) - allowed
    if unknown:
        raise InvalidOverride(
            f"override keys {sorted(unknown)} not allowed under {profile.name}")
    if "m" not in overrides:
        raise InvalidOverride("inner block length m must be supplied")

    field = make_field(q)
    if not 1 <= k_out <= n_out <= q:
        raise OutOfRange(f"need 1 <= k_out <= n_out <= q, got "
                         f"{k_out}, {n_out}, {q}")
    if field.order ** k_out > LIST_GUARD:
        raise InfeasibleAtDeskScale(
            f"outer recovery would enumerate {field.order}^{k_out} messages, "
            f"above the brute-force guard {LIST_GUARD}")

    delta = Fraction(overrides.get("delta", eps / 4))
    if not 0 < delta < Fraction(1, 2):
        raise OutOfRange(f"window pitch delta {delta} outside (0, 1/2)")
    m = int(overrides["m"])
    if m < 1:
        raise OutOfRange(f"inner length must be >= 1, got {m}")
    list_size = int(overrides.get("list_size", math.ceil(1 / delta**2)))
    if list_size < 2:
        raise OutOfRange(f"inner list size must be >= 2, got {list_size}")
    ell = int(overrides.get("ell", math.ceil(1 / delta**3)))
    if ell < 1:
        raise OutOfRange(f"recovery budget must be >= 1, got {ell}")

    inner = spec_codebook(CodebookKind.LISTDEC, 2, m, Fraction(1, 2) - delta,
                          list_size=list_size, target=n_out * q,
                          overrides=overrides,
                          require_full=profile is Profile.PAPER_ASYMPTOTIC,
                          cache_path=cache_path)
    rs = RsParams(field, n_out, k_out)
    return ListDecSpec(eps, delta, m, inner, n_out, k_out, q, ell, rs, profile)


def ld_report(spec: ListDecSpec) -> dict:
    """Achieved rate and list-size budget next to the asymptotic recipe.

    The outer recovery is consumed through its interface (candidate sets
    in, agreement threshold, list out), so the recipe parameters s and r
    and the threshold condition alpha > (s+1) (K/N)^(s/(s+1)) ell^(1/(s+1))
    are evaluated here for inspection only; nothing downstream depends on
    them.
    """
    eps = float(spec.epsilon)
    achieved = (spec.k_out * math.log2(spec.q)) / spec.encoded_length
    s = max(1, math.ceil(math.log2(1 / eps)))
    ratio = spec.k_out / spec.n_out
    threshold_rhs = (s + 1) * ratio ** (s / (s + 1)) * spec.ell ** (1 / (s + 1))
    return {
        "achieved_rate": achieved,
        "claimed_rate_scale": eps**3,
        "window_len": spec.window_len,
        "window_step": spec.window_step,
        "inner_list_size": spec.inner.list_size,
        "inner_book_size": len(spec.inner.codewords),
        "pair_count": spec.pair_count,
        "ell": spec.ell,
        "candidate_budget": spec.ell * spec.n_out,
        "alpha": float(spec.alpha),
        "agree_count": spec.agree_count,
        "recipe_s": s,
        "recipe_r": 2,
        "recipe_threshold_rhs": threshold_rhs,
        "recipe_threshold_met": eps > threshold_rhs,
    }


def ld_encode(spec: ListDecSpec, message) -> Word:
    """Outer-encode, pair-label each coordinate, inner-encode, concatenate."""
    return Word(tuple(s for w in spec.inner_words(message) for s in w.symbols),
                2)


def ld_windows(spec: ListDecSpec, received: Word) -> list[Word]:
    """Fixed grid of windows over the received word.

    Full windows of length window_len start at multiples of window_step,
    as far as the received length allows, plus one window flush with the
    end.  A received word shorter than a window becomes a single window.
    The grid is position arithmetic only; nothing here inspects symbols.
    """
    if received.alphabet_size != 2:
        raise AlphabetMismatch("received word must be binary")
    syms = received.symbols
    w = spec.window_len
    if len(syms) <= w:
        return [received]
    starts = list(range(0, len(syms) - w + 1, spec.window_step))
    if starts[-1] != len(syms) - w:
        starts.append(len(syms) - w)
    return [Word(syms[s:s + w], 2) for s in starts]


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
        spec.rs.field, candidate_sets(pairs, spec.n_out), spec.k_out,
        spec.agree_count)
    telemetry = LdTelemetry(
        window_count=len(windows),
        max_inner_list=max_list,
        pairs=tuple(sorted(pairs)),
        output_size=len(messages),
    )
    return LdDecodeResult(tuple(tuple(m) for m in messages), telemetry)
