"""Greedy inner code constructions and their decoders.

Three codebook kinds share one greedy engine:

* UNIQUE: every pair of codewords has LCS below the separation threshold, so
  any sufficiently long received subsequence identifies its codeword.
* DENSE: UNIQUE restricted to binary words that are beta-dense and begin and
  end with 1, which keeps zero runs short enough to never look like a buffer.
* LISTDEC: no ``list_size`` codewords share a common subsequence of threshold
  length, so every long-enough received word matches at most list_size - 1
  codewords.

The separation threshold for a codebook correcting a delta fraction of
deletions is ell = ceil((1 - delta) * m); acceptance tests are strict
(LCS <= ell - 1, or no full subset sharing an ell-subsequence).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

from . import seqkit
from .errors import (
    Ambiguous,
    AlphabetMismatch,
    GuardExceeded,
    IndexOutOfRange,
    InfeasibleAtDeskScale,
    InvalidOverride,
    NoMatch,
    NotBinary,
    OutOfRange,
    TargetUnreachable,
)
from .seqkit import Word

DEFAULT_ATTEMPT_CAP = 200_000

# Largest lexicographic search space before a scheme spec's inner book
# switches to seeded random candidates.
_LEX_SPACE_CAP = 1 << 20

# Most window states count_dense_words will track.
_DENSE_STATE_GUARD = 1 << 21


class CodebookKind(Enum):
    UNIQUE = "UNIQUE"
    DENSE = "DENSE"
    LISTDEC = "LISTDEC"


class CandidatePolicy(Enum):
    LEX = "LEX"
    SEEDED_RANDOM = "SEEDED_RANDOM"


@dataclass(frozen=True)
class Codebook:
    """An ordered collection of codewords plus the parameters that built it."""

    kind: CodebookKind
    k: int
    m: int
    delta: Fraction
    beta: Fraction | None
    list_size: int | None
    codewords: tuple[Word, ...]
    seed: int
    candidate_policy: CandidatePolicy

    def __len__(self) -> int:
        return len(self.codewords)

    @property
    def separation_threshold(self) -> int:
        """Codeword pairs (or list_size-subsets) share no common subsequence
        of this length."""
        return separation_threshold(self.m, self.delta)

    # A bare codebook is a channel target too: one codeword sent alone.

    def spans(self):
        """The codeword span of a transmission, and no buffers."""
        return [(0, self.m)], []

    def merge_victims(self, blocks, buffers):
        """No headers or buffers for MERGE_ATTACK to exploit."""
        return None

    def confusion_score(self, transmitted: Word):
        """Scorer of received words: the number of codewords other than the
        transmitted one that contain it (LISTDEC: all that contain it)."""
        match = [i for i, cw in enumerate(self.codewords)
                 if cw.symbols == transmitted.symbols]
        if not match:
            raise OutOfRange("transmitted word is not in the codebook")
        t = -1 if self.kind is CodebookKind.LISTDEC else match[0]

        def score(received):
            return sum(1 for i, cw in enumerate(self.codewords)
                       if i != t and seqkit.is_subsequence(received, cw))
        return score


def separation_threshold(m: int, delta: Fraction) -> int:
    return math.ceil((1 - Fraction(delta)) * m)


def _lex_stream(k: int, m: int):
    for code in range(k**m):
        syms = []
        v = code
        for _ in range(m):
            syms.append(v % k)
            v //= k
        yield tuple(reversed(syms))


def _random_stream(k: int, m: int, rng: random.Random, cap: int):
    for _ in range(cap):
        yield tuple(rng.randrange(k) for _ in range(m))


def dense_layout(m: int, delta: Fraction,
                 zeros: int | None = None,
                 min_gap: int | None = None) -> tuple[int, int]:
    """Default (zeros, min_gap) for dense candidates of length m.

    Candidates carry `zeros` isolated zeros, each consecutive pair separated
    by at least `min_gap` ones, with a one at both ends.  Wide gaps keep every
    internal zero run short (boundary markers stay unambiguous downstream) and
    same-zero-count words with scattered placements separate well under LCS.
    The default picks the largest zero count that still leaves placement slack
    of at least `zeros`, so the candidate stream has room to vary.
    """
    if m < 2:
        raise OutOfRange(f"dense words need m >= 2, got {m}")
    d = max(1, int(delta * m))
    g = min_gap if min_gap is not None else max(2, d)
    if zeros is not None:
        z = zeros
    else:
        fit = (m - 2 + g) // (g + 1)
        rich = (m - 2 + g) // (g + 2)
        z = max(0, min(rich if rich >= 1 else fit, fit, (m - 1) // 2))
    if z > 0 and (z - 1) * g + 2 + z > m:
        raise OutOfRange(
            f"cannot fit {z} zeros with gaps >= {g} into length {m}")
    return z, g


def _random_dense_stream(m: int, rng: random.Random, cap: int, z: int, g: int):
    # One candidate = a composition of the slack over z + 1 one-runs, drawn
    # uniformly via stars and bars.
    slack = m - z - 2 - max(0, z - 1) * g
    if z == 0:
        for _ in range(cap):
            yield (1,) * m
        return
    for _ in range(cap):
        bars = sorted(rng.sample(range(slack + z), z))
        runs = []
        prev = -1
        for b in bars:
            runs.append(b - prev - 1)
            prev = b
        runs.append(slack + z - 1 - prev)
        syms = [1] * (runs[0] + 1)
        for i in range(1, z + 1):
            base = g if i < z else 0
            syms.append(0)
            syms.extend([1] * (runs[i] + base))
        syms.append(1)
        yield tuple(syms)


def _build(kind: CodebookKind, k: int, m: int, delta: Fraction,
           beta: Fraction | None, list_size: int | None,
           target_size: int | None, policy: CandidatePolicy, seed: int,
           attempt_cap: int,
           zeros: int | None = None, min_gap: int | None = None) -> Codebook:
    delta = Fraction(delta)
    if k < 2:
        raise OutOfRange(f"alphabet size must be >= 2, got {k}")
    if m < 1:
        raise OutOfRange(f"codeword length must be >= 1, got {m}")
    if not 0 < delta <= 1:
        raise OutOfRange(f"deletion fraction must lie in (0, 1], got {delta}")
    if target_size is not None and target_size < 1:
        raise OutOfRange(f"target size must be >= 1, got {target_size}")
    ell = separation_threshold(m, delta)

    win = need = 0
    if kind is CodebookKind.DENSE:
        if k != 2:
            raise NotBinary("dense codebooks are binary")
        beta = Fraction(beta)
        win, need = seqkit.density_rule(m, beta)
    if kind is CodebookKind.LISTDEC:
        if k != 2:
            raise NotBinary("list-decodable codebooks are binary")
        if list_size is None or list_size < 2:
            raise OutOfRange(f"list size must be >= 2, got {list_size}")

    rng = random.Random(seed)
    if policy is CandidatePolicy.LEX:
        stream = _lex_stream(k, m)
    elif kind is CodebookKind.DENSE:
        z, g = dense_layout(m, delta, zeros, min_gap)
        stream = _random_dense_stream(m, rng, attempt_cap, z, g)
    else:
        stream = _random_stream(k, m, rng, attempt_cap)

    accepted: list[Word] = []
    accepted_syms: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    # For LISTDEC: sharing_levels[j] holds the index-(j+1)-subsets of accepted
    # codewords that still share a common subsequence of length ell.  A new
    # codeword can only complete a violating full subset through one of these.
    # Built lazily: with fewer than list_size - 1 accepted words no violating
    # subset can exist, and at asymptotic-recipe list sizes (list_size far
    # beyond the target book) that moment never arrives.
    sharing_levels: list[list[tuple[int, ...]]] | None = None

    def extend_sharing(syms: tuple[int, ...], cw: Word, idx: int) -> None:
        # Thread word idx through the structure; words 0..idx-1 are in.
        cache: dict[int, int] = {}

        def lcs_with(i: int) -> int:
            if i not in cache:
                cache[i] = seqkit._lcs_seq(syms, accepted_syms[i])
            return cache[i]

        new_by_size: list[list[tuple[int, ...]]] = [[(idx,)]]
        for j in range(1, list_size - 1):
            grown = []
            for base in sharing_levels[j - 1]:
                if all(lcs_with(i) >= ell for i in base):
                    group = [accepted[i] for i in base] + [cw]
                    if seqkit.common_subsequence_at_least(group, ell):
                        grown.append(base + (idx,))
            new_by_size.append(grown)
        for j in range(list_size - 1):
            sharing_levels[j].extend(new_by_size[j])

    def listdec_accepts(cand: tuple[int, ...]) -> bool:
        nonlocal sharing_levels
        if cand in seen:
            return False
        if len(accepted) + 1 < list_size:
            return True
        if sharing_levels is None:
            sharing_levels = [[] for _ in range(list_size - 1)]
            for i, syms in enumerate(accepted_syms):
                extend_sharing(syms, accepted[i], i)
        cw = Word(cand, k)
        cache: dict[int, int] = {}

        def lcs_with(i: int) -> int:
            if i not in cache:
                cache[i] = seqkit._lcs_seq(cand, accepted_syms[i])
            return cache[i]

        top = sharing_levels[list_size - 2]
        for subset in top:
            if all(lcs_with(i) >= ell for i in subset):
                group = [accepted[i] for i in subset] + [cw]
                if seqkit.common_subsequence_at_least(group, ell):
                    return False
        extend_sharing(cand, cw, len(accepted))
        return True

    target = target_size
    for cand in stream:
        if kind is CodebookKind.DENSE and not (
                cand[0] == 1 and cand[-1] == 1
                and seqkit.is_dense_seq(cand, win, need)):
            continue
        if kind is CodebookKind.LISTDEC:
            ok = listdec_accepts(cand)
        else:
            ok = all(seqkit._lcs_seq(cand, a) < ell for a in accepted_syms)
        if ok:
            accepted.append(Word(cand, k))
            accepted_syms.append(cand)
            seen.add(cand)
            if target is not None and len(accepted) >= target:
                break

    cb = Codebook(kind, k, m, delta, beta if kind is CodebookKind.DENSE else None,
                  list_size if kind is CodebookKind.LISTDEC else None,
                  tuple(accepted), seed, policy)
    if target is not None and len(accepted) < target:
        raise TargetUnreachable(
            f"{kind.value} construction reached {len(accepted)} of {target} codewords",
            codebook=cb,
        )
    return cb


def greedy_unique(k: int, m: int, delta: Fraction,
                  target_size: int | None = None,
                  policy: CandidatePolicy = CandidatePolicy.LEX,
                  seed: int = 0,
                  attempt_cap: int = DEFAULT_ATTEMPT_CAP) -> Codebook:
    """Greedily collect words over [k]^m whose pairwise LCS stays below the
    separation threshold for a delta fraction of deletions."""
    return _build(CodebookKind.UNIQUE, k, m, delta, None, None,
                  target_size, policy, seed, attempt_cap)


def greedy_dense(m: int, delta: Fraction, beta: Fraction,
                 target_size: int | None = None,
                 policy: CandidatePolicy = CandidatePolicy.LEX,
                 seed: int = 0, attempt_cap: int = DEFAULT_ATTEMPT_CAP,
                 zeros: int | None = None,
                 min_gap: int | None = None) -> Codebook:
    """greedy_unique over binary words restricted to beta-dense candidates
    that begin and end with 1.

    Under the RANDOM policy candidates follow the wide-gap layout from
    dense_layout; zeros/min_gap override its defaults.
    """
    return _build(CodebookKind.DENSE, 2, m, delta, beta, None,
                  target_size, policy, seed, attempt_cap,
                  zeros=zeros, min_gap=min_gap)


def greedy_listdec(m: int, delta: Fraction, list_size: int,
                   target_size: int | None = None,
                   policy: CandidatePolicy = CandidatePolicy.LEX,
                   seed: int = 0,
                   attempt_cap: int = DEFAULT_ATTEMPT_CAP) -> Codebook:
    """Greedily collect binary words so that no list_size of them share a
    common subsequence of the threshold length."""
    return _build(CodebookKind.LISTDEC, 2, m, delta, None, list_size,
                  target_size, policy, seed, attempt_cap)


def inner_encode(cb: Codebook, index: int) -> Word:
    if not 0 <= index < len(cb.codewords):
        raise IndexOutOfRange(
            f"index {index} outside codebook of size {len(cb.codewords)}"
        )
    return cb.codewords[index]


def inner_decode_unique(cb: Codebook, received: Word) -> int:
    """Index of the unique codeword containing received as a subsequence."""
    if received.alphabet_size != cb.k:
        raise AlphabetMismatch(
            f"received alphabet {received.alphabet_size} vs codebook {cb.k}"
        )
    found = -1
    for i, cw in enumerate(cb.codewords):
        if seqkit._is_subseq_seq(received.symbols, cw.symbols):
            if found >= 0:
                raise Ambiguous(f"codewords {found} and {i} both contain received")
            found = i
    if found < 0:
        raise NoMatch("no codeword contains the received word")
    return found


def inner_decode_list(cb: Codebook, received: Word) -> list[int]:
    """Indices of all codewords containing received as a subsequence."""
    if received.alphabet_size != cb.k:
        raise AlphabetMismatch(
            f"received alphabet {received.alphabet_size} vs codebook {cb.k}"
        )
    return [i for i, cw in enumerate(cb.codewords)
            if seqkit._is_subseq_seq(received.symbols, cw.symbols)]


# ---------------------------------------------------------------------------
# Rate accounting


@dataclass(frozen=True)
class RateReport:
    """Achieved rate next to the greedy counting guarantee.

    size_bound is the largest codebook size the counting argument promises;
    satisfied records whether the built codebook reached it.  For LISTDEC
    books the bound comes from the random-coding rate 1 - h(delta) - 3/L
    instead of the blocking count.
    """

    kind: CodebookKind
    achieved_size: int
    rate: float
    size_bound: int
    paper_lower_bound: float
    satisfied: bool


def count_dense_words(m: int, beta: Fraction) -> int:
    """Exact number of binary length-m words that are beta-dense and begin
    and end with 1, via a sliding-window transfer dynamic program."""
    win, need = seqkit.density_rule(m, beta)
    if m == 1:
        return 1 if need <= 1 else 0
    if win >= m:
        return sum(math.comb(m - 2, j - 2) for j in range(max(need, 2), m + 1))
    if win == 1:
        return 1 if need <= 1 else 0
    if 1 << (win - 1) > _DENSE_STATE_GUARD:
        raise GuardExceeded(f"window of {win} needs too many states")
    states: dict[tuple[int, ...], int] = {(1,): 1}
    for _ in range(1, m):
        nxt: dict[tuple[int, ...], int] = {}
        for hist, cnt in states.items():
            for b in (0, 1):
                grown = hist + (b,)
                if len(grown) >= win and sum(grown[-win:]) < need:
                    continue
                key = grown[-(win - 1):] if win > 1 else ()
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(cnt for hist, cnt in states.items() if hist[-1] == 1)


def rate_report(cb: Codebook) -> RateReport:
    m, k = cb.m, cb.k
    ell = cb.separation_threshold
    size = len(cb.codewords)
    rate = math.log(size, k) / m if size >= 1 else 0.0

    if cb.kind is CodebookKind.LISTDEC:
        r_exist = 1.0 - seqkit.entropy(cb.delta) - 3.0 / cb.list_size
        bound = math.floor(2 ** (r_exist * m)) if r_exist > 0 else 0
        return RateReport(cb.kind, size, rate, bound,
                          max(r_exist, 0.0), size >= bound)

    # Each chosen word blocks at most (number of its ell-subsequences) times
    # (supersequence count per ell-pattern) later candidates.
    blocked = math.comb(m, ell) * seqkit.count_bound_general(ell, m, k)
    if k == 2 and 2 * ell > m and ell < m:
        blocked = min(blocked, math.comb(m, ell) * seqkit.count_bound_binary(ell, m))
    if cb.kind is CodebookKind.DENSE:
        pool = count_dense_words(m, cb.beta)
    else:
        pool = k**m
    bound = pool // blocked if blocked > 0 else 0
    paper_rate = math.log(bound, k) / m if bound >= 1 else 0.0
    return RateReport(cb.kind, size, rate, bound, paper_rate, size >= bound)


# ---------------------------------------------------------------------------
# Persistence

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _format_codeword(w: Word) -> str:
    if w.alphabet_size <= 36:
        return w.digits()
    return ",".join(str(s) for s in w.symbols)


def _parse_codeword(text: str, k: int) -> Word:
    if k <= 36:
        return Word.from_digits(text, k)
    return Word(tuple(int(p) for p in text.split(",")), k)


def save_codebook(cb: Codebook, path: str | Path) -> None:
    """Write the one-header-line text form; symbols above base 36 fall back
    to comma-separated integers."""
    beta = cb.beta if cb.beta is not None else Fraction(0, 1)
    lsz = cb.list_size if cb.list_size is not None else 0
    lines = [
        f"{cb.kind.value} {cb.k} {cb.m} {cb.delta.numerator} {cb.delta.denominator} "
        f"{beta.numerator} {beta.denominator} {lsz} {cb.seed} "
        f"{cb.candidate_policy.value} {len(cb.codewords)}"
    ]
    lines.extend(_format_codeword(w) for w in cb.codewords)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_codebook(path: str | Path) -> Codebook:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"codebook file {path} is empty")
    head = lines[0].split()
    if len(head) != 11:
        raise ValueError(f"bad codebook header: {lines[0]!r}")
    kind = CodebookKind(head[0])
    k, m = int(head[1]), int(head[2])
    delta = Fraction(int(head[3]), int(head[4]))
    beta = Fraction(int(head[5]), int(head[6]))
    lsz = int(head[7])
    seed = int(head[8])
    policy = CandidatePolicy(head[9])
    count = int(head[10])
    words = tuple(_parse_codeword(ln, k) for ln in lines[1:])
    if len(words) != count:
        raise ValueError(f"expected {count} codewords, found {len(words)}")
    return Codebook(kind, k, m, delta,
                    beta if kind is CodebookKind.DENSE else None,
                    lsz if kind is CodebookKind.LISTDEC else None,
                    words, seed, policy)


# ---------------------------------------------------------------------------
# Invariant checking (used by the verify-inner command and the test suite)


def check_codebook(cb: Codebook, exhaustive_limit: int = 1 << 14,
                   sample: int = 2000, seed: int = 0) -> dict:
    """Re-verify the defining property of a codebook.

    Returns a report dict with an ``ok`` flag.  UNIQUE and DENSE books get
    the full pairwise LCS check; LISTDEC books get the every-received-word
    check, exhaustive when 2^ell is at most exhaustive_limit, else sampled.
    """
    ell = cb.separation_threshold
    report: dict = {"kind": cb.kind.value, "size": len(cb.codewords),
                    "separation_threshold": ell, "ok": True, "violations": []}
    words = cb.codewords
    if len(set(w.symbols for w in words)) != len(words):
        report["ok"] = False
        report["violations"].append("duplicate codewords")
    for w in words:
        if len(w) != cb.m or w.alphabet_size != cb.k:
            report["ok"] = False
            report["violations"].append("codeword shape mismatch")
            break

    if cb.kind in (CodebookKind.UNIQUE, CodebookKind.DENSE):
        worst = 0
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                v = seqkit._lcs_seq(words[i].symbols, words[j].symbols)
                worst = max(worst, v)
                if v >= ell:
                    report["ok"] = False
                    report["violations"].append(f"pair ({i}, {j}) has lcs {v}")
        report["max_pairwise_lcs"] = worst
        if cb.kind is CodebookKind.DENSE:
            for i, w in enumerate(words):
                if not (w.symbols and w.symbols[0] == 1 and w.symbols[-1] == 1
                        and seqkit.is_beta_dense(w, cb.beta)):
                    report["ok"] = False
                    report["violations"].append(f"codeword {i} not dense")
        return report

    # LISTDEC: no received word of length ell may match list_size codewords.
    lsz = cb.list_size
    worst_list = 0
    if 2**ell <= exhaustive_limit:
        space = range(2**ell)
        report["mode"] = "exhaustive"
    else:
        rng = random.Random(seed)
        space = [rng.getrandbits(ell) for _ in range(sample)]
        report["mode"] = f"sampled({sample})"
    for enc in space:
        probe = tuple((enc >> (ell - 1 - i)) & 1 for i in range(ell))
        hits = sum(1 for w in words if seqkit._is_subseq_seq(probe, w.symbols))
        worst_list = max(worst_list, hits)
        if hits >= lsz:
            report["ok"] = False
            report["violations"].append(
                f"word {''.join(map(str, probe))} matches {hits} codewords"
            )
    report["max_list_size"] = worst_list
    return report


# ---------------------------------------------------------------------------
# Scheme inner books


def spec_codebook(kind: CodebookKind, k: int, m: int, delta: Fraction, *,
                  target: int, overrides: dict, require_full: bool,
                  cache_path=None, beta: Fraction | None = None,
                  list_size: int | None = None) -> Codebook:
    """The inner book a scheme spec asks for, from cache_path or built.

    overrides may set seed, policy, attempt_cap and, for DENSE books, zeros
    and min_gap.  Without a policy, LEX is used while the k^m candidate
    space stays small, SEEDED_RANDOM beyond.  A book cached at cache_path
    is used only if its shape, seed and policy are the spec's, it holds no
    more than target codewords and it passes check_codebook; a book short
    of target must also be the one the spec's own build gives, since a
    build cut short by a smaller attempt_cap is a different book.  Any
    other cached book raises InvalidOverride.  A full book is not rebuilt:
    the candidate stream does not depend on the cap, so every cap that
    reaches target gives the same book.  With no cache
    there, the book is built greedily and saved to cache_path.  A build
    that stops short of target raises InfeasibleAtDeskScale when
    require_full, else the short book is returned.
    """
    seed = int(overrides.get("seed", 0))
    if "policy" in overrides:
        policy = CandidatePolicy(overrides["policy"])
    else:
        policy = (CandidatePolicy.LEX if k**m <= _LEX_SPACE_CAP
                  else CandidatePolicy.SEEDED_RANDOM)
    attempt_cap = int(overrides.get("attempt_cap", DEFAULT_ATTEMPT_CAP))

    def build() -> Codebook:
        try:
            return _build(kind, k, m, delta, beta, list_size, target, policy,
                          seed, attempt_cap, zeros=overrides.get("zeros"),
                          min_gap=overrides.get("min_gap"))
        except TargetUnreachable as exc:
            if require_full:
                raise InfeasibleAtDeskScale(
                    f"inner codebook reached {len(exc.codebook.codewords)} "
                    f"of {target} codewords within {attempt_cap} attempts"
                ) from exc
            return exc.codebook

    if cache_path is not None:
        try:
            cached = load_codebook(cache_path)
        except FileNotFoundError:
            cached = None
        if cached is not None:
            if ((cached.kind, cached.k, cached.m, cached.delta, cached.beta,
                 cached.list_size) != (kind, k, m, delta, beta, list_size)):
                raise InvalidOverride(
                    f"cache {cache_path} holds a different codebook shape")
            if len(cached.codewords) > target:
                raise InvalidOverride(
                    f"cache {cache_path} holds {len(cached.codewords)} "
                    f"codewords, more than the target {target}")
            if cached.seed != seed or cached.candidate_policy is not policy:
                raise InvalidOverride(
                    f"cache {cache_path} was built with seed {cached.seed} "
                    f"and policy {cached.candidate_policy.value}, the spec "
                    f"asks for seed {seed} and policy {policy.value}")
            if not check_codebook(cached)["ok"]:
                raise InvalidOverride(
                    f"cache {cache_path} fails its codebook check")
            if (len(cached.codewords) < target
                    and build().codewords != cached.codewords):
                raise InvalidOverride(
                    f"cache {cache_path} holds {len(cached.codewords)} of "
                    f"{target} codewords, not the book the spec builds")
            return cached

    inner = build()
    if cache_path is not None:
        save_codebook(inner, cache_path)
    return inner
