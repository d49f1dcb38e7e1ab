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
(LCS <= ell - 1, or no list_size words sharing an ell-subsequence).  The
accepted words are laid out once, growing, in a seqkit._LcsBook, so one
bit-parallel pass of seqkit._lcs_seq, the one LCS kernel, tells which of
them a candidate's LCS reaches ell with (_LcsBook.reach), a few big-int
operations for the whole book.  A UNIQUE or DENSE candidate is refused if
any is.  A LISTDEC build reads from the same pass the words equal to the
candidate and its near words, those it reaches ell with, and walks the
candidate's ell-subsequences there.  Every shared word a walk finds is
kept in a second _LcsBook, where one pass refuses any later candidate
holding one, with no LCS pass or walk.  A seeded UNIQUE or DENSE search
for more than k^ell words is refused at once, as each word holds an
ell-subsequence no other holds.  check_codebook lays a UNIQUE or DENSE
book out the same way, from its last word back, makes one pass per word
and reads a row of LCS values in full only when one may set a new
maximum or break the rule.

Decoding asks which codewords contain a received word as a subsequence.  A
piece as long as a codeword is contained only in an equal codeword, so it is
looked up by its symbols.  A shorter piece is tested against the whole book
at once, in the bit layout of seqkit._is_subseq_seq, built on first use.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from . import seqkit
from .errors import (
    AlphabetMismatch,
    Ambiguous,
    GuardExceeded,
    InfeasibleAtDeskScale,
    NoMatch,
    OutOfRange,
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
    candidate_policy: CandidatePolicy

    def __len__(self) -> int:
        return len(self.codewords)

    @cached_property
    def separation_threshold(self) -> int:
        """Codeword pairs (or list_size-subsets) share no common subsequence
        of this length."""
        return separation_threshold(self.m, self.delta)

    @cached_property
    def _by_word(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Codeword symbols -> the indices of the codewords spelling them."""
        found: dict[tuple[int, ...], tuple[int, ...]] = {}
        for i, cw in enumerate(self.codewords):
            found[cw.symbols] = found.get(cw.symbols, ()) + (i,)
        return found

    @cached_property
    def _layout(self) -> tuple[dict[int, int], int, int]:
        """The codewords' seqkit._subseq_layout, built by the first decode
        or check."""
        return seqkit._subseq_layout(cw.symbols for cw in self.codewords)


def separation_threshold(m: int, delta: Fraction) -> int:
    return math.ceil((1 - Fraction(delta)) * m)


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


def _build(kind: CodebookKind, k: int, m: int, delta: Fraction, *,
           target_size: int | None = None,
           policy: CandidatePolicy = CandidatePolicy.LEX, seed: int = 0,
           attempt_cap: int = DEFAULT_ATTEMPT_CAP,
           beta: Fraction | None = None, list_size: int | None = None,
           zeros: int | None = None, min_gap: int | None = None) -> Codebook:
    """Greedily collect words over [k]^m of the given kind (see the module
    docstring), stopping at target_size words if one is given.  A build
    short of target_size has used up its candidate stream and raises
    InfeasibleAtDeskScale; with target_size=None it returns those words.

    DENSE books take beta and LISTDEC books list_size.  Under the
    SEEDED_RANDOM policy DENSE candidates follow the wide-gap layout from
    dense_layout; zeros/min_gap override its defaults.

    A LISTDEC candidate is refused if it repeats a word, or if
    seqkit._multi_lcs finds one of its own ell-subsequences in
    list_size - 1 of its near words: only a word whose LCS with it reaches
    ell can hold one.  The walk reads them, by their guard bits, in the
    build's own _LcsBook.  Every word a walk finds is kept, and a later
    candidate that holds a kept word is refused before its LCS pass.  That
    is exact: the book only grows, so the list_size - 1 words that hold the
    kept word are still there and near the candidate, and its walk would
    refuse it too.
    check_codebook walks every binary probe word instead, so it shares no
    search with the build; both are checked against tests/oracles.py
    (probe_scan, table_multi_lcs and shares_subsequence).
    """
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

    if kind is not CodebookKind.UNIQUE and k != 2:
        raise AlphabetMismatch(f"{kind.value} codebooks are binary")
    win = need = 0
    if kind is CodebookKind.DENSE:
        beta = Fraction(beta)
        win, need = seqkit.density_rule(m, beta)
    if kind is CodebookKind.LISTDEC:
        if list_size is None or list_size < 2:
            raise OutOfRange(f"list size must be >= 2, got {list_size}")

    if (policy is CandidatePolicy.SEEDED_RANDOM
            and kind is not CodebookKind.LISTDEC
            and target_size is not None and target_size > k**ell):
        raise InfeasibleAtDeskScale(
            f"{kind.value} inner codebook cannot hold {target_size} "
            f"codewords: each holds a subsequence of length {ell} that no "
            f"other holds, so at most {k}^{ell} = {k**ell} fit")

    rng = random.Random(seed)
    if policy is CandidatePolicy.LEX:
        stream = itertools.product(range(k), repeat=m)
    elif kind is CodebookKind.DENSE:
        z, g = dense_layout(m, delta, zeros, min_gap)
        stream = _random_dense_stream(m, rng, attempt_cap, z, g)
    else:
        stream = _random_stream(k, m, rng, attempt_cap)

    accepted: list[tuple[int, ...]] = []
    book, blocked = seqkit._LcsBook(), seqkit._LcsBook()
    for cand in stream:
        if kind is CodebookKind.DENSE and not (
                cand[0] == 1 and cand[-1] == 1
                and seqkit.is_dense_seq(cand, win, need)):
            continue
        if kind is not CodebookKind.LISTDEC:
            if book.reach(seqkit._lcs_seq(cand, book), ell):
                continue
        elif blocked.holds(cand) or book.reach(
                state := seqkit._lcs_seq(cand, book), m):
            continue
        elif ((near := book.reach(state, ell)).bit_count() >= list_size - 1
              and (shared := seqkit._multi_lcs(cand, book, near, ell,
                                               list_size))):
            for word in shared:
                blocked.append(word)
            continue
        accepted.append(cand)
        book.append(cand)
        if target_size is not None and len(accepted) >= target_size:
            break

    if target_size is not None and len(accepted) < target_size:
        budget = (f"after all {k}^{m} candidates"
                  if policy is CandidatePolicy.LEX
                  else f"within {attempt_cap} attempts")
        raise InfeasibleAtDeskScale(
            f"{kind.value} inner codebook reached {len(accepted)} of "
            f"{target_size} codewords {budget}")
    return Codebook(kind, k, m, delta,
                    beta if kind is CodebookKind.DENSE else None,
                    list_size if kind is CodebookKind.LISTDEC else None,
                    tuple(Word._trusted(a, k) for a in accepted), policy)


def greedy_listdec(m: int, delta: Fraction, list_size: int) -> Codebook:
    """Greedily collect binary words so that no list_size of them share a
    common subsequence of the threshold length."""
    return _build(CodebookKind.LISTDEC, 2, m, delta, list_size=list_size)


def _containing(cb: Codebook, received: tuple[int, ...]):
    """Indices, ascending, of the codewords that contain the symbol tuple
    received as a subsequence.  Every codeword has length m, so a received
    word of length m or more is contained only in codewords equal to it."""
    if len(received) >= cb.m:
        yield from cb._by_word.get(received, ())
        return
    live = seqkit._is_subseq_seq(received, *cb._layout)
    while live:
        low = live & -live
        yield (low.bit_length() - 1) // (cb.m + 1)
        live ^= low


def inner_decode_unique(cb: Codebook, received: tuple[int, ...]) -> int:
    """Index of the unique codeword containing the symbol tuple received
    as a subsequence."""
    found = -1
    for i in _containing(cb, received):
        if found >= 0:
            raise Ambiguous(f"codewords {found} and {i} both contain received")
        found = i
    if found < 0:
        raise NoMatch("no codeword contains the received word")
    return found


def inner_decode_list(cb: Codebook, received: tuple[int, ...]) -> list[int]:
    """Indices of all codewords containing the symbol tuple received as a
    subsequence."""
    return list(_containing(cb, received))


# ---------------------------------------------------------------------------
# Rate accounting


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


def rate_report(cb: Codebook) -> dict:
    """Achieved rate next to the greedy counting guarantee.

    counting_size_bound is the largest codebook size the counting argument
    promises; bound_satisfied records whether the built codebook reached
    it.  For LISTDEC books the bound comes from the random-coding rate
    1 - h(delta) - 3/L instead of the blocking count.
    """
    m, k = cb.m, cb.k
    ell = cb.separation_threshold
    size = len(cb.codewords)
    rate = math.log(size, k) / m if size >= 1 else 0.0

    if cb.kind is CodebookKind.LISTDEC:
        r_exist = 1.0 - seqkit.entropy(cb.delta) - 3.0 / cb.list_size
        bound = math.floor(2 ** (r_exist * m)) if r_exist > 0 else 0
        bound_rate = max(r_exist, 0.0)
    else:
        # Each chosen word blocks at most (number of its ell-subsequences)
        # times (supersequence count per ell-pattern) later candidates.
        blocked = math.comb(m, ell) * seqkit.count_bound_general(ell, m, k)
        if k == 2 and 2 * ell > m and ell < m:
            blocked = min(blocked,
                          math.comb(m, ell) * seqkit.count_bound_binary(ell, m))
        if cb.kind is CodebookKind.DENSE:
            pool = count_dense_words(m, cb.beta)
        else:
            pool = k**m
        bound = pool // blocked if blocked > 0 else 0
        bound_rate = math.log(bound, k) / m if bound >= 1 else 0.0
    return {
        "kind": cb.kind.value,
        "achieved_size": size,
        "rate": rate,
        "counting_size_bound": bound,
        "counting_rate_bound": bound_rate,
        "bound_satisfied": size >= bound,
    }


# ---------------------------------------------------------------------------
# Invariant checking (used by the build command and the test suite)


def check_codebook(cb: Codebook) -> dict:
    """Re-verify the defining property of a codebook.

    Returns a report dict with an ``ok`` flag.  UNIQUE and DENSE books get
    every pair's LCS, from one seqkit._lcs_seq pass per word over the words
    after it, laid out once; a pass is read in full only if some LCS in it
    exceeds the largest so far or reaches ell.  Only words of the book's
    shape are tested for density; the others are reported as misshapen.
    A LISTDEC book is checked against every binary probe word of length
    ell, walked as a trie on the decoders' containment layout; the walk is
    exact at every ell.  The build walks
    only each candidate's own subsequences against its near words, so the
    check does not rest on the build's search.  A LISTDEC report also says
    whether the check is ``vacuous``: a book with fewer codewords than its
    list size passes whatever its words are.
    """
    ell = cb.separation_threshold
    words = cb.codewords
    bad: list[str] = []
    report: dict = {"kind": cb.kind.value, "size": len(words),
                    "separation_threshold": ell, "ok": True, "violations": bad}
    if len(set(w.symbols for w in words)) != len(words):
        bad.append("duplicate codewords")
    if any(len(w) != cb.m or w.alphabet_size != cb.k for w in words):
        bad.append("codeword shape mismatch")

    worst = 0
    if cb.kind in (CodebookKind.UNIQUE, CodebookKind.DENSE):
        book, rows = seqkit._LcsBook(), []
        for i in range(len(words) - 1, -1, -1):
            state = seqkit._lcs_seq(words[i].symbols, book)
            if book.reach(state, min(worst + 1, ell)):
                row = book.lcs(state)[::-1]
                rows.append((i, row))
                worst = max(worst, *row)
            book.append(words[i].symbols)
        for i, row in reversed(rows):
            bad += [f"pair ({i}, {j}) has lcs {v}"
                    for j, v in enumerate(row, i + 1) if v >= ell]
        report["max_pairwise_lcs"] = worst
        if cb.kind is CodebookKind.DENSE:
            win, need = seqkit.density_rule(cb.m, cb.beta)
            bad += [f"codeword {i} not dense" for i, w in enumerate(words)
                    if len(w) == cb.m and w.alphabet_size == cb.k and not (
                        w.symbols[0] == 1 == w.symbols[-1]
                        and seqkit.is_dense_seq(w.symbols, win, need))]
        report["ok"] = not bad
        return report

    # LISTDEC: no received word of length ell may match list_size codewords.
    # Each probe prefix carries the _is_subseq_seq state of the words holding
    # it.  Step d keeps a word only if its match leaves room for the ell - d
    # probe symbols from d on, and a prefix held by fewer than list_size
    # words and by no more than the worst probe so far is not extended.
    occ, _, start = cb._layout
    los = itertools.accumulate((len(w) + 1 for w in words), initial=0)
    room = seqkit._room([(lo, lo + len(w)) for lo, w in zip(los, words)], ell)
    stack = [("", start)]
    while stack:
        probe, state = stack.pop()
        hits = state.bit_count()
        if len(probe) == ell:
            worst = max(worst, hits)
            if hits >= cb.list_size:
                bad.append(f"word {probe} matches {hits} codewords")
        elif hits >= cb.list_size or hits > worst:
            stack += [(probe + str(s), seqkit._is_subseq_seq(
                (s,), occ, room << len(probe), state)) for s in (1, 0)]
    report.update(ok=not bad, max_list_size=worst,
                  vacuous=cb.list_size > len(words))
    return report


# ---------------------------------------------------------------------------
# Scheme inner books


def spec_codebook(kind: CodebookKind, k: int, m: int, delta: Fraction, *,
                  target: int, overrides: dict,
                  beta: Fraction | None = None,
                  list_size: int | None = None) -> Codebook:
    """Build the inner book a scheme spec asks for: target codewords, one
    per (position, value) pair, or InfeasibleAtDeskScale.

    overrides, as check_overrides typed them, may set seed, attempt_cap
    and, for DENSE books, zeros and min_gap.  Candidates are LEX while the
    k^m candidate space stays small, SEEDED_RANDOM beyond.
    """
    # _build refuses m < 1, where k**m may not even be defined (k = 0).
    policy = (CandidatePolicy.LEX if m < 1 or k**m <= _LEX_SPACE_CAP
              else CandidatePolicy.SEEDED_RANDOM)
    return _build(kind, k, m, delta, target_size=target, policy=policy,
                  seed=overrides.get("seed", 0),
                  attempt_cap=overrides.get("attempt_cap",
                                            DEFAULT_ATTEMPT_CAP),
                  beta=beta, list_size=list_size,
                  zeros=overrides.get("zeros"),
                  min_gap=overrides.get("min_gap"))
