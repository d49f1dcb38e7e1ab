"""Words over small alphabets and the subsequence combinatorics used everywhere.

A Word is an immutable sequence of integer symbols drawn from [0, k).  All
counting operations return exact integers (Python bignums); thresholds that
come from rational parameters are computed with fractions.Fraction so no
float rounding can move an integer boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import le

from .errors import (
    AlphabetMismatch,
    GuardExceeded,
    LengthMismatch,
    NotBinary,
    OutOfRange,
)

DEFAULT_DOMINANT_GUARD = 10**6


@dataclass(frozen=True)
class Word:
    """A fixed word over the alphabet {0, ..., alphabet_size - 1}."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise OutOfRange(f"alphabet size must be >= 2, got {self.alphabet_size}")
        for s in self.symbols:
            if not 0 <= s < self.alphabet_size:
                raise OutOfRange(
                    f"symbol {s} outside alphabet of size {self.alphabet_size}"
                )

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @staticmethod
    def from_digits(text: str, alphabet_size: int) -> Word:
        """Parse a digit string; digits above 9 use lowercase letters."""
        syms = tuple(int(c, 36) for c in text)
        return Word(syms, alphabet_size)

    @staticmethod
    def binary(text: str) -> Word:
        return Word.from_digits(text, 2)

    def digits(self) -> str:
        if self.alphabet_size > 36:
            raise OutOfRange("digit form only defined for alphabets up to 36")
        alpha = "0123456789abcdefghijklmnopqrstuvwxyz"
        return "".join(alpha[s] for s in self.symbols)

    def ones(self) -> int:
        return sum(1 for s in self.symbols if s == 1)


@dataclass(frozen=True)
class Interval:
    """A contiguous index range [start, start + length) inside a word."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


def _check_same_alphabet(*words: Word) -> int:
    k = words[0].alphabet_size
    for w in words[1:]:
        if w.alphabet_size != k:
            raise AlphabetMismatch(
                f"alphabet sizes differ: {k} vs {w.alphabet_size}"
            )
    return k


def lcs(a: Word, b: Word) -> int:
    """Length of the longest common subsequence of a and b."""
    _check_same_alphabet(a, b)
    return _lcs_seq(a.symbols, b.symbols)


def _lcs_seq(xs, ys) -> int:
    # Bit-parallel LCS (Allison & Dix 1986; Hyyro 2004).  Bit j of v is 0
    # where the LCS of the text read so far with ys[:j+1] grows by one over
    # ys[:j]; each text symbol updates every column in one big-int step.
    if len(xs) < len(ys):
        xs, ys = ys, xs
    masks: dict[int, int] = {}
    bit = 1
    for y in ys:
        masks[y] = masks.get(y, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    mask_of = masks.get
    for x in xs:
        u = v & mask_of(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(ys) - v.bit_count()


def is_subsequence(s: Word, t: Word) -> bool:
    """True when s embeds into t preserving order (the empty word always does)."""
    _check_same_alphabet(s, t)
    return _is_subseq_seq(s.symbols, t.symbols)


def _is_subseq_seq(s, t) -> bool:
    if len(s) > len(t):
        return False
    it = iter(t)
    return all(sym in it for sym in s)


def common_subsequence_at_least(words: list[Word], ell: int,
                                guard: int = DEFAULT_DOMINANT_GUARD) -> bool:
    """Do all given words share a common subsequence of length >= ell?

    Runs a dominant-point multi-word LCS search, level by level over the
    Pareto-minimal embedding points; the call is refused with GuardExceeded
    once the levels have generated more than ``guard`` dominant points.  A
    cheap pairwise pre-pass answers False early, since a subsequence common
    to all words is common to every pair.
    """
    if not words:
        raise LengthMismatch("need at least one word")
    _check_same_alphabet(*words)
    if ell <= 0:
        return True
    if any(len(w) < ell for w in words):
        return False
    if len(words) == 1:
        return True
    seqs = [w.symbols for w in words]
    if len(seqs) == 2:
        return _lcs_seq(seqs[0], seqs[1]) >= ell
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            if _lcs_seq(seqs[i], seqs[j]) < ell:
                return False
    return _multi_lcs(seqs, guard) >= ell


def _multi_lcs(seqs, guard: int) -> int:
    # Dominant-point search (Hakata & Imai 1992).  A point holds one prefix
    # length per word; level l is the set of Pareto-minimal points at which
    # some common subsequence of length l ends, each word embedding it
    # leftmost.  A point that dominates another can be extended by nothing
    # the smaller one cannot, so level l + 1 is the minimal set of the
    # one-symbol successors of level l, and the LCS length is the number of
    # non-empty levels.
    common = set(seqs[0]).intersection(*seqs[1:])
    steps = []
    for c in common:
        # cols[i][p] is the prefix length just past the first c at or after
        # position p of word i, or None when word i has no such c.
        cols = []
        for s in seqs:
            col = [None] * (len(s) + 1)
            nxt = None
            for p in range(len(s) - 1, -1, -1):
                if s[p] == c:
                    nxt = p + 1
                col[p] = nxt
            cols.append(col)
        steps.append(cols)
    frontier = [(0,) * len(seqs)]
    length = generated = 0
    while True:
        successors = set()
        for cols in steps:
            for point in frontier:
                nxt = tuple(map(list.__getitem__, cols, point))
                if None not in nxt:
                    successors.add(nxt)
        if not successors:
            return length
        # In lexicographic order a point can only be dominated by one
        # before it.
        frontier = []
        for point in sorted(successors):
            for kept in frontier:
                if all(map(le, kept, point)):
                    break
            else:
                frontier.append(point)
        generated += len(frontier)
        if generated > guard:
            raise GuardExceeded(
                f"multi-LCS search generated {generated} dominant points, "
                f"over the guard {guard}"
            )
        length += 1


def runs_of_zero(s: Word, min_len: int) -> list[Interval]:
    """Maximal runs of the symbol 0 with length >= min_len, left to right."""
    if s.alphabet_size != 2:
        raise NotBinary("zero runs are defined for binary words only")
    if min_len < 1:
        raise OutOfRange(f"min_len must be >= 1, got {min_len}")
    out = []
    run_start = None
    for i, sym in enumerate(s.symbols):
        if sym == 0:
            if run_start is None:
                run_start = i
        else:
            if run_start is not None and i - run_start >= min_len:
                out.append(Interval(run_start, i - run_start))
            run_start = None
    if run_start is not None and len(s) - run_start >= min_len:
        out.append(Interval(run_start, len(s) - run_start))
    return out


def density_rule(m: int, beta: Fraction) -> tuple[int, int]:
    """The beta-density rule for length-m words: every window of
    ceil(beta * m) symbols must hold at least ceil(beta * m / 10) ones.

    Returns the window length and the ones it needs.
    """
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise OutOfRange(f"beta must lie in (0, 1], got {beta}")
    if beta * m < 1:
        raise OutOfRange(f"beta * m = {beta * m} is below 1, no window exists")
    return math.ceil(beta * m), math.ceil(beta * m / 10)


def is_dense_seq(syms, win: int, need: int) -> bool:
    """Sliding-window scan of a binary symbol tuple: every win symbols hold
    at least need ones.  A word shorter than one window is judged whole."""
    m = len(syms)
    if win >= m:
        return sum(syms) >= need
    count = sum(syms[:win])
    if count < need:
        return False
    for i in range(win, m):
        count += syms[i] - syms[i - win]
        if count < need:
            return False
    return True


def is_beta_dense(s: Word, beta: Fraction) -> bool:
    """Whether s obeys the beta-density rule (see density_rule)."""
    if s.alphabet_size != 2:
        raise NotBinary("density is defined for binary words only")
    return is_dense_seq(s.symbols, *density_rule(len(s), beta))


def entropy(delta: float | Fraction) -> float:
    """Binary entropy in bits; 0 at both endpoints."""
    d = float(delta)
    if not 0 <= d <= 1:
        raise OutOfRange(f"entropy argument must lie in [0, 1], got {d}")
    if d == 0.0 or d == 1.0:
        return 0.0
    return -d * math.log2(d) - (1 - d) * math.log2(1 - d)


def count_supersequences(s: Word, m: int, k: int) -> int:
    """Exactly how many strings in [k]^m contain s as a subsequence.

    Counts via the leftmost embedding of s: summing over the position t of the
    final embedded symbol, there are C(t-1, l-1) ways to place the earlier
    symbols, the skipped positions before t each avoid one symbol, and the
    m - t tail positions are free.  Each containing string is generated once,
    so the sum is exact.
    """
    if k < 2:
        raise OutOfRange(f"alphabet size must be >= 2, got {k}")
    if m < 0:
        raise OutOfRange(f"length must be >= 0, got {m}")
    for sym in s.symbols:
        if sym >= k:
            raise OutOfRange(f"symbol {sym} outside alphabet of size {k}")
    ell = len(s)
    if ell > m:
        raise LengthMismatch(f"pattern length {ell} exceeds word length {m}")
    if ell == 0:
        return k**m
    total = 0
    for t in range(ell, m + 1):
        total += math.comb(t - 1, ell - 1) * k ** (m - t) * (k - 1) ** (t - ell)
    return total


def count_bound_general(ell: int, m: int, k: int) -> int:
    """The k^(m-l) * C(m, l) upper estimate for supersequence counts."""
    if not 0 <= ell <= m:
        raise OutOfRange(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    if k < 2:
        raise OutOfRange(f"alphabet size must be >= 2, got {k}")
    return k ** (m - ell) * math.comb(m, ell)


def count_bound_binary(ell: int, m: int) -> int:
    """The sharper binary estimate (m - l) * C(m, l), valid for l > m / 2.

    With delta = (m - l) / m the bound reads delta * m * C(m, l); delta * m
    is the integer m - l, so no rounding is involved.  At l = m the stated
    bound degenerates to 0 while the true count is 1; the degenerate value is
    returned as written.
    """
    if not ell * 2 > m:
        raise OutOfRange(f"binary estimate needs ell > m / 2, got ell={ell}, m={m}")
    if ell > m:
        raise OutOfRange(f"need ell <= m, got ell={ell}, m={m}")
    return (m - ell) * math.comb(m, ell)
