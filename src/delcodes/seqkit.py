"""Words over small alphabets and the subsequence combinatorics used everywhere.

A Word is an immutable sequence of integer symbols drawn from [0, k).  All
counting operations return exact integers (Python bignums); thresholds that
come from rational parameters are computed with fractions.Fraction so no
float rounding can move an integer boundary.

Containment and LCS are bit-parallel, and both run on a whole book at
once: _LcsBook lays the words out as one big integer, and one pass of a
text through _lcs_seq, the one LCS kernel, gives a state from which
_LcsBook.reach reads the words whose LCS with the text reaches a threshold
and _LcsBook.lcs each word's LCS.  _LcsBook.holds asks whether the text
holds any word, and _is_subseq_seq which words contain the text.  The
greedy build and the UNIQUE and DENSE check make one pass per word.
_multi_lcs walks the subsequences of a word as a trie on a book's own
layout, one containment step per symbol, and returns every one of a
threshold length it reaches that lies in enough of the book's words it
names; _room keeps only the matches that leave room to reach that length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import LengthMismatch, OutOfRange


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

    @classmethod
    def _trusted(cls, symbols: tuple[int, ...], alphabet_size: int) -> Word:
        """A Word of symbols known to be in range, built without the check."""
        w = object.__new__(cls)
        vars(w).update(symbols=symbols, alphabet_size=alphabet_size)
        return w

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @staticmethod
    def from_digits(text: str, alphabet_size: int) -> Word:
        """Parse a digit string; digits above 9 use lowercase letters."""
        syms = tuple(int(c, 36) for c in text)
        return Word(syms, alphabet_size)


def _positions(word) -> dict[int, int]:
    """Each symbol of word -> the bits of its positions, from bit 0 up."""
    own: dict[int, int] = {}
    for i, s in enumerate(word):
        own[s] = own.get(s, 0) | 1 << i
    return own


def _lcs_seq(text, book: _LcsBook) -> int:
    """One pass of text over every word of book at once, the bit-parallel
    LCS step (Allison & Dix 1986; Hyyro 2004): bit j of a segment is 0
    where the LCS of the text read so far with the word's first j + 1
    symbols grows by one over its first j.  Returns the state: a word's LCS
    with text is its length less its segment's 1 bits.  u lies within v, so
    v - u borrows nothing, and a carry out of a segment stops in its guard
    bit, which full clears."""
    full = v = book.full
    mask_of = book.masks.get
    for x in text:
        u = v & mask_of(x, 0)
        v = ((v + u) | (v - u)) & full
    return v


class _LcsBook:
    """A book of words laid out as one big integer, word i a segment of
    len(word) + 1 bits: its symbols from the low end up, then a guard bit.
    append lays a new word out above the rest, so a growing book is never
    laid out again.  masks maps each symbol to its positions in every word,
    full is every position but the guards, lows and guards each word's low
    and guard bits, and spans holds each word's (low, high) bits; longest
    is the longest word's length and mixed whether the lengths differ.
    reach and lcs read the state of one _lcs_seq pass, the one LCS kernel,
    and holds makes its own."""

    def __init__(self, words=()):
        self.masks: dict[int, int] = {}
        self.full = self.lows = self.guards = 0
        self.spans: list[tuple[int, int]] = []
        self.width = self.longest = 0
        self.mixed = False
        for w in words:
            self.append(w)

    def append(self, word) -> None:
        base, top = self.width, self.width + len(word)
        for s, a in _positions(word).items():
            self.masks[s] = self.masks.get(s, 0) | a << base
        self.full |= ((1 << len(word)) - 1) << base
        self.lows |= 1 << base
        self.guards |= 1 << top
        self.mixed |= bool(self.spans) and len(word) != self.longest
        self.longest = max(self.longest, len(word))
        self.spans.append((base, top))
        self.width = top + 1

    def reach(self, state: int, t: int) -> int:
        """The guard bits of the words whose LCS with a text is at least t,
        read from the state of the text's _lcs_seq pass: a word's LCS is
        the number of zeros in its segment.  A round peels the lowest one
        bit off every segment at once, y & (y - lows), and sets the guards
        again, so no borrow leaves its segment.  t - 1 rounds on the
        state's complement leave a one in each segment that had t zeros or
        more, and subtracting lows keeps the guard of each such segment.
        When every word has length L and L - t < t - 1, L - t rounds on the
        state itself are fewer: they empty each segment that had at most
        L - t ones, and subtracting lows clears the guard of each empty
        segment and of no other (see holds)."""
        guards, lows, longest = self.guards, self.lows, self.longest
        if t <= 0:
            return guards
        if t > longest:
            return 0
        ones = not self.mixed and longest - t < t - 1
        y = state | guards if ones else state ^ (self.full | guards)
        for _ in range(longest - t if ones else t - 1):
            y = y & (y - lows) | guards
        y -= lows
        return (~y if ones else y) & guards

    def lcs(self, state: int) -> list[int]:
        """The LCS of a text with each word, in order, read from the state
        of its _lcs_seq pass."""
        top = self.width
        bits = f"{state:0{top}b}"
        return [hi - lo - bits.count("1", top - hi, top - lo)
                for lo, hi in self.spans]

    def holds(self, text) -> bool:
        """Whether some word is a subsequence of text, in one pass: a word
        is when its segment of the state is all zeros.  Subtracting lows,
        one bit at each segment's low end, borrows through such a segment
        and clears its guard bit, and stops short of any other guard."""
        guards = self.guards
        return bool(~((_lcs_seq(text, self) | guards) - self.lows) & guards)


def _subseq_layout(words) -> tuple[dict[int, int], int, int]:
    """A book of words as _is_subseq_seq reads it, in the _LcsBook layout.
    Returns occ (symbol -> its positions in every word, OR the guards), the
    mask of all but the guards, and the start (each segment's low bit)."""
    book = _LcsBook(words)
    return ({s: a | book.guards for s, a in book.masks.items()},
            ~book.guards, book.lows)


def _is_subseq_seq(text, occ: dict[int, int], live: int, state: int) -> int:
    """The bits left live after reading text, one in each segment of the
    layout whose word contains it: just past its leftmost embedding.  Each
    symbol s moves every bit at once past the next s: subtracting the bit
    from occ[s] clears that s alone, the guard stops the borrow, and a
    segment whose guard it clears has no s left and dies."""
    for s in text:
        a = occ.get(s, 0)
        state = (a & ~(a - state) & live) << 1
        if not state:
            break
    return state


def _room(spans, ell: int) -> int:
    """In a layout of segments spanning the (low, high) bits given, the
    positions where step 0 of a walk toward an ell-subsequence may match:
    those that leave ell - 1 symbols past them.  A word shorter than ell
    has none.  Step d matches within this mask moved up d positions."""
    live = 0
    for lo, hi in spans:
        if hi - lo >= ell:
            live |= ((2 << (hi - lo - ell)) - 1) << lo
    return live


# Most words one _multi_lcs walk returns.  No walk of the listdec builds
# at m = 8 to 48 finds more than 16, but long words that share much can
# hold exponentially many.
_MOST_SHARED = 64


def _multi_lcs(cand, book: _LcsBook, near: int, ell: int,
               need: int) -> list[tuple[int, ...]]:
    """The ell-subsequences of cand, as tuples, that the walk finds in at
    least need of the words: cand and those of book whose guard bits near
    holds, up to _MOST_SHARED of them.  Empty if and only if no
    ell-subsequence of cand lies in need of them.

    The walk runs over cand's subsequences as a trie on book's layout, cand
    a segment below it, the step of _is_subseq_seq inline.  Its start and
    room hold only cand's and near's segments, so no other word counts.  A
    prefix is kept while cand and need - 1 others hold it with room to
    finish, and a (depth, state) pair seen before is not walked again: the
    words below it were found, or not, the first time, so the walk may
    return fewer than all shared words but never none when one exists.
    Each entry of the walk names the entry it grew from and its last
    symbol, so only the words found are spelled out."""
    m, base = len(cand), len(cand) + 1
    spans = [(0, m)] + [(lo + base, hi + base)
                        for lo, hi in book.spans if near >> hi & 1]
    room = _room(spans, ell)
    guards = book.guards << base | 1 << m
    occ = [(s, book.masks.get(s, 0) << base | a | guards)
           for s, a in _positions(cand).items()]
    mine = (2 << m) - 1
    seen = set()
    found = []
    stack = [(0, sum(1 << lo for lo, _ in spans), None, None)]
    while stack:
        depth, state, _, _ = node = stack.pop()
        if depth == ell:
            word = []
            while node[2]:
                word.append(node[3])
                node = node[2]
            found.append(tuple(reversed(word)))
            if len(found) == _MOST_SHARED:
                return found
            continue
        live = room << depth
        depth += 1
        for s, a in occ:
            nxt = (a & ~(a - state) & live) << 1
            if nxt & mine and nxt.bit_count() >= need and (
                    (depth, nxt) not in seen):
                seen.add((depth, nxt))
                stack.append((depth, nxt, node, s))
    return found


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
