"""Bits shared by the three concatenated-code schemes."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import (
    AlphabetMismatch,
    Ambiguous,
    DecodeFailure,
    InvalidOverride,
    LengthMismatch,
    NoMatch,
)
from .gf import FieldElem
from .innercode import inner_decode_unique
from .rsouter import ERASED, outer_word, rs_decode_ee, rs_encode
from .seqkit import Word


class Profile(Enum):
    """Parameter regime for a scheme spec.

    PAPER_ASYMPTOTIC derives every parameter from epsilon by the published
    formulas; DESK lets each one be overridden so the construction fits on a
    desk while the validity checks still run.
    """

    PAPER_ASYMPTOTIC = "PAPER_ASYMPTOTIC"
    DESK = "DESK"


_RATIONAL_KEYS = frozenset({"delta", "beta"})


def check_overrides(overrides: dict, profile: Profile, paper_keys: set,
                    desk_keys: set, required: tuple[str, ...] = ()) -> dict:
    """The overrides, typed: delta and beta as Fractions, every other key
    as an int.  Rejects keys the profile does not take, missing required
    ones and a non-integer value for an integer key."""
    allowed = paper_keys if profile is Profile.PAPER_ASYMPTOTIC else desk_keys
    unknown = set(overrides) - allowed
    if unknown:
        raise InvalidOverride(
            f"override keys {sorted(unknown)} not allowed under {profile.name}")
    for key in required:
        if key not in overrides:
            raise InvalidOverride(f"override {key} must be supplied")
    typed = {}
    for key, value in overrides.items():
        value = Fraction(value)
        if key not in _RATIONAL_KEYS:
            if value.denominator != 1:
                raise InvalidOverride(
                    f"override {key} must be an integer, got {value}")
            value = int(value)
        typed[key] = value
    return typed


def derive_seed(master: int, *parts) -> int:
    """Stable per-trial seed: hash the master seed with a label path.

    Trials must not share RNG streams, and reports must be reproducible from
    the master seed alone, so each consumer derives its own seed from a
    distinct label sequence.
    """
    h = hashlib.sha256()
    h.update(str(master).encode())
    for p in parts:
        h.update(b"/")
        h.update(str(p).encode())
    return int.from_bytes(h.digest()[:8], "little")


def int_snapshot(telemetry) -> tuple[tuple[str, int], ...]:
    """The integer fields of a telemetry record, as (name, value) pairs."""
    return tuple((f.name, getattr(telemetry, f.name))
                 for f in fields(telemetry)
                 if isinstance(getattr(telemetry, f.name), int))


@dataclass(frozen=True)
class DecodeResult:
    """A unique decoder's message and the scheme's telemetry record."""

    message: tuple[FieldElem, ...]
    telemetry: object


class ConcatenatedSpec:
    """The recipe the three scheme specs share.

    The outer Reed-Solomon codeword's symbols are labelled as (position,
    value) pairs and each pair is sent as one inner codeword.  A subclass is
    a frozen dataclass with an inner ``Codebook`` ``inner`` holding one
    codeword per pair, exactly n * q of them (checked on construction), and
    outer ``RsParams`` ``rs``, the outer code's only description.  The shape
    is read from those two, never kept as fields beside them: ``m`` is
    ``inner.m``; ``n``, ``n_prime`` and ``q`` are ``rs.n``, ``rs.nprime``
    and ``rs.field.order``, each cached on first use.  A message goes in as
    nprime field values, plain ints, and the outer code works on ints
    throughout; only a decoded message comes back as ``FieldElem``s.  A
    subclass names its scheme in ``name``, sets ``buffer_len``, the zeros
    between neighbouring codewords, and supplies ``encode``, ``decode``,
    ``guarantee_fraction`` and ``report_sections``.  ``channel_word``, the
    one encode path, sends each pair's ``pair_words`` entry (the inner
    codeword, unless the scheme tags it) over ``alphabet_size`` letters,
    framed as ``spans`` says; the last codeword ends at ``encoded_length``.
    Decoders test a received word with ``check_alphabet``; the unique ones
    pass its pieces to ``decode_pieces``, the one vote-to-message step,
    whose telemetry lists the votes in ``pairs``.
    """

    def __post_init__(self):
        if len(self.inner) != self.n * self.q:
            raise LengthMismatch(f"inner book has {len(self.inner)} codewords,"
                                 f" not n * q = {self.n * self.q}")

    @cached_property
    def m(self) -> int:
        return self.inner.m

    @cached_property
    def n(self) -> int:
        return self.rs.n

    @cached_property
    def n_prime(self) -> int:
        return self.rs.nprime

    @cached_property
    def q(self) -> int:
        return self.rs.field.order

    def pair_of_index(self, index: int) -> tuple[int, int]:
        return divmod(index, self.q)

    @cached_property
    def pair_words(self) -> tuple[tuple[int, ...], ...]:
        """Each pair index i*q + c's channel symbols: its inner codeword."""
        return tuple(cw.symbols for cw in self.inner.codewords)

    @cached_property
    def alphabet_size(self) -> int:
        """Letters of the channel alphabet: the inner book's."""
        return self.inner.k

    def channel_word(self, message) -> Word:
        """RS-encode the message of nprime field values (rs_encode checks
        it) and send each (position, value) pair's channel symbols, in
        position order, with buffer_len zeros between neighbours."""
        words, q, gap = self.pair_words, self.q, (0,) * self.buffer_len
        syms: list[int] = []
        for i, c in enumerate(rs_encode(self.rs, message)):
            if i:
                syms += gap
            syms += words[i * q + c]
        return Word._trusted(tuple(syms), self.alphabet_size)

    def check_alphabet(self, received: Word) -> None:
        """Refuse a received word over another alphabet than the channel's."""
        if (size := received.alphabet_size) != self.alphabet_size:
            raise AlphabetMismatch(
                f"received word has {size} letters, not {self.alphabet_size}")

    def decode_pieces(self, pieces, telemetry) -> DecodeResult:
        """Vote one (position, value) pair per received piece, a tuple of
        inner symbols, and errors-and-erasures decode the voted outer word.

        A piece contained in no codeword, or in several, casts no vote; a
        position with no vote or with conflicting votes is erased.  The
        scheme's record is telemetry(voted, conflicts, erasures, pairs),
        voted the number of pieces that cast a vote.  Raises DecodeFailure,
        with the record attached, when the outer decoder cannot finish.
        """
        inner, pair_of = self.inner, self.pair_of_index
        pairs: set[tuple[int, int]] = set()
        voted = 0
        for piece in pieces:
            try:
                idx = inner_decode_unique(inner, piece)
            except (NoMatch, Ambiguous):
                continue
            voted += 1
            pairs.add(pair_of(idx))
        vector, conflicts = outer_word(pairs, self.n)
        record = telemetry(voted, conflicts, vector.count(ERASED),
                           tuple(sorted(pairs)))
        try:
            msg = rs_decode_ee(self.rs, vector)
        except DecodeFailure as exc:
            raise DecodeFailure(str(exc), telemetry=record) from exc
        return DecodeResult(tuple(map(self.rs.field.elem, msg)), record)

    @property
    def encoded_length(self) -> int:
        """Length of a clean transmission: the end of the last codeword."""
        return self.spans()[0][-1][1]

    def spans(self):
        """Inner codeword spans and buffer spans of a clean transmission:
        codewords at stride m + buffer_len, each followed by a buffer but
        the last; no buffer spans at all when buffer_len is 0."""
        m, gap = self.m, self.buffer_len
        blocks = [(i * (m + gap), i * (m + gap) + m) for i in range(self.n)]
        return blocks, ([(e, e + gap) for _, e in blocks[:-1]] if gap else [])

    def merge_victims(self, blocks, buffers):
        """Span groups that MERGE_ATTACK erases whole, or None when the
        scheme has no headers or buffers to exploit."""
        return None

    @cached_property
    def _pair_of_word(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """Each pair's channel symbols -> the pair; the inner book's words
        are distinct, and so are the pair words."""
        return {w: self.pair_of_index(idx)
                for idx, w in enumerate(self.pair_words)}

    def scorer(self, msg, sent: Word):
        """Scores received words of the message msg, sent as the clean word
        sent, which must be self.encode(msg): (pattern, received) ->
        (outcome, snapshot with wrong votes).  The truth, msg's outer
        codeword, is read once off sent, where codeword span i spells
        pair i's channel symbols, so msg is not RS-encoded again.  A sent
        word whose spans do not spell the pairs 0..n-1 is refused with a
        ValueError; the clean word of another message is not detected."""
        expected = tuple(map(self.rs.field.elem, msg))
        syms, pair_of_word = sent.symbols, self._pair_of_word
        pairs = [pair_of_word.get(syms[s:e], (None, None))
                 for s, e in self.spans()[0]]
        if [i for i, _ in pairs] != list(range(self.n)):
            raise ValueError(f"sent is not a clean word of {self.name}")
        truth = [c for _, c in pairs]
        def score(pattern, received):
            try:
                res = self.decode(received)
            except DecodeFailure as exc:
                tel = exc.telemetry
                outcome = "fail-decode"
            else:
                tel = res.telemetry
                outcome = "ok" if res.message == expected else "wrong"
            word, _ = outer_word(tel.pairs, len(truth))
            wrong = sum(1 for v, t in zip(word, truth)
                        if v is not ERASED and v != t)
            return outcome, tuple(sorted(int_snapshot(tel)
                                         + (("wrong_votes", wrong),)))
        return score
