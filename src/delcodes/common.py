"""Bits shared by the three concatenated-code schemes."""

from __future__ import annotations

import hashlib
from dataclasses import fields
from enum import Enum

from .errors import (
    AlphabetMismatch,
    DecodeFailure,
    InfeasibleAtDeskScale,
    LengthMismatch,
    OutOfRange,
)
from .gf import FieldElem
from .innercode import inner_encode
from .rsouter import ERASED, outer_word, rs_encode


class Profile(Enum):
    """Parameter regime for a scheme spec.

    PAPER_ASYMPTOTIC derives every parameter from epsilon by the published
    formulas; DESK lets each one be overridden so the construction fits on a
    desk while the validity checks still run.
    """

    PAPER_ASYMPTOTIC = "PAPER_ASYMPTOTIC"
    DESK = "DESK"


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


class ConcatenatedSpec:
    """The recipe the three scheme specs share.

    The outer Reed-Solomon codeword's symbols are labelled as (position,
    value) pairs and each pair is sent as one inner codeword.  A subclass is
    a frozen dataclass with an inner block length ``m``, an inner
    ``Codebook`` ``inner`` and outer ``RsParams`` ``rs``.  It names its
    scheme in ``name`` and supplies ``encode``, ``decode``,
    ``guarantee_fraction`` and ``report_sections``.  The trial scoring here
    is for the unique decoders, whose results carry one ``message`` and
    whose telemetry lists the (position, value) votes in ``pairs``; the
    list decoder overrides it.
    """

    @property
    def pair_count(self) -> int:
        return self.rs.n * self.rs.field.order

    @property
    def full_book(self) -> bool:
        return len(self.inner.codewords) >= self.pair_count

    @property
    def payload_length(self) -> int:
        """Inner codeword symbols in one transmission, buffers left out."""
        return self.rs.n * self.m

    def pair_index(self, position: int, value: int) -> int:
        n, q = self.rs.n, self.rs.field.order
        if not 0 <= position < n:
            raise OutOfRange(f"position {position} outside [0, {n})")
        if not 0 <= value < q:
            raise OutOfRange(f"value {value} outside [0, {q})")
        return position * q + value

    def pair_of_index(self, index: int) -> tuple[int, int]:
        return divmod(index, self.rs.field.order)

    def message_values(self, message) -> list[int]:
        """The message as outer field values, checked against the spec."""
        msg = list(message)
        if len(msg) != self.rs.nprime:
            raise LengthMismatch(
                f"message length {len(msg)} != dimension {self.rs.nprime}")
        out = []
        for v in msg:
            if isinstance(v, FieldElem):
                if v.field != self.rs.field:
                    raise AlphabetMismatch(
                        "message element from a different field")
                out.append(v.value)
            else:
                out.append(self.rs.field.elem(int(v)).value)
        return out

    def inner_words(self, message) -> list:
        """RS-encode the message, then inner-encode each (position, value)
        pair of the codeword, in position order."""
        code = rs_encode(self.rs.field, self.message_values(message), self.rs.n)
        words = []
        for i, c in enumerate(code):
            pair = self.pair_index(i, c.value)
            if pair >= len(self.inner.codewords):
                raise InfeasibleAtDeskScale(
                    f"pair ({i}, {c.value}) needs inner index {pair} but the "
                    f"book holds {len(self.inner.codewords)} codewords")
            words.append(inner_encode(self.inner, pair))
        return words

    def spans(self):
        """Inner codeword spans and buffer spans of a clean transmission:
        here codewords back to back, no buffers."""
        m = self.m
        return [(i * m, (i + 1) * m) for i in range(self.rs.n)], []

    def merge_victims(self, blocks, buffers):
        """Span groups that MERGE_ATTACK erases whole, or None when the
        scheme has no headers or buffers to exploit."""
        return None

    def decode_and_score(self, msg, pattern, received):
        """Decode a received word of the message msg: the trial outcome and
        the telemetry snapshot, wrong votes included."""
        expected = tuple(self.rs.field.elem(v) for v in msg)
        truth = rs_encode(self.rs.field, list(msg), self.rs.n)
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
                    if v is not ERASED and v != t.value)
        return outcome, tuple(sorted(int_snapshot(tel)
                                     + (("wrong_votes", wrong),)))

    def confusion_score(self, transmitted):
        """Scorer of received words: 1 when one defeats the decoder."""
        expected = self.decode(transmitted).message

        def score(received):
            try:
                return 0 if self.decode(received).message == expected else 1
            except DecodeFailure:
                return 1
        return score
