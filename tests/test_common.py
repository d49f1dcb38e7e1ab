"""The recipe the three scheme specs share: a spec stores only what nothing
else determines, reads the outer shape (n, n_prime, q) from its RsParams
and the inner block length m from its codebook, whose n * q codewords
cover every (position, value) pair; the three builders take the same
arguments.  And the contract every scheme keeps, checked once per scheme:
its encoder equals the symbol-by-symbol oracle, its channel word is laid
out as its spans say, it refuses a message of the wrong length, and its
decoder refuses a word over another alphabet and is total on any word over
its own, a unique decoder's repeated failure carries its own record, and
a unique scheme's scorer counts wrong votes against the RS codeword."""

import dataclasses
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from delcodes.channel import DeletionPattern
from delcodes.errors import AlphabetMismatch, DecodeFailure, LengthMismatch
from delcodes.gf import make_field
from delcodes.highnoise import HnTelemetry, hn_make_spec
from delcodes.hirate import BrTelemetry, br_make_spec
from delcodes.listdec import LdTelemetry, ld_make_spec
from delcodes.presets import SCHEMES, make_scheme_spec
from delcodes.rsouter import ERASED, RsParams, outer_word, rs_encode
from delcodes.seqkit import Word
from oracles import encode_oracle

FIXTURES = {"highnoise": "hn_desk", "hirate": "br_desk", "listdec": "ld_desk"}

FIELDS = {
    "highnoise": ["epsilon", "D", "inner", "rs"],
    "hirate": ["epsilon", "buffer_len", "h", "inner", "rs"],
    "listdec": ["epsilon", "inner", "rs"],
}

TELEMETRY = {"highnoise": HnTelemetry, "hirate": BrTelemetry,
             "listdec": LdTelemetry}

SEEDS = {"highnoise": 21, "hirate": 22, "listdec": 22}

BUFFERED = {"highnoise": False, "hirate": True, "listdec": False}

# Small specs whose every message is encoded: (scheme, q, overrides).
SMALL = {
    "highnoise-q3": ("highnoise", 3,
                     {"D": 2, "k": 9, "m": 2, "n": 3, "n_prime": 1}),
    "highnoise-c10": ("highnoise", 5, {}),
    "hirate": ("hirate", None, {"n_prime": 2}),
    "listdec": ("listdec", None, {"n_prime": 2}),
}


@pytest.fixture(scope="module", params=SCHEMES)
def desk(request):
    return request.getfixturevalue(FIXTURES[request.param])


def alphabet(spec) -> int:
    return spec.alphabet_size


def test_spec_stores_no_copy_of_the_shape(desk):
    spec = desk
    assert [f.name for f in dataclasses.fields(spec)] == FIELDS[spec.name]
    assert (spec.m, spec.n, spec.n_prime, spec.q) == (
        spec.inner.m, spec.rs.n, spec.rs.nprime, spec.rs.field.order)
    with pytest.raises(TypeError):
        dataclasses.replace(spec, n=4)


def test_outer_shape_is_read_from_rs(desk):
    # The book holds one codeword per (position, value) pair of rs, so an
    # outer code with fewer pairs (one position shorter) or more (the same
    # shape over GF(16)) is refused when the spec is made, before any word
    # is encoded.
    spec = desk
    rs = spec.rs
    for other in (RsParams(rs.field, rs.n - 1, min(rs.nprime, rs.n - 1)),
                  RsParams(make_field(16), rs.n, rs.nprime)):
        with pytest.raises(LengthMismatch, match="codewords"):
            dataclasses.replace(spec, rs=other)


def test_builders_share_one_signature():
    for build in (hn_make_spec, br_make_spec, ld_make_spec):
        assert list(inspect.signature(build).parameters) == [
            "epsilon", "q", "profile", "overrides"]


@pytest.mark.parametrize("scheme,q,overrides", SMALL.values(), ids=SMALL)
def test_encoder_matches_oracle_on_every_message(scheme, q, overrides):
    spec = make_scheme_spec(scheme, overrides=overrides, q=q)
    assert "pair_words" not in vars(spec)  # built on the first encode
    for msg in itertools.product(range(spec.q), repeat=spec.n_prime):
        assert spec.encode(msg) == encode_oracle(spec, msg), msg
    assert len(spec.pair_words) == spec.n * spec.q
    assert {len(w) for w in spec.pair_words} == {spec.m}


def test_encoder_matches_oracle_on_seeded_messages(desk):
    rng = random.Random(SEEDS[desk.name])
    for _ in range(200):
        msg = [rng.randrange(desk.q) for _ in range(desk.n_prime)]
        word = desk.encode(msg)
        assert word == encode_oracle(desk, msg), msg
        assert len(word) == desk.encoded_length


def test_channel_word_layout(desk):
    # The spans tile [0, encoded_length) in order, codeword and buffer in
    # turn; each codeword span of an encoding holds its pair's word and
    # each buffer span only zeros, over the spec's alphabet.
    spec = desk
    rng = random.Random(SEEDS[spec.name])
    msg = [rng.randrange(spec.q) for _ in range(spec.n_prime)]
    word = spec.encode(msg)
    assert spec.alphabet_size == word.alphabet_size
    blocks, buffers = spec.spans()
    assert len(blocks) == spec.n
    assert len(buffers) == (spec.n - 1 if BUFFERED[spec.name] else 0)
    assert (spec.buffer_len > 0) == BUFFERED[spec.name]
    tiles = sorted(blocks + buffers)
    assert tiles[0][0] == 0 and tiles[-1][1] == spec.encoded_length
    assert all(e == s for (_, e), (s, _) in zip(tiles, tiles[1:]))
    assert [e - s for s, e in blocks] == [spec.m] * spec.n
    for (_, end), (start, _) in zip(blocks, blocks[1:]):
        assert start - end == spec.buffer_len
    syms = word.symbols
    for i, c in enumerate(rs_encode(spec.rs, msg)):
        start, end = blocks[i]
        assert syms[start:end] == spec.pair_words[i * spec.q + c]
    for start, end in buffers:
        assert set(syms[start:end]) == {0}


def test_wrong_message_length(desk):
    for length in (desk.n_prime - 1, desk.n_prime + 1):
        with pytest.raises(LengthMismatch):
            desk.encode([0] * length)


def test_word_over_another_alphabet_rejected(desk):
    with pytest.raises(AlphabetMismatch):
        desk.decode(Word((0,), alphabet(desk) + 1))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_decoder_is_total(desk, data):
    # Any received word, empty included: a result or DecodeFailure, whose
    # telemetry the scorer reads on every failed trial.
    size = alphabet(desk)
    syms = data.draw(st.lists(st.integers(0, size - 1),
                              max_size=desk.encoded_length))
    try:
        desk.decode(Word(tuple(syms), size))
    except DecodeFailure as exc:
        assert isinstance(exc.telemetry, TELEMETRY[desk.name])


@pytest.mark.parametrize("fixture", ["hn_desk", "br_desk"])
def test_repeated_failure_carries_its_own_record(request, fixture):
    # The outer decoder remembers a failing vote vector, so the second
    # decode of the same word fails from its memo; the scheme still attaches
    # that decode's own record, equal to the first's.  The spec gets a fresh
    # RsParams, so the first failure is really decoded.  The word is the
    # first seeded splice of the halves of two messages' encodings that
    # fails to decode.
    desk = request.getfixturevalue(fixture)
    rs = desk.rs
    spec = dataclasses.replace(desk, rs=RsParams(rs.field, rs.n, rs.nprime))
    rng = random.Random(SEEDS[spec.name])
    while True:
        a, b = ([rng.randrange(spec.q) for _ in range(spec.n_prime)]
                for _ in range(2))
        half = spec.encoded_length // 2
        syms = spec.encode(a).symbols[:half] + spec.encode(b).symbols[half:]
        word = Word(syms, alphabet(spec))
        try:
            spec.decode(word)
        except DecodeFailure as exc:
            first = exc
            break
    assert first.telemetry.inner_successes > 0
    remembered = dict(spec.rs._decode_memo)
    with pytest.raises(DecodeFailure) as second:
        spec.decode(word)
    assert spec.rs._decode_memo == remembered  # a hit, not a new entry
    assert str(second.value) == str(first)
    assert second.value.telemetry == first.telemetry


@pytest.mark.parametrize("fixture", ["hn_desk", "br_desk"])
def test_scorer_counts_wrong_votes_against_the_codeword(request, fixture):
    # The scorer reads its truth off the sent word; its wrong votes equal
    # those counted against the RS codeword of the message, on seeded
    # splices of two messages' encodings, which cast wrong votes.
    spec = request.getfixturevalue(fixture)
    rng = random.Random(SEEDS[spec.name])
    most = 0
    for _ in range(40):
        a, b = ([rng.randrange(spec.q) for _ in range(spec.n_prime)]
                for _ in range(2))
        sent = spec.encode(a)
        cut = rng.randrange(spec.encoded_length + 1)
        word = Word(sent.symbols[:cut] + spec.encode(b).symbols[cut:],
                    alphabet(spec))
        try:
            tel = spec.decode(word).telemetry
        except DecodeFailure as exc:
            tel = exc.telemetry
        votes, _ = outer_word(tel.pairs, spec.n)
        wrong = sum(1 for v, t in zip(votes, rs_encode(spec.rs, a))
                    if v is not ERASED and v != t)
        _, snapshot = spec.scorer(a, sent)(DeletionPattern(()), word)
        assert dict(snapshot)["wrong_votes"] == wrong
        most = max(most, wrong)
    assert most > 0


@pytest.mark.parametrize("fixture", ["hn_desk", "br_desk"])
def test_scorer_refuses_a_sent_word_that_is_not_clean(request, fixture):
    # The truth is read off sent's spans, so a sent word whose spans do
    # not spell pairs 0..n-1 in order is refused, not read as some other
    # codeword: two spans swapped, a span's symbol changed, a shifted word.
    spec = request.getfixturevalue(fixture)
    msg = [1] * spec.n_prime
    syms = list(spec.encode(msg).symbols)
    (s0, e0), (s1, e1) = spec.spans()[0][:2]
    swapped = list(syms)
    swapped[s0:e0], swapped[s1:e1] = syms[s1:e1], syms[s0:e0]
    changed = list(syms)
    changed[s0] = (syms[s0] + 1) % alphabet(spec)
    shifted = syms[1:] + syms[:1]
    for bad in (swapped, changed, shifted):
        with pytest.raises(ValueError, match="not a clean word"):
            spec.scorer(msg, Word(tuple(bad), alphabet(spec)))
    spec.scorer(msg, spec.encode(msg))
