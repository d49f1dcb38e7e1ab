"""The recipe the three scheme specs share: a spec stores only what nothing
else determines, and reads the outer shape (n, n_prime, q) from its
RsParams and the inner block length m from its codebook."""

import dataclasses
import random

import pytest

from delcodes.channel import DeletionPattern
from delcodes.errors import DecodeFailure
from delcodes.presets import SCHEMES
from delcodes.rsouter import RsParams
from delcodes.seqkit import Word

FIXTURES = {"highnoise": "hn_desk", "hirate": "br_desk", "listdec": "ld_desk"}

FIELDS = {
    "highnoise": ["epsilon", "D", "inner", "rs"],
    "hirate": ["epsilon", "buffer_len", "h", "inner", "rs"],
    "listdec": ["epsilon", "delta", "ell", "inner", "rs"],
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_spec_stores_no_copy_of_the_shape(request, scheme):
    spec = request.getfixturevalue(FIXTURES[scheme])
    assert [f.name for f in dataclasses.fields(spec)] == FIELDS[scheme]
    assert (spec.m, spec.n, spec.n_prime, spec.q) == (
        spec.inner.m, spec.rs.n, spec.rs.nprime, spec.rs.field.order)
    with pytest.raises(TypeError):
        dataclasses.replace(spec, n=4)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_outer_shape_is_read_from_rs(request, scheme):
    # A shorter outer code over the same field: the book still holds the
    # codewords of the dropped last position, and words voting for them
    # must neither crash the decoder nor cost the message.
    full = request.getfixturevalue(FIXTURES[scheme])
    rs = full.rs
    spec = dataclasses.replace(
        full, rs=RsParams(rs.field, rs.n - 1, min(rs.nprime, rs.n - 1)))
    rng = random.Random(19)
    msg = [rng.randrange(rs.field.order) for _ in range(spec.rs.nprime)]
    sent = spec.encode(msg)
    outcome, _ = spec.scorer(msg)(DeletionPattern(()), sent)
    assert outcome == "ok"
    blocks, _ = spec.spans()
    assert len(blocks) == rs.n - 1 and len(sent) == blocks[-1][1]
    # The word the full code sends votes for the dropped position.
    received = [Word((), sent.alphabet_size),
                full.encode([0] * full.n_prime)]
    while len(received) < 20:
        length = rng.randrange(len(sent) + 1)
        received.append(Word(tuple(rng.randrange(sent.alphabet_size)
                                   for _ in range(length)),
                             sent.alphabet_size))
    for word in received:
        try:
            spec.decode(word)
        except DecodeFailure:
            pass
