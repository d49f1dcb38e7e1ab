"""The recipe the three scheme specs share: a spec stores only what nothing
else determines, reads the outer shape (n, n_prime, q) from its RsParams
and the inner block length m from its codebook, whose n * q codewords
cover every (position, value) pair; the three builders take the same
arguments."""

import dataclasses
import inspect

import pytest

from delcodes.errors import LengthMismatch
from delcodes.gf import make_field
from delcodes.highnoise import hn_make_spec
from delcodes.hirate import br_make_spec
from delcodes.listdec import ld_make_spec
from delcodes.presets import SCHEMES
from delcodes.rsouter import RsParams

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
    # The book holds one codeword per (position, value) pair of rs, so an
    # outer code with fewer pairs (one position shorter) or more (the same
    # shape over GF(16)) is refused when the spec is made, before any word
    # is encoded.
    spec = request.getfixturevalue(FIXTURES[scheme])
    rs = spec.rs
    for other in (RsParams(rs.field, rs.n - 1, min(rs.nprime, rs.n - 1)),
                  RsParams(make_field(16), rs.n, rs.nprime)):
        with pytest.raises(LengthMismatch, match="codewords"):
            dataclasses.replace(spec, rs=other)


def test_builders_share_one_signature():
    for build in (hn_make_spec, br_make_spec, ld_make_spec):
        assert list(inspect.signature(build).parameters) == [
            "epsilon", "q", "profile", "overrides"]
