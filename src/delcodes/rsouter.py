"""Reed-Solomon outer code over an explicit finite field.

RsParams is the code's one description: the field, the block length n and
the dimension nprime, checked once when it is made.  The entry points take
it and read and return plain ints, the field values 0..q-1.  Messages are
coefficient vectors of polynomials of degree < nprime; the codeword is the
evaluation at the points 0, 1, ..., n - 1, by Horner's rule from the top
coefficient.  Decoding handles erasures (ERASED entries) by restriction
and errors by Gao's algorithm (Gao, "A new algorithm for decoding
Reed-Solomon codes", 2003): with r erasures and t errors, recovery is
guaranteed whenever r + 2t <= n - nprime.  A word whose survivors already
lie on one polynomial of degree < nprime returns before the Euclidean
loop.  That is exact, not a second decoder: Gao's
interpolant passes through every survivor, so by uniqueness of
interpolation its degree is < nprime exactly when no survivor disagrees
with a codeword, and then the loop would run no step and return the same
coefficients.  Gao's interpolation data (the vanishing polynomial and the
Lagrange basis of the unerased points) depends only on the field and those
points, so it is computed once per point set and cached.  The decoder meets
the same few received words again and again (one per message when every
vote is right), so each RsParams also remembers the outcome of its last
words: the message coefficients, or the DecodeFailure message, keyed on the
received word and cleared when it reaches _DECODE_MEMO entries.

rs_list_recover_bruteforce searches all q^nprime messages for codewords that
agree with per-position candidate sets often enough; it exists to make small
list-decoding experiments exact, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import zip_longest

from .errors import DecodeFailure, GuardExceeded, LengthMismatch, OutOfRange
from .gf import Field

ERASED = None

LIST_GUARD = 10**7


@dataclass(frozen=True)
class RsParams:
    """Outer code shape: length n codewords over `field`, dimension nprime."""

    field: Field
    n: int
    nprime: int

    def __post_init__(self):
        if not 1 <= self.n <= self.field.order:
            raise OutOfRange(
                f"block length {self.n} must lie in [1, {self.field.order}]")
        if not 1 <= self.nprime <= self.n:
            raise OutOfRange(
                f"dimension {self.nprime} must lie in [1, {self.n}]")

    @cached_property
    def _decode_memo(self) -> dict[tuple, tuple[int, ...] | str]:
        """Received word -> rs_decode_ee's coefficients, or the message of
        its DecodeFailure; filled by rs_decode_ee."""
        return {}


def candidate_sets(pairs, n: int) -> list[set[int]]:
    """The values voted for at each of the positions 0..n-1 by (position,
    value) pairs."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, v in pairs:
        sets[i].add(v)
    return sets


def outer_word(pairs, n: int) -> tuple[list, int]:
    """The received outer word voted for by (position, value) pairs, and
    the number of positions with conflicting votes.

    A position with exactly one voted value takes it; one with no vote or
    with conflicting votes is erased, since no vote there can be trusted.
    One pass: each position keeps its first value, and a later different
    value marks it as a clash; a repeated pair is no conflict.
    """
    word: list = [ERASED] * n
    clashes: set[int] = set()
    for i, v in pairs:
        w = word[i]
        if w is ERASED:
            word[i] = v
        elif w != v:
            clashes.add(i)
    for i in clashes:
        word[i] = ERASED
    return word, len(clashes)


def poly_eval(field: Field, coeffs: list[int], x: int) -> int:
    """Evaluate sum coeffs[i] * x^i by Horner's rule, from the top
    coefficient (0 for no coefficients), so the first step multiplies no
    zero: equal to Horner from 0 when every coefficient lies in the
    field."""
    if not coeffs:
        return 0
    add, mul = field.add, field.mul
    acc, *rest = reversed(coeffs)
    for c in rest:
        acc = add(mul(acc, x), c)
    return acc


def _check_length(what: str, seq, length: int) -> None:
    if len(seq) != length:
        raise LengthMismatch(f"{what} has {len(seq)} entries, not {length}")


def rs_encode(rs: RsParams, message) -> list[int]:
    """Evaluate the polynomial of the nprime message symbols at 0..n-1,
    each point by poly_eval's Horner from the top coefficient."""
    field = rs.field
    coeffs = [field._check(c) for c in message]
    _check_length("message", coeffs, rs.nprime)
    return [poly_eval(field, coeffs, x) for x in range(rs.n)]


def _poly_divmod(field: Field, num: list[int], den: list[int]):
    while den and den[-1] == 0:
        den = den[:-1]
    if not den:
        raise DecodeFailure("zero locator polynomial")
    mul, sub = field.mul, field.sub
    out = num[:]
    quo = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = field.inv(den[-1])
    for i in range(len(quo) - 1, -1, -1):
        c = mul(out[i + len(den) - 1], inv_lead)
        quo[i] = c
        if c != 0:
            for j, d in enumerate(den):
                out[i + j] = sub(out[i + j], mul(c, d))
    return quo, out[:len(den) - 1]


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


# Entries of one RsParams's decode memo; a full memo is cleared.  An entry
# is a received word and its outcome: a full memo of an n = 8 code takes
# under 1 MB.
_DECODE_MEMO = 4096

# Keys are (field, xs) with xs the unerased subset of the evaluation points
# 0..n-1: one per erasure pattern met, and always the same one for a word
# with no erasures.  256 entries hold every subset of an n = 8 code.
_INTERPOLATION_CACHE = 256


@lru_cache(maxsize=_INTERPOLATION_CACHE)
def _interpolation_data(field: Field, xs: tuple[int, ...]):
    """g0 = prod (X - x_i) and the Lagrange basis polynomials of the points
    xs, each scaled by its inverse denominator so that sum y_i * basis_i
    interpolates the values y_i.  Coefficients run low degree first."""
    g0 = [1]
    for x in xs:
        g0 = [field.sub(a, field.mul(x, b))
              for a, b in zip([0] + g0, g0 + [0])]
    bases = []
    for x in xs:
        quo, _ = _poly_divmod(field, g0, [field.neg(x), 1])
        scale = field.inv(poly_eval(field, quo, x))
        bases.append(tuple(field.mul(scale, c) for c in quo))
    return tuple(g0), tuple(bases)


def rs_decode_ee(rs: RsParams, received: list) -> list[int]:
    """Errors-and-erasures decode back to the nprime message coefficients.

    received holds one entry per evaluation point: a field value, or ERASED
    for an erasure.  Erased points are dropped, then Gao's algorithm corrects
    up to floor((n1 - nprime) / 2) errors among the n1 survivors: interpolate
    the survivors by g1, run the extended Euclidean algorithm on (g0, g1)
    only until the remainder r has 2 deg r < n1 + nprime, and divide r by its
    cofactor v of g1.  When g1 has degree < nprime it is returned before the
    loop: g1 passes through every survivor, so that degree holds exactly
    when the survivors lie on one codeword (no disagreement), and then the
    loop would take no step and divide g1 by v = 1.  g0 and the Lagrange
    basis depend only on the field and the surviving points, so they are
    cached.  Raises DecodeFailure when no codeword lies within that radius.

    Each outcome is also remembered in rs's memo, keyed on the received
    word, which holds at most _DECODE_MEMO words and is cleared when full: a
    repeated word gets a fresh list of the same coefficients, or a
    DecodeFailure with the same message, without decoding again.  A word of
    the wrong length is refused before the memo is read, and one holding a
    value outside the field (OutOfRange) is never remembered.
    """
    _check_length("received word", received, rs.n)
    memo = rs._decode_memo
    key = tuple(received)
    found = memo.get(key)
    if found is None:
        if len(memo) >= _DECODE_MEMO:
            memo.clear()
        try:
            found = memo[key] = tuple(_decode(rs, received))
        except DecodeFailure as exc:
            memo[key] = str(exc)
            raise
    elif type(found) is str:
        raise DecodeFailure(found)
    return list(found)


def _decode(rs: RsParams, received: list) -> list[int]:
    """rs_decode_ee without its memo: Gao's decoder on a received word of
    the right length."""
    field, nprime = rs.field, rs.nprime
    xs, ys = [], []
    for x, v in enumerate(received):
        if v is ERASED:
            continue
        xs.append(x)
        ys.append(field._check(v))
    n1 = len(xs)
    if n1 < nprime:
        raise DecodeFailure(f"only {n1} unerased points for {nprime} unknowns")
    e = (n1 - nprime) // 2

    g0, bases = _interpolation_data(field, tuple(xs))
    add, mul, sub = field.add, field.mul, field.sub
    g1 = [0] * n1
    for y, basis in zip(ys, bases):
        if y:
            for j, b in enumerate(basis):
                g1[j] = add(g1[j], mul(y, b))
    r0, r1 = list(g0), _trim(g1)
    if len(r1) <= nprime:
        return r1 + [0] * (nprime - len(r1))
    v0, v1 = [], [1]
    while 2 * (len(r1) - 1) >= n1 + nprime:
        quo, rem = _poly_divmod(field, r0, r1)
        prod = [0] * (len(quo) + len(v1) - 1)
        for i, a in enumerate(quo):
            for j, b in enumerate(v1):
                prod[i + j] = add(prod[i + j], mul(a, b))
        r0, r1 = r1, _trim(rem)
        v0, v1 = v1, _trim([sub(a, b) for a, b in
                            zip_longest(v0, prod, fillvalue=0)])
    coeffs, rem = _poly_divmod(field, r1, v1)
    if any(c != 0 for c in rem):
        raise DecodeFailure("error locator does not divide the numerator")
    if any(c != 0 for c in coeffs[nprime:]):
        raise DecodeFailure("quotient degree exceeds the message length")
    coeffs = (coeffs + [0] * nprime)[:nprime]
    t = sum(1 for x, y in zip(xs, ys) if poly_eval(field, coeffs, x) != y)
    if t > e:
        raise DecodeFailure(f"{t} disagreements exceed the radius {e}")
    return coeffs


def rs_list_recover_bruteforce(rs: RsParams, candidate_sets: list,
                               agree_threshold: int) -> list[tuple[int, ...]]:
    """All messages whose codeword hits the candidate set in at least
    agree_threshold positions.

    candidate_sets holds one collection of field values per evaluation point
    (empty for positions with no candidates).  Exhausts all q^nprime
    messages; raises GuardExceeded if that count passes LIST_GUARD.
    """
    field, n, nprime = rs.field, rs.n, rs.nprime
    _check_length("candidate list", candidate_sets, n)
    total = field.order**nprime
    if total > LIST_GUARD:
        raise GuardExceeded(f"{total} messages exceed the search guard {LIST_GUARD}")
    sets = [frozenset(s) for s in candidate_sets]
    found = []
    coeffs = [0] * nprime
    for idx in range(total):
        v = idx
        for i in range(nprime):
            coeffs[i] = v % field.order
            v //= field.order
        agree = sum(1 for x in range(n) if poly_eval(field, coeffs, x) in sets[x])
        if agree >= agree_threshold:
            found.append(tuple(coeffs))
    return found
