"""Reed-Solomon outer code over an explicit finite field.

Messages are coefficient vectors of polynomials of degree < nprime; the
codeword is the evaluation at the points 0, 1, ..., n - 1.  Decoding handles
erasures (None entries) by restriction and errors by Berlekamp-Welch: with r
erasures and t errors, recovery is guaranteed whenever r + 2t <= n - nprime.

rs_list_recover_bruteforce searches all q^nprime messages for codewords that
agree with per-position candidate sets often enough; it exists to make small
list-decoding experiments exact, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DecodeFailure, FieldMismatch, GuardExceeded, LengthMismatch, OutOfRange
from .gf import Field, FieldElem

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


def _as_value(field: Field, v) -> int:
    if isinstance(v, FieldElem):
        if v.field is not field:
            raise FieldMismatch("element from a different field")
        return v.value
    return field._check(int(v))


def candidate_sets(pairs, n: int) -> list[set[int]]:
    """The values voted for at each of the positions 0..n-1 by (position,
    value) pairs; every position must lie below n."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, v in pairs:
        sets[i].add(v)
    return sets


def outer_word(pairs, n: int) -> tuple[list, int]:
    """The received outer word voted for by (position, value) pairs, and
    the number of positions with conflicting votes.

    A position with exactly one voted value takes it; one with no vote or
    with conflicting votes is erased, since no vote there can be trusted.
    """
    sets = candidate_sets(pairs, n)
    conflicts = sum(1 for vs in sets if len(vs) > 1)
    word = [next(iter(vs)) if len(vs) == 1 else ERASED for vs in sets]
    return word, conflicts


def poly_eval(field: Field, coeffs: list[int], x: int) -> int:
    """Evaluate sum coeffs[i] * x^i by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def rs_encode(field: Field, message, n: int) -> list[FieldElem]:
    """Evaluate the message polynomial at 0..n-1.  Requires n <= field order
    so the evaluation points stay distinct."""
    if not 1 <= n <= field.order:
        raise OutOfRange(f"block length {n} must lie in [1, {field.order}]")
    coeffs = [_as_value(field, c) for c in message]
    if not 1 <= len(coeffs) <= n:
        raise LengthMismatch(
            f"message length {len(coeffs)} must lie in [1, {n}]"
        )
    return [field.elem(poly_eval(field, coeffs, x)) for x in range(n)]


def _nullspace_vector(field: Field, rows: list[list[int]], ncols: int) -> list[int]:
    # Row-reduce and back-substitute one free variable; caller guarantees
    # ncols exceeds the row rank so a nonzero solution exists.
    mat = [row[:] for row in rows]
    pivot_col_of_row: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(inv, v) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [field.sub(a, field.mul(f, b))
                          for a, b in zip(mat[i], mat[r])]
        pivot_col_of_row.append(c)
        r += 1
        if r == len(mat):
            break
    pivots = set(pivot_col_of_row)
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    sol = [0] * ncols
    sol[free] = 1
    for row_i, pc in enumerate(pivot_col_of_row):
        sol[pc] = field.neg(mat[row_i][free])
    return sol


def _poly_divmod(field: Field, num: list[int], den: list[int]):
    while den and den[-1] == 0:
        den = den[:-1]
    if not den:
        raise DecodeFailure("zero locator polynomial")
    out = num[:]
    quo = [0] * max(len(num) - len(den) + 1, 0)
    inv_lead = field.inv(den[-1])
    for i in range(len(quo) - 1, -1, -1):
        c = field.mul(out[i + len(den) - 1], inv_lead)
        quo[i] = c
        if c != 0:
            for j, d in enumerate(den):
                out[i + j] = field.sub(out[i + j], field.mul(c, d))
    return quo, out[:len(den) - 1]


def rs_decode_ee(field: Field, received: list, nprime: int) -> list[FieldElem]:
    """Errors-and-erasures decode back to the nprime message coefficients.

    received holds one entry per evaluation point: a field element, or None
    for an erasure.  Erased points are dropped, then Berlekamp-Welch corrects
    up to floor((n1 - nprime) / 2) errors among the n1 survivors.  Raises
    DecodeFailure when no codeword lies within that radius.
    """
    n = len(received)
    if not 1 <= nprime <= n:
        raise OutOfRange(f"message length {nprime} must lie in [1, {n}]")
    if n > field.order:
        raise OutOfRange(f"block length {n} exceeds field order {field.order}")
    xs, ys = [], []
    for x, v in enumerate(received):
        if v is ERASED:
            continue
        xs.append(x)
        ys.append(_as_value(field, v))
    n1 = len(xs)
    if n1 < nprime:
        raise DecodeFailure(f"only {n1} unerased points for {nprime} unknowns")
    e = (n1 - nprime) // 2

    # Unknowns: Q of degree < e + nprime, then E of degree <= e.
    nq = e + nprime
    ncols = nq + e + 1
    rows = []
    for x, y in zip(xs, ys):
        row = []
        xp = 1
        for _ in range(nq):
            row.append(xp)
            xp = field.mul(xp, x)
        xp = 1
        for _ in range(e + 1):
            row.append(field.neg(field.mul(y, xp)))
            xp = field.mul(xp, x)
        rows.append(row)
    sol = _nullspace_vector(field, rows, ncols)
    if sol is None:
        raise DecodeFailure("no codeword within the correction radius")
    q_poly = sol[:nq]
    e_poly = sol[nq:]
    coeffs, rem = _poly_divmod(field, q_poly, e_poly)
    if any(c != 0 for c in rem):
        raise DecodeFailure("error locator does not divide the numerator")
    if any(c != 0 for c in coeffs[nprime:]):
        raise DecodeFailure("quotient degree exceeds the message length")
    coeffs = (coeffs + [0] * nprime)[:nprime]
    t = sum(1 for x, y in zip(xs, ys) if poly_eval(field, coeffs, x) != y)
    if t > e:
        raise DecodeFailure(f"{t} disagreements exceed the radius {e}")
    return [field.elem(c) for c in coeffs]


def rs_list_recover_bruteforce(field: Field, candidate_sets: list, nprime: int,
                               agree_threshold: int) -> list[tuple]:
    """All messages whose codeword hits the candidate set in at least
    agree_threshold positions.

    candidate_sets holds one collection of field values per evaluation point
    (empty for positions with no candidates).  Exhausts all q^nprime
    messages; raises GuardExceeded if that count passes LIST_GUARD.
    """
    n = len(candidate_sets)
    if not 1 <= nprime <= n:
        raise OutOfRange(f"message length {nprime} must lie in [1, {n}]")
    if n > field.order:
        raise OutOfRange(f"block length {n} exceeds field order {field.order}")
    total = field.order**nprime
    if total > LIST_GUARD:
        raise GuardExceeded(f"{total} messages exceed the search guard {LIST_GUARD}")
    sets = [frozenset(_as_value(field, v) for v in s) for s in candidate_sets]
    found = []
    coeffs = [0] * nprime
    for idx in range(total):
        v = idx
        for i in range(nprime):
            coeffs[i] = v % field.order
            v //= field.order
        agree = sum(1 for x in range(n) if poly_eval(field, coeffs, x) in sets[x])
        if agree >= agree_threshold:
            found.append(tuple(field.elem(c) for c in coeffs))
    return found
