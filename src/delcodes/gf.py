"""Finite fields: prime fields GF(p) and binary extension fields GF(2^w).

Elements are plain integers in [0, order).  For GF(2^w) the integer is the
coefficient bitmask of a polynomial over GF(2), bit i holding the coefficient
of x^i, reduced modulo a fixed irreducible polynomial.  The reduction
polynomial is chosen deterministically: the irreducible monic polynomial of
degree w whose coefficient bitmask is smallest, so two runs (or two machines)
always agree on the arithmetic.

make_field picks the arithmetic once per field.  Prime fields use plain
modular operations.  GF(2^w) multiplies, inverts, divides and raises to
powers through log/antilog tables over the smallest primitive element, built
with the polynomial arithmetic below; w is capped at 16, so the tables hold
at most 2 * 2^16 entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DivisionByZero, NotPrimePower, OutOfRange

_MAX_EXT_DEGREE = 16

# Witnesses sufficient for deterministic Miller-Rabin below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_deg(a: int) -> int:
    return a.bit_length() - 1


def _poly_mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, f: int) -> int:
    df = _poly_deg(f)
    while _poly_deg(a) >= df:
        a ^= f << (_poly_deg(a) - df)
    return a


def _poly_mulmod(a: int, b: int, f: int) -> int:
    return _poly_mod(_poly_mul(a, b), f)


def _poly_powmod(a: int, e: int, f: int) -> int:
    r = 1
    a = _poly_mod(a, f)
    while e:
        if e & 1:
            r = _poly_mulmod(r, a, f)
        a = _poly_mulmod(a, a, f)
        e >>= 1
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _reduction_poly(w: int) -> int:
    # The least irreducible f of degree w, by trial division: no polynomial
    # of degree 1 to w // 2 divides it.
    for low in range(1 << w):
        f = (1 << w) | low
        if all(_poly_mod(f, g) for g in range(2, 1 << (w // 2 + 1))):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {w}")


def _log_tables(w: int, f: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Antilog and log tables of GF(2^w) modulo f.

    exp[i] = g^i for the smallest primitive element g, listed twice over so
    that exp[log[a] + log[b]] needs no reduction; log[exp[i]] = i for
    i < 2^w - 1, and log[0] is unused.
    """
    n = (1 << w) - 1
    factors = _prime_factors(n)
    g = next(g for g in range(2, n + 1)
             if all(_poly_powmod(g, n // p, f) != 1 for p in factors))
    exp = [1]
    for _ in range(n - 1):
        exp.append(_poly_mulmod(exp[-1], g, f))
    log = [0] * (n + 1)
    for i, a in enumerate(exp):
        log[a] = i
    return tuple(exp * 2), tuple(log)


@dataclass(frozen=True)
class Field:
    """A finite field of prime or 2-power order.

    _exp and _log are the antilog and log tables of GF(2^w), None for prime
    fields; each method picks its arithmetic by that one attribute.
    """

    order: int
    _exp: tuple[int, ...] | None = field(default=None, repr=False,
                                         compare=False)
    _log: tuple[int, ...] | None = field(default=None, repr=False,
                                         compare=False)

    def _check(self, v: int) -> int:
        if not 0 <= v < self.order:
            raise OutOfRange(f"value {v} not in [0, {self.order})")
        return v

    def add(self, a: int, b: int) -> int:
        if self._log is None:
            return (a + b) % self.order
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self._log is None:
            return (a - b) % self.order
        return a ^ b

    def neg(self, a: int) -> int:
        if self._log is None:
            return (-a) % self.order
        return a

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            return a * b % self.order
        if a and b:
            return self._exp[log[a] + log[b]]
        return 0

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        log = self._log
        if log is None:
            return pow(a, self.order - 2, self.order)
        return self._exp[self.order - 1 - log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        log = self._log
        if log is None:
            return pow(a, e, self.order)
        if a == 0:
            return 0 if e else 1
        return self._exp[log[a] * e % (self.order - 1)]

    def elem(self, v: int) -> FieldElem:
        return FieldElem(self._check(v), self)


@dataclass(frozen=True)
class FieldElem:
    """An element of a Field: its value and the field it lies in."""

    value: int
    field: Field

    def __repr__(self):
        return f"GF({self.field.order})[{self.value}]"


@lru_cache(maxsize=None)
def make_field(order: int) -> Field:
    """Build GF(order) for a prime order or order = 2^w with 1 <= w <= 16."""
    if order < 2:
        raise NotPrimePower(f"field order must be at least 2, got {order}")
    if _is_prime(order):
        return Field(order)
    if order & (order - 1) == 0:
        w = order.bit_length() - 1
        if w > _MAX_EXT_DEGREE:
            raise NotPrimePower(f"2^{w} exceeds the supported extension degree")
        return Field(order, *_log_tables(w, _reduction_poly(w)))
    raise NotPrimePower(f"{order} is neither prime nor a supported power of 2")
