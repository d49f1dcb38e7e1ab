"""Finite fields: prime fields GF(p) and binary extension fields GF(2^w).

Elements are plain integers in [0, order).  For GF(2^w) the integer is the
coefficient bitmask of a polynomial over GF(2), bit i holding the coefficient
of x^i, reduced modulo a fixed irreducible polynomial.  The reduction
polynomial is chosen deterministically: the irreducible monic polynomial of
degree w whose coefficient bitmask is smallest, so two runs (or two machines)
always agree on the arithmetic.

make_field builds fields of at most 2^16 elements, prime or 2-power: every
spec holds n * q inner codewords, so none can build past that, and under
the cap the plain algorithms are exact and fast.  Primes are found by trial
division and use modular operations.  GF(2^w) multiplies, inverts, divides
and raises to powers through log/antilog tables over the smallest primitive
element, found by its period; the tables hold at most 2 * 2^16 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import DivisionByZero, NotPrimePower, OutOfRange

# The most elements a field make_field builds may have.
_MAX_ORDER = 1 << 16


def _is_prime(n: int) -> bool:
    # Trial division: under _MAX_ORDER no divisor past 256 is tried.
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


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
    for g in range(2, n + 1):
        # g is primitive when its powers run through all n nonzero
        # elements before they return to 1; those powers are the table.
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = _poly_mulmod(x, g, f)
        if len(exp) == n:
            break
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

    @cached_property
    def _elems(self) -> dict[int, FieldElem]:
        """Value -> its one FieldElem, filled by elem."""
        return {}

    def elem(self, v: int) -> FieldElem:
        """The element of value v, one cached FieldElem per value: v is
        checked before anything is cached, so the cache holds at most
        order entries."""
        found = self._elems.get(v)
        if found is None:
            found = self._elems[v] = FieldElem(self._check(v), self)
        return found


@dataclass(frozen=True)
class FieldElem:
    """An element of a Field: its value and the field it lies in."""

    value: int
    field: Field

    def __repr__(self):
        return f"GF({self.field.order})[{self.value}]"


@lru_cache(maxsize=None)
def make_field(order: int) -> Field:
    """Build GF(order) for a prime or 2-power order under the one cap of
    2^16, checked first: primes by trial division, GF(2^w) with tables
    over the primitive element found by its period."""
    if not 2 <= order <= _MAX_ORDER:
        raise NotPrimePower(
            f"field order must lie in [2, {_MAX_ORDER}], got {order}")
    if _is_prime(order):
        return Field(order)
    if order & (order - 1) == 0:
        w = order.bit_length() - 1
        return Field(order, *_log_tables(w, _reduction_poly(w)))
    raise NotPrimePower(f"{order} is neither prime nor a power of 2")
