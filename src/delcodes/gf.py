"""Finite fields: prime fields GF(p) and binary extension fields GF(2^w).

Elements are plain integers in [0, order).  For GF(2^w) the integer is the
coefficient bitmask of a polynomial over GF(2), bit i holding the coefficient
of x^i, reduced modulo a fixed irreducible polynomial.  The reduction
polynomial is chosen deterministically: the irreducible monic polynomial of
degree w whose coefficient bitmask is smallest, so two runs (or two machines)
always agree on the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DivisionByZero, FieldMismatch, NotPrimePower, OutOfRange

_MAX_EXT_DEGREE = 32

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


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
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


def _is_irreducible(f: int, w: int) -> bool:
    # Rabin's test: x^(2^w) == x mod f, and for every prime divisor p of w
    # gcd(x^(2^(w/p)) - x, f) must be trivial.
    x = 0b10
    if _poly_powmod(x, 1 << w, f) != _poly_mod(x, f):
        return False
    for p in _prime_factors(w):
        h = _poly_powmod(x, 1 << (w // p), f) ^ _poly_mod(x, f)
        if _poly_deg(_poly_gcd(f, h)) > 0:
            return False
    return True


@lru_cache(maxsize=None)
def _reduction_poly(w: int) -> int:
    for low in range(1 << w):
        f = (1 << w) | low
        if _is_irreducible(f, w):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {w}")


@dataclass(frozen=True)
class Field:
    """A finite field of prime or 2-power order.

    reduction_poly is the coefficient tuple (low degree first) of the modulus
    for extension fields, and None for prime fields.
    """

    order: int
    characteristic: int
    degree: int
    reduction_poly: tuple[int, ...] | None
    _poly_int: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.reduction_poly is not None:
            mask = 0
            for i, c in enumerate(self.reduction_poly):
                if c:
                    mask |= 1 << i
            object.__setattr__(self, "_poly_int", mask)

    @property
    def is_binary_ext(self) -> bool:
        return self.reduction_poly is not None

    def _check(self, v: int) -> int:
        if not 0 <= v < self.order:
            raise OutOfRange(f"value {v} not in [0, {self.order})")
        return v

    def add(self, a: int, b: int) -> int:
        if self.is_binary_ext:
            return a ^ b
        return (a + b) % self.order

    def sub(self, a: int, b: int) -> int:
        if self.is_binary_ext:
            return a ^ b
        return (a - b) % self.order

    def neg(self, a: int) -> int:
        if self.is_binary_ext:
            return a
        return (-a) % self.order

    def mul(self, a: int, b: int) -> int:
        if self.is_binary_ext:
            return _poly_mod(_poly_mul(a, b), self._poly_int)
        return a * b % self.order

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.is_binary_ext:
            return _poly_powmod(a, self.order - 2, self._poly_int)
        return pow(a, self.order - 2, self.order)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.is_binary_ext:
            return _poly_powmod(a, e, self._poly_int)
        return pow(a, e, self.order)

    def elem(self, v: int) -> FieldElem:
        return FieldElem(self._check(v), self)


@dataclass(frozen=True)
class FieldElem:
    """An element of a Field, supporting the usual operators."""

    value: int
    field: Field

    def _same(self, other: FieldElem) -> FieldElem:
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(
                f"elements of GF({self.field.order}) and GF({other.field.order})"
            )
        return other

    def __add__(self, other):
        other = self._same(other)
        return FieldElem(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other):
        other = self._same(other)
        return FieldElem(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other):
        other = self._same(other)
        return FieldElem(self.field.mul(self.value, other.value), self.field)

    def __truediv__(self, other):
        other = self._same(other)
        return FieldElem(self.field.div(self.value, other.value), self.field)

    def __neg__(self):
        return FieldElem(self.field.neg(self.value), self.field)

    def inv(self) -> FieldElem:
        return FieldElem(self.field.inv(self.value), self.field)

    def __pow__(self, e: int):
        return FieldElem(self.field.pow(self.value, e), self.field)

    def __repr__(self):
        return f"GF({self.field.order})[{self.value}]"


@lru_cache(maxsize=None)
def make_field(order: int) -> Field:
    """Build GF(order) for a prime order or order = 2^w with 1 <= w <= 32."""
    if order < 2:
        raise NotPrimePower(f"field order must be at least 2, got {order}")
    if _is_prime(order):
        return Field(order, order, 1, None)
    if order & (order - 1) == 0:
        w = order.bit_length() - 1
        if w > _MAX_EXT_DEGREE:
            raise NotPrimePower(f"2^{w} exceeds the supported extension degree")
        f = _reduction_poly(w)
        coeffs = tuple((f >> i) & 1 for i in range(w + 1))
        return Field(order, 2, w, coeffs)
    raise NotPrimePower(f"{order} is neither prime nor a supported power of 2")
