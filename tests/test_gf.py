"""Field arithmetic checks, exhaustive at small orders."""

import pytest
from hypothesis import given, strategies as st

from delcodes.errors import DivisionByZero, FieldMismatch, NotPrimePower, OutOfRange
from delcodes.gf import FieldElem, make_field

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 31, 32, 64]


def test_prime_power_detection():
    for q in SMALL_ORDERS:
        assert make_field(q).order == q
    for q in [1, 6, 10, 12, 14, 15, 18, 20, 100]:
        with pytest.raises(NotPrimePower):
            make_field(q)
    # odd prime powers are outside the supported representation
    for q in [9, 25, 27, 49]:
        with pytest.raises(NotPrimePower):
            make_field(q)


def test_gf4_reduction_polynomial_is_x2_x_1():
    f = make_field(4)
    assert f.reduction_poly == (1, 1, 1)
    # alpha * alpha = alpha + 1 under x^2 = x + 1, alpha encoded as 0b10
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1


def test_prime_field_is_mod_arithmetic():
    f = make_field(11)
    assert f.reduction_poly is None
    assert f.add(7, 8) == 4
    assert f.mul(7, 8) == 1
    assert f.inv(7) == 8
    assert make_field(5).mul(2, 3) == 1
    assert make_field(5).inv(2) == 3
    assert make_field(5).inv(1) == 1


@pytest.mark.parametrize("q", [q for q in SMALL_ORDERS if q <= 16])
def test_field_axioms_exhaustive(q):
    f = make_field(q)
    elems = list(range(q))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, a) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("q", [32, 64, 101, 127, 128, 251, 256])
def test_inverse_exhaustive_up_to_256(q):
    f = make_field(q)
    for a in range(1, q):
        assert (f.elem(a) * f.elem(a).inv()).value == 1


@pytest.mark.parametrize("q", [4, 8, 16, 32])
def test_binary_extension_characteristic_two(q):
    f = make_field(q)
    assert f.characteristic == 2
    for a in range(q):
        assert f.add(a, a) == 0
        assert f.sub(0, a) == a


@pytest.mark.parametrize("q", [7, 8, 16, 17, 32, 64])
def test_element_orders_divide_group_order(q):
    f = make_field(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1
        # the order itself divides q - 1
        order = 1
        x = a
        while x != 1:
            x = f.mul(x, a)
            order += 1
        assert (q - 1) % order == 0


def test_division_by_zero():
    f = make_field(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)
    with pytest.raises(DivisionByZero):
        f.elem(0).inv()


def test_elem_validates_range():
    f = make_field(5)
    with pytest.raises(OutOfRange):
        f.elem(5)
    with pytest.raises(OutOfRange):
        f.elem(-1)


def test_elem_operators_and_field_mismatch():
    f = make_field(16)
    g = make_field(5)
    a, b = f.elem(4), f.elem(7)
    assert isinstance(a + b, FieldElem)
    assert (a * b).field is f
    assert (a / b) * b == a
    assert -a + a == f.elem(0)
    assert (a ** 3) == a * a * a
    with pytest.raises(FieldMismatch):
        a * g.elem(1)


def test_make_field_is_cached():
    assert make_field(16) is make_field(16)


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_gf32_associativity_random(a, b, c):
    f = make_field(32)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@given(st.sampled_from([4, 8, 16, 64]), st.data())
def test_frobenius_is_additive(q, data):
    # x -> x^2 respects addition in characteristic 2
    f = make_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    assert f.pow(f.add(a, b), 2) == f.add(f.pow(a, 2), f.pow(b, 2))


@given(st.sampled_from([5, 13, 16, 32]), st.data())
def test_pow_matches_repeated_multiplication(q, data):
    f = make_field(q)
    a = data.draw(st.integers(1, q - 1))
    e = data.draw(st.integers(0, 12))
    acc = 1
    for _ in range(e):
        acc = f.mul(acc, a)
    assert f.pow(a, e) == acc
    assert f.pow(a, -e) == f.inv(acc)
