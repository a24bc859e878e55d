from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tensorcond.cyclo import CycloNum, cyclotomic_coeffs, euler_phi

from oracles import (cyclo_conjugate, cyclo_from_json, cyclo_one, cyclo_to_json, cyclo_zero,
                     dict_to_cyclo, expand_product, galois, integer_value, neg,
                     rational_value, root_of_unity, sub)

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 20]


def test_cyclotomic_polynomials_against_sympy():
    import sympy
    x = sympy.symbols("x")
    for n in range(1, 40):
        mine = cyclotomic_coeffs(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(mine) == [int(c) for c in theirs], f"Phi_{n} mismatch"


def test_minimal_polynomial_identities():
    z3 = root_of_unity(3)
    assert z3 + galois(z3, 2) == -1
    z4 = root_of_unity(4)
    assert z4 * z4 == -1
    z5 = root_of_unity(5)
    total = cyclo_zero(5)
    for k in range(1, 5):
        total = total + root_of_unity(5, k)
    assert total == -1
    assert total.is_rational()


def test_product_expansion_example():
    z5 = root_of_unity(5)
    lhs = (cyclo_one() + z5) * (cyclo_one() + root_of_unity(5, 4))
    rhs = dict_to_cyclo({0: Fraction(2), 1: Fraction(1), 4: Fraction(1)}, 5)
    assert lhs == rhs


def test_galois_action():
    z5 = root_of_unity(5)
    assert galois(z5, 2) == root_of_unity(5, 2)
    q = CycloNum.from_rational(Fraction(7, 3), 5)
    assert galois(q, 3) == q
    z3 = root_of_unity(3)
    assert galois(z3 + galois(z3, 2), 2) == -1
    with pytest.raises(ValueError):
        galois(z5.promote(10), 5)


def test_is_rational():
    z3 = root_of_unity(3)
    assert (z3 + z3 * z3).is_rational()
    assert not root_of_unity(8).is_rational()
    assert CycloNum.from_rational(Fraction(3, 7)).is_rational()


def test_trace_of_prime_root_is_minus_one():
    for p in (3, 5, 7, 11):
        z = root_of_unity(p)
        total = cyclo_zero(p)
        for k in range(1, p):
            if gcd(k, p) == 1:
                total = total + galois(z, k)
        assert total == -1


def test_cross_conductor_equality():
    z3_at_3 = root_of_unity(3)
    z3_at_6 = root_of_unity(6, 2)
    assert z3_at_3 == z3_at_6
    assert z3_at_3.promote(12) == z3_at_6.promote(12)


def test_serialization_roundtrip():
    x = root_of_unity(8, 3).scale(Fraction(2, 3)) + 1
    doc = cyclo_to_json(x)
    assert doc["N"] == 8
    assert cyclo_from_json(doc) == x


def test_integral_coefficients_are_stored_as_int():
    halves = CycloNum(5, [Fraction(4, 2), 1, Fraction(-3, 3), Fraction(0, 7)])
    ints = CycloNum(5, [2, 1, -1, 0])
    assert halves == ints
    assert cyclo_to_json(halves) == cyclo_to_json(ints)
    assert all(type(c) is int for c in halves.coeffs)
    half = CycloNum.from_rational(Fraction(1, 2), 5)
    assert type(half.coeffs[0]) is Fraction
    assert all(type(c) is int for c in (half + half).coeffs)
    assert all(type(c) is int for c in (half * 4).coeffs)


def test_rational_value_is_a_fraction():
    three = CycloNum.from_rational(3, 4)
    assert type(rational_value(three)) is Fraction
    assert type(rational_value(three) / 2) is Fraction
    assert integer_value(three) == 3


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        CycloNum(3, [0.5, 0])
    with pytest.raises(TypeError):
        CycloNum(3, [1, 2.0])
    with pytest.raises(TypeError):
        CycloNum.from_rational(1.0)
    with pytest.raises(TypeError):
        cyclo_one(3).scale(0.5)
    with pytest.raises(TypeError):
        cyclo_one(3) * 0.5
    with pytest.raises(TypeError):
        cyclo_one(3) + 0.5


small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyclo_numbers(draw, conductors=CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(small_rational, min_size=euler_phi(n),
                           max_size=euler_phi(n)))
    return CycloNum(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), cyclo_numbers(), cyclo_numbers())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + cyclo_zero() == x
    assert x * cyclo_one() == x
    assert x + neg(x) == cyclo_zero()
    assert sub(x, y) == x + neg(y)
    assert sub(x, 1) == x + (-1) and sub(1, x) == neg(x) + 1


@settings(max_examples=60, deadline=None)
@given(cyclo_numbers(), cyclo_numbers(), st.integers(min_value=1, max_value=40))
def test_galois_is_an_automorphism(x, y, k):
    xp, yp = x._pair(y)
    if gcd(k, xp.N) != 1:
        k = 1
    assert galois(xp + yp, k) == galois(xp, k) + galois(yp, k)
    assert galois(xp * yp, k) == galois(xp, k) * galois(yp, k)


@settings(max_examples=50, deadline=None)
@given(cyclo_numbers())
def test_product_against_expansion_oracle(x):
    # represent x and its square as exponent dictionaries and convolve
    n = x.N
    as_dict = {}
    for i, c in enumerate(x.coeffs):
        if c:
            as_dict[i] = c
    prod = expand_product(as_dict, as_dict, n)
    assert x * x == dict_to_cyclo(prod, n)


def test_conjugate_is_inverse_root():
    z8 = root_of_unity(8)
    assert cyclo_conjugate(z8) == root_of_unity(8, 7)
    assert (z8 * cyclo_conjugate(z8)) == 1


@settings(max_examples=40, deadline=None)
@given(cyclo_numbers(), st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30))
def test_galois_composition(x, j, k):
    if gcd(j, x.N) != 1:
        j = 1
    if gcd(k, x.N) != 1:
        k = 1
    assert galois(galois(x, j), k) == galois(x, j * k % x.N if x.N > 1 else 1)
