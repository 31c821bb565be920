"""Rational zeta functions: assembly, special values, Euler products."""

import random
from fractions import Fraction

import pytest

from fqzeta.errors import ValidationError, ZeroAfterCancellation
from fqzeta.lfun import (
    RationalFunction,
    _poly_divmod,
    _poly_gcd,
    abs_valuation_inverse,
    assemble,
    euler_product_series,
    leading_coefficient,
    pole_order_at,
    rational_series,
)
from fqzeta.polys import poly_mul, poly_trim

P1_FACTORS = {0: [1, -1], 2: [1, -5]}
ELLIPTIC_FACTORS = {0: [1, -1], 1: [1, 3, 5], 2: [1, -5]}


def _euclid_gcd(f, g):
    """Plain Euclid on non-monic divisors, normalised like _poly_gcd: the
    oracle for the monic-divisor version."""
    a, b = poly_trim(list(f)), poly_trim(list(g))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a and a[0] != 0:
        a = [c / a[0] for c in a]
    elif a:
        a = [c / a[-1] for c in a]
    return a


def test_rational_function_reduces():
    f = RationalFunction([1, 0, -1], [1, -1])     # (1-t^2)/(1-t)
    assert f.num == [Fraction(1), Fraction(1)]
    assert f.den == [Fraction(1)]


def test_rational_function_equality_across_presentation():
    a = RationalFunction([1, 1], [1])
    b = RationalFunction([2, 2], [2])
    assert a == b


def test_assemble_alternates_numerator_denominator():
    zeta = assemble(ELLIPTIC_FACTORS)
    assert zeta.num == [Fraction(1), Fraction(3), Fraction(5)]
    assert zeta.den == [Fraction(1), Fraction(-6), Fraction(5)]
    assert zeta.factors[1] == [Fraction(1), Fraction(3), Fraction(5)]
    assert assemble({}).num == [Fraction(1)]


def test_assemble_requires_unit_constant_term():
    with pytest.raises(ValidationError):
        assemble({0: [0, 1]})


def test_pole_orders_of_projective_line():
    zeta = assemble(P1_FACTORS)
    assert pole_order_at(zeta, 5, 0) == 1
    assert pole_order_at(zeta, 5, 1) == 1
    assert pole_order_at(zeta, 5, 2) == 0
    # a zero: the elliptic numerator at its own inverse root would be
    # negative; here test a manufactured zero
    f = RationalFunction([1, -5], [1])
    assert pole_order_at(f, 5, 1) == -1


def test_leading_coefficients_of_projective_line():
    zeta = assemble(P1_FACTORS)
    assert leading_coefficient(zeta, 5, 1, expected_order=1) == Fraction(5, 4)
    assert leading_coefficient(zeta, 5, 0, expected_order=1) == Fraction(-1, 4)


def test_leading_coefficients_of_elliptic_fixture():
    zeta = assemble(ELLIPTIC_FACTORS)
    assert leading_coefficient(zeta, 5, 1, expected_order=1) == Fraction(9, 4)
    assert leading_coefficient(zeta, 5, 0, expected_order=1) == Fraction(-9, 4)


def test_leading_coefficient_checks_expected_order():
    zeta = assemble(P1_FACTORS)
    with pytest.raises(ZeroAfterCancellation):
        leading_coefficient(zeta, 5, 1, expected_order=2)
    # without an expectation the actual limit is returned: zeta(1/25)
    assert leading_coefficient(zeta, 5, 2) == Fraction(125, 96)


def test_abs_valuation_inverse():
    assert abs_valuation_inverse(Fraction(9, 4), 5) == 1
    assert abs_valuation_inverse(Fraction(9, 4), 3) == 9
    assert abs_valuation_inverse(Fraction(9, 4), 2) == Fraction(1, 4)
    assert abs_valuation_inverse(Fraction(1, 9), 3) == Fraction(1, 9)
    with pytest.raises(ValidationError):
        abs_valuation_inverse(0, 5)


def test_euler_product_geometric_cases():
    # one rational point: 1/(1-t)
    assert euler_product_series({1: 1}, truncation=5) == \
        [Fraction(1)] * 6
    # two rational points: 1/(1-t)^2
    assert euler_product_series({1: 2}, truncation=4) == \
        [Fraction(k + 1) for k in range(5)]
    # a degree-1 and a degree-2 point: partitions with parts 1 and 2
    assert euler_product_series({1: 1, 2: 1}, truncation=5) == \
        [Fraction(v) for v in (1, 1, 2, 2, 3, 3)]


def test_euler_product_skips_degrees_beyond_truncation():
    assert euler_product_series({1: 1, 9: 100}, truncation=4) == \
        [Fraction(1)] * 5


def test_euler_product_rejects_bad_counts():
    with pytest.raises(ValidationError):
        euler_product_series({1: -1})
    with pytest.raises(ValidationError):
        euler_product_series({0: 3})


def test_euler_product_with_frobenius_twist():
    # a single point with fibre Frobenius [[5]]: 1/(1-5t)
    got = euler_product_series({1: 1}, truncation=4, frobenius=[[5]])
    assert got == [Fraction(5) ** k for k in range(5)]
    # rank-2 fibre at one point: 1/det(1 - t diag(1, 5))
    got2 = euler_product_series({1: 1}, truncation=3,
                                frobenius=[[1, 0], [0, 5]])
    expected = rational_series(RationalFunction([1], [1, -6, 5]), 3)
    assert got2 == expected


def test_rational_series_matches_euler_product_for_projective_line():
    zeta = assemble(P1_FACTORS)
    # closed points of P^1 over F_5 by degree (necklace counts)
    closed = {1: 6, 2: 10, 3: 40, 4: 150, 5: 624, 6: 2580, 7: 11160,
              8: 48750, 9: 217000, 10: 976248}
    assert rational_series(zeta, 10) == euler_product_series(closed, 10)


def test_degree_of_factor():
    zeta = assemble(ELLIPTIC_FACTORS)
    assert zeta.degree_of_factor(1) == 2
    assert zeta.degree_of_factor(0) == 1
    assert zeta.degree_of_factor(7) == 0


def test_gcd_matches_plain_euclid_oracle():
    rng = random.Random(21)

    def poly(degree):
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                  for _ in range(degree)]
        return coeffs + [Fraction(rng.choice([-3, -1, 1, 2, 5]))]

    for _ in range(60):
        common = poly(rng.randrange(0, 4))
        f = poly_mul(common, poly(rng.randrange(0, 5)))
        g = poly_mul(common, poly(rng.randrange(0, 5)))
        got = _poly_gcd(f, g)
        assert got == _euclid_gcd(f, g)
        # the planted factor divides the gcd
        assert _poly_divmod(got, common)[1] == []
