"""The shared kernels: square-and-multiply, matrix product, Kronecker product."""

import random
from fractions import Fraction

import pytest

from fqzeta.padics import (FiniteField, QqContext, _mulmod, _powmod,
                           minimal_polynomial)
from fqzeta.plinalg import mat_equal
from fqzeta.polys import (kron, mat_mul, mat_pow_fractions, poly_mul,
                          poly_mul_trunc, poly_pow, poly_pow_trunc)

PRIMES_AND_DEGREES = [(p, a) for p in (2, 3, 5, 7) for a in (1, 2, 3)]


def _rings(p, a, rng):
    """(name, x, mul, one, pow_fn) for the five rings `power` serves, where
    pow_fn is the library's power in that ring, built on `power`."""
    m = minimal_polynomial(p, a)
    cap = p ** 4
    field = FiniteField(p, a)
    order = 6
    n = 2
    yield ("(Z/p^4)[x]/(m)", [rng.randrange(cap) for _ in range(a)],
           lambda u, v: _mulmod(u, v, m, cap), [1] + [0] * (a - 1),
           lambda u, e: _powmod(u, e, m, cap))
    yield ("F_{p^a}", tuple(rng.randrange(p) for _ in range(a)),
           field.mul, field.one, field.pow)
    yield ("Fraction polynomials",
           [Fraction(rng.randrange(-p, p + 1)) for _ in range(2)],
           poly_mul, [Fraction(1)], poly_pow)
    yield ("truncated polynomials",
           [Fraction(rng.randrange(-p, p + 1), p) for _ in range(a + 3)],
           lambda f, g: poly_mul_trunc(f, g, order), [Fraction(1)],
           lambda f, e: poly_pow_trunc(f, e, order))
    yield ("rational matrices",
           [[Fraction(rng.randrange(-3, 4), p) for _ in range(n)]
            for _ in range(n)],
           mat_mul,
           [[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
           mat_pow_fractions)


@pytest.mark.parametrize("p,a", PRIMES_AND_DEGREES)
def test_power_matches_repeated_multiplication(p, a):
    rng = random.Random(100 * p + a)
    for name, x, mul, one, pow_fn in _rings(p, a, rng):
        expected = one
        for e in range(41):
            assert pow_fn(x, e) == expected, (name, e)
            expected = mul(expected, x)


def _shapes(rng):
    """Sizes for A (m x n), C (n x k), B (r x s), D (s x t)."""
    return [rng.randrange(1, 4) for _ in range(6)]


def test_kron_mixed_product_rule_over_fractions():
    rng = random.Random(8)
    for _ in range(20):
        m, n, k, r, s, t = _shapes(rng)

        def mat(rows, cols):
            return [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                     for _ in range(cols)] for _ in range(rows)]

        A, C, B, D = mat(m, n), mat(n, k), mat(r, s), mat(s, t)
        assert mat_mul(kron(A, B), kron(C, D)) == \
            kron(mat_mul(A, C), mat_mul(B, D))


def test_kron_mixed_product_rule_over_zq():
    rng = random.Random(9)
    for p, a in ((2, 1), (3, 2), (5, 3), (7, 1)):
        ctx = QqContext(p, a, prec=16)
        for _ in range(5):
            m, n, k, r, s, t = _shapes(rng)

            def mat(rows, cols):
                return [[ctx.from_vector(
                    [rng.randrange(p ** 3) for _ in range(a)],
                    val=rng.randrange(-1, 2)) for _ in range(cols)]
                    for _ in range(rows)]

            A, C, B, D = mat(m, n), mat(n, k), mat(r, s), mat(s, t)
            assert mat_equal(mat_mul(kron(A, B), kron(C, D)),
                             kron(mat_mul(A, C), mat_mul(B, D)))
