"""The shared kernels: square-and-multiply, matrix product, Kronecker product,
and the power-sum Kunneth product `tensor_poly` against Berkowitz."""

import random
from fractions import Fraction

import pytest

from fqzeta.errors import ValidationError
from fqzeta.padics import (FiniteField, QqContext, _mulmod, _powmod,
                           minimal_polynomial)
from fqzeta.plinalg import mat_equal
from fqzeta.polys import (companion_of_reversed, kron, mat_mul,
                          mat_pow_fractions, poly_mul, poly_mul_trunc,
                          poly_pow, poly_pow_trunc, rev_charpoly_fractions,
                          tensor_poly)

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


def tensor_poly_berkowitz(P, Q):
    """Oracle: det(1 - t*(C_P (x) C_Q)) by Berkowitz on the Kronecker product
    of the companion matrices, O((mn)^4)."""
    CP = companion_of_reversed(P)
    CQ = companion_of_reversed(Q)
    if not CP or not CQ:
        return [Fraction(1)]
    return rev_charpoly_fractions(kron(CP, CQ))


def _random_unit_poly(rng, d):
    """1 + c_1 t + ... + c_d t^d with integer or Fraction entries (as after
    a Tate twist or a rational twist), sometimes with trailing zeros."""
    if rng.random() < 0.5:
        coeffs = [rng.randrange(-9, 10) for _ in range(d)]
    else:
        coeffs = [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 5, 25)))
                  for _ in range(d)]
    return [1] + coeffs + [0] * rng.choice((0, 0, 1, 2))


def test_tensor_poly_matches_berkowitz_on_kron():
    """Degrees 0-6 on each side.  The oracle costs O((mn)^4): 6 (x) 6 alone
    takes about 2 s, so the random pairs keep mn <= 12, and three fixed
    pairs reach mn = 18 and 20."""
    rng = random.Random(10)
    degrees = [(3, 6), (6, 3), (4, 5)]
    while len(degrees) < 240:
        m = rng.randrange(7)
        degrees.append((m, rng.randrange(min(6, 12 // max(m, 1)) + 1)))
    for m, n in degrees:
        P, Q = _random_unit_poly(rng, m), _random_unit_poly(rng, n)
        got = tensor_poly(P, Q)
        assert got == tensor_poly_berkowitz(P, Q), (P, Q)
        assert all(isinstance(c, Fraction) for c in got)


def test_tensor_poly_degree_and_zeta_of_products():
    E = [1, 3, 5]                               # a_5 = -3 over F_5
    assert tensor_poly(E, [1]) == [1]
    assert tensor_poly([1, 0, 0], E) == [1]     # degree 0 after trimming
    assert tensor_poly([1, -1], E) == E         # tensoring with the unit root
    assert len(tensor_poly(E, E)) == 5
    assert tensor_poly([1, -2], [1, Fraction(-1, 3)]) == [1, Fraction(-2, 3)]


@pytest.mark.parametrize("bad", ([], [0], [2, 1], [0, 1], [Fraction(1, 2)]))
def test_tensor_poly_refuses_constant_term_other_than_one(bad):
    for P, Q in ((bad, [1, 3, 5]), ([1, 3, 5], bad), (bad, [1])):
        for route in (tensor_poly, tensor_poly_berkowitz):
            with pytest.raises(ValidationError,
                               match="expected constant term 1"):
                route(P, Q)
