"""The shared kernels: square-and-multiply, matrix product, Kronecker product,
the Hessenberg characteristic polynomial and the power-sum Kunneth product
`tensor_poly`, both against Berkowitz's division-free algorithm."""

import random
from fractions import Fraction

import pytest

from fqzeta.errors import ValidationError
from fqzeta.isocrystals import Isocrystal
from fqzeta.lfun import RationalFunction, rational_series
from fqzeta.padics import (FiniteField, QqContext, _mulmod, _powmod,
                           minimal_polynomial)
from fqzeta.polys import (_unit_constant, from_power_sums, kron, mat_mul,
                          mat_pow_fractions, poly_mul, power, power_sums,
                          rev_charpoly_fractions, tensor_poly)
from matrix_oracles import mat_equal
from test_lfun import poly_mul_trunc, poly_pow_trunc

PRIMES_AND_DEGREES = [(p, a) for p in (2, 3, 5, 7) for a in (1, 2, 3)]


def _rings(p, a, rng):
    """(name, x, mul, one, pow_fn) for five rings, where pow_fn is built on
    `power`: the library's power in that ring where it has one."""
    m = minimal_polynomial(p, a)
    cap = p ** 4
    field = FiniteField(p, a)
    order = 6
    n = 2
    yield ("(Z/p^4)[x]/(m)", [rng.randrange(cap) for _ in range(a)],
           lambda u, v: _mulmod(u, v, m, cap), [1] + [0] * (a - 1),
           lambda u, e: _powmod(u, e, m, cap))
    yield ("F_{p^a}", tuple(rng.randrange(p) for _ in range(a)),
           field.mul, field.one, lambda u, e: tuple(_powmod(u, e, m, p)))
    yield ("Fraction polynomials",
           [Fraction(rng.randrange(-p, p + 1)) for _ in range(2)],
           poly_mul, [Fraction(1)],
           lambda f, e: power(f, e, poly_mul, [Fraction(1)]))
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


def berkowitz(rows, zero, one):
    """Oracle: det(1 - t*A), constant term first, by Berkowitz's algorithm.

    Division-free, so it runs unchanged over exact rationals and over
    fixed-precision p-adic elements, where every digit it reports is
    tracked; O(n^4).
    """
    n = len(rows)
    if n == 0:
        return [one]
    poly = [one, -rows[0][0]]
    for i in range(1, n):
        R = [rows[i][j] for j in range(i)]
        sub = [[rows[r][c] for c in range(i)] for r in range(i)]
        diags = [one, -rows[i][i]]
        vec = [rows[j][i] for j in range(i)]
        for _ in range(i):
            dot = zero
            for rr, vv in zip(R, vec):
                dot = dot + rr * vv
            diags.append(-dot)
            nxt = []
            for r in range(i):
                acc = zero
                for c in range(i):
                    acc = acc + sub[r][c] * vec[c]
                nxt.append(acc)
            vec = nxt
        new = []
        for r in range(i + 2):
            acc = zero
            for c in range(max(0, r - len(diags) + 1), min(r, i) + 1):
                acc = acc + diags[r - c] * poly[c]
            new.append(acc)
        poly = new
    return poly


def _random_sparse_fractions(rng, n):
    """Small entries, about half of them zero, a zero column half the time."""
    A = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
          * (rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
    if n and rng.random() < 0.5:
        c = rng.randrange(n)
        for row in A:
            row[c] = Fraction(0)
    return A


def test_hessenberg_matches_berkowitz_over_fractions():
    rng = random.Random(31)
    for _ in range(400):
        A = _random_sparse_fractions(rng, rng.randrange(0, 8))
        assert rev_charpoly_fractions(A) == \
            berkowitz(A, Fraction(0), Fraction(1)), A
    # a permuted Jordan block needs a row swap at every column
    J = [[Fraction(int(j == i + 1)) for j in range(5)] for i in range(5)]
    P = [J[k] for k in (3, 0, 4, 1, 2)]
    assert rev_charpoly_fractions(P) == berkowitz(P, Fraction(0), Fraction(1))


@pytest.mark.parametrize("p,a", PRIMES_AND_DEGREES)
def test_hessenberg_matches_berkowitz_over_zq(p, a):
    """Crystal matrices with entries p^v * unit (v up to 2, so pivots are
    often not units), exact zeros, a zero column or a repeated row: no
    digit that both routes know differs, and a coefficient Berkowitz knows
    to be nonzero is nonzero here too, with at least half the working
    digits."""
    rng = random.Random(100 * p + a)
    ctx = QqContext(p, a, prec=24)
    for _ in range(12):
        n = rng.randrange(1, 7)

        def entry():
            if rng.random() < 0.3:
                return ctx.zero()
            return ctx.from_vector([rng.randrange(p ** 3) for _ in range(a)],
                                   rng.randrange(3))
        A = [[entry() for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            c = rng.randrange(n)
            for row in A:
                row[c] = ctx.zero()
        if n > 2 and rng.random() < 0.5:
            A[1] = list(A[0])
        E = Isocrystal(ctx, A)
        oracle = berkowitz(E.linearize(), ctx.zero(), ctx.one())
        got = E.charpoly()
        assert len(got) == n + 1
        for h, b in zip(got, oracle):
            assert (h - b).is_zeroish(), (h, b)
            if b.kind == "n":
                assert h.kind == "n" and h.rel >= ctx.prec // 2


def companion_of_reversed(P):
    """A rational matrix C with det(1 - t*C) = P, for P with P(0) = 1.

    Works through the reversed (monic) polynomial x^n P(1/x); its companion
    matrix has the inverse roots of P as eigenvalues.  Degree-0 input gives
    the empty 0x0 matrix.
    """
    P = _unit_constant(P)
    n = len(P) - 1
    C = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = Fraction(1)
    for i in range(n):
        # last column: -coefficient of x^i in the monic reversal
        C[i][n - 1] = -Fraction(P[n - i])
    return C


def test_companion_matrix_realises_its_polynomial():
    """det(1 - t C) = P by Berkowitz, and for 1 - a t + q t^2 the companion
    matrix is the closed form [[0, -q], [1, a]] of an elliptic H^1."""
    rng = random.Random(9)
    for _ in range(60):
        P = _random_unit_poly(rng, rng.randrange(1, 7))
        C = companion_of_reversed(P)
        assert berkowitz(C, Fraction(0), Fraction(1)) == _unit_constant(P)
    for a, q in ((-3, 5), (0, 7), (2, 4), (5, 9)):
        assert companion_of_reversed([1, -a, q]) == [[0, -q], [1, a]]


def tensor_poly_berkowitz(P, Q):
    """Oracle: det(1 - t*(C_P (x) C_Q)) by Berkowitz on the Kronecker product
    of the companion matrices, O((mn)^4)."""
    CP = companion_of_reversed(P)
    CQ = companion_of_reversed(Q)
    if not CP or not CQ:
        return [Fraction(1)]
    return berkowitz(kron(CP, CQ), Fraction(0), Fraction(1))


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
        # int exactly where integral, Fraction otherwise
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for c in got), got


def test_newton_identities_round_trip_and_invert():
    """from_power_sums undoes power_sums on integer polynomials with P(0) = 1
    (trailing zero coefficients included), and the negated power sums give
    the series of 1/P; both exact over the integers."""
    rng = random.Random(11)
    for _ in range(200):
        P = [1] + [rng.randrange(-9, 10) for _ in range(rng.randrange(7))]
        n = len(P) - 1
        sums = power_sums(P, n)
        assert from_power_sums(sums) == P
        order = rng.randrange(12)
        inverse = from_power_sums([-s for s in power_sums(P, order)])
        assert inverse == rational_series(RationalFunction([1], P), order), P
        assert all(type(c) is int for c in inverse)


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
