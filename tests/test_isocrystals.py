"""Newton slopes, semisimplicity, eigenvalue products, purity."""

import random
from fractions import Fraction

import pytest

from fqzeta.errors import PrecisionExhausted, ValidationError
from fqzeta.isocrystals import (
    Isocrystal,
    eigenproduct_excluding,
    newton_slopes_exact,
    purity_check,
    semisimple_at,
)
from fqzeta.padics import QqContext, Zp
from fqzeta.plinalg import mat_vec, right_kernel
from fqzeta.polys import (mat_mul, mat_pow_fractions, rev_charpoly_fractions,
                          root_multiplicity)


def test_newton_slopes_of_elliptic_factors():
    # ordinary: 1 + 3t + 5t^2 has slopes 0 and 1
    assert newton_slopes_exact([1, 3, 5], 5, 1) == \
        [(Fraction(0), 1), (Fraction(1), 1)]
    # supersingular: 1 + 5t^2 has slope 1/2 twice
    assert newton_slopes_exact([1, 0, 5], 5, 1) == [(Fraction(1, 2), 2)]
    assert newton_slopes_exact([1, -5], 5, 1) == [(Fraction(1), 1)]


def test_newton_slopes_normalized_by_residue_degree():
    # over F_4 (a = 2): inverse root 2 has ord_q = 1/2
    assert newton_slopes_exact([1, -2], 2, 2) == [(Fraction(1, 2), 1)]


def test_slope_total_equals_determinant_valuation():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randrange(1, 5)
        # random poly with unit constant term and nonzero leading coefficient
        coeffs = [1] + [rng.randrange(-50, 51) * 5 ** rng.randrange(3)
                        for _ in range(n)]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randrange(-50, 51)
        profile = newton_slopes_exact(coeffs, 5, 1)
        assert sum(m for _, m in profile) == n
        total = sum(s * m for s, m in profile)
        import fqzeta.padics as padics
        assert total == padics.rational_valuation(Fraction(coeffs[-1]), 5)


def test_crystal_slopes_ordinary_and_supersingular():
    ctx = Zp(5, prec=32)
    ordinary = Isocrystal.from_ints(ctx, [[0, -5], [1, -3]])
    assert ordinary.slopes() == [(Fraction(0), 1), (Fraction(1), 1)]
    supersingular = Isocrystal.from_ints(ctx, [[0, -5], [1, 0]])
    assert supersingular.slopes() == [(Fraction(1, 2), 2)]


def test_cycle_crystal_has_fractional_slope():
    """F e1 = e2, F e2 = p e1: F^2 = p, so both slopes are 1/2."""
    ctx = Zp(7, prec=24)
    E = Isocrystal.from_ints(ctx, [[0, 7], [1, 0]])
    assert E.slopes() == [(Fraction(1, 2), 2)]


def test_crystal_slope_first_power_oracle():
    """v_p(F^N v)/N converges to the smallest slope for generic v."""
    ctx = Zp(5, prec=60)
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-8, 9) * 5 ** rng.randrange(2)
                 for _ in range(n)] for _ in range(n)]
        E = Isocrystal.from_ints(ctx, rows)
        try:
            profile = E.slopes()
        except Exception:
            continue        # singular sample: draw again
        first = profile[0][0]
        v = [ctx.from_int(rng.randrange(1, 20)) for _ in range(n)]
        N = 12
        for _ in range(N):
            v = mat_vec(E.matrix, [x.frobenius() for x in v])
        vals = [x.valuation() for x in v if not x.is_zeroish()]
        assert vals, "iterate vanished"
        # the minimum valuation grows like N * first slope
        assert min(vals) >= N * first
        assert Fraction(min(vals), N) - first <= Fraction(n, N)


def test_slopes_in_extension_context():
    """F = p over W(F_4) linearizes to F^2 = p^2 = q, hence slope 1."""
    ctx = QqContext(2, 2, prec=24)
    E = Isocrystal.from_ints(ctx, [[2]])
    assert E.slopes() == [(Fraction(1), 1)]
    unit = Isocrystal.from_ints(ctx, [[3]])
    assert unit.slopes() == [(Fraction(0), 1)]


def test_direct_sum_is_block_diagonal_in_one_context():
    """Over W(F_25) the sum's det(1 - tM) is the product of the factors';
    crystals over different contexts do not sum."""
    ctx = QqContext(5, 2, prec=24)
    u = ctx.from_vector((1, 1))
    first = Isocrystal(ctx, [[u, ctx.from_int(5)], [ctx.one(), ctx.zero()]])
    second = Isocrystal(ctx, [[ctx.from_vector((2, 3)).shift(1)]])
    total = first.direct_sum(second)
    assert total.rank == 3
    f, g = first.charpoly(), second.charpoly()
    product = [sum((f[i] * g[k - i] for i in range(len(f))
                    if 0 <= k - i < len(g)), ctx.zero())
               for k in range(len(f) + len(g) - 1)]
    got = total.charpoly()
    assert len(got) == len(product)
    assert all(x.same_value(y, digits=ctx.guard)
               for x, y in zip(got, product))
    with pytest.raises(ValidationError, match="direct sum across contexts"):
        first.direct_sum(Isocrystal.from_ints(Zp(5, prec=24), [[5]]))


def test_semisimple_at_diagonal_vs_jordan():
    ctx = Zp(5, prec=32)
    diag = Isocrystal.from_ints(ctx, [[5, 0], [0, 5]])
    assert semisimple_at(diag, 1, 2)
    jordan = Isocrystal.from_ints(ctx, [[5, 1], [0, 5]])
    assert not semisimple_at(jordan, 1, 2)
    # no q^r eigenvalue at all: vacuously semisimple there
    assert semisimple_at(jordan, 3, 0)


def _semisimple_by_square(E, r):
    """Oracle: M is semisimple at q^r when L = M - q^r and L^2 have kernels
    of the same rank (two Smith forms and a dense product)."""
    ctx = E.ctx
    c = ctx.one().shift(ctx.a * r)
    L = [[x - c if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(E.linearize())]

    def rank(A):
        K = right_kernel(A)
        return len(K[0]) if K else 0
    return rank(L) == rank(mat_mul(L, L))


def _unimodular(rng, n):
    """(S, S^-1) over Z: a product of elementary matrices."""
    S = [[int(i == j) for j in range(n)] for i in range(n)]
    S_inv = [row[:] for row in S]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2, 3))
        S = [[S[r][k] + c * S[j][k] * (r == i) for k in range(n)]
             for r in range(n)]                       # row_i += c row_j
        S_inv = [[S_inv[r][k] - c * S_inv[r][i] * (k == j) for k in range(n)]
                 for r in range(n)]                   # col_j -= c col_i
    return S, S_inv


def _jordan_crystal(rng, ctx, r):
    """An integral A = S J S^-1 whose a-th power M (the linearization, as
    sigma fixes Z) has q^r in Jordan blocks of random sizes 1-3: blocks at
    p^r, and for even a also at -p^r, which M sends to q^r too; the other
    eigenvalues avoid both.  Returns (crystal, A, whether M is semisimple
    at q^r)."""
    p, a = ctx.p, ctx.a
    targets = [p ** r] + ([-p ** r] if a % 2 == 0 else [])
    blocks = [(lam, rng.choice((1, 1, 2, 3)))
              for lam in targets for _ in range(rng.randrange(1, 3))]
    blocks += [(rng.choice([x for x in range(-4, 5) if x not in targets]),
                rng.choice((1, 2))) for _ in range(rng.randrange(3))]
    rng.shuffle(blocks)
    n = sum(size for _, size in blocks)
    J = [[0] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for k in range(size):
            J[at + k][at + k] = lam
            if k:
                J[at + k - 1][at + k] = 1
        at += size
    S, S_inv = _unimodular(rng, n)
    A = [[int(x) for x in row] for row in mat_mul(mat_mul(S, J), S_inv)]
    semisimple = all(size == 1 for lam, size in blocks if lam in targets)
    return Isocrystal.from_ints(ctx, A), A, semisimple


@pytest.mark.parametrize("p,a", [(p, a) for p in (2, 3, 5, 7)
                                 for a in (1, 2, 3)])
def test_semisimple_at_matches_the_square_oracle(p, a):
    """Random crystals with Jordan blocks of sizes 2 and 3 at q^r and
    semisimple repeats: one kernel rank against the multiplicity m of q^r in
    the exact det(1 - t M) agrees with rank(L) = rank(L^2) and with how the
    crystal was built."""
    rng = random.Random(1000 * p + a)
    ctx = QqContext(p, a, prec=32)
    seen = set()
    for _ in range(8):
        r = rng.randrange(3)
        E, A, semisimple = _jordan_crystal(rng, ctx, r)
        P = rev_charpoly_fractions(mat_pow_fractions(A, a))
        m = root_multiplicity(P, ctx.q ** r)[0]
        assert semisimple_at(E, r, m) == _semisimple_by_square(E, r) \
            == semisimple, (A, r, m)
        seen.add((semisimple, m > 1))
    assert (False, True) in seen


def test_eigenproduct_simple_root():
    P = [Fraction(1), Fraction(-6), Fraction(5)]    # (1-t)(1-5t)
    profile = newton_slopes_exact(P, 5, 1)
    at0 = eigenproduct_excluding(P, 5, 1, 0, profile)
    assert (at0.m, at0.value, at0.slope_sum) == (1, Fraction(-4), 0)
    at1 = eigenproduct_excluding(P, 5, 1, 1, profile)
    assert (at1.m, at1.value, at1.slope_sum) == (1, Fraction(4, 5), 1)


def test_eigenproduct_no_root():
    P = [Fraction(1), Fraction(0), Fraction(5)]     # supersingular
    profile = newton_slopes_exact(P, 5, 1)
    at1 = eigenproduct_excluding(P, 5, 1, 1, profile)
    assert at1.m == 0
    assert at1.value == Fraction(6, 5)
    assert at1.slope_sum == 1                        # 2 * (1 - 1/2)


def test_eigenproduct_repeated_root_needs_semisimplicity():
    """The double root is deflated whole; the verifier checks semisimplicity
    (tests/test_verify.py rejects the Jordan crystal)."""
    P = [Fraction(1), Fraction(-10), Fraction(25)]  # (1-5t)^2
    profile = newton_slopes_exact(P, 5, 1)
    ep = eigenproduct_excluding(P, 5, 1, 1, profile)
    assert ep.m == 2 and ep.value == 1


def test_purity_weight_one():
    assert purity_check([1, 3, 5], 1, 5)
    assert purity_check([1, 0, 5], 1, 5)
    # (1-t)(1-5t): the pairing alpha -> q/alpha stabilizes {1, 5}, so the
    # exact necessary condition holds although the archimedean sizes are
    # off q^(1/2)
    mixed_case = purity_check([1, -6, 5], 1, 5)
    assert mixed_case.pairing_ok
    assert purity_check([1, -5], 2, 5)              # |5| = q^(2/2)
    assert not purity_check([1, -1], 2, 5)          # |1| != q


def test_trailing_zeros_and_the_zero_polynomial_are_trimmed_alike():
    """`root_multiplicity`, `purity_check` and `newton_slopes_exact` trim
    with `polys.poly_trim`: trailing zeros change no answer, and the zero
    polynomial has no inverse root, no pairing and no Newton polygon."""
    rng = random.Random(20)
    for _ in range(200):
        P = [1] + [rng.randrange(-30, 31) for _ in range(rng.randrange(4))]
        P.append(rng.choice((-1, 1)) * 5 ** rng.randrange(4))
        padded = P + [0] * rng.randrange(1, 4)
        c = rng.choice((1, 5, 25, Fraction(1, 5)))
        assert root_multiplicity(padded, c) == root_multiplicity(P, c)
        assert bool(purity_check(padded, 1, 5)) == bool(purity_check(P, 1, 5))
        assert newton_slopes_exact(padded, 5, 1) == \
            newton_slopes_exact(P, 5, 1)
    assert root_multiplicity([1, -2, 1, 0, 0], 1) == (2, [1])
    for zero in ([], [0], [0, 0, 0]):
        assert root_multiplicity(zero, 1) == (0, [])
        assert not purity_check(zero, 1, 5)
        with pytest.raises(ValidationError, match="unit constant term"):
            newton_slopes_exact(zero, 5, 1)
    assert purity_check([1, 0, 0], 2, 5)            # the constant 1


def test_charpoly_reads_a_certified_zero_as_zero():
    """An entry known only to be O(p^N) cannot be a pivot.  With N at least
    the guard digits it counts as zero, so a column of them leaves a block
    triangular matrix and every coefficient keeps all its digits; with
    fewer digits the polynomial is not certified."""
    ctx = Zp(7, prec=32)
    rows = [[ctx.from_int(2), ctx.one(), ctx.zero()],
            [ctx.ifz(10), ctx.from_int(3), ctx.one()],
            [ctx.ifz(12), ctx.zero(), ctx.from_int(5)]]
    coeffs = Isocrystal(ctx, rows).charpoly()
    assert coeffs == [ctx.from_int(c) for c in (1, -10, 31, -30)]
    rows[1][0] = ctx.ifz(ctx.guard - 1)
    with pytest.raises(PrecisionExhausted):
        Isocrystal(ctx, rows).charpoly()


def test_charpoly_of_companion_crystal():
    ctx = Zp(5, prec=32)
    E = Isocrystal.from_ints(ctx, [[0, -5], [1, -3]])
    coeffs = E.charpoly()
    # det(1 - tF) = 1 + 3t + 5t^2, to the full working precision
    assert coeffs == [ctx.from_int(c) for c in (1, 3, 5)]
