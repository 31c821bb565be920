"""Newton slopes, semisimplicity, eigenvalue products, purity."""

import random
from fractions import Fraction

from fqzeta.isocrystals import (
    Isocrystal,
    eigenproduct_excluding,
    newton_slopes_exact,
    purity_check,
    semisimple_at,
)
from fqzeta.padics import QqContext, Zp
from fqzeta.plinalg import mat_vec


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


def test_semisimple_at_diagonal_vs_jordan():
    ctx = Zp(5, prec=32)
    diag = Isocrystal.from_ints(ctx, [[5, 0], [0, 5]])
    assert semisimple_at(diag, 1)
    jordan = Isocrystal.from_ints(ctx, [[5, 1], [0, 5]])
    assert not semisimple_at(jordan, 1)
    # no q^r eigenvalue at all: vacuously semisimple there
    assert semisimple_at(jordan, 3)


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


def test_charpoly_of_companion_crystal():
    ctx = Zp(5, prec=32)
    E = Isocrystal.from_ints(ctx, [[0, -5], [1, -3]])
    coeffs = E.charpoly()
    # det(1 - tF) = 1 + 3t + 5t^2 read through exact lifts
    assert [c.to_fraction() for c in coeffs] == [1, 3, 5]
