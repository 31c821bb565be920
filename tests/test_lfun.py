"""Rational zeta functions: assembly, special values, Euler products.

The verifier reads the pole order and leading coefficient at t = q^{-r}
off the per-degree factors, deflating each once.  The oracle here takes
the long way round: assemble the whole zeta function, reduce num/den by a
gcd over Q, and deflate (1 - q^r t) out of each.  The two must agree on
every package.  The Euler product is one power-sum recurrence; its oracle
multiplies the local factors out, raising each inverse factor to its
closed-point count by square-and-multiply.
"""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import fqzeta
from fqzeta.errors import ValidationError
from fqzeta.geometry import (
    VarietySpec,
    _weierstrass_discriminant,
    closed_points,
    package,
    point_counts,
)
from fqzeta.lfun import (
    MAX_TRUNCATION,
    _GCD_PRIMES,
    RationalFunction,
    _gcd_z,
    _primitive,
    abs_valuation_inverse,
    assemble,
    euler_product_series,
    rational_series,
)
from fqzeta.polys import (
    mat_pow_fractions,
    poly_mul,
    poly_trim,
    power,
    rev_charpoly_fractions,
    root_multiplicity,
)
from fqzeta.serialize import _check_realises
from fqzeta.specialvalues import (
    compatibility_check,
    verify_elladic,
    verify_padic,
)
from fraction_oracles import euclid_gcd, poly_divmod, poly_eval

P1_FACTORS = {0: [1, -1], 2: [1, -5]}
ELLIPTIC_FACTORS = {0: [1, -1], 1: [1, 3, 5], 2: [1, -5]}


def _whole_zeta_value(zeta, q, r):
    """(pole order, leading coefficient) of zeta at t = q^{-r}, from its
    reduced num/den: rho = m_den - m_num (negative is a zero), and the
    deflated num/den evaluated at q^{-r}."""
    c = Fraction(q) ** r
    m_num, num = root_multiplicity(zeta.num, c)
    m_den, den = root_multiplicity(zeta.den, c)
    return m_den - m_num, poly_eval(num, 1 / c) / poly_eval(den, 1 / c)


@pytest.fixture(autouse=True)
def _bounded_moduli(monkeypatch):
    """Every gcd in these tests is found within the Mersenne moduli and
    ten primes past them, so the supply is cut there: a gcd that never
    settles returns None and fails its test instead of running on."""
    moduli = fqzeta.lfun._moduli
    monkeypatch.setattr(fqzeta.lfun, "_moduli", lambda: itertools.islice(
        moduli(), len(_GCD_PRIMES) + 10))


def _modular_gcd(f, g):
    """`lfun._gcd_z` on any two lists of rationals, normalised like the
    oracle `euclid_gcd`: the common power of t restored, constant term 1,
    or leading coefficient 1 when t divides the gcd; [] for two zeros."""
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        h = f or g
    else:
        vf = next(i for i, c in enumerate(f) if c)
        vg = next(i for i, c in enumerate(g) if c)
        h = [0] * min(vf, vg) + _gcd_z(_primitive(f[vf:])[1],
                                       _primitive(g[vg:])[1])[0]
    if not h:
        return []
    lead = Fraction(h[0] or h[-1])
    return [c / lead for c in h]


def poly_truncate(f, order):
    """f mod t^(order+1)."""
    return list(f[: order + 1])


def poly_mul_trunc(f, g, order):
    """f g mod t^(order+1), schoolbook."""
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f):
        if i > order or not a:
            continue
        for j, b in enumerate(g):
            if i + j > order:
                break
            out[i + j] += a * b
    return out


def poly_inverse_series(f, order):
    """1/f mod t^(order+1) for f with a nonzero constant term."""
    c0 = Fraction(f[0])
    inv = [1 / c0]
    for n in range(1, order + 1):
        s = Fraction(0)
        for i in range(1, min(n, len(f) - 1) + 1):
            s += Fraction(f[i]) * inv[n - i]
        inv.append(-s / c0)
    return inv


def poly_pow_trunc(f, e, order):
    """f^e mod t^(order+1) by square-and-multiply."""
    return power(poly_truncate(f, order), e,
                 lambda g, h: poly_mul_trunc(g, h, order), [Fraction(1)])


def _local_factor(d, frobenius):
    """det(1 - t^d F^d) for a closed point of degree d (F = 1 untwisted)."""
    if frobenius is None:
        out = [Fraction(0)] * (d + 1)
        out[0], out[d] = Fraction(1), Fraction(-1)
        return out
    char = rev_charpoly_fractions(mat_pow_fractions(frobenius, d))
    out = [Fraction(0)] * (d * (len(char) - 1) + 1)
    for i, coeff in enumerate(char):
        out[i * d] = coeff
    return out


def _euler_product_by_powers(closed_counts, order, frobenius=None):
    """The Euler product multiplied out: per degree d the series inverse of
    det(1 - t^d F^d), raised to the count a_d by square-and-multiply.
    The series helpers above are the ones `rational_series` replaced by
    one quotient recurrence."""
    series = [Fraction(1)] + [Fraction(0)] * order
    for d, count in sorted(closed_counts.items()):
        if d > order or count == 0:
            continue
        inv = poly_inverse_series(_local_factor(d, frobenius), order)
        series = poly_mul_trunc(series, poly_pow_trunc(inv, count, order),
                                order)
    return series


def _random_frobenius(rng):
    n = rng.randrange(1, 4)
    return [[Fraction(rng.randrange(-7, 8), rng.choice((1, 1, 2, 3, 5)))
             for _ in range(n)] for _ in range(n)]


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
    assert assemble({}).num == [Fraction(1)]


def test_assemble_requires_unit_constant_term():
    with pytest.raises(ValidationError):
        assemble({0: [0, 1]})


def test_pole_orders_of_projective_line():
    zeta = assemble(P1_FACTORS)
    assert _whole_zeta_value(zeta, 5, 0)[0] == 1
    assert _whole_zeta_value(zeta, 5, 1)[0] == 1
    assert _whole_zeta_value(zeta, 5, 2)[0] == 0
    # a zero: a manufactured numerator factor at q^r
    f = RationalFunction([1, -5], [1])
    assert _whole_zeta_value(f, 5, 1)[0] == -1


def test_leading_coefficients_of_projective_line():
    zeta = assemble(P1_FACTORS)
    assert _whole_zeta_value(zeta, 5, 1)[1] == Fraction(5, 4)
    assert _whole_zeta_value(zeta, 5, 0)[1] == Fraction(-1, 4)
    # no pole at r = 2: the leading term is the value zeta(1/25)
    assert _whole_zeta_value(zeta, 5, 2)[1] == Fraction(125, 96)


def test_leading_coefficients_of_elliptic_fixture():
    zeta = assemble(ELLIPTIC_FACTORS)
    assert _whole_zeta_value(zeta, 5, 1)[1] == Fraction(9, 4)
    assert _whole_zeta_value(zeta, 5, 0)[1] == Fraction(-9, 4)


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


def test_euler_product_matches_square_and_multiply_oracle():
    """Random closed-point counts up to 10^16, zero counts and degrees
    beyond T, for T in 0..12, untwisted and with a rational rank-1-3
    Frobenius."""
    rng = random.Random(14)
    for trial in range(80):
        order = trial % 13
        counts = {d: rng.choice((0, rng.randrange(1, 10),
                                 rng.randrange(10 ** 16)))
                  for d in rng.sample(range(1, 16), rng.randrange(1, 6))}
        frob = _random_frobenius(rng) if trial % 2 else None
        assert euler_product_series(counts, order, frobenius=frob) == \
            _euler_product_by_powers(counts, order, frob), (counts, frob)


@pytest.mark.parametrize("p,a", [(p, a) for p in (2, 3, 5, 7)
                                 for a in (1, 2, 3)])
def test_euler_product_of_point_counts_matches_oracle(p, a):
    """The closed points of random varieties over F_{p^a}, untwisted and
    twisted, through t^8."""
    rng = random.Random(10 * p + a)
    for _ in range(3):
        closed = closed_points(point_counts(_random_spec(rng, p, a), 8))
        for frob in (None, _random_frobenius(rng)):
            assert euler_product_series(closed, 8, frobenius=frob) == \
                _euler_product_by_powers(closed, 8, frob), (closed, frob)


def test_euler_product_validates_every_degree():
    """Degrees beyond the truncation are still checked, in sorted order."""
    with pytest.raises(ValidationError, match="negative"):
        euler_product_series({1: 1, 9: -1}, truncation=4)
    with pytest.raises(ValidationError, match="positive"):
        euler_product_series({-2: 1, 1: -1}, truncation=4)
    with pytest.raises(ValidationError, match="square"):
        euler_product_series({1: 1}, truncation=4, frobenius=[[1, 2]])


def test_series_truncation_is_capped():
    zeta = assemble(P1_FACTORS)
    for bad in (-1, MAX_TRUNCATION + 1, 2000):
        with pytest.raises(ValidationError, match="truncation"):
            euler_product_series({1: 6}, bad)
        with pytest.raises(ValidationError, match="truncation"):
            rational_series(zeta, bad)
    assert len(euler_product_series({1: 6}, MAX_TRUNCATION)) == \
        MAX_TRUNCATION + 1


def test_rational_series_matches_euler_product_for_projective_line():
    zeta = assemble(P1_FACTORS)
    # closed points of P^1 over F_5 by degree (necklace counts)
    closed = {1: 6, 2: 10, 3: 40, 4: 150, 5: 624, 6: 2580, 7: 11160,
              8: 48750, 9: 217000, 10: 976248}
    assert rational_series(zeta, 10) == euler_product_series(closed, 10)


def test_rational_series_matches_inverse_times_numerator():
    """The one series quotient equals the old route, the series inverse of
    den times num, on random num/den with rational coefficients, at every
    order 0..16; every coefficient is a Fraction."""
    rng = random.Random(15)

    def poly(degree):
        return [1] + [Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 5, 9)))
                      for _ in range(degree)]

    for _ in range(120):
        zeta = RationalFunction(poly(rng.randrange(6)), poly(rng.randrange(6)))
        order = rng.randrange(17)
        got = rational_series(zeta, order)
        want = poly_mul_trunc(poly_truncate(zeta.num, order),
                              poly_inverse_series(zeta.den, order), order)
        assert got == want, zeta
        assert all(type(c) is Fraction for c in got)


def _twists(rng):
    """Three invertible rational twist matrices: one of rank 1, and two of
    rank 2, the second not always semisimple."""
    rank1 = [[Fraction(rng.choice((-1, 1)) * rng.randrange(1, 8),
                       rng.choice((1, 2, 3)))]]
    x, y = (Fraction(rng.randrange(1, 6), rng.choice((1, 2))) for _ in "xy")
    return (rank1, [[x, y], [-y, x]],
            rng.choice(([[x, 1], [0, x]], [[0, -y], [1, x]])))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_twisted_package_zeta_is_the_euler_product_with_coefficients(p):
    """The L-function with coefficients in a twist T on the point, read
    two ways: the series of the twisted package's zeta, whose factors are
    tensored with det(1 - t T^a), equals the Euler product over the closed
    points with fibre Frobenius T^a.  P^1, G_m and P^1 x G_m over F_{p^a}
    for a = 1, 2, 3, and a curve over F_p, each with three twists: 120
    cases."""
    rng = random.Random(30 + p)
    specs = []
    for a in (1, 2, 3):
        p1, gm = VarietySpec.projective(1, p, a), VarietySpec.torus(p, a)
        specs += [p1, gm, VarietySpec.product([p1, gm])]
    specs.append(VarietySpec.elliptic(_random_curve(rng, p), p))
    for spec in specs:
        closed = closed_points(point_counts(spec, 8))
        for twist in _twists(rng):
            zeta = package(spec, twist=twist, prec=16).zeta()
            want = euler_product_series(
                closed, 8, frobenius=mat_pow_fractions(twist, spec.a))
            assert rational_series(zeta, 8) == want, (spec, twist)


def test_gcd_matches_plain_euclid_oracle():
    """The modular gcd equals the Euclid gcd over Q on random pairs:
    rational coefficients, a common power of t on a quarter of them, and
    planted factors whose coefficients reach 2^200, past the first four
    moduli, on a fifth."""
    rng = random.Random(21)

    def poly(degree, size=9):
        coeffs = [Fraction(rng.randrange(-size, size + 1), rng.randrange(1, 4))
                  for _ in range(degree)]
        return coeffs + [Fraction(rng.choice([-3, -1, 1, 2, 5]))]

    nontrivial = 0
    for i in range(400):
        common = poly(rng.randrange(0, 4), 2 ** 200 if i % 5 == 0 else 9)
        if i % 4 == 0:
            common = [0] * rng.randrange(1, 3) + common
        f = poly_mul(common, poly(rng.randrange(0, 5)))
        g = poly_mul(common, poly(rng.randrange(0, 5)))
        got = _modular_gcd(f, g)
        assert got == euclid_gcd(f, g), (f, g)
        assert all(type(c) is Fraction for c in got)
        # the planted factor divides the gcd
        assert poly_divmod(got, common)[1] == []
        nontrivial += len(got) > 1
    assert nontrivial > 200


def _euclid_reduction(factors):
    """num/den of the zeta function as the library reduced it before the
    modular gcd: Fraction products, den scaled to den_0 = 1, both divided
    by the Euclid gcd."""
    num, den = [Fraction(1)], [Fraction(1)]
    for j, poly in factors.items():
        if j % 2:
            num = poly_mul(num, [Fraction(c) for c in poly])
        else:
            den = poly_mul(den, [Fraction(c) for c in poly])
    g = euclid_gcd(num, den)
    return poly_divmod(num, g)[0], poly_divmod(den, g)[0], len(g) > 1


def test_reduced_zeta_matches_the_euclid_reduction():
    """`assemble` reduces the zeta function of random products,
    complements, twists and Tate twists over F_{p^a}, p in {2,3,5,7},
    a in {1,2,3}, to the num/den that the Euclid gcd gave, as Fractions;
    num and den share a factor in 3 of the 100."""
    rng = random.Random(25)
    cancelled = 0
    for _ in range(100):
        pkg = _random_package(rng)
        factors = {j: d.poly for j, d in pkg.degrees.items()}
        zeta = assemble(factors)
        num, den, reduced = _euclid_reduction(factors)
        assert (zeta.num, zeta.den) == (num, den), pkg
        assert all(type(c) is Fraction for c in zeta.num + zeta.den)
        cancelled += reduced
    assert cancelled >= 2


def test_modular_gcd_survives_an_unlucky_prime():
    """1 - t and 1 - 2^61 t are coprime over Q but congruent mod the first
    modulus 2^61 - 1, so the gcd there fails the division check and the
    next modulus decides; with a common factor 1 + 2t the same holds.  A
    pair congruent mod every Mersenne modulus is decided past them."""
    f, g = [1, -1], [1, -2 ** 61]
    assert [c % _GCD_PRIMES[0] for c in g] == [c % _GCD_PRIMES[0] for c in f]
    assert _modular_gcd(f, g) == euclid_gcd(f, g) == [1]
    common = [1, 2]
    assert (_modular_gcd(poly_mul(f, common), poly_mul(g, common))
            == euclid_gcd(poly_mul(f, common), poly_mul(g, common)) == [1, 2])
    assert (RationalFunction(poly_mul(f, common), poly_mul(g, common))
            == RationalFunction(f, g))
    g = [1, -1 - math.prod(_GCD_PRIMES)]
    assert _modular_gcd(f, g) == euclid_gcd(f, g) == [1]
    assert _modular_gcd(poly_mul(f, common), poly_mul(g, common)) == [1, 2]


def test_modular_gcd_joins_moduli_past_any_one_prime():
    """A gcd whose coefficients outgrow one modulus is found by joining
    the images of several: 3^50 > 2^61 needs two moduli, and the second
    modulus 2^89 - 1, unlucky for 1 - t against 1 - 2^89 t, is skipped;
    2^20000 is past the largest Mersenne modulus 2^19937 - 1; 3^44200 is
    past the product of all of them, so primes below 2^31 join in."""
    pairs = [([1, -1], [1, -2 ** 89], [1, 3 ** 50])]
    for c in (2 ** 20000, 3 ** 44200):
        pairs.append(([1, 1], [1, -1], [1, -c]))
        pairs.append(([2, 1, 1], [1, 0, 5], [c, 7]))
    assert math.prod(_GCD_PRIMES) < 3 ** 44200
    for f, g, common in pairs:
        F, G = poly_mul(f, common), poly_mul(g, common)
        want = euclid_gcd(F, G)
        assert _modular_gcd(F, G) == want
        assert want == [Fraction(c, common[0]) for c in common]
        assert RationalFunction(F, G) == RationalFunction(f, g)


def test_rational_function_reads_any_rational_coefficient():
    """Coefficients that are not ints or Fractions go through `Fraction`,
    as before the int path: floats, Decimals and strings."""
    want = RationalFunction([1, Fraction(1, 2)], [1, -1])
    assert RationalFunction([1.0, 0.5], ["1", Decimal(-1)]) == want
    assert RationalFunction(["1", "1/2"], [1, -1]) == want
    assert (assemble({0: ["1", "-1/2"], 1: [1.0, 0.25]})
            == RationalFunction([1, Fraction(1, 4)], [1, Fraction(-1, 2)]))


# ---------------------------------------------------------------------------
# the verifier's analytic side against the whole-zeta oracle


def _random_curve(rng, p):
    while True:
        coeffs = [rng.randrange(p) for _ in range(5)]
        if _weierstrass_discriminant(*coeffs) % p:
            return coeffs


def _random_spec(rng, p, a):
    """A piece, a product of two pieces (a square half the time), the
    complement of up to three rational points in a product or a piece, or
    a point set.  Pieces have dimension <= 1."""
    def piece():
        kind = rng.choice(("projective", "affine", "torus", "elliptic"))
        if kind == "elliptic":
            return VarietySpec.elliptic(_random_curve(rng, p), p, a)
        if kind == "torus":
            return VarietySpec.torus(p, a)
        return VarietySpec(kind, p, a, n=rng.randrange(2))

    shape = rng.choice(("piece", "product", "complement", "points"))
    if shape == "points":
        return VarietySpec.points(rng.randrange(1, 4), p, a)
    if shape == "piece":
        return piece()
    first = piece()
    factors = [first, rng.choice((first, piece()))]    # squares too
    if shape == "complement":
        # the cone rule needs a connected ambient with room for the
        # points: P^n (n >= 1) and curves only
        factors = [f for f in factors
                   if f.kind in ("projective", "elliptic") and f.dim]
        if not factors:
            factors = [VarietySpec.projective(1, p, a)]
    spec = (VarietySpec.product(factors) if len(factors) > 1
            else factors[0])
    if shape == "complement":
        spec = VarietySpec.complement(
            spec, VarietySpec.points(rng.randrange(1, 4), p, a))
    return spec


def _random_package(rng):
    p, a = rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3))
    spec = _random_spec(rng, p, a)
    twist = rng.choice((None, None, [[rng.choice((-1, 1)) * rng.randrange(
        1, 8)]], [[1, p], [p, 1]], [[p, 1], [1, 1]]))
    pkg = package(spec, twist=twist, prec=24)
    return pkg.tate_twist(rng.choice((-1, 0, 1, 2)))


def test_package_crystals_realise_their_factors():
    """`package()` builds every crystal to realise its factor, the
    precondition of `CohomologyPackage`: on random products, complements,
    twists and Tate twists, det(1 - t M) of each crystal agrees with the
    exact factor to the guard digits (the package decoder's check)."""
    rng = random.Random(12)
    checked = 0
    while checked < 80:
        pkg = _random_package(rng)
        for j, data in pkg.degrees.items():
            if data.crystal is not None:
                _check_realises(j, data.crystal, data.poly)
                checked += 1


def test_twisted_zeta_is_the_twisted_euler_product():
    """The zeta function with coefficients in the constant isocrystal of a
    rational T is prod_x det(1 - t^{deg x} (T^a)^{deg x})^{-1} over the
    closed points x of X: the package twisted by T (a Kunneth product)
    against `euler_product_series` with frobenius T^a, through t^8, on
    random varieties over F_{p^a}, p in {2,3,5,7}, a in {1,2,3}.  A
    singular T has no isocrystal and is refused."""
    rng = random.Random(23)
    checked = refused = 0
    for _ in range(50):
        p, a = rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3))
        spec, T = _random_spec(rng, p, a), _random_frobenius(rng)
        if len(poly_trim(rev_charpoly_fractions(T))) <= len(T):
            with pytest.raises(ValidationError, match="invertible"):
                package(spec, twist=T)
            refused += 1
            continue
        want = euler_product_series(closed_points(point_counts(spec, 8)), 8,
                                    frobenius=mat_pow_fractions(T, a))
        assert rational_series(package(spec, twist=T).zeta(), 8) == want, \
            (spec, T)
        checked += 1
    assert checked >= 40 and refused


def test_verifier_special_value_matches_the_whole_zeta_oracle():
    """rho and the leading coefficient of every report equal those of the
    assembled zeta function, on random products, complements, twists and
    Tate twists over F_{p^a}, p in {2,3,5,7}, a in {1,2,3}, at every r in
    [-1, 2 dim + 1]."""
    rng = random.Random(8)
    compared = 0
    for _ in range(60):
        pkg = _random_package(rng)
        zeta = assemble({j: d.poly for j, d in pkg.degrees.items()})
        for r in range(-1, 2 * pkg.dim + 2):
            reports = [verify_padic(pkg, r)]
            if compatibility_check(pkg):
                reports.append(verify_elladic(pkg, r, 11))
            want = _whole_zeta_value(zeta, pkg.q, r)
            for rep in reports:
                assert (rep.rho_analytic, rep.leading) == want, (pkg, r)
            compared += 1
    assert compared > 250


def test_verify_deflates_each_degree_once(monkeypatch):
    """One root_multiplicity call per degree per verify call, p-adic and
    l-adic alike, on E x E x E over F_5."""
    calls = []

    def counted(coeffs, c):
        calls.append(c)
        return root_multiplicity(coeffs, c)

    for module in (fqzeta.polys, fqzeta.isocrystals, fqzeta.lfun,
                   fqzeta.gammamodules, fqzeta.specialvalues):
        if hasattr(module, "root_multiplicity"):
            monkeypatch.setattr(module, "root_multiplicity", counted)
    curve = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
    pkg = package(VarietySpec.product([curve] * 3))
    assert sorted(pkg.degrees) == list(range(7))
    for verify in (lambda: verify_padic(pkg, 1),
                   lambda: verify_elladic(pkg, 1, 3)):
        calls.clear()
        assert verify().passed
        assert calls == [Fraction(5)] * 7
