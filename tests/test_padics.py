"""Fixed-precision p-adic and W(F_q) arithmetic."""

import random
from fractions import Fraction

import pytest

from fqzeta import padics
from fqzeta.errors import PrecisionExhausted, ValidationError
from fqzeta.geometry import _mobius
from fqzeta.padics import (
    MAX_DEGREE,
    MAX_PRECISION,
    FiniteField,
    QqContext,
    Zp,
    _irreducible_binomials,
    _is_irreducible,
    _mulmod,
    _powmod,
    check_field,
    context,
    digits,
    field,
    from_digits,
    int_valuation,
    minimal_polynomial,
    prime_divisors,
    rational_valuation,
)
from fqzeta.polys import poly_trim
from test_count_oracle import ff_add


def _fp_mul(f, g, p):
    """Schoolbook product over F_p, trimmed: the oracle for the shared
    multiply-and-reduce kernel."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def _fp_mod(f, m, p):
    """f mod monic m over F_p by long division, trimmed: the oracle for the
    reduction in `_mulmod`."""
    f = list(f)
    dm = len(m) - 1
    while len(f) > dm:
        c = f[-1] % p
        if c:
            shift = len(f) - 1 - dm
            for i in range(dm + 1):
                f[shift + i] = (f[shift + i] - c * m[i]) % p
        f.pop()
    return poly_trim(f)


def _fp_gcd(f, g, p):
    """A gcd over F_p by Euclid's algorithm, up to a unit."""
    f, g = list(f), list(g)
    while g:
        inv = pow(g[-1], -1, p)
        f = _fp_mod(f, [(c * inv) % p for c in g], p)
        f, g = g, f
    return f


def _rabin_by_gcd(m, p):
    """Rabin's test in its gcd form: x^(p^a) = x mod m, and
    gcd(x^(p^(a/l)) - x, m) = 1 for every prime l | a.  The oracle for the
    gcd-free `_is_irreducible`."""
    a = len(m) - 1
    if a == 1:
        return True
    x = [0, 1] + [0] * (a - 2)

    def frobenius_minus_x(n):
        t = x
        for _ in range(n):
            t = _powmod(t, p, m, p)
        return poly_trim([(u - v) % p for u, v in zip(t, x)])

    if frobenius_minus_x(a):
        return False
    return all(len(_fp_gcd(frobenius_minus_x(a // ell), m, p)) == 1
               for ell in prime_divisors(a))


def _monic_polys(p, degree):
    """Every monic polynomial of the given degree over F_p."""
    for code in range(p ** degree):
        coeffs = []
        for _ in range(degree):
            code, c = divmod(code, p)
            coeffs.append(c)
        yield coeffs + [1]


def test_integer_valuation():
    assert int_valuation(1, 5) == 0
    assert int_valuation(250, 5) == 3
    assert int_valuation(-75, 5) == 2
    assert rational_valuation(Fraction(4, 25), 5) == -2
    assert rational_valuation(Fraction(50, 3), 5) == 2


def test_finite_field_prime_case_matches_modular_arithmetic():
    F = FiniteField(7, 1)
    for x in range(7):
        for y in range(7):
            u, v = (x,), (y,)
            assert ff_add(F, u, v) == ((x + y) % 7,)
            assert F.mul(u, v) == ((x * y) % 7,)


def test_finite_field_f9_inverses_and_frobenius():
    F = FiniteField(3, 2)
    m = F.modulus
    elems = list(F.elements())
    assert len(elems) == 9
    for u in elems:
        if not any(u):
            continue
        assert F.mul(u, tuple(_powmod(u, 7, m, 3))) == F.one
        # x^(q-1) = 1 and Frobenius^2 = identity
        assert tuple(_powmod(u, 8, m, 3)) == F.one
        assert tuple(_powmod(_powmod(u, 3, m, 3), 3, m, 3)) == u


def test_finite_field_mul_matches_schoolbook_oracle():
    rng = random.Random(4)
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            F = FiniteField(p, k)
            for _ in range(40):
                u = tuple(rng.randrange(p) for _ in range(k))
                v = tuple(rng.randrange(p) for _ in range(k))
                prod = _fp_mod(_fp_mul(list(u), list(v), p),
                               list(F.modulus), p)
                assert F.mul(u, v) == tuple(prod + [0] * (k - len(prod)))


def test_is_irreducible_matches_trial_division():
    for p in (2, 3, 5, 7):
        a = 1
        while p ** a <= 343:
            for m in _monic_polys(p, a):
                has_factor = any(
                    not _fp_mod(m, g, p)
                    for d in range(1, a // 2 + 1) for g in _monic_polys(p, d))
                assert _is_irreducible(m, p) == (not has_factor), (p, m)
            a += 1


def test_gcd_free_rabin_matches_the_gcd_oracle():
    """3 000 seeded monic polynomials of degree 2..16 over seven primes,
    with a nonzero constant term as every candidate modulus has."""
    rng = random.Random(20)
    irreducible = 0
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7, 11, 13, 251))
        a = rng.randrange(2, 17)
        m = [rng.randrange(1, p)] + [rng.randrange(p)
                                     for _ in range(a - 1)] + [1]
        want = _rabin_by_gcd(m, p)
        assert _is_irreducible(m, p) == want, (p, m)
        irreducible += want
    assert irreducible > 300            # both answers are exercised


def test_minimal_polynomial_is_the_first_irreducible_of_the_oracle():
    """The modulus of F_{p^a} is the first monic polynomial with nonzero
    constant term that the gcd oracle accepts, in the order of the integer
    sum c_i p^i, for p^a <= 10^6."""
    for p in (2, 3, 5, 7):
        a = 2
        while p ** a <= 10 ** 6:
            want = next(m for m in _monic_polys(p, a)
                        if m[0] and _rabin_by_gcd(m, p))
            assert minimal_polynomial(p, a) == want, (p, a)
            a += 1


def test_binomial_classifier_matches_rabin_on_every_binomial():
    """Thm 3.75 of Lidl-Niederreiter against Rabin's test on each x^a + c,
    0 < c < p, for the primes below 45 and 2 <= a <= 16: 4 005 binomials,
    815 of them irreducible."""
    irreducible = 0
    for p in (n for n in range(2, 45) if prime_divisors(n) == [n]):
        for a in range(2, 17):
            want = [c for c in range(1, p)
                    if _is_irreducible([c] + [0] * (a - 1) + [1], p)]
            assert list(_irreducible_binomials(p, a)) == want, (p, a)
            irreducible += len(want)
    assert irreducible == 815


def test_large_moduli_skip_the_binomials_none_of_which_is_irreducible():
    """For p = 3 mod 4 and 4 | a, or a prime of a not dividing p - 1, no
    binomial is irreducible, and the search starts at x^a + x + c.  These
    moduli are those of the search that ran Rabin's test on every binomial
    (that search took 13 s for (65519, 4) and about a minute for
    (65519, 12) on a 2-core x86-64 box)."""
    for (p, a), c in {(65519, 4): 13, (65447, 8): 11, (65519, 8): 4,
                      (65447, 6): 3, (65519, 12): 19}.items():
        assert list(_irreducible_binomials(p, a)) == []
        assert minimal_polynomial(p, a) == [c, 1] + [0] * (a - 2) + [1]
    assert minimal_polynomial(65521, 8) == [17] + [0] * 7 + [1]


def test_digit_codec_round_trip():
    rng = random.Random(21)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7, 251, 65521))
        count = rng.randrange(0, 20)
        n = rng.randrange(p ** count * 3)
        ds = digits(n, p, count)
        assert len(ds) == count and all(0 <= d < p for d in ds)
        assert ds == [n // p ** i % p for i in range(count)]
        assert from_digits(ds, p) == n % p ** count
    assert from_digits([], 5) == 0 and digits(7, 5, 0) == []


def _sieve_mobius(limit):
    """mu(n) for 0 < n <= limit by a sieve of Eratosthenes: each prime
    flips the sign of its multiples and zeroes those of its square."""
    mu, prime = [1] * (limit + 1), [True] * (limit + 1)
    for d in range(2, limit + 1):
        if prime[d]:
            for k in range(d, limit + 1, d):
                prime[k] = k == d
                mu[k] = -mu[k]
            for k in range(d * d, limit + 1, d * d):
                mu[k] = 0
    return mu, prime


def test_mobius_and_primality_match_a_sieve():
    """The one trial division, `prime_divisors`, gives mu (Mobius
    inversion to closed points) and the primality that `check_field`
    requires; both agree with a sieve for every n <= 10^4."""
    limit = 10 ** 4
    mu, prime = _sieve_mobius(limit)
    for n in range(1, limit + 1):
        assert _mobius(n) == mu[n], n
        if n >= 2 and prime[n]:
            check_field(n, 1)
            assert prime_divisors(n) == [n]
        else:
            with pytest.raises(ValidationError, match="prime"):
                check_field(n, 1)


def test_finite_field_ops_counter():
    F = FiniteField(5, 1)
    assert F.mul((2,), (3,)) == (1,)
    assert _powmod((2,), 3, F.modulus, 5) == [3]
    assert ff_add(F, (1,), (2,)) == (3,)


def _square_and_multiply_calls(e):
    """Products made by the square-and-multiply loop of `polys.power`."""
    calls = 0
    while e:
        if e & 1:
            calls += 1
        calls += 1
        e >>= 1
    return calls


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_finite_field_pow_bills_the_same_operations(p, monkeypatch):
    """A power in F_{p^k} (`_powmod`) is one `polys.power` call with the
    square-and-multiply count of products, and the residue inverse of a
    Z_q inverse is one power to q - 2, which inverts the residue."""
    rng = random.Random(p)
    power = padics.power
    powers, products = [], []

    def counted(x, e, mul, one):
        powers.append(e)
        return power(x, e, lambda v, w: products.append(1) or mul(v, w), one)

    for k in (1, 2, 3):
        ctx = QqContext(p, k, prec=8)
        m = ctx.modulus
        u = [0] * k
        while not any(u):
            u = [rng.randrange(p) for _ in range(k)]
        monkeypatch.setattr(padics, "power", counted)
        for e in range(41):
            powers.clear()
            products.clear()
            _powmod(u, e, m, p)
            assert powers == [e]
            assert len(products) == _square_and_multiply_calls(e)
        if k > 1:
            powers.clear()
            products.clear()
            inv = ctx._zq_inv_ints(u, 1)
            assert powers == [p ** k - 2]
            assert len(products) == _square_and_multiply_calls(p ** k - 2)
            assert _mulmod(u, inv, m, p) == [1] + [0] * (k - 1)
        monkeypatch.undo()


def test_from_int_digits():
    ctx = Zp(5, prec=12)
    x = ctx.from_int(7)
    assert x.val == 0 and x.rel == 12
    assert x.coeffs == (7,)             # 7 = 2 + 1*5: digits 2, 1, 0, ...
    y = ctx.from_int(250)   # 2 * 5^3
    assert y.val == 3 and y.coeffs[0] % 5 == 2


def test_fraction_round_trip():
    ctx = Zp(7, prec=20)
    for frac in (Fraction(3, 4), Fraction(-22, 5), Fraction(49, 3),
                 Fraction(1, 343)):
        x = ctx.from_fraction(frac)
        # the unit digits times p^val agree with the input modulo
        # p^(val + rel)
        diff = Fraction(x.coeffs[0]) * Fraction(7) ** x.val - frac
        if diff:
            assert rational_valuation(diff, 7) >= x.val + x.rel


def test_val_of_unit_times_power():
    ctx = Zp(5)
    x = ctx.from_fraction(Fraction(3 * 5 ** 4, 2))
    assert x.valuation() == 4
    assert ctx.from_fraction(Fraction(2, 25)).valuation() == -2
    assert ctx.zero().valuation() is None      # +infinity


def test_val_errors_on_indistinguishable_from_zero():
    ctx = Zp(5)
    x = ctx.one() - ctx.one()
    assert x.is_ifz()
    with pytest.raises(PrecisionExhausted):
        x.valuation()


def test_addition_tracks_minimum_absolute_precision():
    ctx = Zp(5, prec=10)
    x = ctx.from_vector([1], rel=10)      # absolute precision 10
    y = ctx.from_vector([5], rel=10)      # val 1, absolute precision 11
    s = x + y
    assert s.abs_prec() == 10
    assert s.val == 0


def test_multiplication_tracks_minimum_relative_precision():
    ctx = Zp(5, prec=30)
    x = ctx.from_vector([7], rel=12)
    y = ctx.from_vector([11], rel=9)
    assert (x * y).rel == 9
    assert (x * y).coeffs[0] % 5 ** 9 == 77 % 5 ** 9


def test_cancellation_loses_leading_digits():
    ctx = Zp(5, prec=10)
    x = ctx.from_int(1 + 5 ** 6)
    s = x - ctx.one()
    assert s.val == 6
    assert s.rel == 4            # 10 absolute digits minus 6 cancelled
    assert s.coeffs[0] % 5 == 1


def test_division_and_inverse():
    ctx = Zp(5, prec=16)
    x = ctx.from_fraction(Fraction(7, 3))
    assert (x / x).same_value(ctx.one())
    assert (x * x.inverse()).same_value(ctx.one())
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()
    with pytest.raises(PrecisionExhausted):
        (ctx.one() - ctx.one()).inverse()


def test_zp_inverse_is_the_inverse_mod_p_power_and_refuses_non_units():
    """The Z_p inverse (one `pow`) is the one integer in [0, p^N) that
    inverts u; a non-unit raises ZeroDivisionError in Z_p as in Z_q."""
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        ctx = Zp(p, prec=20)
        for N in (1, 2, 7, 20):
            for _ in range(20):
                u = rng.randrange(1, p ** N)
                if u % p == 0:
                    continue
                (inv,) = ctx._zq_inv_ints([u], N)
                assert 0 <= inv < p ** N and u * inv % p ** N == 1
    with pytest.raises(ZeroDivisionError):
        padics.QqElement(Zp(5, prec=10), "n", 0, (10,), 10, 0).inverse()
    with pytest.raises(ZeroDivisionError):
        QqContext(3, 2, prec=10)._zq_inv_ints([3, 6], 10)


def test_frobenius_fixes_prime_subfield_and_has_order_a():
    ctx = QqContext(3, 2, prec=16)
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [rng.randrange(3 ** 10), rng.randrange(3 ** 10)]
        if all(c % 3 == 0 for c in coeffs):
            coeffs[0] += 1
        x = ctx.from_vector(coeffs)
        assert x.frobenius().frobenius().same_value(x)
        # sigma reduces to x -> x^p on the residue field: compare the unit
        # parts mod (m, p), both at valuation x.val
        sigma_x = [c % 3 for c in x.frobenius().coeffs]
        assert sigma_x == _powmod(x.coeffs, 3, ctx.modulus, 3)
    y = ctx.from_int(7)
    assert y.frobenius().same_value(y)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_frobenius_is_evaluation_at_the_lifted_root(p):
    """sigma(c_0 + c_1 x + ...) = c_0 + c_1 s + ... with s = sigma(x), the
    Hensel root of m lifting x^p, evaluated here by `_mulmod` at the
    element's precision."""
    rng = random.Random(200 + p)
    for a in (2, 3):
        ctx = QqContext(p, a, prec=20)
        s = ctx.from_vector([0, 1] + [0] * (a - 2)).frobenius()
        assert s.val == 0 and s.rel == 20
        assert [c % p for c in s.coeffs] == _powmod([0, 1], p, ctx.modulus, p)
        for _ in range(10):
            rel = rng.randrange(1, 21)
            x = padics.QqElement(ctx, "n", rng.randrange(-3, 4), tuple(
                rng.randrange(p ** rel) for _ in range(a)), rel, 0)
            if not any(c % p for c in x.coeffs):
                continue
            cap = p ** rel
            want, power = [0] * a, [1] + [0] * (a - 1)
            for c in x.coeffs:
                want = [(w + c * u) % cap for w, u in zip(want, power)]
                power = _mulmod(power, list(s.coeffs), ctx.modulus, cap)
            y = x.frobenius()
            assert (y.val, y.rel, list(y.coeffs)) == (x.val, rel, want)


def test_frobenius_is_a_ring_map():
    ctx = QqContext(5, 3, prec=12)
    rng = random.Random(23)
    for _ in range(10):
        x = ctx.from_vector([rng.randrange(1, 5 ** 8) for _ in range(3)])
        y = ctx.from_vector([rng.randrange(1, 5 ** 8) for _ in range(3)])
        assert (x + y).frobenius().same_value(x.frobenius() + y.frobenius())
        assert (x * y).frobenius().same_value(x.frobenius() * y.frobenius())


def test_from_vector_extracts_content():
    ctx = QqContext(5, 2, prec=10)
    x = ctx.from_vector((25, 10))
    assert x.val == 1
    assert x.coeffs == (5, 2)
    with pytest.raises(ValidationError):
        ctx.from_vector((1, 2, 3))


def test_certify_guard_policy():
    ctx = Zp(5, prec=32)       # guard defaults to 8
    ctx.certify(ctx.from_int(3))
    with pytest.raises(PrecisionExhausted):
        ctx.certify(ctx.from_vector([3], rel=4))
    with pytest.raises(PrecisionExhausted):
        ctx.certify(ctx.ifz(5))
    ctx.certify(ctx.zero())    # exact zero always passes


def test_shift_is_exact():
    ctx = Zp(5, prec=10)
    x = ctx.from_int(7)
    assert x.shift(3).val == 3
    assert x.shift(3).shift(-3).same_value(x)


def test_context_searches_its_minimal_polynomial_once(monkeypatch):
    """Z_q takes its modulus from its residue field, which builds it."""
    calls = []
    search = padics.minimal_polynomial
    monkeypatch.setattr(padics, "minimal_polynomial",
                        lambda p, a: calls.append((p, a)) or search(p, a))
    field.cache_clear()
    ctx = QqContext(3, 2)
    assert calls == [(3, 2)]
    assert ctx.modulus == ctx.residue_field.modulus == tuple(search(3, 2))


def test_context_primality_validation():
    with pytest.raises(ValidationError):
        Zp(6)
    with pytest.raises(ValidationError):
        QqContext(4, 2)


def test_field_and_context_caches_are_bounded_and_evict_the_oldest():
    """`field` and `context` keep CACHE_SIZE entries each: building one more
    drops the least recently used, which is then built afresh."""
    primes = [p for p in range(2, 200) if prime_divisors(p) == [p]]
    for build, keys in ((field, [(p, 1) for p in primes]),
                        (context, [(5, 1, prec) for prec in range(1, 100)])):
        build.cache_clear()
        keys = keys[:padics.CACHE_SIZE + 1]
        first = build(*keys[0])
        assert build(*keys[0]) is first
        for key in keys[1:]:
            build(*key)
        assert build.cache_info().currsize == padics.CACHE_SIZE
        assert build(*keys[-1]) is build(*keys[-1])
        again = build(*keys[0])
        assert again is not first
        assert (again.p, again.modulus) == (first.p, first.modulus)


def test_refused_fields_and_contexts_raise_on_every_call():
    """Exceptions are not cached, and a cached entry never answers for an
    argument of another type that compares equal to its key."""
    Zp(5, prec=64)
    for _ in range(2):
        for args in ((4, 2), (5, 1, 0), (5, 1, MAX_PRECISION + 1),
                     (5, MAX_DEGREE + 1), (5.0, 1, 64)):
            with pytest.raises(ValidationError):
                context(*args)
        for args in ((6, 1), (5, 2 * MAX_DEGREE + 1), (5.0, 1)):
            with pytest.raises(ValidationError):
                field(*args)
    assert Zp(5, prec=64) is context(5, 1, 64)
