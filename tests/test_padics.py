"""Fixed-precision p-adic and W(F_q) arithmetic."""

import random
from fractions import Fraction

import pytest

from fqzeta import padics
from fqzeta.errors import PrecisionExhausted, ValidationError
from fqzeta.padics import (
    MAX_DEGREE,
    MAX_PRECISION,
    FiniteField,
    QqContext,
    Zp,
    _fp_mod,
    _fp_trim,
    _is_irreducible,
    _powmod,
    context,
    field,
    int_valuation,
    rational_valuation,
)


def _fp_mul(f, g, p):
    """Schoolbook product over F_p, trimmed: the oracle for the shared
    multiply-and-reduce kernel."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _fp_trim(out)


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
            assert F.add(u, v) == ((x + y) % 7,)
            assert F.mul(u, v) == ((x * y) % 7,)


def test_finite_field_f9_inverses_and_frobenius():
    F = FiniteField(3, 2)
    elems = list(F.elements())
    assert len(elems) == 9
    for u in elems:
        if F.is_zero(u):
            continue
        assert F.mul(u, F.inv(u)) == F.one
        # x^(q-1) = 1 and Frobenius^2 = identity
        assert F.pow(u, 8) == F.one
        assert F.pow(F.pow(u, 3), 3) == u


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


def test_finite_field_ops_counter():
    F = FiniteField(5, 1)
    assert F.mul((2,), (3,)) == (1,)
    assert F.inv((2,)) == (3,)
    assert F.add((1,), (2,)) == (3,)


def _square_and_multiply_calls(e):
    """Products made by the loop FiniteField.pow has always run."""
    calls = 0
    while e:
        if e & 1:
            calls += 1
        calls += 1
        e >>= 1
    return calls


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_finite_field_pow_bills_the_same_operations(p):
    rng = random.Random(p)
    for k in (1, 2, 3):
        F = FiniteField(p, k)
        u = F.zero
        while u == F.zero:
            u = tuple(rng.randrange(p) for _ in range(k))
        calls = []
        mul = F.mul
        F.mul = lambda v, w: calls.append(1) or mul(v, w)
        for e in range(41):
            calls.clear()
            F.pow(u, e)
            assert len(calls) == _square_and_multiply_calls(e)
        calls.clear()
        F.inv(u)
        assert len(calls) == _square_and_multiply_calls(F.order - 2)


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
    primes = [p for p in range(2, 200) if padics._is_prime(p)]
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
