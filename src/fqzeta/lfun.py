"""Zeta functions of varieties over finite fields as exact rational functions.

A zeta function is stored as a reduced fraction num/den with rational
coefficients (constant terms 1), assembled from the per-degree factors
det(1 - t F | H^j).  `fqzeta zeta` prints it and compares its Taylor series
with the Euler product over closed points; the verifier reads the pole
order and leading coefficient at t = q^{-r} off the factors instead
(`specialvalues`).  The Taylor series is one series quotient,
s_n = num_n - sum_i den_i s_{n-i} (`rational_series`).  The Euler product
is another algorithm, one power-sum recurrence: its logarithm sums
tr(F^e) t^e / e over the closed points, and Newton's identities
n g_n = sum_{k=1..n} s_k g_{n-k} turn those power sums s_e into the
coefficients g_n in O(T^2) operations through t^T (A. Bostan, P. Flajolet,
B. Salvy, E. Schost, "Fast computation of special resultants", J. Symbolic
Comput. 2006).  So the two sides of the `euler_match` of `fqzeta zeta`
share no series code.  Both series stop at MAX_TRUNCATION.  There is no
floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .padics import rational_valuation
from .polys import (
    from_power_sums,
    integral_scaling,
    poly_mul,
    poly_trim,
    power_sums,
    rev_charpoly_fractions,
)

# Largest series order T of `euler_product_series` and `rational_series`
# (`fqzeta zeta --truncation`): both are O(T^2) operations on integers of
# O(T log q) digits.
MAX_TRUNCATION = 64


def check_truncation(truncation):
    """The series order as an int; ValidationError unless it lies in
    [0, MAX_TRUNCATION]."""
    order = int(truncation)
    if not 0 <= order <= MAX_TRUNCATION:
        raise ValidationError(f"truncation must be in [0, {MAX_TRUNCATION}], "
                              f"got {truncation}")
    return order


def _poly_divmod(f, g):
    """Quotient and remainder over Fractions (g nonzero)."""
    f = [Fraction(c) for c in f]
    g = poly_trim([Fraction(c) for c in g])
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    lead = g[-1]
    while len(poly_trim(f)) >= len(g):
        f = poly_trim(f)
        shift = len(f) - len(g)
        c = f[-1] / lead
        q[shift] = c
        for i, gc in enumerate(g):
            f[shift + i] -= c * gc
    return poly_trim(q), poly_trim(f)


def _poly_gcd(f, g):
    """Monic-at-constant gcd (constant term scaled to 1 when possible)."""
    a, b = poly_trim(list(f)), poly_trim(list(g))
    while b:
        b = [c / b[-1] for c in b]
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a and a[0] != 0:
        a = [c / a[0] for c in a]
    elif a:
        a = [c / a[-1] for c in a]
    return a


class RationalFunction:
    """Reduced fraction of polynomials in t with rational coefficients."""

    def __init__(self, num, den):
        num = poly_trim([Fraction(c) for c in num])
        den = poly_trim([Fraction(c) for c in den])
        if not num:
            raise ValidationError("zero rational function is not a zeta function")
        if not den or den[0] == 0:
            raise ValidationError("denominator needs a nonzero constant term")
        scale = den[0]
        num = [c / scale for c in num]
        den = [c / scale for c in den]
        g = _poly_gcd(num, den)
        if len(g) > 1:
            num, _ = _poly_divmod(num, g)
            den, _ = _poly_divmod(den, g)
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num), tuple(self.den)))

    def __repr__(self):
        return f"RationalFunction(num={self.num}, den={self.den})"


def assemble(factors_by_degree):
    """Alternating product over cohomological degrees of det(1 - t F | H^j).

    Every factor must have constant term 1; odd j go to the numerator, even
    j to the denominator.  An empty dict gives the constant function 1.
    """
    num, den = [Fraction(1)], [Fraction(1)]
    for j in sorted(factors_by_degree):
        coeffs = poly_trim([Fraction(c) for c in factors_by_degree[j]])
        if not coeffs or coeffs[0] != 1:
            raise ValidationError(
                f"factor in degree {j} must have constant term 1")
        if j % 2:
            num = poly_mul(num, coeffs)
        else:
            den = poly_mul(den, coeffs)
    return RationalFunction(num, den)


def abs_valuation_inverse(x, prime):
    """1/|x|_p = p^{v_p(x)} for a nonzero rational x, as an exact Fraction."""
    x = Fraction(x)
    if x == 0:
        raise ValidationError("valuation of zero requested")
    return Fraction(prime) ** rational_valuation(x, prime)


def euler_product_series(closed_counts, truncation=10, frobenius=None):
    """Coefficients of prod_v det(1 - t^{deg v} F_v)^{-1} through t^truncation.

    closed_counts maps a degree d to the number a_d of closed points of
    that degree; every degree is validated, and those above the truncation
    order contribute nothing.  `frobenius`, when given, is the rational
    matrix of the twisting Frobenius on the fibre at a rational point, and
    a degree-d point contributes det(1 - t^d F^d)^{-1}; without it each
    local factor is (1 - t^d)^{-1}.

    The logarithm of the product is sum_e s_e t^e / e with
    s_e = tr(F^e) sum_{d | e} d a_d, so its coefficients g_n satisfy
    n g_n = sum_{k=1..n} s_k g_{n-k}, g_0 = 1: `from_power_sums` of the
    negated s_e, O(T^2) operations and no power of a series
    (Bostan-Flajolet-Salvy-Schost 2006).  tr(F^e) are the power sums of
    det(1 - tF); scaling t by the lcm d of its denominators keeps every
    step over the integers, and the coefficient of t^n is divided by d^n.
    """
    order = check_truncation(truncation)
    sums = [0] * order              # sums[e - 1] = sum_{d | e} d a_d
    for key in sorted(closed_counts):
        count, d = int(closed_counts[key]), int(key)
        if d <= 0:
            raise ValidationError("closed-point degrees must be positive")
        if count < 0:
            raise ValidationError(f"negative closed-point count in degree {d}")
        for e in range(d, order + 1, d):
            sums[e - 1] += d * count
    scale = 1
    if frobenius is not None:
        if any(len(row) != len(frobenius) for row in frobenius):
            raise ValidationError("frobenius must be a square matrix")
        scale, char = integral_scaling(rev_charpoly_fractions(frobenius))
        sums = [s * tr for s, tr in zip(sums, power_sums(char, order))]
    return [Fraction(c, scale ** n)
            for n, c in enumerate(from_power_sums([-s for s in sums]))]


def rational_series(zeta, truncation=10):
    """Taylor coefficients s_n of zeta(t) = num/den at t = 0, through
    t^truncation, as Fractions.

    One series quotient: den s = num and den_0 = 1 (`RationalFunction`
    scales it so) give s_n = num_n - sum_{1 <= i <= min(n, deg den)}
    den_i s_{n-i}, O(T deg den) operations.
    """
    order = check_truncation(truncation)
    num, den = zeta.num, zeta.den
    series = []
    for n in range(order + 1):
        s = num[n] if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            s -= den[i] * series[n - i]
        series.append(s)
    return series
