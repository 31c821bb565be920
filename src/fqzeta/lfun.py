"""Zeta functions of varieties over finite fields as exact rational functions.

A zeta function is stored as a reduced fraction num/den with rational
coefficients (constant terms 1), assembled from the per-degree factors
det(1 - t F | H^j).  `fqzeta zeta` prints it and compares its Taylor series
with the Euler product over closed points; the verifier reads the pole
order and leading coefficient at t = q^{-r} off the factors instead
(`specialvalues`).  There is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .padics import rational_valuation
from .polys import (
    mat_pow_fractions,
    poly_inverse_series,
    poly_mul,
    poly_mul_trunc,
    poly_pow_trunc,
    poly_trim,
    poly_truncate,
    rev_charpoly_fractions,
)


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


def euler_product_series(closed_counts, truncation=10, frobenius=None):
    """Coefficients of prod_v det(1 - t^{deg v} F_v)^{-1} through t^truncation.

    closed_counts maps a degree d to the number of closed points of that
    degree; degrees above the truncation order contribute nothing and are
    skipped.  `frobenius`, when given, is the rational matrix of the twisting
    Frobenius on the fibre at a rational point, and a degree-d point
    contributes det(1 - t^d F^d)^{-1}; without it each local factor is
    (1 - t^d)^{-1}.
    """
    order = int(truncation)
    if order < 0:
        raise ValidationError("truncation order must be non-negative")
    series = [Fraction(1)] + [Fraction(0)] * order
    for d in sorted(closed_counts):
        count = int(closed_counts[d])
        if int(d) <= 0:
            raise ValidationError("closed-point degrees must be positive")
        if count < 0:
            raise ValidationError(f"negative closed-point count in degree {d}")
        if int(d) > order or count == 0:
            continue
        inv = poly_inverse_series(_local_factor(int(d), frobenius), order)
        series = poly_mul_trunc(series, poly_pow_trunc(inv, count, order),
                                order)
    return series


def rational_series(zeta, truncation=10):
    """Taylor coefficients of zeta(t) = num/den at t = 0, through t^truncation."""
    order = int(truncation)
    inv_den = poly_inverse_series(zeta.den, order)
    return poly_mul_trunc(poly_truncate(zeta.num, order), inv_den, order)
