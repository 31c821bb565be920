"""Zeta functions of varieties over finite fields as exact rational functions.

A zeta function is stored as a reduced fraction num/den with rational
coefficients (constant terms 1), assembled from the per-degree factors
det(1 - t F | H^j), multiplied as they are (int where integral).  num/den
are reduced in Z[t] by the modular gcd (`_gcd_z`; von zur Gathen-Gerhard,
Modern Computer Algebra, 6.4-6.5): Euclid's algorithm in F_ell[t], first
for Mersenne primes ell, images of equal degree joined by the Chinese
remainder theorem, and a candidate accepted on exact division over Z.
Euclid's algorithm over Q, whose coefficients blow up with the degree, is
its test oracle (tests/fraction_oracles.py).  `fqzeta zeta` prints it and
compares its Taylor series with the Euler product over closed points; the
verifier reads the pole order and leading coefficient at t = q^{-r} off
the factors instead (`specialvalues`).  The Taylor series is one series
quotient, s_n = num_n - sum_i den_i s_{n-i} (`rational_series`).  The
Euler product is another algorithm, one power-sum recurrence: its
logarithm sums tr(F^e) t^e / e over the closed points, and Newton's
identities n g_n = sum_{k=1..n} s_k g_{n-k} turn those power sums s_e into
the coefficients g_n in O(T^2) operations through t^T (A. Bostan,
P. Flajolet, B. Salvy, E. Schost, "Fast computation of special
resultants", J. Symbolic Comput. 2006).  So the two sides of the
`euler_match` of `fqzeta zeta` share no series code.  Both series stop at
MAX_TRUNCATION.  There is no floating point arithmetic anywhere in this
module: a float coefficient is read exactly by `Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .padics import prime_divisors, rational_valuation
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


# The first moduli of the modular gcd (`_gcd_z`), tried in this order: the
# Mersenne primes 2^k - 1 for these k, known primes, so none is tested.
_GCD_PRIMES = tuple(2 ** k - 1 for k in (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937))


def _moduli():
    """`_GCD_PRIMES`, then the primes below 2^31 downwards, found by trial
    division (`prime_divisors`): a supply no gcd over Z exhausts.  The
    tail is reached only past the product of `_GCD_PRIMES`, about 2^69948."""
    yield from _GCD_PRIMES
    yield from (n for n in range(2 ** 31 - 1, 2 ** 30, -2)
                if prime_divisors(n) == [n])


def _rational(c):
    """c as it is when an int or a Fraction, else Fraction(c) (floats,
    Decimals, strings such as "1/2")."""
    return c if type(c) in (int, Fraction) else Fraction(c)


def _primitive(f):
    """(c, F) with f = c F, c a Fraction and F a primitive list of ints
    (f nonzero; ints and Fractions alike carry numerator/denominator)."""
    lcm = math.lcm(*(c.denominator for c in f))
    F = [c.numerator * (lcm // c.denominator) for c in f]
    content = math.gcd(*F)
    return Fraction(content, lcm), [c // content for c in F]


def _z_quotient(F, h):
    """F / h in Z[t], or None unless h divides F there; h[0] != 0.

    Synthetic division from the constant end, so the first coefficient
    that h[0] does not divide, or a nonzero top, refutes h | F.
    """
    n = len(F) - len(h)
    if n < 0:
        return None
    rem, quotient = list(F), []
    for i in range(n + 1):
        c, r = divmod(rem[i], h[0])
        if r:
            return None
        quotient.append(c)
        if c:
            for j in range(1, len(h)):
                rem[i + j] -= c * h[j]
    return quotient if not any(rem[n + 1:]) else None


def _gcd_mod(a, b, ell):
    """Monic gcd in F_ell[s] of two trimmed lists of residues (b nonzero),
    by Euclid's algorithm."""
    while b:
        inv = pow(b[-1], -1, ell)
        deg = len(b) - 1
        a = list(a)
        for k in range(len(a) - 1 - deg, -1, -1):
            c = a[k + deg] * inv % ell
            if c:
                a[k:k + deg] = [(x - c * y) % ell
                                for x, y in zip(a[k:k + deg], b)]
        a, b = b, poly_trim(a[:deg])
    inv = pow(a[-1], -1, ell)
    return [c * inv % ell for c in a]


def _gcd_z(F, G):
    """(h, F / h, G / h) for the primitive gcd h in Z[t] of primitive F, G
    with F(0), G(0) != 0.

    The modular gcd (von zur Gathen-Gerhard, Modern Computer Algebra, 6.4
    and 6.5; W. S. Brown 1971), read from the constant end.  h(0) divides
    b = gcd(F(0), G(0)), and reversed, h(0) is the leading coefficient.
    So for a prime ell dividing neither b nor both leading coefficients,
    h mod ell keeps its degree and divides the gcd of F, G in F_ell[t]
    (Euclid on the reversed lists, `_gcd_mod`): a gcd of degree 0 there
    proves F, G coprime, and its degree is never below deg h.  Scaled to
    constant term b, the gcds of the moduli of least degree so far are
    images of one polynomial (b / h(0)) h when that degree is deg h, and
    are joined by the Chinese remainder theorem; a modulus of larger
    degree is skipped, and one of smaller degree starts over.  Each
    joined image, lifted to symmetric residues and made primitive, has
    degree >= deg h (its top is a unit mod every joined modulus); if it
    divides F and G in Z[t] it is h.  Once the joined moduli exceed twice
    the coefficients of (b / h(0)) h, it does, so `_moduli` never runs
    out.  The division is tried on the first image of a degree and then
    only when joining one more modulus left the lift unchanged.
    """
    b, top = math.gcd(F[0], G[0]), math.gcd(F[-1], G[-1])
    image = None
    for ell in _moduli():
        if b % ell == 0 or top % ell == 0:
            continue
        rev = _gcd_mod(poly_trim(c % ell for c in reversed(F)),
                       poly_trim(c % ell for c in reversed(G)), ell)
        if len(rev) == 1:
            return [1], F, G
        residues = [c * b % ell for c in reversed(rev)]
        if image is None or len(residues) < len(image):
            image, modulus, last = residues, ell, None
        elif len(residues) > len(image):
            continue
        else:
            u = pow(modulus, -1, ell)
            image = [x + modulus * ((y - x) * u % ell)
                     for x, y in zip(image, residues)]
            modulus *= ell
        h = _primitive([c - modulus if 2 * c > modulus else c
                        for c in image])[1]
        if last is None or h == last:
            F_h = _z_quotient(F, h)
            G_h = _z_quotient(G, h) if F_h is not None else None
            if G_h is not None:
                return h, F_h, G_h
        last = h


class RationalFunction:
    """Reduced fraction of polynomials in t with rational coefficients,
    stored as Fraction lists with den[0] = 1.

    Coefficients may be ints, Fractions or anything `Fraction` reads.
    num and den are reduced in Z[t]: each is a rational times a primitive
    integer polynomial, and both are divided exactly by their primitive
    gcd (`_gcd_z`) there.
    """

    def __init__(self, num, den):
        num = poly_trim(_rational(c) for c in num)
        den = poly_trim(_rational(c) for c in den)
        if not num:
            raise ValidationError("zero rational function is not a zeta function")
        if not den or den[0] == 0:
            raise ValidationError("denominator needs a nonzero constant term")
        (c_num, N), (c_den, D) = _primitive(num), _primitive(den)
        v = next(i for i, c in enumerate(N) if c)
        _, N, D = _gcd_z(N[v:], D)
        N = [0] * v + N
        scale = c_num / (c_den * D[0])
        self.num = [scale * c for c in N]
        self.den = [Fraction(c, D[0]) for c in D]

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
    The factors are multiplied as they are: int where integral, Fraction
    only where a coefficient is not (other coefficients, such as floats
    or strings, are read by `Fraction`).
    """
    num, den = [1], [1]
    for j in sorted(factors_by_degree):
        coeffs = poly_trim(_rational(c) for c in factors_by_degree[j])
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
