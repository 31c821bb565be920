"""The all-Fraction kernels that the library used before its integral
coefficients became `int`: every coefficient and every partial value is
wrapped in `fractions.Fraction`, and q^r is a Fraction power.  The
deflation kernels are the oracle for the int-where-integral path of
`polys` and `isocrystals.eigenproduct_excluding`
(tests/test_integer_path.py) and evaluate whole zeta functions in
tests/test_lfun.py.  `poly_divmod` and `euclid_gcd` reduced num/den of
`lfun.RationalFunction` before its modular gcd over Z; they are
the oracle for that gcd in tests/test_lfun.py.
"""

from fractions import Fraction

from fqzeta.errors import ValidationError
from fqzeta.isocrystals import EigenProduct
from fqzeta.polys import poly_trim


def poly_eval(f, x):
    """f(x) by Horner's rule, from Fraction(0)."""
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def deflate_once(coeffs, c):
    """(quotient, remainder) of division by (1 - c t), synthetically."""
    b, prev = [], Fraction(0)
    for a in coeffs:
        prev = Fraction(a) + c * prev
        b.append(prev)
    return b[:-1], b[-1]


def root_multiplicity(coeffs, c):
    """Multiplicity of c as an inverse root, and the deflated polynomial."""
    cur = poly_trim(Fraction(x) for x in coeffs)
    m = 0
    while len(cur) > 1:
        quo, rem = deflate_once(cur, c)
        if rem != 0:
            break
        m += 1
        cur = quo
    return m, cur


def eigenproduct_excluding(P, p, a, r, profile):
    """Deflate (1 - q^r t)^m out of P and evaluate at q^{-r} by Horner's
    rule over Fractions; the slope sum off the profile."""
    q_r = Fraction(p) ** (a * r)
    m, cur = root_multiplicity(P, q_r)
    value = poly_eval(cur, 1 / q_r)
    if value == 0:
        raise ValidationError("deflation failed to remove all q^r roots")
    slope_sum = sum((Fraction(r) - s) * mult for s, mult in profile if s < r)
    return EigenProduct(m, value, slope_sum)


def poly_divmod(f, g):
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


def euclid_gcd(f, g):
    """gcd over Q by Euclid's algorithm on monic divisors, with constant
    term 1, or leading coefficient 1 when the constant term is 0."""
    a = poly_trim([Fraction(c) for c in f])
    b = poly_trim([Fraction(c) for c in g])
    while b:
        b = [c / b[-1] for c in b]
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a and a[0] != 0:
        a = [c / a[0] for c in a]
    elif a:
        a = [c / a[-1] for c in a]
    return a
