"""The all-Fraction deflation kernels that the library used before its
integral coefficients became `int`: every coefficient and every partial
value is wrapped in `fractions.Fraction`, and q^r is a Fraction power.
They are the oracle for the int-where-integral path of `polys` and
`isocrystals.eigenproduct_excluding` (tests/test_integer_path.py) and
evaluate whole zeta functions in tests/test_lfun.py.
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
