"""F-isocrystals over F_q: linearization, Newton slopes, eigenvalue products.

An isocrystal is a pair (Q_q^n, F) with F(v) = A sigma(v) for an invertible
matrix A.  Its linearization M = A sigma(A) ... sigma^{a-1}(A) is an honest
linear operator, and det(1 - tM) carries the Newton polygon.  Everything an
eigenvalue would be needed for is read off polynomials instead: polygons,
kernel ranks, deflated evaluations.  No root extraction, no splitting fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import DegenerateCrystal, PrecisionExhausted, ValidationError
from .padics import rational_valuation
from .plinalg import (certified_zero, kernel_rank, mat_copy, mat_from_ints,
                      mat_mul, mat_sigma)
from .polys import poly_eval, poly_trim, rev_charpoly, root_multiplicity


class Isocrystal:
    """(Q_q^n, v -> A sigma(v)) at the precision of the context."""

    def __init__(self, ctx, matrix):
        n = len(matrix)
        if any(len(r) != n for r in matrix):
            raise ValidationError("Frobenius matrix must be square")
        self.ctx = ctx
        self.matrix = [list(r) for r in matrix]
        self.rank = n

    @classmethod
    def from_ints(cls, ctx, rows):
        return cls(ctx, mat_from_ints(ctx, rows))

    def direct_sum(self, other):
        if self.ctx is not other.ctx:
            raise ValidationError("direct sum across contexts")
        z = self.ctx.zero()
        return Isocrystal(self.ctx,
                          [row + [z] * other.rank for row in self.matrix]
                          + [[z] * self.rank + row for row in other.matrix])

    def linearize(self):
        """M(F^a) = A sigma(A) ... sigma^{a-1}(A); equals A when a = 1."""
        M = self.matrix
        for k in range(1, self.ctx.a):
            M = mat_mul(M, mat_sigma(self.matrix, k))
        return mat_copy(M)

    def charpoly(self):
        """det(1 - t M(F^a)) with QqElement coefficients, constant term 1;
        an entry counts as zero where the Smith form would certify it."""
        ctx = self.ctx
        return rev_charpoly(self.linearize(), ctx.zero(), ctx.one(), lambda x:
                            None if certified_zero(x, 0, ctx.guard)
                            else x.valuation())

    def slopes(self):
        return newton_slopes_qq(self.charpoly(), self.ctx)


# ---------------------------------------------------------------------------
# Newton polygons


def lower_hull(points):
    """Lower convex hull of (x, y) points with distinct increasing x."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def polygon_value(verts, x):
    """Height at abscissa x of the polygon through `verts` (x increasing)."""
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        if x1 <= x <= x2:
            return y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)
    raise ValidationError("abscissa outside polygon")


def _profile_from_points(points, zero_bounds, n, a):
    """Slope profile from certified (i, v_p) points.

    `zero_bounds` lists (i, bound) for coefficients known only to be O(p^b);
    the hull must stay below every bound, else the polygon is uncertified.
    """
    if not points or points[0][0] != 0:
        raise ValidationError("polynomial must have unit constant term")
    if points[-1][0] != n:
        raise DegenerateCrystal(
            "leading coefficient vanishes at this precision: "
            "Frobenius is not invertible")
    hull = lower_hull(points)
    for i, bound in zero_bounds:
        y = polygon_value(hull, i)
        if bound < y:
            raise PrecisionExhausted(
                f"coefficient {i} known only to O(p^{bound}) but the "
                f"Newton polygon needs its valuation >= {y}")
    profile = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        profile.append((s / a, x2 - x1))
    return profile


def newton_slopes_qq(coeffs, ctx):
    """Slope profile [(ord_q slope, multiplicity)] of a QqElement polynomial.

    Polygon of (i, v_p(c_i)); slopes divided by a so they are in ord_q units.
    """
    n = len(coeffs) - 1
    points, zero_bounds = [], []
    for i, c in enumerate(coeffs):
        if c.is_exact_zero():
            continue
        if c.is_ifz():
            zero_bounds.append((i, c.abs))
            continue
        points.append((i, c.valuation()))
    return _profile_from_points(points, zero_bounds, n, ctx.a)


def newton_slopes_exact(coeffs, p, a):
    """Slope profile of an exact integer/Fraction polynomial."""
    coeffs = poly_trim(coeffs)
    points = [(i, rational_valuation(c, p))
              for i, c in enumerate(coeffs) if c != 0]
    return _profile_from_points(points, [], len(coeffs) - 1, a)


# ---------------------------------------------------------------------------
# semisimplicity at q^r and eigenvalue products


def semisimple_at(E, r, m):
    """Is the linearization M semisimple at the eigenvalue q^r?

    m is the multiplicity of q^r as an inverse root of the degree's factor
    P.  When the crystal realises P, which the package decoder checks and
    `package()` guarantees, m is the algebraic multiplicity of q^r on M, so
    M is semisimple there exactly when the eigenspace has dimension m: one
    kernel rank of M - q^r, with no minimal polynomial and no square.
    """
    c = E.ctx.one().shift(E.ctx.a * r)
    return kernel_rank([[x - c if i == j else x for j, x in enumerate(row)]
                        for i, row in enumerate(E.linearize())]) == m


EigenProduct = namedtuple("EigenProduct", "m value slope_sum")
# m: multiplicity of q^r as an inverse root of P; value: the deflated
# polynomial at q^{-r} (exact Fraction); slope_sum: sum over ord_q-slopes
# s < r of (r - s) * multiplicity.


def eigenproduct_excluding(P, p, a, r, profile):
    """Product data for prod_{alpha != q^r} (1 - alpha/q^r) and the slope term.

    P is the exact zeta factor det(1 - t F^a) with Fraction/int coefficients;
    the first product is evaluated by deflating (1 - q^r t)^m out of P and
    evaluating at q^{-r}; the second is read off the Newton polygon.  A
    repeated q^r needs semisimplicity, which the verifier checks first.
    """
    q_r = Fraction(p) ** (a * r)
    m, cur = root_multiplicity(P, q_r)
    value = poly_eval(cur, 1 / q_r)
    if value == 0:
        raise ValidationError("deflation failed to remove all q^r roots")
    slope_sum = sum((Fraction(r) - s) * mult for s, mult in profile if s < r)
    return EigenProduct(m, value, slope_sum)


# ---------------------------------------------------------------------------
# purity pairing


class PurityResult:
    """Outcome of the weight-w pairing test on an integer zeta factor."""

    __slots__ = ("pairing_ok",)

    def __init__(self, pairing_ok):
        self.pairing_ok = pairing_ok

    def __bool__(self):
        return self.pairing_ok

    def __repr__(self):
        return f"PurityResult(pairing_ok={self.pairing_ok})"


def purity_check(P, w, q):
    """Necessary pairing condition for weight w: inverse roots stable under
    alpha -> q^w/alpha, as the coefficient identity c_j c_n = c_{n-j} q^{wj}.
    """
    coeffs = poly_trim(Fraction(c) for c in P)
    n = len(coeffs) - 1
    if n <= 0:
        return PurityResult(coeffs == [1])
    c_n = coeffs[n]
    return PurityResult(all(
        coeffs[j] * c_n == coeffs[n - j] * Fraction(q) ** (w * j)
        for j in range(n + 1)))
