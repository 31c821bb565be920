"""Hodge gauges of crystals on the standard lattice: filtrations M^i and
Hodge numbers.

The gauge functor computes M^i = F^{-1}(p^i N) ∩ N for a lattice N, and it
depends only on Frobenius seen from N: for a basis B of N that is the matrix
Atilde = B^{-1} A sigma(B) on N = Z_q^n.  `serialize.decode_virtual_crystal`
makes that change of basis once, where a document is read, so every crystal
here is on the standard lattice N = Z_q^n and Atilde is its `matrix`.

The gauge is a closed form in the elementary divisors p^{e_k} of Atilde
(B. Mazur, "Frobenius and the Hodge filtration", Bull. AMS 1972 and Ann. of
Math. 1973): one Smith form Atilde = U diag(p^{e_k}) V gives the window
[min e_k, max e_k], outside of which the filtration is forced (M^i = N
below, M^{i+1} = p M^i above), the lattices M^i, and the Hodge numbers
h^i = dim_k M^i/(M^{i+1} + pM^{i-1}) = #{k : e_k = i}.  Hence sum h^i = rank
and sum i*h^i = v_p(det) hold by construction.

The Newton polygon always lies on or above the Hodge polygon with the same
endpoints; both polygons are emitted for inspection.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import DegenerateCrystal, NotTypeI, ValidationError
from .isocrystals import Isocrystal, polygon_value, tally
from .plinalg import (mat_identity, mat_inverse, mat_min_valuation, mat_mul,
                      mat_shift, mat_sigma, mat_vec, smith_normal_form)


class FGaugeWindow:
    """The computed gauge of a crystal on the standard lattice N = Z_q^n:
    window bounds, lattices M^i, Hodge numbers.

    Everything is read off the Smith form of Frobenius on N: its elementary
    divisors p^{e_k} and, once `lattice_at` asks for it, the basis
    W = sigma^{-1}(V^{-1}) of N adapted to them (see `hodge`).
    `lattice_at` builds M^i = W diag(p^{max(0, i - e_k)}) in N-coordinates.
    """

    def __init__(self, ctx, snf):
        self.ctx = ctx
        self._snf = snf                 # Smith form of Frobenius on N
        self._exponents = exponents = snf.divisors  # e_k, per column of W
        self.i_min, self.i_max = min(exponents), max(exponents)
        self.hodge_numbers = tally((e, 1) for e in sorted(exponents))
        self.det_val = sum(exponents)

    def lattice_at(self, i):
        basis = mat_sigma(self._snf.V_inv, self.ctx.a - 1)
        return [[x.shift(max(0, i - e)) for x, e in zip(row, self._exponents)]
                for row in basis]

    def hodge_polygon(self):
        """Vertices of the polygon with slope i over length h^i."""
        return newton_polygon_vertices(sorted(self.hodge_numbers.items()))


def hodge(E: Isocrystal) -> FGaugeWindow:
    """The gauge M^i = F^{-1}(p^i N) ∩ N of a crystal on the standard lattice
    N = Z_q^n, from one Smith form.

    Write Atilde = U diag(p^{e_k}) V with U, V in GL_n(Z_q).  As U is
    invertible over Z_q and N is sigma-stable, F(x) = Atilde sigma(x) lies
    in p^i N exactly when (V sigma(x))_k lies in p^{i - e_k} Z_q for every k,
    so M^i has basis sigma^{-1}(V^{-1}) diag(p^{max(0, i - e_k)}).  Hence
    h^i = #{k : e_k = i} and the window is [min e_k, max e_k]: Mazur's theorem
    that the Hodge polygon is the polygon of the elementary divisors of
    Frobenius.
    """
    try:
        snf = smith_normal_form(E.matrix)
    except ValidationError as exc:
        raise DegenerateCrystal(str(exc)) from exc
    if any(e is None for e in snf.divisors):
        raise DegenerateCrystal("Frobenius is singular at working precision")
    return FGaugeWindow(E.ctx, snf)


# ---------------------------------------------------------------------------
# slope-gauge comparison


def newton_polygon_vertices(profile):
    verts = [(0, Fraction(0))]
    x, y = 0, Fraction(0)
    for s, m in profile:
        x, y = x + m, y + Fraction(s) * m
        verts.append((x, y))
    return verts


def slope_gauge_check(E: Isocrystal, g: FGaugeWindow):
    """Compare Newton and Hodge data of one crystal.

    Returns a report dict: both vertex lists, whether Newton lies on or above
    Hodge with equal endpoints (hard facts), and the advisory per-window
    comparison of slope multiplicities in [i, i+1) against h^i, which
    coincide exactly in the ordinary case.
    """
    profile = E.slopes()
    newton = newton_polygon_vertices(profile)
    hodgev = g.hodge_polygon()
    if newton[-1][0] != hodgev[-1][0]:
        raise ValidationError("polygon lengths differ")
    equal_endpoints = newton[-1] == hodgev[-1]
    on_or_above = all(
        polygon_value(newton, x) >= polygon_value(hodgev, x)
        for x in range(newton[-1][0] + 1))
    window_counts = tally((s.numerator // s.denominator, m)
                          for s, m in profile)
    windows_match = window_counts == dict(g.hodge_numbers)
    return {
        "newton_vertices": newton,
        "hodge_vertices": hodgev,
        "on_or_above": on_or_above,
        "equal_endpoints": equal_endpoints,
        "slope_window_counts": window_counts,
        "hodge_numbers": dict(g.hodge_numbers),
        "windows_match": windows_match,
    }


# ---------------------------------------------------------------------------
# Raynaud relations for elementary Type I desk models


def check_raynaud_relations(E: Isocrystal):
    """Verify FV = p = VF, the semilinearity relations, and that V = pF^{-1}
    is topologically nilpotent; d = 0 so the d-relations hold vacuously.

    FV = p = VF is checked as a matrix identity, and semilinearity on four
    vectors drawn from a fixed seed.  The nilpotence certificate is the
    Newton polygon (every slope < 1, so V has positive slopes), witnessed
    numerically by the growth of the minimal valuation of the first
    2 n a + 4 powers of V.  A slope >= 1 raises NotTypeI.
    """
    ctx = E.ctx
    At = E.matrix
    if (mat_min_valuation(At) or 0) < 0:
        raise ValidationError("Type I model needs F integral on the lattice")
    profile = E.slopes()
    if any(s >= 1 for s, _ in profile):
        raise NotTypeI(f"slope {max(s for s, _ in profile)} >= 1: "
                       "V = pF^{-1} is not topologically nilpotent")
    n = len(At)
    back = ctx.a - 1
    Vmat = mat_shift(mat_sigma(mat_inverse(At), back), 1)
    # operator identities: A sigma(V) = p = V sigma^{-1}(A)
    lhs = mat_mul(At, mat_sigma(Vmat))
    rhs = mat_mul(Vmat, mat_sigma(At, back))
    pI = mat_shift(mat_identity(ctx, n), 1)
    for got in (lhs, rhs):
        for i in range(n):
            for j in range(n):
                if not got[i][j].same_value(pI[i][j], digits=ctx.guard):
                    raise ValidationError("FV = p = VF failed")
    rng = random.Random(0)
    for _ in range(4):
        v = [ctx.from_int(rng.randrange(1, ctx.p ** 3)) for _ in range(n)]
        c = ctx.from_vector([rng.randrange(ctx.p ** 2) for _ in range(ctx.a)]) \
            if ctx.a > 1 else ctx.from_int(rng.randrange(1, ctx.p ** 3))
        # F(c v) = sigma(c) F(v)
        Fv = mat_vec(At, [x.frobenius() for x in v])
        Fcv = mat_vec(At, [(c * x).frobenius() for x in v])
        for x, y in zip(Fcv, [c.frobenius() * t for t in Fv]):
            if not x.same_value(y, digits=ctx.guard):
                raise ValidationError("F semilinearity failed")
        # a V = V sigma(a)
        Vv = mat_vec(Vmat, [x.frobenius_iter(back) for x in v])
        Vsv = mat_vec(Vmat, [(c.frobenius() * x).frobenius_iter(back)
                             for x in v])
        for x, y in zip(Vsv, [c * t for t in Vv]):
            if not x.same_value(y, digits=ctx.guard):
                raise ValidationError("V semilinearity failed")
    growth = []
    W = Vmat
    for _ in range(2 * n * ctx.a + 4):
        growth.append(mat_min_valuation(W))
        W = mat_mul(Vmat, mat_sigma(W, back))
    if growth[-1] is None or growth[-1] <= (growth[0] or 0):
        raise ValidationError("no visible valuation growth in powers of V")
    return True
