"""Finitely generated modules over Z_p or Z_l with a continuous action of
the profinite group generated by one Frobenius element gamma.

A module is a free part (gamma as an integral invertible matrix) plus cyclic
torsion components Z/p^e on which gamma acts by a unit.  The two cohomology
groups are the invariants M^Gamma = ker(1 - gamma) and the coinvariants
M_Gamma = coker(1 - gamma); the interesting invariant is

    z(f) = [Ker f] / [coker f]

for the map f: M^Gamma -> M_Gamma induced by the identity, defined exactly
when 1 is not a repeated root of the minimal polynomial of gamma.  Two
independent routes compute it: an explicit Smith-form chase through the
cokernel presentation, and a characteristic-polynomial route (deflate the
eigenvalue 1 and evaluate at t = 1).  They must agree: `fqzeta zf` runs
both and exits 1 when they differ.  Both read one Smith form of 1 - gamma
and one det(1 - t*gamma), computed once per module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .errors import MultipleRootError, ValidationError
from .padics import MAX_PRECISION, Zp, rational_valuation
from .plinalg import mat_mul, smith_normal_form
from .polys import rev_charpoly_fractions, root_multiplicity

ModuleStructure = namedtuple("ModuleStructure", "free_rank torsion")
# torsion: sorted list of exponents e, one per cyclic component Z/p^e

TorsionComponent = namedtuple("TorsionComponent", "e unit")


class GammaModule:
    """Free part (rank n, integral invertible gamma) plus cyclic torsion."""

    def __init__(self, ring, prime, gamma, torsion=(), prec=64):
        if ring not in ("Zp", "Zl"):
            raise ValidationError("ring tag must be 'Zp' or 'Zl'")
        self._ctx = Zp(prime, prec)   # refuses a non-prime before any valuation
        self.ring = ring
        self.prime = prime
        self.gamma = [[Fraction(x) for x in row] for row in gamma]
        n = len(self.gamma)
        if any(len(r) != n for r in self.gamma):
            raise ValidationError("gamma must be square")
        for row in self.gamma:
            for x in row:
                if x != 0 and rational_valuation(x, prime) < 0:
                    raise ValidationError(
                        "gamma must be integral over the coefficient ring")
        self.rank = n
        self.torsion = [t if isinstance(t, TorsionComponent)
                        else TorsionComponent(int(t[0]), int(t[1]))
                        for t in torsion]
        for comp in self.torsion:
            if not 1 <= comp.e <= MAX_PRECISION:
                raise ValidationError(
                    f"torsion exponents must be in [1, {MAX_PRECISION}], "
                    f"got {comp.e}")
            if comp.unit % prime == 0:
                raise ValidationError("gamma must act by a unit on torsion")
        self.prec = prec

    @cached_property
    def snf(self):
        """Smith form of 1 - gamma over Z_p; z0, the kernel rank of
        1 - gamma, is its number of zero divisors."""
        ctx, n = self._ctx, self.rank
        return smith_normal_form(
            [[ctx.from_fraction((1 if i == j else 0) - self.gamma[i][j])
              for j in range(n)] for i in range(n)])

    @cached_property
    def at_one(self):
        """(m, g): the multiplicity m of 1 as an eigenvalue of gamma, by
        exact deflation of det(1 - t*gamma), and g, the deflated
        polynomial det(1 - t*gamma)/(1 - t)^m."""
        return root_multiplicity(rev_charpoly_fractions(self.gamma), 1)

    def defined_at_one(self):
        """The deflated g of `at_one` when z(f) is defined, i.e. z0 equals
        the multiplicity of 1 (1 is not a repeated root of the minimal
        polynomial of gamma); MultipleRootError otherwise."""
        mult, deflated = self.at_one
        if self.snf.divisors.count(None) != mult:
            raise MultipleRootError(
                "1 is a repeated root of the minimal polynomial of gamma")
        return deflated

    def _torsion_d(self, comp):
        """d = min(e, v_p(1 - u)): both Ker and coker on Z/p^e are Z/p^d."""
        diff = 1 - comp.unit
        if diff % self.prime ** comp.e == 0:
            return comp.e
        return min(comp.e, rational_valuation(diff, self.prime))


def invariants_coinvariants(m: GammaModule):
    """(structure of M^Gamma, structure of M_Gamma), each as
    ModuleStructure(free_rank, torsion exponents).

    Free ranks agree (the group is procyclic); both facts come out of one
    Smith form of 1 - gamma plus the per-component torsion arithmetic.
    """
    snf = m.snf
    z0 = snf.divisors.count(None)
    inv_torsion = []
    coinv_torsion = [e for e in snf.divisors if e is not None and e > 0]
    for comp in m.torsion:
        d = m._torsion_d(comp)
        if d > 0:
            inv_torsion.append(d)
            coinv_torsion.append(d)
    return (ModuleStructure(z0, sorted(inv_torsion)),
            ModuleStructure(z0, sorted(coinv_torsion)))


def _z_snf_route(m: GammaModule):
    """[Ker f]/[coker f] via explicit presentations.

    Free part: with 1 - gamma = U D V, the invariants are the kernel columns
    K of V^{-1} and the coinvariants live in U^{-1}-coordinates where the
    relation lattice is D.  The induced map is G = U^{-1} K: rows at unit
    divisors die, rows at divisors p^e (e > 0) land in Z/p^e, and the rows
    G_f at zero divisors land in the free quotient.  The presentation
    [[G_t, diag(p^e)], [G_f, 0]] of coker f is block triangular, so
    [coker f] = p^{sum e} p^{v(det G_f)}, read off the Smith form of G_f
    (empty when z0 = 0); the kernel is trivial once z is defined (f is
    injective modulo torsion).  A torsion component contributes
    Z/p^{min(d, e-d)} to both sides, which cancels.

    z is defined when the kernel rank z0 of 1 - gamma, read off the same
    Smith form, equals the exact multiplicity of 1 in det(1 - t*gamma).
    """
    m.defined_at_one()          # MultipleRootError unless z is defined
    snf = m.snf
    exponent = sum(e for e in snf.divisors if e is not None)
    free = [k for k, e in enumerate(snf.divisors) if e is None]
    if free:
        G_f = mat_mul([snf.U_inv[i] for i in free],
                      [[row[j] for j in free] for row in snf.V_inv])
        divisors = smith_normal_form(G_f).divisors
        if None in divisors:
            raise ValidationError("cokernel of f is infinite although z is "
                                  "defined; inconsistent module data")
        exponent += sum(divisors)
    return 1 / Fraction(m.prime) ** exponent


def _z_poly_route(m: GammaModule):
    """Deflate det(1 - t*gamma) at the eigenvalue 1, evaluate at t = 1.

    z = |g(1)|_p as a p-power, where g = det(1 - t*gamma)/(1-t)^mult; defined
    only when the eigenvalue-1 kernel rank matches the multiplicity.
    """
    g1 = sum(Fraction(c) for c in m.defined_at_one())
    if g1 == 0:
        raise ValidationError("deflation left a vanishing value at t = 1")
    return Fraction(m.prime) ** (-rational_valuation(g1, m.prime))


def z_of_f(m: GammaModule, route):
    """z(f) = [Ker f]/[coker f] as an exact power of the prime, by the
    Smith-form route ("snf") or the polynomial route ("poly")."""
    if route == "snf":
        return _z_snf_route(m)
    if route == "poly":
        return _z_poly_route(m)
    raise ValueError(f"route must be 'snf' or 'poly', got {route!r}")


# ---------------------------------------------------------------------------
# Ext-complex bookkeeping


def ext_ranks(multiplicities):
    """ranks of Ext^j from per-degree multiplicities of q^r.

    With cohomological dimension one, rank Ext^j = m_j + m_{j-1}; the
    alternating sum telescopes to zero, which is asserted.
    Input: dict degree -> multiplicity (missing degrees are zero).
    """
    if not multiplicities:
        return {}
    degs = sorted(multiplicities)
    lo, hi = degs[0], degs[-1]
    ranks = {}
    for j in range(lo, hi + 2):
        rk = multiplicities.get(j, 0) + multiplicities.get(j - 1, 0)
        if rk:
            ranks[j] = rk
    alt = sum((-1) ** j * rk for j, rk in ranks.items())
    if alt != 0:
        raise ValidationError("alternating rank sum must vanish")
    return ranks


def rho_from_ranks(ranks):
    """Expected pole order: sum (-1)^{j+1} j * rank_j."""
    return sum((-1) ** (j + 1) * j * rk for j, rk in ranks.items())


def chi_from_zf(z_values):
    """Alternating product prod_j z_j^{(-1)^j} over a dict degree -> z."""
    chi = Fraction(1)
    for j, z in z_values.items():
        chi *= Fraction(z) ** ((-1) ** j)
    return chi
