"""Two-sided verification of the special-value identity at t = q^{-r}.

Each factor P_j = det(1 - t F | H^j) is deflated once
(`eigenproduct_excluding`): m_j is the multiplicity of q^r, and what is
left is evaluated at q^{-r}.  Side A is analytic: Z(t) = prod_j
P_j^{(-1)^{j+1}} has pole order rho = sum_j (-1)^j m_j at q^{-r}, and its
leading coefficient is the same alternating product of the deflated
values, an exact rational number; then its inverse absolute value at the
chosen prime.  Side B is cohomological: Ext ranks from the m_j, the
deflated values as eigenvalue products, slope sums, unipotent exponents,
and (p-adically, when lattice data is present) gauge Hodge numbers.  The
two sides are compared as exact prime powers; a report never rounds and
never asserts an identity it cannot witness.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HypothesisFailed, ValidationError
from .gammamodules import chi_from_zf, ext_ranks, rho_from_ranks
from .gauges import hodge
from .isocrystals import (
    eigenproduct_excluding,
    newton_slopes_exact,
    semisimple_at,
)
from .lfun import abs_valuation_inverse
from .padics import check_field, rational_valuation

# Largest |r| of a twist: q^r enters every deflation and leading
# coefficient, so the exact rationals grow with |r| log q.
MAX_TWIST = 64


def check_twist(r):
    """ValidationError unless |r| <= MAX_TWIST."""
    if not -MAX_TWIST <= r <= MAX_TWIST:
        raise ValidationError(
            f"twist r must be in [-{MAX_TWIST}, {MAX_TWIST}], got {r}")


class Identity:
    """One asserted equality with both sides as exact witnesses."""

    __slots__ = ("holds", "lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self.holds = lhs == rhs

    def to_dict(self):
        return {"holds": self.holds, "lhs": str(self.lhs), "rhs": str(self.rhs)}

    def __repr__(self):
        op = "==" if self.holds else "!="
        return f"Identity({self.lhs} {op} {self.rhs})"


class VerificationReport:
    """Everything both sides computed, plus the per-identity verdicts.

    Exact rationals stay exact; `identities` holds the asserted equalities
    (they drive `passed`), `observations` the logged-but-not-asserted
    cross-checks (the Hodge/slope comparison on synthetic inputs).
    """

    def __init__(self, *, route, prime, r, p, a, hypothesis, multiplicities,
                 ranks, rho_analytic, rho_cohomological, leading, abs_inverse,
                 z, chi, chi_tilde, chi_hodge, synthetic, identities,
                 observations, precision_audit):
        self.route = route
        self.prime = prime
        self.r = r
        self.p = p
        self.a = a
        self.q = p ** a
        self.hypothesis = hypothesis
        self.multiplicities = multiplicities
        self.ranks = ranks
        self.rho_analytic = rho_analytic
        self.rho_cohomological = rho_cohomological
        self.leading = leading
        self.abs_inverse = abs_inverse
        self.z = z
        self.chi = chi
        self.chi_tilde = chi_tilde
        self.chi_hodge = chi_hodge
        self.synthetic = synthetic
        self.identities = identities
        self.observations = observations
        self.precision_audit = precision_audit

    @property
    def passed(self):
        return all(i.holds for i in self.identities.values())

    def to_dict(self):
        return {
            "route": self.route,
            "prime": self.prime,
            "r": self.r,
            "q": self.q,
            "hypothesis": dict(self.hypothesis),
            "multiplicities": {str(j): m
                               for j, m in sorted(self.multiplicities.items())
                               if m},
            "ranks": {str(j): v for j, v in sorted(self.ranks.items())},
            "rho_analytic": self.rho_analytic,
            "rho_cohomological": self.rho_cohomological,
            "leading": str(self.leading),
            "abs_inverse": str(self.abs_inverse),
            "z": {str(j): str(v) for j, v in sorted(self.z.items())},
            "chi": str(self.chi),
            "chi_tilde": None if self.chi_tilde is None else str(self.chi_tilde),
            "chi_hodge": self.chi_hodge,
            "synthetic": self.synthetic,
            "identities": {k: v.to_dict() for k, v in self.identities.items()},
            "observations": {k: v.to_dict()
                             for k, v in self.observations.items()},
            "passed": self.passed,
            "precision_audit": dict(self.precision_audit),
        }

    def __repr__(self):
        state = "passed" if self.passed else "FAILED"
        return (f"VerificationReport({self.route}, r={self.r}, "
                f"prime={self.prime}, {state})")


def compatibility_check(pkg):
    """True when every factor has integer coefficients.

    Integer coefficients mean one rational L-function serves every prime at
    once (coefficient field Omega = Q); packages failing this are p-adic
    only, and the l-adic verifier refuses them.
    """
    for data in pkg.degrees.values():
        for c in data.poly:
            if Fraction(c).denominator != 1:
                return False
    return True


def _check_hypothesis(pkg, r, eigen):
    """Per-degree semisimplicity-at-q^r verdicts; raise when inconclusive.

    A simple or absent eigenvalue needs no certificate; a repeated one is
    checked on the crystal when present, and otherwise accepted only from an
    explicit semisimplicity tag.  The multiplicities m_j come from `eigen`.
    """
    verdicts, mults = {}, {}
    for j, data in sorted(pkg.degrees.items()):
        m = mults[j] = eigen[j].m
        if m <= 1:
            verdicts[j] = "simple-or-absent"
        elif data.crystal is not None:
            if not semisimple_at(data.crystal, r, m):
                raise HypothesisFailed(
                    f"q^{r} is a multiple root in degree {j} and the crystal "
                    f"is not semisimple there", degree=j)
            verdicts[j] = "crystal-verified"
        elif data.semisimple:
            verdicts[j] = "declared"
        else:
            raise HypothesisFailed(
                f"q^{r} has multiplicity {m} in degree {j} and no "
                f"semisimplicity certificate is available", degree=j)
    return verdicts, mults


def _analytic_side(eigen, prime):
    """Pole order, leading coefficient and |c|^{-1} of Z(t) at q^{-r}.

    Odd degrees are the numerator: rho = sum_j (-1)^j m_j and
    c = prod_j value_j^{(-1)^{j+1}}, from the per-degree deflations.
    """
    rho = sum((-1) ** j * e.m for j, e in eigen.items())
    lead = Fraction(1)
    for j, e in eigen.items():
        lead = lead * e.value if j % 2 else lead / e.value
    return rho, lead, abs_valuation_inverse(lead, prime)


def _eigen_data(pkg, r, with_slopes=True):
    check_twist(r)
    out = {}
    for j, data in sorted(pkg.degrees.items()):
        profile = (newton_slopes_exact(data.poly, pkg.p, pkg.a)
                   if with_slopes else [])
        out[j] = eigenproduct_excluding(data.poly, pkg.p, pkg.a, r, profile)
    return out


def _as_integer(x, what):
    x = Fraction(x)
    if x.denominator != 1:
        raise ValidationError(f"{what} is not an integer: {x}")
    return int(x)


def _hodge_exponent(pkg, r):
    """Sum over degrees n of (-1)^n * sum_{i<=r} (r-i) h^i of the gauge.

    Needs a crystal in every degree; reports None otherwise.  The inner
    sum reads the Hodge numbers of the gauge window of the degree-n crystal.
    """
    if any(d.crystal is None for d in pkg.degrees.values()):
        return None, {}
    total = 0
    numbers = {}
    for n, data in sorted(pkg.degrees.items()):
        window = hodge(data.crystal)
        numbers[n] = dict(window.hodge_numbers)
        contribution = sum((r - i) * h
                           for i, h in window.hodge_numbers.items() if i <= r)
        total += (-1) ** n * contribution
    return total, numbers


def verify_padic(pkg, r):
    """Verify the p-adic special-value identities for the package at r.

    Asserts rho agreement, |c|_p^{-1} = chi * q^tilde-chi, and — when every
    degree carries a crystal and no unipotent exponent is synthetic —
    |c|_p^{-1} = chi * q^chi(P,r) with the Hodge exponent, plus the
    Hodge-equals-slopes comparison.
    """
    eigen = _eigen_data(pkg, r)
    verdicts, mults = _check_hypothesis(pkg, r, eigen)
    rho_a, lead, abs_inv = _analytic_side(eigen, pkg.p)
    ranks = ext_ranks(mults)
    rho_b = rho_from_ranks(ranks)
    a = pkg.a

    z = {}
    for j, data in sorted(pkg.degrees.items()):
        exponent = _as_integer(
            -rational_valuation(eigen[j].value, pkg.p)
            - a * eigen[j].slope_sum + a * data.u,
            f"z exponent in degree {j}")
        z[j] = Fraction(pkg.p) ** exponent
    chi = chi_from_zf(z)

    slope_term = sum(Fraction((-1) ** j) * eigen[j].slope_sum
                     for j in pkg.degrees)
    unipotent_term = sum((-1) ** (j + 1) * data.u
                         for j, data in pkg.degrees.items())
    chi_tilde = unipotent_term + slope_term
    synthetic = any(data.u for data in pkg.degrees.values())

    chi_hodge, hodge_numbers = _hodge_exponent(pkg, r)

    identities = {
        "rho_match": Identity(rho_a, rho_b),
        "leading_vs_slopes": Identity(
            abs_inv,
            chi * Fraction(pkg.p) ** _as_integer(a * chi_tilde,
                                                 "a * tilde-chi")),
    }
    observations = {}
    if chi_hodge is not None:
        hodge_cmp = Identity(Fraction(chi_hodge), Fraction(chi_tilde))
        lead_hodge = Identity(abs_inv, chi * Fraction(pkg.q) ** chi_hodge)
        if synthetic:
            observations["hodge_equals_slopes"] = hodge_cmp
            observations["leading_vs_hodge"] = lead_hodge
        else:
            identities["hodge_equals_slopes"] = hodge_cmp
            identities["leading_vs_hodge"] = lead_hodge

    precs = {d.crystal.ctx.prec for d in pkg.degrees.values()
             if d.crystal is not None}
    guards = {d.crystal.ctx.guard for d in pkg.degrees.values()
              if d.crystal is not None}
    audit = {
        "precision": max(precs) if precs else None,
        "guard": max(guards) if guards else None,
        "hodge_route": chi_hodge is not None,
        "hodge_numbers": {str(n): {str(i): h for i, h in sorted(hs.items())}
                          for n, hs in sorted(hodge_numbers.items())},
    }

    return VerificationReport(
        route="p-adic", prime=pkg.p, r=r, p=pkg.p, a=pkg.a,
        hypothesis=verdicts, multiplicities=mults, ranks=ranks,
        rho_analytic=rho_a, rho_cohomological=rho_b, leading=lead,
        abs_inverse=abs_inv, z=z, chi=chi, chi_tilde=chi_tilde,
        chi_hodge=chi_hodge, synthetic=synthetic, identities=identities,
        observations=observations, precision_audit=audit)


def verify_elladic(pkg, r, ell):
    """Verify the l-adic identity |c|_l^{-1} = chi at an auxiliary prime.

    No slope, Hodge, or q-power corrections enter: z(f_j) is the l-adic
    absolute value of the eigenvalue product alone.  Requires an
    integer-coefficient (compatible-system) package.
    """
    ell = int(ell)
    check_field(ell, 1)
    if ell == pkg.p:
        raise ValidationError(
            "auxiliary prime must differ from the base characteristic")
    if not compatibility_check(pkg):
        raise ValidationError(
            "l-adic verification needs integer coefficients "
            "(compatibility_check failed)")
    eigen = _eigen_data(pkg, r, with_slopes=False)
    verdicts, mults = _check_hypothesis(pkg, r, eigen)
    rho_a, lead, abs_inv = _analytic_side(eigen, ell)
    ranks = ext_ranks(mults)
    rho_b = rho_from_ranks(ranks)

    z = {j: Fraction(ell) ** (-rational_valuation(eigen[j].value, ell))
         for j in sorted(pkg.degrees)}
    chi = chi_from_zf(z)

    identities = {
        "rho_match": Identity(rho_a, rho_b),
        "leading_vs_chi": Identity(abs_inv, chi),
    }

    return VerificationReport(
        route="l-adic", prime=ell, r=r, p=pkg.p, a=pkg.a,
        hypothesis=verdicts, multiplicities=mults, ranks=ranks,
        rho_analytic=rho_a, rho_cohomological=rho_b, leading=lead,
        abs_inverse=abs_inv, z=z, chi=chi, chi_tilde=None, chi_hodge=None,
        synthetic=any(data.u for data in pkg.degrees.values()),
        identities=identities, observations={},
        precision_audit={"precision": None, "guard": None,
                         "hodge_route": False, "hodge_numbers": {}})
