"""Two-sided verification of the special-value identity at t = q^{-r}.

Both routes share one prefix (`_common`).  It deflates each factor
P_j = det(1 - t F | H^j) once (`eigenproduct_excluding`): m_j is the
multiplicity of q^r, and what is left is evaluated at q^{-r}.  It checks
the semisimplicity hypothesis, then reads the analytic side off the
deflations: Z(t) = prod_j P_j^{(-1)^{j+1}} has pole order
rho = sum_j (-1)^j m_j, and its leading coefficient c, an exact rational,
is the same alternating product of the deflated values; |c|^{-1} is taken
at the route's prime, and the Ext ranks give the cohomological rho.  The
p-adic tail (`verify_padic`) adds z_j from eigenvalue products, slope sums
and unipotent exponents, plus gauge Hodge numbers when every degree has a
crystal, and asserts |c|_p^{-1} = chi q^{tilde chi}.  The l-adic tail
(`verify_elladic`) takes z_j as |eigenvalue product|_l alone and asserts
|c|_l^{-1} = chi.  Both sides are compared as exact prime powers; a report
never rounds and never asserts an identity it cannot witness.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import HypothesisFailed, ValidationError
from .gammamodules import chi_from_zf, ext_ranks, rho_from_ranks
from .isocrystals import (
    eigenproduct_excluding,
    newton_slopes_exact,
    semisimple_at,
)
from .lfun import abs_valuation_inverse
from .padics import GUARD_DIGITS, check_field, rational_valuation

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


_FIELDS = ("route prime r p a hypothesis multiplicities ranks rho_analytic "
           "rho_cohomological leading abs_inverse z chi chi_tilde chi_hodge "
           "synthetic identities observations precision_audit")


class VerificationReport(namedtuple("VerificationReport", _FIELDS)):
    """Everything both sides computed, plus the per-identity verdicts.

    Exact rationals stay exact; `identities` holds the asserted equalities
    (they drive `passed`), `observations` the logged-but-not-asserted
    cross-checks (the Hodge/slope comparison on synthetic inputs).
    """

    __slots__ = ()

    @property
    def q(self):
        return self.p ** self.a

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
    return all(c.denominator == 1
               for data in pkg.degrees.values() for c in data.poly)


def _check_hypothesis(pkg, r, eigen):
    """Per-degree semisimplicity-at-q^r verdicts; raise when inconclusive.

    A simple or absent eigenvalue needs no certificate; a repeated one is
    checked on the crystal when present, and otherwise accepted only from an
    explicit semisimplicity tag.  The multiplicities m_j come from `eigen`.
    """
    verdicts = {}
    for j, data in sorted(pkg.degrees.items()):
        m = eigen[j].m
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
    return verdicts


def _common(pkg, r, prime, with_slopes):
    """The prefix both routes share, up to their own z, chi and identities.

    Deflates each factor once (slope profiles only when `with_slopes`),
    checks the hypothesis, and reads off the pole order
    rho = sum_j (-1)^j m_j, the leading coefficient
    c = prod_j value_j^{(-1)^{j+1}} (odd degrees are the numerator), |c|^{-1}
    at `prime` and the Ext ranks.  Returns the per-degree EigenProducts and
    the shared report fields, `identities` holding rho_match.
    """
    check_twist(r)
    eigen = {}
    for j, data in sorted(pkg.degrees.items()):
        profile = (newton_slopes_exact(data.poly, pkg.p, pkg.a)
                   if with_slopes else [])
        eigen[j] = eigenproduct_excluding(data.poly, pkg.p, pkg.a, r, profile)
    hypothesis = _check_hypothesis(pkg, r, eigen)
    mults = {j: e.m for j, e in eigen.items()}
    rho = sum((-1) ** j * m for j, m in mults.items())
    lead = Fraction(1)
    for j, e in eigen.items():
        lead = lead * e.value if j % 2 else lead / e.value
    abs_inverse = abs_valuation_inverse(lead, prime)
    ranks = ext_ranks(mults)
    rho_b = rho_from_ranks(ranks)
    return eigen, {
        "prime": prime, "r": r, "p": pkg.p, "a": pkg.a,
        "hypothesis": hypothesis, "multiplicities": mults, "ranks": ranks,
        "rho_analytic": rho, "rho_cohomological": rho_b, "leading": lead,
        "abs_inverse": abs_inverse,
        "synthetic": any(data.u for data in pkg.degrees.values()),
        "identities": {"rho_match": Identity(rho, rho_b)},
    }


def _as_integer(x, what):
    x = Fraction(x)
    if x.denominator != 1:
        raise ValidationError(f"{what} is not an integer: {x}")
    return int(x)


def _hodge_exponent(pkg, r):
    """Sum over degrees n of (-1)^n * sum_{i<=r} (r-i) h^i of the gauge.

    Needs a crystal in every degree; reports None otherwise.  Reads each
    `Isocrystal.hodge_numbers` once its context keeps the guard digits.
    """
    if any(d.crystal is None for d in pkg.degrees.values()):
        return None, {}
    total, numbers = 0, {}
    for n, data in sorted(pkg.degrees.items()):
        data.crystal.ctx.certify(data.crystal.ctx.one(), "Hodge numbers")
        numbers[n] = dict(data.crystal.hodge_numbers)
        total += (-1) ** n * sum((r - i) * h
                                 for i, h in numbers[n].items() if i <= r)
    return total, numbers


def verify_padic(pkg, r):
    """Verify the p-adic special-value identities for the package at r.

    Asserts rho agreement, |c|_p^{-1} = chi * q^tilde-chi, and — when every
    degree carries a crystal and no unipotent exponent is synthetic —
    |c|_p^{-1} = chi * q^chi(P,r) with the Hodge exponent, plus the
    Hodge-equals-slopes comparison.
    """
    eigen, shared = _common(pkg, r, pkg.p, with_slopes=True)
    p, a, abs_inv = pkg.p, pkg.a, shared["abs_inverse"]
    z = {j: Fraction(p) ** _as_integer(
            -rational_valuation(eigen[j].value, p)
            - a * eigen[j].slope_sum + a * data.u,
            f"z exponent in degree {j}")
         for j, data in sorted(pkg.degrees.items())}
    chi = chi_from_zf(z)
    chi_tilde = sum((-1) ** j * (eigen[j].slope_sum - data.u)
                    for j, data in pkg.degrees.items())
    chi_hodge, hodge_numbers = _hodge_exponent(pkg, r)

    identities = shared["identities"]
    identities["leading_vs_slopes"] = Identity(
        abs_inv, chi * Fraction(p) ** _as_integer(a * chi_tilde,
                                                  "a * tilde-chi"))
    observations = {}
    if chi_hodge is not None:
        (observations if shared["synthetic"] else identities).update(
            hodge_equals_slopes=Identity(Fraction(chi_hodge),
                                         Fraction(chi_tilde)),
            leading_vs_hodge=Identity(abs_inv,
                                      chi * Fraction(pkg.q) ** chi_hodge))

    crystals = [d.crystal for d in pkg.degrees.values()
                if d.crystal is not None]
    audit = {
        "precision": max((c.ctx.prec for c in crystals), default=None),
        "guard": GUARD_DIGITS if crystals else None,
        "hodge_route": chi_hodge is not None,
        "hodge_numbers": {str(n): {str(i): h for i, h in sorted(hs.items())}
                          for n, hs in sorted(hodge_numbers.items())},
    }
    return VerificationReport(
        route="p-adic", z=z, chi=chi, chi_tilde=chi_tilde, chi_hodge=chi_hodge,
        observations=observations, precision_audit=audit, **shared)


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
    eigen, shared = _common(pkg, r, ell, with_slopes=False)
    z = {j: Fraction(ell) ** -rational_valuation(e.value, ell)
         for j, e in eigen.items()}
    chi = chi_from_zf(z)
    shared["identities"]["leading_vs_chi"] = Identity(shared["abs_inverse"],
                                                      chi)
    return VerificationReport(
        route="l-adic", z=z, chi=chi, chi_tilde=None, chi_hodge=None,
        observations={}, precision_audit={"precision": None, "guard": None,
                                          "hodge_route": False,
                                          "hodge_numbers": {}},
        **shared)
