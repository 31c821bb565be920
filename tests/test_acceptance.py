"""Acceptance gate: one test per shipped guarantee.

Every check here is exact (Fraction/int equality); the only tolerances are
the pinned wall-clock budgets, asserted with time.monotonic().
"""

import json
import random
import time
from fractions import Fraction

import pytest

from fqzeta.cli import main as cli_main
from fqzeta.errors import DegenerateCrystal, MultipleRootError, ValidationError
from fqzeta.gammamodules import GammaModule, TorsionComponent, z_of_f
from fqzeta import Isocrystal, hodge, slope_gauge_check
from fqzeta.geometry import VarietySpec, closed_points, corpus, package, \
    point_counts
from fqzeta.lfun import euler_product_series, rational_series
from fqzeta.padics import Zp
from fqzeta.specialvalues import verify_elladic, verify_padic

BUDGET = 10 ** 5
E5 = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)


def test_01_padic_worked_identity_elliptic_over_f5():
    """E: y^2 = x^3 + x + 1 over F_5 at r = 1, in under a second."""
    t0 = time.monotonic()
    pkg = package(E5, budget=BUDGET)
    assert point_counts(E5, 1, budget=BUDGET) == (9,)   # a_5 = -3
    rep = verify_padic(pkg, 1)
    assert rep.passed
    assert rep.rho_analytic == rep.rho_cohomological == 1
    assert rep.leading == Fraction(9, 4)
    assert rep.abs_inverse == 1
    assert rep.chi == 1
    assert rep.chi_tilde == 0            # 1 = 1 * 5^0
    assert rep.chi_hodge == 0
    assert time.monotonic() - t0 < 1.0


def test_02_padic_worked_identity_projective_line():
    """P^1 over F_q, q in {2, 3, 5}, r in {0, 1}, each case under a second."""
    for q in (2, 3, 5):
        t0 = time.monotonic()
        pkg = package(VarietySpec.projective(1, q), budget=BUDGET)
        at1 = verify_padic(pkg, 1)
        assert at1.passed
        assert at1.abs_inverse == q      # q = 1 * q^1
        assert at1.chi == 1 and at1.chi_tilde == 1
        at0 = verify_padic(pkg, 0)
        assert at0.passed
        assert at0.abs_inverse == 1      # 1 = 1 * q^0
        assert at0.chi == 1 and at0.chi_tilde == 0
        assert time.monotonic() - t0 < 1.0


def test_03_elladic_worked_identity_elliptic_over_f5():
    """Auxiliary-prime route at ell = 3 for the same curve and twist."""
    pkg = package(E5, budget=BUDGET)
    rep = verify_elladic(pkg, 1, 3)
    assert rep.passed
    assert rep.leading == Fraction(9, 4)
    assert rep.abs_inverse == 9          # |9/4|_3^{-1}
    assert rep.chi == 9
    assert rep.z[1] == Fraction(1, 9)


def test_04_zf_smith_form_route_equals_polynomial_route():
    """200 random Galois modules over both rings agree on z(f) exactly."""
    t0 = time.monotonic()
    rng = random.Random(20260819)
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 4000, "random module generator starved"
        ring, prime = rng.choice([("Zp", 5), ("Zp", 3), ("Zl", 7), ("Zl", 2)])
        n = rng.randrange(1, 5)
        gamma = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        # salt some draws with forced eigenvalue-1 copies so the kernel
        # machinery is exercised, not just the generic invertible case
        if rng.random() < 0.4:
            k = rng.randrange(0, n)
            for i in range(k):
                for j in range(n):
                    gamma[i][j] = 1 if i == j else 0
        torsion = tuple(
            t for t in (TorsionComponent(rng.randrange(1, 4),
                                         rng.randrange(1, prime ** 2))
                        for _ in range(rng.randrange(0, 3)))
            if t.unit % prime)
        try:
            m = GammaModule(ring, prime, gamma, torsion=torsion)
        except ValidationError:
            continue
        try:
            via_snf = z_of_f(m, route="snf")
        except MultipleRootError:
            with pytest.raises(MultipleRootError):
                z_of_f(m, route="poly")
            continue                      # excluded: multiple root at 1
        except ValidationError:
            continue                      # singular action
        assert via_snf == z_of_f(m, route="poly")
        assert via_snf.numerator == 1 or via_snf.denominator == 1
        checked += 1
    assert time.monotonic() - t0 < 10.0


def test_05_gauge_axioms_on_random_virtual_crystals():
    """100 random crystals at precision 32 plus the two named fixtures."""
    rng = random.Random(5081)
    contexts = {p: Zp(p, prec=32) for p in (2, 3, 5)}
    produced = 0
    while produced < 100:
        p = rng.choice((2, 3, 5))
        ctx = contexts[p]
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) * p ** rng.randrange(2)
                 for _ in range(n)] for _ in range(n)]
        vc = None
        try:
            vc = Isocrystal.from_ints(ctx, rows)
            g = hodge(vc)                 # verifies axioms (i)-(iii) itself
        except DegenerateCrystal:
            continue
        produced += 1
        assert sum(g.hodge_numbers.values()) == n
        report = slope_gauge_check(vc, g)
        assert report["on_or_above"] and report["equal_endpoints"]

    ctx5 = contexts[5]
    ordinary = Isocrystal.from_ints(ctx5, [[0, -5], [1, -3]])
    assert hodge(ordinary).hodge_numbers == {0: 1, 1: 1}
    assert ordinary.slopes() == [(Fraction(0), 1), (Fraction(1), 1)]
    supersingular = Isocrystal.from_ints(ctx5, [[0, -5], [1, 0]])
    assert hodge(supersingular).hodge_numbers == {0: 1, 1: 1}
    assert supersingular.slopes() == [(Fraction(1, 2), 2)]


def test_06_euler_product_matches_cohomological_zeta():
    """Series from closed points equals series of the assembled zeta, t^10."""
    cases = [
        VarietySpec.projective(1, 5),
        VarietySpec.affine(1, 5),
        VarietySpec.torus(5),
        E5,
        VarietySpec.product([VarietySpec.projective(1, 5),
                             VarietySpec.projective(1, 5)]),
    ]
    for spec in cases:
        counts = point_counts(spec, 10, budget=BUDGET)
        euler = euler_product_series(closed_points(counts), 10)
        direct = rational_series(package(spec, budget=BUDGET).zeta(), 10)
        assert euler == direct, spec.kind
        assert all(c.denominator == 1 for c in euler)
    affine_f2 = VarietySpec.affine(1, 2)
    counts = point_counts(affine_f2, 10, budget=BUDGET)
    series = euler_product_series(closed_points(counts), 10)
    assert series[:4] == [1, 2, 4, 8]


def test_07_rank_identity_on_every_verification_run():
    """Alternating rank sum vanishes and both pole orders agree, always."""
    for name, spec in sorted(corpus().items()):
        pkg = package(spec, budget=BUDGET)
        for r in sorted({0, 1, spec.dim}):
            rep = verify_padic(pkg, r)
            assert sum((-1) ** j * rk for j, rk in rep.ranks.items()) == 0, \
                (name, r)
            assert rep.rho_analytic == rep.rho_cohomological, (name, r)


def test_08_purity_pairing_for_smooth_proper_corpus():
    """Every weight-tagged factor satisfies the exact weight-j pairing."""
    checked = 0
    for name, spec in sorted(corpus().items()):
        if spec.kind in ("torus", "complement"):
            continue
        results = package(spec, budget=BUDGET).check_purity()
        assert results, name
        for j, res in results.items():
            assert res.pairing_ok, (name, j)
            checked += 1
    assert checked >= 8


def test_09_precision_discipline(tmp_path, capsys):
    """Exact outputs are precision-independent; starvation is a hard error."""
    def strip(report):
        doc = report.to_dict()
        doc.pop("precision_audit")
        return doc

    for prec_lo, prec_hi in ((16, 64),):
        lo = package(E5, prec=prec_lo, budget=BUDGET)
        hi = package(E5, prec=prec_hi, budget=BUDGET)
        assert strip(verify_padic(lo, 1)) == strip(verify_padic(hi, 1))
        assert strip(verify_elladic(lo, 1, 3)) == \
            strip(verify_elladic(hi, 1, 3))
        for q in (2, 3, 5):
            p1 = VarietySpec.projective(1, q)
            lo_p, hi_p = (package(p1, prec=k, budget=BUDGET)
                          for k in (prec_lo, prec_hi))
            for r in (0, 1):
                assert strip(verify_padic(lo_p, r)) == \
                    strip(verify_padic(hi_p, r))

    variety = tmp_path / "curve.json"
    variety.write_text(json.dumps(
        {"kind": "elliptic", "coeffs": [0, 0, 0, 1, 1], "p": 5, "a": 1}))
    code = cli_main(["verify", "--variety", str(variety), "--r", "1",
                     "--prec", "4", "--budget", str(BUDGET)])
    capsys.readouterr()
    assert code == 4                      # starved, not silently wrong
