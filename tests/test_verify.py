"""Special-value verification: the p-adic and l-adic identity checks."""

import json
from fractions import Fraction

import pytest

from fqzeta.cli import main
from fqzeta.errors import HypothesisFailed, ValidationError
from fqzeta.gauges import VirtualCrystal
from fqzeta.geometry import (
    CohomologyPackage,
    PackageDegree,
    VarietySpec,
    corpus,
    package,
)
from fqzeta.padics import Zp
from fqzeta.serialize import dump_json, encode_package, parse_json
from fqzeta.specialvalues import (
    MAX_TWIST,
    compatibility_check,
    verify_elladic,
    verify_padic,
)

BUDGET = 10 ** 5


def _pkg(name):
    return package(corpus()[name], budget=BUDGET)


def test_twist_is_capped_in_both_routes():
    pkg = _pkg("elliptic-F5-a5=-3")
    for r in (-MAX_TWIST - 1, MAX_TWIST + 1):
        with pytest.raises(ValidationError, match="twist r must be in"):
            verify_padic(pkg, r)
        with pytest.raises(ValidationError, match="twist r must be in"):
            verify_elladic(pkg, r, 3)
    for r in (-MAX_TWIST, MAX_TWIST):
        assert verify_padic(pkg, r).passed
        assert verify_elladic(pkg, r, 3).passed


def test_elliptic_rank_one_identity():
    rep = verify_padic(_pkg("elliptic-F5-a5=-3"), 1)
    assert rep.passed
    assert rep.rho_analytic == rep.rho_cohomological == 1
    assert rep.leading == Fraction(9, 4)
    assert rep.abs_inverse == 1
    assert rep.z == {0: 1, 1: 1, 2: 1}
    assert rep.chi == 1
    assert rep.chi_tilde == 0
    assert rep.chi_hodge == 0
    assert rep.hypothesis == {0: "simple-or-absent", 1: "simple-or-absent",
                              2: "simple-or-absent"}
    assert not rep.synthetic


def test_elliptic_rank_zero():
    rep = verify_padic(_pkg("elliptic-F5-a5=-3"), 0)
    assert rep.passed
    assert rep.rho_analytic == 1          # trivial zero from H^0
    assert rep.leading == Fraction(-9, 4)


def test_projective_line_all_small_fields():
    for q in (2, 3, 5):
        pkg = package(VarietySpec.projective(1, q), budget=BUDGET)
        at1 = verify_padic(pkg, 1)
        assert at1.passed
        assert at1.leading == Fraction(q, q - 1)
        assert at1.abs_inverse == q
        assert at1.chi == 1 and at1.chi_tilde == 1 and at1.chi_hodge == 1
        at0 = verify_padic(pkg, 0)
        assert at0.passed
        assert at0.leading == Fraction(-1, q - 1)
        assert at0.abs_inverse == 1
        assert at0.chi_tilde == 0 and at0.chi_hodge == 0


def test_supersingular_half_slopes_cancel():
    rep = verify_padic(_pkg("elliptic-F5-supersingular"), 1)
    assert rep.passed
    assert rep.leading == Fraction(3, 2)
    assert rep.z == {0: 1, 1: 1, 2: 1}
    assert rep.chi_tilde == 0 and rep.chi_hodge == 0


def test_torus_negative_exponent():
    rep = verify_padic(_pkg("Gm"), 1)
    assert rep.passed
    assert rep.abs_inverse == Fraction(1, 5)
    assert rep.chi_tilde == -1 and rep.chi_hodge == -1


def test_affine_line_unit_value():
    rep = verify_padic(_pkg("A1"), 1)
    assert rep.passed
    assert rep.leading == 1


def test_projective_plane_at_dimension():
    rep = verify_padic(_pkg("P2"), 2)
    assert rep.passed
    assert rep.abs_inverse == 125
    assert rep.chi_tilde == 3 and rep.chi_hodge == 3


def test_surface_rank_one_and_crystal_verified_multiplicity():
    pkg = _pkg("P1xP1")
    at2 = verify_padic(pkg, 2)
    assert at2.passed
    assert at2.rho_analytic == 1
    assert at2.abs_inverse == 5 ** 4
    assert at2.chi_tilde == 4 and at2.chi_hodge == 4
    at1 = verify_padic(pkg, 1)
    assert at1.passed
    assert at1.rho_analytic == 2                 # double pole at q^{-1}
    assert at1.hypothesis[2] == "crystal-verified"
    assert at1.abs_inverse == 5


def test_every_run_balances_rank_identity():
    for name, spec in corpus().items():
        pkg = package(spec, budget=BUDGET)
        for r in sorted({0, 1, spec.dim}):
            rep = verify_padic(pkg, r)
            assert rep.passed, (name, r)
            assert sum((-1) ** j * rk for j, rk in rep.ranks.items()) == 0
            assert rep.rho_analytic == rep.rho_cohomological


def _kunneth_hodge(first, second):
    """Hodge numbers {degree: {i: h^i}} of a product, by convolution."""
    out = {}
    for j1, h1 in first.items():
        for j2, h2 in second.items():
            degree = out.setdefault(j1 + j2, {})
            for i1, m1 in h1.items():
                for i2, m2 in h2.items():
                    degree[i1 + i2] = degree.get(i1 + i2, 0) + m1 * m2
    return out


def _audit_hodge(rep):
    return {int(j): {int(i): h for i, h in hs.items()}
            for j, hs in rep.precision_audit["hodge_numbers"].items()}


def test_fourth_power_of_an_elliptic_curve():
    """E^4/F_5: a package of rank 70 in degree 4 passes both routes, and its
    Hodge numbers are the Kunneth convolution of the curve's."""
    E = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
    curve_hodge = _audit_hodge(verify_padic(package(E, budget=BUDGET), 2))
    assert curve_hodge[1] == {0: 1, 1: 1}
    pkg = package(VarietySpec.product([E] * 4), budget=BUDGET)
    rep = verify_padic(pkg, 2)
    assert rep.passed and rep.precision_audit["hodge_route"]
    expected = curve_hodge
    for _ in range(3):
        expected = _kunneth_hodge(expected, curve_hodge)
    got = _audit_hodge(rep)
    assert got == expected
    assert got[4] == {0: 1, 1: 16, 2: 36, 3: 16, 4: 1}
    assert verify_elladic(pkg, 2, 3).passed


def test_fifth_power_of_an_elliptic_curve():
    """E^5/F_5 at r = 2, ranks 210 and 252 in degrees 4 and 5: both routes
    pass, and the Hodge numbers are the Kunneth convolution of the curve's.
    Tier-1 can afford it because the gauges' Smith forms replay no
    transform."""
    E = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
    curve_hodge = _audit_hodge(verify_padic(package(E, budget=BUDGET), 2))
    pkg = package(VarietySpec.product([E] * 5), budget=BUDGET)
    rep = verify_padic(pkg, 2)
    assert rep.passed and rep.precision_audit["hodge_route"]
    expected = curve_hodge
    for _ in range(4):
        expected = _kunneth_hodge(expected, curve_hodge)
    assert _audit_hodge(rep) == expected
    assert verify_elladic(pkg, 2, 3).passed


def test_fourth_power_json_round_trip(tmp_path, capsys):
    """E^4/F_5 written as a package document and read back by the CLI: the
    decoder checks every crystal against its factor (rank 70 in degree 4),
    and the report at r = 2 is the one `verify --variety` prints, on both
    routes."""
    E = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
    e4 = VarietySpec.product([E] * 4)
    doc = tmp_path / "e4.json"
    doc.write_text(dump_json(encode_package(package(e4, budget=BUDGET))))
    curve = {"kind": "elliptic", "coeffs": [0, 0, 0, 1, 1], "p": 5}
    text = json.dumps({"kind": "product", "p": 5, "factors": [curve] * 4})
    assert parse_json(text, expected={"variety"}) == e4
    variety = tmp_path / "e4_variety.json"
    variety.write_text(text)
    for route in ([], ["--ell", "3"]):
        assert main(["verify", "--package", str(doc), "--r", "2"] + route) == 0
        out = capsys.readouterr().out
        assert main(["verify", "--variety", str(variety), "--r", "2",
                     "--budget", str(BUDGET)] + route) == 0
        assert capsys.readouterr().out == out
        assert json.loads(out)["passed"]


def test_elladic_elliptic_curve():
    rep = verify_elladic(_pkg("elliptic-F5-a5=-3"), 1, 3)
    assert rep.passed
    assert rep.prime == 3
    assert rep.abs_inverse == 9
    assert rep.chi == 9
    assert rep.z[1] == Fraction(1, 9)
    assert rep.chi_tilde is None and rep.chi_hodge is None


def test_elladic_projective_line():
    rep = verify_elladic(package(VarietySpec.projective(1, 5),
                                 budget=BUDGET), 1, 3)
    assert rep.passed
    assert rep.leading == Fraction(5, 4)
    assert rep.abs_inverse == 1 == rep.chi


def test_elladic_rejects_bad_auxiliary_prime():
    pkg = _pkg("elliptic-F5-a5=-3")
    with pytest.raises(ValidationError):
        verify_elladic(pkg, 1, 5)        # ell = p
    with pytest.raises(ValidationError):
        verify_elladic(pkg, 1, 6)        # composite
    twisted = pkg.tate_twist(1)
    assert not compatibility_check(twisted)
    with pytest.raises(ValidationError):
        verify_elladic(twisted, 0, 3)    # fractional coefficients


def test_synthetic_unipotent_exponent():
    """A declared unipotent order feeds both z and tilde-chi; the slope-side
    identity still closes, and the Hodge comparison moves to observations."""
    pkg = _pkg("elliptic-F5-a5=-3")
    pkg.degrees[1] = pkg.degrees[1]._replace(u=2)
    rep = verify_padic(pkg, 1)
    assert rep.passed
    assert rep.synthetic
    assert rep.z[1] == 25
    assert rep.chi == Fraction(1, 25)
    assert rep.chi_tilde == 2
    assert "hodge_equals_slopes" in rep.observations
    assert "hodge_equals_slopes" not in rep.identities


def test_tate_twist_coherence():
    """Verifying at r equals verifying the r-fold twist at 0."""
    base = _pkg("elliptic-F5-a5=-3")
    for r in (0, 1):
        direct = verify_padic(base, r)
        twisted = verify_padic(base.tate_twist(r), 0)
        assert direct.passed and twisted.passed
        assert direct.abs_inverse == twisted.abs_inverse
        assert direct.chi == twisted.chi
        assert direct.chi_tilde == twisted.chi_tilde
        assert direct.rho_analytic == twisted.rho_analytic


def test_hypothesis_failure_names_the_degree():
    degrees = {
        0: PackageDegree(poly=[Fraction(1), Fraction(-1)], weight=0, u=0,
                         semisimple=False, crystal=None),
        2: PackageDegree(poly=[Fraction(1), Fraction(-10), Fraction(25)],
                         weight=2, u=0, semisimple=False, crystal=None),
    }
    pkg = CohomologyPackage(5, 1, 1, degrees)
    with pytest.raises(HypothesisFailed) as err:
        verify_padic(pkg, 1)
    assert err.value.degree == 2


def test_non_semisimple_crystal_fails_the_hypothesis(tmp_path, capsys):
    """(1-5t)^2 with the Jordan crystal [[5,1],[0,5]]: q^1 is a repeated root
    of the minimal polynomial, so the formula does not apply at r = 1."""
    ctx = Zp(5, prec=32)
    degrees = {
        0: PackageDegree(poly=[Fraction(1), Fraction(-1)], weight=0, u=0,
                         semisimple=False, crystal=None),
        2: PackageDegree(poly=[Fraction(1), Fraction(-10), Fraction(25)],
                         weight=2, u=0, semisimple=False,
                         crystal=VirtualCrystal.from_ints(
                             ctx, [[5, 1], [0, 5]])),
    }
    pkg = CohomologyPackage(5, 1, 1, degrees)
    with pytest.raises(HypothesisFailed) as err:
        verify_padic(pkg, 1)
    assert err.value.degree == 2
    f = tmp_path / "jordan.json"
    f.write_text(dump_json(encode_package(pkg)))
    assert main(["verify", "--package", str(f), "--r", "1"]) == 3
    assert "not semisimple" in capsys.readouterr().err


def test_declared_semisimplicity_is_accepted():
    degrees = {
        0: PackageDegree(poly=[Fraction(1), Fraction(-1)], weight=0, u=0,
                         semisimple=False, crystal=None),
        2: PackageDegree(poly=[Fraction(1), Fraction(-10), Fraction(25)],
                         weight=2, u=0, semisimple=True, crystal=None),
    }
    pkg = CohomologyPackage(5, 1, 1, degrees)
    rep = verify_padic(pkg, 1)
    assert rep.hypothesis[2] == "declared"
    assert rep.passed


def test_report_dict_round_trip_fields():
    rep = verify_padic(_pkg("P1"), 1)
    d = rep.to_dict()
    assert d["route"] == "p-adic"
    assert d["passed"] is True
    assert set(d["identities"]) == {"rho_match", "leading_vs_slopes",
                                    "hodge_equals_slopes", "leading_vs_hodge"}
    assert d["precision_audit"]["hodge_route"] is True
