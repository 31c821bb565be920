"""Point counting, closed points, and cohomology-package emission."""

import json
import math
from fractions import Fraction

import pytest

from fqzeta import geometry
from fqzeta.cli import main
from fqzeta.errors import (
    BudgetExceeded,
    GeneralConeError,
    ValidationError,
)
from fqzeta.geometry import (
    VarietySpec,
    closed_points,
    corpus,
    package,
    point_counts,
)
from fqzeta.lfun import euler_product_series, rational_series
from fqzeta.padics import field
from fqzeta.polys import poly_mul
from fqzeta.serialize import parse_json

BUDGET = 10 ** 5

ELLIPTIC = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
SUPERSINGULAR = VarietySpec.elliptic([0, 0, 0, 0, 1], 5)


def test_point_counts_of_standard_spaces():
    p1 = VarietySpec.projective(1, 5)
    assert point_counts(p1, 3, budget=BUDGET) == (6, 26, 126)
    p2 = VarietySpec.projective(2, 5)
    assert point_counts(p2, 2, budget=BUDGET) == (31, 651)
    a1 = VarietySpec.affine(1, 5)
    assert point_counts(a1, 3, budget=BUDGET) == (5, 25, 125)
    gm = VarietySpec.torus(5)
    assert point_counts(gm, 3, budget=BUDGET) == (4, 24, 124)
    pts = VarietySpec.points(3, 5)
    assert point_counts(pts, 4, budget=BUDGET) == (3, 3, 3, 3)


def test_point_counts_of_elliptic_fixtures():
    assert point_counts(ELLIPTIC, 6, budget=BUDGET) == \
        (9, 27, 108, 675, 3069, 15552)
    assert point_counts(SUPERSINGULAR, 4, budget=BUDGET) == (6, 36, 126, 576)


def test_point_counts_over_extension_base():
    # same curve viewed over F_25: counts are the even-index counts
    over_f25 = VarietySpec.elliptic([0, 0, 0, 1, 1], 5, a=2)
    assert point_counts(over_f25, 3, budget=BUDGET) == (27, 675, 15552)


def test_product_and_complement_counts():
    p1 = VarietySpec.projective(1, 5)
    prod = VarietySpec.product([p1, p1])
    assert point_counts(prod, 2, budget=BUDGET) == (36, 676)
    comp = VarietySpec.complement(p1, VarietySpec.points(1, 5))
    assert point_counts(comp, 3, budget=BUDGET) == (5, 25, 125)


def test_closed_points_moebius():
    p1 = VarietySpec.projective(1, 5)
    counts = point_counts(p1, 4, budget=BUDGET)
    assert closed_points(counts) == {1: 6, 2: 10, 3: 40, 4: 150}


def test_certified_extension_matches_enumeration(monkeypatch):
    """The recurrence is checked against an enumerated N_2 when the budget
    leaves room for it; a count that disagrees raises ValidationError."""
    q = ELLIPTIC.q
    unchecked = point_counts(ELLIPTIC, 4, budget=3 * q)
    checked = point_counts(ELLIPTIC, 4, budget=3 * q + 3 * q * q)
    assert unchecked == checked == (9, 27, 108, 675)

    enumerate_elliptic = geometry._enumerate_elliptic

    def wrong_n2(field, coeffs):
        n = enumerate_elliptic(field, coeffs)
        return n + 1 if field.order == q * q else n

    monkeypatch.setattr(geometry, "_enumerate_elliptic", wrong_n2)
    assert point_counts(ELLIPTIC, 4, budget=3 * q) == unchecked
    with pytest.raises(ValidationError, match="degree 2"):
        point_counts(ELLIPTIC, 4, budget=3 * q + 3 * q * q)


def test_repeated_product_factor_is_counted_once():
    """E x E enumerates N_1 of E once, so 3q pays for it; E x E' needs
    N_1 of two curves, 6q."""
    q = ELLIPTIC.q
    square = VarietySpec.product([ELLIPTIC, ELLIPTIC])
    assert point_counts(square, 3, budget=3 * q) == (81, 729, 11664)
    pair = VarietySpec.product([ELLIPTIC, SUPERSINGULAR])
    with pytest.raises(BudgetExceeded):
        point_counts(pair, 3, budget=3 * q)
    assert point_counts(pair, 3, budget=6 * q) == (54, 972, 13608)


def test_budget_boundary_is_the_n1_cost():
    """N_1 of a curve over F_q, q = p^a, costs one pass over F_p and is
    billed 3p: BudgetExceeded is raised below 3p, before any field is
    built; at 3p the counts come back.  Closed forms cost nothing."""
    curve = VarietySpec.elliptic([0, 0, 0, 1, 1], 7, a=2)
    p, q = curve.p, curve.q
    before = field.cache_info()
    with pytest.raises(BudgetExceeded):
        point_counts(curve, 3, budget=3 * p - 1)
    assert field.cache_info() == before     # no field asked for, or built
    assert len(point_counts(curve, 3, budget=3 * p)) == 3
    assert point_counts(curve, 0, budget=0) == ()
    assert point_counts(VarietySpec.projective(2, 7, 2), 3, budget=0) == \
        tuple(sum(q ** (e * i) for i in range(3)) for e in (1, 2, 3))


def test_package_spends_the_point_counts_budget(tmp_path):
    """package counts every distinct curve under one budget, exactly as
    point_counts does: E x E' over F_5 needs 3q for each curve, so 6q - 1
    is refused by both, and `fqzeta package` and `verify` exit 2."""
    q = ELLIPTIC.q
    pair = VarietySpec.product([ELLIPTIC, SUPERSINGULAR])
    for count in (lambda b: point_counts(pair, 1, budget=b),
                  lambda b: package(pair, budget=b)):
        with pytest.raises(BudgetExceeded):
            count(6 * q - 1)
        count(6 * q)
    text = json.dumps({"kind": "product", "p": 5, "factors": [
        {"kind": "elliptic", "coeffs": list(c.coeffs), "p": 5}
        for c in (ELLIPTIC, SUPERSINGULAR)]})
    assert parse_json(text, expected={"variety"}) == pair
    doc = tmp_path / "pair.json"
    doc.write_text(text)
    for command in (["package"], ["verify", "--r", "1"]):
        assert main(command + ["--variety", str(doc),
                               "--budget", str(6 * q - 1)]) == 2


def test_package_enumerates_each_curve_once_per_degree(monkeypatch):
    """E x E x E over F_5 enumerates E over F_5 (N_1) and F_25 (the N_2
    cross-check) once each, not once per copy."""
    fields = []
    enumerate_elliptic = geometry._enumerate_elliptic

    def recorded(field, coeffs):
        fields.append(field.order)
        return enumerate_elliptic(field, coeffs)

    monkeypatch.setattr(geometry, "_enumerate_elliptic", recorded)
    pkg = package(VarietySpec.product([ELLIPTIC] * 3), budget=BUDGET)
    assert fields == [5, 25]
    h1 = [1, 3, 5]                                          # N_1 = 9
    assert pkg.degrees[1].poly == poly_mul(poly_mul(h1, h1), h1)


def test_curve_over_extension_enumerates_only_f_p_and_the_cross_check(
        monkeypatch):
    """E over F_125 enumerates F_5 for N_1 and, when 3p + 3q^2 fits,
    F_{5^6} for the N_2 cross-check; below 3p no field is built."""
    curve = VarietySpec.elliptic([0, 0, 0, 1, 1], 5, a=3)
    p, q = curve.p, curve.q
    fields = []
    enumerate_elliptic = geometry._enumerate_elliptic

    def recorded(field, coeffs):
        fields.append(field.order)
        return enumerate_elliptic(field, coeffs)

    monkeypatch.setattr(geometry, "_enumerate_elliptic", recorded)
    want = point_counts(curve, 2, budget=3 * p + 3 * q * q - 1)
    assert fields == [5]
    fields.clear()
    assert point_counts(curve, 2, budget=3 * p + 3 * q * q) == want
    assert fields == [5, 5 ** 6]
    fields.clear()
    before = field.cache_info()
    with pytest.raises(BudgetExceeded):
        point_counts(curve, 2, budget=3 * p - 1)
    assert field.cache_info() == before and fields == []


def test_curve_over_f_5_11_fits_the_default_budget(tmp_path, capsys):
    """N_1 over F_{5^11} is billed one pass over F_5, so `fqzeta zeta`
    prints the zeta function of y^2 = x^3 + x + 1 at the default budget
    (billed as 3q it needed 1.5 * 10^8 operations and exited 2); N_2
    over F_{5^22} stays out of reach, so it is not cross-checked."""
    doc = tmp_path / "e_f5_11.json"
    doc.write_text(json.dumps({"kind": "elliptic", "coeffs": [1, 1],
                               "p": 5, "a": 11}))
    assert main(["zeta", "--variety", str(doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    q = 5 ** 11
    a_q = q + 1 - report["point_counts"][0]
    assert report["euler_match"] is True
    assert report["factors"]["1"] == [1, -a_q, q]
    assert abs(a_q) <= 2 * math.isqrt(q) + 1


def test_package_shapes_for_projective_line():
    pkg = package(VarietySpec.projective(1, 5), budget=BUDGET)
    assert sorted(pkg.degrees) == [0, 2]
    assert pkg.degrees[0].poly == [1, -1]
    assert pkg.degrees[2].poly == [1, -5]
    assert pkg.degrees[0].weight == 0 and pkg.degrees[2].weight == 2
    assert pkg.degrees[0].crystal.slopes() == [(Fraction(0), 1)]
    assert pkg.degrees[2].crystal.slopes() == [(Fraction(1), 1)]
    assert pkg.dim == 1 and pkg.q == 5


def test_package_shapes_for_elliptic_curve():
    pkg = package(ELLIPTIC, budget=BUDGET)
    assert sorted(pkg.degrees) == [0, 1, 2]
    assert pkg.degrees[1].poly == [1, 3, 5]
    assert pkg.degrees[1].weight == 1
    assert pkg.degrees[1].crystal.slopes() == \
        [(Fraction(0), 1), (Fraction(1), 1)]
    ss = package(SUPERSINGULAR, budget=BUDGET)
    assert ss.degrees[1].poly == [1, 0, 5]
    assert ss.degrees[1].crystal.slopes() == [(Fraction(1, 2), 2)]


def test_package_zeta_equals_euler_product():
    for name, spec in corpus().items():
        pkg = package(spec, budget=BUDGET)
        counts = point_counts(spec, 10, budget=BUDGET)
        got = rational_series(pkg.zeta(), 10)
        want = euler_product_series(closed_points(counts), 10)
        assert got == want, name


def test_kunneth_degrees_of_surface():
    pkg = package(corpus()["P1xP1"], budget=BUDGET)
    assert sorted(pkg.degrees) == [0, 2, 4]
    assert pkg.degrees[2].poly == [1, -10, 25]      # (1 - 5t)^2
    assert pkg.degrees[4].poly == [1, -25]
    assert pkg.degrees[2].crystal.rank == 2


def test_cone_rule_complement_reproduces_affine_line():
    p1 = VarietySpec.projective(1, 5)
    comp = VarietySpec.complement(p1, VarietySpec.points(1, 5))
    affine = VarietySpec.affine(1, 5)
    got = package(comp, budget=BUDGET)
    want = package(affine, budget=BUDGET)
    assert sorted(got.degrees) == sorted(want.degrees)
    assert all(got.degrees[j].poly == want.degrees[j].poly
               for j in got.degrees)


def test_cone_rule_two_points_gives_torus():
    p1 = VarietySpec.projective(1, 5)
    comp = VarietySpec.complement(p1, VarietySpec.points(2, 5))
    got = package(comp, budget=BUDGET)
    want = package(VarietySpec.torus(5), budget=BUDGET)
    assert sorted(got.degrees) == sorted(want.degrees) == [1, 2]
    assert all(got.degrees[j].poly == want.degrees[j].poly
               for j in got.degrees)


def test_cone_rule_rejects_general_closed_subvariety():
    gm = VarietySpec.torus(5)
    with pytest.raises(GeneralConeError):
        package(VarietySpec.complement(gm, VarietySpec.points(1, 5)),
                budget=BUDGET)


@pytest.mark.parametrize("ambient,removed", [
    (VarietySpec.projective(1, 5), 7),      # N_1 = 6
    (VarietySpec.projective(0, 5), 2),      # N_1 = 1
])
def test_complement_cannot_remove_more_points_than_exist(capsys, tmp_path,
                                                         ambient, removed):
    """package, and so verify, refuse the complement that point_counts
    refuses, with its message; `fqzeta verify` exits 2 at r = 0 and 1."""
    spec = VarietySpec.complement(ambient, VarietySpec.points(removed, 5))
    message = "complement has negative count -1 in degree 1"
    with pytest.raises(ValidationError, match=message):
        point_counts(spec, 1)
    with pytest.raises(ValidationError, match=message):
        package(spec, budget=BUDGET)
    text = json.dumps({"kind": "complement", "p": 5, "ambient": {
        "kind": "projective", "n": ambient.n, "p": 5}, "closed": {
        "kind": "points", "count": removed, "p": 5}})
    assert parse_json(text, expected={"variety"}) == spec
    doc = tmp_path / "complement.json"
    doc.write_text(text)
    for r in ("0", "1"):
        assert main(["verify", "--variety", str(doc), "--r", r]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_twisted_package():
    pkg = package(VarietySpec.projective(1, 5), twist=[[5]], budget=BUDGET)
    assert pkg.degrees[0].poly == [1, -5]
    assert pkg.degrees[2].poly == [1, -25]
    assert pkg.degrees[0].weight is None        # twists forget purity


@pytest.mark.parametrize("a", (1, 2))
@pytest.mark.parametrize("twist", ([[0]], [[1, 1], [1, 1]]))
def test_singular_twist_is_refused_where_it_enters(a, twist):
    """A singular twist is no isocrystal: det(1 - t T^a) has degree below
    the rank, and the twist is refused before any package is built."""
    with pytest.raises(ValidationError, match="must be invertible"):
        package(VarietySpec.projective(1, 5, a), twist=twist, budget=BUDGET)


def test_purity_for_smooth_proper_corpus():
    for name, spec in corpus().items():
        if spec.kind in ("torus", "complement"):
            continue
        pkg = package(spec, budget=BUDGET)
        assert pkg.check_purity(), name


def test_tate_twist_scales_zeta_and_weights():
    pkg = package(ELLIPTIC, budget=BUDGET)
    tw = pkg.tate_twist(1)
    assert tw.degrees[1].poly == [1, Fraction(3, 5), Fraction(5, 25)]
    assert tw.degrees[1].weight == -1
    assert tw.degrees[1].crystal.slopes() == \
        [(Fraction(-1), 1), (Fraction(0), 1)]


def test_tate_twist_keeps_the_unipotent_exponent():
    """A twist is a Kunneth factor with u = 0, so a degree's u passes
    through it; two nonzero exponents still do not combine."""
    pkg = package(VarietySpec.product([ELLIPTIC, VarietySpec.torus(5)]),
                  budget=BUDGET)
    pkg.degrees[1] = pkg.degrees[1]._replace(u=2)
    twisted = pkg.tate_twist(1)
    assert {j: d.u for j, d in twisted.degrees.items()} == \
        {j: d.u for j, d in pkg.degrees.items()} == {1: 2, 2: 0, 3: 0, 4: 0}
    with pytest.raises(ValidationError, match="do not combine"):
        geometry._kunneth(pkg.degrees, pkg.degrees)


def test_elliptic_requires_good_reduction():
    with pytest.raises(ValidationError):
        VarietySpec.elliptic([0, 0, 0, 0, 0], 5)
    # discriminant divisible by p
    with pytest.raises(ValidationError):
        VarietySpec.elliptic([0, 0, 0, -3, 2], 5)   # disc = -2^4 3^3 ... = 0 mod 5?


def test_corpus_contents():
    fix = corpus()
    assert {"P1", "P2", "A1", "Gm", "P1xP1"} <= set(fix)
    assert any(s.kind == "elliptic" for s in fix.values())
    assert fix["A1"].kind == "complement"
