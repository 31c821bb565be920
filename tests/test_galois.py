"""Gamma-modules: invariants, coinvariants, z(f) by two routes, rank calculus."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fqzeta import gammamodules, plinalg
from fqzeta.cli import main
from fqzeta.errors import MultipleRootError, ValidationError
from fqzeta.gammamodules import (
    GammaModule,
    TorsionComponent,
    chi_from_zf,
    ext_ranks,
    invariants_coinvariants,
    rho_from_ranks,
    z_of_f,
)


def _z(m):
    """z(f) by both routes, which must agree."""
    via_snf = z_of_f(m, route="snf")
    assert via_snf == z_of_f(m, route="poly")
    return via_snf


def test_identity_action_has_full_invariants():
    m = GammaModule("Zp", 5, [[1, 0], [0, 1]])
    inv, coinv = invariants_coinvariants(m)
    assert inv.free_rank == coinv.free_rank == 2
    assert inv.torsion == coinv.torsion == []
    # semisimple at 1 (minimal polynomial t - 1): f is the identity
    assert _z(m) == 1


def test_jordan_block_at_one_is_rejected():
    m = GammaModule("Zp", 5, [[1, 1], [0, 1]])
    with pytest.raises(MultipleRootError):
        z_of_f(m, route="snf")
    with pytest.raises(MultipleRootError):
        z_of_f(m, route="poly")


def test_unit_difference_gives_trivial_cohomology():
    # gamma = 2 on Z_5: 1 - gamma is a unit, so both groups vanish
    m = GammaModule("Zp", 5, [[2]])
    inv, coinv = invariants_coinvariants(m)
    assert inv == coinv
    assert inv.free_rank == 0 and inv.torsion == []
    assert _z(m) == 1


def test_z_of_f_single_eigenvalue_near_one():
    # gamma = 6 = 1 + 5: coker(1 - gamma) = Z/5, Ker = 0 on the free part
    m = GammaModule("Zp", 5, [[6]])
    inv, coinv = invariants_coinvariants(m)
    assert inv.free_rank == coinv.free_rank == 0
    assert coinv.torsion == [1]
    assert _z(m) == Fraction(1, 5)


def test_z_of_f_mixed_block():
    m = GammaModule("Zp", 5, [[6, 0], [5, 1]])
    inv, coinv = invariants_coinvariants(m)
    assert inv.free_rank == coinv.free_rank == 1
    assert _z(m) == Fraction(1, 5)


def test_z_routes_agree_and_match_charpoly_derivative():
    """For gamma with a simple eigenvalue 1, z = |P'(1)|_p read through the
    deflated polynomial; a hand case: gamma = diag(1, 1+25)."""
    m = GammaModule("Zp", 5, [[1, 0], [0, 26]])
    assert z_of_f(m, route="snf") == z_of_f(m, route="poly") == Fraction(1, 25)


def test_torsion_component_with_trivial_action():
    base = GammaModule("Zp", 5, [[2]])
    with_torsion = GammaModule("Zp", 5, [[2]],
                               torsion=(TorsionComponent(2, 1),))
    inv, coinv = invariants_coinvariants(with_torsion)
    assert inv.torsion == coinv.torsion == [2]
    # equal contributions to kernel and cokernel cancel in z
    assert _z(with_torsion) == _z(base)


def test_torsion_component_with_unit_action_is_invisible():
    m = GammaModule("Zp", 5, [[2]], torsion=(TorsionComponent(3, 2),))
    inv, coinv = invariants_coinvariants(m)
    assert inv.torsion == coinv.torsion == []
    assert _z(m) == 1


def test_torsion_partial_action():
    # unit = 1 + 5 on Z/25: d = v(5) = 1, contributing Z/5 to both sides
    m = GammaModule("Zp", 5, [[2]], torsion=(TorsionComponent(2, 6),))
    inv, coinv = invariants_coinvariants(m)
    assert inv.torsion == coinv.torsion == [1]


def test_validation_rejects_bad_input():
    with pytest.raises(ValidationError):
        GammaModule("Qp", 5, [[1]])
    with pytest.raises(ValidationError):
        GammaModule("Zp", 5, [[Fraction(1, 5)]])
    with pytest.raises(ValidationError):
        GammaModule("Zp", 5, [[2]], torsion=(TorsionComponent(2, 5),))
    with pytest.raises(ValidationError):
        GammaModule("Zp", 5, [[1, 2]])


def test_z_of_f_dual_routes_random():
    """Seeded sweep over both coefficient rings: the Smith-form route and the
    polynomial route must give the same power of p every time."""
    rng = random.Random(97)
    checked = 0
    for _ in range(80):
        ring, prime = rng.choice([("Zp", 5), ("Zp", 3), ("Zl", 7)])
        n = rng.randrange(1, 5)
        gamma = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        torsion = [TorsionComponent(rng.randrange(1, 4),
                                    rng.randrange(1, prime ** 2))
                   for _ in range(rng.randrange(0, 3))
                   if True]
        torsion = [t for t in torsion if t.unit % prime]
        try:
            m = GammaModule(ring, prime, gamma, torsion=torsion)
        except ValidationError:
            continue
        try:
            a = z_of_f(m, route="snf")
        except MultipleRootError:
            with pytest.raises(MultipleRootError):
                z_of_f(m, route="poly")
            continue
        except ValidationError:
            continue      # singular gamma: not an allowed module
        b = z_of_f(m, route="poly")
        assert a == b
        # z is always an integer power of the residue characteristic
        assert a.numerator == 1 or a.denominator == 1
        checked += 1
    assert checked >= 30


def test_eigen_multiplicity_at_one():
    assert GammaModule("Zp", 5, [[2]]).at_one[0] == 0
    assert GammaModule("Zp", 5, [[1]]).at_one[0] == 1
    m = GammaModule("Zp", 5, [[1, 1], [0, 1]])
    assert m.at_one[0] == 2


def test_zf_computes_one_smith_form_and_one_charpoly(monkeypatch, capsys):
    """`fqzeta zf` reads both routes and the invariants off one Smith form
    of 1 - gamma and one det(1 - t*gamma).  On the golden module z0 = 0,
    so the Smith-form route needs no presentation of coker f."""
    calls = Counter()
    for module, name in ((plinalg, "smith_normal_form"),
                         (gammamodules, "smith_normal_form"),
                         (gammamodules, "rev_charpoly_fractions")):
        def counted(*args, _f=getattr(module, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    golden = Path(__file__).parent / "golden" / "gamma.json"
    assert main(["zf", "--gamma", str(golden)]) == 0
    assert calls == {"smith_normal_form": 1, "rev_charpoly_fractions": 1}
    assert '"routes_agree": true' in capsys.readouterr().out


def test_ext_ranks_oracle():
    # single multiplicity in degree 2 (a curve at r = 1)
    ranks = ext_ranks({0: 0, 1: 0, 2: 1})
    assert ranks == {2: 1, 3: 1}
    assert sum((-1) ** j * rk for j, rk in ranks.items()) == 0
    assert rho_from_ranks(ranks) == 1


def test_ext_ranks_alternating_sum_vanishes_random():
    rng = random.Random(12)
    for _ in range(50):
        mults = {j: rng.randrange(0, 4) for j in range(rng.randrange(1, 6))}
        ranks = ext_ranks(mults)
        assert sum((-1) ** j * rk for j, rk in ranks.items()) == 0
        assert rho_from_ranks(ranks) == sum((-1) ** j * m
                                            for j, m in mults.items())


def test_chi_from_zf_alternates():
    z = {0: Fraction(5), 1: Fraction(25), 2: Fraction(5)}
    assert chi_from_zf(z) == Fraction(5 * 5, 25)
    assert chi_from_zf({}) == 1
