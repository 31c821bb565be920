"""Gamma-modules: invariants, coinvariants, z(f) by two routes, rank calculus."""

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fqzeta import gammamodules, plinalg
from fqzeta.cli import main
from fqzeta.errors import (MultipleRootError, PrecisionExhausted,
                           ValidationError)
from fqzeta.gammamodules import (
    GammaModule,
    TorsionComponent,
    chi_from_zf,
    ext_ranks,
    invariants_coinvariants,
    rho_from_ranks,
    z_of_f,
)
from fqzeta.plinalg import mat_mul, smith_normal_form


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


def _stacked_z_snf_route(m):
    """The Smith-form route as it was before the block-triangular closed
    form: one Smith form of the whole stacked presentation
    C = [[G_t, diag(p^e)], [G_f, 0]] of coker f, and the torsion
    components multiplied into both [Ker f] and [coker f]."""
    ctx = m._ctx
    m.defined_at_one()
    snf = m.snf
    z0 = snf.divisors.count(None)
    ker_order = Fraction(1)
    coker_order = Fraction(1)
    if z0 > 0:
        n = m.rank
        kcols = [k for k, e in enumerate(snf.divisors) if e is None]
        K = [[snf.V_inv[i][j] for j in kcols] for i in range(n)]
        G = mat_mul(snf.U_inv, K)
        torsion_rows = [i for i, e in enumerate(snf.divisors)
                        if e is not None and e > 0]
        rows = torsion_rows + kcols
        t = len(torsion_rows)
        C = []
        for ridx, i in enumerate(rows):
            rel = [ctx.from_int(m.prime ** snf.divisors[torsion_rows[j]]
                                if ridx == j else 0) for j in range(t)]
            C.append([G[i][j] for j in range(z0)] + rel)
        snf2 = smith_normal_form(C)
        if any(e is None for e in snf2.divisors):
            raise ValidationError("cokernel of f is infinite")
        coker_order *= Fraction(m.prime) ** sum(snf2.divisors)
    else:
        coker_order *= Fraction(m.prime) ** sum(
            e for e in snf.divisors if e is not None and e > 0)
    for comp in m.torsion:
        d = m._torsion_d(comp)
        k = min(d, comp.e - d)
        ker_order *= Fraction(m.prime) ** k
        coker_order *= Fraction(m.prime) ** k
    return ker_order / coker_order


def _random_module(rng, prime):
    """gamma = 1 - A B with A n x k and B k x n, so 1 - gamma has a kernel
    of rank >= n - k (an eigenvalue 1, repeated in the minimal polynomial
    exactly when B A is singular), or a plain random integer gamma; a
    precision from one digit above the guard to the default; torsion with
    random units."""
    n = rng.randrange(1, 5)
    if rng.random() < 0.7:
        k = rng.randrange(0, n + 1)
        A = [[rng.randrange(-prime ** 2, prime ** 2 + 1) for _ in range(k)]
             for _ in range(n)]
        B = [[rng.randrange(-prime ** 2, prime ** 2 + 1) for _ in range(n)]
             for _ in range(k)]
        gamma = [[(i == j) - sum(A[i][t] * B[t][j] for t in range(k))
                  for j in range(n)] for i in range(n)]
    else:
        gamma = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    torsion = [TorsionComponent(rng.randrange(1, 4), u)
               for u in (rng.randrange(1, prime ** 3)
                         for _ in range(rng.randrange(0, 3))) if u % prime]
    return GammaModule(rng.choice(("Zp", "Zl")), prime, gamma,
                       torsion=torsion, prec=rng.choice((9, 10, 12, 64)))


def test_snf_route_matches_the_stacked_presentation():
    """The closed form p^{sum e} p^{v(det G_f)} against one Smith form of
    the stacked presentation of coker f, on 400 seeded modules over
    p in {2, 3, 5, 7}.  Where the stacked form certifies, both give the
    same z; the closed form no longer reads G_t, so only it may certify
    where the stacked form runs out of precision."""
    rng = random.Random(18)
    outcomes = Counter()
    for _ in range(400):
        m = _random_module(rng, rng.choice((2, 3, 5, 7)))
        try:
            want = _stacked_z_snf_route(m)
        except (MultipleRootError, ValidationError, PrecisionExhausted) as exc:
            want = type(exc)
        try:
            got = z_of_f(m, route="snf")
        except (MultipleRootError, ValidationError, PrecisionExhausted) as exc:
            got = type(exc)
        if want is PrecisionExhausted and got is not want:
            outcomes["certifies where the stacked form raised"] += 1
            continue
        assert got == want, (got, want)
        if not isinstance(got, Fraction):
            outcomes[got.__name__] += 1
        else:
            outcomes["free" if None in m.snf.divisors else "no free"] += 1
    assert outcomes["free"] > 50 and outcomes["no free"] > 50, outcomes


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
