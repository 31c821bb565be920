"""Integral zeta-factor coefficients stay `int`.

The deflation at q^r, the evaluation at q^{-r} and the Kunneth product run
on ints where a coefficient is integral and on Fractions where it is not,
by one code path.  The all-Fraction kernels they replaced
(tests/fraction_oracles.py) must give the same multiplicity, value and
slope sum on integer and rational factors with repeated roots at q^r.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

from fqzeta import isocrystals, polys
from fqzeta.geometry import VarietySpec, corpus, package
from fqzeta.isocrystals import newton_slopes_exact
from fqzeta.serialize import dump_json, encode_package, parse_json
import fraction_oracles as old

GOLDEN = Path(__file__).resolve().parent / "golden"


def _as_library(c):
    """A coefficient as the library holds it: int when integral."""
    return c.numerator if c.denominator == 1 else c


def _case(rng, p, a, r, m):
    """(1 - q^r t)^m R(t) with R of degree 0-4, constant term 1, and
    integer or rational coefficients (half the cases each)."""
    q_r = Fraction(p) ** (a * r)
    rational = rng.random() < 0.5
    R = [Fraction(1)]
    for _ in range(rng.randrange(5)):
        num = rng.randrange(-30, 31)
        R.append(Fraction(num, rng.choice((1, 2, 3, p, p * p)))
                 if rational else Fraction(num))
    if rng.random() < 0.3:
        R.append(Fraction(rng.choice((-1, 1)) * p ** rng.randrange(4)))
    P = R
    for _ in range(m):
        P = polys.poly_mul(P, [1, -q_r])
    return P


def test_int_path_matches_the_fraction_oracle():
    """2 352 seeded factors over p in {2, 3, 5, 7}, a in {1, 2, 3},
    r in [-3, 3] and m in {0, 1, 2, 3}: multiplicity, deflated factor,
    value at q^{-r} and slope sum agree with the all-Fraction kernels."""
    rng = random.Random(22)
    cases = integral = 0
    for p, a, r, m in itertools.product((2, 3, 5, 7), (1, 2, 3),
                                        range(-3, 4), range(4)):
        for _ in range(7):
            want_P = _case(rng, p, a, r, m)
            P = [_as_library(c) for c in want_P]
            profile = newton_slopes_exact(P, p, a)
            assert profile == newton_slopes_exact(want_P, p, a)
            got = isocrystals.eigenproduct_excluding(P, p, a, r, profile)
            want = old.eigenproduct_excluding(want_P, p, a, r, profile)
            assert got == want, (p, a, r, P)
            assert got.m >= m and type(got.value) is Fraction
            q_r = Fraction(p) ** (a * r)
            m_got, cur = polys.root_multiplicity(P, _as_library(q_r))
            assert (m_got, cur) == old.root_multiplicity(want_P, q_r)
            if all(type(c) is int for c in P) and r >= 0:
                assert all(type(c) is int for c in cur)
                integral += 1
            cases += 1
    assert cases >= 2000 and integral > 300


def test_deflate_once_matches_the_fraction_oracle():
    rng = random.Random(23)
    for _ in range(500):
        P = [1] + [rng.randrange(-50, 51) for _ in range(rng.randrange(6))]
        c = rng.choice((rng.randrange(-9, 10),
                        Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))))
        got = polys.deflate_once(P, c)
        assert got == old.deflate_once(P, c), (P, c)
        if type(c) is int:
            assert all(type(x) is int for x in got[0] + [got[1]])


def _all_ints(pkg):
    return all(type(c) is int for d in pkg.degrees.values() for c in d.poly)


def test_untwisted_packages_have_int_coefficients():
    """Every factor coefficient of the corpus and of its pairwise products
    is an int, and so is every coefficient read back from the package
    document of tests/golden/eee_f5.json."""
    fix = list(corpus().values())
    for spec in fix:
        assert _all_ints(package(spec)), spec
    for first, second in itertools.combinations_with_replacement(fix, 2):
        spec = VarietySpec.product([first, second])
        assert _all_ints(package(spec)), spec
    pkg = package(parse_json((GOLDEN / "eee_f5.json").read_text()))
    assert _all_ints(pkg)
    assert _all_ints(parse_json(dump_json(encode_package(pkg))))


def test_rational_pieces_stay_fractions():
    """Tate pieces Q_p(-i) with i < 0 and Tate twists have non-integral
    coefficients, and those are Fractions."""
    pkg = package(VarietySpec.projective(1, 5)).tate_twist(1)
    assert pkg.degrees[0].poly == [1, Fraction(-1, 5)]
    assert [type(c) for c in pkg.degrees[0].poly] == [int, Fraction]
    assert pkg.degrees[2].poly == [1, -1]
    assert _all_ints(package(VarietySpec.projective(1, 5)).tate_twist(-1))
