"""Point counts against exhaustive enumeration on the tuple kernel.

`_enumerate_elliptic` counts #E(F) with Zech log tables over one x per
Frobenius orbit, weighted by the orbit's size.  The oracles below are the
loops it replaced: the same Zech-log count over every x (`_all_x_count`),
a Counter of squares when a1 = a3 = 0, and every (x, y) pair otherwise.
`point_counts` enumerates only #E(F_p) of a curve over F_q, q = p^a (and
N_2 over F_{q^2} as a runtime cross-check), and takes N_1 and the rest
from the Weil recurrence; N_1 is checked here against a count over F_q
itself.  It counts P^n, A^n and G_m by closed forms; the brute-force
enumerators it used to run for those live here too, so every degree it
returns is checked against a full count.
"""

import itertools
import random
from collections import Counter

import pytest

from fqzeta.geometry import (
    VarietySpec,
    _enumerate_elliptic,
    _weierstrass_discriminant,
    point_counts,
)
from fqzeta.padics import FiniteField

FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)]
# F_{q^2} for q = p^a, a = 1, 2, 3: the fields of the N_2 cross-check
ORBIT_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 7)]


def ff_add(field, u, v):
    """The sum of raw tuples of F_{p^k}: the tuple kernel's addition."""
    return tuple((a + b) % field.p for a, b in zip(u, v))


def _all_x_count(field, coeffs):
    """#E(F) by the Zech-log evaluation at every x in F, not one x per
    Frobenius orbit."""
    _, log, zech, squares, traces, _ = field.log_tables()
    p, q = field.p, field.order
    n = q - 1                   # log of zero

    def add(u, v):              # log(g^u + g^v)
        if u == n:
            return v
        if v == n:
            return u
        z = zech[(v - u) % n]
        return n if z == n else (u + z) % n

    def mul(u, v):              # log(g^u g^v)
        return n if u == n or v == n else (u + v) % n

    a1, a2, a3, a4, a6 = (log[c % p] for c in coeffs)
    total = 1                   # the point at infinity
    for x in range(q):
        rhs = add(mul(add(mul(add(x, a2), x), a4), x), a6)
        c = add(mul(a1, x), a3)
        if c == n:
            total += squares[rhs]
        else:
            total += traces[mul(rhs, -2 * c % n)]
    return total


@pytest.mark.parametrize("p,k", ORBIT_FIELDS)
def test_orbit_count_matches_the_all_x_loop(p, k):
    """One x per Frobenius orbit gives the count of every x, on random
    nonsingular curves with a1 = a3 = 0 (the `squares` path, p odd) and
    with a1, a3 != 0 (the `traces` path)."""
    rng = random.Random(1000 * p + k)
    F = FiniteField(p, k)
    for cross in ((True,) if p == 2 else (False, True)):
        for _ in range(3):
            coeffs = _random_curve(rng, p, cross)
            if cross:
                while not coeffs[0] or not coeffs[2]:
                    coeffs = _random_curve(rng, p, cross)
            assert _enumerate_elliptic(F, coeffs) == _all_x_count(F, coeffs)


@pytest.mark.parametrize("p,k", ORBIT_FIELDS)
def test_orbit_table_marks_each_orbit_at_its_least_log(p, k):
    """orbits[l] = #{l p^j mod n} at the least l of each orbit of
    x -> x^p on logs, 0 elsewhere; zero (log n) is its own orbit."""
    F = FiniteField(p, k)
    orbits = F.log_tables()[5]
    q, n = F.order, F.order - 1
    want = bytearray(q)
    want[n] = 1
    for i in range(n):
        orbit = {i * p ** j % n for j in range(k)}
        want[min(orbit)] = len(orbit)
    assert orbits == want
    assert sum(orbits) == q
    assert all(k % size == 0 for size in orbits if size)
    if k == 1:
        assert orbits == bytearray([1]) * q


def _oracle_count(field, coeffs):
    """#E(F) by exhaustive evaluation of the Weierstrass equation."""
    a1, a2, a3, a4, a6 = ((c % field.p,) + (0,) * (field.k - 1)
                          for c in coeffs)
    mul = field.mul

    def add(u, v):
        return ff_add(field, u, v)

    total = 0
    if not any(a1) and not any(a3):
        squares = Counter()
        for y in field.elements():
            squares[mul(y, y)] += 1
        for x in field.elements():
            rhs = add(mul(add(mul(add(x, a2), x), a4), x), a6)
            total += squares.get(rhs, 0)
    else:
        elements = list(field.elements())
        for x in elements:
            rhs = add(mul(add(mul(add(x, a2), x), a4), x), a6)
            cross = add(mul(a1, x), a3)
            for y in elements:
                lhs = add(mul(y, y), mul(cross, y))
                if lhs == rhs:
                    total += 1
    return total + 1


def _random_curve(rng, p, cross):
    """Nonsingular [a1, a2, a3, a4, a6] over F_p; (a1, a3) != (0, 0) if
    cross, a1 = a3 = 0 otherwise."""
    while True:
        a1, a2, a3, a4, a6 = (rng.randrange(p) for _ in range(5))
        if not cross:
            a1 = a3 = 0
        coeffs = (a1, a2, a3, a4, a6)
        if (a1 or a3 or not cross) and _weierstrass_discriminant(*coeffs) % p:
            return coeffs


def _counts(p, k, coeffs):
    """(orbit count, exhaustive count) of #E(F_{p^k})."""
    F = FiniteField(p, k)
    return _enumerate_elliptic(F, coeffs), _oracle_count(F, coeffs)


def _cases():
    rng = random.Random(6)
    for p, k in FIELDS:
        # y^2 = cubic is singular in characteristic 2
        kinds = (True,) if p == 2 else (False, True)
        for cross in kinds:
            # the pair loop is O(q^2): one curve on the largest fields
            for _ in range(1 if cross and p ** k > 125 else 3):
                yield p, k, _random_curve(rng, p, cross)


# supersingular: y^2 + y = x^3 (p = 2), y^2 = x^3 - x (p = 3, 7),
# y^2 = x^3 + 1 (p = 5), and y^2 + 2xy + 2y = x^3 + 2x^2 (p = 3)
SUPERSINGULAR = [(2, (0, 0, 1, 0, 0)), (3, (0, 0, 0, 2, 0)),
                 (5, (0, 0, 0, 0, 1)), (7, (0, 0, 0, 6, 0)),
                 (3, (2, 2, 2, 0, 0))]


@pytest.mark.parametrize("p,k,coeffs", list(_cases()))
def test_one_pass_count_and_billing_match_the_exhaustive_loops(p, k, coeffs):
    """Counts only: the bill is `geometry._cost`, 3q whatever the loop."""
    new, old = _counts(p, k, coeffs)
    assert new == old


@pytest.mark.parametrize("p,coeffs", SUPERSINGULAR)
def test_supersingular_counts_match_the_exhaustive_loops(p, coeffs):
    for k in (1, 2, 3):
        new, old = _counts(p, k, coeffs)
        assert new == old
        assert (p ** k + 1 - new) % p == 0          # trace = 0 mod p


def _lift_cases():
    rng = random.Random(17)
    for p, a in FIELDS:
        for cross in ((True,) if p == 2 else (False, True)):
            for _ in range(2):
                yield p, a, _random_curve(rng, p, cross)
    for p, coeffs in SUPERSINGULAR:
        for a in (1, 2, 3):
            yield p, a, coeffs


@pytest.mark.parametrize("p,a,coeffs", list(_lift_cases()))
def test_n1_lifted_from_f_p_matches_enumeration_over_f_q(p, a, coeffs):
    """At budget 3q no cross-check runs: N_1 is #E(F_p) and the recurrence
    alone, and must equal the one-pass count over F_q = F_{p^a}."""
    q = p ** a
    counts = point_counts(VarietySpec.elliptic(coeffs, p, a), 1,
                          budget=3 * q)
    assert counts == (_enumerate_elliptic(FiniteField(p, a), coeffs),)


def _index(u, p):
    return sum(c * p ** i for i, c in enumerate(u))


@pytest.mark.parametrize("p,k", FIELDS)
def test_log_tables_are_inverse_bijections_from_a_generator(p, k):
    F = FiniteField(p, k)
    exp, log, zech, _, _, _ = F.log_tables()
    q, n = F.order, F.order - 1
    elements = list(F.elements())
    assert [_index(u, p) for u in elements] == list(range(q))
    assert sorted(exp) == list(range(1, q))
    assert all(log[exp[i]] == i for i in range(n))
    assert log[0] == n
    g = elements[exp[1 % n]]
    power = F.one
    for i in range(n):                  # g^i through the tuple kernel
        assert _index(power, p) == exp[i]
        power = F.mul(power, g)
        assert power != F.one or i == n - 1
    assert power == F.one               # so g has order exactly q - 1


@pytest.mark.parametrize("p,k", FIELDS)
def test_zech_logs_match_tuple_addition(p, k):
    F = FiniteField(p, k)
    exp, log, zech, _, _, _ = F.log_tables()
    elements = list(F.elements())
    for i in range(F.order - 1):
        assert zech[i] == log[_index(ff_add(F, F.one, elements[exp[i]]), p)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_curve_tables_count_squares_and_traces(p, k):
    """squares[l] = #{y : log y^2 = l}, traces[l] = #{t : log(t^2 + t) = l},
    counted through the tuple kernel."""
    F = FiniteField(p, k)
    _, log, _, squares, traces, _ = F.log_tables()
    want_squares, want_traces = [0] * F.order, [0] * F.order
    for u in F.elements():
        u2 = F.mul(u, u)
        want_squares[log[_index(u2, p)]] += 1
        want_traces[log[_index(ff_add(F, u2, u), p)]] += 1
    assert list(squares) == want_squares
    assert list(traces) == want_traces


def test_building_the_tables_bills_no_operations():
    """The tables, the orbit table among them, are built on first use and
    once per field, never with the field; the budget bills 3q per field
    enumerated whatever they visit (`test_budget_boundary_is_the_n1_cost`)."""
    for p, k in FIELDS:
        F = FiniteField(p, k)
        assert F._log_tables is None
        assert F.log_tables() is F.log_tables()


# Size caps for the exhaustive loops below: at most _POINTS_LIMIT elements
# or points for the O(q) loops (the squares Counter, F^n for spaces), and
# fields of at most _PAIRS_LIMIT elements for the O(q^2) (x, y) pair loop.
_POINTS_LIMIT, _PAIRS_LIMIT = 5 ** 6, 5 ** 3


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7)
                                 for k in (1, 2)])
def test_point_counts_match_the_exhaustive_loops_at_degrees_1_to_3(p, k):
    """N_1..N_3 of curves over F_{p^k}: N_1 is lifted from F_p, N_2 is
    the runtime anchor, N_3 comes from the recurrence alone."""
    rng = random.Random(100 * p + k)
    for cross in ((True,) if p == 2 else (False, True)):
        coeffs = _random_curve(rng, p, cross)
        counts = point_counts(VarietySpec.elliptic(coeffs, p, k), 3)
        limit = _PAIRS_LIMIT if cross else _POINTS_LIMIT
        for e in (1, 2, 3):
            if p ** (k * e) <= limit:
                want = _oracle_count(FiniteField(p, k * e), coeffs)
                assert counts[e - 1] == want, (coeffs, e)


def _affine_oracle(field, n):
    return sum(1 for _ in itertools.product(field.elements(), repeat=n))


def _torus_oracle(field):
    return sum(1 for v in field.elements() if any(v))


def _projective_oracle(field, n):
    """P^n as the disjoint union of A^0, A^1, ..., A^n."""
    return sum(_affine_oracle(field, i) for i in range(n + 1))


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7)
                                 for k in (1, 2)])
def test_closed_forms_match_brute_force_enumeration(p, k):
    for n in range(4):
        proj = point_counts(VarietySpec.projective(n, p, k), 3)
        aff = point_counts(VarietySpec.affine(n, p, k), 3)
        for e in (1, 2, 3):
            if p ** (k * e * n) <= _POINTS_LIMIT:
                F = FiniteField(p, k * e)
                assert proj[e - 1] == _projective_oracle(F, n), (n, e)
                assert aff[e - 1] == _affine_oracle(F, n), (n, e)
    torus = point_counts(VarietySpec.torus(p, k), 3)
    for e in (1, 2, 3):
        if p ** (k * e) <= _POINTS_LIMIT:
            assert torus[e - 1] == _torus_oracle(FiniteField(p, k * e)), e
