"""The Zech-log point counter against the exhaustive loops it replaced.

`_enumerate_elliptic` counts #E(F_q) in one pass over x with Zech log
tables.  The oracles below are the loops it replaced, on the tuple kernel:
a Counter of squares when a1 = a3 = 0, and every (x, y) pair otherwise.
Both the count and the `FiniteField.ops` billed must agree, since the
billing decides which degrees `point_counts` enumerates.
"""

import random
from collections import Counter

import pytest

from fqzeta.geometry import _enumerate_elliptic, _weierstrass_discriminant
from fqzeta.padics import FiniteField

FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)]


def _oracle_count(field, coeffs):
    """#E(F) by exhaustive evaluation, every product billed to field.ops."""
    a1, a2, a3, a4, a6 = (field.from_int(c).coeffs for c in coeffs)
    add, mul = field.add, field.mul
    total = 0
    if field.is_zero(a1) and field.is_zero(a3):
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


def _counts_and_ops(p, k, coeffs):
    new, old = FiniteField(p, k), FiniteField(p, k)
    n = _enumerate_elliptic(new, coeffs)
    return (n, new.ops), (_oracle_count(old, coeffs), old.ops)


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
    new, old = _counts_and_ops(p, k, coeffs)
    assert new == old


@pytest.mark.parametrize("p,coeffs", SUPERSINGULAR)
def test_supersingular_counts_match_the_exhaustive_loops(p, coeffs):
    for k in (1, 2, 3):
        new, old = _counts_and_ops(p, k, coeffs)
        assert new == old
        assert (p ** k + 1 - new[0]) % p == 0       # trace = 0 mod p


def _index(u, p):
    return sum(c * p ** i for i, c in enumerate(u))


@pytest.mark.parametrize("p,k", FIELDS)
def test_log_tables_are_inverse_bijections_from_a_generator(p, k):
    F = FiniteField(p, k)
    exp, log, zech = F.log_tables()
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
    exp, log, zech = F.log_tables()
    elements = list(F.elements())
    for i in range(F.order - 1):
        assert zech[i] == log[_index(F.add(F.one, elements[exp[i]]), p)]


def test_building_the_tables_bills_no_operations():
    for p, k in FIELDS:
        F = FiniteField(p, k)
        F.log_tables()
        assert F.ops == 0
        assert F.log_tables() is F.log_tables()
