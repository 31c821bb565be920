"""Hodge numbers that crystals carry, against the Smith form route.

A crystal of `package()` carries its Hodge numbers from its leaves:
{i: mult} for a Tate piece, {0: 1, 1: 1} for the elliptic
[[0, -p], [1, a_p]], the convolution under a Kronecker product
(`Isocrystal.tensor`) and the sum under a direct sum.  Every other crystal,
a coefficient twist or one read from a document, reads them off one Smith
form.  The oracle is `gauges.hodge`, one Smith form of the degree's built
matrix.  The crystals of Kunneth products and direct sums are built only
when their matrix is read; here they are checked against the eager
Kronecker product and block sum.
"""

import random
from fractions import Fraction

import pytest

from fqzeta import gauges
from fqzeta.geometry import (VarietySpec, _kunneth, _leaf_package,
                             _weierstrass_discriminant, package, point_counts)
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext
from fqzeta.polys import kron, rev_charpoly_fractions
from fqzeta.serialize import decode_package, encode_package
from fqzeta.specialvalues import verify_padic

BUDGET = 10 ** 5


def _curve(rng, p):
    while True:
        coeffs = [rng.randrange(p) for _ in range(5)]
        if _weierstrass_discriminant(*coeffs) % p:
            return coeffs


def _random_spec(rng, p, a):
    """A product of one to three pieces (P^n with n <= 2, G_m, and over F_p
    curves) of dimension at most 3, or the complement of up to three
    rational points in such a product of P^n (n >= 1) and curves."""
    def piece(proper):
        kinds = ["projective"] + ["elliptic"] * (a == 1) + ["torus"] * (
            not proper)
        kind = rng.choice(kinds)
        if kind == "elliptic":
            return VarietySpec.elliptic(_curve(rng, p), p, a)
        if kind == "torus":
            return VarietySpec.torus(p, a)
        return VarietySpec.projective(rng.randrange(proper, 3), p, a)

    proper = rng.random() < 0.3
    factors = [piece(proper) for _ in range(rng.randrange(1, 4))]
    while sum(f.dim for f in factors) > 3:
        factors.pop()
    spec = (VarietySpec.product(factors) if len(factors) > 1
            else factors[0])
    if not proper:
        return spec
    n1 = point_counts(spec, 1, BUDGET)[0]
    return VarietySpec.complement(
        spec, VarietySpec.points(rng.randrange(1, min(3, n1) + 1), p, a))


def _assert_carries_smith_hodge_numbers(pkg):
    for j, d in pkg.degrees.items():
        if d.crystal is not None:
            got = d.crystal.hodge_numbers
            want = gauges.hodge(d.crystal).hodge_numbers
            assert ({i: h for i, h in got.items() if h}
                    == {i: h for i, h in want.items() if h}), j


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("a", (1, 2, 3))
def test_carried_hodge_numbers_equal_the_smith_form_route(p, a):
    """On random products and complements, and their Tate twists X(r)."""
    rng = random.Random(100 * p + a)
    for _ in range(6):
        pkg = package(_random_spec(rng, p, a), prec=12, budget=BUDGET)
        for r in (-1, 0, 1, 2):
            _assert_carries_smith_hodge_numbers(pkg.tate_twist(r))
        _assert_carries_smith_hodge_numbers(pkg)


def test_a_curve_over_an_extension_carries_none_in_degree_1():
    """Over F_{p^a}, a > 1, H^1 of a curve has no crystal, so neither it
    nor a Kunneth piece through it has Hodge numbers."""
    curve = VarietySpec.elliptic([0, 0, 0, 1, 1], 5, 2)
    line = VarietySpec.projective(1, 5, 2)
    pkg = package(VarietySpec.product([curve, line]), prec=12, budget=BUDGET)
    assert pkg.degrees[1].crystal is None
    _assert_carries_smith_hodge_numbers(pkg)


def _random_twist(rng, p):
    """An invertible rational matrix of rank 1 to 3 whose entries are 0 or
    +-p^v u / w with v in [-1, 2] and u, w in [1, 6]."""
    n = rng.randrange(1, 4)
    while True:
        rows = [[0 if rng.random() < 0.3 else
                 rng.choice((-1, 1)) * Fraction(p) ** rng.randrange(-1, 3)
                 * Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
                 for _ in range(n)] for _ in range(n)]
        if rev_charpoly_fractions(rows)[n]:     # +-det
            return rows


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("a", (1, 2, 3))
def test_twisted_and_decoded_crystals_equal_the_smith_form_route(p, a):
    """A coefficient twist tensors every degree with a crystal whose
    numbers come off one Smith form; a decoded crystal reads its own off
    one; the Tate twist X(r) of a decoded package convolves those with a
    carried {-r: 1}."""
    rng = random.Random(1000 * p + a)
    for _ in range(3):
        spec = _random_spec(rng, p, a)
        twisted = package(spec, twist=_random_twist(rng, p), prec=20,
                          budget=BUDGET)
        _assert_carries_smith_hodge_numbers(twisted)
        decoded = decode_package(encode_package(
            package(spec, prec=20, budget=BUDGET)))
        for r in (-1, 0, 1, 2):
            _assert_carries_smith_hodge_numbers(decoded.tate_twist(r))


def _random_crystal(rng, ctx, n):
    return Isocrystal(ctx, [[ctx.from_vector(
        [rng.randrange(-25, 26) for _ in range(ctx.a)], rng.randrange(2))
        for _ in range(n)] for _ in range(n)])


def test_lazy_crystals_equal_the_eager_kronecker_product_and_block_sum():
    rng = random.Random(7)
    ctx = QqContext(5, 2, prec=16)
    z = ctx.zero()
    for m, n in ((1, 1), (2, 3), (3, 2)):
        A, B = _random_crystal(rng, ctx, m), _random_crystal(rng, ctx, n)
        lazy = Isocrystal(ctx, rank=m * n,
                          build=lambda: kron(A.matrix, B.matrix))
        total = A.direct_sum(B)
        assert (lazy.rank, total.rank) == (m * n, m + n)
        assert "matrix" not in vars(lazy) and "matrix" not in vars(total)
        assert lazy.matrix == [
            [A.matrix[i // n][k // n] * B.matrix[i % n][k % n]
             for k in range(m * n)] for i in range(m * n)]
        assert total.matrix == [
            [A.matrix[i][k] if i < m and k < m
             else B.matrix[i - m][k - m] if i >= m and k >= m else z
             for k in range(m + n)] for i in range(m + n)]
        assert "_build" not in vars(lazy) and "_build" not in vars(total)


def test_kunneth_builds_crystals_when_read_and_drops_the_builder():
    ctx = QqContext(5, 1, prec=16)
    curve = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
    leaf = _leaf_package(curve, ctx, {curve: point_counts(curve, 1)[0]})
    product = _kunneth(leaf, leaf)
    assert all("matrix" not in vars(d.crystal) for d in product.values())
    # degree 2 of E x E: H^0 (x) H^2, H^1 (x) H^1, H^2 (x) H^0 in order
    two = product[2].crystal.matrix
    z = ctx.zero()
    h0, h1, h2 = (leaf[j].crystal.matrix for j in range(3))
    pieces = [kron(h0, h2), kron(h1, h1), kron(h2, h0)]
    offset = 0
    for piece in pieces:
        size = len(piece)
        for i in range(size):
            assert two[offset + i] == ([z] * offset + piece[i]
                                       + [z] * (len(two) - offset - size))
        offset += size
    assert offset == len(two) == product[2].crystal.rank
    assert "_build" not in vars(product[2].crystal)
    # built from leaves that hold their Hodge numbers, it keeps no function
    assert not any(callable(v) for v in vars(product[2].crystal).values())


def test_built_packages_run_no_gauge_smith_form(monkeypatch):
    """verify_padic reads the Hodge numbers of a built E^3 with no gauge
    Smith form; the same package read back from its document runs one per
    degree, and both give the same report.  Twisted by [[1, 2], [3, 5]],
    it runs one, of the rank-2 twist, for all seven degrees."""
    calls = []
    smith_route = gauges.hodge

    def counting(E):
        calls.append(E.rank)
        return smith_route(E)

    monkeypatch.setattr(gauges, "hodge", counting)
    curve = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
    pkg = package(VarietySpec.product([curve] * 3), budget=BUDGET)
    built = verify_padic(pkg, 1)
    assert calls == []
    read = verify_padic(decode_package(encode_package(pkg)), 1)
    assert sorted(calls) == sorted(d.crystal.rank
                                   for d in pkg.degrees.values())
    assert built.to_dict() == read.to_dict()
    assert built.precision_audit["hodge_route"]
    calls.clear()
    twisted = package(VarietySpec.product([curve] * 3),
                      twist=[[1, 2], [3, 5]], budget=BUDGET)
    assert verify_padic(twisted, 1).precision_audit["hodge_route"]
    assert len(twisted.degrees) == 7 and calls == [2]


def test_a_function_that_raises_is_kept_for_the_next_read():
    """A crystal drops its builder, and its Hodge function, only once they
    have returned: one that raises raises the same error on every read, and
    one that returns is called once."""
    ctx = QqContext(5, 1, prec=16)

    def fails(*_):
        raise ZeroDivisionError("not yet")

    unbuilt = Isocrystal(ctx, rank=2, build=fails)
    for E, read in ((unbuilt, "matrix"), (unbuilt, "hodge_numbers"),
                    (Isocrystal(ctx, [[ctx.one()]], hodge=fails),
                     "hodge_numbers")):
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match="not yet"):
                getattr(E, read)
    calls = []

    def once(value):
        return lambda *_: calls.append(value) or value

    built = Isocrystal(ctx, rank=1, build=once([[ctx.one()]]),
                       hodge=once({0: 1}))
    for _ in range(2):
        assert (built.matrix, built.hodge_numbers) == ([[ctx.one()]], {0: 1})
    assert calls == [[[ctx.one()]], {0: 1}]
