"""The closed-form gauge against the window scan it replaced.

`scan_gauge` is the iterative computation kept as an oracle: it walks
i = i_min, i_min + 1, ..., computing M^{i+1} = F^{-1}(p^{i+1} N) ∩ N with
lattice operations until M^{i+1} = p M^i holds twice in a row, then reads
the Hodge numbers off the graded pieces M^i / (M^{i+1} + p M^{i-1}).  It costs
tens of Smith forms per crystal, but every step is a lattice identity, so
agreement on random crystals checks the closed form in `gauges.hodge`.
`assert_gauge_axioms` checks axioms (i)-(iii) of a gauge on any family of
lattices; it runs on both computations.  Half of the random crystals come
from documents with a random lattice basis B, which the decoder turns into
B^{-1} A sigma(B) once; `test_decoded_lattice_document_is_the_change_of_basis`
checks that product, entry by entry, against the one formed here.
"""

import random

import pytest

from fqzeta.errors import DegenerateCrystal
from fqzeta.gauges import hodge
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext
from fqzeta.plinalg import (lattice_contains, lattice_equal,
                            lattice_intersect, lattice_quotient_divisors,
                            lattice_sum, mat_identity, mat_inverse,
                            mat_min_valuation, mat_mul, mat_shift, mat_sigma,
                            semilinear_preimage)
from fqzeta.serialize import (dump_json, encode_isocrystal, encode_padic,
                              parse_json)
from matrix_oracles import mat_det_valuation

# The scan takes i_max - i_min + 2 steps; this bounds a runaway scan only.
SCAN_CAP = 64


def scan_gauge(ctx, At):
    """(i_min, i_max, lattice_at, hodge numbers) by the window scan.

    The scan starts at the minimal entry valuation of At, where
    F^{-1}(p^i N) already contains N.
    """
    i_min = mat_min_valuation(At)
    ident = mat_identity(ctx, len(At))
    lattices = {i_min: ident}
    i, stable = i_min, 0
    while stable < 2:
        assert i - i_min <= SCAN_CAP, "window scan did not stabilize"
        pre = semilinear_preimage(At, mat_shift(ident, i + 1))
        nxt = lattice_intersect(pre, ident)
        lattices[i + 1] = nxt
        stable = stable + 1 if lattice_equal(
            nxt, mat_shift(lattices[i], 1)) else 0
        i += 1
    i_max, top = i - 2, i

    def lattice_at(j):
        if j <= i_min:
            return ident
        if j <= top:
            return lattices[j]
        return mat_shift(lattices[top], j - top)

    return i_min, i_max, lattice_at, _graded_dims(lattice_at, i_min, i_max)


def _graded_dims(lattice_at, i_min, i_max):
    """h^i = dim_k M^i / (M^{i+1} + p M^{i-1}); each piece is p-torsion."""
    out = {}
    for i in range(i_min, i_max + 1):
        S = lattice_sum(lattice_at(i + 1), mat_shift(lattice_at(i - 1), 1))
        divs = lattice_quotient_divisors(lattice_at(i), S)
        assert all(e == 1 for e in divs), "graded piece is not p-torsion"
        if divs:
            out[i] = len(divs)
    return out


def assert_gauge_axioms(ctx, At, lattice_at, i_min, i_max):
    """(i) p M^i ⊆ M^{i+1}; (ii) M^{i_min} = N ⊆ F^{-1}(p^{i_min} N);
    (iii) p^{-i} F(M^i) ⊆ N, and these images span N."""
    ident = mat_identity(ctx, len(At))
    assert lattice_equal(lattice_at(i_min), ident)
    pre = semilinear_preimage(At, mat_shift(ident, i_min))
    assert lattice_contains(pre, ident)
    span = None
    for i in range(i_min, i_max + 2):
        Bi = lattice_at(i)
        assert lattice_contains(lattice_at(i + 1), mat_shift(Bi, 1))
        img = mat_shift(mat_mul(At, mat_sigma(Bi)), -i)
        assert lattice_contains(ident, img)
        span = img if span is None else lattice_sum(span, img)
    assert lattice_equal(span, ident)


def _random_element(rng, ctx, vals):
    return ctx.from_vector([rng.randrange(ctx.p ** 2) for _ in range(ctx.a)],
                           rng.choice(vals))


def _random_matrix(rng, ctx, n, vals):
    return [[_random_element(rng, ctx, vals) for _ in range(n)]
            for _ in range(n)]


def lattice_document(A, B):
    """The virtual_crystal document of F = A sigma on the lattice spanned by
    the columns of B, as JSON text."""
    doc = {**encode_isocrystal(A), "type": "virtual_crystal",
           "lattice": [[encode_padic(x) for x in row] for row in B]}
    return dump_json(doc)


def _random_crystal(rng, ctx):
    """Rank 1-3, entry valuations -1..2; half the time on a random lattice,
    read from a document as the CLI reads it."""
    n = rng.randrange(1, 4)
    crystal = Isocrystal(ctx, _random_matrix(rng, ctx, n, (-1, 0, 1, 2)))
    if rng.random() < 0.5:
        return crystal
    return parse_json(lattice_document(
        crystal, _random_matrix(rng, ctx, n, (0, 0, 1))))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_closed_form_matches_window_scan(p):
    rng = random.Random(9000 + p)
    contexts = [QqContext(p, a, prec=48) for a in (1, 2, 3)]
    checked = 0
    while checked < 27:
        ctx = contexts[checked % 3]
        try:
            vc = _random_crystal(rng, ctx)
        except DegenerateCrystal:
            continue                      # singular lattice basis, redraw
        At = vc.matrix
        try:
            g = hodge(vc)
        except DegenerateCrystal:
            assert mat_det_valuation(At) is None
            continue
        i_min, i_max, scan_at, scan_hodge = scan_gauge(ctx, At)
        assert (g.i_min, g.i_max) == (i_min, i_max)
        assert g.hodge_numbers == scan_hodge
        assert g.det_val == sum(i * h for i, h in scan_hodge.items())
        for i in range(i_min - 1, i_max + 3):
            assert lattice_equal(g.lattice_at(i), scan_at(i))
        assert_gauge_axioms(ctx, At, g.lattice_at, g.i_min, g.i_max)
        assert_gauge_axioms(ctx, At, scan_at, i_min, i_max)
        checked += 1


# ---------------------------------------------------------------------------
# a lattice is a change of basis, made once where a document is read


def _gauge_data(vc):
    g = hodge(vc)
    return g, (g.hodge_numbers, g._exponents, g.i_min, g.i_max, g.det_val)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_decoded_lattice_document_is_the_change_of_basis(p):
    """A document with crystal A and lattice basis B decodes to the crystal
    B^{-1} A sigma(B) on the standard lattice: the same entries as that
    product formed here, the slopes of A, and the gauge, exponents and
    lattices M^i of that product."""
    rng = random.Random(4200 + p)
    for a in (1, 2, 3):
        ctx = QqContext(p, a, prec=32)
        checked = 0
        while checked < 4:
            n = rng.randrange(1, 4)
            A = Isocrystal(ctx, _random_matrix(rng, ctx, n, (-1, 0, 1, 2)))
            B = _random_matrix(rng, ctx, n, (0, 0, 1))
            if mat_det_valuation(B) is None:
                with pytest.raises(DegenerateCrystal):
                    parse_json(lattice_document(A, B))
                continue
            At = mat_mul(mat_mul(mat_inverse(B), A.matrix), mat_sigma(B))
            vc = parse_json(lattice_document(A, B),
                            expected={"virtual_crystal"})
            assert vc.rank == n
            assert all(x.same_value(y) for got, want in zip(
                vc.matrix, At) for x, y in zip(got, want))
            try:
                want, want_data = _gauge_data(Isocrystal(ctx, At))
            except DegenerateCrystal:
                with pytest.raises(DegenerateCrystal):
                    hodge(vc)
                continue
            assert vc.slopes() == A.slopes()
            got, got_data = _gauge_data(vc)
            assert got_data == want_data
            for i in range(want.i_min - 1, want.i_max + 2):
                assert lattice_equal(got.lattice_at(i), want.lattice_at(i))
            checked += 1
