"""Smith normal form and lattice operations over Z_q."""

import random
from collections import Counter

import pytest

from fqzeta import gauges, plinalg
from fqzeta.errors import PrecisionExhausted, ValidationError
from fqzeta.gauges import hodge
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext, Zp, context
from matrix_oracles import (eager_smith_normal_form, mat_det_valuation,
                            mat_equal)
from fqzeta.plinalg import (
    kernel_rank,
    lattice_canonical,
    lattice_contains,
    lattice_equal,
    lattice_intersect,
    lattice_quotient_divisors,
    lattice_sum,
    mat_from_ints,
    mat_identity,
    mat_inverse,
    mat_mul,
    right_kernel,
    semilinear_preimage,
    smith_normal_form,
    solve_right,
)


def _random_unimodular(ctx, n, rng, steps=6):
    """Product of random elementary row operations: det is a unit."""
    U = mat_identity(ctx, n)
    for _ in range(steps):
        i, k = rng.sample(range(n), 2)
        c = ctx.from_int(rng.randrange(-9, 10))
        for j in range(n):
            U[i][j] = U[i][j] + c * U[k][j]
    return U


def _factorizes(A, snf):
    """U^{-1} A V^{-1} = D, with p^e on the diagonal of D, at the
    overlapping precision."""
    ctx, e = A[0][0].ctx, snf.divisors
    D = [[ctx.one().shift(e[i]) if i == j and e[i] is not None
          else ctx.zero() for j in range(len(A[0]))] for i in range(len(A))]
    return mat_equal(mat_mul(mat_mul(snf.U_inv, A), snf.V_inv), D)


def test_snf_diagonal_oracle():
    ctx = Zp(5, prec=24)
    A = mat_from_ints(ctx, [[5, 0], [0, 125]])
    snf = smith_normal_form(A)
    assert snf.divisors == [1, 3]


def test_snf_divisors_of_unit_determinant_matrix():
    ctx = Zp(5, prec=24)
    A = mat_from_ints(ctx, [[2, 4], [6, 8]])   # det = -8, a 5-adic unit
    assert smith_normal_form(A).divisors == [0, 0]


def test_snf_factorization_and_transform_integrality():
    """U^{-1} A V^{-1} = diag(p^{e_k}) with both transforms in GL(Z_q)."""
    rng = random.Random(7)
    for p, a, draws in ((3, 1, 25), (5, 2, 12)):
        ctx = QqContext(p, a, prec=30)
        for _ in range(draws):
            n = rng.randrange(1, 5)
            m = rng.randrange(1, 5)
            A = [[ctx.from_vector([rng.randrange(-40, 41) for _ in range(a)],
                                  val=rng.randrange(3))
                  for _ in range(m)] for _ in range(n)]
            snf = smith_normal_form(A)
            assert _factorizes(A, snf)
            for M in (snf.U_inv, snf.V_inv):
                for row in M:
                    for x in row:
                        assert x.is_zeroish() or x.valuation() >= 0
                assert mat_det_valuation(M) == 0
            present = [e for e in snf.divisors if e is not None]
            assert present == sorted(present)


def test_snf_divisors_are_gl_invariants():
    """Multiplying by unimodular matrices on either side keeps the divisors."""
    ctx = Zp(5, prec=40)
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randrange(2, 5)
        A = mat_from_ints(ctx, [[rng.randrange(-20, 21) * 5 ** rng.randrange(3)
                                 for _ in range(n)] for _ in range(n)])
        base = smith_normal_form(A).divisors
        U = _random_unimodular(ctx, n, rng)
        V = _random_unimodular(ctx, n, rng)
        assert smith_normal_form(mat_mul(mat_mul(U, A), V)).divisors == base


def test_rank_and_kernel():
    ctx = Zp(5, prec=24)
    A = mat_from_ints(ctx, [[1, 2, 3], [2, 4, 6]])   # rank 1
    assert sum(e is not None for e in smith_normal_form(A).divisors) == 1
    K = right_kernel(A)
    assert len(K) == 3 and len(K[0]) == 2
    for j in range(2):
        v = [K[i][j] for i in range(3)]
        image = [sum((A[r][i] * v[i] for i in range(3)), ctx.zero())
                 for r in range(2)]
        assert all(x.is_zeroish() for x in image)


def test_kernel_is_saturated():
    """p * v in ker implies v in ker: kernel columns stay primitive."""
    ctx = Zp(5, prec=24)
    A = mat_from_ints(ctx, [[5, 10]])
    K = right_kernel(A)
    assert len(K[0]) == 1
    col_vals = [K[i][0].valuation() for i in range(2)
                if not K[i][0].is_zeroish()]
    assert min(col_vals) == 0


def test_inverse_and_solve():
    ctx = Zp(7, prec=24)
    A = mat_from_ints(ctx, [[2, 1], [1, 1]])
    Ainv = mat_inverse(A)
    assert mat_equal(mat_mul(A, Ainv), mat_identity(ctx, 2))
    B = mat_from_ints(ctx, [[3], [4]])
    X = solve_right(A, B)
    assert mat_equal(mat_mul(A, X), B)
    with pytest.raises(ValidationError):
        mat_inverse(mat_from_ints(ctx, [[1, 2], [2, 4]]))


def test_det_valuation():
    ctx = Zp(5, prec=24)
    assert mat_det_valuation(mat_from_ints(ctx, [[5, 0], [3, 25]])) == 3
    assert mat_det_valuation(mat_from_ints(ctx, [[1, 2], [2, 4]])) is None


def test_lattice_containment_and_equality():
    ctx = Zp(5, prec=24)
    std = mat_from_ints(ctx, [[1, 0], [0, 1]])
    sub = mat_from_ints(ctx, [[5, 0], [0, 1]])
    assert lattice_contains(std, sub)
    assert not lattice_contains(sub, std)
    # a different basis of the standard lattice
    other = mat_from_ints(ctx, [[1, 3], [1, 4]])   # det 1
    assert lattice_equal(std, other)


def test_lattice_sum_intersect_quotient():
    ctx = Zp(5, prec=30)
    L1 = mat_from_ints(ctx, [[5, 0], [0, 1]])
    L2 = mat_from_ints(ctx, [[1, 0], [0, 5]])
    total = lattice_sum(L1, L2)
    meet = lattice_intersect(L1, L2)
    assert lattice_equal(total, mat_from_ints(ctx, [[1, 0], [0, 1]]))
    assert lattice_equal(meet, mat_from_ints(ctx, [[5, 0], [0, 5]]))
    assert lattice_quotient_divisors(total, meet) == [1, 1]
    # index multiplicativity: [L1+L2 : L1] * [L1 : L1 cap L2] via divisors
    assert sum(lattice_quotient_divisors(total, L1)) + \
        sum(lattice_quotient_divisors(L1, meet)) == 2


def test_lattice_modularity_random():
    """(L1 + L2) / L1 and L2 / (L1 cap L2) have the same divisors."""
    ctx = Zp(3, prec=40)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 4)

        def rand_basis():
            while True:
                B = mat_from_ints(ctx, [[rng.randrange(-12, 13)
                                         * 3 ** rng.randrange(2)
                                         for _ in range(n)]
                                        for _ in range(n)])
                if mat_det_valuation(B) is not None:
                    return B

        L1, L2 = rand_basis(), rand_basis()
        total = lattice_sum(L1, L2)
        meet = lattice_intersect(L1, L2)
        assert lattice_contains(total, L1) and lattice_contains(total, L2)
        assert lattice_contains(L1, meet) and lattice_contains(L2, meet)
        assert lattice_quotient_divisors(total, L1) == \
            lattice_quotient_divisors(L2, meet)


def test_lattice_canonical_is_a_basis_of_the_same_lattice():
    ctx = Zp(5, prec=30)
    B = mat_from_ints(ctx, [[10, 3], [5, 1]])
    C = lattice_canonical(B)
    assert lattice_equal(B, C)


def test_semilinear_preimage_frobenius_twist():
    """Over Q_q with a = 2, {v : A sigma(v) in L} pushed forward lands in L."""
    ctx = QqContext(5, 2, prec=24)
    A = [[ctx.from_vector((1, 1)), ctx.from_int(5)],
         [ctx.from_int(0), ctx.from_vector((2, 3))]]
    L = mat_from_ints(ctx, [[5, 0], [1, 1]])
    M = semilinear_preimage(A, L)
    # columns of M satisfy A sigma(m) in span(L)
    from fqzeta.plinalg import mat_sigma
    image = mat_mul(A, mat_sigma(M, 1))
    assert lattice_contains(L, image)


def test_snf_precision_exhaustion_on_uncertifiable_pivot():
    ctx = Zp(5, prec=32)
    x = ctx.from_vector([3], rel=4)     # below the 8-digit guard
    A = [[x]]
    with pytest.raises(PrecisionExhausted):
        smith_normal_form(A)


def _sweep_entry(rng, ctx):
    """An exact zero, an IFZ entry, or p^v * unit with v in [-2, 3] and a
    relative precision that may fall below the guard."""
    kind = rng.random()
    if kind < 0.15:
        return ctx.zero()
    if kind < 0.25:
        return ctx.ifz(rng.randrange(-2, ctx.prec + 1))
    rel = ctx.prec if rng.random() < 0.7 else rng.randrange(1, ctx.prec + 1)
    return ctx.from_vector([rng.randrange(ctx.p ** 3) for _ in range(ctx.a)],
                           val=rng.randrange(-2, 4), rel=rel)


def _sweep_matrix(rng, ctx, n, m):
    A = [[_sweep_entry(rng, ctx) for _ in range(m)] for _ in range(n)]
    if n > 1 and rng.random() < 0.4:
        # forced rank loss: one row a Z_q-combination of two others
        i, k, t = (rng.randrange(n) for _ in range(3))
        c, d = (ctx.from_int(rng.randrange(-4, 5)) for _ in range(2))
        A[i] = [c * x + d * y for x, y in zip(A[k], A[t])]
    return A


def test_snf_matches_the_eager_elimination_under_starved_precision():
    """The logged elimination against the eager one on 600 seeded matrices
    with exact zeros, IFZ entries, valuations down to -2, short relative
    precision and forced rank loss.

    Where both certify, the divisors agree and U^{-1} A V^{-1} = D.  The
    logged form may raise where the eager form certifies only at one of
    the eager form's blind spots: its pivot scan skipped an IFZ entry
    below the pivot ("ifz below pivot"), which the logged form's scan
    refuses, or an IFZ pivot-column entry met an IFZ pivot-row entry
    ("ifz product"), whose product the logged form's row operation keeps.
    """
    rng = random.Random(1907)
    outcomes = Counter()
    for _ in range(600):
        ctx = context(rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3)),
                      rng.choice((4, 10, 12, 24)))
        A = _sweep_matrix(rng, ctx, rng.randrange(1, 7), rng.randrange(1, 7))
        try:
            ref = eager_smith_normal_form(A)
        except PrecisionExhausted:
            ref = None
        try:
            snf = smith_normal_form(A)
        except PrecisionExhausted:
            assert ref is None or ref.blind_spots & {"ifz below pivot",
                                                     "ifz product"}
            outcomes["raises" if ref is None else "raises on blind spot"] += 1
            continue
        assert ref is not None, "certifies where the eager form raised"
        assert snf.divisors == ref.divisors
        assert _factorizes(A, snf)
        outcomes["same divisors"] += 1
    assert outcomes["same divisors"] > 200 and outcomes["raises"] > 200, \
        outcomes


def test_snf_refuses_an_ifz_entry_below_the_pivot():
    """Draw 214 of the starved sweep: after the first pivot, the O(p^-2)
    entry leaves an entry O(p^0) in the trailing block, below the second
    pivot p^1, so the true valuation may be below the pivot's.  The scan
    used to skip it and certify divisors [-2, 1, 3] that do not factor
    the matrix."""
    ctx = context(5, 2, 12)

    def x(u, w, val):
        return ctx.from_vector([u, w], val=val)

    A = [[x(122, 88, 3), x(40, 81, 0), x(41, 2, 3), x(41, 61, 3), ctx.ifz(-2)],
         [x(42, 81, 2), x(41, 30, 0), x(94, 55, 1), ctx.ifz(12),
          x(61, 124, -2)],
         [ctx.ifz(7), x(41, 115, 2), x(84, 81, 3), ctx.zero(),
          x(81, 63, -1)]]
    with pytest.raises(PrecisionExhausted, match="below the pivot"):
        smith_normal_form(A)


def test_divisor_only_callers_build_no_transform(monkeypatch):
    """`hodge` and `kernel_rank` read only the divisors, so their Smith forms
    never replay the logged operations; reading the transforms afterwards
    still factors the matrix."""
    results = []

    def recording(A):
        snf = smith_normal_form(A)
        results.append((A, snf))
        return snf

    monkeypatch.setattr(plinalg, "smith_normal_form", recording)
    monkeypatch.setattr(gauges, "smith_normal_form", recording)
    ctx = QqContext(5, 2, prec=24)
    window = hodge(Isocrystal.from_ints(ctx, [[0, -5], [1, -3]]))
    assert window.hodge_numbers == {0: 1, 1: 1}
    assert kernel_rank(mat_from_ints(ctx, [[1, 2, 3], [2, 4, 6]])) == 2
    assert len(results) == 2
    for A, snf in results:
        assert "U_inv" not in vars(snf) and "V_inv" not in vars(snf)
    for A, snf in results:
        assert _factorizes(A, snf)
