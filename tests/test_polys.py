"""The shared Kronecker product over exact rationals and over Z_q."""

import random
from fractions import Fraction

from fqzeta.padics import QqContext
from fqzeta.plinalg import mat_equal, mat_mul
from fqzeta.polys import kron, mat_mul_fractions


def _shapes(rng):
    """Sizes for A (m x n), C (n x k), B (r x s), D (s x t)."""
    return [rng.randrange(1, 4) for _ in range(6)]


def test_kron_mixed_product_rule_over_fractions():
    rng = random.Random(8)
    for _ in range(20):
        m, n, k, r, s, t = _shapes(rng)

        def mat(rows, cols):
            return [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                     for _ in range(cols)] for _ in range(rows)]

        A, C, B, D = mat(m, n), mat(n, k), mat(r, s), mat(s, t)
        assert mat_mul_fractions(kron(A, B), kron(C, D)) == \
            kron(mat_mul_fractions(A, C), mat_mul_fractions(B, D))


def test_kron_mixed_product_rule_over_zq():
    rng = random.Random(9)
    for p, a in ((2, 1), (3, 2), (5, 3), (7, 1)):
        ctx = QqContext(p, a, prec=16)
        for _ in range(5):
            m, n, k, r, s, t = _shapes(rng)

            def mat(rows, cols):
                return [[ctx.from_vector(
                    [rng.randrange(p ** 3) for _ in range(a)],
                    val=rng.randrange(-1, 2)) for _ in range(cols)]
                    for _ in range(rows)]

            A, C, B, D = mat(m, n), mat(n, k), mat(r, s), mat(s, t)
            assert mat_equal(mat_mul(kron(A, B), kron(C, D)),
                             kron(mat_mul(A, C), mat_mul(B, D)))

