"""Linear algebra over Z_q at fixed precision: Smith form, kernels, lattices.

Matrices are lists of rows of QqElement, and each routine reads its Z_q
context (p, a, guard digits) from the entries.  The Smith normal form
A = U D V uses minimum-valuation pivoting (ties broken row-major) and keeps
only the integral transforms U^{-1} and V^{-1}, updated with each row and
column operation, so U^{-1} A V^{-1} = D with diagonal entries exact powers
p^e.

Rank decisions are only made when the precision policy allows: a pivot must
retain `ctx.guard` relative digits of the entries' context, and an entry is
accepted as zero only when it is exact or is indistinguishable from zero with
enough absolute precision beyond the current pivot scale.  Otherwise
PrecisionExhausted is raised rather than guessing.

Lattices in Q_q^n are represented by square invertible basis matrices whose
*columns* span them.  All lattice predicates are computed from change-of-basis
integrality, never from basis comparison.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PrecisionExhausted, ValidationError
from .polys import mat_mul

SNFResult = namedtuple("SNFResult", "U_inv V_inv divisors")
# U_inv A V_inv = D.  divisors: list of length min(n, m); entry = exponent e
# (int) for a nonzero diagonal p^e, or None for a certified zero diagonal.


# ---------------------------------------------------------------------------
# dense matrix helpers


def mat_from_ints(ctx, rows):
    return [[ctx.from_int(x) if isinstance(x, int) else x for x in row]
            for row in rows]


def mat_identity(ctx, n):
    return [[ctx.one() if i == j else ctx.zero() for j in range(n)]
            for i in range(n)]


def mat_copy(A):
    return [list(row) for row in A]


def mat_neg(A):
    return [[-x for x in row] for row in A]


def mat_vec(A, v):
    out = []
    for row in A:
        acc = None
        for x, y in zip(row, v):
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def mat_shift(A, k):
    """Multiply every entry by p^k (exact)."""
    return [[x.shift(k) for x in row] for row in A]


def mat_sigma(A, k=1):
    """Entrywise sigma^k."""
    return [[x.frobenius_iter(k) for x in row] for row in A]


def mat_augment(A, B):
    return [ra + rb for ra, rb in zip(A, B)]


def mat_min_valuation(A):
    """Minimum entry valuation; None if every entry is zeroish."""
    best = None
    for row in A:
        for x in row:
            if x.is_zeroish():
                continue
            v = x.valuation()
            if best is None or v < best:
                best = v
    return best


# ---------------------------------------------------------------------------
# Smith normal form


class _Transforms:
    """Incrementally maintained U^{-1} and V^{-1} with U^{-1} A V^{-1} = D."""

    def __init__(self, ctx, n, m):
        self.U_inv = mat_identity(ctx, n)
        self.V_inv = mat_identity(ctx, m)

    # row op on the work matrix: row_i <- row_i + c * row_k
    def row_axpy(self, A, i, k, c):
        A[i] = [x + c * y for x, y in zip(A[i], A[k])]
        self.U_inv[i] = [x + c * y for x, y in
                         zip(self.U_inv[i], self.U_inv[k])]

    def row_swap(self, A, i, k):
        A[i], A[k] = A[k], A[i]
        self.U_inv[i], self.U_inv[k] = self.U_inv[k], self.U_inv[i]

    def row_scale(self, i, u):
        self.U_inv[i] = [u * x for x in self.U_inv[i]]

    # column op on the work matrix: col_j <- col_j + c * col_k
    def col_axpy(self, A, j, k, c):
        for r in range(len(A)):
            A[r][j] = A[r][j] + c * A[r][k]
        for r in range(len(self.V_inv)):
            self.V_inv[r][j] = self.V_inv[r][j] + c * self.V_inv[r][k]

    def col_swap(self, A, j, k):
        for r in range(len(A)):
            A[r][j], A[r][k] = A[r][k], A[r][j]
        for r in range(len(self.V_inv)):
            self.V_inv[r][j], self.V_inv[r][k] = \
                self.V_inv[r][k], self.V_inv[r][j]


def certified_zero(x, floor, guard):
    """May x be treated as an exact zero for rank purposes?"""
    if x.is_exact_zero():
        return True
    if x.is_ifz():
        if x.abs >= floor + guard:
            return True
        raise PrecisionExhausted(
            f"entry is O(p^{x.abs}) but certifying rank at pivot scale "
            f"p^{floor} needs absolute precision {floor + guard}")
    return False


def smith_normal_form(A):
    """A = U * D * V over Z_q, D diagonal with entries exact powers p^e.

    Minimum-valuation pivoting, ties row-major.  Returns an SNFResult with
    the integral inverses U_inv, V_inv and the divisor exponents (None marks
    a zero diagonal).  Exponents are non-decreasing.  Raises
    PrecisionExhausted when a pivot or a zero cannot be certified under the
    guard-digit policy.
    """
    if not A or not A[0]:
        raise ValidationError("Smith form of an empty matrix")
    ctx = A[0][0].ctx
    n, m = len(A), len(A[0])
    W = mat_copy(A)
    T = _Transforms(ctx, n, m)
    divisors = []
    last_val = 0
    for k in range(min(n, m)):
        # locate the minimum-valuation entry of the trailing block
        piv, piv_val = None, None
        for i in range(k, n):
            for j in range(k, m):
                x = W[i][j]
                if x.is_zeroish():
                    continue
                v = x.valuation()
                if piv_val is None or v < piv_val:
                    piv, piv_val = (i, j), v
        if piv is None:
            # certify that the whole trailing block is zero
            for i in range(k, n):
                for j in range(k, m):
                    certified_zero(W[i][j], last_val, ctx.guard)
            divisors.extend([None] * (min(n, m) - k))
            break
        ctx.certify(W[piv[0]][piv[1]], "pivot")
        if piv[0] != k:
            T.row_swap(W, k, piv[0])
        if piv[1] != k:
            T.col_swap(W, k, piv[1])
        last_val = piv_val
        # clear the pivot column and row; quotients are integral because the
        # pivot has minimal valuation in the block
        pinv = W[k][k].inverse()
        for i in range(k + 1, n):
            if not W[i][k].is_zeroish():
                T.row_axpy(W, i, k, -(W[i][k] * pinv))
        for j in range(k + 1, m):
            if not W[k][j].is_zeroish():
                T.col_axpy(W, j, k, -(W[k][j] * pinv))
        divisors.append(piv_val)
        # normalize the pivot to an exact p^e, absorbing the unit into U; row
        # k of W is never read again
        T.row_scale(k, W[k][k].shift(-piv_val).inverse())
    return SNFResult(T.U_inv, T.V_inv, divisors)


def right_kernel(A):
    """Integral basis (as columns) of {x : A x = 0}, a saturated sublattice.

    Columns of V^{-1} at zero divisors, plus the columns beyond the diagonal
    when the matrix is wider than tall.  Returns an m-by-r matrix (possibly
    r = 0).
    """
    n, m = len(A), len(A[0])
    snf = smith_normal_form(A)
    cols = [k for k, e in enumerate(snf.divisors) if e is None]
    cols += list(range(min(n, m), m))
    return [[snf.V_inv[i][j] for j in cols] for i in range(m)]


def kernel_rank(A):
    """dim {x : A x = 0}: zero divisors plus columns beyond the diagonal."""
    snf = smith_normal_form(A)
    return snf.divisors.count(None) + len(A[0]) - len(snf.divisors)


def mat_inverse(A):
    """Inverse over Q_q via V^{-1} D^{-1} U^{-1}; ValidationError if singular."""
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValidationError("inverse of a non-square matrix")
    snf = smith_normal_form(A)
    if any(e is None for e in snf.divisors):
        raise ValidationError("matrix is singular at this precision")
    X = mat_copy(snf.V_inv)
    # scale columns by p^{-e}: V^{-1} D^{-1}
    for j, e in enumerate(snf.divisors):
        if e:
            for i in range(n):
                X[i][j] = X[i][j].shift(-e)
    return mat_mul(X, snf.U_inv)


def solve_right(A, B):
    """X with A X = B (A square invertible)."""
    return mat_mul(mat_inverse(A), B)


# ---------------------------------------------------------------------------
# lattices: columns of an invertible matrix span L inside Q_q^n


def lattice_canonical(B):
    """A column basis of span(B) of the form U * D = B * V^{-1} from the
    Smith form.

    Deterministic for a given input basis; used to present lattices, never to
    compare them.
    """
    snf = smith_normal_form(B)
    if any(e is None for e in snf.divisors):
        raise ValidationError("lattice basis is singular")
    return mat_mul(B, snf.V_inv)


def lattice_contains(B_outer, B_inner):
    """span(B_inner) contained in span(B_outer)?  Integrality of the
    change-of-basis matrix, entry by entry."""
    X = solve_right(B_outer, B_inner)
    for row in X:
        for x in row:
            if x.is_exact_zero():
                continue
            if x.is_ifz():
                if x.abs >= 0:
                    continue
                raise PrecisionExhausted(
                    "containment undecidable: entry known only to O(p^%d)"
                    % x.abs)
            if x.valuation() < 0:
                return False
    return True


def lattice_equal(B1, B2):
    return lattice_contains(B1, B2) and lattice_contains(B2, B1)


def lattice_sum(B1, B2):
    """Basis of span(B1) + span(B2)."""
    n = len(B1)
    concat = mat_augment(B1, B2)
    snf = smith_normal_form(concat)
    UD = mat_mul(concat, snf.V_inv)
    cols = [k for k, e in enumerate(snf.divisors) if e is not None]
    if len(cols) != n:
        raise ValidationError("lattice sum is not full rank")
    return [[UD[i][j] for j in cols] for i in range(n)]


def lattice_intersect(B1, B2):
    """Basis of span(B1) ∩ span(B2) for full-rank lattices.

    A point B1 u = B2 w lies in both lattices exactly when (u, w) is an
    integral kernel vector of [B1 | -B2]; the kernel basis is saturated, so
    pushing its u-halves through B1 gives a basis of the intersection.
    """
    n = len(B1)
    K = right_kernel(mat_augment(B1, mat_neg(B2)))
    if not K or len(K[0]) != n:
        raise ValidationError("intersection of defective lattices")
    top = [K[i] for i in range(n)]
    return mat_mul(B1, top)


def lattice_quotient_divisors(B_outer, B_inner):
    """Exponents e with span(B_outer)/span(B_inner) = sum of Z_q/p^e.

    Requires containment; zero exponents are dropped.
    """
    X = solve_right(B_outer, B_inner)
    snf = smith_normal_form(X)
    if any(e is None for e in snf.divisors):
        raise ValidationError("inner lattice is not full rank")
    if any(e < 0 for e in snf.divisors):
        raise ValidationError("not a sublattice")
    return [e for e in snf.divisors if e > 0]


def semilinear_preimage(A, B_L):
    """Basis of {v : A sigma(v) in span(B_L)} for invertible A.

    sigma^{-1} = sigma^{a-1} is applied entrywise to A^{-1} B_L; automorphisms
    of Z_q carry lattices to lattices.
    """
    return mat_sigma(mat_mul(mat_inverse(A), B_L), A[0][0].ctx.a - 1)
