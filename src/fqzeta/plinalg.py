"""Linear algebra over Z_q at fixed precision: Smith form, kernels, lattices.

Matrices are lists of rows of QqElement, and each routine reads its Z_q
context (p, a, guard digits) from the entries.  The Smith normal form
A = U D V (D diagonal of exact powers p^e) pivots on minimum valuation, ties
row-major.  It runs only its row operations on the work matrix and logs
every operation; U^{-1} and V^{-1} are replayed from the log when a caller
first reads them (kernels, inverses, lattices, z(f)), never for one that
reads only the divisors (Hodge numbers, kernel ranks).

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

import math
from functools import cached_property

from .errors import PrecisionExhausted, ValidationError
from .polys import mat_mul

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


def _replay(ctx, size, ops):
    """The identity with logged row operations (i, k, c) applied in order:
    row_i <- row_i + c * row_k, a swap of rows i and k when c is None, and
    row_i <- c * row_i when i == k."""
    M = mat_identity(ctx, size)
    for i, k, c in ops:
        if c is None:
            M[i], M[k] = M[k], M[i]
        elif i == k:
            M[i] = [c * x for x in M[i]]
        else:
            M[i] = [x + c * y for x, y in zip(M[i], M[k])]
    return M


class SNFResult:
    """U_inv A V_inv = D.  divisors: per diagonal entry, the exponent e of
    p^e or None for a certified zero.  U_inv replays the logged row
    operations on the identity when first read; V_inv is the transpose of
    the column operations replayed the same way."""

    def __init__(self, ctx, n, m, divisors, row_ops, col_ops):
        self.divisors = divisors
        self._ctx, self._n, self._m = ctx, n, m
        self._row_ops, self._col_ops = row_ops, col_ops

    @cached_property
    def U_inv(self):
        return _replay(self._ctx, self._n, self._row_ops)

    @cached_property
    def V_inv(self):
        return [list(c) for c in zip(*_replay(self._ctx, self._m,
                                              self._col_ops))]


def smith_normal_form(A):
    """A = U * D * V over Z_q, D diagonal with entries exact powers p^e.

    Minimum-valuation pivoting, ties row-major; the SNFResult's exponents
    are non-decreasing.  Raises PrecisionExhausted when a pivot or a zero
    cannot be certified under the guard-digit policy, or when an entry
    the pivot scan meets is known only to O(p^N) with N below the pivot's
    valuation: its true valuation may be N.
    """
    if not A or not A[0]:
        raise ValidationError("Smith form of an empty matrix")
    ctx = A[0][0].ctx
    n, m = len(A), len(A[0])
    W = mat_copy(A)
    divisors, row_ops, col_ops = [], [], []
    for k in range(min(n, m)):
        # minimum-valuation entry of the trailing block; for k > 0 nothing
        # lies below the last pivot, so the first row reaching it ends the scan
        last_val = divisors[-1] if divisors else 0
        piv, piv_val, ifz_abs = None, None, math.inf
        for i in range(k, n):
            for j in range(k, m):
                x = W[i][j]
                if x.kind != "n":       # zeroish: exact zero or O(p^abs)
                    if x.kind == "i" and x.abs < ifz_abs:
                        ifz_abs = x.abs
                    continue
                v = x.val
                if piv_val is None or v < piv_val:
                    piv, piv_val = (i, j), v
            if k and piv_val == last_val:
                break
        if piv is None:
            # certify that the whole trailing block is zero
            for i in range(k, n):
                for j in range(k, m):
                    certified_zero(W[i][j], last_val, ctx.guard)
            divisors.extend([None] * (min(n, m) - k))
            break
        ctx.certify(W[piv[0]][piv[1]], "pivot")
        if ifz_abs < piv_val:
            raise PrecisionExhausted(
                f"entry is O(p^{ifz_abs}), below the pivot p^{piv_val}")
        if piv[0] != k:
            W[k], W[piv[0]] = W[piv[0]], W[k]
            row_ops.append((k, piv[0], None))
        if piv[1] != k:
            for row in W:
                row[k], row[piv[1]] = row[piv[1]], row[k]
            col_ops.append((k, piv[1], None))
        # clear the pivot column (integral quotients: the pivot is minimal);
        # an IFZ entry's row operation only carries its uncertainty into W.
        # Row and column k of W are never read again, so the column
        # operations clearing row k are only logged, for V_inv
        row_k = W[k]
        pinv = row_k[k].inverse()
        for i in range(k + 1, n):
            if not W[i][k].is_exact_zero():
                c = -(W[i][k] * pinv)
                W[i][k + 1:] = [x + c * y for x, y in
                                zip(W[i][k + 1:], row_k[k + 1:])]
                if not c.is_ifz():
                    row_ops.append((i, k, c))
        col_ops.extend((j, k, -(row_k[j] * pinv)) for j in range(k + 1, m)
                       if not row_k[j].is_zeroish())
        divisors.append(piv_val)
        # normalize the pivot to an exact p^e, absorbing the unit into U
        row_ops.append((k, k, pinv.shift(piv_val)))
    return SNFResult(ctx, n, m, divisors, row_ops, col_ops)


def right_kernel(A):
    """Integral basis (as columns) of {x : A x = 0}, a saturated sublattice.

    Columns of V^{-1} at zero divisors, plus the columns beyond the diagonal
    when the matrix is wider than tall.  Returns an m-by-r matrix (possibly
    r = 0).
    """
    snf = smith_normal_form(A)
    cols = [k for k, e in enumerate(snf.divisors) if e is None]
    cols += range(len(snf.divisors), len(A[0]))
    return [[row[j] for j in cols] for row in snf.V_inv]


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
    # V^{-1} D^{-1}: column j of V^{-1} scaled by p^{-e_j}
    X = [[x.shift(-e) for x, e in zip(row, snf.divisors)]
         for row in snf.V_inv]
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
    concat = mat_augment(B1, B2)
    snf = smith_normal_form(concat)
    UD = mat_mul(concat, snf.V_inv)
    cols = [k for k, e in enumerate(snf.divisors) if e is not None]
    if len(cols) != len(B1):
        raise ValidationError("lattice sum is not full rank")
    return [[row[j] for j in cols] for row in UD]


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
