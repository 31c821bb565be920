"""Matrix predicates and reference eliminations over Z_q that only tests need.

`mat_equal` compares entries at their overlapping precision,
`mat_det_valuation` reads v_p(det A) off the library Smith form, and
`eager_smith_normal_form` is the Smith form that applies every row and
column operation to the work matrix and to both transforms as it goes:
the reference the library's logged elimination is checked against.

The eager form has two blind spots in its precision bookkeeping, which it
reports in `blind_spots` without acting on them:

- "ifz below pivot": the pivot scan skips an IFZ entry O(p^N) with N below
  the chosen pivot's valuation, although its true valuation may be N.
- "ifz product": an IFZ entry x of the pivot column meets an IFZ entry y
  of the pivot row.  Neither a row nor a column operation runs, so the
  term (x / pivot) * y of the true elimination is dropped from the
  trailing block's error bound.
"""

from collections import namedtuple

from fqzeta.plinalg import (certified_zero, mat_copy, mat_identity,
                            smith_normal_form)

EagerSNF = namedtuple("EagerSNF", "U_inv V_inv divisors blind_spots")


def mat_equal(A, B):
    if len(A) != len(B) or (A and len(A[0]) != len(B[0])):
        return False
    return all(x.same_value(y) for ra, rb in zip(A, B)
               for x, y in zip(ra, rb))


def mat_det_valuation(A):
    """v_p(det A) as the sum of divisor exponents; None if singular."""
    snf = smith_normal_form(A)
    if any(e is None for e in snf.divisors):
        return None
    return sum(snf.divisors)


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


def eager_smith_normal_form(A):
    """The same pivots, divisors and certification policy as the library's
    `smith_normal_form`, with the column operations run on the work matrix
    and both transforms kept up to date at every step."""
    ctx = A[0][0].ctx
    n, m = len(A), len(A[0])
    W = mat_copy(A)
    T = _Transforms(ctx, n, m)
    divisors, blind_spots = [], set()
    last_val = 0
    for k in range(min(n, m)):
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
            for i in range(k, n):
                for j in range(k, m):
                    certified_zero(W[i][j], last_val, ctx.guard)
            divisors.extend([None] * (min(n, m) - k))
            break
        ctx.certify(W[piv[0]][piv[1]], "pivot")
        if any(x.is_ifz() and x.abs < piv_val
               for row in W[k:] for x in row[k:]):
            blind_spots.add("ifz below pivot")
        if piv[0] != k:
            T.row_swap(W, k, piv[0])
        if piv[1] != k:
            T.col_swap(W, k, piv[1])
        last_val = piv_val
        pinv = W[k][k].inverse()
        if (any(W[i][k].is_ifz() for i in range(k + 1, n))
                and any(W[k][j].is_ifz() for j in range(k + 1, m))):
            blind_spots.add("ifz product")
        for i in range(k + 1, n):
            if not W[i][k].is_zeroish():
                T.row_axpy(W, i, k, -(W[i][k] * pinv))
        for j in range(k + 1, m):
            if not W[k][j].is_zeroish():
                T.col_axpy(W, j, k, -(W[k][j] * pinv))
        divisors.append(piv_val)
        T.row_scale(k, W[k][k].shift(-piv_val).inverse())
    return EagerSNF(T.U_inv, T.V_inv, divisors, blind_spots)
