"""Polynomial and small-matrix utilities shared across the library.

Polynomials are dense coefficient lists, constant term first.  A zeta
factor's coefficients are `int` where integral and `Fraction` otherwise
(rational twists, Tate pieces Q_p(-i) with i < 0): one code path serves
both, by Python's numeric tower.  `rev_charpoly`, the one characteristic
polynomial, is O(n^3) and generic, so it serves crystals over Z_q and
Gamma-modules, closed points and twists over Fractions alike.  The Kunneth
product `tensor_poly` needs no matrix: it multiplies power sums
(Bostan-Flajolet-Salvy-Schost), and `from_power_sums` is the one way back
from power sums to coefficients, for it and for the Euler product
(`lfun.euler_product_series`).  `power`, `mat_mul` and `kron` are the one
square-and-multiply, matrix product and Kronecker product of the library;
each works over any ring, from F_p[x]/(m) to Fractions and Z_q, and
`poly_trim` is the one trim, over F_p as over Q.  Series division
lives in `lfun.rational_series`; the slow series helpers and the companion
matrix are oracles in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


def power(x, e, mul, one):
    """x^e for e >= 0 by square-and-multiply under the product `mul`.

    x is squared after every bit, the last one included, so the number of
    `mul` calls depends on e alone.
    """
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        x = mul(x, x)
        e >>= 1
    return result


def poly_trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def deflate_once(coeffs, c):
    """(quotient, remainder) of division by (1 - c t); exact iff remainder 0.

    Synthetic: b_i = a_i + c b_{i-1}; the remainder is the overflow b_n, and
    P(t) = (1 - c t) B(t) + b_n t^n.
    """
    b, prev = [], 0
    for a in coeffs:
        prev = a + c * prev
        b.append(prev)
    return b[:-1], b[-1]


def root_multiplicity(coeffs, c):
    """Multiplicity of c as an inverse root (i.e. of (1 - c t) as a factor)."""
    cur = poly_trim(coeffs)
    m = 0
    while len(cur) > 1:
        quo, rem = deflate_once(cur, c)
        if rem != 0:
            break
        m += 1
        cur = quo
    return m, cur


# ---------------------------------------------------------------------------
# characteristic polynomials


def rev_charpoly(rows, zero, one, size):
    """det(1 - t*A), constant term first, in O(n^3) ring operations.

    Hessenberg reduction and recurrence (H. Cohen, GTM 138, Alg. 2.2.9): the
    entry of least `size` under the diagonal of column j moves to row j+1 and
    clears those under it by row_i -= u row_{j+1}, col_{j+1} += u col_i, u =
    a_ij / pivot.  size(x) is None for an entry that counts as zero.  Over
    Z_q it is the valuation, so u is integral (precision: X. Caruso, D. Roe,
    T. Vaccon, ISSAC 2017); over Fractions any nonzero pivot will do.  The
    matrix is square: every caller has checked it.
    """
    n = len(rows)
    H = [list(r) for r in rows]
    for j in range(n - 1):
        below = [(s, i) for i in range(j + 1, n)
                 for s in (size(H[i][j]),) if s is not None]
        if not below:
            H[j + 1][j] = zero
            continue
        k = min(below)[1]
        H[j + 1], H[k] = H[k], H[j + 1]
        for row in H:
            row[j + 1], row[k] = row[k], row[j + 1]
        top, pinv = H[j + 1], one / H[j + 1][j]
        for i in range(j + 2, n):
            if size(H[i][j]) is None:
                continue
            u, H[i][j] = H[i][j] * pinv, zero
            for c in range(j + 1, n):
                H[i][c] = H[i][c] - u * top[c]
            for row in H:
                if row[i] != zero:
                    row[j + 1] = row[j + 1] + u * row[i]
    # r_m = det(1 - t H_m) for the leading m x m block is r_{m-1} minus
    # h_im h_{m,m-1} ... h_{i+1,i} t^(m-i+1) r_{i-1} for each i <= m
    r = [[one]]
    for m in range(1, n + 1):
        new, prod = r[-1] + [zero], one
        for i in range(m, 0, -1):
            term = H[i - 1][m - 1] * prod
            for k, c in enumerate(r[i - 1], m - i + 1):
                new[k] = new[k] - term * c
            prod = prod * H[i - 1][i - 2] if i > 1 else zero
            if prod == zero:
                break
        r.append(new)
    return r[-1]


def rev_charpoly_fractions(rows):
    """det(1 - t*A) for a matrix of ints/Fractions."""
    return rev_charpoly([[Fraction(x) for x in row] for row in rows],
                        Fraction(0), Fraction(1),
                        lambda x: None if x == 0 else 0)


# ---------------------------------------------------------------------------
# matrix products and tensor products of zeta factors


def _unit_constant(P):
    """P trimmed; ValidationError unless P(0) = 1."""
    P = poly_trim(P)
    if not P or P[0] != 1:
        raise ValidationError("expected constant term 1")
    return P


def mat_mul(A, B):
    """A * B for dense matrices over any ring (Fractions, Z_q)."""
    n, k = len(A), len(B)
    if n and len(A[0]) != k:
        raise ValidationError("matrix dimensions do not match")
    m = len(B[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def kron(A, B):
    """Kronecker product of dense matrices over any ring (Fractions, Z_q)."""
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def power_sums(P, n):
    """[p_1, ..., p_n]: p_k is the sum of the k-th powers of the inverse roots
    of P, by Newton's identities p_k = -k c_k - sum_{0<i<k} c_i p_{k-i}.
    """
    sums = []
    for k in range(1, n + 1):
        acc = -k * P[k] if k < len(P) else 0
        for i in range(1, min(k, len(P))):
            acc -= P[i] * sums[k - i - 1]
        sums.append(acc)
    return sums


def from_power_sums(sums):
    """[c_0, ..., c_n] of exp(-sum_k s_k t^k / k), for n = len(sums).

    The inverse of `power_sums`: by Newton's identities
    k c_k = -sum_{0<i<=k} s_i c_{k-i}, c_0 = 1, so when s_k is the k-th
    power sum of the inverse roots of a polynomial P with P(0) = 1, these
    are the coefficients of P (the det(1 - tA) convention, s_k = tr A^k),
    and negated power sums give the series of 1/P.  O(n^2) operations.
    For integer power sums of a polynomial, or of a product of such, every
    c_k is an integer and the division by k is exact.
    """
    out = [1]
    for k in range(1, len(sums) + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += sums[i - 1] * out[k - i]
        out.append(-acc // k)
    return out


def _exact_quotient(n, d):
    """n/d for ints n and d > 0: an int when d divides n, else a Fraction."""
    quo, rem = divmod(n, d)
    return Fraction(n, d) if rem else quo


def integral_scaling(P):
    """(d, P(d t)) with d the lcm of the denominators of P, so that P(d t),
    whose inverse roots are d alpha, has integer coefficients."""
    d = math.lcm(*(c.denominator for c in P))
    return d, [int(c * d ** k) for k, c in enumerate(P)]


def tensor_poly(P, Q):
    """det(1 - t*(C_P (x) C_Q)): inverse roots are all products alpha*beta.

    Both inputs must have constant term 1.  This is the Kunneth building
    block for products of varieties; no root extraction happens anywhere.
    The power sums of the product are p_k(P) p_k(Q), for k up to the degree
    mn of the result, and Newton's identities (`from_power_sums`) turn them
    back into coefficients: O((mn)^2) operations against O((mn)^3) for
    `rev_charpoly` of the Kronecker product of companion matrices (A.
    Bostan, P. Flajolet, B. Salvy, E. Schost, "Fast computation of special
    resultants", J. Symbolic Comput. 2006).  The result is exact: scaling t
    by d and e makes both factors integral, so every step runs over the
    integers (the division by k is exact), and dividing the coefficient of
    t^k by (de)^k undoes the scaling: an int when it divides exactly, so
    integral factors give integral products.
    """
    d, P = integral_scaling(_unit_constant(P))
    e, Q = integral_scaling(_unit_constant(Q))
    n = (len(P) - 1) * (len(Q) - 1)
    sums = [x * y for x, y in zip(power_sums(P, n), power_sums(Q, n))]
    return [_exact_quotient(c, (d * e) ** k)
            for k, c in enumerate(from_power_sums(sums))]


def mat_pow_fractions(mat, e):
    """mat^e for a square rational matrix, e >= 0."""
    n = len(mat)
    one = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    return power([[Fraction(x) for x in row] for row in mat], e, mat_mul, one)
