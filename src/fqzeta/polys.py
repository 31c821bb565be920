"""Polynomial and small-matrix utilities shared across the library.

Polynomials are dense coefficient lists, constant term first.  Most callers
work over Fraction; the characteristic-polynomial routine `rev_charpoly` is
division-free (Berkowitz) and generic, so the same code runs over
fixed-precision p-adic elements and over exact rationals.  The Kunneth
product `tensor_poly` needs no matrix: it multiplies power sums
(Bostan-Flajolet-Salvy-Schost).  `power`, `mat_mul` and `kron` are the one
square-and-multiply, matrix product and Kronecker product of the library;
each works over any ring, from F_p[x]/(m) to Fractions and Z_q.
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
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def poly_eval(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_pow(f, e):
    return power(f, e, poly_mul, [Fraction(1)])


def poly_truncate(f, order):
    """f mod t^(order+1)."""
    return list(f[: order + 1])


def poly_mul_trunc(f, g, order):
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(f):
        if i > order or not a:
            continue
        for j, b in enumerate(g):
            if i + j > order:
                break
            out[i + j] += a * b
    return out


def poly_pow_trunc(f, e, order):
    return power(poly_truncate(f, order), e,
                 lambda g, h: poly_mul_trunc(g, h, order), [Fraction(1)])


def poly_inverse_series(f, order):
    """Inverse of f (constant term nonzero) as a power series mod t^(order+1)."""
    if not f or f[0] == 0:
        raise ValidationError("series inverse needs a unit constant term")
    c0 = Fraction(f[0])
    inv = [1 / c0]
    for n in range(1, order + 1):
        s = Fraction(0)
        for i in range(1, min(n, len(f) - 1) + 1):
            s += Fraction(f[i]) * inv[n - i]
        inv.append(-s / c0)
    return inv


def deflate_once(coeffs, c):
    """(quotient, remainder) of division by (1 - c t); exact iff remainder 0.

    Synthetic: b_i = a_i + c b_{i-1}; the remainder is the overflow b_n, and
    P(t) = (1 - c t) B(t) + b_n t^n.
    """
    b, prev = [], Fraction(0)
    for a in coeffs:
        prev = Fraction(a) + c * prev
        b.append(prev)
    return b[:-1], b[-1]


def root_multiplicity(coeffs, c):
    """Multiplicity of c as an inverse root (i.e. of (1 - c t) as a factor)."""
    cur = [Fraction(x) for x in coeffs]
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    m = 0
    while len(cur) > 1:
        quo, rem = deflate_once(cur, c)
        if rem != 0:
            break
        m += 1
        cur = quo
    return m, cur


# ---------------------------------------------------------------------------
# characteristic polynomials, division-free


def rev_charpoly(rows, zero, one):
    """Coefficients of det(1 - t*A), constant term first, via Berkowitz.

    `rows` is a list of n lists of ring elements supporting +, *, unary -.
    Division-free, so it runs unchanged over exact rationals and over
    fixed-precision p-adic elements.  Returns a list of length n + 1 whose
    j-th entry is the coefficient of t^j.
    """
    n = len(rows)
    if n == 0:
        return [one]
    for r in rows:
        if len(r) != n:
            raise ValidationError("characteristic polynomial needs a square matrix")
    poly = [one, -rows[0][0]]
    for i in range(1, n):
        a = rows[i][i]
        R = [rows[i][j] for j in range(i)]
        C = [rows[j][i] for j in range(i)]
        sub = [[rows[r][c] for c in range(i)] for r in range(i)]
        diags = [one, -a]
        vec = C
        for _ in range(i):
            dot = zero
            for rr, vv in zip(R, vec):
                dot = dot + rr * vv
            diags.append(-dot)
            nxt = []
            for r in range(i):
                acc = zero
                for c in range(i):
                    acc = acc + sub[r][c] * vec[c]
                nxt.append(acc)
            vec = nxt
        new = []
        for r in range(i + 2):
            acc = zero
            lo = max(0, r - len(diags) + 1)
            for c in range(lo, min(r, i) + 1):
                acc = acc + diags[r - c] * poly[c]
            new.append(acc)
        poly = new
    return poly


def rev_charpoly_fractions(rows):
    """det(1 - t*A) for a matrix of ints/Fractions."""
    rr = [[Fraction(x) for x in row] for row in rows]
    return rev_charpoly(rr, Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# companion matrices and tensor products of zeta factors


def _unit_constant(P):
    """P as trimmed Fractions; ValidationError unless P(0) = 1."""
    P = poly_trim([Fraction(c) for c in P])
    if not P or P[0] != 1:
        raise ValidationError("expected constant term 1")
    return P


def companion_of_reversed(P):
    """A rational matrix C with det(1 - t*C) = P, for P with P(0) = 1.

    Works through the reversed (monic) polynomial x^n P(1/x); its companion
    matrix has the inverse roots of P as eigenvalues.  Degree-0 input gives
    the empty 0x0 matrix.
    """
    P = _unit_constant(P)
    n = len(P) - 1
    if n == 0:
        return []
    # monic reversal: x^n + a_1 x^(n-1) + ... + a_n, a_k = P[k]
    # companion with characteristic polynomial = that reversal
    C = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        C[i][i - 1] = Fraction(1)
    for i in range(n):
        # last column: -coefficient of x^i in the monic reversal
        C[i][n - 1] = -Fraction(P[n - i])
    return C


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


def _power_sums(P, n):
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


def _integral(P):
    """(d, P(d t)) with d the lcm of the denominators of P, so that P(d t),
    whose inverse roots are d alpha, has integer coefficients."""
    d = math.lcm(*(c.denominator for c in P))
    return d, [int(c * d ** k) for k, c in enumerate(P)]


def tensor_poly(P, Q):
    """det(1 - t*(C_P (x) C_Q)): inverse roots are all products alpha*beta.

    Both inputs must have constant term 1.  This is the Kunneth building
    block for products of varieties; no root extraction happens anywhere.
    The power sums of the product are p_k(P) p_k(Q), for k up to the degree
    mn of the result, and Newton's identities turn them back into
    coefficients: O((mn)^2) operations against O((mn)^4) for Berkowitz on
    the Kronecker product of companion matrices (A. Bostan, P. Flajolet,
    B. Salvy, E. Schost, "Fast computation of special resultants", J.
    Symbolic Comput. 2006).  The result is exact: scaling t by d and e
    makes both factors integral, so every step runs over the integers (the
    division by k is exact), and dividing the coefficient of t^k by (de)^k
    undoes the scaling.
    """
    (d, P), (e, Q) = _integral(_unit_constant(P)), _integral(_unit_constant(Q))
    n = (len(P) - 1) * (len(Q) - 1)
    sums = [x * y for x, y in zip(_power_sums(P, n), _power_sums(Q, n))]
    out = [1]
    for k in range(1, n + 1):
        acc = sums[k - 1]
        for i in range(1, k):
            acc += out[i] * sums[k - i - 1]
        out.append(-acc // k)
    return [Fraction(c, (d * e) ** k) for k, c in enumerate(out)]


def mat_pow_fractions(mat, e):
    """mat^e for a square rational matrix, e >= 0."""
    n = len(mat)
    one = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    return power([[Fraction(x) for x in row] for row in mat], e, mat_mul, one)
