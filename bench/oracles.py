"""Reference computations for checking fqzeta outputs, written apart from it.

Nothing here imports fqzeta.  Point counts come from Legendre symbols and
the Hasse-Weil recurrence, zeta factors of products from power sums and
Newton's identities, Hodge numbers of products from convolution, and the
Gamma-module and crystal expectations from how the benchmark builds those
inputs.  Everything is exact (ints and Fractions).
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# arithmetic helpers


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def abs_inverse(x, p):
    """1/|x|_p as an exact power of p."""
    return Fraction(p) ** vp(x, p)


def legendre(a, p):
    """Quadratic character of a modulo an odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def trim(f):
    f = [Fraction(c) for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def pmul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def det(rows):
    """Determinant of a square rational matrix by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, sign, out = len(m), 1, Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        out *= m[k][k]
        for i in range(k + 1, n):
            c = m[i][k] / m[k][k]
            if c:
                for j in range(k, n):
                    m[i][j] -= c * m[k][j]
    return sign * out


def matmul(a, b):
    return [[sum(Fraction(a[i][t]) * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


# ---------------------------------------------------------------------------
# power sums and Newton's identities


def power_sums(P, count):
    """p_1..p_count of the inverse roots of P(t) = prod (1 - alpha t)."""
    P = trim(P)
    c = P + [Fraction(0)] * max(0, count + 1 - len(P))
    ps = [Fraction(0)]
    for k in range(1, count + 1):
        ps.append(-k * c[k] - sum(c[i] * ps[k - i] for i in range(1, k)))
    return ps


def from_power_sums(ps, n):
    """prod (1 - alpha t) of degree n from its power sums p_1..p_n."""
    c = [Fraction(1)]
    for k in range(1, n + 1):
        c.append(-sum(ps[i] * c[k - i] for i in range(1, k + 1)) / k)
    return c


def tensor(P, Q):
    """Factor whose inverse roots are the products alpha*beta."""
    n, m = len(trim(P)) - 1, len(trim(Q)) - 1
    if n == 0 or m == 0:
        return [Fraction(1)]
    a, b = power_sums(P, n * m), power_sums(Q, n * m)
    return from_power_sums([x * y for x, y in zip(a, b)], n * m)


def twist_factor(P, T, a):
    """det(1 - t F^a) of (H tensor twist) for the rational twist matrix T."""
    n = len(trim(P)) - 1
    if n == 0:
        return [Fraction(1)]
    M = [[Fraction(x) for x in row] for row in T]
    Ma = [[Fraction(int(i == j)) for j in range(len(T))] for i in range(len(T))]
    for _ in range(a):
        Ma = matmul(Ma, M)
    N = n * len(T)
    traces, cur = [Fraction(0)], Ma
    for _ in range(N):
        traces.append(sum(cur[i][i] for i in range(len(cur))))
        cur = matmul(cur, Ma)
    ps = power_sums(P, N)
    return from_power_sums([x * y for x, y in zip(ps, traces)], N)


# ---------------------------------------------------------------------------
# elliptic point counts


def elliptic_n1(coeffs, p):
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Odd p: completing the square turns the count of y over each x into
    1 + chi((a1 x + a3)^2 + 4 rhs).  p = 2: the four pairs are visited.
    """
    a1, a2, a3, a4, a6 = coeffs
    total = 1
    for x in range(p):
        rhs = x ** 3 + a2 * x * x + a4 * x + a6
        if p == 2:
            total += sum(1 for y in range(2)
                         if (y * y + a1 * x * y + a3 * y - rhs) % 2 == 0)
        else:
            total += 1 + legendre((a1 * x + a3) ** 2 + 4 * rhs, p)
    return total


def frobenius_trace_sums(ap, p, count):
    """s_m = alpha^m + beta^m for m = 0..count, alpha, beta the roots of
    1 - ap t + p t^2."""
    s = [2, ap]
    while len(s) <= count:
        s.append(ap * s[-1] - p * s[-2])
    return s


def weierstrass_discriminant(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


# ---------------------------------------------------------------------------
# varieties as plain tuples
#
#   ("projective", n) | ("torus",) | ("elliptic", (a1, a2, a3, a4, a6))
#   | ("product", [leaf, ...])
#
# over F_q, q = p^a, with the field given alongside.


def _leaf_ap(leaf, p):
    return p + 1 - elliptic_n1(leaf[1], p)


def counts(var, p, a, degrees):
    """N_e = #X(F_{q^e}) for e = 1..degrees."""
    q = p ** a
    kind = var[0]
    if kind == "product":
        out = [1] * degrees
        for f in var[1]:
            out = [x * y for x, y in zip(out, counts(f, p, a, degrees))]
        return out
    if kind == "projective":
        return [sum(q ** (e * i) for i in range(var[1] + 1))
                for e in range(1, degrees + 1)]
    if kind == "torus":
        return [q ** e - 1 for e in range(1, degrees + 1)]
    if kind == "elliptic":
        s = frobenius_trace_sums(_leaf_ap(var, p), p, a * degrees)
        return [q ** e + 1 - s[a * e] for e in range(1, degrees + 1)]
    raise ValueError(kind)


def factors(var, p, a):
    """Degree j -> det(1 - t F^a | H^j_c) as a Fraction list."""
    q = p ** a
    kind = var[0]
    if kind == "projective":
        return {2 * i: [Fraction(1), Fraction(-q ** i)]
                for i in range(var[1] + 1)}
    if kind == "torus":
        return {1: [Fraction(1), Fraction(-1)], 2: [Fraction(1), Fraction(-q)]}
    if kind == "elliptic":
        aq = frobenius_trace_sums(_leaf_ap(var, p), p, a)[a]
        return {0: [Fraction(1), Fraction(-1)],
                1: [Fraction(1), Fraction(-aq), Fraction(q)],
                2: [Fraction(1), Fraction(-q)]}
    if kind == "product":
        out = None
        for f in var[1]:
            part = factors(f, p, a)
            if out is None:
                out = part
                continue
            merged = {}
            for j1, P in out.items():
                for j2, Q in part.items():
                    piece = tensor(P, Q)
                    j = j1 + j2
                    merged[j] = piece if j not in merged else pmul(merged[j], piece)
            out = merged
        return out
    raise ValueError(kind)


def hodge_numbers(var, a):
    """Degree j -> {i: h^i} of the crystals, or None when some degree of
    the variety has no crystal (elliptic curves over F_{p^a}, a > 1)."""
    kind = var[0]
    if kind == "projective":
        return {2 * i: {i: 1} for i in range(var[1] + 1)}
    if kind == "torus":
        return {1: {0: 1}, 2: {1: 1}}
    if kind == "elliptic":
        return None if a > 1 else {0: {0: 1}, 1: {0: 1, 1: 1}, 2: {1: 1}}
    if kind == "product":
        out = None
        for f in var[1]:
            part = hodge_numbers(f, a)
            if part is None:
                return None
            if out is None:
                out = part
                continue
            merged = {}
            for j1, h1 in out.items():
                for j2, h2 in part.items():
                    dst = merged.setdefault(j1 + j2, {})
                    for i1, x in h1.items():
                        for i2, y in h2.items():
                            dst[i1 + i2] = dst.get(i1 + i2, 0) + x * y
            out = merged
        return out
    raise ValueError(kind)


def dimension(var):
    kind = var[0]
    if kind == "projective":
        return var[1]
    if kind == "product":
        return sum(dimension(f) for f in var[1])
    return 1


# ---------------------------------------------------------------------------
# special values


def _deflate(P, c):
    """(m, R) with P = (1 - c t)^m R and R(1/c) != 0."""
    cur, m = trim(P), 0
    x = 1 / Fraction(c)
    while len(cur) > 1 and sum(co * x ** k for k, co in enumerate(cur)) == 0:
        # synthetic division by (1 - c t): R_k = P_k + c R_{k-1}
        out, prev = [], Fraction(0)
        for co in cur[:-1]:
            prev = co + c * prev
            out.append(prev)
        cur, m = out, m + 1
    return m, cur


def special_value(facs, q, r):
    """(rho, c): pole order of Z(t) = prod_j P_j^{(-1)^{j+1}} at t = q^{-r}
    and the leading coefficient lim (1 - q^r t)^rho Z(t)."""
    c_r = Fraction(q) ** r
    x = 1 / c_r
    rho, lead = 0, Fraction(1)
    for j, P in facs.items():
        m, R = _deflate(P, c_r)
        val = sum(co * x ** k for k, co in enumerate(R))
        if j % 2:
            rho -= m
            lead *= val
        else:
            rho += m
            lead /= val
    return rho, lead


def chi_hodge(hodge, r):
    """sum_n (-1)^n sum_{i <= r} (r - i) h^i_n."""
    return sum((-1) ** n * sum((r - i) * h for i, h in hs.items() if i <= r)
               for n, hs in hodge.items())


# ---------------------------------------------------------------------------
# zeta series from counts


def zeta_series(ns, order):
    """Coefficients of exp(sum N_e t^e / e) through t^order."""
    z = [Fraction(1)]
    for n in range(1, order + 1):
        z.append(sum(ns[k - 1] * z[n - k] for k in range(1, n + 1)) / n)
    return z


def closed_points(ns):
    out = {}
    for d in range(1, len(ns) + 1):
        total = sum(mobius(d // e) * ns[e - 1]
                    for e in range(1, d + 1) if d % e == 0)
        if total % d:
            raise ValueError("counts are not counts of a variety")
        out[d] = total // d
    return out


# ---------------------------------------------------------------------------
# polygons


def polygon(pairs):
    """Vertices of the polygon with the given (slope, length) pieces."""
    verts = [(0, Fraction(0))]
    for s, m in sorted(pairs):
        x, y = verts[-1]
        verts.append((x + m, y + Fraction(s) * m))
    return verts


def polygon_at(verts, x):
    for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * Fraction(x - x1, x2 - x1)
    raise ValueError("abscissa outside polygon")
