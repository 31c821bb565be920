"""Fixed-precision arithmetic in Z_p, Q_p and the unramified extension Z_q.

The unramified extension W(F_{p^a}) is represented as Z_p[x]/(m(x)) where m is
the lexicographically smallest monic irreducible polynomial of degree a over
F_p (coefficients compared low degree first), lifted with digits {0..p-1}.
The Frobenius lift sigma is computed once per context by Hensel-lifting the
root x -> x^p and stored as an a-by-a matrix over Z/p^prec.  `context` and
`field` build each context and residue field once per process, among the
most recently used (`CACHE_SIZE`); neither holds a result.

Elements carry a valuation, a primitive coefficient vector for the unit part,
and a relative precision.  Exact zero (infinite valuation) is distinct from
"indistinguishable from zero at this precision" (IFZ), which remembers only an
absolute precision bound.  Arithmetic never reports more precision than the
inputs justify: addition works at the minimum absolute precision, products at
the minimum relative precision.

Everything here is immutable after construction; contexts are shared freely.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionExhausted, ValidationError
from .polys import power

DEFAULT_PRECISION = 64
GUARD_DIGITS = 8

# Caps on what a document may ask for, each refused with ValidationError
# (exit 2) before any work.  p below 2^16 keeps the primality test at most
# 256 trial divisions; a <= 16 bounds the search for the minimal polynomial
# and the Hensel lift of sigma; precision bounds the width of every Z_q
# entry, and a torsion exponent of a Gamma-module (`gammamodules`).
MAX_PRIME = 2 ** 16
MAX_DEGREE = 16
MAX_PRECISION = 1024

# Entries kept by `field` and by `context`, each.  One pass of any benchmark
# workload touches at most 11 fields (count-zeta) and 8 contexts (cli-docs),
# so none is rebuilt within a run.  A field holds its modulus and, once
# points are counted over it, tables of about 14 q bytes; a context holds
# its field and the a x a matrix of sigma.
CACHE_SIZE = 16


def int_valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(x, p: int) -> int:
    """v_p of a nonzero int or Fraction."""
    if isinstance(x, int):
        return int_valuation(x, p)
    x = Fraction(x)
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


# ---------------------------------------------------------------------------
# polynomial helpers over F_p and Z/cap (dense int lists, low degree first)


def _fp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_mod(f, m, p):
    # m monic
    f = list(f)
    dm = len(m) - 1
    while len(f) > dm:
        c = f[-1] % p
        if c:
            shift = len(f) - 1 - dm
            for i in range(dm + 1):
                f[shift + i] = (f[shift + i] - c * m[i]) % p
        f.pop()
    return _fp_trim(f)


def _mulmod(u, v, m, cap):
    """u * v in (Z/cap)[x]/(m(x)) for monic m of degree a >= 1.

    u and v have at most a coefficients (low degree first); the result has
    exactly a.
    """
    a = len(m) - 1
    out = [0] * (2 * a - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] = (out[i + j] + x * y) % cap
    # reduce: x^a = -(m_0 + ... + m_{a-1} x^{a-1})
    for d in range(2 * a - 2, a - 1, -1):
        c = out[d]
        if c:
            for i in range(a):
                out[d - a + i] = (out[d - a + i] - c * m[i]) % cap
    return out[:a]


def _powmod(u, e, m, cap):
    """u^e in (Z/cap)[x]/(m(x)), e >= 0."""
    return power(u, e, lambda v, w: _mulmod(v, w, m, cap),
                 [1] + [0] * (len(m) - 2))


def _fp_gcd(f, g, p):
    f, g = list(f), list(g)
    while g:
        # f mod g with g not necessarily monic
        inv = pow(g[-1], -1, p)
        gm = [(c * inv) % p for c in g]
        f = _fp_mod(f, gm, p)
        f, g = g, f
    return f


def _is_irreducible(m, p):
    """Irreducibility of monic m over F_p, degree >= 1."""
    a = len(m) - 1
    if a == 1:
        return True
    x = [0, 1] + [0] * (a - 2)

    def frobenius_minus_x(n):
        """x^(p^n) - x mod (m, p), trimmed."""
        t = x
        for _ in range(n):
            t = _powmod(t, p, m, p)
        return _fp_trim([(u - v) % p for u, v in zip(t, x)])

    # x^(p^a) == x mod m, and no factor of degree a/l for prime l | a
    if frobenius_minus_x(a):
        return False
    return all(len(_fp_gcd(frobenius_minus_x(a // ell), m, p)) == 1
               for ell in range(2, a + 1) if a % ell == 0 and _is_prime(ell))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_field(p, a, max_degree=MAX_DEGREE):
    """Refuse F_{p^a} unless p is a prime int at most MAX_PRIME and a an
    int in [1, max_degree]; the one check wherever a document's (p, a)
    enters.  `FiniteField` allows degree 2 * MAX_DEGREE, for the N_2 anchor
    of a curve over F_{p^a}."""
    if not (isinstance(p, int) and 2 <= p <= MAX_PRIME and _is_prime(p)):
        raise ValidationError(f"expected a prime at most {MAX_PRIME}, got {p}")
    if not (isinstance(a, int) and 1 <= a <= max_degree):
        raise ValidationError(
            f"extension degree a must be in [1, {max_degree}], got {a}")


def _prime_divisors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def minimal_polynomial(p: int, a: int):
    """Lexicographically smallest monic irreducible of degree a over F_p.

    Coefficient tuples (c_0, ..., c_{a-1}) are compared left to right; the
    returned list is [c_0, ..., c_{a-1}, 1].  Deterministic, so contexts built
    anywhere agree on the model of F_{p^a} and W(F_{p^a}).
    """
    if a == 1:
        return [0, 1]  # x itself: Z_q = Z_p, residue field F_p
    for code in range(p ** a):
        coeffs = []
        c = code
        for _ in range(a):
            coeffs.append(c % p)
            c //= p
        m = coeffs + [1]
        if m[0] != 0 and _is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible polynomial of degree {a} over F_{p}")


# ---------------------------------------------------------------------------
# finite fields F_{p^k}: elements are coefficient tuples over F_p


class FiniteField:
    """F_{p^k} as F_p[x]/(m(x)), m the canonical minimal polynomial.

    Raw elements are int tuples of length k (low degree first).
    """

    def __init__(self, p: int, k: int):
        check_field(p, k, 2 * MAX_DEGREE)
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = tuple(minimal_polynomial(p, k))
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._log_tables = None

    def elements(self):
        """Iterate over all p^k raw tuples, lexicographic in the digits."""
        p, k = self.p, self.k
        cur = [0] * k
        for _ in range(self.order):
            yield tuple(cur)
            i = 0
            while i < k:
                cur[i] += 1
                if cur[i] < p:
                    break
                cur[i] = 0
                i += 1

    # raw tuple arithmetic -------------------------------------------------

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def mul(self, u, v):
        return tuple(_mulmod(u, v, self.modulus, self.p))

    def pow(self, u, e):
        """u^e for e >= 0."""
        return power(u, e, self.mul, self.one)

    def inv(self, u):
        if u == self.zero:
            raise ZeroDivisionError("inverse of 0 in finite field")
        return self.pow(u, self.order - 2)

    def is_zero(self, u):
        return all(c == 0 for c in u)

    def log_tables(self):
        """Zech log/antilog and curve tables (exp, log, zech, squares,
        traces), built once per field.

        An element (c_0, ..., c_{k-1}) has index sum c_i p^i, its place in
        `elements()`.  g is the first element in that order of order
        n = q - 1 (g^(n/l) != 1 for every prime l | n).  exp[i] is the index
        of g^i for 0 <= i < n; log[j] is the exponent of the element of
        index j, and n stands for zero (log[0] = n); zech[i] = log(1 + g^i),
        so g^u + g^v = g^(u + zech[v - u]) (K. Huber, "Some comments on
        Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990).  The tables
        are `array` machine ints.  For point counting on curves,
        squares[l] = #{y : log y^2 = l} and traces[l] = #{t : log(t^2 + t)
        = l} (l = n for zero), as `bytearray`s made in one pass.
        """
        if self._log_tables is None:
            p, m, n = self.p, self.modulus, self.order - 1
            one = list(self.one)
            ells = _prime_divisors(n)
            g = next(u for u in self.elements() if any(u)
                     and all(_powmod(u, n // ell, m, p) != one
                             for ell in ells))
            weights = [p ** i for i in range(self.k)]
            exp = array("i", [0]) * n
            log = array("i", [n]) * self.order
            u = one
            for i in range(n):
                j = sum(c * w for c, w in zip(u, weights))
                exp[i], log[j] = j, i
                u = _mulmod(g, u, m, p)
            # 1 + g^i: add 1 to the constant digit of g^i, mod p
            zech = array("i", (log[j + 1 if j % p != p - 1 else j + 1 - p]
                               for j in exp))
            squares = bytearray(self.order)
            traces = bytearray(self.order)
            squares[n] = traces[n] = 1      # y = 0 and t = 0
            for i in range(n):              # y = g^i; t = g^i, t + 1 = g^z
                squares[2 * i % n] += 1
                z = zech[i]
                traces[n if z == n else (i + z) % n] += 1
            self._log_tables = (exp, log, zech, squares, traces)
        return self._log_tables


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def field(p: int, k: int):
    """F_{p^k}, built once while among the CACHE_SIZE most recently used:
    the search for its modulus and its log tables are made once.  A refused
    (p, k) raises on every call; exceptions are not cached."""
    return FiniteField(p, k)


# ---------------------------------------------------------------------------
# Z_q = W(F_{p^a}) at fixed precision


class QqContext:
    """Shared data for Z_q arithmetic: modulus, sigma matrix, precision policy.

    `prec` is the working relative precision in p-adic digits; `guard`
    (always GUARD_DIGITS) the number of digits that must remain when a
    downstream computation certifies a valuation or a zero.
    """

    def __init__(self, p: int, a: int = 1, prec: int = DEFAULT_PRECISION):
        check_field(p, a)
        if not 1 <= prec <= MAX_PRECISION:
            raise ValidationError(
                f"precision must be in [1, {MAX_PRECISION}], got {prec}")
        self.p = p
        self.a = a
        self.q = p ** a
        self.prec = prec
        self.guard = GUARD_DIGITS
        self.pN = p ** prec
        self.residue_field = field(p, a)
        self.modulus = self.residue_field.modulus  # int coeffs, monic
        self._sigma_cols = self._build_sigma() if a > 1 else None

    # -- construction of sigma ---------------------------------------------

    def _zq_inv_ints(self, u, modcap_digits):
        """Inverse of a unit vector mod (m(x), p^modcap_digits): one `pow`
        in Z_p, else Newton lifting from the residue field."""
        p = self.p
        if self.a == 1:
            if u[0] % p == 0:
                raise ZeroDivisionError("inverse of a non-unit in Z_p")
            return [pow(u[0], -1, p ** modcap_digits)]
        # inverse in the residue field
        red = tuple(c % p for c in u)
        inv0 = self.residue_field.inv(red)
        inv = list(inv0)
        digits = 1
        while digits < modcap_digits:
            digits = min(2 * digits, modcap_digits)
            cap = p ** digits
            prod = _mulmod(u, inv, self.modulus, cap)
            # inv <- inv * (2 - u*inv)
            corr = [(-c) % cap for c in prod]
            corr[0] = (corr[0] + 2) % cap
            inv = _mulmod(inv, corr, self.modulus, cap)
        return inv

    def _build_sigma(self):
        """Hensel-lift the root x -> x^p of m; columns are sigma(x^i)."""
        p, a, N = self.p, self.a, self.prec
        mcoeffs = self.modulus  # length a+1, monic
        # start: s = x^p mod (m, p)
        s = _powmod([0, 1], p, mcoeffs, p)
        digits = 1
        while digits < N:
            digits = min(2 * digits, N)
            cap = p ** digits
            # Newton step s <- s - m(s)/m'(s)
            ms = self._poly_eval_vec(mcoeffs, s, cap)
            dm = [(i * mcoeffs[i]) % cap for i in range(1, a + 1)]
            dms = self._poly_eval_vec(dm, s, cap)
            dms_inv = self._zq_inv_ints(dms, digits)
            delta = _mulmod(ms, dms_inv, mcoeffs, cap)
            s = [(x - d) % cap for x, d in zip(s, delta)]
        cap = self.pN
        # column i of sigma is sigma(x^i) = s^i
        cols = []
        power = [1] + [0] * (a - 1)
        for _ in range(a):
            cols.append(tuple(power))
            power = _mulmod(power, s, mcoeffs, cap)
        return tuple(cols)

    def _poly_eval_vec(self, coeffs, vec, cap):
        """Evaluate an integer polynomial at a Z_q vector, mod (m, cap)."""
        acc = [0] * self.a
        for c in reversed(coeffs):
            acc = _mulmod(acc, vec, self.modulus, cap)
            acc[0] = (acc[0] + c) % cap
        return acc

    def _apply_sigma_ints(self, coeffs, cap):
        if self.a == 1:
            return [coeffs[0] % cap]
        out = [0] * self.a
        for i, c in enumerate(coeffs):
            if c:
                col = self._sigma_cols[i]
                for j in range(self.a):
                    out[j] = (out[j] + c * col[j]) % cap
        return out

    # -- element constructors ------------------------------------------------

    def zero(self):
        return QqElement(self, "z", 0, (), 0, 0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if n == 0:
            return self.zero()
        v = int_valuation(n, self.p)
        unit = (n // self.p ** v) % self.pN
        return QqElement(self, "n", v, (unit,) + (0,) * (self.a - 1),
                         self.prec, 0)

    def from_fraction(self, x):
        x = Fraction(x)
        if x == 0:
            return self.zero()
        vn = int_valuation(x.numerator, self.p) if x.numerator else 0
        vd = int_valuation(x.denominator, self.p)
        num = x.numerator // self.p ** vn
        den = x.denominator // self.p ** vd
        unit = (num * pow(den, -1, self.pN)) % self.pN
        return QqElement(self, "n", vn - vd,
                         (unit,) + (0,) * (self.a - 1), self.prec, 0)

    def from_vector(self, coeffs, val: int = 0, rel: int | None = None):
        """Element p^val * (c_0 + c_1 x + ...) from integer coefficients."""
        rel = self.prec if rel is None else rel
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) != self.a:
            raise ValidationError(
                f"expected {self.a} coefficients, got {len(coeffs)}")
        if all(c == 0 for c in coeffs):
            return self.zero()
        w = min(int_valuation(c, self.p) for c in coeffs if c != 0)
        cap = self.p ** rel
        unit = tuple((c // self.p ** w) % cap for c in coeffs)
        return QqElement(self, "n", val + w, unit, rel, 0)

    def ifz(self, absprec: int):
        return QqElement(self, "i", 0, (), 0, absprec)

    # -- policy ---------------------------------------------------------------

    def certify(self, x: "QqElement", what: str = "valuation"):
        """Require enough guard digits to certify data about x.

        Normal elements need `guard` relative digits; an IFZ element can only
        be certified as zero, and only when its absolute precision retains
        `guard` digits beyond the context's working valuation scale.
        """
        if x.kind == "z":
            return
        if x.kind == "i":
            raise PrecisionExhausted(
                f"cannot certify {what}: element is indistinguishable from "
                f"zero below p^{x.abs}")
        if x.rel < self.guard:
            raise PrecisionExhausted(
                f"cannot certify {what}: {x.rel} relative digits remain, "
                f"guard requires {self.guard}")


class QqElement:
    """Immutable element of Z_q/Q_q at finite precision.

    kind "n": value p^val * (unit polynomial), unit primitive mod p, known to
    `rel` relative digits.  kind "z": exact zero.  kind "i": indistinguishable
    from zero; only the absolute bound `abs` is known.
    """

    __slots__ = ("ctx", "kind", "val", "coeffs", "rel", "abs")

    def __init__(self, ctx, kind, val, coeffs, rel, absprec):
        self.ctx = ctx
        self.kind = kind
        self.val = val
        self.coeffs = coeffs
        self.rel = rel
        self.abs = absprec

    # -- predicates --

    def is_exact_zero(self):
        return self.kind == "z"

    def is_ifz(self):
        return self.kind == "i"

    def is_zeroish(self):
        return self.kind in ("z", "i")

    def valuation(self):
        if self.kind == "n":
            return self.val
        if self.kind == "z":
            return None  # +infinity
        raise PrecisionExhausted(
            f"valuation unknown: element is zero to absolute precision {self.abs}")

    def abs_prec(self):
        if self.kind == "n":
            return self.val + self.rel
        if self.kind == "i":
            return self.abs
        return None  # exact zero: infinite

    # -- arithmetic --

    def _check(self, other):
        if self.ctx is not other.ctx and (
                self.ctx.p != other.ctx.p or self.ctx.a != other.ctx.a):
            raise ValidationError("mixed p-adic contexts")

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        if self.kind == "z":
            return other
        if other.kind == "z":
            return self
        ap_s, ap_o = self.abs_prec(), other.abs_prec()
        absp = min(ap_s, ap_o)
        if self.kind == "i" and other.kind == "i":
            return ctx.ifz(absp)
        if self.kind == "i" or other.kind == "i":
            x = self if self.kind == "n" else other
            if x.val >= absp:
                return ctx.ifz(absp)
            rel = absp - x.val
            cap = ctx.p ** rel
            return QqElement(ctx, "n", x.val,
                             tuple(c % cap for c in x.coeffs), rel, 0)
        v = min(self.val, other.val)
        k = absp - v
        if k <= 0:
            return ctx.ifz(absp)
        cap = ctx.p ** k
        ps, po = ctx.p ** (self.val - v), ctx.p ** (other.val - v)
        summed = [(cs * ps + co * po) % cap
                  for cs, co in zip(self.coeffs, other.coeffs)]
        if all(c == 0 for c in summed):
            return ctx.ifz(absp)
        w = min(int_valuation(c, ctx.p) for c in summed if c != 0)
        if w >= k:
            return ctx.ifz(absp)
        rel = k - w
        cap2 = ctx.p ** rel
        unit = tuple((c // ctx.p ** w) % cap2 for c in summed)
        return QqElement(ctx, "n", v + w, unit, rel, 0)

    def __neg__(self):
        if self.kind != "n":
            return self
        cap = self.ctx.p ** self.rel
        return QqElement(self.ctx, "n", self.val,
                         tuple((-c) % cap for c in self.coeffs), self.rel, 0)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        if self.kind == "z" or other.kind == "z":
            return ctx.zero()
        if self.kind == "i" or other.kind == "i":
            # v(xy) >= abs(x) + "val or abs"(y)
            lo_s = self.val if self.kind == "n" else self.abs
            lo_o = other.val if other.kind == "n" else other.abs
            return ctx.ifz(lo_s + lo_o)
        rel = min(self.rel, other.rel)
        cap = ctx.p ** rel
        prod = _mulmod([c % cap for c in self.coeffs],
                       [c % cap for c in other.coeffs], ctx.modulus, cap)
        # product of units is a unit: F_q is a domain, no renormalization
        return QqElement(ctx, "n", self.val + other.val, tuple(prod), rel, 0)

    def inverse(self):
        ctx = self.ctx
        if self.kind == "z":
            raise ZeroDivisionError("inverse of exact zero")
        if self.kind == "i":
            raise PrecisionExhausted(
                "cannot invert an element indistinguishable from zero")
        inv = ctx._zq_inv_ints(list(self.coeffs), self.rel)
        cap = ctx.p ** self.rel
        return QqElement(ctx, "n", -self.val,
                         tuple(c % cap for c in inv), self.rel, 0)

    def __truediv__(self, other):
        return self * other.inverse()

    def frobenius(self):
        """sigma(x): the canonical lift of the p-power Frobenius."""
        if self.kind != "n":
            return self
        ctx = self.ctx
        if ctx.a == 1:
            return self
        cap = ctx.p ** self.rel
        out = ctx._apply_sigma_ints([c % cap for c in self.coeffs], cap)
        # sigma is an isometry: the image of a unit vector is a unit vector
        return QqElement(ctx, "n", self.val, tuple(out), self.rel, 0)

    def frobenius_iter(self, k: int):
        x = self
        for _ in range(k % self.ctx.a):
            x = x.frobenius()
        return x

    def shift(self, k: int):
        """Multiply by p^k (exact)."""
        if self.kind == "n":
            return QqElement(self.ctx, "n", self.val + k, self.coeffs,
                             self.rel, 0)
        if self.kind == "i":
            return self.ctx.ifz(self.abs + k)
        return self

    # -- comparisons --

    def same_value(self, other, digits=None):
        """Agreement at the overlapping precision (never more than known)."""
        self._check(other)
        d = self - other
        if d.kind == "z":
            return True
        if d.kind == "i":
            return digits is None or d.abs >= digits
        return False

    def __eq__(self, other):
        if not isinstance(other, QqElement):
            return NotImplemented
        return (self.ctx.p == other.ctx.p and self.ctx.a == other.ctx.a
                and self.kind == other.kind and self.val == other.val
                and self.coeffs == other.coeffs and self.rel == other.rel
                and self.abs == other.abs)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.a, self.kind, self.val,
                     self.coeffs, self.rel, self.abs))

    def __repr__(self):
        if self.kind == "z":
            return f"Qq(0; p={self.ctx.p})"
        if self.kind == "i":
            return f"Qq(O(p^{self.abs}); p={self.ctx.p})"
        if self.ctx.a == 1:
            return (f"Qq({self.coeffs[0]}*{self.ctx.p}^{self.val} "
                    f"+ O(p^{self.val + self.rel}))")
        return (f"Qq({list(self.coeffs)}*{self.ctx.p}^{self.val} "
                f"+ O(p^{self.val + self.rel}); a={self.ctx.a})")


@lru_cache(maxsize=CACHE_SIZE, typed=True)
def context(p: int, a: int = 1, prec: int = DEFAULT_PRECISION):
    """The QqContext of (p, a, prec), built once while among the CACHE_SIZE
    most recently used; keyed on the arguments as passed, so callers pass
    all three.  A refused (p, a) or prec raises on every call."""
    return QqContext(p, a, prec)


def Zp(p: int, prec: int = DEFAULT_PRECISION):
    """Context for Z_p/Q_p (the a = 1 unramified extension)."""
    return context(p, 1, prec)

