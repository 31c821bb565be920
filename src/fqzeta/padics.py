"""Fixed-precision arithmetic in Z_p, Q_p and the unramified extension Z_q.

The unramified extension W(F_{p^a}) is represented as Z_p[x]/(m(x)) where m is
the first monic irreducible c_0 + ... + c_{a-1} x^{a-1} + x^a over F_p in the
order of the integer sum c_i p^i (`minimal_polynomial`), lifted to Z_p.
The Frobenius lift sigma is computed once per context by Hensel-lifting the
root x -> x^p and stored as an a-by-a matrix over Z/p^prec.  `context` and
`field` build each context and residue field once per process, among the
most recently used (`CACHE_SIZE`); neither holds a result.  Products
and powers in F_q are those of Z_q taken mod p (`_mulmod`, `_powmod`):
the residue inverse that starts the Newton lift of a Z_q inverse is
u^(q - 2), and Rabin's irreducibility test takes no gcd.  `prime_divisors`
is the one trial division, `digits`/`from_digits` the one base-p codec.

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
from operator import mul

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
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def digits(n, p, count):
    """The first `count` base-p digits of n >= 0, low first."""
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


def from_digits(ds, p):
    """sum d_i p^i of int base-p digits, low first, by Horner's rule."""
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


# ---------------------------------------------------------------------------
# polynomial helpers over F_p and Z/cap (dense int lists, low degree first)


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


def _is_irreducible(m, p):
    """Rabin's test for monic m of degree a >= 1 over F_p, with no gcd.

    Once x^(p^a) = x mod m, F_p[x]/(m) is a product of fields F_{p^d}, d | a,
    and m has no factor of degree dividing a/l iff h = x^(p^(a/l)) - x is a
    unit: h^(p^a - 1) = N^(p - 1) = 1, N = h h^p ... h^(p^(a-1)), each
    h^(p^i) = x^(p^(a/l + i)) - x^(p^i) read off the list of x^(p^i)."""
    a = len(m) - 1
    if a == 1:
        return True
    frob = [[0, 1] + [0] * (a - 2)]
    for _ in range(a):
        frob.append(_powmod(frob[-1], p, m, p))
    if frob[a] != frob[0]:
        return False
    one = [1] + [0] * (a - 1)
    for ell in prime_divisors(a):
        norm = one
        for i in range(a):
            norm = _mulmod(norm, [(u - v) % p for u, v in zip(
                frob[(a // ell + i) % a], frob[i])], m, p)
        if _powmod(norm, p - 1, m, p) != one:
            return False
    return True


def prime_divisors(n):
    """The distinct primes dividing n >= 1, in increasing order, by trial
    division: the one factorisation of the library (primality, the
    irreducibility test, the order of a log-table generator, Mobius)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def check_field(p, a, max_degree=MAX_DEGREE):
    """Refuse F_{p^a} unless p is a prime int at most MAX_PRIME and a an
    int in [1, max_degree]; the one check wherever a document's (p, a)
    enters.  `FiniteField` allows degree 2 * MAX_DEGREE, for the N_2 anchor
    of a curve over F_{p^a}."""
    if not (isinstance(p, int) and 2 <= p <= MAX_PRIME
            and prime_divisors(p) == [p]):
        raise ValidationError(f"expected a prime at most {MAX_PRIME}, got {p}")
    if not (isinstance(a, int) and 1 <= a <= max_degree):
        raise ValidationError(
            f"extension degree a must be in [1, {max_degree}], got {a}")


def _irreducible_binomials(p, a):
    """The c in [1, p), increasing, with x^a + c irreducible over F_p (a >= 2).

    Lidl-Niederreiter, Finite Fields, Thm 3.75: x^a - b is irreducible iff
    every prime l | a divides e = ord(b) but not (p - 1)/e, and p = 1 mod 4
    when 4 | a.  So there is none unless every such l divides p - 1; here
    b = -c, and e is found by dividing p - 1 by each of its primes while
    b^(e/l) = 1.  No Rabin test runs.
    """
    primes, ells = prime_divisors(a), prime_divisors(p - 1)
    if a % 4 == 0 and p % 4 == 3 or not set(primes) <= set(ells):
        return
    for c in range(1, p):
        e = p - 1
        for ell in ells:
            while e % ell == 0 and pow(p - c, e // ell, p) == 1:
                e //= ell
        if all(e % ell == 0 and (p - 1) // e % ell for ell in primes):
            yield c


def minimal_polynomial(p: int, a: int):
    """The first monic irreducible of degree a over F_p by sum c_i p^i.

    Coefficient tuples (c_0, ..., c_{a-1}) are compared right to left; the
    returned list is [c_0, ..., c_{a-1}, 1].  Deterministic, so contexts built
    anywhere agree on the model of F_{p^a} and W(F_{p^a}).  The codes below
    p are the binomials x^a + c, decided in closed form
    (`_irreducible_binomials`); Rabin's test decides the codes from p on.
    """
    if a == 1:
        return [0, 1]  # x itself: Z_q = Z_p, residue field F_p
    for c in _irreducible_binomials(p, a):
        return [c] + [0] * (a - 1) + [1]
    for code in range(p, p ** a):
        m = digits(code, p, a) + [1]
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
        self.one = (1,) + (0,) * (k - 1)
        self._log_tables = None

    def elements(self):
        """All p^k raw tuples, (c_0, ..., c_{k-1}) at place sum c_i p^i."""
        return (tuple(digits(j, self.p, self.k)) for j in range(self.order))

    def mul(self, u, v):
        """The product of raw tuples."""
        return tuple(_mulmod(u, v, self.modulus, self.p))

    def log_tables(self):
        """Zech log/antilog and curve tables (exp, log, zech, squares,
        traces, orbits), built once per field.

        An element (c_0, ..., c_{k-1}) has index sum c_i p^i, its place in
        `elements()`.  g is the first element in that order of order
        n = q - 1 (g^(n/l) != 1 for every prime l | n).  exp[i] is the index
        of g^i for 0 <= i < n; log[j] is the exponent of the element of
        index j, and n stands for zero (log[0] = n); zech[i] = log(1 + g^i),
        so g^u + g^v = g^(u + zech[v - u]) (K. Huber, "Some comments on
        Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990).  The tables
        are `array` machine ints.  For point counting on curves,
        squares[l] = #{y : log y^2 = l} and traces[l] = #{t : log(t^2 + t)
        = l} (l = n for zero), as `bytearray`s made in one pass.  The
        Frobenius x -> x^p maps log l to l p mod n, and the conjugates of x
        are its p-power images (Lidl-Niederreiter, Finite Fields, Ch. 2):
        orbits[l] is the size of the orbit {l p^j mod n} when l is its
        least log, and 0 otherwise (zero is its own orbit), a `bytearray`
        whose nonzero entries sum to q.
        """
        if self._log_tables is None:
            p, m, n = self.p, self.modulus, self.order - 1
            one = list(self.one)
            ells = prime_divisors(n)
            g = next(u for u in self.elements() if any(u)
                     and all(_powmod(u, n // ell, m, p) != one
                             for ell in ells))
            exp = array("i", [0]) * n
            log = array("i", [n]) * self.order
            u = one
            for i in range(n):
                j = from_digits(u, p)
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
            orbits = bytearray(self.order)
            orbits[n] = 1
            for i in range(n):
                if orbits[i]:               # marked from its least log
                    orbits[i] = 0
                    continue
                j, size = i * p % n, 1
                while j != i:
                    orbits[j] = 1
                    j, size = j * p % n, size + 1
                orbits[i] = size
            self._log_tables = (exp, log, zech, squares, traces, orbits)
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
        in Z_p, else Newton lifting from the residue inverse red^(q - 2)."""
        p = self.p
        if self.a == 1:
            if u[0] % p == 0:
                raise ZeroDivisionError("inverse of a non-unit in Z_p")
            return [pow(u[0], -1, p ** modcap_digits)]
        red = [c % p for c in u]
        if not any(red):
            raise ZeroDivisionError("inverse of a non-unit in Z_q")
        inv = _powmod(red, self.q - 2, self.modulus, p)
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
        # sum c_i sigma(x^i), row by row of the columns sigma(x^i); sigma is
        # an isometry: the image of a unit vector is a unit vector
        out = tuple(sum(map(mul, self.coeffs, row)) % cap
                    for row in zip(*ctx._sigma_cols))
        return QqElement(ctx, "n", self.val, out, self.rel, 0)

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

