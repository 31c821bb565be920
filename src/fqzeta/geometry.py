"""Desk-scale variety corpus with honest point counting.

Varieties here are the ones whose Frobenius data can be written down in full:
projective and affine spaces, the torus, Weierstrass curves, products, and
complements of rational points.  Point counts enumerate only what the
closed forms need: #E(F_p) of each distinct curve (its coefficients lie in
F_p), over one x per Frobenius orbit with Zech log tables.  N_1 over F_q
and every other N_e come from the Weil recurrence or the exact counts of
P^n, A^n and G_m.  The budget bills three passes over each field
enumerated, 3p for N_1 of a curve, and what N_1 leaves of it pays for one
cross-check per curve: N_2, enumerated over F_{q^2} (billed 3 q^2) and
compared with the recurrence.  Mobius inversion to closed points reads mu
off the one trial division of the library, `padics.prime_divisors`.

Packages carry exact zeta factors and the corresponding p-adic crystals,
built from Tate pieces Q_p(-i) (`_tate`) and one elliptic H^1, whose
crystal over F_p is the closed form [[0, -p], [1, a_p]] with
det(1 - t C) = 1 - a_p t + p t^2, by two operations: the Kunneth product
(`_kunneth`) and the direct sum of pieces in one degree (`_merge_degree`),
which build crystals when read and combine Hodge numbers (`_hodge`).  A
coefficient twist and the Tate twist are Kunneth factors on the point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import compress

from .errors import (
    BudgetExceeded,
    GeneralConeError,
    ValidationError,
)
from .isocrystals import Isocrystal, purity_check
from .lfun import assemble
from .padics import (
    DEFAULT_PRECISION,
    check_field,
    context,
    field,
    prime_divisors,
)
from .plinalg import mat_identity, mat_shift
from .polys import (
    kron,
    mat_pow_fractions,
    poly_mul,
    poly_trim,
    rev_charpoly_fractions,
    tensor_poly,
)

DEFAULT_BUDGET = 10 ** 7

# Largest `points` count, and largest factor degree and crystal rank in a
# package document (`serialize`): verify is cubic in the count, the
# realisation check O(n^3) in the rank, and H^5 of E^5 has rank 252.
MAX_RANK = 256

# Largest dimension of a variety.  Its factors carry powers of q up to
# q^dim, and a product's middle degree grows as a binomial coefficient:
# E^5 is the largest power of a curve whose H^5 (rank 252) fits MAX_RANK.
MAX_DIM = 5

_KINDS = ("projective", "affine", "torus", "elliptic", "product",
          "complement", "points")


def _weierstrass_discriminant(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


class VarietySpec:
    """Symbolic description of a corpus variety over F_q, q = p^a."""

    def __init__(self, kind, p, a, *, n=None, coeffs=None, factors=None,
                 ambient=None, closed=None, count=None):
        if kind not in _KINDS:
            raise ValidationError(f"unknown variety kind {kind!r}")
        self.kind = kind
        self.p = int(p)
        self.a = int(a)
        check_field(self.p, self.a)
        self.q = self.p ** self.a
        self.n = n
        self.coeffs = coeffs
        self.factors = factors
        self.ambient = ambient
        self.closed = closed
        self.count = count
        self._validate()

    # constructors ----------------------------------------------------------

    @classmethod
    def projective(cls, n, p, a=1):
        return cls("projective", p, a, n=int(n))

    @classmethod
    def affine(cls, n, p, a=1):
        return cls("affine", p, a, n=int(n))

    @classmethod
    def torus(cls, p, a=1):
        return cls("torus", p, a)

    @classmethod
    def elliptic(cls, coeffs, p, a=1):
        return cls("elliptic", p, a, coeffs=tuple(int(c) for c in coeffs))

    @classmethod
    def product(cls, factors):
        factors = tuple(factors)
        if not factors:
            raise ValidationError("empty product")
        return cls("product", factors[0].p, factors[0].a, factors=factors)

    @classmethod
    def complement(cls, ambient, closed):
        return cls("complement", ambient.p, ambient.a,
                   ambient=ambient, closed=closed)

    @classmethod
    def points(cls, count, p, a=1):
        return cls("points", p, a, count=int(count))

    # validation ------------------------------------------------------------

    def _validate(self):
        kind = self.kind
        if kind in ("projective", "affine"):
            if self.n is None or self.n < 0:
                raise ValidationError(f"{kind} space needs dimension n >= 0")
        elif kind == "elliptic":
            coeffs = self.coeffs
            if len(coeffs) == 2:          # short form y^2 = x^3 + Ax + B
                coeffs = (0, 0, 0, coeffs[0], coeffs[1])
            if len(coeffs) != 5:
                raise ValidationError(
                    "elliptic coefficients must be [a1,a2,a3,a4,a6] or [A,B]")
            self.coeffs = coeffs
            if _weierstrass_discriminant(*coeffs) % self.p == 0:
                raise ValidationError(
                    f"singular Weierstrass equation over F_{self.p}")
        elif kind == "product":
            for f in self.factors:
                if (f.p, f.a) != (self.p, self.a):
                    raise ValidationError("product factors over different fields")
        elif kind == "complement":
            for part in (self.ambient, self.closed):
                if (part.p, part.a) != (self.p, self.a):
                    raise ValidationError("complement parts over different fields")
        elif kind == "points":
            if self.count < 0:
                raise ValidationError("negative point count")
            if self.count > MAX_RANK:
                raise ValidationError(f"point count above {MAX_RANK}")
        if self.dim > MAX_DIM:
            raise ValidationError(f"dimension {self.dim} above {MAX_DIM}")

    # structure -------------------------------------------------------------

    @property
    def dim(self):
        kind = self.kind
        if kind in ("projective", "affine"):
            return self.n
        if kind in ("torus", "elliptic"):
            return 1
        if kind == "product":
            return sum(f.dim for f in self.factors)
        if kind == "complement":
            return self.ambient.dim
        return 0

    def key(self):
        """Hashable canonical form, used for equality and hashing."""
        kind = self.kind
        if kind == "product":
            inner = tuple(f.key() for f in self.factors)
        elif kind == "complement":
            inner = (self.ambient.key(), self.closed.key())
        else:
            inner = (self.n, self.coeffs, self.count)
        return (kind, self.p, self.a, inner)

    def __eq__(self, other):
        return isinstance(other, VarietySpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"VarietySpec({self.key()!r})"


# ---------------------------------------------------------------------------
# point counting


def _mobius(n):
    """mu(n) for n >= 1: (-1)^k if n is a product of k distinct primes,
    else 0."""
    primes = prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def _enumerate_elliptic(field, coeffs):
    """#E(F) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    F is F_p, or F_{q^2} for the N_2 cross-check (`_curve_n1`).  The
    coefficients lie in F_p, so Frobenius (x, y) -> (x^p, y^p) maps the
    points over x onto those over x^p: x runs, in Zech-log form
    (`FiniteField.log_tables`), over the least log of each Frobenius
    orbit, and its count is weighted by the orbit's size (`orbits`; over
    F_p every size is 1).  With c = a1 x + a3 and r the right-hand side,
    the y over x number #{y : y^2 = r} when c = 0, and #{t : t^2 + t =
    r/c^2} when c != 0 (set y = c t).  Both counts are tabulated, by the
    log of the value, once per field (`squares` and `traces`).
    """
    _, log, zech, squares, traces, orbits = field.log_tables()
    p, q = field.p, field.order
    n = q - 1                   # log of zero

    def add(u, v):              # log(g^u + g^v)
        if u == n:
            return v
        if v == n:
            return u
        z = zech[(v - u) % n]
        return n if z == n else (u + z) % n

    def mul(u, v):              # log(g^u g^v)
        return n if u == n or v == n else (u + v) % n

    a1, a2, a3, a4, a6 = (log[c % p] for c in coeffs)
    total = 1                   # the point at infinity
    for x in compress(range(q), orbits):
        rhs = add(mul(add(mul(add(x, a2), x), a4), x), a6)
        c = add(mul(a1, x), a3)
        if c == n:
            total += orbits[x] * squares[rhs]
        else:
            total += orbits[x] * traces[mul(rhs, -2 * c % n)]
    return total


def _weil_counts(q, n1, degrees):
    """N_1, ..., N_degrees of an elliptic curve over F_q from N_1.

    N_e = q^e + 1 - s_e, where s_e = alpha^e + beta^e for the Frobenius
    roots: s_0 = 2, s_1 = a_q = q + 1 - N_1, s_e = a_q s_{e-1} - q s_{e-2}.
    """
    a_q = q + 1 - n1
    s_prev, s_cur = 2, a_q
    out = []
    for e in range(1, degrees + 1):
        out.append(q ** e + 1 - s_cur)
        s_prev, s_cur = s_cur, a_q * s_cur - q * s_prev
    return out


def _leaf_counts(spec, degrees, n1):
    """N_1, ..., N_degrees of a leaf: closed forms, and for an elliptic
    curve the Weil recurrence from its N_1 (`n1[spec]`, `_curve_n1`)."""
    kind = spec.kind
    if kind == "elliptic":
        return _weil_counts(spec.q, n1[spec], degrees)
    out = []
    for e in range(1, degrees + 1):
        q_e = spec.q ** e
        if kind == "points":
            out.append(spec.count)
        elif kind == "affine":
            out.append(q_e ** spec.n)
        elif kind == "torus":
            out.append(q_e - 1)
        else:                   # projective
            out.append(sum(q_e ** i for i in range(spec.n + 1)))
    return out


def _counts(spec, degrees, n1):
    if spec.kind == "product":
        parts = [_counts(f, degrees, n1) for f in spec.factors]
        return [math.prod(column) for column in zip(*parts)]
    if spec.kind == "complement":
        amb = _counts(spec.ambient, degrees, n1)
        sub = _counts(spec.closed, degrees, n1)
        out = []
        for e in range(degrees):
            n_e = amb[e] - sub[e]
            if n_e < 0:
                raise ValidationError(
                    f"complement has negative count {n_e} in degree {e + 1}")
            out.append(n_e)
        return out
    return _leaf_counts(spec, degrees, n1)


def _curves(spec):
    """The distinct elliptic leaves of spec, in order of appearance."""
    if spec.kind == "product":
        parts = spec.factors
    elif spec.kind == "complement":
        parts = (spec.ambient, spec.closed)
    else:
        return [spec] if spec.kind == "elliptic" else []
    return list(dict.fromkeys(c for f in parts for c in _curves(f)))


def _curve_n1(spec, budget):
    """N_1 over F_q of each distinct elliptic curve of spec: #E(F_p),
    enumerated, lifted to degree a by the Weil recurrence.

    `budget` is billed 3 |F| for each field F enumerated, the three passes
    over it (log tables, squares and traces, the x loop): 3p for N_1 of
    each curve.  The x loop visits one x per Frobenius orbit, so 3 |F| is
    an upper bound; it is kept, so no budget decision moves.
    BudgetExceeded is raised, before any field is built, exactly when the
    N_1 bills exceed `budget`.  What they leave pays for one cross-check
    per curve: N_2 is enumerated over F_{q^2}, billed 3 q^2, when it fits,
    and must equal the recurrence or ValidationError is raised.
    """
    curves = _curves(spec)
    spent = sum(3 * c.p for c in curves)
    if spent > budget:
        raise BudgetExceeded(
            f"counting N_1 of {len(curves)} elliptic curve(s) needs {spent} "
            f"operations; the budget is {budget}")
    n1 = {c: _weil_counts(c.p, _enumerate_elliptic(field(c.p, 1), c.coeffs),
                          c.a)[-1] for c in curves}
    for c in curves:
        if spent + 3 * c.q ** 2 <= budget:
            spent += 3 * c.q ** 2
            n2 = _enumerate_elliptic(field(c.p, 2 * c.a), c.coeffs)
            want = _weil_counts(c.q, n1[c], 2)[1]
            if n2 != want:
                raise ValidationError(
                    f"enumeration and recurrence disagree at degree 2: "
                    f"{n2} vs {want}")
    return n1


def point_counts(spec, degrees, budget=DEFAULT_BUDGET):
    """(N_1, ..., N_B): points of spec over F_{q^e} for e = 1..degrees.

    Only #E(F_p) of each distinct elliptic curve is enumerated, over one x
    per Frobenius orbit with Zech log tables, under `budget` (`_curve_n1`);
    N_1 over F_q and every other N_e come from a closed form (P^n, A^n, G_m,
    point sets) or from the curve's Weil recurrence.
    """
    if degrees < 1:
        return ()
    return tuple(_counts(spec, degrees, _curve_n1(spec, budget)))


def closed_points(counts):
    """Degree d -> number a_d of closed points, by Mobius inversion.

    counts is the tuple (N_1, ..., N_B); a_d = (1/d) sum_{e|d} mu(d/e) N_e.
    Fractional or negative a_d means the counts are not the counts of a
    variety, and is rejected.
    """
    out = {}
    for d in range(1, len(counts) + 1):
        total = sum(_mobius(d // e) * counts[e - 1]
                    for e in range(1, d + 1) if d % e == 0)
        if total % d:
            raise ValidationError(f"non-integer closed-point count at degree {d}")
        a_d = total // d
        if a_d < 0:
            raise ValidationError(f"negative closed-point count at degree {d}")
        out[d] = a_d
    return out


# ---------------------------------------------------------------------------
# cohomology packages


PackageDegree = namedtuple("PackageDegree",
                           "poly weight u semisimple crystal hodge",
                           defaults=(None,))


class CohomologyPackage:
    """Per-degree Frobenius data of a corpus variety (compact support).

    degrees maps j to a PackageDegree: the exact integer/rational polynomial
    P_j = det(1 - t F^a | H^j_c), a weight tag (None = mixed or unknown), the
    unipotent exponent u_j, a semisimplicity tag, optionally a p-adic
    crystal, which must realise the degree, det(1 - t M) = P_j: the
    semisimplicity test relies on it, and optionally its Hodge numbers
    {i: h^i}, which must be the crystal's (None: read off its Smith form).
    Only (p, a) and the rank are checked here; `package()` builds both so,
    and `decode_package` checks crystals and carries no Hodge numbers.
    n1 maps each distinct elliptic curve of the variety to its N_1 over
    F_q when `package()` counted them (`_curve_n1`), so the point counts
    of the variety follow without counting again (`_counts`); it is None
    for a package read from a document.
    """

    def __init__(self, p, a, dim, degrees, n1=None):
        self.p = int(p)
        self.a = int(a)
        check_field(self.p, self.a)
        self.q = self.p ** self.a
        self.dim = dim
        self.degrees = dict(degrees)
        self.n1 = n1
        for j, data in self.degrees.items():
            poly = poly_trim(data.poly)
            if not poly or poly[0] != 1:
                raise ValidationError(
                    f"degree-{j} factor must have constant term 1")
            if not 0 <= j <= 2 * dim:
                raise ValidationError(
                    f"degree {j} outside [0, {2 * dim}]")
            if data.u < 0:
                raise ValidationError("unipotent exponent must be >= 0")
            crystal = data.crystal
            if crystal is None:
                continue
            if (crystal.ctx.p, crystal.ctx.a) != (self.p, self.a):
                raise ValidationError(
                    f"degree-{j} crystal has (p, a) = ({crystal.ctx.p}, "
                    f"{crystal.ctx.a}), the package ({self.p}, {self.a})")
            if crystal.rank != len(poly) - 1:
                raise ValidationError(
                    f"degree-{j} crystal has rank {crystal.rank}, its factor "
                    f"degree {len(poly) - 1}")

    def zeta(self):
        return assemble({j: d.poly for j, d in self.degrees.items()
                         if len(poly_trim(list(d.poly))) > 1})

    def check_purity(self):
        """purity_check for every degree carrying a weight tag."""
        out = {}
        for j, data in self.degrees.items():
            if data.weight is not None:
                out[j] = purity_check(data.poly, data.weight, self.q)
        return out

    def tate_twist(self, r):
        """X(r), the Kunneth product with Q_p(r) on the point: inverse roots
        divide by q^r, crystals by p^r, weights drop by 2r, u stays.

        Factor coefficients become rational for r > 0, so a twisted package
        is p-adic-only (compatibility_check fails).
        """
        ctx = max((d.crystal.ctx for d in self.degrees.values()
                   if d.crystal is not None), key=lambda c: c.prec,
                  default=None) or context(self.p, self.a, DEFAULT_PRECISION)
        return CohomologyPackage(self.p, self.a, self.dim, _kunneth(
            self.degrees, {0: _tate(ctx, -r)}))

    def __repr__(self):
        polys = {j: [str(c) for c in d.poly]
                 for j, d in sorted(self.degrees.items())}
        return f"CohomologyPackage(q={self.q}, factors={polys})"


def _tate(ctx, i, mult=1):
    """mult copies of the Tate piece Q_p(-i), any integer i: factor
    (1 - q^i t)^mult, weight 2i, crystal p^i I and Hodge numbers {i: mult}."""
    q = ctx.p ** ctx.a
    q_i = q ** i if i >= 0 else Fraction(1, q ** -i)
    return PackageDegree(
        poly=[math.comb(mult, k) * (-q_i) ** k for k in range(mult + 1)],
        weight=2 * i, u=0, semisimple=True,
        crystal=Isocrystal(ctx, mat_shift(mat_identity(ctx, mult), i)),
        hodge={i: mult})


def _twist_degree(ctx, twist):
    """The coefficient twist as a package on the point: det(1 - t T^a) in
    degree 0 for the square rational matrix T, weight unknown, semisimple
    when T has rank 1, and T itself as the (sigma-semilinear) crystal."""
    rows = [[Fraction(x) for x in row] for row in twist]
    if any(len(r) != len(rows) for r in rows):
        raise ValidationError("twist matrix must be square")
    poly = rev_charpoly_fractions(mat_pow_fractions(rows, ctx.a))
    if len(poly_trim(poly)) <= len(rows):    # det T = 0: no isocrystal
        raise ValidationError("twist matrix must be invertible")
    return PackageDegree(
        poly=poly,
        weight=None, u=0, semisimple=len(rows) == 1,
        crystal=Isocrystal(
            ctx, [[ctx.from_fraction(x) for x in row] for row in rows]))


def _leaf_package(spec, ctx, n1):
    kind = spec.kind
    if kind == "projective":
        return {2 * i: _tate(ctx, i) for i in range(spec.n + 1)}
    if kind == "affine":
        return {2 * spec.n: _tate(ctx, spec.n)}
    if kind == "torus":
        return {1: _tate(ctx, 0), 2: _tate(ctx, 1)}
    if kind == "points":
        return {0: _tate(ctx, 0, spec.count)} if spec.count else {}
    if kind == "elliptic":
        q = spec.q
        a_q = q + 1 - n1[spec]
        frob = hodge = None
        if spec.a == 1:         # det(1 - t C) = 1 - a_q t + q t^2, det C = p
            frob = Isocrystal.from_ints(ctx, [[0, -q], [1, a_q]])
            hodge = {0: 1, 1: 1}
        return {0: _tate(ctx, 0),
                1: PackageDegree([1, -a_q, q], weight=1, u=0,
                                 semisimple=True, crystal=frob, hodge=hodge),
                2: _tate(ctx, 1)}
    raise ValidationError(f"no package rule for kind {spec.kind!r}")


def _merge_degree(first, second):
    """Combine two summands landing in the same cohomological degree."""
    poly = poly_mul(first.poly, second.poly)
    weight = first.weight if first.weight == second.weight else None
    if first.u or second.u:
        raise ValidationError("unipotent exponents do not combine")
    crystal = (None if first.crystal is None or second.crystal is None
               else first.crystal.direct_sum(second.crystal))
    return PackageDegree(poly=poly, weight=weight, u=0,
                         semisimple=first.semisimple and second.semisimple,
                         crystal=crystal,
                         hodge=_hodge(first.hodge, second.hodge, False))


def _hodge(h1, h2, tensor):
    """Hodge numbers of a tensor product (`tensor`) or direct sum, None if
    either's are unknown.  They are the elementary divisors (`gauges.hodge`),
    and A (x) B = (U (x) U')(D (x) D')(V (x) V') for Smith forms A = U D V,
    B = U' D' V': they convolve under (x) and add under a direct sum."""
    if h1 is None or h2 is None:
        return None
    pairs = ([(i + k, g * h) for i, g in h1.items() for k, h in h2.items()]
             if tensor else [*h1.items(), *h2.items()])
    out = {}
    for i, h in sorted(pairs):
        out[i] = out.get(i, 0) + h
    return out


def _kunneth(deg1, deg2):
    """Degree j of the product is the direct sum over j1 + j2 = j of the
    tensor products d1 (x) d2.  A unipotent exponent passes through a
    tensor with a piece of u = 0; two nonzero ones do not combine."""
    out = {}
    for j1, d1 in deg1.items():
        for j2, d2 in deg2.items():
            if d1.u and d2.u:
                raise ValidationError("unipotent exponents do not combine")
            c1, c2 = d1.crystal, d2.crystal
            piece = PackageDegree(
                poly=tensor_poly(d1.poly, d2.poly),
                weight=(None if d1.weight is None or d2.weight is None
                        else d1.weight + d2.weight),
                u=d1.u or d2.u,
                semisimple=d1.semisimple and d2.semisimple,
                crystal=None if c1 is None or c2 is None
                else Isocrystal(c1.ctx, rank=c1.rank * c2.rank,
                                build=lambda c1=c1, c2=c2:
                                kron(c1.matrix, c2.matrix)),
                hodge=_hodge(d1.hodge, d2.hodge, True))
            j = j1 + j2
            out[j] = piece if j not in out else _merge_degree(out[j], piece)
    return out


def _cone_degrees(ctx, ambient_degrees, k):
    """Compact-support degrees of (ambient minus k rational points).

    Valid exactly when the boundary restriction is an isomorphism onto a
    (1-t) factor in degree 0 and zero elsewhere: the ambient must be
    connected (degree-0 factor 1-t) and the removed locus a finite set of
    rational points.  Degree 0 then cancels, its cokernel (1-t)^(k-1) shifts
    into degree 1, and every higher degree passes through unchanged.
    """
    if k < 1:
        return dict(ambient_degrees)
    zero = ambient_degrees.get(0)
    if zero is None or poly_trim(zero.poly) != [1, -1]:
        raise GeneralConeError(
            "cone rule needs a connected ambient with degree-0 factor 1-t")
    out = {j: d for j, d in ambient_degrees.items() if j != 0}
    if k > 1:
        boundary = _tate(ctx, 0, k - 1)
        out[1] = (boundary if 1 not in out
                  else _merge_degree(out[1], boundary))
    return out


def package(spec, twist=None, prec=DEFAULT_PRECISION,
            budget=DEFAULT_BUDGET):
    """CohomologyPackage of a corpus variety (compact support).

    `twist` is an optional square matrix with rational entries: the
    (sigma-semilinear) Frobenius of an isocrystal on the point.  The twisted
    package is the Kunneth product with that package on the point
    (`_twist_degree`): every factor is tensored with det(1 - t F^a) of the
    twist and every crystal with the twist crystal, and weight tags are
    dropped since the twist's weights are not known.  Each distinct elliptic
    curve is counted once, under `budget` exactly as in `point_counts`, and
    its N_1 is kept on the package (`CohomologyPackage.n1`).
    """
    ctx = context(spec.p, spec.a, prec)
    n1 = _curve_n1(spec, budget)
    degrees = _package_degrees(spec, ctx, n1)
    if twist is not None:
        degrees = _kunneth(degrees, {0: _twist_degree(ctx, twist)})
    return CohomologyPackage(spec.p, spec.a, spec.dim, degrees, n1)


def _package_degrees(spec, ctx, n1):
    if spec.kind == "product":
        degrees = None
        for f in spec.factors:
            part = _package_degrees(f, ctx, n1)
            degrees = part if degrees is None else _kunneth(degrees, part)
        return degrees
    if spec.kind == "complement":
        if spec.closed.kind != "points":
            raise GeneralConeError(
                "only complements of rational point sets are in the corpus")
        ambient = _package_degrees(spec.ambient, ctx, n1)
        _counts(spec, 1, n1)    # refuses removing more points than N_1
        return _cone_degrees(ctx, ambient, spec.closed.count)
    return _leaf_package(spec, ctx, n1)


# ---------------------------------------------------------------------------
# the named corpus


def corpus():
    """The named fixtures, all over F_5, that every identity in the suite
    is run against."""
    P1 = VarietySpec.projective(1, 5)
    return {
        "P1": P1,
        "P2": VarietySpec.projective(2, 5),
        "A1": VarietySpec.complement(P1, VarietySpec.points(1, 5)),
        "Gm": VarietySpec.torus(5),
        "P1xP1": VarietySpec.product([P1, P1]),
        "elliptic-F5-a5=-3": VarietySpec.elliptic([0, 0, 0, 1, 1], 5),
        "elliptic-F5-supersingular": VarietySpec.elliptic([0, 0, 0, 0, 1], 5),
    }
