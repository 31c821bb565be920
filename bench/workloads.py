"""The three workloads: seeded inputs, the calls they time, their checks.

A workload is a list of groups.  A group is a list of steps run in order
within one pass (a CLI `package` step feeds the `verify` steps after it);
the order of groups is shuffled on every pass.  Each step is one timed
call into fqzeta's public API, and its output is checked against
`oracles` outside the timed region.

Every call goes through an attribute lookup on a fqzeta module at call
time (`fqzeta.package`, `cli.main`, ...), so the traced run sees it once
the tracer has replaced those attributes.

The point-count memo in fqzeta keys on the budget, so each timed call
passes `budget + serial`, serial being the number of timed calls made
before it in the process: no two calls share a budget, so no timed call is
served from a count an earlier call stored.  Base budgets sit far from any
enumeration threshold, so the offset changes no decision.
"""

import contextlib
import io
import json
import os
import re
from fractions import Fraction

import fqzeta
import fqzeta.cli as cli
import fqzeta.serialize as serialize

import oracles as O

PRIMES = (2, 3, 5, 7, 11)
BUDGET = 10 ** 7


class Step:
    """One timed call: `call(serial)` returns an output, `check(out)` a list
    of failed expectations (empty when the output is right).  `serial` is
    unique to the call; `check` runs outside the timed region."""

    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


# ---------------------------------------------------------------------------
# seeded varieties


def random_curve(rng, p, general):
    """Nonsingular, ordinary Weierstrass coefficients over F_p; a1 = a3 = 0
    unless `general`, in which case both are nonzero.

    Supersingular curves are left out: their products fail the Hodge
    identity in verify_padic (see CHANGES.md).
    """
    for _ in range(1000):
        a1, a3 = ((rng.randrange(1, p), rng.randrange(1, p)) if general
                  else (0, 0))
        c = (a1, rng.randrange(p), a3, rng.randrange(p), rng.randrange(p))
        if (O.weierstrass_discriminant(*c) % p
                and (p + 1 - O.elliptic_n1(c, p)) % p):
            return c
    raise ValueError(f"no ordinary curve found over F_{p}")


def to_spec(var, p, a):
    kind = var[0]
    if kind == "projective":
        return fqzeta.VarietySpec.projective(var[1], p, a)
    if kind == "torus":
        return fqzeta.VarietySpec.torus(p, a)
    if kind == "elliptic":
        return fqzeta.VarietySpec.elliptic(var[1], p, a)
    return fqzeta.VarietySpec.product([to_spec(f, p, a) for f in var[1]])


def to_doc(var, p, a):
    kind = var[0]
    out = {"kind": kind, "p": p, "a": a}
    if kind == "projective":
        out["n"] = var[1]
    elif kind == "elliptic":
        out["coeffs"] = list(var[1])
    elif kind == "product":
        out["factors"] = [to_doc(f, p, a) for f in var[1]]
    return out


def other_prime(rng, p):
    return rng.choice([ell for ell in PRIMES if ell != p])


def same(name, got, want):
    return [] if got == want else [f"{name}: got {got!r}, expected {want!r}"]


def factor_check(degrees, want):
    got = {j: O.trim(poly) for j, poly in degrees.items()}
    return same("zeta factors", got, {j: O.trim(P) for j, P in want.items()})


def hodge_strings(hodge):
    return {str(n): {str(i): h for i, h in sorted(hs.items())}
            for n, hs in sorted(hodge.items())}


class Expected:
    """What the oracles expect of one variety (twisted by `twist`, if
    given) at t = q^{-r}."""

    def __init__(self, var, p, a, r, ell, twist=None):
        facs = O.factors(var, p, a)
        hodge = O.hodge_numbers(var, a)
        if twist is not None:
            facs = {j: O.twist_factor(P, twist, a) for j, P in facs.items()}
            if hodge is not None:
                hodge = _twist_hodge(hodge, twist, p)
        self.factors = facs
        self.rho, self.lead = O.special_value(facs, p ** a, r)
        self.abs_p = O.abs_inverse(self.lead, p)
        self.abs_ell = O.abs_inverse(self.lead, ell)
        self.hodge = {} if hodge is None else hodge_strings(hodge)
        self.chi_hodge = None if hodge is None else O.chi_hodge(hodge, r)


def _twist_hodge(hodge, twist, p):
    """Convolve with the elementary divisors of an integer twist matrix
    (rank 1 or 2) over Z_p."""
    entries = [x for row in twist for x in row if x]
    d1 = min(O.vp(x, p) for x in entries)
    divisors = [d1] if len(twist) == 1 else [d1, O.vp(O.det(twist), p) - d1]
    out = {}
    for n, hs in hodge.items():
        dst = out.setdefault(n, {})
        for i, h in hs.items():
            for d in divisors:
                dst[i + d] = dst.get(i + d, 0) + h
    return out


def report_check(rep, exp, route_prime, p):
    errs = []
    errs += same("passed", rep["passed"], True)
    errs += same("rho", rep["rho_analytic"], exp.rho)
    errs += same("leading", rep["leading"], str(exp.lead))
    want = exp.abs_p if route_prime == p else exp.abs_ell
    errs += same("abs_inverse", rep["abs_inverse"], str(want))
    if route_prime == p:
        errs += same("hodge numbers",
                     rep["precision_audit"]["hodge_numbers"], exp.hodge)
        errs += same("chi_hodge", rep["chi_hodge"], exp.chi_hodge)
    return errs


# ---------------------------------------------------------------------------
# hodge-verify


ANCHOR = ("product", [("elliptic", (0, 0, 0, 1, 1))] * 3)   # E^3 over F_5

# The seed picks curve coefficients and the auxiliary prime; the shape,
# field and twist r of each item are fixed, so every seed costs about the
# same and the spread across seeds is timing noise, not input size.
# Nine of the 13 items (P1xE, P2xE, ExGm) cost about the same, so the
# median call of a run lies deep inside that group and item_p50_ms does
# not jump between two cost levels when a burst of noise slows a few calls.
HODGE_SHAPES = (("ExE'", 7), ("P1xE", 5), ("P2xE", 3), ("ExGm", 7))


def hodge_verify(rng, workdir):
    """Products over prime fields, each at r in {0, 1, dim}, plus the
    E x E x E anchor at r = 1: package, then both verifiers."""
    cases = []
    for shape, p in HODGE_SHAPES:
        e1 = ("elliptic", random_curve(rng, p, True))
        if shape == "ExE'":
            e2 = e1
            while e2 == e1:
                e2 = ("elliptic", random_curve(rng, p, False))
            var = ("product", [e1, e2])
        elif shape == "ExGm":
            var = ("product", [e1, ("torus",)])
        else:
            var = ("product", [("projective", int(shape[1])), e1])
        for r in sorted({0, 1, O.dimension(var)}):
            cases.append((f"{shape}/F{p}:r={r}", var, p, r))
    cases.append(("ExExE/F5:r=1", ANCHOR, 5, 1))
    return [[_verify_step(name, var, p, r, other_prime(rng, p))]
            for name, var, p, r in cases]


def _verify_step(name, var, p, r, ell):
    spec = to_spec(var, p, 1)
    memo = []

    def call(serial):
        pkg = fqzeta.package(spec, budget=BUDGET + serial)
        return (pkg, fqzeta.verify_padic(pkg, r),
                fqzeta.verify_elladic(pkg, r, ell))

    def check(out):
        if not memo:
            memo.append(Expected(var, p, 1, r, ell))
        exp = memo[0]
        pkg, rp, re = out
        errs = factor_check({j: d.poly for j, d in pkg.degrees.items()},
                            exp.factors)
        errs += report_check(rp.to_dict(), exp, p, p)
        errs += report_check(re.to_dict(), exp, ell, p)
        return errs

    return Step("verify:" + name, call, check)


# ---------------------------------------------------------------------------
# count-zeta

# (name, variety maker, p, a, truncation, budget).  Budgets are chosen so
# that the low degrees are enumerated and the rest extended; each sits at
# least 15 000 operations below the next enumeration threshold, far more
# than the per-call offsets a run adds (about 200 calls in 30 s).  The
# middle item by cost, E(a1=a3=0)/F3^2 at about 45 ms, has items well
# below and well above it, so item_p50_ms falls among its own calls.
ZETA_ITEMS = (
    ("E/F5^6", lambda rng: ("elliptic", (0, 0, 0, 1, 1)), 5, 6, 4, 10 ** 5),
    ("E(a1=a3=0)/F7^2", lambda rng: ("elliptic", random_curve(rng, 7, False)),
     7, 2, 6, 25000),
    ("E(a1=a3=0)/F3^2", lambda rng: ("elliptic", random_curve(rng, 3, False)),
     3, 2, 6, 5000),
    ("E(a1,a3!=0)/F2^2", lambda rng: ("elliptic", random_curve(rng, 2, True)),
     2, 2, 6, 25000),
    ("E(a1,a3!=0)/F5", lambda rng: ("elliptic", random_curve(rng, 5, True)),
     5, 1, 6, 25000),
    ("E(a1,a3!=0)/F3^2", lambda rng: ("elliptic", random_curve(rng, 3, True)),
     3, 2, 6, 40000),
    ("E(a1=a3=0)/F5^2", lambda rng: ("elliptic", random_curve(rng, 5, False)),
     5, 2, 6, 25000),
    ("Gm/F5", lambda rng: ("torus",), 5, 1, 8, 25000),
    ("P1/F7", lambda rng: ("projective", 1), 7, 1, 8, 25000),
    ("P2/F3^2", lambda rng: ("projective", 2), 3, 2, 6, 25000),
    ("ExExGm/F7", lambda rng: ("product", [("elliptic",
                                            random_curve(rng, 7, False))] * 2
                                           + [("torus",)]),
     7, 1, 6, 21000),
)


def count_zeta(rng, workdir):
    """What `fqzeta zeta` does, on curves, a torus, a projective space and
    a product with a repeated factor."""
    return [[_zeta_step(name, make(rng), p, a, truncation, budget)]
            for name, make, p, a, truncation, budget in ZETA_ITEMS]


def _zeta_step(name, var, p, a, truncation, budget):
    spec = to_spec(var, p, a)
    memo = []

    def call(serial):
        b = budget + serial
        counts = fqzeta.point_counts(spec, truncation, budget=b)
        closed = fqzeta.closed_points(counts)
        euler = fqzeta.euler_product_series(closed, truncation=truncation)
        pkg = fqzeta.package(spec, budget=b)
        series = fqzeta.rational_series(pkg.zeta(), truncation=truncation)
        return counts, closed, euler, series, pkg

    def check(out):
        if not memo:
            ns = O.counts(var, p, a, truncation)
            memo.append((ns, O.closed_points(ns),
                         O.zeta_series(ns, truncation), O.factors(var, p, a)))
        ns, closed_want, series_want, facs = memo[0]
        counts, closed, euler, series, pkg = out
        errs = same("point counts", list(counts), ns)
        errs += same("closed points", closed, closed_want)
        errs += same("euler product", euler, series_want)
        errs += same("rational series", series, series_want)
        errs += factor_check({j: d.poly for j, d in pkg.degrees.items()}, facs)
        return errs

    return Step(f"zeta:{name}:T={truncation}", call, check)


# ---------------------------------------------------------------------------
# cli-docs


def run_cli(argv):
    """In-process `fqzeta` call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_check(out, expected_type):
    """(failed expectations, parsed stdout or None) of a `run_cli` result."""
    code, text, err = out
    errs = same("exit code", code, 0)
    if not text.strip():
        return errs + [f"no output; stderr {err.strip()!r}"], None
    doc = json.loads(text)
    return errs + same("type", doc.get("type"), expected_type), doc


def cli_docs(rng, workdir):
    """CLI commands on sv/1 documents, mostly over W(F_{p^a}) with a > 1.

    As in hodge-verify, the seed picks coefficients (curves, twist
    entries, crystal and lattice digits, Gamma-modules), not sizes.
    """
    groups = []
    untwisted = (
        ("P1xGm", ("product", [("projective", 1), ("torus",)]), 3, 2, 1),
        ("P2", ("projective", 2), 5, 3, 2),
        ("P1xE", ("product", [("projective", 1),
                              ("elliptic", random_curve(rng, 5, False))]),
         5, 2, 1),
    )
    for tag, var, p, a, r in untwisted:
        groups.append(_package_chain(workdir, tag, var, p, a, r,
                                     other_prime(rng, p)))
    twisted = (
        ("Gm(x)[c]", ("torus",), 2, 3, 1,
         [[rng.choice((-1, 1)) * 2 * rng.choice((1, 3, 5))]]),
        ("P1xGmxGm(x)T", ("product", [("projective", 1), ("torus",),
                                      ("torus",)]), 3, 2, 1,
         rng.choice(([[1, 3], [3, 1]], [[1, 3], [-3, 1]], [[2, 3], [3, 1]]))),
    )
    for tag, var, p, a, r, twist in twisted:
        groups.append(_twisted_chain(workdir, tag, var, p, a, r,
                                     other_prime(rng, p), twist))
    for p, a, exps, shifts in ((2, 3, [0, 1], [0, 1]),
                               (3, 2, [0, 1, 2], [0, 1, 1]),
                               (5, 1, [0, 1, 2], [0, 0, 1]),
                               (7, 2, [0, 2], [0, 1])):
        groups.append(_crystal_chain(workdir, rng, p, a, exps, shifts))
    for prime, m, k in ((2, 1, 2), (3, 2, 2), (5, 1, 3)):
        groups.append(_zf_step(workdir, rng, prime, m, k))
    return groups


def _write(workdir, name, doc):
    path = os.path.join(workdir, re.sub(r"[^A-Za-z0-9]+", "_", name) + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _verify_steps(tag, pkg_path, var, p, a, r, ell, twist=None):
    memo = []

    def expected():
        if not memo:
            memo.append(Expected(var, p, a, r, ell, twist))
        return memo[0]

    steps = []
    for prime in (p, ell):
        argv = ["verify", "--package", pkg_path, "--r", str(r)]
        if prime != p:
            argv += ["--ell", str(prime)]

        def check(out, prime=prime):
            errs, doc = cli_check(out, "verification_report")
            if errs:
                return errs
            return report_check(doc, expected(), prime, p)

        steps.append(Step(f"cli-verify-{'p' if prime == p else 'l'}:"
                          f"{tag}/F{p}^{a}:r={r}",
                          lambda serial, argv=argv: run_cli(argv), check))
    return steps


def _package_chain(workdir, tag, var, p, a, r, ell):
    var_path = _write(workdir, tag, to_doc(var, p, a))
    pkg_path = _write(workdir, tag + "-package", {})

    def call(serial):
        return run_cli(["package", "--variety", var_path,
                        "--budget", str(BUDGET + serial)])

    def check(out):
        # The verify steps after this one read the package it wrote.
        with open(pkg_path, "w", encoding="utf-8") as fh:
            fh.write(out[1])
        errs, doc = cli_check(out, "package")
        if errs:
            return errs
        got = {e["j"]: [Fraction(c) for c in e["poly"]]
               for e in doc["degrees"]}
        return factor_check(got, O.factors(var, p, a))

    package = Step(f"cli-package:{tag}/F{p}^{a}", call, check)
    return [package] + _verify_steps(tag, pkg_path, var, p, a, r, ell)


def _twisted_chain(workdir, tag, var, p, a, r, ell, twist):
    pkg = fqzeta.package(to_spec(var, p, a), twist=twist)
    pkg_path = _write(workdir, tag + "-package",
                      serialize.encode_package(pkg))
    return _verify_steps(tag, pkg_path, var, p, a, r, ell, twist)


# -- random crystals ----------------------------------------------------------


PREC = 32


def _digits(n, p, count):
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


def _element(rng, p, a, val, unit):
    """JSON for p^val * u, u a random vector (a unit when `unit`)."""
    cap = p ** PREC
    coords = [rng.randrange(cap) for _ in range(a)]
    if unit and coords[0] % p == 0:
        coords[0] += rng.randrange(1, p)
    if not any(coords):
        return 0
    doc = {"val": val, "prec": PREC}
    if a == 1:
        doc["digits"] = _digits(coords[0], p, PREC)
    else:
        doc["coeffs"] = [_digits(c, p, PREC) for c in coords]
    return doc


def _scaled_unimodular(rng, p, a, n, exponents):
    """U * diag(p^{e_k}) with U a unit upper-triangular matrix whose rows
    and columns are then shuffled: U is invertible over Z_q, so the
    elementary divisors are exactly the e_k."""
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ti, tj = rows[i], cols[j]
            if ti <= tj:
                out[i][j] = _element(rng, p, a, exponents[j], ti == tj)
    return out


def _crystal_chain(workdir, rng, p, a, exps, shifts):
    """gauge, then slopes, on A = U diag(p^e) with lattice basis
    B = U' diag(p^f); e and f are shuffles of `exps` (entries in {0, 1, 2})
    and `shifts` (entries in {0, 1}).

    v_p(det) = sum e.  The elementary divisors of B^{-1} A sigma(B) lie in
    [min e - 1, max e + 1], a span of at most sum e + 2, which keeps the
    gauge scan inside its cap of |v_p(det)| + 3 steps (see CHANGES.md).
    """
    n = len(exps)
    exps = rng.sample(exps, n)
    shifts = rng.sample(shifts, n)
    doc = {"schema": "sv/1", "type": "virtual_crystal", "p": p, "a": a,
           "prec": PREC, "rank": n,
           "matrix": _scaled_unimodular(rng, p, a, n, exps),
           "lattice": _scaled_unimodular(rng, p, a, n, shifts)}
    det_val = sum(exps)
    name = f"F{p}^{a}:rank{n}:v(det)={det_val}"
    path = _write(workdir, "crystal-" + name, doc)
    hodge_seen = []

    def gauge_check(out):
        errs, doc = cli_check(out, "gauge_report")
        if errs:
            return errs
        h = {int(i): m for i, m in doc["hodge_numbers"].items()}
        hodge_seen[:] = [h]
        errs += same("sum h", sum(h.values()), n)
        errs += same("sum i*h", sum(i * m for i, m in h.items()), det_val)
        errs += same("det valuation", doc["det_valuation"], det_val)
        return errs

    def slopes_check(out):
        errs, doc = cli_check(out, "slope_profile")
        if errs:
            return errs
        prof = [(Fraction(s), m) for s, m in doc["profile"]]
        errs += same("sum of multiplicities", sum(m for _, m in prof), n)
        errs += same("sum of slopes", sum(s * m for s, m in prof), det_val)
        if hodge_seen:
            newton = O.polygon(prof)
            hodge = O.polygon(hodge_seen[0].items())
            errs += same("endpoints", newton[-1], hodge[-1])
            if not all(O.polygon_at(newton, x) >= O.polygon_at(hodge, x)
                       for x in range(n + 1)):
                errs.append("Newton polygon dips below the Hodge polygon")
        return errs

    return [Step(f"cli-gauge:{name}",
                 lambda serial: run_cli(["gauge", "--input", path]),
                 gauge_check),
            Step(f"cli-slopes:{name}",
                 lambda serial: run_cli(["slopes", "--input", path]),
                 slopes_check)]


# -- random Gamma-modules -----------------------------------------------------


def _unimodular(rng, n):
    """(P, P^{-1}) for a product of random elementary integer matrices."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):           # P <- P * (1 + c e_ij)
            P[k][j] += c * P[k][i]
        for k in range(n):           # Pinv <- (1 - c e_ij) * Pinv
            Pinv[i][k] -= c * Pinv[j][k]
    return P, Pinv


def _zf_step(workdir, rng, prime, m, k):
    """z(f) of gamma = P (I_m + C) P^{-1}, P unimodular, C a random k x k
    integer matrix with det C a unit and prime | det(1 - C)."""
    while True:
        C = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(k)]
        one_minus_c = [[int(i == j) - C[i][j] for j in range(k)]
                       for i in range(k)]
        d = O.det(one_minus_c)
        if d != 0 and O.det(C) % prime != 0 and O.vp(d, prime) > 0:
            break
    n = m + k
    block = [[int(i == j) if i < m or j < m else C[i - m][j - m]
              for j in range(n)] for i in range(n)]
    P, Pinv = _unimodular(rng, n)
    gamma = [[int(x) for x in row] for row in O.matmul(O.matmul(P, block), Pinv)]
    doc = {"schema": "sv/1", "type": "gamma_module",
           "ring": rng.choice(("Zp", "Zl")), "prime": prime, "rank": n,
           "gamma": gamma, "torsion": []}
    name = f"rank{n}/Z{prime}:m={m}"
    path = _write(workdir, "gamma-" + name, doc)
    v = O.vp(d, prime)
    want = Fraction(1, prime ** v)

    def check(out):
        errs, doc = cli_check(out, "zf_report")
        if errs:
            return errs
        errs += same("z (Smith route)", Fraction(str(doc["z_snf"])), want)
        errs += same("z (poly route)", Fraction(str(doc["z_poly"])), want)
        errs += same("routes agree", doc["routes_agree"], True)
        errs += same("invariant rank", doc["invariants"]["free_rank"], m)
        errs += same("coinvariant rank", doc["coinvariants"]["free_rank"], m)
        errs += same("coinvariant torsion",
                     sum(doc["coinvariants"]["torsion"]), v)
        return errs

    return [Step(f"cli-zf:{name}",
                 lambda serial: run_cli(["zf", "--gamma", path]), check)]


WORKLOADS = {
    "hodge-verify": hodge_verify,
    "count-zeta": count_zeta,
    "cli-docs": cli_docs,
}
