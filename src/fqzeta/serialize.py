"""JSON encoding/decoding for every object the CLI reads or writes.

All payloads are versioned with {"schema": "sv/1"} and dispatch on a "type"
field (varieties may omit it — a bare {"kind": ...} record parses too, as in
the documented examples).  p-adic scalars carry their base-p digits, low
first (`padics.digits`, the one codec), and precision explicitly so every
report is self-describing; exact rationals travel as ints or "num/den"
strings.  Encoding is deterministic: one call site, `dump_json`, fixes key
order and separators.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DegenerateCrystal, PrecisionExhausted, ValidationError
from .gammamodules import GammaModule, TorsionComponent
from .geometry import MAX_RANK, CohomologyPackage, PackageDegree, VarietySpec
from .isocrystals import Isocrystal, lower_hull, polygon_value
from .padics import (DEFAULT_PRECISION, QqElement, check_field, context,
                     digits, from_digits, rational_valuation)
from .plinalg import mat_inverse, mat_mul, mat_sigma

SCHEMA = "sv/1"


def dump_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(data, key, what):
    if key not in data:
        raise ValidationError(f"{what} record is missing {key!r}")
    return data[key]


# ---------------------------------------------------------------------------
# rationals


def encode_rational(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decode_rational(data):
    if isinstance(data, bool) or isinstance(data, float):
        raise ValidationError(f"expected an exact rational, got {data!r}")
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, str):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {data!r}") from exc
    raise ValidationError(f"expected an exact rational, got {data!r}")


# ---------------------------------------------------------------------------
# p-adic scalars


def encode_padic(x: QqElement):
    ctx = x.ctx
    out = {"p": ctx.p}
    if ctx.a != 1:
        out["a"] = ctx.a
    if x.kind == "z":
        out["zero"] = True
        return out
    if x.kind == "i":
        out["ifz"] = True
        out["abs_prec"] = x.abs
        return out
    out["val"] = x.val
    out["prec"] = x.rel
    if ctx.a == 1:
        out["digits"] = digits(x.coeffs[0], ctx.p, x.rel)
    else:
        out["coeffs"] = [digits(c, ctx.p, x.rel) for c in x.coeffs]
    return out


def decode_padic(data, ctx):
    if not isinstance(data, dict):
        # plain scalars are welcome anywhere an element is expected
        return ctx.from_fraction(decode_rational(data))
    if data.get("zero"):
        return ctx.zero()
    if data.get("ifz"):
        return ctx.ifz(int(_require(data, "abs_prec", "ifz element")))
    val = int(_require(data, "val", "p-adic element"))
    rel = min(int(data.get("prec", ctx.prec)), ctx.prec)
    if "digits" in data:
        vectors = [data["digits"]]
    else:
        vectors = _require(data, "coeffs", "p-adic element")
    if len(vectors) != ctx.a:
        raise ValidationError(
            f"element has {len(vectors)} coordinates, context needs {ctx.a}")
    return ctx.from_vector([from_digits([int(d) for d in vec[:rel]], ctx.p)
                            for vec in vectors], val, rel)


def _decode_matrix(rows, ctx, what):
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{what} must be a non-empty matrix")
    return [[decode_padic(x, ctx) for x in row] for row in rows]


def _encode_matrix(rows):
    return [[encode_padic(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# crystals


def _context_of(data, prec=None):
    p = int(_require(data, "p", "crystal"))
    a = int(data.get("a", 1))
    if prec is None:
        prec = int(data.get("prec", DEFAULT_PRECISION))
    return context(p, a, prec)


def encode_isocrystal(E: Isocrystal):
    return {"schema": SCHEMA, "type": "isocrystal", "p": E.ctx.p,
            "a": E.ctx.a, "prec": E.ctx.prec, "rank": E.rank,
            "matrix": _encode_matrix(E.matrix)}


def decode_isocrystal(data, prec=None):
    ctx = _context_of(data, prec)
    E = Isocrystal(ctx, _decode_matrix(_require(data, "matrix", "crystal"),
                                       ctx, "matrix"))
    if "rank" in data and int(data["rank"]) != E.rank:
        raise ValidationError(
            f"declared rank {data['rank']} but matrix has rank {E.rank}")
    return E


def encode_virtual_crystal(E: Isocrystal):
    return {**encode_isocrystal(E), "type": "virtual_crystal"}


def decode_virtual_crystal(data, prec=None):
    """The Isocrystal of a virtual-crystal document, on the standard lattice.

    A `lattice` key gives a basis B of a lattice N (columns), and Frobenius
    seen from N is Atilde = B^{-1} A sigma(B): the change of basis is made
    here, once, and the Isocrystal returned has matrix Atilde, so N becomes
    Z_q^n.  Without a lattice it is the document's crystal as it stands.  No
    lattice is kept, so none is written back.  A basis that is not
    rank x rank raises ValidationError, a singular one DegenerateCrystal
    (both exit 2).
    """
    crystal, lattice = decode_isocrystal(data, prec), data.get("lattice")
    if lattice is None:
        return crystal
    B = _decode_matrix(lattice, crystal.ctx, "lattice")
    if len(B) != crystal.rank or any(len(row) != crystal.rank for row in B):
        raise ValidationError("lattice basis must be rank x rank")
    try:
        Binv = mat_inverse(B)
    except ValidationError as exc:
        raise DegenerateCrystal(f"lattice basis singular: {exc}") from exc
    At = mat_mul(Binv, mat_mul(crystal.matrix, mat_sigma(B)))
    return Isocrystal(crystal.ctx, At)


# ---------------------------------------------------------------------------
# Gamma-modules


def decode_gamma_module(data, prec=None):
    ring = _require(data, "ring", "gamma module")
    prime = int(_require(data, "prime", "gamma module"))
    gamma = [[decode_rational(x) for x in row]
             for row in _require(data, "gamma", "gamma module")]
    torsion = [TorsionComponent(int(t["e"]), decode_rational(t["unit"]))
               for t in data.get("torsion", [])]
    kwargs = {} if prec is None else {"prec": prec}
    return GammaModule(ring, prime, gamma, torsion=torsion, **kwargs)


# ---------------------------------------------------------------------------
# varieties


def decode_variety(data):
    kind = _require(data, "kind", "variety")
    p = int(_require(data, "p", "variety"))
    a = int(data.get("a", 1))
    if kind == "projective":
        return VarietySpec.projective(int(_require(data, "n", kind)), p, a)
    if kind == "affine":
        return VarietySpec.affine(int(_require(data, "n", kind)), p, a)
    if kind == "torus":
        return VarietySpec.torus(p, a)
    if kind == "elliptic":
        return VarietySpec.elliptic(_require(data, "coeffs", kind), p, a)
    if kind == "product":
        return VarietySpec.product(
            [decode_variety(f) for f in _require(data, "factors", kind)])
    if kind == "complement":
        return VarietySpec.complement(
            decode_variety(_require(data, "ambient", kind)),
            decode_variety(_require(data, "closed", kind)))
    if kind == "points":
        return VarietySpec.points(int(_require(data, "count", kind)), p, a)
    raise ValidationError(f"unknown variety kind {kind!r}")


# ---------------------------------------------------------------------------
# cohomology packages


def encode_package(pkg: CohomologyPackage):
    degrees = []
    for j, d in sorted(pkg.degrees.items()):
        entry = {
            "j": j,
            "poly": [encode_rational(c) for c in d.poly],
            "weight": d.weight,
            "u": d.u,
            "semisimple": d.semisimple,
            "crystal": (None if d.crystal is None
                        else encode_virtual_crystal(d.crystal)),
        }
        degrees.append(entry)
    return {"schema": SCHEMA, "type": "package", "p": pkg.p, "a": pkg.a,
            "q": pkg.q, "dim": pkg.dim, "degrees": degrees}


def _check_realises(j, E, poly):
    """det(1 - t M) of the crystal E against the exact factor of degree j.

    ValidationError when a known digit differs; PrecisionExhausted when a
    coefficient agrees to fewer than the guard digits beyond the Newton
    polygon of the factor, the scale of that coefficient.
    """
    ctx = E.ctx
    hull = lower_hull([(k, rational_valuation(c, ctx.p))
                       for k, c in enumerate(poly) if c])
    for k, (c, exact) in enumerate(zip(E.charpoly(), poly)):
        d = c - ctx.from_fraction(exact)
        if not d.is_zeroish():
            raise ValidationError(
                f"degree-{j} crystal does not realise its factor: the "
                f"coefficients of t^{k} differ")
        if d.is_ifz() and d.abs < polygon_value(hull, k) + ctx.guard:
            raise PrecisionExhausted(
                f"degree-{j} crystal matches its factor at t^{k} only to "
                f"O(p^{d.abs})")


def decode_package(data, prec=None):
    """A CohomologyPackage, checked where its crystals enter the program.

    ValidationError (exit 2) for a degree given twice, a factor degree or
    crystal rank above MAX_RANK (before any entry is decoded), or a crystal
    whose det(1 - t M) differs from its factor (`_check_realises`, which
    raises PrecisionExhausted, exit 4, when it cannot tell): the verifier
    reads slopes off the factor and Hodge numbers off the crystal.
    """
    p = int(_require(data, "p", "package"))
    a = int(data.get("a", 1))
    check_field(p, a)           # before p ** a
    if "q" in data and int(data["q"]) != p ** a:
        raise ValidationError(f"q = {data['q']} does not equal p^a = {p**a}")
    dim = int(data.get("dim", 0))
    degrees = {}
    max_j = 0
    for entry in _require(data, "degrees", "package"):
        j = int(_require(entry, "j", "package degree"))
        if j in degrees:
            raise ValidationError(f"degree {j} appears twice")
        max_j = max(max_j, j)
        poly = _require(entry, "poly", "package degree")
        crystal = entry.get("crystal")
        rows = ([] if crystal is None
                else _require(crystal, "matrix", "crystal"))
        if max(len(poly) - 1, len(rows)) > MAX_RANK:
            raise ValidationError(
                f"degree {j}: factor degree or crystal rank above {MAX_RANK}")
        degrees[j] = PackageDegree(
            poly=[decode_rational(c) for c in poly],
            weight=None if entry.get("weight") is None
            else int(entry["weight"]),
            u=int(entry.get("u", 0)),
            semisimple=bool(entry.get("semisimple", False)),
            crystal=None if crystal is None
            else decode_virtual_crystal(crystal, prec))
    if "dim" not in data:
        dim = (max_j + 1) // 2
    pkg = CohomologyPackage(p, a, dim, degrees)
    for j, d in pkg.degrees.items():
        if d.crystal is not None:
            _check_realises(j, d.crystal, d.poly)
    return pkg


# ---------------------------------------------------------------------------
# generic entry point


_DECODERS = {
    "variety": lambda data, prec: decode_variety(data),
    "isocrystal": decode_isocrystal,
    "virtual_crystal": decode_virtual_crystal,
    "gamma_module": decode_gamma_module,
    "package": decode_package,
}


def parse_json(text, expected=None, prec=None):
    """Parse a JSON document into the object its "type" field names.

    `expected` restricts which types are acceptable; `prec` overrides the
    stored precision when rebuilding p-adic contexts.  Records with a "kind"
    field and no "type" are varieties.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("expected a JSON object at top level")
    if "schema" in data and data["schema"] != SCHEMA:
        raise ValidationError(f"unsupported schema {data['schema']!r}")
    kind = data.get("type", "variety" if "kind" in data else None)
    if kind is None:
        raise ValidationError("record has neither 'type' nor 'kind'")
    if expected and kind not in expected:
        raise ValidationError(
            f"expected one of {sorted(expected)}, got {kind!r}")
    if kind not in _DECODERS:
        raise ValidationError(f"unknown record type {kind!r}")
    try:
        return _DECODERS[kind](data, prec)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(
            f"malformed {kind} record: {type(exc).__name__}: {exc}") from exc
