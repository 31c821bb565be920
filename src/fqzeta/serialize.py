"""JSON encoding/decoding for every object the CLI reads or writes.

All payloads are versioned with {"schema": "sv/1"} and dispatch on a "type"
field (varieties may omit it — a bare {"kind": ...} record parses too, as in
the documented examples).  p-adic scalars carry their digits and precision
explicitly so every report is self-describing; exact rationals travel as
ints or "num/den" strings.  Encoding is deterministic: one call site,
`dump_json`, fixes key order and separators.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ValidationError
from .gammamodules import GammaModule, TorsionComponent
from .gauges import VirtualCrystal
from .geometry import CohomologyPackage, PackageDegree, VarietySpec
from .isocrystals import Isocrystal
from .padics import DEFAULT_PRECISION, QqContext, QqElement

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


def _int_digits(n, p, count):
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


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
        out["digits"] = _int_digits(x.coeffs[0], ctx.p, x.rel)
    else:
        out["coeffs"] = [_int_digits(c, ctx.p, x.rel) for c in x.coeffs]
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
    p = ctx.p
    if "digits" in data:
        vectors = [data["digits"]]
    else:
        vectors = _require(data, "coeffs", "p-adic element")
    if len(vectors) != ctx.a:
        raise ValidationError(
            f"element has {len(vectors)} coordinates, context needs {ctx.a}")
    ints = [sum(int(d) * p ** i for i, d in enumerate(vec[:rel]))
            for vec in vectors]
    return ctx.from_vector(ints, val, rel)


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
    return QqContext(p, a, prec=prec)


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


def encode_virtual_crystal(vc: VirtualCrystal):
    out = encode_isocrystal(vc.crystal)
    out["type"] = "virtual_crystal"
    out["lattice"] = _encode_matrix(vc.lattice_basis())
    return out


def decode_virtual_crystal(data, prec=None):
    ctx = _context_of(data, prec)
    crystal = Isocrystal(
        ctx, _decode_matrix(_require(data, "matrix", "crystal"), ctx,
                            "matrix"))
    lattice = (None if "lattice" not in data or data["lattice"] is None
               else _decode_matrix(data["lattice"], ctx, "lattice"))
    return VirtualCrystal(crystal, lattice)


# ---------------------------------------------------------------------------
# Gamma-modules


def encode_gamma_module(m: GammaModule):
    return {
        "schema": SCHEMA, "type": "gamma_module", "ring": m.ring,
        "prime": m.prime, "rank": len(m.gamma),
        "gamma": [[encode_rational(x) for x in row] for row in m.gamma],
        "torsion": [{"e": t.e, "unit": encode_rational(t.unit)}
                    for t in m.torsion],
    }


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


def encode_variety(spec: VarietySpec):
    out = {"schema": SCHEMA, "type": "variety", "kind": spec.kind,
           "p": spec.p, "a": spec.a}
    if spec.kind in ("projective", "affine"):
        out["n"] = spec.n
    elif spec.kind == "elliptic":
        out["coeffs"] = list(spec.coeffs)
    elif spec.kind == "product":
        out["factors"] = [encode_variety(f) for f in spec.factors]
    elif spec.kind == "complement":
        out["ambient"] = encode_variety(spec.ambient)
        out["closed"] = encode_variety(spec.closed)
    elif spec.kind == "points":
        out["count"] = spec.count
    return out


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


def decode_package(data, prec=None):
    p = int(_require(data, "p", "package"))
    a = int(data.get("a", 1))
    if "q" in data and int(data["q"]) != p ** a:
        raise ValidationError(f"q = {data['q']} does not equal p^a = {p**a}")
    dim = int(data.get("dim", 0))
    degrees = {}
    max_j = 0
    for entry in _require(data, "degrees", "package"):
        j = int(_require(entry, "j", "package degree"))
        max_j = max(max_j, j)
        crystal = entry.get("crystal")
        degrees[j] = PackageDegree(
            poly=[decode_rational(c) for c in _require(entry, "poly",
                                                       "package degree")],
            weight=None if entry.get("weight") is None
            else int(entry["weight"]),
            u=int(entry.get("u", 0)),
            semisimple=bool(entry.get("semisimple", False)),
            crystal=None if crystal is None
            else decode_virtual_crystal(crystal, prec))
    if "dim" not in data:
        dim = (max_j + 1) // 2
    return CohomologyPackage(p, a, dim, degrees)


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
