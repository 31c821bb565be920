"""JSON encoding/decoding for every object the CLI reads or writes.

All payloads are versioned with {"schema": "sv/1"} and dispatch on a "type"
field (varieties may omit it — a bare {"kind": ...} record parses too, as in
the documented examples).  A p-adic scalar carries one int per coordinate
and its precision, so every report is self-describing, and an exact zero
is the int 0; base-p digit lists, low first, are still read.  Exact
rationals travel as ints or "num/den" strings, and every integer field is
read by `_int`, which refuses floats and booleans.  Every list field is
read by `_list`, which refuses strings (Python would iterate them
character by character), and every flag by `_flag`, which accepts only
JSON booleans.  Encoding is deterministic: one call site, `dump_json`,
writes every document in one pass and fixes key order and separators.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import DegenerateCrystal, ValidationError
from .gammamodules import GammaModule, TorsionComponent
from .geometry import MAX_RANK, CohomologyPackage, PackageDegree, VarietySpec
from .isocrystals import Isocrystal, lower_hull, polygon_value
from .padics import (DEFAULT_PRECISION, MAX_PRECISION, QqElement,
                     check_field, context, from_digits, rational_valuation)
from .plinalg import mat_inverse, mat_mul, mat_sigma

SCHEMA = "sv/1"


def dump_json(obj):
    """`json.dumps(obj, sort_keys=True, indent=2) + "\n"` in one pass, where
    indent=2 runs the pure-Python encoder: keys become str, sorted, and a
    Fraction is written by `encode_rational`, a tuple as a list, any other
    object as its str.  Ints go through `int.__repr__`, which raises
    ValueError above the int-to-str limit; strings through the C escaper."""
    return _text(obj, "\n") + "\n"


def _text(x, nl):
    if isinstance(x, str):
        return _quote(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, Fraction):
        return _text(encode_rational(x), nl)
    if not isinstance(x, (dict, list, tuple)):
        return _quote(str(x))
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = nl + "  "
    if isinstance(x, dict):
        keys = {str(k): k for k in x}   # the last of equal str(k) wins
        return "{" + inner + ("," + inner).join(
            [f"{_quote(s)}: {_text(x[keys[s]], inner)}"
             for s in sorted(keys)]) + nl + "}"
    return "[" + inner + ("," + inner).join(
        [_text(v, inner) for v in x]) + nl + "]"


_quote = json.encoder.encode_basestring_ascii


def _require(data, key, what):
    if key not in data:
        raise ValidationError(f"{what} record is missing {key!r}")
    return data[key]


# ---------------------------------------------------------------------------
# rationals


def encode_rational(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decode_rational(data):
    if isinstance(data, bool) or isinstance(data, float):
        raise ValidationError(f"expected an exact rational, got {data!r}")
    if isinstance(data, int):
        return data
    if isinstance(data, str):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {data!r}") from exc
    raise ValidationError(f"expected an exact rational, got {data!r}")


def _int(data, what):
    """An integer field: a JSON int, or a rational literal that is integral.

    Floats and booleans are refused (ValidationError, exit 2), so
    {"n": 1.7} is not read as n = 1.
    """
    if type(data) is int:
        return data
    try:
        x = decode_rational(data)
    except ValidationError:
        x = None
    if x is None or x.denominator != 1:
        raise ValidationError(f"{what} must be an integer, got {data!r}")
    return int(x)


def _list(data, what):
    """A list field: a JSON array, returned as it is.

    Anything else is refused (ValidationError, exit 2), strings included,
    so {"coeffs": "00011"} is not read as [0, 0, 0, 1, 1].
    """
    if not isinstance(data, list):
        raise ValidationError(
            f"{what} must be a list, got {type(data).__name__}")
    return data


def _flag(data, key, what):
    """A boolean field, False when absent: a JSON true or false only, so
    the string "false" is not read as true."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# p-adic scalars


def encode_padic(x: QqElement):
    if x.kind == "z":
        return 0
    if x.kind == "i":
        return {"ifz": True, "abs_prec": x.abs}
    return {"val": x.val, "prec": x.rel, "coords": list(x.coeffs)}


def decode_padic(data, ctx):
    """The element p^val * sum_i c_i x^i + O(p^(val + prec)).

    c_i is an int of "coords" in [0, p^prec), or is read from base-p digit
    lists, low first ("digits" if a = 1, else "coeffs"; digits past prec
    are ignored).  The c_i fix the element to absolute precision val + prec:
    divisible by p^w they keep prec - w relative digits (at most the
    context's), and all zero they are indistinguishable from zero below
    p^(val + prec).  A prec below 1 is refused.
    """
    if not isinstance(data, dict):
        # plain scalars are welcome anywhere an element is expected
        return ctx.from_fraction(decode_rational(data))
    if _flag(data, "zero", "element zero"):
        return ctx.zero()
    if _flag(data, "ifz", "element ifz"):
        return ctx.ifz(_int(_require(data, "abs_prec", "ifz element"),
                            "element abs_prec"))
    val = _int(_require(data, "val", "p-adic element"), "element val")
    if abs(val) > MAX_PRECISION:    # p^val would be formed in arithmetic
        raise ValidationError(f"element val {val} beyond {MAX_PRECISION}")
    prec = _int(data.get("prec", ctx.prec), "element prec")
    if prec < 1:
        raise ValidationError(f"element precision must be >= 1, got {prec}")
    p = ctx.p
    if "coords" in data:
        coeffs = [_int(c, "element coordinate")
                  for c in _list(data["coords"], "element coords")]
        # p^prec >= 2^prec exceeds any c of at most prec bits
        if any(c < 0 or c.bit_length() > prec and c >= p ** prec
               for c in coeffs):
            raise ValidationError("element coordinate outside [0, p^prec)")
    else:
        vectors = ([data["digits"]] if "digits" in data else
                   _list(_require(data, "coeffs", "p-adic element"),
                         "element coeffs"))
        digit_lists = [[_int(d, "element digit")
                        for d in _list(vec, "element digits")[:prec]]
                       for vec in vectors]
        if any(not 0 <= d < p for ds in digit_lists for d in ds):
            raise ValidationError(f"element digit outside [0, {p})")
        coeffs = [from_digits(ds, p) for ds in digit_lists]
    if len(coeffs) != ctx.a:
        raise ValidationError(
            f"element has {len(coeffs)} coordinates, context needs {ctx.a}")
    if not any(coeffs):
        return ctx.ifz(val + prec)
    x = ctx.from_vector(coeffs, val, min(prec, ctx.prec))
    w = x.val - val             # the p^w that from_vector pulled out
    if w and prec - w < ctx.prec:
        x = ctx.from_vector(coeffs, val, prec - w)
    return x


def _decode_matrix(rows, ctx, what):
    if not _list(rows, what):
        raise ValidationError(f"{what} must be a non-empty matrix")
    return [[decode_padic(x, ctx) for x in _list(row, f"{what} row")]
            for row in rows]


def _encode_matrix(rows):
    return [[encode_padic(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# crystals


def _context_of(data, prec=None):
    p = _int(_require(data, "p", "crystal"), "crystal p")
    a = _int(data.get("a", 1), "crystal a")
    if prec is None:
        prec = _int(data.get("prec", DEFAULT_PRECISION), "crystal prec")
    return context(p, a, prec)


def encode_isocrystal(E: Isocrystal):
    return {"schema": SCHEMA, "type": "isocrystal", "p": E.ctx.p,
            "a": E.ctx.a, "prec": E.ctx.prec, "rank": E.rank,
            "matrix": _encode_matrix(E.matrix)}


def decode_isocrystal(data, prec=None):
    ctx = _context_of(data, prec)
    E = Isocrystal(ctx, _decode_matrix(_require(data, "matrix", "crystal"),
                                       ctx, "matrix"))
    if "rank" in data and _int(data["rank"], "crystal rank") != E.rank:
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
    prime = _int(_require(data, "prime", "gamma module"),
                 "gamma module prime")
    gamma = [[decode_rational(x) for x in _list(row, "gamma row")]
             for row in _list(_require(data, "gamma", "gamma module"),
                              "gamma")]
    torsion = [TorsionComponent(_int(t["e"], "torsion exponent"),
                                decode_rational(t["unit"]))
               for t in _list(data.get("torsion", []), "torsion")]
    kwargs = {} if prec is None else {"prec": prec}
    return GammaModule(ring, prime, gamma, torsion=torsion, **kwargs)


# ---------------------------------------------------------------------------
# varieties


def decode_variety(data):
    kind = _require(data, "kind", "variety")
    p = _int(_require(data, "p", "variety"), "variety p")
    a = _int(data.get("a", 1), "variety a")
    if kind == "projective":
        return VarietySpec.projective(
            _int(_require(data, "n", kind), "variety n"), p, a)
    if kind == "affine":
        return VarietySpec.affine(
            _int(_require(data, "n", kind), "variety n"), p, a)
    if kind == "torus":
        return VarietySpec.torus(p, a)
    if kind == "elliptic":
        return VarietySpec.elliptic(
            [_int(c, "curve coefficient")
             for c in _list(_require(data, "coeffs", kind), "curve coeffs")],
            p, a)
    if kind == "product":
        return VarietySpec.product(
            [decode_variety(f) for f in
             _list(_require(data, "factors", kind), "product factors")])
    if kind == "complement":
        return VarietySpec.complement(
            decode_variety(_require(data, "ambient", kind)),
            decode_variety(_require(data, "closed", kind)))
    if kind == "points":
        return VarietySpec.points(
            _int(_require(data, "count", kind), "point count"), p, a)
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
    """E if det(1 - t M) of the crystal E is the exact factor of degree j;
    ValidationError if a known digit of any coefficient differs; if one
    agrees to fewer than the guard digits beyond the factor's Newton polygon
    (its scale), a crystal of E's rank that raises PrecisionExhausted.
    """
    ctx = E.ctx
    hull = lower_hull([(k, rational_valuation(c, ctx.p))
                       for k, c in enumerate(poly) if c])
    diffs = [c - ctx.from_fraction(exact)
             for c, exact in zip(E.charpoly(), poly)]
    for k, d in enumerate(diffs):
        if not d.is_zeroish():
            raise ValidationError(
                f"degree-{j} crystal does not realise its factor: the "
                f"coefficients of t^{k} differ")
    for k, d in enumerate(diffs):
        if d.is_ifz() and d.abs < polygon_value(hull, k) + ctx.guard:
            # certify raises on d, which is indistinguishable from zero
            return Isocrystal(ctx, rank=E.rank, build=lambda: ctx.certify(
                d, f"that degree {j}'s crystal realises its factor at t^{k}"))
    return E


def decode_package(data, prec=None):
    """A CohomologyPackage, checked where its crystals enter the program.

    ValidationError (exit 2) for a degree given twice, a factor degree or
    crystal rank above MAX_RANK (before any entry is decoded), or a crystal
    whose det(1 - t M) differs from its factor (`_check_realises`, whose
    crystal raises PrecisionExhausted, exit 4, when read if it cannot tell):
    the p-adic verifier reads Hodge numbers off the crystals.
    """
    p = _int(_require(data, "p", "package"), "package p")
    a = _int(data.get("a", 1), "package a")
    check_field(p, a)           # before p ** a
    if "q" in data and _int(data["q"], "package q") != p ** a:
        raise ValidationError(f"q = {data['q']} does not equal p^a = {p**a}")
    dim = _int(data.get("dim", 0), "package dim")
    degrees = {}
    max_j = 0
    for entry in _list(_require(data, "degrees", "package"),
                       "package degrees"):
        j = _int(_require(entry, "j", "package degree"), "degree j")
        if j in degrees:
            raise ValidationError(f"degree {j} appears twice")
        max_j = max(max_j, j)
        poly = _list(_require(entry, "poly", "package degree"), "degree poly")
        crystal = entry.get("crystal")
        rows = ([] if crystal is None
                else _require(crystal, "matrix", "crystal"))
        if max(len(poly) - 1, len(rows)) > MAX_RANK:
            raise ValidationError(
                f"degree {j}: factor degree or crystal rank above {MAX_RANK}")
        degrees[j] = PackageDegree(
            poly=[decode_rational(c) for c in poly],
            weight=None if entry.get("weight") is None
            else _int(entry["weight"], "degree weight"),
            u=_int(entry.get("u", 0), "degree u"),
            semisimple=_flag(entry, "semisimple", "degree semisimple"),
            crystal=None if crystal is None
            else decode_virtual_crystal(crystal, prec))
    if "dim" not in data:
        dim = (max_j + 1) // 2
    pkg = CohomologyPackage(p, a, dim, degrees)
    for j, d in pkg.degrees.items():
        if d.crystal is not None:
            pkg.degrees[j] = d._replace(
                crystal=_check_realises(j, d.crystal, d.poly))
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
    if not isinstance(kind, str):
        raise ValidationError(
            f"record needs a string 'type' (or a 'kind'), got {kind!r}")
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
