"""JSON encoding round-trips and rejection of malformed documents."""

from fractions import Fraction

import pytest

from fqzeta.errors import ValidationError
from fqzeta.gammamodules import GammaModule, TorsionComponent
from fqzeta.geometry import VarietySpec, corpus, package
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext, Zp, context
from fqzeta.serialize import (
    decode_padic,
    dump_json,
    encode_isocrystal,
    encode_package,
    encode_padic,
    encode_virtual_crystal,
    parse_json,
)
from fqzeta.specialvalues import verify_elladic, verify_padic


def test_padic_round_trip_prime_field():
    ctx = Zp(5, prec=20)
    x = ctx.from_fraction(Fraction(7, 3))
    assert decode_padic(encode_padic(x), ctx) == x
    neg = ctx.from_int(-9)
    assert decode_padic(encode_padic(neg), ctx) == neg


def test_padic_round_trip_extension_and_zero_kinds():
    ctx = QqContext(3, 2, prec=16)
    y = ctx.from_vector((5, 7), val=-2, rel=10)
    back = decode_padic(encode_padic(y), ctx)
    assert back == y and back.val == -2 and back.rel == 10
    assert decode_padic(encode_padic(ctx.zero()), ctx).is_exact_zero()
    fz = ctx.ifz(6)
    fz2 = decode_padic(encode_padic(fz), ctx)
    assert fz2.is_ifz() and fz2.abs == 6


def test_isocrystal_round_trip():
    ctx = Zp(5, prec=20)
    E = Isocrystal.from_ints(ctx, [[0, -5], [1, -3]])
    E2 = parse_json(dump_json(encode_isocrystal(E)),
                    expected={"isocrystal"}, prec=20)
    assert E2.slopes() == E.slopes()
    assert E2.ctx.p == 5 and E2.ctx.prec == 20


def test_virtual_crystal_round_trip_with_lattice():
    """A lattice key is applied on read: the crystal on the lattice spanned
    by (1, 0) and (2, 5) decodes to B^{-1} A B, and is written back without
    a lattice."""
    ctx = Zp(5, prec=20)
    A = Isocrystal.from_ints(ctx, [[0, -5], [1, -3]])
    doc = {**encode_isocrystal(A), "type": "virtual_crystal",
           "lattice": [[1, 2], [0, 5]]}
    vc = parse_json(dump_json(doc), prec=20)
    # A B = [[0, -25], [1, -13]] and B^{-1} = [[1, -2/5], [0, 1/5]]
    At = [[ctx.from_fraction(Fraction(x, 5)) for x in row]
          for row in ([-2, -99], [1, -13])]
    assert all(x.same_value(y) for got, want in zip(vc.matrix, At)
               for x, y in zip(got, want))
    assert vc.slopes() == [(0, 1), (1, 1)]
    again = encode_virtual_crystal(vc)
    assert "lattice" not in again
    assert parse_json(dump_json(again)).matrix == vc.matrix


def test_gamma_module_round_trip():
    """A document with rational entries decodes to the module built here."""
    m = GammaModule("Zp", 5,
                    [[Fraction(1), Fraction(1, 3)], [Fraction(0), 6]],
                    torsion=(TorsionComponent(2, 3),))
    m2 = parse_json('{"schema": "sv/1", "type": "gamma_module", "ring": "Zp",'
                    ' "prime": 5, "rank": 2, "gamma": [[1, "1/3"], [0, 6]],'
                    ' "torsion": [{"e": 2, "unit": 3}]}',
                    expected={"gamma_module"})
    assert m2.ring == m.ring and m2.prime == m.prime
    assert m2.gamma == m.gamma and m2.torsion == m.torsion


def test_variety_bare_dict_accepted():
    spec = parse_json('{"kind":"elliptic","coeffs":[0,0,0,1,1],"p":5,"a":1}',
                      expected={"variety"})
    assert spec.kind == "elliptic" and spec.q == 5
    spec2 = parse_json('{"schema":"sv/1","type":"variety","kind":"elliptic",'
                       '"coeffs":[1,1],"p":5}', expected={"variety"})
    assert spec2 == spec                # [A, B] is short for [0,0,0,A,B]


def test_nested_variety_round_trip():
    """Nested documents decode to the corpus products and complements."""
    p1 = '{"kind": "projective", "n": 1, "p": 5}'
    back = parse_json(
        f'{{"kind": "product", "p": 5, "factors": [{p1}, {p1}]}}',
        expected={"variety"})
    assert back == corpus()["P1xP1"]
    assert [f.kind for f in back.factors] == ["projective", "projective"]
    back2 = parse_json(f'{{"kind": "complement", "p": 5, "ambient": {p1}, '
                       '"closed": {"kind": "points", "count": 1, "p": 5}}',
                       expected={"variety"})
    assert back2 == corpus()["A1"]
    assert back2.kind == "complement" and back2.closed.kind == "points"


def test_package_round_trip_preserves_zeta_and_crystals():
    pkg = package(corpus()["elliptic-F5-a5=-3"], budget=10 ** 5)
    text = dump_json(encode_package(pkg))
    pkg2 = parse_json(text, expected={"package"})
    assert pkg2.zeta() == pkg.zeta()
    assert pkg2.degrees[1].weight == 1
    assert pkg2.degrees[1].crystal.slopes() == \
        pkg.degrees[1].crystal.slopes()
    # precision override re-homes the crystals
    pkg3 = parse_json(text, expected={"package"}, prec=16)
    assert pkg3.degrees[1].crystal.ctx.prec == 16


def test_decoded_package_crystals_share_one_context():
    """Every crystal of a package document is decoded in the one context of
    its (p, a, prec), not in one built per degree."""
    E = corpus()["elliptic-F5-a5=-3"]
    pkg = package(VarietySpec.product([E, VarietySpec.projective(1, 5)]),
                  budget=10 ** 5)
    text = dump_json(encode_package(pkg))
    for prec, ctx in ((None, context(5, 1, 64)), (16, context(5, 1, 16))):
        decoded = parse_json(text, expected={"package"}, prec=prec)
        crystals = [d.crystal for d in decoded.degrees.values()
                    if d.crystal is not None]
        assert len(crystals) >= 3
        assert all(vc.ctx is ctx for vc in crystals)


def test_standard_lattice_is_not_written_and_old_documents_still_verify():
    """A package crystal on the standard lattice travels without a lattice
    key.  A document that carries the identity as an explicit lattice, as
    the encoder used to write it, verifies to the same report on both
    routes."""
    E = corpus()["elliptic-F5-a5=-3"]
    doc = encode_package(package(VarietySpec.product([E, E]), budget=10 ** 5))
    new = parse_json(dump_json(doc), expected={"package"})
    for entry in doc["degrees"]:
        crystal = entry["crystal"]
        assert "lattice" not in crystal
        n = crystal["rank"]
        crystal["lattice"] = [[int(i == j) for j in range(n)]
                              for i in range(n)]
    old = parse_json(dump_json(doc), expected={"package"})
    for r in range(4):
        assert verify_padic(old, r).to_dict() == verify_padic(new, r).to_dict()
        assert verify_elladic(old, r, 3).to_dict() == \
            verify_elladic(new, r, 3).to_dict()


def test_deterministic_output():
    pkg = package(corpus()["P1"], budget=10 ** 5)
    assert dump_json(encode_package(pkg)) == dump_json(encode_package(pkg))


def test_rejects_malformed_documents():
    for bad in (
        "not json",
        '{"schema": "sv/1"}',                       # no type, no kind
        '{"type": "padic", "p": 4, "val": 0, "digits": [1], "prec": 8}',
        '{"type": "nonsense"}',
        '{"kind": "nonsense"}',
        '{"type": "gamma_module", "ring": "Zp", "prime": 5,'
        ' "gamma": [[1, 2]]}',                      # non-square
    ):
        with pytest.raises(ValidationError):
            parse_json(bad)


def test_expected_type_mismatch():
    pkg = package(corpus()["P1"], budget=10 ** 5)
    text = dump_json(encode_package(pkg))
    with pytest.raises(ValidationError):
        parse_json(text, expected={"variety"})


def test_rationals_reject_floats():
    with pytest.raises(ValidationError):
        parse_json('{"type": "gamma_module", "ring": "Zp", "prime": 5,'
                   ' "gamma": [[1.5]]}')
