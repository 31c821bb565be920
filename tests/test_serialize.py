"""JSON encoding round-trips and rejection of malformed documents."""

import time
from fractions import Fraction

import pytest

from fqzeta.errors import ValidationError
from fqzeta.gammamodules import GammaModule, TorsionComponent
from fqzeta.geometry import VarietySpec, corpus, package
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext, Zp, context
from fqzeta.serialize import (
    _flag,
    _int,
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


def test_padic_digits_fix_the_element_to_val_plus_prec():
    """Leading zero digits are digits: [0]*5 + [1]*5 at prec 10 is
    781 * 5^5 + O(5^10), the element written with val 5 and prec 5, not
    + O(5^15).  An all-zero list is indistinguishable from zero below
    p^(val + prec); over W(F_9) the least valuation of the coordinates is
    pulled out."""
    ctx = Zp(5, prec=20)
    padded = decode_padic({"val": 0, "digits": [0] * 5 + [1] * 5,
                           "prec": 10}, ctx)
    shifted = decode_padic({"val": 5, "digits": [1] * 5, "prec": 5}, ctx)
    assert padded == shifted
    assert (padded.val, padded.rel, padded.coeffs) == (5, 5, (781,))
    zero = decode_padic({"val": 2, "digits": [0, 0, 0], "prec": 3}, ctx)
    assert zero.is_ifz() and zero.abs == 5
    ctx9 = QqContext(3, 2, prec=16)
    y = decode_padic({"val": 1, "coeffs": [[0, 0, 2, 1], [0, 1, 1, 1]],
                      "prec": 4}, ctx9)
    assert (y.val, y.rel, y.coeffs) == (2, 3, (15, 13))
    # a primitive list keeps min(prec, context precision) digits
    long = decode_padic({"val": 0, "digits": [1] * 30, "prec": 30}, ctx)
    assert (long.val, long.rel) == (0, 20)


def test_padic_entries_are_written_in_closed_form():
    """Zero is the int 0, an IFZ entry its absolute precision, and any
    other entry val, prec and one int per coordinate, with no p or a."""
    ctx = QqContext(3, 2, prec=16)
    y = ctx.from_vector((5, 7), val=-2, rel=10)
    assert encode_padic(y) == {"val": -2, "prec": 10, "coords": [5, 7]}
    assert encode_padic(ctx.zero()) == 0
    assert encode_padic(ctx.ifz(6)) == {"ifz": True, "abs_prec": 6}


def test_padic_coords_are_read_like_digit_lists():
    """The cases of the test above, written with coordinates; a prec far
    above the context's is read at once, and keeps the context's digits."""
    ctx = Zp(5, prec=20)
    padded = decode_padic({"val": 0, "coords": [781 * 5 ** 5], "prec": 10},
                          ctx)
    assert (padded.val, padded.rel, padded.coeffs) == (5, 5, (781,))
    zero = decode_padic({"val": 2, "coords": [0], "prec": 3}, ctx)
    assert zero.is_ifz() and zero.abs == 5
    y = decode_padic({"val": 1, "coords": [45, 39], "prec": 4},
                     QqContext(3, 2, prec=16))
    assert (y.val, y.rel, y.coeffs) == (2, 3, (15, 13))
    long = decode_padic({"val": 0, "coords": [(5 ** 30 - 1) // 4],
                         "prec": 30}, ctx)
    assert (long.val, long.rel) == (0, 20)
    for c, val in ((1, 0), (5 ** 40, 40)):
        t0 = time.monotonic()
        x = decode_padic({"val": 0, "coords": [c], "prec": 10 ** 12}, ctx)
        assert time.monotonic() - t0 < 1
        assert (x.val, x.rel, x.coeffs) == (val, 20, (1,))


@pytest.mark.parametrize("entry, match", [
    ({"digits": [1.7]}, "digit must be an integer"),
    ({"digits": [True, "3", 9]}, "digit must be an integer"),
    ({"digits": [1, -1]}, r"digit outside \[0, 5\)"),
    ({"coords": [1.0]}, "coordinate must be an integer"),
    ({"coords": [-1]}, r"coordinate outside \[0, p\^prec\)"),
    ({"coords": [25], "prec": 2}, r"coordinate outside \[0, p\^prec\)"),
    ({"coords": [10 ** 500], "prec": 10}, r"outside \[0, p\^prec\)"),
    ({"coords": [1], "val": -1025}, "val -1025 beyond 1024"),
    ({"coords": [1, 2]}, "element has 2 coordinates, context needs 1"),
])
def test_padic_digits_and_coords_out_of_range_are_refused(entry, match):
    with pytest.raises(ValidationError, match=match):
        decode_padic({"val": 0, **entry}, Zp(5))


@pytest.mark.parametrize("prec", [0, -3])
def test_padic_precision_below_one_is_refused(prec):
    with pytest.raises(ValidationError, match="precision must be >= 1"):
        decode_padic({"val": 0, "digits": [1], "prec": prec}, Zp(5))


@pytest.mark.parametrize("value", [1.7, 5.0, True, False, "3/2", "x", None,
                                   [1]])
def test_integer_fields_refuse_floats_booleans_and_fractions(value):
    with pytest.raises(ValidationError, match="n must be an integer"):
        _int(value, "variety n")


def test_integer_fields_accept_ints_and_integral_literals():
    assert [_int(x, "n") for x in (7, -4, "-4", "10/2")] == [7, -4, -4, 5]
    assert type(_int("10/2", "n")) is int



_P = '"type": "package", "p": 5'
_ISO = '"type": "isocrystal", "p": 5'
_GAMMA = '"type": "gamma_module", "ring": "Zp", "prime": 5'


@pytest.mark.parametrize("doc", [
    '{"kind": "elliptic", "coeffs": "00011", "p": 5}',
    '{"kind": "product", "p": 5, "factors": "xy"}',
    '{%s, "degrees": "01"}' % _P,
    '{%s, "degrees": [{"j": 0, "poly": "1"}]}' % _P,
    '{%s, "matrix": ["01", "53"]}' % _ISO,
    '{%s, "matrix": "1"}' % _ISO,
    '{%s, "matrix": [[{"val": 0, "digits": "11", "prec": 2}]]}' % _ISO,
    '{%s, "a": 2, "matrix": [[{"val": 0, "coeffs": ["1", "0"]}]]}' % _ISO,
    '{"type": "virtual_crystal", "p": 5, "matrix": [[1, 0], [0, 1]],'
    ' "lattice": ["10", "01"]}',
    '{%s, "gamma": ["2"]}' % _GAMMA,
    '{%s, "gamma": "2"}' % _GAMMA,
    '{%s, "gamma": [[2]], "torsion": "e"}' % _GAMMA,
])
def test_list_fields_refuse_strings(doc):
    """Every list field is a JSON array: a string is not read as the list
    of its characters."""
    with pytest.raises(ValidationError, match="must be a list"):
        parse_json(doc)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_flags_are_json_booleans(value):
    with pytest.raises(ValidationError, match="must be true or false"):
        _flag({"semisimple": value}, "semisimple", "degree semisimple")
    with pytest.raises(ValidationError, match="must be true or false"):
        decode_padic({"zero": value}, Zp(5))


def test_flags_accept_booleans_and_default_to_false():
    assert [_flag({"x": v}, "x", "x") for v in (True, False)] == [True, False]
    assert _flag({}, "x", "x") is False
