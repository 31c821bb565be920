"""Gauge windows, Hodge numbers, and the Newton-Hodge comparison."""

import json
import random
from fractions import Fraction

import pytest

from fqzeta.cli import main as cli_main
from fqzeta.errors import DegenerateCrystal, NotTypeI
from fqzeta.gauges import (
    VirtualCrystal,
    check_raynaud_relations,
    hodge,
    newton_polygon_vertices,
    slope_gauge_check,
)
from fqzeta.geometry import _crystal_tensor
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext, Zp
from fqzeta.plinalg import mat_equal, mat_identity
from fqzeta.polys import kron
from fqzeta.serialize import (decode_virtual_crystal, dump_json,
                              encode_virtual_crystal)


def _vc(ctx, rows, lattice=None):
    return VirtualCrystal.from_ints(ctx, rows, lattice=lattice)


def test_ordinary_elliptic_window():
    ctx = Zp(5, prec=32)
    vc = _vc(ctx, [[0, -5], [1, -3]])
    g = hodge(vc)
    assert g.hodge_numbers == {0: 1, 1: 1}
    assert g.det_val == 1
    report = slope_gauge_check(vc, g)
    assert report["on_or_above"] and report["equal_endpoints"]
    assert report["windows_match"]          # ordinary: profiles coincide


def test_supersingular_elliptic_window():
    ctx = Zp(5, prec=32)
    vc = _vc(ctx, [[0, -5], [1, 0]])
    g = hodge(vc)
    assert g.hodge_numbers == {0: 1, 1: 1}
    assert vc.crystal.slopes() == [(Fraction(1, 2), 2)]
    report = slope_gauge_check(vc, g)
    assert report["on_or_above"] and report["equal_endpoints"]
    # both slopes 1/2 fall in window [0,1), h^0 is only 1: advisory mismatch
    assert report["slope_window_counts"] == {0: 2}
    assert not report["windows_match"]


def test_unit_and_twisted_unit_windows():
    ctx = Zp(7, prec=24)
    assert hodge(_vc(ctx, [[1]])).hodge_numbers == {0: 1}
    assert hodge(_vc(ctx, [[7]])).hodge_numbers == {1: 1}
    assert hodge(_vc(ctx, [[49]])).hodge_numbers == {2: 1}


def test_window_of_diagonal_mixture():
    ctx = Zp(5, prec=32)
    g = hodge(_vc(ctx, [[1, 0, 0], [0, 5, 0], [0, 0, 25]]))
    assert g.hodge_numbers == {0: 1, 1: 1, 2: 1}
    assert g.i_min <= 0 and g.i_max >= 2


def test_hodge_polygon_vertices():
    ctx = Zp(5, prec=32)
    g = hodge(_vc(ctx, [[0, -5], [1, -3]]))
    assert g.hodge_polygon() == [(0, Fraction(0)), (1, Fraction(0)),
                                 (2, Fraction(1))]
    assert newton_polygon_vertices([(Fraction(1, 2), 2)]) == \
        [(0, Fraction(0)), (2, Fraction(1))]


def test_gauge_bookkeeping_random_crystals():
    """sum h^i = rank and sum i h^i = v_p(det F) on random integral samples;
    the Newton polygon lies on or above the Hodge polygon with the same
    endpoints."""
    rng = random.Random(1729)
    ctx = Zp(3, prec=32)
    produced = 0
    while produced < 40:
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) * 3 ** rng.randrange(2)
                 for _ in range(n)] for _ in range(n)]
        try:
            g = hodge(_vc(ctx, rows))
        except DegenerateCrystal:
            continue
        produced += 1
        assert sum(g.hodge_numbers.values()) == n
        assert sum(i * h for i, h in g.hodge_numbers.items()) == g.det_val
        report = slope_gauge_check(_vc(ctx, rows), g)
        assert report["on_or_above"]
        assert report["equal_endpoints"]


def test_gauge_in_extension_context():
    ctx = QqContext(3, 2, prec=24)
    vc = VirtualCrystal(Isocrystal(ctx, [
        [ctx.from_vector((1, 1)), ctx.from_int(3)],
        [ctx.from_int(0), ctx.from_int(3)]]))
    g = hodge(vc)
    assert sum(g.hodge_numbers.values()) == 2
    assert sum(i * h for i, h in g.hodge_numbers.items()) == g.det_val == 1


def test_tate_twist_shifts_the_window():
    ctx = Zp(5, prec=32)
    vc = _vc(ctx, [[0, -5], [1, -3]])
    g = hodge(vc)
    twisted_window = g.tate_twist(1)
    assert twisted_window.hodge_numbers == {-1: 1, 0: 1}
    # twisting the crystal first gives the same numbers and determinant
    direct = hodge(vc.tate_twist(1))
    assert direct.hodge_numbers == {-1: 1, 0: 1}
    assert twisted_window.det_val == direct.det_val == -1


def test_direct_sum_adds_hodge_numbers():
    ctx = Zp(5, prec=32)
    a = _vc(ctx, [[0, -5], [1, -3]])
    b = _vc(ctx, [[5]])
    g = hodge(a.direct_sum(b))
    assert g.hodge_numbers == {0: 1, 1: 2}


def test_lattice_rescaling_keeps_hodge_numbers():
    ctx = Zp(5, prec=32)
    plain = hodge(_vc(ctx, [[0, -5], [1, -3]]))
    scaled = hodge(_vc(ctx, [[0, -5], [1, -3]],
                       lattice=[[5, 0], [0, 5]]))
    assert plain.hodge_numbers == scaled.hodge_numbers


def test_nonstandard_lattice_bookkeeping():
    ctx = Zp(5, prec=32)
    vc = _vc(ctx, [[0, -5], [1, -3]], lattice=[[1, 0], [1, 5]])
    g = hodge(vc)
    assert sum(g.hodge_numbers.values()) == 2
    assert sum(i * h for i, h in g.hodge_numbers.items()) == g.det_val


def test_degenerate_crystal_rejected():
    ctx = Zp(5, prec=32)
    with pytest.raises(DegenerateCrystal):
        hodge(_vc(ctx, [[1, 1], [1, 1]]))


def test_wide_window_is_not_refused(tmp_path, capsys):
    """Hodge numbers spread wider than |v_p(det)| + 3 are valid input."""
    ctx = Zp(5, prec=32)
    one, zero = ctx.one(), ctx.zero()
    vc = VirtualCrystal(Isocrystal(ctx, [[one.shift(-2), zero],
                                         [zero, one.shift(3)]]))
    g = hodge(vc)
    assert g.hodge_numbers == {-2: 1, 3: 1}
    assert (g.i_min, g.i_max, g.det_val) == (-2, 3, 1)
    crystal = tmp_path / "wide.json"
    crystal.write_text(dump_json(encode_virtual_crystal(vc)))
    assert cli_main(["gauge", "--input", str(crystal)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hodge_numbers"] == {"-2": 1, "3": 1}
    assert doc["window"] == {"i_min": -2, "i_max": 3}


def test_raynaud_relations_on_type_one_models():
    ctx = Zp(5, prec=32)
    # supersingular formal group: slopes 1/2, V topologically nilpotent
    assert check_raynaud_relations(_vc(ctx, [[0, -5], [1, 0]]))
    assert check_raynaud_relations(_vc(ctx, [[3]]))
    # slope-1 parts put V's growth at zero: not a Type I model
    with pytest.raises(NotTypeI):
        check_raynaud_relations(_vc(ctx, [[5]]))
    with pytest.raises(NotTypeI):
        check_raynaud_relations(_vc(ctx, [[0, -5], [1, -3]]))


def test_raynaud_relations_in_extension_context():
    ctx = QqContext(3, 2, prec=24)
    vc = VirtualCrystal(Isocrystal(ctx, [[ctx.from_vector((1, 1))]]))
    assert check_raynaud_relations(vc)


# ---------------------------------------------------------------------------
# the standard lattice: lattice None against an explicit identity basis


def _random_matrix(rng, ctx, n, vals):
    return [[ctx.from_vector([rng.randrange(ctx.p ** 2) for _ in range(ctx.a)],
                             rng.choice(vals)) for _ in range(n)]
            for _ in range(n)]


def _block_diag(ctx, A, B):
    n, m = len(A), len(B)
    return [[A[i][j] if i < n and j < n else
             B[i - n][j - n] if i >= n and j >= n else ctx.zero()
             for j in range(n + m)] for i in range(n + m)]


def _gauge_or_degenerate(vc):
    try:
        g = hodge(vc)
    except DegenerateCrystal:
        return None
    return (g.hodge_numbers, g._exponents, g.i_min, g.i_max, g.det_val,
            [g.lattice_at(i) for i in range(g.i_min - 1, g.i_max + 2)])


def _standard_and_identity(rng, ctx):
    """The same random crystal twice: lattice None, and the identity basis."""
    n = rng.randrange(1, 4)
    crystal = Isocrystal(ctx, _random_matrix(rng, ctx, n, (-1, 0, 1, 2)))
    return (VirtualCrystal(crystal),
            VirtualCrystal(crystal, mat_identity(ctx, n)))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_standard_lattice_equals_identity_basis(p):
    """hodge gives the same gauge, exponents and lattices M^i for lattice None
    as for an explicit identity basis; direct sums and tensor products that
    mix the two agree with the all-explicit result; and the JSON form of a
    standard-lattice crystal has no lattice key, while an explicit identity
    still travels and decodes."""
    rng = random.Random(4200 + p)
    for a in (1, 2, 3):
        ctx = QqContext(p, a, prec=32)
        for _ in range(4):
            std, ident = _standard_and_identity(rng, ctx)
            assert std.lattice is None
            assert std.in_lattice_coordinates() == \
                ident.in_lattice_coordinates() == std.crystal.matrix
            assert _gauge_or_degenerate(std) == _gauge_or_degenerate(ident)

            other_std, other_ident = _standard_and_identity(rng, ctx)
            explicit = VirtualCrystal(
                other_std.crystal,
                _random_matrix(rng, ctx, other_std.rank, (0, 0, 1)))
            for combine in (VirtualCrystal.direct_sum, _crystal_tensor):
                both_std = combine(std, other_std)
                assert both_std.lattice is None
                assert _gauge_or_degenerate(both_std) == \
                    _gauge_or_degenerate(combine(ident, other_ident))
                for left, right in ((std, explicit), (explicit, std)):
                    mixed = combine(left, right)
                    full = combine(ident if left is std else left,
                                   ident if right is std else right)
                    assert mixed.lattice == full.lattice
                    try:
                        expected = full.in_lattice_coordinates()
                    except DegenerateCrystal:   # singular random basis
                        with pytest.raises(DegenerateCrystal):
                            mixed.in_lattice_coordinates()
                        continue
                    assert mixed.in_lattice_coordinates() == expected
                    # (B1 (+) B2)^-1 (A1 (+) A2) sigma(B1 (+) B2) is the
                    # sum of the factors' matrices, and likewise for (x)
                    A1 = left.in_lattice_coordinates()
                    A2 = right.in_lattice_coordinates()
                    assert mat_equal(expected, _block_diag(ctx, A1, A2)
                                     if combine is VirtualCrystal.direct_sum
                                     else kron(A1, A2))
                    assert _gauge_or_degenerate(mixed) == \
                        _gauge_or_degenerate(full)

            doc = encode_virtual_crystal(std)
            assert "lattice" not in doc
            assert decode_virtual_crystal(doc).lattice is None
            old = encode_virtual_crystal(ident)
            assert old == {**doc, "lattice": old["lattice"]}
            back = decode_virtual_crystal(old)
            assert back.lattice == mat_identity(ctx, std.rank)
            assert back.crystal.matrix == std.crystal.matrix


def test_standard_lattice_coordinates_are_a_copy():
    ctx = Zp(5, prec=32)
    vc = _vc(ctx, [[0, -5], [1, -3]])
    At = vc.in_lattice_coordinates()
    At[0][0] = ctx.from_int(7)
    At[1] = []
    assert vc.crystal.matrix == VirtualCrystal.from_ints(
        ctx, [[0, -5], [1, -3]]).crystal.matrix
    assert hodge(vc).hodge_numbers == {0: 1, 1: 1}
