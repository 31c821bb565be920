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
from fqzeta.isocrystals import Isocrystal
from fqzeta.padics import QqContext, Zp
from fqzeta.plinalg import mat_shift
from fqzeta.serialize import dump_json, encode_virtual_crystal, parse_json


def _vc(ctx, rows):
    return VirtualCrystal.from_ints(ctx, rows)


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
    """Twisting the crystal by r (Frobenius times p^{-r}) shifts the gauge
    window down by r: M(r)^i = M^{i+r}, so h^i moves to h^{i-r} and
    v_p(det) drops by r*rank."""
    ctx = Zp(5, prec=32)
    vc = _vc(ctx, [[0, -5], [1, -3]])
    twisted = VirtualCrystal(Isocrystal(ctx, mat_shift(vc.crystal.matrix,
                                                       -1)))
    g, twisted = hodge(vc), hodge(twisted)
    assert g.hodge_numbers == {0: 1, 1: 1}
    assert twisted.hodge_numbers == {i - 1: h
                                     for i, h in g.hodge_numbers.items()}
    assert (twisted.i_min, twisted.i_max) == (g.i_min - 1, g.i_max - 1)
    assert twisted.det_val == g.det_val - vc.rank == -1


def test_direct_sum_adds_hodge_numbers():
    ctx = Zp(5, prec=32)
    a = _vc(ctx, [[0, -5], [1, -3]])
    b = _vc(ctx, [[5]])
    g = hodge(a.direct_sum(b))
    assert g.hodge_numbers == {0: 1, 1: 2}


def _crystal_on_lattice(rows, lattice):
    return parse_json(json.dumps({"type": "virtual_crystal", "p": 5,
                                  "prec": 32, "matrix": rows,
                                  "lattice": lattice}))


def test_lattice_rescaling_keeps_hodge_numbers():
    ctx = Zp(5, prec=32)
    plain = hodge(_vc(ctx, [[0, -5], [1, -3]]))
    scaled = hodge(_crystal_on_lattice([[0, -5], [1, -3]], [[5, 0], [0, 5]]))
    assert plain.hodge_numbers == scaled.hodge_numbers


def test_nonstandard_lattice_bookkeeping():
    vc = _crystal_on_lattice([[0, -5], [1, -3]], [[1, 0], [1, 5]])
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
