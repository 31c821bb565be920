"""Same packages: `encode_package` output compared byte for byte.

Each file named in CASES under `tests/golden/` is `dump_json` of one
package document (or a list of them), recorded from the library while a
coefficient twist, the Tate twist, the cone boundary and a point set were
still built by their own helpers, before all of them became Tate pieces,
Künneth products and direct sums.  The packages are built at a precision
below the default, so a crystal built in another context shows.  A change
that alters a factor, a weight, a unipotent exponent, a semisimplicity tag
or a crystal entry fails here.

The files were re-recorded when p-adic entries became one integer per
coordinate; two of them are kept as written before, with digit lists
(`<name>_digits.json`), and must decode to the package of their new
bytes.
"""

import json

from fractions import Fraction
from pathlib import Path

import pytest

from fqzeta.geometry import VarietySpec, package
from fqzeta.serialize import decode_package, dump_json, encode_package

GOLDEN = Path(__file__).parent / "golden"

E5 = VarietySpec.elliptic([0, 0, 0, 1, 1], 5)
TATE_R = (-1, 0, 1, 2)
PREC = 12


def _with_unipotent(pkg, j, u):
    pkg.degrees[j] = pkg.degrees[j]._replace(u=u)
    return pkg


def _tate_twists(pkg):
    return [encode_package(pkg.tate_twist(r)) for r in TATE_R]


CASES = {
    # rank-1 coefficient twist of G_m over F_{2^3}
    "package_gm_f8_twist": lambda: encode_package(package(
        VarietySpec.torus(2, 3), twist=[[Fraction(3, 2)]], prec=PREC)),
    # rank-2 coefficient twist of P^1 x G_m x G_m over F_{3^2}
    "package_p1gmgm_f9_twist": lambda: encode_package(package(
        VarietySpec.product([VarietySpec.projective(1, 3, 2),
                             VarietySpec.torus(3, 2),
                             VarietySpec.torus(3, 2)]),
        twist=[[1, Fraction(1, 3)], [3, 2]], prec=PREC)),
    # the cone boundary (1 - t)^2 merged into degree 1
    "package_p1_minus_3": lambda: encode_package(package(
        VarietySpec.complement(VarietySpec.projective(1, 5),
                               VarietySpec.points(3, 5)), prec=PREC)),
    "package_points3": lambda: encode_package(package(
        VarietySpec.points(3, 7), prec=PREC)),
    # E x G_m over F_5 with u = 2 declared in degree 1, at r = -1, 0, 1, 2
    "package_tate_twists_exgm": lambda: _tate_twists(_with_unipotent(
        package(VarietySpec.product([E5, VarietySpec.torus(5)]), prec=PREC),
        1, 2)),
    # E over F_25: degree 1 carries no crystal
    "package_tate_twists_e_f25": lambda: _tate_twists(package(
        VarietySpec.elliptic([0, 0, 0, 1, 1], 5, 2), prec=PREC)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_package_matches_recorded_bytes(name):
    got = dump_json(CASES[name]()).encode("utf-8")
    assert got == (GOLDEN / f"{name}.out").read_bytes()


def _decoded(text):
    """Every field the verifier reads, of each package in a document."""
    docs = json.loads(text)
    out = []
    for doc in docs if isinstance(docs, list) else [docs]:
        pkg = decode_package(doc)
        for j, d in sorted(pkg.degrees.items()):
            entries = None if d.crystal is None else [
                (x.kind, x.val, x.coeffs, x.rel, x.abs)
                for row in d.crystal.matrix for x in row]
            out.append((j, d.poly, d.weight, d.u, d.semisimple, entries))
    return out


@pytest.mark.parametrize("name", ["package_p1gmgm_f9_twist",
                                  "package_tate_twists_exgm"])
def test_digit_list_documents_decode_to_the_recorded_packages(name):
    old = (GOLDEN / f"{name}_digits.json").read_text(encoding="utf-8")
    new = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert '"digits"' in old or '"coeffs"' in old
    assert '"coords"' in new and '"digits"' not in new
    assert _decoded(old) == _decoded(new)
