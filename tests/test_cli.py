"""End-to-end CLI runs: exit codes, JSON payloads, round-trips."""

import json
import math
import time
from fractions import Fraction as Fr

import pytest

from fqzeta.cli import main
from fqzeta.errors import PrecisionExhausted, ValidationError
from fqzeta.geometry import (CohomologyPackage, PackageDegree, VarietySpec,
                             package)
from fqzeta.isocrystals import Isocrystal
from fqzeta.lfun import MAX_TRUNCATION
from fqzeta.padics import MAX_DEGREE, MAX_PRECISION, MAX_PRIME, Zp
from fqzeta.serialize import (
    MAX_RANK,
    dump_json,
    encode_package,
    encode_virtual_crystal,
    parse_json,
)
from fqzeta.specialvalues import MAX_TWIST

ELLIPTIC = '{"kind": "elliptic", "coeffs": [0, 0, 0, 1, 1], "p": 5, "a": 1}'

# a prime of 31 digits, far above padics.MAX_PRIME
BIG_PRIME = 10 ** 30 + 57

# P^5 over the largest field within the caps, F_{65521^16}
LARGEST = ('{"kind": "projective", "n": 5, "p": 65521, "a": %d}'
           % MAX_DEGREE)


@pytest.fixture
def elliptic_file(tmp_path):
    f = tmp_path / "elliptic.json"
    f.write_text(ELLIPTIC)
    return str(f)


@pytest.fixture
def crystal_file(tmp_path):
    ctx = Zp(5, prec=32)
    vc = Isocrystal.from_ints(ctx, [[0, -5], [1, -3]])
    f = tmp_path / "crystal.json"
    f.write_text(dump_json(encode_virtual_crystal(vc)))
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_slopes(capsys, crystal_file):
    code, doc = run(capsys, ["slopes", "--input", crystal_file])
    assert code == 0
    assert doc["profile"] == [[0, 1], [1, 1]]
    assert doc["rank"] == 2


def test_gauge(capsys, crystal_file):
    code, doc = run(capsys, ["gauge", "--input", crystal_file])
    assert code == 0
    assert doc["hodge_numbers"] == {"0": 1, "1": 1}
    assert doc["det_valuation"] == 1
    assert doc["newton_hodge"]["on_or_above"] is True


@pytest.mark.parametrize("doc", [
    {"p": 5, "matrix": [[0, -5], [1, -3]]},
    {"p": 5, "a": 2, "prec": 24, "matrix": [[0, -25], [1, 2]]},
    {"p": 3, "a": 3, "matrix": [[{"val": 0, "coeffs": [[1], [1], [0]]}, 3],
                                [9, {"val": 1, "coeffs": [[2], [0], [1]]}]]},
])
@pytest.mark.parametrize("command", ["gauge", "slopes"])
def test_isocrystal_and_virtual_crystal_documents_print_the_same(
        capsys, tmp_path, command, doc):
    """`gauge` and `slopes` read an isocrystal document as the virtual
    crystal on the standard lattice: the same matrix prints the same JSON
    under either type."""
    outputs = []
    for kind in ("isocrystal", "virtual_crystal"):
        f = tmp_path / f"{kind}.json"
        f.write_text(json.dumps({"type": kind, **doc}))
        assert main([command, "--input", str(f)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["rank"] == 2


def test_zeta_euler_match(capsys, elliptic_file):
    code, doc = run(capsys, ["zeta", "--variety", elliptic_file,
                             "--budget", "100000"])
    assert code == 0
    assert doc["euler_match"] is True
    assert doc["num"] == [1, 3, 5] and doc["den"] == [1, -6, 5]
    assert doc["point_counts"][:3] == [9, 27, 108]
    assert doc["series"][:3] == [1, 9, 54]


def test_zf_routes_agree(capsys, tmp_path):
    f = tmp_path / "gamma.json"
    f.write_text('{"type": "gamma_module", "ring": "Zp", "prime": 5, '
                 '"gamma": [[6, 0], [5, 1]], "torsion": []}')
    code, doc = run(capsys, ["zf", "--gamma", str(f)])
    assert code == 0
    assert doc["routes_agree"] is True
    assert doc["z_snf"] == doc["z_poly"] == "1/5"
    assert doc["invariants"]["free_rank"] == 1
    assert doc["coinvariants"] == {"free_rank": 1, "torsion": [1]}


def test_verify_variety(capsys, elliptic_file):
    code, doc = run(capsys, ["verify", "--variety", elliptic_file,
                             "--r", "1", "--budget", "100000"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["rho_analytic"] == 1 and doc["rho_cohomological"] == 1
    assert doc["leading"] == "9/4"
    assert doc["chi"] == "1"
    assert doc["z"] == {"0": "1", "1": "1", "2": "1"}


def test_verify_elladic(capsys, elliptic_file):
    code, doc = run(capsys, ["verify", "--variety", elliptic_file,
                             "--r", "1", "--ell", "3", "--budget", "100000"])
    assert code == 0
    assert doc["route"] == "l-adic"
    assert doc["abs_inverse"] == "9" and doc["chi"] == "9"


def test_reused_parser_keeps_no_state_between_calls(capsys, elliptic_file):
    """`main` builds its parser once per process: a flag given to one call
    is not seen by the next, and an argparse error leaves it usable."""
    argv = ["verify", "--variety", elliptic_file, "--r", "1",
            "--budget", "100000"]
    code, doc = run(capsys, argv + ["--ell", "3"])
    assert code == 0 and doc["prime"] == 3
    code, doc = run(capsys, argv)
    assert code == 0 and doc["prime"] == 5 and doc["route"] == "p-adic"
    assert main(["verify", "--variety", elliptic_file, "--r", "x"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    code, doc = run(capsys, argv)
    assert code == 0 and doc["passed"] is True


def test_package_verify_round_trip(capsys, elliptic_file, tmp_path):
    code, direct = run(capsys, ["verify", "--variety", elliptic_file,
                                "--r", "1", "--budget", "100000"])
    assert code == 0
    code = main(["package", "--variety", elliptic_file,
                 "--budget", "100000"])
    assert code == 0
    pkg_file = tmp_path / "pkg.json"
    pkg_file.write_text(capsys.readouterr().out)
    code, via_pkg = run(capsys, ["verify", "--package", str(pkg_file),
                                 "--r", "1"])
    assert code == 0
    assert via_pkg == direct


# (donor variety, degree) whose crystal replaces the degree-1 crystal of the
# p = 5 package of y^2 = x^3 + x + 1
FOREIGN_CRYSTALS = {
    "other-field": (VarietySpec.elliptic([1, 2], 3), 1),   # over F_3
    "wrong-rank": (VarietySpec.elliptic([1, 1], 5), 2),    # rank 1, not 2
}


@pytest.mark.parametrize("r", ["0", "1"])
@pytest.mark.parametrize("donor,j", FOREIGN_CRYSTALS.values(),
                         ids=list(FOREIGN_CRYSTALS))
def test_package_with_a_foreign_crystal_exits_2(capsys, tmp_path, donor, j,
                                                r):
    """A package refuses a crystal over another field or of a rank other
    than the degree of its factor."""
    doc = encode_package(package(VarietySpec.elliptic([1, 1], 5)))
    donated = encode_package(package(donor))["degrees"]
    doc["degrees"][1]["crystal"] = next(d["crystal"] for d in donated
                                        if d["j"] == j)
    f = tmp_path / "swapped.json"
    f.write_text(dump_json(doc))
    assert main(["verify", "--package", str(f), "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: degree-1 crystal has ")
    assert captured.out == ""


def test_gauge_counts_leading_zero_digits_against_the_guard(capsys,
                                                            tmp_path):
    """781 * 5^5 + O(5^10), written with five leading zero digits and
    prec 10, as the coordinate 781 * 5^5 at prec 10, or with val 5 and
    prec 5, has 5 relative digits against a guard of 8: every way gauge
    exits 4."""
    for entry in ('{"val":0,"digits":[0,0,0,0,0,1,1,1,1,1],"prec":10}',
                  '{"val":0,"coords":[2440625],"prec":10}',
                  '{"val":5,"digits":[1,1,1,1,1],"prec":5}',
                  '{"val":5,"coords":[781],"prec":5}'):
        f = tmp_path / "crystal.json"
        f.write_text(f'{{"type":"isocrystal","p":5,"matrix":[[{entry}]]}}')
        code, doc = run(capsys, ["gauge", "--input", str(f)])
        assert (code, doc) == (4, None)


def test_verify_starved_precision_exits_4(capsys, elliptic_file):
    code, _ = run(capsys, ["verify", "--variety", elliptic_file,
                           "--r", "1", "--prec", "4", "--budget", "100000"])
    assert code == 4


@pytest.mark.parametrize("factors", (
    [ELLIPTIC], [ELLIPTIC, ELLIPTIC],
    ['{"kind": "projective", "n": 2, "p": 5}', ELLIPTIC],
    ['{"kind": "torus", "p": 5}']))
def test_verify_variety_precision_boundary_is_the_guard(
        capsys, tmp_path, factors):
    """A built package carries its Hodge numbers, and verify certifies its
    context once for them: it is starved exactly where the Smith forms it
    replaces were, one digit below the 8 guard digits."""
    f = tmp_path / "variety.json"
    f.write_text(factors[0] if len(factors) == 1 else
                 '{"kind": "product", "p": 5, "factors": [%s]}'
                 % ", ".join(factors))
    for prec, want in (("7", 4), ("8", 0)):
        code, _ = run(capsys, ["verify", "--variety", str(f), "--r", "1",
                               "--prec", prec, "--budget", "100000"])
        assert code == want, prec


def test_verify_package_starved_precision_exits_4(capsys, tmp_path):
    """Too few digits to tell whether a crystal realises its factor is a
    precision failure, never a malformed document or a pass: the document
    parses, and the crystal raises when it is first read, on every read."""
    text = dump_json(encode_package(package(
        VarietySpec.elliptic([0, 0, 0, 1, 1], 5), budget=10 ** 5)))
    crystal = parse_json(text, expected={"package"}, prec=6).degrees[0].crystal
    for _ in range(2):
        with pytest.raises(PrecisionExhausted, match="realises its factor"):
            crystal.matrix
    f = tmp_path / "pkg.json"
    f.write_text(text)
    for prec in (2, 4, 6):
        for r in (0, 1):
            code, _ = run(capsys, ["verify", "--package", str(f), "--r",
                                   str(r), "--prec", str(prec)])
            assert code == 4


@pytest.mark.parametrize("second", (ELLIPTIC, '{"kind": "torus", "p": 5}'))
def test_verify_package_at_low_precision_matches_the_variety(
        capsys, tmp_path, second):
    """A document written at the default precision and read with --prec k
    verifies as the variety built at --prec k does, on both routes: the
    same exit code and the same output.  The l-adic route reads no crystal
    of E x G_m at r = 1, so a crystal too short of digits to be checked
    does not stop it."""
    f = tmp_path / "variety.json"
    f.write_text('{"kind": "product", "p": 5, "factors": [%s, %s]}'
                 % (ELLIPTIC, second))
    doc = tmp_path / "package.json"
    assert main(["package", "--variety", str(f)]) == 0
    doc.write_text(capsys.readouterr().out)
    for prec in ("1", "2", "4", "6", "7", "8", "9", "12", "16"):
        for route in ([], ["--ell", "3"]):
            outcomes = []
            for source in (["--variety", str(f)], ["--package", str(doc)]):
                code = main(["verify", *source, "--r", "1", "--prec", prec,
                             *route])
                outcomes.append((code, capsys.readouterr().out))
            assert outcomes[0] == outcomes[1], (prec, route)


def _swapped_crystal_document():
    """The package of y^2 = x^3 + x + 1 / F_5 (P_1 = 1 + 3t + 5t^2) with the
    degree-1 crystal of y^2 = x^3 + 1 / F_5 (P_1 = 1 + 5t^2)."""
    def doc(coeffs):
        return encode_package(package(VarietySpec.elliptic(coeffs, 5),
                                      budget=10 ** 5))

    def slot(d):
        return next(entry for entry in d["degrees"] if entry["j"] == 1)
    ordinary = doc([0, 0, 0, 1, 1])
    slot(ordinary)["crystal"] = slot(doc([0, 0, 0, 0, 1]))["crystal"]
    return dump_json(ordinary)


def test_crystal_of_another_curve_is_refused(capsys, tmp_path):
    text = _swapped_crystal_document()
    with pytest.raises(ValidationError, match="does not realise its factor"):
        parse_json(text, expected={"package"})
    f = tmp_path / "swapped.json"
    f.write_text(text)
    for r in (0, 1, 2):
        assert main(["verify", "--package", str(f), "--r", str(r)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: degree-1 crystal does not ")
        assert "Traceback" not in captured.err and captured.out == ""


def _unit_package(rank, crystal=True):
    """Degree 0 with factor (1 - t)^rank, and the identity crystal."""
    degree = {"j": 0, "poly": [(-1) ** k * math.comb(rank, k)
                               for k in range(rank + 1)]}
    if crystal:
        degree["crystal"] = {"type": "virtual_crystal", "p": 5, "matrix": [
            [int(i == j) for j in range(rank)] for i in range(rank)]}
    return json.dumps({"type": "package", "p": 5, "a": 1, "dim": 0,
                       "degrees": [degree]})


def test_package_caps_factor_degree_and_crystal_rank(capsys, tmp_path):
    """One cap on both, checked before any entry is decoded; a crystal at
    the cap still loads."""
    pkg = parse_json(_unit_package(MAX_RANK), expected={"package"})
    assert pkg.degrees[0].crystal.rank == MAX_RANK
    f = tmp_path / "big.json"
    for crystal in (True, False):
        f.write_text(_unit_package(MAX_RANK + 1, crystal))
        t0 = time.monotonic()
        assert main(["verify", "--package", str(f), "--r", "0"]) == 2
        assert time.monotonic() - t0 < 5
        captured = capsys.readouterr()
        assert f"above {MAX_RANK}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ("package", "zeta", "verify"))
def test_points_count_is_capped(capsys, tmp_path, command):
    """A points count above MAX_RANK exits 2 before anything is counted,
    on its own and as the closed part of a complement."""
    points = {"kind": "points", "count": MAX_RANK + 1, "p": 5}
    complement = {"kind": "complement", "p": 5, "ambient":
                  {"kind": "projective", "n": 1, "p": 5}, "closed": points}
    f = tmp_path / "points.json"
    for doc in (points, complement):
        f.write_text(json.dumps(doc))
        t0 = time.monotonic()
        assert main([command, "--variety", str(f)]
                    + (["--r", "0"] if command == "verify" else [])) == 2
        assert time.monotonic() - t0 < 5
        captured = capsys.readouterr()
        assert f"point count above {MAX_RANK}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_verify_failed_hypothesis_exits_3(capsys, tmp_path):
    pkg = CohomologyPackage(5, 1, 1, {
        0: PackageDegree([Fr(1), Fr(-1)], 0, 0, True, None),
        2: PackageDegree([Fr(1), Fr(-10), Fr(25)], 2, 0, False, None),
    })
    f = tmp_path / "badhyp.json"
    f.write_text(dump_json(encode_package(pkg)))
    code, _ = run(capsys, ["verify", "--package", str(f), "--r", "1"])
    assert code == 3


def test_parse_and_usage_errors_exit_2(capsys, tmp_path, elliptic_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert main(["verify", "--variety", str(bad), "--r", "1"]) == 2
    capsys.readouterr()
    assert main(["verify", "--variety", str(tmp_path / "nope.json"),
                 "--r", "1"]) == 2
    capsys.readouterr()
    # exactly one of --package/--variety
    assert main(["verify", "--r", "1"]) == 2
    capsys.readouterr()
    assert main(["verify", "--variety", elliptic_file, "--package",
                 elliptic_file, "--r", "1"]) == 2
    capsys.readouterr()
    # wrong document type for the subcommand
    assert main(["slopes", "--input", elliptic_file]) == 2
    capsys.readouterr()
    # argparse errors surface as 2 as well
    assert main(["verify", "--variety", elliptic_file]) == 2
    capsys.readouterr()
    # zf reads its module from --gamma only
    for argv in (["zf", "--input", elliptic_file], ["zf"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--gamma" in captured.err and captured.out == ""
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_zeta_composite_characteristic_exits_2(capsys, tmp_path):
    f = tmp_path / "v.json"
    f.write_text('{"kind": "projective", "n": 1, "p": 6, "a": 1}')
    code, _ = run(capsys, ["zeta", "--variety", str(f)])
    assert code == 2


def test_corpus_list(capsys):
    code, doc = run(capsys, ["corpus", "list"])
    assert code == 0
    names = doc["fixtures"]
    assert names == sorted(names)
    assert "P1" in names and "elliptic-F5-a5=-3" in names


def test_corpus_run(capsys):
    code, doc = run(capsys, ["corpus", "run", "--budget", "100000"])
    assert code == 0
    assert doc["all_passed"] is True
    rows = doc["results"]
    assert all(row["passed"] for row in rows)
    p1_rows = [row for row in rows if row["name"] == "P1"]
    assert {row["r"] for row in p1_rows} == {0, 1}


def test_corpus_run_with_ell(capsys):
    code, doc = run(capsys, ["corpus", "run", "--budget", "100000",
                             "--ell", "3"])
    assert code == 0
    routes = {row["route"] for row in doc["results"]}
    assert routes == {"p-adic", "3-adic"}
    ell_rows = [row for row in doc["results"] if row["route"] == "3-adic"]
    assert ell_rows and all(row["prime"] == 3 for row in ell_rows)


MALFORMED = [
    ("package", "--variety", '{"kind":"projective","p":"x","n":1}'),
    ("package", "--variety", '{"kind":"elliptic","coeffs":5,"p":5}'),
    ("zf", "--gamma",
     '{"type":"gamma_module","ring":"Zp","prime":0,"gamma":[[2]]}'),
    ("zf", "--gamma", '{"type":"gamma_module","ring":"Zp","prime":5,'
                      '"gamma":[[2]],"torsion":[{"unit":2}]}'),
    ("verify", "--package",
     '{"type":"package","p":5,"degrees":[{"j":"x","poly":[1]}]}'),
    ("gauge", "--input", '{"type":"isocrystal","p":5,"matrix":[1]}'),
    ("slopes", "--input", '{"type":"virtual_crystal","p":5,"matrix":[[1]],'
                          '"lattice":[[1,2],[3,4]]}'),
    ("slopes", "--input", '{"type":"virtual_crystal","p":5,'
                          '"matrix":[[0,-5],[1,-3]],"lattice":[[1,2],[2,4]]}'),
    ("verify", "--package",
     '{"type":"package","p":6,"a":1,"degrees":[{"j":0,"poly":[1,-1]}]}'),
    ("verify", "--package",
     '{"type":"package","p":5,"a":0,"degrees":[{"j":0,"poly":[1,-1]}]}'),
    ("verify", "--package",
     '{"type":"package","p":5,"a":1,"dim":1,"degrees":[{"j":0,"poly":[1,-1]},'
     '{"j":1,"poly":[1,3,5]},{"j":1,"poly":[1,0,5]},{"j":2,"poly":[1,-5]}]}'),
    # sizes above a cap (README, "Caps"): refused before any work
    ("package", "--variety", '{"kind":"elliptic","coeffs":[1,1],"p":0}'),
    ("package", "--variety", '{"kind":"elliptic","coeffs":[1,1],"p":false}'),
    ("package", "--variety", '{"kind":"elliptic","coeffs":[1,1],"p":4}'),
    ("package", "--variety", '{"kind":"torus","p":5,"a":300}'),
    *[(command, "--variety", doc) for command in ("package", "zeta", "verify")
      for doc in ('{"kind":"projective","n":100000,"p":5}',
                  '{"kind":"affine","n":10000000,"p":5}')],
    ("verify", "--variety",
     '{"kind":"product","p":5,"factors":[{"kind":"projective","n":60,"p":5},'
     '{"kind":"projective","n":60,"p":5}]}'),
    ("slopes", "--input",
     '{"type":"isocrystal","p":5,"a":300,"matrix":[[1]]}'),
    ("slopes", "--input",
     f'{{"type":"isocrystal","p":{BIG_PRIME},"matrix":[[1]]}}'),
    ("zf", "--gamma",
     '{"type":"gamma_module","ring":"Zp","prime":5,"gamma":[[2]],'
     '"torsion":[{"e":1000000000000,"unit":2}]}'),
    ("zf", "--gamma",
     f'{{"type":"gamma_module","ring":"Zp","prime":{BIG_PRIME},'
     '"gamma":[[2]]}'),
    ("verify", "--package",
     f'{{"type":"package","p":5,"a":{10 ** 21},"degrees":[]}}'),
    # integer fields refuse floats and booleans, and element precision < 1
    *[(command, "--variety", doc) for command in ("package", "zeta", "verify")
      for doc in ('{"kind":"projective","n":1.7,"p":5}',
                  '{"kind":"projective","n":1,"p":5.9}',
                  '{"kind":"points","count":2.9,"p":5}',
                  '{"kind":"projective","n":true,"p":5}')],
    ("zf", "--gamma",
     '{"type":"gamma_module","ring":"Zp","prime":5.0,"gamma":[[2]]}'),
    ("slopes", "--input",
     '{"type":"isocrystal","p":5,"rank":1.0,"matrix":[[1]]}'),
    ("verify", "--package",
     '{"type":"package","p":5,"degrees":[{"j":0,"u":0.5,"poly":[1,-1]}]}'),
    ("verify", "--package",
     '{"type":"package","p":5,"degrees":[{"j":0.0,"poly":[1,-1]}]}'),
    ("zeta", "--variety", '{"kind":"elliptic","coeffs":[0,0,0,1.0,1],"p":5}'),
    ("gauge", "--input",
     '{"type":"isocrystal","p":5,"matrix":[[{"val":0.5,"digits":[1]}]]}'),
    *[("slopes", "--input", '{"type":"isocrystal","p":5,"matrix":'
       f'[[{{"val":0,"digits":[1],"prec":{prec}}}]]}}') for prec in (0, -3)],
    # flags are JSON booleans and list fields JSON arrays: the string
    # "false" certified semisimplicity, and a string was read as the list
    # of its characters (y^2 = x^3 + x + 1; the matrix [[0, 1], [5, 3]])
    ("verify", "--package",
     '{"type":"package","p":5,"a":1,"dim":0,"degrees":[{"j":0,'
     '"poly":[1,-2,1],"semisimple":"false"}]}'),
    ("zeta", "--variety", '{"kind":"elliptic","coeffs":"00011","p":5}'),
    ("slopes", "--input", '{"type":"isocrystal","p":5,"matrix":["01","53"]}'),
    # a digit is an int in [0, p), and a coordinate one of exactly a ints
    # in [0, p^prec): [1.7], [true, "3", 9] and [-1] ran as other numbers
    *[("slopes", "--input", '{"type":"isocrystal","p":5,"a":%d,"matrix":'
       '[[{"val":0,%s}]]}' % entry) for entry in (
           (1, '"digits":[1.7]'), (1, '"digits":[true,"3",9]'),
           (1, '"digits":[-1]'), (1, '"digits":[5]'),
           (2, '"coeffs":[[1],[2.5]]'), (1, '"coords":[1.5]'),
           (1, '"coords":[true]'), (1, '"coords":["x"]'),
           (1, '"coords":"1"'), (1, '"coords":[-1]'),
           (1, '"coords":[3125],"prec":5'), (1, '"coords":[%d]' % 10 ** 3000),
           (2, '"coords":[1]'), (2, '"coords":[1,0,0]'),
           (1, '"coords":[1,0]'), (1, '"coords":[]'))],
    # p^val is formed in arithmetic, and a type names a decoder: a val of
    # 10^30 hung verify, and a list as the type raised TypeError
    ("slopes", "--input", '{"type":"isocrystal","p":5,"matrix":'
     '[[{"val":%d,"coords":[1]}]]}' % 10 ** 30),
    ("zf", "--gamma", '{"type":["gamma_module"],"ring":"Zp","prime":5,'
     '"gamma":[[2]]}'),
]


@pytest.mark.parametrize("command,flag,doc", MALFORMED)
def test_malformed_document_exits_2_without_traceback(capsys, tmp_path,
                                                      command, flag, doc):
    f = tmp_path / "doc.json"
    f.write_text(doc)
    argv = [command, flag, str(f)] + (["--r", "1"] if command == "verify"
                                      else [])
    t0 = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["slopes", "--input"], ["gauge", "--input"], ["zf", "--gamma"],
    ["zeta", "--variety"], ["package", "--variety"],
    ["verify", "--r", "1", "--variety"], ["corpus", "run"]])
def test_precision_flag_is_capped(capsys, tmp_path, crystal_file,
                                  elliptic_file, argv):
    """--prec above MAX_PRECISION exits 2 before a context is built."""
    gamma = tmp_path / "gamma.json"
    gamma.write_text('{"type":"gamma_module","ring":"Zp","prime":5,'
                     '"gamma":[[2]]}')
    doc = {"--input": crystal_file, "--gamma": str(gamma),
           "--variety": elliptic_file}.get(argv[-1])
    t0 = time.monotonic()
    assert main(argv + ([doc] if doc else [])
                + ["--prec", str(10 ** 8)]) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: precision must be in "
                            f"[1, {MAX_PRECISION}], got {10 ** 8}\n")
    assert captured.out == ""


@pytest.mark.parametrize("flags,message", [
    *[(["zeta", "--truncation", str(t)],
       f"truncation must be in [0, {MAX_TRUNCATION}], got {t}")
      for t in (-1, MAX_TRUNCATION + 1, 100000)],
    *[(["verify", "--r", str(r)] + ell,
       f"twist r must be in [-{MAX_TWIST}, {MAX_TWIST}], got {r}")
      for r in (-MAX_TWIST - 1, MAX_TWIST + 1, 100000)
      for ell in ([], ["--ell", "3"])],
])
def test_truncation_and_twist_are_capped(capsys, tmp_path, flags, message):
    """--truncation and --r above their caps exit 2 before the variety is
    counted, on P^5 over the largest field as on P^1 over F_5."""
    for doc in ('{"kind": "projective", "n": 1, "p": 5}', LARGEST):
        f = tmp_path / "variety.json"
        f.write_text(doc)
        t0 = time.monotonic()
        assert main(flags + ["--variety", str(f)]) == 2
        assert time.monotonic() - t0 < 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_truncation_and_twist_at_their_caps(capsys, tmp_path):
    f = tmp_path / "p1.json"
    f.write_text('{"kind": "projective", "n": 1, "p": 5}')
    code, report = run(capsys, ["zeta", "--variety", str(f),
                                "--truncation", str(MAX_TRUNCATION)])
    assert code == 0 and report["euler_match"]
    assert len(report["series"]) == MAX_TRUNCATION + 1
    for r in (-MAX_TWIST, MAX_TWIST):
        for ell in ([], ["--ell", "3"]):
            code, report = run(capsys, ["verify", "--variety", str(f),
                                        "--r", str(r)] + ell)
            assert code == 0 and report["r"] == r


@pytest.mark.parametrize("argv", [
    ["verify", "--r", str(MAX_TWIST), "--ell", "3"],
    ["verify", "--r", str(MAX_TWIST)],
    ["zeta", "--truncation", "20"],
])
def test_output_beyond_the_int_to_str_limit_exits_2(capsys, tmp_path, argv):
    """Inside every cap, P^5 over F_{65521^16} has reports with integers
    longer than Python's int-to-str limit: exit 2, which is for input too
    large, not 1, which is for a failed identity."""
    f = tmp_path / "largest.json"
    f.write_text(LARGEST)
    t0 = time.monotonic()
    assert main(argv + ["--variety", str(f)]) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: output too large to print: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_observation_beyond_the_int_to_str_limit_exits_2(capsys, tmp_path):
    """A synthetic package (u != 0) logs the Hodge comparison as an
    observation; at r = 64 over F_{65521^16} its witnesses are too long to
    print, and that is found where the report is written, not inside
    verify_padic."""
    pkg = package(VarietySpec.projective(5, 65521, MAX_DEGREE))
    pkg = CohomologyPackage(pkg.p, pkg.a, pkg.dim, {
        j: d._replace(u=int(j == 2)) for j, d in pkg.degrees.items()})
    f = tmp_path / "synthetic.json"
    f.write_text(dump_json(encode_package(pkg)))
    assert main(["verify", "--package", str(f), "--r", "2"]) == 0
    assert "leading_vs_hodge" in json.loads(
        capsys.readouterr().out)["observations"]
    t0 = time.monotonic()
    assert main(["verify", "--package", str(f), "--r", str(MAX_TWIST)]) == 2
    assert time.monotonic() - t0 < 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: output too large to print: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_composite_characteristic_is_named_before_the_curve_is_read(
        capsys, tmp_path):
    """p = 4 is refused as a non-prime, not as a singular curve."""
    f = tmp_path / "e.json"
    f.write_text('{"kind":"elliptic","coeffs":[1,1],"p":4}')
    assert main(["package", "--variety", str(f)]) == 2
    assert capsys.readouterr().err == (
        f"error: expected a prime at most {MAX_PRIME}, got 4\n")
