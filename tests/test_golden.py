"""Same answers: CLI stdout compared byte for byte with recorded files.

Each `.out` file under `tests/golden/` is the stdout of one command on the
input documents beside it, recorded from the library before its power,
matrix-product and polygon helpers were merged and its Smith form dropped
U, V and D; `zeta_eee_f5.out` was recorded before point counting stopped
enumerating degrees past N_2, and `zeta_e_f5_9.out` while N_1 of a curve
over F_{5^9} was still enumerated over F_{5^9}.  `zeta_e4_f5.out` (E^4
over F_5) was recorded by `fqzeta zeta` at commit 09b4466, while num/den
were still reduced by Euclid's algorithm over Q: 47-51 s on a 2-core
x86-64 box, against 0.2-0.3 s with the modular gcd over Z.
`zeta_e_f3_4.out`, `zeta_e_f2_4.out` and `zeta_e_f5_4.out` (curves whose
N_2 cross-check runs over F_{3^8}, F_{2^8} and F_{5^8}, where Frobenius
orbits of sizes 1, 2, 4 and 8 occur) were recorded at commit 36b5465,
while the x loop still visited every x of the field.  A change that
alters an answer or its formatting fails here.
"""

from pathlib import Path

import pytest

from fqzeta.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "corpus_run_ell3": ["corpus", "run", "--ell", "3"],
    "verify_eee_r1": ["verify", "--variety", "eee_f5.json", "--r", "1"],
    "verify_eee_r1_ell3": ["verify", "--variety", "eee_f5.json", "--r", "1",
                           "--ell", "3"],
    "package_f25": ["package", "--variety", "elliptic_f25.json"],
    "zeta_f25": ["zeta", "--variety", "elliptic_f25.json",
                 "--budget", "20000"],
    "zeta_eee_f5": ["zeta", "--variety", "eee_f5.json"],
    "zeta_e4_f5": ["zeta", "--variety", "e4_f5.json"],
    "zeta_e_f5_9": ["zeta", "--variety", "elliptic_f5_9.json",
                    "--truncation", "4"],
    "zeta_e_f3_4": ["zeta", "--variety", "elliptic_f3_4.json"],
    "zeta_e_f2_4": ["zeta", "--variety", "elliptic_f2_4.json"],
    "zeta_e_f5_4": ["zeta", "--variety", "elliptic_f5_4.json",
                    "--truncation", "4"],
    "gauge_f25": ["gauge", "--input", "crystal_f25.json"],
    "slopes_f25": ["slopes", "--input", "crystal_f25.json"],
    "zf_gamma": ["zf", "--gamma", "gamma.json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recorded_bytes(capsys, name):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a
            for a in CASES[name]]
    assert main(argv) == 0
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name, flags", [("verify_eee_r1", []),
                                         ("verify_eee_r1_ell3", ["--ell", "3"])])
def test_package_route_matches_recorded_bytes(capsys, tmp_path, name, flags):
    """`package` then `verify --package` prints what `verify --variety`
    printed when the file was recorded."""
    assert main(["package", "--variety", str(GOLDEN / "eee_f5.json")]) == 0
    pkg = tmp_path / "eee_f5_package.json"
    pkg.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify", "--package", str(pkg), "--r", "1", *flags]) == 0
    got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN / f"{name}.out").read_bytes()
