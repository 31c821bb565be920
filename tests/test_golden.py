"""Same answers: CLI stdout compared byte for byte with recorded files.

Each `.out` file under `tests/golden/` is the stdout of one command on the
input documents beside it, recorded from the library before its power,
matrix-product and polygon helpers were merged and its Smith form dropped
U, V and D; `zeta_eee_f5.out` was recorded before point counting stopped
enumerating degrees past N_2.  A change that alters an answer or its
formatting fails here.
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
