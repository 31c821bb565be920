"""`dump_json` prints the bytes of the two-pass writer it replaced.

The oracle (tests/json_oracle.py) is `json.dumps(plain(x), sort_keys=True,
indent=2) + "\\n"`.  They are compared on seeded random payloads, on every
payload that a command of tests/test_golden.py prints, and where an int is
too long to print.
"""

import random
import string
from fractions import Fraction

import pytest

import fqzeta.cli as cli
import json_oracle
from fqzeta.errors import FqzetaError
from fqzeta.serialize import dump_json
from test_golden import CASES, GOLDEN

TEXT = string.ascii_letters + string.digits + ' "\\/\n\t\x00\x1f\x7féü€ 😀'


class Tagged:
    def __str__(self):
        return "tagged \"object\""


def _key(rng):
    return rng.choice([
        lambda: rng.randrange(-30, 30),
        lambda: "".join(rng.choices(TEXT, k=rng.randrange(4))),
        lambda: rng.choice([True, False, None]),
        lambda: Fraction(rng.randrange(-9, 9), rng.randrange(1, 4)),
        lambda: str(rng.randrange(-30, 30)),   # may equal an int key's str
    ])()


def _leaf(rng):
    return rng.choice([
        lambda: rng.randrange(-10 ** 6, 10 ** 6),
        lambda: rng.randrange(10 ** 60),
        lambda: "".join(rng.choices(TEXT, k=rng.randrange(12))),
        lambda: Fraction(rng.randrange(-99, 99), rng.randrange(1, 9)),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([0.5, -2.0, float("inf")]),
        Tagged,
    ])()


def _payload(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    n = rng.choice([0, 1, 2, 3, 5])
    kind = rng.choice(["dict", "list", "tuple"])
    if kind == "dict":
        return {_key(rng): _payload(rng, depth - 1) for _ in range(n)}
    items = [_payload(rng, depth - 1) for _ in range(n)]
    return items if kind == "list" else tuple(items)


@pytest.mark.parametrize("seed", range(40))
def test_random_payloads_match_the_oracle(seed):
    rng = random.Random(seed)
    for _ in range(25):
        x = _payload(rng, rng.randrange(5))
        assert dump_json(x) == json_oracle.dumps(x)


@pytest.mark.parametrize("x", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], 0, -7, "", "é",
    True, None, Fraction(6, 3), Fraction(-1, 3), {1: "int", "1": "str"},
    {"1": "str", 1: "int"}, {True: 1, None: 2, Fraction(1, 2): 3, 10: 4},
    {"b": (1, Fraction(2)), "a": [True, False, None]},
])
def test_edge_payloads_match_the_oracle(x):
    assert dump_json(x) == json_oracle.dumps(x)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_golden_payload_matches_the_oracle(monkeypatch, capsys, name):
    seen = []

    def checked(payload):
        text = dump_json(payload)
        assert text == json_oracle.dumps(payload)
        seen.append(text)
        return text

    monkeypatch.setattr(cli, "dump_json", checked)
    argv = [str(GOLDEN / a) if a.endswith(".json") else a
            for a in CASES[name]]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "".join(seen) and len(seen) == 1


@pytest.mark.parametrize("payload", [
    {"n": 10 ** 4400},
    {"rows": [(1, Fraction(10 ** 4400, 3))]},
    {10 ** 4400: 0},
])
def test_an_int_too_long_to_print_exits_2_through_emit(capsys, payload):
    with pytest.raises(ValueError):
        json_oracle.dumps(payload)
    with pytest.raises(FqzetaError, match="output too large to print"):
        cli._emit(payload)
    assert capsys.readouterr().out == ""
