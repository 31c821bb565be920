"""Mutated documents exit with a documented code, promptly.

A seeded mutator (stdlib `random`, no fuzzing library) edits the golden
input documents and one package document in each p-adic format, coordinate
ints and digit lists: it drops keys, swaps a value for one of another
type, scales ints by 10^k, nests a value in a list, and writes negative,
huge or wrong-length coordinates.  The command that reads each document
runs in process; every case must return an exit code in 0..4 (README,
"Exit codes") rather than raise, and finish within BOUND seconds.
"""

import json
import random
import time

import pytest

from fqzeta.cli import main
from test_golden import GOLDEN

BOUND = 5.0
CASES_PER_SOURCE = 40

SOURCES = {
    "crystal_f25.json": [["slopes", "--input"], ["gauge", "--input"]],
    "gamma.json": [["zf", "--gamma"]],
    "elliptic_f25.json": [["package", "--variety"]],
    "eee_f5.json": [["package", "--variety"]],
    "package_p1gmgm_f9_twist.out": [["verify", "--package"]],
    "package_p1gmgm_f9_twist_digits.json": [["verify", "--package"]],
}

OTHER_TYPES = ("x", "7", "1/2", 1.5, True, False, None, [], {}, [1],
               {"val": 0})


def _slots(x, out):
    """Every (container, key) below x, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x)
    for key, value in list(items):
        out.append((x, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate(rng, doc):
    slots = _slots(doc, [])
    ints = [(c, k) for c, k in slots
            if type(c[k]) is int]
    entries = [c[k] for c, k in slots
               if isinstance(c[k], dict) and "coords" in c[k]]
    op = rng.choice(["drop", "swap", "scale", "nest", "coords"])
    if op == "drop":
        dicts = [c for c, _ in slots if isinstance(c, dict)] + [doc]
        target = rng.choice(dicts)
        if target:
            del target[rng.choice(list(target))]
    elif op == "swap":
        container, key = rng.choice(slots)
        container[key] = rng.choice(OTHER_TYPES)
    elif op == "scale" and ints:
        container, key = rng.choice(ints)
        container[key] *= rng.choice([-1, 1]) * 10 ** rng.choice(
            [1, 2, 6, 30, 300])
    elif op == "nest":
        container, key = rng.choice(slots)
        container[key] = [container[key]]
    elif op == "coords" and entries:
        entry = rng.choice(entries)
        coords = entry["coords"]
        how = rng.choice(["negative", "huge", "short", "long", "prec"])
        if how == "negative":
            coords[rng.randrange(len(coords))] = -rng.randrange(1, 10 ** 9)
        elif how == "huge":
            coords[rng.randrange(len(coords))] = 10 ** rng.choice(
                [20, 100, 3000])
        elif how == "short":
            coords.pop()
        elif how == "long":
            coords.append(rng.randrange(9))
        else:
            entry["prec"] = rng.choice([0, -1, 10 ** 12, 10 ** 300])
    return doc


def _cases():
    for name, commands in SOURCES.items():
        text = (GOLDEN / name).read_text(encoding="utf-8")
        rng = random.Random(name)
        for i in range(CASES_PER_SOURCE):
            doc = json.loads(text)
            for _ in range(rng.choice([1, 1, 2, 3])):
                doc = _mutate(rng, doc)
            yield name, i, rng.choice(commands), json.dumps(doc)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_mutated_documents_exit_0_to_4_promptly(capsys, tmp_path, name):
    path = tmp_path / "mutated.json"
    for source, i, command, text in _cases():
        if source != name:
            continue
        path.write_text(text, encoding="utf-8")
        argv = command + [str(path)]
        if command[0] == "verify":
            argv += ["--r", "1"]
        t0 = time.monotonic()
        try:
            code = main(argv)
        except Exception as exc:    # a traceback, not an exit code
            pytest.fail(f"case {i} of {name} raised {exc!r}: {text[:300]}")
        elapsed = time.monotonic() - t0
        capsys.readouterr()
        assert code in range(5), (i, text[:300])
        assert elapsed < BOUND, (i, elapsed, text[:300])
