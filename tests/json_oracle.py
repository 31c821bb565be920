"""The document writer of the CLI before `serialize.dump_json` wrote in one
pass: `plain` walked every payload into JSON primitives, and `json.dumps`
with indent=2, which runs the pure-Python encoder, printed the result.
`dumps` is the oracle for `dump_json` in tests/test_dump_json.py.
"""

import json
from fractions import Fraction

from fqzeta.serialize import encode_rational


def plain(x):
    """Recursively turn report values into JSON-serializable primitives."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return encode_rational(x)
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in sorted(x.items(),
                                                    key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return str(x)


def dumps(x):
    return json.dumps(plain(x), sort_keys=True, indent=2) + "\n"
