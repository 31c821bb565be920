"""The README's python examples run, and print what their comments say.

Each fenced ```python block of README.md runs on its own.  A line
`print(...)  # expected` must print exactly `expected`.
"""

import builtins
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    """(line of the opening fence, source) of each ```python block."""
    text = README.read_text()
    return [(text.count("\n", 0, m.start()) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text,
                                 flags=re.MULTILINE | re.DOTALL)]


def _expected_prints(source):
    """Line (within the block) -> the text after `#` on each print line."""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and \
                tok.line.lstrip().startswith("print("):
            out[tok.start[0]] = tok.string[1:].strip()
    return out


BLOCKS = _python_blocks()


def test_readme_has_checked_examples():
    assert len(BLOCKS) >= 2
    assert all(_expected_prints(source) for _, source in BLOCKS)


@pytest.mark.parametrize("fence, source", BLOCKS,
                         ids=[f"README.md:{line}" for line, _ in BLOCKS])
def test_readme_block_prints_its_comments(fence, source):
    printed = {}

    def capture(*args, **kwargs):
        buf = io.StringIO()
        builtins.print(*args, file=buf, **kwargs)
        printed[sys._getframe(1).f_lineno] = buf.getvalue().rstrip("\n")

    exec(compile(source, f"README.md:{fence}", "exec"), {"print": capture})
    expected = _expected_prints(source)
    assert {line: printed.get(line) for line in expected} == expected
