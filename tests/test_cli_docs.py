"""Doc-drift guard: every documented ``python -m repro`` example parses.

The README and ``docs/*.md`` show the CLI by example.  A renamed or
dropped flag would leave those examples silently wrong, so each one is
fed to the real argument parser (parse only: nothing is trained or
served).  Backslash continuations are joined, an example is cut at a
pipe or a ``<`` redirection, and synopsis lines (``[...]`` options,
``<placeholder>`` or ``UPPERCASE`` operands, ``...``) are skipped.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_INVOCATION = re.compile(r"python -m repro\b")
_LOGICAL_LINE = re.compile(r"(?:\\\n|[^\n])*")
_PLACEHOLDER = re.compile(r"\[|\]|\.\.\.|^<.*>$|^[A-Z][A-Z_]*$")


def _examples(path: Path):
    """(line number, argv) per example in one markdown file; argv is
    ``None`` for a synopsis line that is not a runnable example."""
    text = path.read_text()
    for match in _INVOCATION.finditer(text):
        start = match.end()
        if text[match.start() - 1] == "`":  # inline code, may wrap lines
            snippet = text[start : text.index("`", start)]
        else:
            snippet = _LOGICAL_LINE.match(text, start).group()
        snippet = re.split(r"\||\s<\s", snippet.replace("\\\n", " "))[0]
        argv = shlex.split(snippet, comments=True)
        line = text.count("\n", 0, match.start()) + 1
        if any(_PLACEHOLDER.search(token) for token in argv):
            yield line, None
        else:
            yield line, argv


EXAMPLES = [
    (f"{path.relative_to(ROOT)}:{line}", argv)
    for path in DOCS
    for line, argv in _examples(path)
]


def test_the_guard_sees_the_examples():
    runnable = [argv for _where, argv in EXAMPLES if argv is not None]
    assert len(EXAMPLES) >= 40
    assert len(runnable) >= len(EXAMPLES) - 8


@pytest.mark.parametrize(
    "argv",
    [argv for _where, argv in EXAMPLES if argv is not None],
    ids=[where for where, argv in EXAMPLES if argv is not None],
)
def test_documented_example_parses(argv):
    build_parser().parse_args(argv)
