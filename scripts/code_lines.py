#!/usr/bin/env python3
"""Count the code lines of the package under ``src/``, per module and in total.

    python scripts/code_lines.py

A code line is a source line that holds at least one token other than a
comment or a docstring; blank lines, comment lines and the lines of a
docstring (a string literal that stands alone as a statement) do not count.
Prints one ``<lines>  <module path>`` row per module, then the total.
"""

from __future__ import annotations

import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: tokens that never make a line a code line
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines of one Python source file."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in LAYOUT:
                if token.type == tokenize.NEWLINE:
                    # a statement that is one string literal is a docstring
                    if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                        for tok in statement:
                            lines.update(range(tok.start[0], tok.end[0] + 1))
                    statement = []
                continue
            statement.append(token)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.relative_to(ROOT)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
