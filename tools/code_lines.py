"""Count the code lines of a Python package: the size figure quoted in
CHANGES.md and ROADMAP.md.

A code line is a physical line that holds a token other than a comment,
a line break or an indentation change; a multi-line token, such as a
long string, counts every line it spans.  The lines of module, class and
function docstrings are left out, and so are blank lines and comments.

    python3 tools/code_lines.py

prints one line per file of src/homsensor and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    text = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(text))


def main() -> int:
    files = sorted((ROOT / "src" / "homsensor").glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path.relative_to(ROOT)))
    print("%6d  total code lines in %d files" % (total, len(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
