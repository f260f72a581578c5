"""The repository's helper scripts under tools/."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_lines_module():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    """Module, class and function docstrings, comments and blank lines
    are not code; a statement's continuation lines and every line of a
    multi-line string that is not a docstring are."""
    source = tmp_path / "sample.py"
    source.write_text(textwrap.dedent('''\
        """Module docstring,
        two lines."""
        import math  # a trailing comment


        # a comment line
        class Box:
            """Class docstring."""

            size = (1,
                    2)

            def area(self):
                """Function
                docstring."""
                text = """not a
                docstring"""
                return math.prod(self.size), text
        '''), encoding="utf-8")
    # import, class, size (2 lines), def, text (2 lines), return
    assert _code_lines_module().code_lines(source) == 8
