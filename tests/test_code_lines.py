"""tests/code_lines.py counts what CHANGES.md's code-line figures count."""

from __future__ import annotations

import code_lines

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import sys  # a trailing comment


class Walker:
    """A class docstring."""

    limit = 3


def walk(n):
    """A function docstring,

    over three lines."""
    text = """not a docstring:
    both of its lines count"""
    return (n,
            text)
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    # import, class, limit, def, text's two lines and return's two lines
    assert code_lines.code_lines(FIXTURE) == 8
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a.py",
        "     1  b.py",
        "     9  total",
    ]
