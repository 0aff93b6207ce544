"""tools/code_lines.py: which lines of a source count as code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import code_lines  # noqa: E402

# the lines marked "# code" count, and no other
FIXTURE = '''"""A module docstring,
on two lines."""

import os  # code

# a comment


class Box:  # code
    """A class docstring."""

    size = (  # code
        1,  # code

        2,  # code
    )  # code

    def area(self):  # code
        """A function
        docstring."""
        text = """not a docstring,  # code
but a string over lines"""  # code
        return self.size  # code


async def wait():  # code
    \'\'\'An async function's docstring.\'\'\'
    pass  # code
'''


def test_a_line_counts_unless_it_is_blank_a_comment_or_a_docstring():
    assert code_lines.code_lines(FIXTURE) == FIXTURE.count("# code")


def test_files_are_counted_and_totalled(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "b.py")]) == 0
    n = FIXTURE.count("# code")
    assert capsys.readouterr().out.split() == [
        str(n), str(tmp_path / "pkg" / "a.py"), "1", str(tmp_path / "b.py"), str(n + 1), "total"]


def test_a_missing_path_is_an_error(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
