import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOLS / "count_code_lines.py")
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts as its code line


def f():
    """Function docstring."""

    text = """not a docstring,
over two lines"""
    return text


class C:
    \'\'\'Class docstring.\'\'\'

    x = 1
'''


class TestCountCodeLines:
    def test_skips_docstrings_comments_and_blanks_but_counts_other_strings(self):
        # import, def, the two lines of text, return, class, x = 1
        assert count_code_lines.code_lines(SNIPPET) == 7

    def test_prints_one_row_per_module_and_their_total(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(SNIPPET)
        (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
        (tmp_path / "notes.txt").write_text("not a module\n")
        assert count_code_lines.main([str(tmp_path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["a.py", "7"], ["b.py", "1"], ["total", "8"]]
