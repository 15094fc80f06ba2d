"""The counting rule of tools/src_lines.py, which tracks the size of src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# the lines that count are marked "# code"
MODULE = '''"""Module docstring,
over two lines."""

# a comment
import os  # code


def f(x):  # code
    """Function docstring."""
    "a bare string statement"
    text = """a string  # code
    inside a statement"""  # code
    return (  # code
        x  # code

        + len(text)  # code
    )  # code
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(MODULE)
    expected = sum("# code" in line for line in MODULE.splitlines())
    # every line of the two multi-line statements, but not the blank one
    assert src_lines.code_lines(path) == expected == 8


def test_main_totals_every_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "17", "8"], ["b.py", "3", "1"], ["total", "20", "9"]]
