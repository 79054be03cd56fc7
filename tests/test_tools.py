"""``tools/loc.py``, which prints the size of each module of the package."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "screencurve"


@pytest.fixture(scope="module")
def loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_row_per_module_and_a_total_of_the_columns(loc, capsys):
    assert loc.main([str(PACKAGE)]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "raw", "code"]
    table = {name: (int(raw), int(code)) for name, raw, code in map(str.split, rows)}
    assert sorted(table) == sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert len(table) == len(rows)
    for name, (raw, code) in table.items():
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        assert raw == len(source.splitlines())
        assert 0 < code < raw
    label, raw_total, code_total = total.split()
    assert label == "total"
    assert int(raw_total) == sum(raw for raw, _ in table.values())
    assert int(code_total) == sum(code for _, code in table.values())


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(loc):
    source = '''"""Module docstring,
over two lines."""

# A comment.
x = 1  # code with a comment


def f():
    """Function docstring."""
    text = """a multi-line string
that is not a docstring
"""
    return text
'''
    # x = 1, def f(), the three lines of text = ..., return text.
    assert loc.code_lines(source) == 6


def test_functions_lists_the_largest_definitions_by_code_lines(loc, tmp_path, capsys):
    (tmp_path / "mod.py").write_text('''"""Module docstring."""


class Box:
    """Class docstring."""

    size = 1  # code with a comment

    def grow(self):
        """Method docstring,
        over two lines."""
        # A comment.

        self.size += 1
        return self.size


@staticmethod
def free(x):
    def inner():
        return x
    return inner
''')
    assert loc.main(["--functions", "3", str(tmp_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["definition", "code"]
    # Box: class, size, def grow, its two statements.  free: the decorator,
    # def free, def inner, return x, return inner.  Ties go by name.
    assert [row.split() for row in rows] == [
        ["mod.Box", "5"], ["mod.free", "5"], ["mod.Box.grow", "3"],
    ]


def test_no_source_line_is_over_100_characters():
    # Code lines count physical lines, so joining lines must not lower them.
    long = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []
