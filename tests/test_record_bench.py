"""The line counts `scripts/record_bench.py` records, with the script loaded
from its path as it runs."""
import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "record_bench.py"

# 27 lines, 11 of them code: blank lines, comment lines and the module,
# class, method and async-function docstrings are not; a string that is
# not a docstring and a line with a trailing comment are
SAMPLE = '''"""Module docstring,
on two lines."""
import math  # a trailing comment keeps the line

# a comment line
    # an indented comment line


class Box:
    """Class docstring."""
    size = 1

    def area(self):
        """Method docstring
        on two lines."""
        text = """a string that is not a docstring,
        on two code lines"""
        return math.pi


async def fetch():
    """Async function docstring."""
    return 2


def bare():
    return 3
'''


def _load():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert _load().code_lines(SAMPLE) == 11


def test_line_counts_record_lines_and_code_lines_per_module(tmp_path):
    package = tmp_path / "src" / "photonamp"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SAMPLE)
    (package / "b.py").write_text("x = 1\n\n# note\n")
    (package / "notes.txt").write_text("not a module\n")
    assert _load().line_counts(str(tmp_path)) == {
        "src/photonamp/a.py": 27,
        "src/photonamp/b.py": 3,
        "total": 30,
        "code": {"src/photonamp/a.py": 11, "src/photonamp/b.py": 1, "total": 12},
    }
