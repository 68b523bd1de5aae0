"""scripts/code_lines.py counts code lines: no comments, docstrings or blank lines."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import math  # a trailing comment keeps its line

    # a comment on its own


    class Box:
        """One-line class docstring."""

        size = 2

        def area(self):
            """Method docstring
            over three
            lines."""
            return (self.size
                    * self.size)


    def f():
        return """a string that is
    not a docstring"""


    def g():
        x = 1
        "a bare string after the first statement is code"
        return x
    ''')


def test_counts_only_code_lines():
    # import, class, size, def area, both lines of its return, def f, both
    # lines of its string, def g, x = 1, the bare string, return x.
    assert _load().code_lines(FIXTURE) == 13


def test_empty_and_comment_only_sources_have_no_code():
    module = _load()
    assert module.code_lines("") == 0
    assert module.code_lines("# only a comment\n\n") == 0
    assert module.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_module_and_the_total(capsys):
    module = _load()
    assert module.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[1] for line in lines]
    assert names == sorted(path.name for path in module.PACKAGE.glob("*.py")) + ["total"]
    counts = [int(line.split()[0].replace(",", "")) for line in lines]
    assert counts[-1] == sum(counts[:-1]) > 0
