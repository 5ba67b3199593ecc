"""`--help` and usage errors, byte for byte, against the eager parser in `oracles.py`.

`cli.make_parser` gives only the command named on the line its
arguments. What a user sees must not show it: stdout, stderr and the
exit code of each case equal the oracle's, at a fixed terminal width.
"""

import pytest

from oracles import oracle_parser
from rslkit.cli import main

CASES = [
    ["--help"],
    ["check", "--help"],
    ["fix", "--help"],
    ["gen", "--help"],
    [],
    ["lint", "x.rsl"],
    ["fix", "x.rsl"],
    ["gen", "bogus", "x.rsl", "-o", "o"],
    ["check", "--format", "xml", "x.rsl"],
    ["check"],
    ["gen", "json", "x.rsl"],
    ["--bogus", "check", "x.rsl"],
]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_help_and_usage_errors_match_the_eager_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        oracle_parser().parse_args(argv)
    expected = (2 if stop.value.code else 0, *capsys.readouterr())
    code = main(argv)
    assert (code, *capsys.readouterr()) == expected
    assert expected[1 + (code != 0)]  # the case printed something: help to stdout, an error to stderr
