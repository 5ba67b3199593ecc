"""Every golden CLI case reproduces its recorded exit code, stdout, stderr and written files.

The cases and the runner are in `make_golden.py`; the recorded outputs
are in `golden/outputs.json`.
"""

import json

import pytest

from make_golden import OUTPUTS, cases, run_case

GOLDEN = json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert list(GOLDEN) == list(cases())


@pytest.mark.parametrize("name", list(cases()))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(cases()[name], tmp_path) == GOLDEN[name]
