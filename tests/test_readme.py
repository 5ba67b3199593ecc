"""The README's diagnostic-code table against the codes the source emits."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_diagnostic_table_lists_every_emitted_code():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `(RSL-[A-Z]\d{3})` \|", readme, re.MULTILINE)
    emitted = {
        code
        for path in sorted((ROOT / "src" / "rslkit").glob("*.py"))
        for code in re.findall(r'"(RSL-[A-Z]\d{3})"', path.read_text(encoding="utf-8"))
    }
    assert len(table) == len(set(table)), "a code is listed twice"
    assert set(table) == emitted
    assert len(emitted) == 19
