"""The benchmark workloads at 0.5x reproduce their recorded output digests.

The cases, the runner and the 1x and 2x check are in
`make_workload_digests.py`; the digests are in `golden/workload_digests.json`.
"""

import json

import pytest

from make_workload_digests import DIGESTS, SCALES, cases, digests, gen, key

RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_digest_file_covers_every_workload_scale_and_case():
    assert list(RECORDED) == [key(w, s) for s in SCALES for w in gen.WORKLOADS]
    names = list(cases(gen.make("lint_single", 1, scale=0.1)))
    assert all(list(recorded) == names for recorded in RECORDED.values())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_half_scale_workload_matches_digests(workload):
    assert digests(workload, "0.5") == RECORDED[key(workload, "0.5")]
