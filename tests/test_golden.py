"""The exact artifacts against committed sha256 digests.

The engine and ``influence_oracle`` share the similarity kernel, the
blend and the list ranking, so a change that moves a last bit in one of
them moves both routes alike; these digests catch it. ``tests/golden.json``
is written by ``tests/make_golden.py`` alone; this test only compares.
"""

import json

import numpy as np
import pytest

import make_golden


def test_artifacts_match_committed_digests():
    golden = json.loads(make_golden.GOLDEN.read_text())
    if np.__version__ != golden["numpy"]:
        pytest.skip(f"digests were made with numpy {golden['numpy']}, "
                    f"this is {np.__version__}")
    got = make_golden.run_cases()
    want = golden["digests"]
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []
