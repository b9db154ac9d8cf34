"""The exact artifacts against committed sha256 digests.

The engine and ``influence_oracle`` share the similarity kernel, the
blend and the list ranking, so a change that moves a last bit in one of
them moves both routes alike; these digests catch it. NMF runs and the
MDS stage follow BLAS, so their digests are compared only under the BLAS
configuration that made them. ``tests/golden.json`` is written by
``tests/make_golden.py`` alone; this test only compares.
"""

import json

import numpy as np
import pytest

import make_golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def got(golden):
    if np.__version__ != golden["numpy"]:
        pytest.skip(f"digests were made with numpy {golden['numpy']}, "
                    f"this is {np.__version__}")
    return make_golden.run_cases()


def test_artifacts_match_committed_digests(golden, got):
    got = {key: value for key, value in got.items()
           if not make_golden.is_blas_bound(key)}
    want = golden["digests"]
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def _match_under_their_blas(golden, got, pick):
    made_with, here = golden["blas"]["config"], make_golden.blas_config()
    if here != made_with:
        pytest.skip(f"BLAS-bound digests were made with {made_with}, "
                    f"this is {here}")
    got = {key: value for key, value in got.items() if pick(key)}
    want = {key: value for key, value in golden["blas"]["digests"].items()
            if pick(key)}
    assert want and sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_mds_artifacts_match_under_their_blas(golden, got):
    _match_under_their_blas(golden, got, make_golden.is_mds)


def test_nmf_artifacts_match_under_their_blas(golden, got):
    _match_under_their_blas(golden, got, make_golden.is_nmf)
