"""The exact artifacts against committed sha256 digests.

The engine and ``influence_oracle`` share the similarity kernel, the
blend and the list ranking, so a change that moves a last bit in one of
them moves both routes alike; these digests catch it. NMF runs, the MDS
stage and off-grid item cosine features follow BLAS, so their digests are
compared only under the BLAS configuration that made them; every other
digest is checked under a second OpenBLAS kernel too, so one that follows
BLAS cannot pass as exact. ``tests/golden.json`` is written by
``tests/make_golden.py`` alone; this test only compares.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import make_golden
import recinfluence


@pytest.fixture(scope="module")
def golden():
    return json.loads(make_golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def got(golden):
    if np.__version__ != golden["numpy"]:
        pytest.skip(f"digests were made with numpy {golden['numpy']}, "
                    f"this is {np.__version__}")
    return make_golden.run_cases()


def _match_exact(golden, got):
    got = {key: value for key, value in got.items()
           if not make_golden.is_blas_bound(key)}
    want = golden["digests"]
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_artifacts_match_committed_digests(golden, got):
    _match_exact(golden, got)


def test_exact_artifacts_match_under_a_second_blas_kernel(golden):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86-64 kernels; this is "
                    f"{platform.machine()}")
    if np.__version__ != golden["numpy"]:
        pytest.skip(f"digests were made with numpy {golden['numpy']}, "
                    f"this is {np.__version__}")
    here = make_golden._blas_core()
    # kernels every x86-64 CPU runs
    core = "Prescott" if here == "Nehalem" else "Nehalem"
    path = [str(Path(make_golden.__file__).resolve().parent),
            str(Path(recinfluence.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(path)}
    script = ("import json, make_golden; print(json.dumps("
              "[make_golden._blas_core(), make_golden.run_cases()]))")
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True)
    there, got = json.loads(child.stdout.splitlines()[-1])
    if there == here:
        pytest.skip(f"OPENBLAS_CORETYPE={core} was ignored: both runs use "
                    f"the {here} kernel")
    _match_exact(golden, got)


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


def test_off_grid_item_cosine_matches_under_its_blas(golden, got):
    _match_under_their_blas(golden, got, make_golden.is_off_grid_item_cosine)
