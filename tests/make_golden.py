"""Write ``tests/golden.json``: sha256 digests of the exact CLI artifacts.

Run from the repository root, on the tree whose bytes are to be pinned:

    PYTHONPATH=src python tests/make_golden.py

``run_cases`` runs the CLI in-process on small seeded datasets (half-star,
integer, off-grid, implicit 1.0, and half stars past beta8's float32 Gram
bound) and digests each artifact the exact kNN and feature paths write:
``dataset.tsv``, ``influence.csv``, ``group_influence.csv``,
``features.csv``, ``tree.json``, ``boundaries.csv``, the kNN ``train``
dump and the kNN ``evaluate.json``. ``tests/test_golden.py`` runs it again
and compares; only this script writes the file.

Some artifacts are kept apart, as their bits follow the order in which
BLAS adds a product:

- the ``mds`` stage's ``embedding.csv`` and ``dispersion.csv``, and the
  ``report.json`` bundled over them and the kNN Pearson influence run
  (LAPACK's ``eigh`` reduces in its own order too);
- the NMF runs on the half-star dataset (masked, ``--no-masked`` and
  ``--warm-start`` influence, and the ``train`` dump), whose factors come
  from BLAS products;
- item cosine ``features.csv`` on the off-grid dataset, and the tree
  fitted on it: off the half-star grid there is no exact Gram, so its
  beta8 sums are each profile's float64 ``cols.T @ cols``
  (``similarity.item_distance_submatrix``).

They are stored with ``blas_config()``, the BLAS build and the kernel and
CPU it runs on, and compared only under the same configuration. Every
other digest is the same under any BLAS kernel: ``tests/test_golden.py``
checks them under a second one.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from recinfluence.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
N_USERS, N_ITEMS, DENSITY = 60, 90, 0.15
# artifacts whose bits follow BLAS and LAPACK, and the datasets they run on
BLAS_FILES = ("embedding.csv", "dispersion.csv", "report.json")
MDS_DATASETS = ("half", "off_grid")
# NMF runs on the half-star dataset, all BLAS-bound
NMF = ["--algo", "nmf", "--iters", "15", "--l", "5"]
NMF_RUNS = {
    "nmf_masked": ["influence", *NMF, "--top-k", "2,5"],
    "nmf_unmasked": ["influence", *NMF, "--no-masked", "--top-k", "2,5"],
    "nmf_warm_start": ["influence", *NMF, "--warm-start", "--top-k", "2,5"],
    "nmf_train": ["train", *NMF],
}


def _blas_core() -> str | None:
    """The kernel name the loaded OpenBLAS picked for this CPU, or None."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
        for lib in map(ctypes.CDLL, paths):
            for name in ("scipy_openblas_get_corename64_",
                         "openblas_get_corename"):
                call = getattr(lib, name, None)
                if call:
                    call.argtypes, call.restype = [], ctypes.c_char_p
                    return call().decode()
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def blas_config() -> dict:
    """What the ``BLAS_FILES`` digests depend on besides the code: the BLAS
    build numpy links, the kernel it picked and the CPU model."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas['version']}",
            "blas_core": _blas_core(), "cpu": _cpu_model()}


def is_nmf(key: str) -> bool:
    """Whether the digest keyed ``key`` is of an NMF run (``NMF_RUNS``)."""
    return key.split("/")[1] in NMF_RUNS


def is_mds(key: str) -> bool:
    """Whether the digest keyed ``key`` is of an MDS-stage file
    (``BLAS_FILES``)."""
    return key.rsplit("/", 1)[-1] in BLAS_FILES


def is_off_grid_item_cosine(key: str) -> bool:
    """Whether the digest keyed ``key`` is of the off-grid item cosine
    ``features.csv`` or of the tree fitted on it."""
    return key.startswith(("off_grid/features_item_cosine/",
                           "off_grid/tree/"))


def is_blas_bound(key: str) -> bool:
    """Whether the digest keyed ``key`` follows BLAS."""
    return is_mds(key) or is_nmf(key) or is_off_grid_item_cosine(key)


def _ratings(name: str, rng) -> np.ndarray:
    size = N_USERS * N_ITEMS
    if name == "half":
        return rng.integers(1, 11, size) / 2
    if name == "int":
        return rng.integers(1, 6, size).astype(float)
    if name == "off_grid":
        return np.round(1 + 4 * rng.random(size), 3)
    if name == "implicit":
        return np.ones(size)
    # half stars up to 800: n * max|2r|**2 passes 2**24
    return rng.integers(1, 1601, size) / 2


DATASETS = ("half", "int", "off_grid", "implicit", "half_wide")


def _write_ratings(name: str, path: Path) -> None:
    """Seeded ratings of ``name`` as ``user,item,rating`` lines; every user
    and every item has a rating."""
    rng = np.random.default_rng(DATASETS.index(name) + 1)
    mask = rng.random((N_USERS, N_ITEMS)) < DENSITY
    mask[np.arange(N_USERS), np.arange(N_USERS) % N_ITEMS] = True
    mask[np.arange(N_ITEMS) % N_USERS, np.arange(N_ITEMS)] = True
    values = _ratings(name, rng).reshape(N_USERS, N_ITEMS)
    path.write_text("".join(f"u{u},i{i},{float(values[u, i])!r}\n"
                            for u, i in zip(*np.nonzero(mask))))


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in ("evaluate.json", "report.json"):
        # the config embeds the output directory
        payload = json.loads(data)
        payload["config"]["out_dir"] = ""
        data = json.dumps(payload, sort_keys=True, indent=1).encode()
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        # k >= n - 1 warns that k is reduced
        warnings.simplefilter("ignore", UserWarning)
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"recinfluence {' '.join(argv)} exited {code}")


def _dataset_runs(name: str, root: Path) -> dict[str, str]:
    """Digests of every run on dataset ``name``, keyed name/run/file."""
    base = root / name
    base.mkdir()
    _write_ratings(name, base / "ratings.csv")
    _run(["ingest", "--input", str(base / "ratings.csv"), "--format", "csv",
          "--out-dir", str(base)])
    dump = str(base / "dataset.tsv")
    pearson_items = base / "pearson_items.conf"
    pearson_items.write_text("features.item_distance = pearson\n")
    knn = ["--algo", "knn", "--k", "4", "--l", "5"]
    runs = {
        "influence_pearson": ["influence", *knn, "--similarity", "pearson",
                              "--top-k", "1,3,6"],
        "influence_cosine": ["influence", *knn, "--similarity", "cosine",
                             "--top-k", "1,3,6"],
        "features_item_cosine": ["features", *knn],
        "features_item_pearson": ["features", *knn,
                                  "--config", str(pearson_items)],
        "train": ["train", *knn],
        "evaluate": ["evaluate", *knn, "--relevance-threshold",
                     "1" if name == "implicit" else "3"],
    }
    if name == "half":
        runs["influence_k_past_n"] = ["influence", "--algo", "knn", "--k",
                                      str(N_USERS + 6), "--l", "5",
                                      "--top-k", "2,5"]
        runs.update(NMF_RUNS)
    if name == "half_wide":
        runs = {key: runs[key] for key in ("features_item_cosine",
                                           "features_item_pearson")}
    for run, argv in runs.items():
        _run([*argv, "--dataset", dump, "--out-dir", str(base / run)])
    if name != "half_wide":
        _run(["fit-tree", "--features",
              str(base / "features_item_cosine" / "features.csv"),
              "--influence",
              str(base / "influence_pearson" / "influence.csv"),
              "--min-samples-leaf", "3", "--out-dir", str(base / "tree")])
    if name in MDS_DATASETS:
        # beside the influence run, so the report takes its median too
        pipeline = base / "influence_pearson"
        _run(["mds", "--dataset", dump, "--influence",
              str(pipeline / "influence.csv"), "--refine-iters", "10",
              "--segments", "3", "--out-dir", str(pipeline)])
        _run(["report", "--out-dir", str(pipeline)])
    artifacts = sorted([base / "dataset.tsv",
                        *base.glob("*/*.csv"), *base.glob("*/*.json"),
                        *base.glob("*train/model.tsv")])
    return {f"{name}/{path.relative_to(base).as_posix()}": _digest(path)
            for path in artifacts if not path.name.endswith(".meta.json")}


def run_cases() -> dict[str, str]:
    """sha256 of every pinned artifact, keyed dataset/run/file."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name in DATASETS:
            digests.update(_dataset_runs(name, Path(tmp)))
    return digests


if __name__ == "__main__":
    digests = run_cases()
    golden = {"numpy": np.__version__,
              "digests": {key: value for key, value in digests.items()
                          if not is_blas_bound(key)},
              "blas": {"config": blas_config(),
                       "digests": {key: value for key, value in
                                   digests.items() if is_blas_bound(key)}}}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(golden['digests'])} digests and "
          f"{len(golden['blas']['digests'])} BLAS-bound digests to {GOLDEN}",
          file=sys.stderr)
