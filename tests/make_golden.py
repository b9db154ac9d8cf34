"""Write ``tests/golden.json``: sha256 digests of the exact CLI artifacts.

Run from the repository root, on the tree whose bytes are to be pinned:

    PYTHONPATH=src python tests/make_golden.py

``run_cases`` runs the CLI in-process on small seeded datasets (half-star,
integer, off-grid, implicit 1.0, and half stars past beta8's float32 Gram
bound) and digests each artifact the exact kNN and feature paths write:
``dataset.tsv``, ``influence.csv``, ``group_influence.csv``,
``features.csv``, ``tree.json``, ``boundaries.csv``, the kNN ``train``
dump and the kNN ``evaluate.json``. ``tests/test_golden.py`` runs it again
and compares; only this script writes the file. NMF and MDS artifacts are
left out, as their bits follow the order in which BLAS adds a product.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from recinfluence.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
N_USERS, N_ITEMS, DENSITY = 60, 90, 0.15


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
    if path.name == "evaluate.json":
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
    artifacts = sorted([base / "dataset.tsv",
                        *base.glob("*/*.csv"), *base.glob("*/*.json"),
                        *base.glob("train/model.tsv")])
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
    golden = {"numpy": np.__version__, "digests": run_cases()}
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(golden['digests'])} digests to {GOLDEN}",
          file=sys.stderr)
