"""On-disk artifact formats shared by the CLI stages.

All CSVs carry a header row, UTF-8, LF line endings; floats are written
with repr so they round-trip exactly and two identical runs produce
byte-identical files. Each artifact gets a JSON sidecar embedding the
resolved run configuration and the SHA-256 of the bytes of the dataset dump
it was computed from (``file_sha256``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .data import RatingsDataset
from .influence import GroupInfluenceCurve, InfluenceReport
from .features import FEATURE_NAMES, FeatureTable
from .predictor import RegressionTree
from .recommender import KnnModel, NmfModel


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a CSV; ValueError naming the path if it has no
    header, and the line of a row whose field count is not the header's."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    rows = [ln.split(",") for ln in lines if ln]
    if not rows:
        raise ValueError(f"{path}: no header row")
    header = rows[0]
    for lineno, line in enumerate(lines, start=1):
        if line and line.count(",") != len(header) - 1:
            raise ValueError(f"{path}: line {lineno}: {line.count(',') + 1} "
                             f"fields, the header has {len(header)}")
    return header, rows[1:]


# Bytes read at a time when a file is hashed: hashing a dump holds this one
# buffer whatever the dump's size (13 MiB at ML-1M shape).
_HASH_BLOCK = 65536


def file_sha256(path) -> str:
    """SHA-256 hex digest of the bytes of the file at ``path``, read into
    one ``_HASH_BLOCK`` buffer: the ``dataset_sha256`` of every stage."""
    digest = hashlib.sha256()
    buf = bytearray(_HASH_BLOCK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def write_sidecar(artifact_path, config: dict, ds_hash: str,
                  extra: dict | None = None) -> Path:
    payload = {"config": config, "dataset_sha256": ds_hash}
    if extra:
        payload.update(extra)
    side = Path(str(artifact_path) + ".meta.json")
    side.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    return side


def write_influence_csv(report: InfluenceReport, ds: RatingsDataset,
                        path) -> Path:
    rank_of = np.empty(report.n_users, dtype=np.int64)
    rank_of[report.ranking] = np.arange(1, report.n_users + 1)
    rows = [(ds.user_ids[u], float(report.influence[u]), int(rank_of[u]))
            for u in range(report.n_users)]
    return write_csv(path, ["user_id", "influence", "rank"], rows)


def write_group_curves_csv(curves: list[GroupInfluenceCurve], path) -> Path:
    rows = [(curve.top_set_size, theta, frac) for curve in curves
            for theta, frac in zip(curve.thresholds, curve.influenced_fraction)]
    return write_csv(path, ["top_k", "theta", "fraction_influenced"], rows)


def write_features_csv(table: FeatureTable, path) -> Path:
    rows = [(table.user_ids[u], *[float(v) for v in table.values[u]])
            for u in range(table.n_users)]
    return write_csv(path, ["user_id", *FEATURE_NAMES], rows)


def read_features_csv(path) -> tuple[list[str], np.ndarray]:
    header, raw = read_csv(path)
    if header != ["user_id", *FEATURE_NAMES]:
        raise ValueError(f"{path}: not a feature table")
    ids = [row[0] for row in raw]
    values = np.array([[float(c) for c in row[1:]] for row in raw])
    return ids, values


def read_influence_csv(path) -> tuple[list[str], np.ndarray]:
    header, raw = read_csv(path)
    if header[:2] != ["user_id", "influence"]:
        raise ValueError(f"{path}: not an influence report")
    ids = [row[0] for row in raw]
    values = np.array([float(row[1]) for row in raw])
    return ids, values


def write_embedding_csv(embedding, ds: RatingsDataset, influence: np.ndarray,
                        labels: np.ndarray, path) -> Path:
    rows = [(ds.user_ids[u], float(x), float(y), int(labels[u]),
             float(influence[u]))
            for u, (x, y) in zip(embedding.user_indices, embedding.coordinates)]
    return write_csv(path, ["user_id", "x", "y", "segment", "influence"], rows)


def write_dispersion_csv(stats: list[dict], path) -> Path:
    rows = [(s["segment"], s["mean_radius"], s["mean_pairwise_distance"])
            for s in stats]
    return write_csv(path, ["segment", "mean_radius",
                            "mean_pairwise_distance"], rows)


def write_boundaries_csv(records: list[dict], path) -> Path:
    rows = [(r["feature"], r["threshold"], r["depth"], r["side"],
             r["leaf_value"]) for r in records]
    return write_csv(path, ["feature", "threshold", "depth", "side",
                            "leaf_value"], rows)


def write_tree_json(tree: RegressionTree, path) -> Path:
    path = Path(path)
    path.write_text(tree.to_json() + "\n", encoding="utf-8")
    return path


def save_model(model, base_path, ds_hash: str) -> Path:
    """Model dump: ``<base>.json`` header plus ``<base>.tsv`` payload.

    The kNN payload rows are ``N u v sim`` (neighbor lists in order),
    ``M i mean`` (item means) and ``G mean`` (global mean); the
    factorization payload rows are ``P row f...``, ``Q row f...`` and
    ``H iter objective``. ``ds_hash`` is the ``file_sha256`` of the dump
    the model was trained on.
    """
    base = Path(base_path)
    lines = []
    if isinstance(model, KnnModel):
        header = {"algorithm": "knn", "k": model.k,
                  "similarity": model.similarity}
        for u in range(len(model.neighbors)):
            for v, s in zip(model.neighbors[u], model.neighbor_sims[u]):
                lines.append(f"N\t{u}\t{int(v)}\t{repr(float(s))}")
        for i, m in enumerate(model.item_means):
            lines.append(f"M\t{i}\t{repr(float(m))}")
        lines.append(f"G\t{repr(model.global_mean)}")
    elif isinstance(model, NmfModel):
        header = {"algorithm": "nmf", "factors": model.factors,
                  "seed": model.seed, "n_iters": model.n_iters,
                  "masked": model.masked}
        for tag, mat in (("P", model.p), ("Q", model.q)):
            for r, row in enumerate(mat):
                cells = "\t".join(repr(float(v)) for v in row)
                lines.append(f"{tag}\t{r}\t{cells}")
        for it, obj in enumerate(model.objective_history):
            lines.append(f"H\t{it}\t{repr(float(obj))}")
    else:
        raise TypeError(f"cannot dump {type(model).__name__}")
    header["dataset_sha256"] = ds_hash
    base.with_suffix(".json").write_text(
        json.dumps(header, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    base.with_suffix(".tsv").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8", newline="\n")
    return base.with_suffix(".json")

