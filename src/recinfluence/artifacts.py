"""On-disk artifact formats shared by the CLI stages.

All CSVs carry a header row, UTF-8, LF line endings; floats are written
with repr so they round-trip exactly and two identical runs produce
byte-identical files. Each artifact gets a JSON sidecar embedding the
resolved run configuration and a content hash of the input dataset.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .data import RatingsDataset, _dump_text
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
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def dataset_hash(ds: RatingsDataset) -> str:
    """Content hash over the canonical dump that ``save_dataset`` writes."""
    return hashlib.sha256(_dump_text(ds).encode()).hexdigest()


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
    rows = []
    for curve in curves:
        for theta, frac in zip(curve.thresholds, curve.influenced_fraction):
            rows.append((curve.top_set_size, theta, frac))
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
    rows = []
    for row, u in enumerate(embedding.user_indices):
        rows.append((ds.user_ids[u],
                     float(embedding.coordinates[row, 0]),
                     float(embedding.coordinates[row, 1]),
                     int(labels[u]),
                     float(influence[u])))
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


def read_tree_json(path) -> RegressionTree:
    return RegressionTree.from_json(Path(path).read_text(encoding="utf-8"))


def save_model(model, base_path) -> Path:
    """Model dump: ``<base>.json`` header plus ``<base>.tsv`` payload.

    The kNN payload rows are ``N u v sim`` (neighbor lists in order),
    ``M i mean`` (item means) and ``G mean`` (global mean); the
    factorization payload rows are ``P row f...``, ``Q row f...`` and
    ``H iter objective``.
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
    header["dataset_sha256"] = dataset_hash(model.dataset)
    base.with_suffix(".json").write_text(
        json.dumps(header, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    base.with_suffix(".tsv").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8", newline="\n")
    return base.with_suffix(".json")


def load_model(base_path, ds: RatingsDataset):
    """Rebuild a dumped model against its training dataset."""
    base = Path(base_path)
    header = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    if header["dataset_sha256"] != dataset_hash(ds):
        raise ValueError(f"{base}: dataset does not match the model dump")
    rows: dict[str, list[list[str]]] = {}
    for line in base.with_suffix(".tsv").read_text(encoding="utf-8").split("\n"):
        if line:
            tag, *rest = line.split("\t")
            rows.setdefault(tag, []).append(rest)
    if header["algorithm"] == "knn":
        k_eff = len(rows.get("N", [])) // ds.n_users if ds.n_users else 0
        neighbors = np.zeros((ds.n_users, k_eff), dtype=np.int64)
        sims = np.zeros((ds.n_users, k_eff))
        position = np.zeros(ds.n_users, dtype=np.int64)
        for u_s, v_s, s_s in rows.get("N", []):
            u = int(u_s)
            neighbors[u, position[u]] = int(v_s)
            sims[u, position[u]] = float(s_s)
            position[u] += 1
        item_means = np.zeros(ds.n_items)
        for i_s, m_s in rows.get("M", []):
            item_means[int(i_s)] = float(m_s)
        global_mean = float(rows["G"][0][0])
        for arr in (neighbors, sims, item_means):
            arr.flags.writeable = False
        return KnnModel(ds, header["k"], header["similarity"], neighbors,
                        sims, item_means, global_mean)
    if header["algorithm"] == "nmf":
        p = np.array([[float(v) for v in rest[1:]] for rest in rows["P"]])
        q = np.array([[float(v) for v in rest[1:]] for rest in rows["Q"]])
        p.flags.writeable = False
        q.flags.writeable = False
        history = tuple(float(rest[1]) for rest in rows["H"])
        return NmfModel(ds, header["factors"], header["seed"],
                        header["n_iters"], header["masked"], p, q, history)
    raise ValueError(f"{base}: unknown algorithm {header['algorithm']!r}")
