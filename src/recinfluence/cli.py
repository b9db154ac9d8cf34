"""Command-line front end orchestrating the pipeline stages.

Stages communicate through on-disk artifacts (dataset dump, model dump,
influence CSV, feature CSV, tree JSON) so long runs are resumable. Every
artifact gets a sidecar with the fully resolved configuration and the
SHA-256 of the dataset dump file it read (``artifacts.file_sha256``).
Defaults < config file < command-line flags.

Exit codes: 0 success, 1 computation failure, 2 usage or IO error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, artifacts, features, influence, predictor
from .data import (FORMATS, ITEM_SAMPLE_MODES, DatasetError, _save_dataset,
                   compute_stats, load_dataset, load_ratings, sample_items,
                   sample_users)
# top_items is unused here but stays bound: the benchmark's tracer test
# checks that every binding of it is wrapped
from .recommender import (ModelConfig, TrainingError, top_items,
                          train_test_split, evaluate)
from .similarity import SIMILARITIES


class ConfigError(ValueError):
    """Raised for malformed config files or unknown keys."""


DEFAULTS = {
    "data.format": "tsv",
    "data.sep": ",",
    "data.columns": "user,item,rating",
    "data.has_header": False,
    "data.sample_users": 0,
    "data.sample_items": 0,
    "data.item_sample_mode": "random",
    "algo": "knn",
    "knn.k": 20,
    "knn.similarity": "pearson",
    "nmf.factors": 8,
    "nmf.iters": 200,
    "nmf.rel_tol": 1e-5,
    "nmf.masked": True,
    "seed": 0,
    "list.length": 10,
    "influence.warm_start": False,
    "influence.warm_iters": 20,
    "influence.top_k": "10",
    "influence.thetas": ",".join(map(repr, influence.DEFAULT_THETA_GRID)),
    "features.similarity": "pearson",
    "features.user_distance": "cosine",
    "features.item_distance": "cosine",
    "features.epsilon": 0.0,
    "features.epsilon_quantile": 0.25,
    "tree.max_depth": 8,
    "tree.min_samples_leaf": 5,
    "tree.holdout_fraction": 0.0,
    "mds.distance": "cosine",
    "mds.max_points": 2000,
    "mds.segments": 4,
    "mds.refine_iters": 0,
    "eval.test_fraction": 0.2,
    "eval.relevance_threshold": 4.0,
    "out_dir": ".",
}


def _typed_value(key: str, raw: str):
    """``raw`` as the type of ``DEFAULTS[key]``, or None when it is not.

    Float keys keep an integer as an int, as written in the file.
    """
    default = DEFAULTS[key]
    if isinstance(default, str):
        return raw
    if isinstance(default, bool):
        return {"true": True, "false": False}.get(raw.lower())
    for kind in (int, float) if isinstance(default, float) else (int,):
        try:
            return kind(raw)
        except ValueError:
            pass
    return None


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number"}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines with dotted section keys; # comments.

    Each value must have the type of its key's default.
    """
    cfg = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        parsed = _typed_value(key, value)
        if parsed is None:
            expected = _EXPECTED[type(DEFAULTS[key])]
            raise ConfigError(f"{path}: line {lineno}: {key} expects "
                              f"{expected}, got {value!r}")
        cfg[key] = parsed
    return cfg


def resolve_config(args) -> dict:
    """Defaults < ``--config`` file < flags; each flag's dest is its key."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(parse_config_file(args.config))
    cfg.update((key, value) for key, value in vars(args).items()
               if key in DEFAULTS and value is not None)
    return cfg


def model_config(cfg: dict) -> ModelConfig:
    """The run's model, after its algorithm's options pass their checks."""
    _check_options(cfg, *_MODEL_KEYS.get(cfg["algo"], ()))
    return ModelConfig(algorithm=cfg["algo"], k=cfg["knn.k"],
                       similarity=cfg["knn.similarity"],
                       factors=cfg["nmf.factors"], seed=cfg["seed"],
                       n_iters=cfg["nmf.iters"], rel_tol=cfg["nmf.rel_tol"],
                       masked=cfg["nmf.masked"])


def feature_config(cfg: dict) -> features.FeatureConfig:
    return features.FeatureConfig(
        similarity=cfg["features.similarity"],
        user_distance=cfg["features.user_distance"],
        item_distance=cfg["features.item_distance"],
        epsilon=cfg["features.epsilon"] or None,
        epsilon_quantile=cfg["features.epsilon_quantile"],
        seed=cfg["seed"])


def _numbers(cfg: dict, key: str, kind) -> tuple:
    """The comma-separated numbers of ``cfg[key]``, each read by ``kind``;
    a list with none is refused."""
    try:
        numbers = tuple(kind(tok) for tok in str(cfg[key]).split(",") if tok)
    except ValueError:
        numbers = ()
    if not numbers:
        raise ValueError(f"{key} expects comma-separated numbers, got "
                         f"{cfg[key]!r}")
    return numbers


_MODEL_KEYS = {"knn": ("knn.k", "knn.similarity"),
               "nmf": ("nmf.factors", "nmf.iters", "nmf.rel_tol")}
# Each name-valued key's names; a key whose default is a kind takes any kind.
_CHOICES = {**{key: SIMILARITIES for key, value in DEFAULTS.items()
               if value in SIMILARITIES},
            "data.item_sample_mode": ITEM_SAMPLE_MODES}
_FLOORS = {"data.sample_users": 0, "data.sample_items": 0,
           "features.epsilon": 0, "mds.max_points": 3, "mds.refine_iters": 0,
           "nmf.rel_tol": 0, "seed": 0}


def _check_options(cfg: dict, *keys: str) -> None:
    """Refuse among ``keys`` a name outside ``_CHOICES``, or a fraction
    outside its interval or a number below its floor (1 unless ``_FLOORS``
    says otherwise), checking each entry of a list."""
    for key in keys:
        value, names = cfg[key], _CHOICES.get(key)
        if names:
            ok, rule = value in names, "be one of " + ", ".join(names)
        elif key in ("features.epsilon_quantile", "influence.thetas"):
            ok = all(0 <= v <= 1 for v in _numbers(cfg, key, float))
            rule = "lie in [0, 1]"
        elif key == "eval.test_fraction":
            ok, rule = 0 < value < 1, "lie in (0, 1)"
        elif key == "tree.holdout_fraction":
            ok, rule = 0 <= value < 1, "lie in [0, 1)"
        elif key == "tree.max_depth":
            ok, rule = 1 <= value <= 10, "lie in [1, 10]"
        else:
            floor = _FLOORS.get(key, 1)
            kind = float if isinstance(DEFAULTS[key], float) else int
            ok = all(v >= floor for v in _numbers(cfg, key, kind))
            rule = f"be at least {floor}"
        if not ok:
            raise ValueError(f"{key} must {rule}, got {value!r}")


def cmd_ingest(args, cfg: dict, out: Path) -> int:
    _check_options(cfg, "data.sample_users", "data.sample_items")
    if cfg["data.sample_items"]:
        _check_options(cfg, "data.item_sample_mode")
    ds = load_ratings(args.input, format=cfg["data.format"],
                      sep=cfg["data.sep"],
                      columns=tuple(cfg["data.columns"].split(",")),
                      has_header=cfg["data.has_header"])
    # user ids head the CSV rows, whose fields are never quoted
    bad = [uid for uid in ds.user_ids if "," in uid]
    if bad:
        raise DatasetError(f"user id {bad[0]!r} holds a comma")
    if cfg["data.sample_users"]:
        ds = sample_users(ds, cfg["data.sample_users"], cfg["seed"])
    if cfg["data.sample_items"]:
        ds = sample_items(ds, cfg["data.sample_items"],
                          mode=cfg["data.item_sample_mode"], seed=cfg["seed"])
    path = out / "dataset.tsv"
    stats = compute_stats(ds)
    _save_dataset(ds, path, stats)
    artifacts.write_sidecar(path, cfg, artifacts.file_sha256(path),
                            {"stats": stats.to_dict()})
    print(f"ingested {stats.n_ratings} ratings: {stats.n_users} users x "
          f"{stats.n_items} items, sparsity {stats.sparsity:.4f}")
    return 0


def cmd_train(args, cfg: dict, out: Path) -> int:
    mc = model_config(cfg)
    ds = load_dataset(args.dataset)
    ds_hash = artifacts.file_sha256(args.dataset)
    model = mc.train(ds)
    artifacts.save_model(model, out / "model", ds_hash)
    artifacts.write_sidecar(out / "model.json", cfg, ds_hash)
    print(f"trained {model.algorithm} model on {ds.n_users} users")
    return 0


def cmd_evaluate(args, cfg: dict, out: Path) -> int:
    mc = model_config(cfg)
    _check_options(cfg, "list.length", "eval.test_fraction")
    ds = load_dataset(args.dataset)
    ds_hash = artifacts.file_sha256(args.dataset)
    train, test = train_test_split(ds, cfg["eval.test_fraction"], cfg["seed"])
    model = mc.train(train)
    metrics = evaluate(model, test, cfg["list.length"],
                       cfg["eval.relevance_threshold"])
    payload = {"config": cfg, "dataset_sha256": ds_hash,
               "metrics": metrics}
    (out / "evaluate.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    print(f"precision_at_l={metrics['precision_at_l']!r} "
          f"recall_at_l={metrics['recall_at_l']!r}")
    return 0


def cmd_influence(args, cfg: dict, out: Path) -> int:
    thetas = _numbers(cfg, "influence.thetas", float)
    mc = model_config(cfg)
    _check_options(cfg, "influence.thetas", "influence.top_k", "list.length",
                   "influence.warm_iters")
    top_ks = _numbers(cfg, "influence.top_k", int)
    ds = load_dataset(args.dataset)
    ds_hash = artifacts.file_sha256(args.dataset)
    report = influence.influence_all(
        ds, mc, cfg["list.length"],
        warm_start=cfg["influence.warm_start"],
        warm_iters=cfg["influence.warm_iters"])
    path = artifacts.write_influence_csv(report, ds, out / "influence.csv")
    artifacts.write_sidecar(path, cfg, ds_hash, report.to_meta())
    # top sets larger than the dataset clamp to "everyone"
    top_ks = sorted({min(t, ds.n_users) for t in top_ks})
    curves = [influence.group_influence(report, top_k, thresholds=thetas)
              for top_k in top_ks]
    gpath = artifacts.write_group_curves_csv(curves,
                                             out / "group_influence.csv")
    artifacts.write_sidecar(gpath, cfg, ds_hash, report.to_meta())
    n = ds.n_users
    line = (f"influence computed for {n} users ({len(report.failures)} "
            f"failures; {report.lists_rebuilt} of {n * (n - 1)} lists rebuilt")
    if report.config.algorithm == "nmf":
        line += (f"; {report.nmf_iters} NMF iterations, "
                 f"{report.nmf_early_stops} early stops")
    print(line + ")")
    return 0


def cmd_features(args, cfg: dict, out: Path) -> int:
    mc, fc = model_config(cfg), feature_config(cfg)
    # beta3 always reads a kNN model, so its keys are checked for NMF too
    _check_options(cfg, "list.length", *_MODEL_KEYS["knn"],
                   "features.similarity", "features.user_distance",
                   "features.item_distance", "features.epsilon",
                   "features.epsilon_quantile")
    ds = load_dataset(args.dataset)
    ds_hash = artifacts.file_sha256(args.dataset)
    table = features.extract_all(ds, mc, cfg["list.length"], fc)
    path = artifacts.write_features_csv(table, out / "features.csv")
    artifacts.write_sidecar(path, cfg, ds_hash,
                            {"feature_config": table.config})
    print(f"extracted {table.values.shape[1]} features for "
          f"{table.n_users} users")
    return 0


def cmd_fit_tree(args, cfg: dict, out: Path) -> int:
    _check_options(cfg, "tree.max_depth", "tree.min_samples_leaf",
                   "tree.holdout_fraction")
    ids, x = artifacts.read_features_csv(args.features)
    tids, y = artifacts.read_influence_csv(args.influence)
    if ids != tids:
        raise DatasetError("feature and influence tables disagree on users")
    ok = ~np.isnan(y)
    x, y = x[ok], y[ok]
    holdout = cfg["tree.holdout_fraction"]
    fit = np.arange(len(y))
    if holdout:
        perm = np.random.default_rng(cfg["seed"]).permutation(len(y))
        n_test = int(np.floor(holdout * len(y)))
        if not 0 < n_test < len(y) - 1:
            raise DatasetError("holdout fraction leaves too few rows")
        test, fit = perm[:n_test], perm[n_test:]
    tree = predictor.fit_tree(x[fit], y[fit],
                              max_depth=cfg["tree.max_depth"],
                              min_samples_leaf=cfg["tree.min_samples_leaf"])
    meta = ({"holdout_metrics": predictor.fit_metrics(tree, x[test], y[test])}
            if holdout else {})
    tree_path = artifacts.write_tree_json(tree, out / "tree.json")
    bpath = artifacts.write_boundaries_csv(predictor.export_boundaries(tree),
                                           out / "boundaries.csv")
    meta.update({"r2": tree.r2, "mse": tree.mse,
                 "importances": [float(v) for v in tree.importances]})
    artifacts.write_sidecar(tree_path, cfg, "", meta)
    artifacts.write_sidecar(bpath, cfg, "", meta)
    print(f"tree depth {tree.depth}, r2={tree.r2!r} mse={tree.mse!r}")
    return 0


def cmd_mds(args, cfg: dict, out: Path) -> int:
    _check_options(cfg, "mds.distance", "mds.max_points", "mds.segments",
                   "mds.refine_iters")
    ds = load_dataset(args.dataset)
    ds_hash = artifacts.file_sha256(args.dataset)
    ids, infl = artifacts.read_influence_csv(args.influence)
    if list(ids) != list(ds.user_ids):
        raise DatasetError("influence report does not match the dataset")
    embedding = analysis.mds_embed(ds, distance=cfg["mds.distance"],
                                   max_points=cfg["mds.max_points"],
                                   seed=cfg["seed"],
                                   refine_iters=cfg["mds.refine_iters"])
    labels = analysis.segment_by_influence(infl, cfg["mds.segments"])
    epath = artifacts.write_embedding_csv(embedding, ds, infl, labels,
                                          out / "embedding.csv")
    artifacts.write_sidecar(epath, cfg, ds_hash, {"stress": embedding.stress})
    stats = analysis.centrality_dispersion(embedding, labels)
    dpath = artifacts.write_dispersion_csv(stats, out / "dispersion.csv")
    artifacts.write_sidecar(dpath, cfg, ds_hash)
    print(f"embedded {len(embedding.user_indices)} users, "
          f"stress={embedding.stress!r}")
    return 0


def _median(values: list[float]) -> float:
    """``np.median`` of NaN-free floats, bit for bit, without the numpy.ma
    import its NaN check makes: the same ``np.partition``, then the mean of
    the middle one or two values as ``np.mean`` sums them, from +0.0."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(0.0 + np.partition(values, [mid, -1])[mid])
    part = np.partition(values, [mid - 1, mid, -1])
    return float((0.0 + part[mid - 1] + part[mid]) / 2)


def cmd_report(args, cfg: dict, out: Path) -> int:
    report: dict = {"config": cfg, "stages": {}}
    for name in ("influence", "group_influence", "features", "embedding",
                 "dispersion", "boundaries"):
        path = out / f"{name}.csv"
        if path.exists():
            header, rows = artifacts.read_csv(path)
            report["stages"][name] = {"header": header, "rows": rows}
    for name in ("tree", "evaluate"):
        path = out / f"{name}.json"
        if path.exists():
            report["stages"][name] = json.loads(
                path.read_text(encoding="utf-8"))
    if "influence" in report["stages"]:
        vals = [float(r[1]) for r in report["stages"]["influence"]["rows"]]
        finite = [v for v in vals if not np.isnan(v)]
        report["summary"] = {
            "n_users": len(vals),
            "influence_total": sum(finite),
            "influence_max": max(finite) if finite else None,
            "influence_median": _median(finite) if finite else None,
        }
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"report written with {len(report['stages'])} stages")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``main`` reads a fresh namespace from
    it on every call."""
    # A config-backed option's dest is its DEFAULTS key, which --help shows
    # as its metavar; resolve_config reads the keys straight from vars(args).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out-dir")
    common.add_argument("--workers", type=int,
                        help="at least 1; accepted for compatibility, "
                             "removals run serially")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--algo", choices=("knn", "nmf"))
    model.add_argument("--k", dest="knn.k", type=int)
    model.add_argument("--similarity", dest="knn.similarity",
                       choices=SIMILARITIES)
    model.add_argument("--factors", dest="nmf.factors", type=int)
    model.add_argument("--iters", dest="nmf.iters", type=int)
    model.add_argument("--masked", dest="nmf.masked",
                       action=argparse.BooleanOptionalAction)
    model.add_argument("--l", dest="list.length", type=int)

    parser = argparse.ArgumentParser(
        prog="recinfluence",
        description="Audit per-user influence on collaborative filtering "
                    "recommendations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="parse a ratings file into the canonical dump")
    p.add_argument("--input", required=True)
    p.add_argument("--format", dest="data.format", choices=sorted(FORMATS))
    p.add_argument("--sep", dest="data.sep")
    p.add_argument("--columns", dest="data.columns")
    p.add_argument("--has-header", dest="data.has_header",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--sample-users", dest="data.sample_users", type=int)
    p.add_argument("--sample-items", dest="data.sample_items", type=int)
    p.add_argument("--item-sample-mode", dest="data.item_sample_mode",
                   choices=ITEM_SAMPLE_MODES)

    p = sub.add_parser("train", parents=[common, model],
                       help="fit a model and dump it")
    p.add_argument("--dataset", required=True)

    p = sub.add_parser("evaluate", parents=[common, model],
                       help="precision/recall at l on a held-out split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test-fraction", dest="eval.test_fraction", type=float)
    p.add_argument("--relevance-threshold", dest="eval.relevance_threshold",
                   type=float)

    p = sub.add_parser("influence", parents=[common, model],
                       help="per-user influence and group curves")
    p.add_argument("--dataset", required=True)
    p.add_argument("--top-k", dest="influence.top_k")
    p.add_argument("--thetas", dest="influence.thetas")
    p.add_argument("--warm-start", dest="influence.warm_start",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--warm-iters", dest="influence.warm_iters", type=int)

    p = sub.add_parser("features", parents=[common, model],
                       help="per-user feature table")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epsilon", dest="features.epsilon", type=float)
    p.add_argument("--epsilon-quantile", dest="features.epsilon_quantile",
                   type=float)

    p = sub.add_parser("fit-tree", parents=[common],
                       help="regression tree from features to influence")
    p.add_argument("--features", required=True)
    p.add_argument("--influence", required=True)
    p.add_argument("--max-depth", dest="tree.max_depth", type=int)
    p.add_argument("--min-samples-leaf", dest="tree.min_samples_leaf",
                   type=int)
    p.add_argument("--holdout-fraction", dest="tree.holdout_fraction",
                   type=float)

    p = sub.add_parser("mds", parents=[common],
                       help="2-D embedding with influence segments")
    p.add_argument("--dataset", required=True)
    p.add_argument("--influence", required=True)
    p.add_argument("--distance", dest="mds.distance", choices=SIMILARITIES)
    p.add_argument("--max-points", dest="mds.max_points", type=int)
    p.add_argument("--segments", dest="mds.segments", type=int)
    p.add_argument("--refine-iters", dest="mds.refine_iters", type=int)

    p = sub.add_parser("report", parents=[common],
                       help="bundle stage outputs into one JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a cmd_* rebound after the parser was built
    # (a tracer's wrapper, a test's stub) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        cfg = resolve_config(args)
        if args.workers is not None and args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        _check_options(cfg, "seed")
        out = Path(cfg["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        return command(args, cfg, out)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
