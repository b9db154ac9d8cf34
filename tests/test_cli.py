import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recinfluence
from recinfluence import artifacts, predictor, similarity
from recinfluence.cli import (DEFAULTS, build_parser, main,
                              parse_config_file, resolve_config)
from recinfluence.data import load_dataset
from recinfluence.features import centrality, neighborhood_membership
from recinfluence.influence import influence_all, influence_oracle
from recinfluence.recommender import ModelConfig, train_knn

from conftest import TOY_ROWS, random_dataset


def write_toy_csv(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("\n".join(f"{u},{i},{v}" for u, i, v in TOY_ROWS) + "\n")
    return f


def ingest_toy(tmp_path):
    raw = write_toy_csv(tmp_path)
    out = tmp_path / "work"
    assert main(["ingest", "--input", str(raw), "--format", "csv",
                 "--out-dir", str(out)]) == 0
    return out


def ingest_random(tmp_path, n_users=30, n_items=50, seed=7):
    ds = random_dataset(n_users, n_items, 0.2, seed=seed)
    raw = tmp_path / "random.csv"
    raw.write_text("".join(
        f"{ds.user_ids[u]},{ds.item_ids[i]},{v}\n"
        for u, i, v in zip(ds.user_idx, ds.item_idx, ds.values)))
    out = tmp_path / "work"
    assert main(["ingest", "--input", str(raw), "--format", "csv",
                 "--out-dir", str(out)]) == 0
    return out


class TestIngest:
    def test_writes_dump_stats_and_sidecar(self, tmp_path, capsys):
        out = ingest_toy(tmp_path)
        assert (out / "dataset.tsv").exists()
        side = json.loads((out / "dataset.json").read_text())
        assert side["stats"]["n_users"] == 5
        assert side["stats"]["sparsity"] == 0.5
        meta = json.loads((out / "dataset.tsv.meta.json").read_text())
        assert meta["config"]["data.format"] == "csv"
        assert len(meta["dataset_sha256"]) == 64
        assert "sparsity 0.5" in capsys.readouterr().out

    def test_round_trips_through_load(self, tmp_path):
        out = ingest_toy(tmp_path)
        ds = load_dataset(out / "dataset.tsv")
        assert ds.n_ratings == 15

    def test_tsv_format_preset(self, tmp_path):
        raw = tmp_path / "toy.tsv"
        raw.write_text("\n".join(f"{u}\t{i}\t{v}" for u, i, v in TOY_ROWS)
                       + "\n")
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "tsv",
                     "--out-dir", str(out)]) == 0
        side = json.loads((out / "dataset.json").read_text())
        assert side["stats"]["n_ratings"] == 15

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(tmp_path / "absent.csv"),
                     "--format", "csv", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,i1,oops\n")
        assert main(["ingest", "--input", str(bad), "--format", "csv",
                     "--out-dir", str(tmp_path)]) == 2


class TestTrainAndEvaluate:
    def test_train_dumps_reloadable_model(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "nmf", "--factors", "2", "--seed", "42",
                     "--iters", "50", "--out-dir", str(out)]) == 0
        ds = load_dataset(out / "dataset.tsv")
        model = artifacts.load_model(out / "model", ds)
        direct = ModelConfig("nmf", factors=2, seed=42, n_iters=50).train(ds)
        assert np.array_equal(model.p, direct.p)
        assert np.array_equal(model.q, direct.q)

    def test_train_dumps_knn_model(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--similarity", "cosine",
                     "--out-dir", str(out)]) == 0
        ds = load_dataset(out / "dataset.tsv")
        model = artifacts.load_model(out / "model", ds)
        direct = ModelConfig("knn", k=2, similarity="cosine").train(ds)
        assert np.array_equal(model.neighbors, direct.neighbors)
        assert np.array_equal(model.neighbor_sims, direct.neighbor_sims)

    def test_train_hashes_the_dataset_once(self, tmp_path, monkeypatch):
        out = ingest_toy(tmp_path)
        calls = []
        real = artifacts.dataset_hash

        def counting(ds):
            calls.append(ds)
            return real(ds)

        monkeypatch.setattr(artifacts, "dataset_hash", counting)
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--out-dir", str(out)]) == 0
        assert len(calls) == 1
        digest = real(load_dataset(out / "dataset.tsv"))
        header = json.loads((out / "model.json").read_text())
        sidecar = json.loads((out / "model.json.meta.json").read_text())
        assert header["dataset_sha256"] == digest
        assert sidecar["dataset_sha256"] == digest

    def test_evaluate_writes_metrics(self, tmp_path):
        out = ingest_toy(tmp_path)
        code = main(["evaluate", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "3",
                     "--test-fraction", "0.34",
                     "--relevance-threshold", "3.0",
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "evaluate.json").read_text())
        assert 0.0 <= doc["metrics"]["precision_at_l"] <= 1.0
        assert 0.0 <= doc["metrics"]["recall_at_l"] <= 1.0
        assert doc["config"]["eval.test_fraction"] == 0.34


class TestInfluenceCommand:
    def test_csv_rows_equal_oracle_loop(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "2",
                     "--top-k", "1", "--out-dir", str(out)]) == 0
        header, rows = artifacts.read_csv(out / "influence.csv")
        assert header == ["user_id", "influence", "rank"]
        assert len(rows) == 5
        ds = load_dataset(out / "dataset.tsv")
        cfg = ModelConfig("knn", k=2)
        for user_id, value, _rank in rows:
            u = list(ds.user_ids).index(user_id)
            assert float(value) == influence_oracle(ds, cfg, u, 2)

    def test_closing_line_counts_rebuilt_lists(self, tmp_path, capsys):
        out = ingest_toy(tmp_path)
        capsys.readouterr()
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "1", "--l", "2",
                     "--top-k", "1", "--out-dir", str(out)]) == 0
        ds = load_dataset(out / "dataset.tsv")
        rebuilt = influence_all(ds, ModelConfig("knn", k=1), 2).lists_rebuilt
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"influence computed for 5 users (0 failures; {rebuilt} of 20 "
            "lists rebuilt)")

    def test_group_curve_schema_and_monotonicity(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "2",
                     "--top-k", "1,2", "--out-dir", str(out)]) == 0
        header, rows = artifacts.read_csv(out / "group_influence.csv")
        assert header == ["top_k", "theta", "fraction_influenced"]
        assert len(rows) == 18          # 2 top_k values x 9 thetas
        by_k = {}
        for top_k, theta, frac in rows:
            by_k.setdefault(int(top_k), []).append(float(frac))
        for series in by_k.values():
            assert series == sorted(series, reverse=True)
        assert all(a <= b for a, b in zip(by_k[1], by_k[2]))

    def test_workers_do_not_change_bytes(self, tmp_path):
        out = ingest_toy(tmp_path)
        blobs = []
        for workers, sub in ((1, "w1"), (8, "w8")):
            d = tmp_path / sub
            assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                         "--algo", "nmf", "--factors", "2", "--seed", "7",
                         "--iters", "40", "--l", "2", "--top-k", "2",
                         "--workers", str(workers),
                         "--out-dir", str(d)]) == 0
            blobs.append(((d / "influence.csv").read_bytes(),
                          (d / "group_influence.csv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_identical_runs_byte_identical(self, tmp_path):
        out = ingest_toy(tmp_path)
        first = {}
        for attempt in range(2):
            assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                         "--algo", "knn", "--k", "2", "--l", "2",
                         "--out-dir", str(out)]) == 0
            blobs = {name: (out / name).read_bytes()
                     for name in ("influence.csv", "group_influence.csv",
                                  "influence.csv.meta.json")}
            if attempt == 0:
                first = blobs
            else:
                assert blobs == first


class TestFeatureAndTreeCommands:
    def test_features_csv_matches_module(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "3",
                     "--out-dir", str(out)]) == 0
        ids, values = artifacts.read_features_csv(out / "features.csv")
        assert values.shape == (5, 8)
        assert ids == ["u1", "u2", "u3", "u4", "u5"]
        assert values[0, 0] == 3.0          # u1 profile size
        assert values[0, 5] == 3.0          # u1 median popularity
        meta = json.loads((out / "features.csv.meta.json").read_text())
        assert meta["feature_config"]["epsilon"] > 0

    def test_features_bytes_equal_across_blas_threads(self, tmp_path):
        # Half-star ratings take the matrix-product similarity kernel; its
        # sums are exact, so the BLAS thread count cannot change a byte.
        rng = np.random.default_rng(11)
        rows = [f"u{u},i{i},{rng.integers(1, 11) / 2}"
                for u in range(100) for i in range(200)
                if rng.random() < 0.1]
        raw = tmp_path / "half.csv"
        raw.write_text("\n".join(rows) + "\n")
        work = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     "--out-dir", str(work)]) == 0
        src = str(Path(recinfluence.__file__).resolve().parents[1])
        blobs = []
        for threads in ("1", "2"):
            d = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "recinfluence", "features",
                 "--dataset", str(work / "dataset.tsv"), "--k", "5",
                 "--l", "10", "--out-dir", str(d)],
                env=env, check=True, capture_output=True, timeout=300)
            blobs.append((d / "features.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_zero_quantile_epsilon_exits_2(self, tmp_path, capsys):
        # Implicit feedback: five users share one item, so their cosine
        # distances (10 of the 21 pairs) are 0 and so is the 25% quantile.
        rows = [(f"u{j}", "shared", 1) for j in range(5)]
        rows += [("u5", "a", 1), ("u5", "b", 1), ("u6", "b", 1),
                 ("u6", "c", 1)]
        raw = tmp_path / "implicit.csv"
        raw.write_text("".join(f"{u},{i},{v}\n" for u, i, v in rows))
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "1",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "0.25 quantile" in err and "is 0," in err
        assert "--epsilon" in err and "--epsilon-quantile" in err
        assert not (out / "features.csv").exists()

    def test_features_for_nmf_run_use_standalone_knn_structure(self,
                                                               tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "nmf", "--factors", "2", "--seed", "42",
                     "--iters", "50", "--k", "2", "--l", "3",
                     "--out-dir", str(out)]) == 0
        ids, values = artifacts.read_features_csv(out / "features.csv")
        # beta3 comes from the k=2 neighborhood structure
        from recinfluence.data import load_dataset as _ld
        from recinfluence.recommender import train_knn
        from recinfluence.features import neighborhood_membership
        ds = _ld(out / "dataset.tsv")
        knn_model = train_knn(ds, 2, "pearson")
        for u in range(5):
            assert values[u, 2] == neighborhood_membership(knn_model, u)
        meta = json.loads((out / "features.csv.meta.json").read_text())
        assert meta["config"]["algo"] == "nmf"
        assert meta["feature_config"]["k"] == 2

    def test_fit_tree_pipeline(self, tmp_path):
        out = ingest_toy(tmp_path)
        main(["influence", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        main(["features", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        code = main(["fit-tree", "--features", str(out / "features.csv"),
                     "--influence", str(out / "influence.csv"),
                     "--max-depth", "3", "--min-samples-leaf", "1",
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "tree.json").read_text())
        imp = doc["importances"]
        assert len(imp) == 8
        total = sum(imp)
        assert total == 0.0 or abs(total - 1.0) < 1e-9
        header, _ = artifacts.read_csv(out / "boundaries.csv")
        assert header == ["feature", "threshold", "depth", "side",
                          "leaf_value"]


class TestFeaturesShareOneSimilarityMatrix:
    @pytest.mark.parametrize("algo", ["knn", "nmf"])
    def test_one_user_pearson_pass(self, tmp_path, monkeypatch, algo):
        out = ingest_random(tmp_path)
        n = load_dataset(out / "dataset.tsv").n_users
        calls = []
        real = similarity._similarity_rows

        def counting(kind, a, *rest, **kwargs):
            if kind == "pearson" and a.shape[0] == n:
                calls.append(kind)
            return real(kind, a, *rest, **kwargs)

        monkeypatch.setattr(similarity, "_similarity_rows", counting)
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", algo, "--out-dir", str(out)]) == 0
        assert len(calls) == 1

    def test_cosine_features_with_pearson_knn(self, tmp_path):
        out = ingest_random(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("features.similarity = cosine\n")
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--config", str(cfgfile), "--k", "5",
                     "--out-dir", str(out)]) == 0
        _, values = artifacts.read_features_csv(out / "features.csv")
        ds = load_dataset(out / "dataset.tsv")
        knn_model = train_knn(ds, 5, "pearson")
        for u in range(ds.n_users):
            assert values[u, 1] == centrality(ds, u, similarity="cosine")
            assert values[u, 2] == neighborhood_membership(knn_model, u)
        # the two kinds disagree here, so the check above can tell them apart
        assert any(values[u, 1] != centrality(ds, u, similarity="pearson")
                   for u in range(ds.n_users))
        assert not np.array_equal(
            values[:, 2], [neighborhood_membership(
                train_knn(ds, 5, "cosine"), u) for u in range(ds.n_users)])


class TestFitTreeExact:
    @pytest.mark.parametrize("holdout", [0.0, 0.2])
    def test_tree_is_the_fit_on_the_training_rows(self, tmp_path, holdout):
        out = ingest_random(tmp_path)
        for stage in ("influence", "features"):
            assert main([stage, "--dataset", str(out / "dataset.tsv"),
                         "--k", "5", "--l", "5", "--out-dir", str(out)]) == 0
        assert main(["fit-tree", "--features", str(out / "features.csv"),
                     "--influence", str(out / "influence.csv"),
                     "--max-depth", "4", "--min-samples-leaf", "2",
                     "--holdout-fraction", str(holdout), "--seed", "3",
                     "--out-dir", str(out)]) == 0
        _, x = artifacts.read_features_csv(out / "features.csv")
        _, y = artifacts.read_influence_csv(out / "influence.csv")
        ok = ~np.isnan(y)
        x, y = x[ok], y[ok]
        rows = np.arange(len(y))
        if holdout:
            n_test = int(np.floor(holdout * len(y)))
            rows = np.random.default_rng(3).permutation(len(y))[n_test:]
        expected = predictor.fit_tree(x[rows], y[rows], max_depth=4,
                                      min_samples_leaf=2)
        assert (out / "tree.json").read_text() == expected.to_json() + "\n"
        if holdout:
            every_row = predictor.fit_tree(x, y, max_depth=4,
                                           min_samples_leaf=2)
            assert expected.to_json() != every_row.to_json()


class TestFitTreeHoldout:
    def test_holdout_metrics_in_sidecar(self, tmp_path):
        out = ingest_toy(tmp_path)
        main(["influence", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        main(["features", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        code = main(["fit-tree", "--features", str(out / "features.csv"),
                     "--influence", str(out / "influence.csv"),
                     "--max-depth", "2", "--min-samples-leaf", "1",
                     "--holdout-fraction", "0.25",
                     "--out-dir", str(out)])
        assert code == 0
        meta = json.loads((out / "tree.json.meta.json").read_text())
        assert "holdout_metrics" in meta
        assert "mse" in meta["holdout_metrics"]


class TestMdsAndReport:
    def test_mds_outputs(self, tmp_path):
        out = ingest_toy(tmp_path)
        main(["influence", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        code = main(["mds", "--dataset", str(out / "dataset.tsv"),
                     "--influence", str(out / "influence.csv"),
                     "--segments", "2", "--out-dir", str(out)])
        assert code == 0
        header, rows = artifacts.read_csv(out / "embedding.csv")
        assert header == ["user_id", "x", "y", "segment", "influence"]
        assert len(rows) == 5
        header, rows = artifacts.read_csv(out / "dispersion.csv")
        assert header == ["segment", "mean_radius", "mean_pairwise_distance"]
        assert [r[0] for r in rows] == ["0", "1"]

    @pytest.mark.parametrize("max_points", ["0", "1", "2"])
    def test_mds_max_points_below_three_exits_2(self, tmp_path, capsys,
                                                max_points):
        out = ingest_toy(tmp_path)
        main(["influence", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["mds", "--dataset", str(out / "dataset.tsv"),
                     "--influence", str(out / "influence.csv"),
                     "--max-points", max_points,
                     "--out-dir", str(out)]) == 2
        assert "mds.max_points" in capsys.readouterr().err
        assert not (out / "embedding.csv").exists()

    def test_report_bundles_stages(self, tmp_path):
        out = ingest_toy(tmp_path)
        main(["influence", "--dataset", str(out / "dataset.tsv"),
              "--algo", "knn", "--k", "2", "--l", "2",
              "--out-dir", str(out)])
        assert main(["report", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert "influence" in doc["stages"]
        assert doc["summary"]["n_users"] == 5
        assert doc["summary"]["influence_max"] >= \
            doc["summary"]["influence_median"]


class TestConfigResolution:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("algo = nmf\nnmf.factors = 9\nseed = 5\n"
                           "# comment line\nlist.length = 7\n")
        parsed = parse_config_file(cfgfile)
        assert parsed == {"algo": "nmf", "nmf.factors": 9, "seed": 5,
                          "list.length": 7}

        args = build_parser().parse_args(
            ["train", "--dataset", "d.tsv", "--config", str(cfgfile),
             "--factors", "3"])
        cfg = resolve_config(args)
        assert cfg["algo"] == "nmf"       # from file
        assert cfg["nmf.factors"] == 3    # flag wins
        assert cfg["seed"] == 5           # from file
        assert cfg["knn.k"] == 20         # default

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("no.such.key = 1\n")
        with pytest.raises(Exception):
            parse_config_file(cfgfile)

    def test_config_file_drives_command(self, tmp_path):
        out = ingest_toy(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("algo = knn\nknn.k = 2\nlist.length = 2\n"
                           f"out_dir = {out}\n")
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--config", str(cfgfile)]) == 0
        meta = json.loads((out / "influence.csv.meta.json").read_text())
        assert meta["config"]["knn.k"] == 2
        assert meta["config"]["list.length"] == 2


# Each subcommand's required arguments, so that one option can be parsed.
REQUIRED = {
    "ingest": ["--input", "r.csv"],
    "train": ["--dataset", "d.tsv"],
    "evaluate": ["--dataset", "d.tsv"],
    "influence": ["--dataset", "d.tsv"],
    "features": ["--dataset", "d.tsv"],
    "fit-tree": ["--features", "f.csv", "--influence", "i.csv"],
    "mds": ["--dataset", "d.tsv", "--influence", "i.csv"],
    "report": [],
}

# (subcommand, option and value, config key, resolved value): one row per
# config-backed option, each value off its key's default.
FLAG_CASES = [
    ("ingest", ["--format", "csv"], "data.format", "csv"),
    ("ingest", ["--sep", ";"], "data.sep", ";"),
    ("ingest", ["--columns", "item,user,rating"], "data.columns",
     "item,user,rating"),
    ("ingest", ["--has-header"], "data.has_header", True),
    ("ingest", ["--sample-users", "7"], "data.sample_users", 7),
    ("ingest", ["--sample-items", "9"], "data.sample_items", 9),
    ("ingest", ["--item-sample-mode", "popularity"],
     "data.item_sample_mode", "popularity"),
    ("train", ["--sample-users", "7"], "data.sample_users", 7),
    ("train", ["--algo", "nmf"], "algo", "nmf"),
    ("train", ["--k", "3"], "knn.k", 3),
    ("train", ["--similarity", "cosine"], "knn.similarity", "cosine"),
    ("train", ["--factors", "4"], "nmf.factors", 4),
    ("train", ["--iters", "30"], "nmf.iters", 30),
    ("train", ["--no-masked"], "nmf.masked", False),
    ("train", ["--seed", "11"], "seed", 11),
    ("train", ["--l", "4"], "list.length", 4),
    ("train", ["--out-dir", "elsewhere"], "out_dir", "elsewhere"),
    ("influence", ["--warm-start"], "influence.warm_start", True),
    ("influence", ["--warm-iters", "5"], "influence.warm_iters", 5),
    ("influence", ["--top-k", "1,2"], "influence.top_k", "1,2"),
    ("influence", ["--thetas", "0.5"], "influence.thetas", "0.5"),
    ("features", ["--epsilon", "0.3"], "features.epsilon", 0.3),
    ("features", ["--epsilon-quantile", "0.5"],
     "features.epsilon_quantile", 0.5),
    ("fit-tree", ["--max-depth", "3"], "tree.max_depth", 3),
    ("fit-tree", ["--min-samples-leaf", "2"], "tree.min_samples_leaf", 2),
    ("fit-tree", ["--holdout-fraction", "0.25"], "tree.holdout_fraction",
     0.25),
    ("mds", ["--distance", "pearson"], "mds.distance", "pearson"),
    ("mds", ["--max-points", "50"], "mds.max_points", 50),
    ("mds", ["--segments", "2"], "mds.segments", 2),
    ("mds", ["--refine-iters", "6"], "mds.refine_iters", 6),
    ("evaluate", ["--test-fraction", "0.3"], "eval.test_fraction", 0.3),
    ("evaluate", ["--relevance-threshold", "3.5"],
     "eval.relevance_threshold", 3.5),
]


class TestFlagKeys:
    @pytest.mark.parametrize("command,option,key,value", FLAG_CASES,
                             ids=[f"{c[0]}{c[1][0]}" for c in FLAG_CASES])
    def test_option_sets_its_config_key(self, command, option, key, value):
        args = build_parser().parse_args([command, *REQUIRED[command],
                                          *option])
        cfg = resolve_config(args)
        assert cfg[key] == value
        assert type(cfg[key]) is type(value)
        assert {k for k in cfg if cfg[k] != DEFAULTS[k]} == {key}

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage:")


class TestConfigValueTypes:
    @pytest.mark.parametrize("line,message", [
        ("nmf.masked = no", "nmf.masked expects true or false, got 'no'"),
        ("knn.k = abc", "knn.k expects an integer, got 'abc'"),
        ("knn.k = 2.5", "knn.k expects an integer, got '2.5'"),
        ("knn.k = true", "knn.k expects an integer, got 'true'"),
        ("nmf.rel_tol = small", "nmf.rel_tol expects a number, got 'small'"),
    ], ids=["bool", "int-word", "int-float", "int-bool", "float-word"])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, line, message):
        out = ingest_toy(tmp_path)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# typed values\n{line}\n")
        capsys.readouterr()
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "nmf", "--config", str(cfgfile),
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfgfile}: line 2: {message}\n")
        assert not (out / "model.json").exists()

    def test_values_keep_their_type(self, tmp_path):
        # float keys keep an integer as written, so sidecars stay unchanged
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("nmf.masked = False\nknn.k = 3\n"
                           "features.epsilon = 0\nnmf.rel_tol = 1e-4\n"
                           "influence.top_k = 10\n")
        parsed = parse_config_file(cfgfile)
        assert parsed == {"nmf.masked": False, "knn.k": 3,
                          "features.epsilon": 0, "nmf.rel_tol": 1e-4,
                          "influence.top_k": "10"}
        assert type(parsed["features.epsilon"]) is int


class TestGroupOptionsCheckedFirst:
    @pytest.mark.parametrize("option,message", [
        (["--thetas", "0.1,x"],
         "influence.thetas expects comma-separated numbers, got '0.1,x'"),
        (["--top-k", "2,y"],
         "influence.top_k expects comma-separated numbers, got '2,y'"),
        (["--top-k", "0"], "influence.top_k must be at least 1, got '0'"),
    ], ids=["thetas-word", "top-k-word", "top-k-zero"])
    def test_bad_option_exits_2_before_audit(self, tmp_path, capsys,
                                             option, message):
        out = ingest_toy(tmp_path)
        capsys.readouterr()
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "2", *option,
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "influence.csv").exists()
        assert not (out / "influence.csv.meta.json").exists()
