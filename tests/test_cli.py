import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import recinfluence
from recinfluence import (analysis, artifacts, cli, features, influence,
                          predictor, recommender, similarity)
from recinfluence.cli import (DEFAULTS, build_parser, main,
                              parse_config_file, resolve_config)
from recinfluence.data import load_dataset
from recinfluence.influence import influence_all, influence_oracle
from recinfluence.recommender import ModelConfig, train_knn

from conftest import TOY_ROWS, order_statistic_arrays, random_dataset
from oracles import centrality, load_model, neighborhood_membership


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


def ingest_random(tmp_path, n_users=30, n_items=50, seed=7, density=0.2):
    ds = random_dataset(n_users, n_items, density, seed=seed)
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

    def test_builds_the_dump_text_once(self, tmp_path, monkeypatch):
        from recinfluence import data
        calls, lines = [], []
        real = data._dump_blocks

        def counting(ds):
            calls.append(ds)
            for block in real(ds):
                lines.extend(block.splitlines())
                yield block

        # 15 ratings in blocks of 4: each is formatted once and written
        monkeypatch.setattr(data, "_DUMP_BLOCK", 4)
        monkeypatch.setattr(data, "_dump_blocks", counting)
        out = ingest_toy(tmp_path)
        assert len(calls) == 1
        assert len(lines) == 15
        meta = json.loads((out / "dataset.tsv.meta.json").read_text())
        assert meta["dataset_sha256"] == hashlib.sha256(
            (out / "dataset.tsv").read_bytes()).hexdigest()
        assert meta["dataset_sha256"] == artifacts.file_sha256(
            out / "dataset.tsv")

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

    def test_dataset_that_is_not_a_dump_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "ratings.csv"
        raw.write_text("u1,i1,4\nu2,i1,3\n")
        assert main(["influence", "--dataset", str(raw),
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {raw}: no sidecar {tmp_path / 'ratings.json'}"
                       "; --dataset takes a dump written by ingest\n")
        assert not (tmp_path / "influence.csv").exists()

    def test_sidecar_without_r_min_exits_2(self, tmp_path, capsys):
        out = ingest_toy(tmp_path)
        side_path = out / "dataset.json"
        side = json.loads(side_path.read_text())
        del side["r_min"]
        side_path.write_text(json.dumps(side))
        capsys.readouterr()
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2",
                     "--out-dir", str(tmp_path / "model")]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'dataset.tsv'}: sidecar {side_path} lacks "
            "r_min\n")
        assert not (tmp_path / "model" / "model.tsv").exists()

    @pytest.mark.parametrize("key,value,kind", [
        ("r_min", "low", "a finite number"),
        ("item_ids", 7, "a list of strings"),
        ("r_min", [1], "a finite number"),
        ("r_max", None, "a finite number"),
        ("user_ids", "abc", "a list of strings"),
    ], ids=["r_min-word", "item_ids-int", "r_min-list", "r_max-null",
            "user_ids-string"])
    def test_malformed_sidecar_exits_2(self, tmp_path, capsys, key, value,
                                       kind):
        out = ingest_toy(tmp_path)
        side_path = out / "dataset.json"
        side = json.loads(side_path.read_text())
        side[key] = value
        side_path.write_text(json.dumps(side))
        capsys.readouterr()
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2",
                     "--out-dir", str(tmp_path / "model")]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'dataset.tsv'}: sidecar {side_path}: {key} is "
            f"not {kind}\n")
        assert not (tmp_path / "model" / "model.tsv").exists()

    @pytest.mark.parametrize("key", ["user_ids", "item_ids"])
    def test_repeated_id_in_sidecar_exits_2(self, tmp_path, capsys, key):
        out = ingest_toy(tmp_path)
        side_path = out / "dataset.json"
        side = json.loads(side_path.read_text())
        ids = side[key]
        side[key] = [ids[0], ids[0], *ids[2:]]
        side_path.write_text(json.dumps(side))
        capsys.readouterr()
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--k", "1", "--l", "1", "--top-k", "1",
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: {out / 'dataset.tsv'}: sidecar {side_path}: {key} "
            f"repeats {ids[0]!r}\n")
        assert not (tmp_path / "run" / "influence.csv").exists()

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,i1,oops\n")
        assert main(["ingest", "--input", str(bad), "--format", "csv",
                     "--out-dir", str(tmp_path)]) == 2


    def test_rating_whose_square_overflows_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("u1,i1,1e300\nu2,i1,3\n")
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(big), "--format", "csv",
                     "--out-dir", str(out)]) == 2
        assert "1e+300" in capsys.readouterr().err
        assert not (out / "dataset.tsv").exists()

    def test_user_id_with_comma_exits_2(self, tmp_path, capsys):
        # the CSV artifacts lead each row with the user id, unquoted
        raw = tmp_path / "ids.tsv"
        raw.write_text("a,1\tx\t5\nb\ty\t3\n")
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "tsv",
                     "--out-dir", str(out)]) == 2
        assert "'a,1'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_item_id_with_comma_is_kept(self, tmp_path):
        raw = tmp_path / "ids.tsv"
        raw.write_text("a\tx,1\t5\nb\ty\t3\n")
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "tsv",
                     "--out-dir", str(out)]) == 0
        assert load_dataset(out / "dataset.tsv").item_ids == ("x,1", "y")


class TestTrainAndEvaluate:
    def test_train_dumps_reloadable_model(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "nmf", "--factors", "2", "--seed", "42",
                     "--iters", "50", "--out-dir", str(out)]) == 0
        ds = load_dataset(out / "dataset.tsv")
        model = load_model(out / "model", ds)
        direct = ModelConfig("nmf", factors=2, seed=42, n_iters=50).train(ds)
        assert np.array_equal(model.p, direct.p)
        assert np.array_equal(model.q, direct.q)

    def test_train_dumps_knn_model(self, tmp_path):
        out = ingest_toy(tmp_path)
        assert main(["train", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--similarity", "cosine",
                     "--out-dir", str(out)]) == 0
        ds = load_dataset(out / "dataset.tsv")
        model = load_model(out / "model", ds)
        direct = ModelConfig("knn", k=2, similarity="cosine").train(ds)
        assert np.array_equal(model.neighbors, direct.neighbors)
        assert np.array_equal(model.neighbor_sims, direct.neighbor_sims)

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


class TestDatasetSha256:
    def test_hand_written_dump_hashes_as_its_bytes(self, tmp_path):
        # "4" where ingest writes "4.0": the same dataset, other bytes
        dump = tmp_path / "dataset.tsv"
        dump.write_bytes("".join(f"{u}\t{i}\t{v}\n" for u, i, v in [
            (0, 0, 4), (0, 1, 3.5), (1, 0, 2), (1, 2, 5), (2, 1, 1),
            (2, 2, 4)]).encode())
        (tmp_path / "dataset.json").write_text(json.dumps({
            "user_ids": ["a", "b", "c"], "item_ids": ["x", "y", "z"],
            "r_min": 1.0, "r_max": 5.0}))
        digest = hashlib.sha256(dump.read_bytes()).hexdigest()
        out = tmp_path / "work"
        for stage, extra in (("train", []), ("influence", ["--top-k", "1"])):
            assert main([stage, "--dataset", str(dump), "--algo", "knn",
                         "--k", "1", "--l", "1", *extra,
                         "--out-dir", str(out)]) == 0
        for name in ("model.json", "model.json.meta.json",
                     "influence.csv.meta.json",
                     "group_influence.csv.meta.json"):
            doc = json.loads((out / name).read_text())
            assert doc["dataset_sha256"] == digest, name

    @pytest.mark.parametrize("stage", ["train", "evaluate", "influence",
                                       "features", "mds"])
    def test_stage_hashes_the_dump_file_once(self, tmp_path, monkeypatch,
                                             stage):
        from recinfluence import data
        out = ingest_random(tmp_path)
        dump = out / "dataset.tsv"
        assert main(["influence", "--dataset", str(dump), "--k", "2",
                     "--l", "2", "--out-dir", str(out)]) == 0
        hashed, formatted = [], []
        real = artifacts.file_sha256
        monkeypatch.setattr(artifacts, "file_sha256",
                            lambda path: hashed.append(path) or real(path))
        monkeypatch.setattr(data, "_dump_blocks",
                            lambda ds: formatted.append(ds) or iter(()))
        options = (["--influence", str(out / "influence.csv")]
                   if stage == "mds" else ["--k", "2", "--l", "2"])
        run = tmp_path / stage
        assert main([stage, "--dataset", str(dump), *options,
                     "--out-dir", str(run)]) == 0
        assert len(hashed) == 1 and formatted == []
        # the sidecars, and train's model.json and evaluate.json
        written = [json.loads(path.read_text()) for path in run.glob("*.json")]
        digest = hashlib.sha256(dump.read_bytes()).hexdigest()
        assert written and all(doc["dataset_sha256"] == digest
                               for doc in written)


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

    def test_closing_line_counts_nmf_iterations(self, tmp_path, capsys):
        out = ingest_toy(tmp_path)
        capsys.readouterr()
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "nmf", "--factors", "2", "--iters", "15",
                     "--l", "2", "--top-k", "1", "--out-dir", str(out)]) == 0
        # five retrains, each running all 15 iterations
        assert capsys.readouterr().out.splitlines()[-1] == (
            "influence computed for 5 users (0 failures; 20 of 20 lists "
            "rebuilt; 75 NMF iterations, 0 early stops)")

    @pytest.mark.parametrize("field,index", [(0, "999"), (0, "-1"),
                                             (1, "6")])
    def test_dump_index_outside_its_axis_exits_2(self, tmp_path, capsys,
                                                 field, index):
        out = ingest_toy(tmp_path)
        dump = out / "dataset.tsv"
        lines = dump.read_text().splitlines()
        parts = lines[4].split("\t")
        parts[field] = index
        lines[4] = "\t".join(parts)
        dump.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["influence", "--dataset", str(dump), "--algo", "knn",
                     "--k", "2", "--l", "2", "--out-dir", str(out)]) == 2
        name, size = ("user", 5) if field == 0 else ("item", 6)
        assert capsys.readouterr().err == (
            f"error: {dump}: {name} index {index} out of range "
            f"[0, {size})\n")
        assert not (out / "influence.csv").exists()

    @pytest.mark.parametrize("rating", ["nan", "inf", "-inf"])
    def test_dump_rating_not_finite_exits_2(self, tmp_path, capsys, rating):
        out = ingest_toy(tmp_path)
        dump = out / "dataset.tsv"
        lines = dump.read_text().splitlines()
        parts = lines[4].split("\t")
        parts[2] = rating
        lines[4] = "\t".join(parts)
        dump.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["influence", "--dataset", str(dump), "--algo", "knn",
                     "--k", "2", "--l", "2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {dump}: rating {rating} is not finite\n")
        assert not (out / "influence.csv").exists()

    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_warm_iters_below_one_exits_2_before_audit(self, tmp_path,
                                                       capsys, iters):
        out = ingest_toy(tmp_path)
        capsys.readouterr()
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "nmf", "--factors", "2", "--iters", "15",
                     "--l", "2", "--warm-start", "--warm-iters", iters,
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: influence.warm_iters must be at least 1, got {iters}\n")
        assert not (out / "influence.csv").exists()
        assert not (out / "group_influence.csv").exists()

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

    def test_sidecar_records_only_the_run_list_length(self, tmp_path):
        # 8 items: no list can reach l = 10, so the longest list is shorter
        rng = np.random.default_rng(3)
        raw = tmp_path / "ratings.csv"
        raw.write_text("".join(f"u{u},i{i},{rng.integers(1, 6)}\n"
                               for u in range(12) for i in range(8)
                               if i == u % 8 or rng.random() < 0.5))
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     "--out-dir", str(out)]) == 0
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--k", "3", "--l", "10", "--epsilon", "0.5",
                     "--out-dir", str(out)]) == 0
        meta = json.loads((out / "features.csv.meta.json").read_text())
        assert meta["config"]["list.length"] == 10
        assert sorted(meta["feature_config"]) == [
            "epsilon", "item_distance", "k", "similarity", "user_distance"]

    def test_features_bytes_equal_across_blas_threads(self, tmp_path):
        # Half-star ratings take the matrix-product similarity kernel and,
        # for item cosine, the float32 item Gram; their sums are exact, so
        # the BLAS thread count cannot change a byte.
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
        for item_distance in ("cosine", "pearson"):
            config = tmp_path / f"{item_distance}.cfg"
            config.write_text(f"features.item_distance = {item_distance}\n")
            blobs = []
            for threads in ("1", "2"):
                d = tmp_path / f"{item_distance}{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join(
                               [src, os.environ.get("PYTHONPATH", "")]))
                subprocess.run(
                    [sys.executable, "-m", "recinfluence", "features",
                     "--dataset", str(work / "dataset.tsv"), "--k", "5",
                     "--l", "10", "--config", str(config),
                     "--out-dir", str(d)],
                    env=env, check=True, capture_output=True, timeout=300)
                blobs.append((d / "features.csv").read_bytes())
                side = json.loads(
                    (d / "features.csv.meta.json").read_text())
                assert side["feature_config"]["item_distance"] == \
                    item_distance
            assert blobs[0] == blobs[1]

    def test_nmf_bytes_equal_across_blas_threads(self, tmp_path):
        # nmf-loo's shape and model settings; the audit retrains per removal
        work = ingest_random(tmp_path, n_users=100, n_items=200, seed=17,
                             density=0.05)
        src = str(Path(recinfluence.__file__).resolve().parents[1])
        names = ("model.tsv", "influence.csv", "group_influence.csv")
        blobs = []
        for threads in ("1", "2"):
            d = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            model = ["--dataset", str(work / "dataset.tsv"), "--algo", "nmf",
                     "--factors", "8", "--iters", "40", "--out-dir", str(d)]
            for stage in (["train"], ["influence", "--l", "10",
                                      "--top-k", "10,50"]):
                subprocess.run(
                    [sys.executable, "-m", "recinfluence", *stage, *model],
                    env=env, check=True, capture_output=True, timeout=300)
            blobs.append([(d / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("algo,knn_kind", [
        pytest.param("knn", "pearson", id="pearson"),
        pytest.param("knn", "cosine", id="cosine"),
        pytest.param("nmf", "pearson", id="nmf")])
    def test_similarity_matrix_freed_before_other_square_arrays(
            self, tmp_path, monkeypatch, algo, knn_kind):
        # features.similarity stays pearson; knn.similarity agrees or not
        out = ingest_random(tmp_path)
        refs, live = [], []
        real = features.user_similarity_matrix

        def built(*args, **kwargs):
            sims = real(*args, **kwargs)
            refs.append(weakref.ref(sims))
            return sims

        def checked(module, name):
            inner = getattr(module, name)

            def run(*args, **kwargs):
                live.append((name, any(ref() is not None for ref in refs)))
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, run)

        monkeypatch.setattr(features, "user_similarity_matrix", built)
        checked(features, "user_distance_matrix")
        checked(features, "top_lists")
        # the kNN fit's own pass, when the kinds differ
        checked(recommender, "user_similarity_matrix")
        checked(recommender, "train_nmf")
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", algo, "--factors", "3", "--iters", "10",
                     "--k", "3", "--l", "4", "--similarity", knn_kind,
                     "--out-dir", str(out)]) == 0
        expected = [("top_lists", False), ("user_distance_matrix", False)]
        if algo == "nmf":
            expected.insert(0, ("train_nmf", False))
        if knn_kind != "pearson":
            expected.insert(0, ("user_similarity_matrix", False))
        assert len(refs) == 1
        assert live == expected

    def test_mds_bytes_equal_across_blas_threads(self, tmp_path):
        # At 300 users classical_mds's products and eigh, and the
        # refinement's products, split across two BLAS threads unless
        # pinned to one; the half-star distances are exact either way.
        rng = np.random.default_rng(5)
        rows = [f"u{u},i{i},{rng.integers(1, 11) / 2}"
                for u in range(300) for i in range(600)
                if rng.random() < 0.04 or i == u]
        raw = tmp_path / "half.csv"
        raw.write_text("\n".join(rows) + "\n")
        work = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     "--out-dir", str(work)]) == 0
        ids = load_dataset(work / "dataset.tsv").user_ids
        (work / "influence.csv").write_text("user_id,influence\n" + "".join(
            f"{uid},{rng.random()!r}\n" for uid in ids))
        src = str(Path(recinfluence.__file__).resolve().parents[1])
        names = ("embedding.csv", "dispersion.csv")
        for options in (["--refine-iters", "0"],
                        ["--refine-iters", "50", "--max-points", "290"]):
            blobs = []
            for threads in ("1", "2"):
                d = tmp_path / f"mds{options[1]}-{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join(
                               [src, os.environ.get("PYTHONPATH", "")]))
                subprocess.run(
                    [sys.executable, "-m", "recinfluence", "mds",
                     "--dataset", str(work / "dataset.tsv"),
                     "--influence", str(work / "influence.csv"), *options,
                     "--out-dir", str(d)],
                    env=env, check=True, capture_output=True, timeout=300)
                side = json.loads(
                    (d / "embedding.csv.meta.json").read_text())
                blobs.append([(d / name).read_bytes() for name in names]
                             + [repr(side["stress"])])
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

        def counting(kind, ds, *rest, **kwargs):
            if kind == "pearson" and ds.n_users == n:
                calls.append(kind)
            return real(kind, ds, *rest, **kwargs)

        monkeypatch.setattr(similarity, "_similarity_rows", counting)
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", algo, "--out-dir", str(out)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("algo", ["knn", "nmf"])
    def test_one_neighbor_sort(self, tmp_path, monkeypatch, algo):
        out = ingest_random(tmp_path)
        calls = []
        real = recommender._neighbor_order

        def counting(sim, depth):
            calls.append(depth)
            return real(sim, depth)

        monkeypatch.setattr(recommender, "_neighbor_order", counting)
        assert main(["features", "--dataset", str(out / "dataset.tsv"),
                     "--algo", algo, "--k", "5", "--out-dir", str(out)]) == 0
        assert calls == [6]

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


class TestOneUserFeatures:
    """One user has no pair to take a distance quantile over."""

    def run(self, tmp_path, *extra):
        raw = tmp_path / "one.csv"
        raw.write_text("a,x,5\na,y,3\n")
        out = tmp_path / "work"
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     "--out-dir", str(out)]) == 0
        with pytest.warns(UserWarning, match="reduced"):
            code = main(["features", "--dataset", str(out / "dataset.tsv"),
                         "--algo", "knn", "--k", "1", "--l", "2",
                         "--out-dir", str(out), *extra])
        return code, out / "features.csv"

    def test_quantile_epsilon_exits_2(self, tmp_path, capsys):
        code, path = self.run(tmp_path)
        assert code == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not path.exists()

    def test_given_epsilon_runs(self, tmp_path):
        code, path = self.run(tmp_path, "--epsilon", "0.5")
        assert code == 0
        ids, values = artifacts.read_features_csv(path)
        assert ids == ["a"] and values.shape == (1, 8)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_median_equals_np_median(self, seed):
        # report's median of the finite influence values, bit for bit
        for values in order_statistic_arrays(seed):
            got, want = cli._median(values.tolist()), np.median(values)
            assert np.float64(got).view(np.int64) == \
                np.float64(want).view(np.int64), values.tolist()


class TestOneParserPerProcess:
    # Options set by one call that a later call leaves unset: --seed and
    # --sample-users (ingest), --k, --l and --no-masked (influence),
    # --algo and --factors (the first train).
    STAGES = [
        ["ingest", "--input", "ratings.csv", "--format", "csv",
         "--sample-users", "25", "--seed", "3", "--out-dir", "out"],
        ["influence", "--dataset", "out/dataset.tsv", "--k", "3", "--l", "4",
         "--top-k", "2,5", "--no-masked", "--out-dir", "out"],
        ["train", "--dataset", "out/dataset.tsv", "--algo", "nmf",
         "--factors", "2", "--iters", "5", "--out-dir", "out"],
        ["train", "--dataset", "out/dataset.tsv", "--out-dir", "out/plain"],
        ["influence", "--dataset", "out/dataset.tsv", "--top-k", "0",
         "--out-dir", "out/bad"],
    ]

    @staticmethod
    def _files(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def test_calls_in_one_process_equal_separate_runs(self, tmp_path,
                                                      monkeypatch):
        assert build_parser() is build_parser()
        ds = random_dataset(30, 50, 0.2, seed=12)
        text = "".join(f"{ds.user_ids[u]},{ds.item_ids[i]},{v}\n"
                       for u, i, v in zip(ds.user_idx, ds.item_idx,
                                          ds.values))
        together, apart = tmp_path / "together", tmp_path / "apart"
        for d in (together, apart):
            d.mkdir()
            (d / "ratings.csv").write_text(text)
        monkeypatch.chdir(together)
        codes = [main(argv) for argv in self.STAGES]
        src = str(Path(recinfluence.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        separate = [subprocess.run(
            [sys.executable, "-m", "recinfluence", *argv], cwd=apart,
            env=env, capture_output=True, timeout=300).returncode
            for argv in self.STAGES]
        assert codes == separate == [0, 0, 0, 0, 2]
        files = self._files(together / "out")
        assert files == self._files(apart / "out")
        plain = json.loads(files["plain/model.json.meta.json"])["config"]
        assert (plain["algo"], plain["knn.k"], plain["seed"],
                plain["list.length"], plain["data.sample_users"],
                plain["nmf.masked"]) == ("knn", 20, 0, 10, 0, True)


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


class TestSamplingOnlyAtIngest:
    def test_one_config_file_runs_the_whole_pipeline(self, tmp_path, capsys):
        # sampling 12 items prunes users, so the dump holds fewer than the
        # 20 sampled users; the later stages read it as it is
        ds = random_dataset(40, 60, 0.1, seed=3)
        raw = tmp_path / "ratings.csv"
        raw.write_text("".join(
            f"{ds.user_ids[u]},{ds.item_ids[i]},{v}\n"
            for u, i, v in zip(ds.user_idx, ds.item_idx, ds.values)))
        out = tmp_path / "work"
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "data.format = csv\ndata.sample_users = 20\n"
            "data.sample_items = 12\nknn.k = 3\nlist.length = 2\n"
            f"influence.top_k = 2\nmds.segments = 2\nout_dir = {out}\n")
        cfg = ["--config", str(cfgfile)]
        dataset = ["--dataset", str(out / "dataset.tsv")]
        influence_csv = ["--influence", str(out / "influence.csv")]
        stages = [["ingest", "--input", str(raw)], ["influence", *dataset],
                  ["features", *dataset],
                  ["fit-tree", "--features", str(out / "features.csv"),
                   *influence_csv],
                  ["mds", *dataset, *influence_csv], ["report"]]
        assert [main([*argv, *cfg]) for argv in stages] == [0] * 6, \
            capsys.readouterr().err
        n = load_dataset(out / "dataset.tsv").n_users
        assert n < 20
        for name in ("influence", "features", "embedding"):
            assert len(artifacts.read_csv(out / f"{name}.csv")[1]) == n
        meta = json.loads((out / "features.csv.meta.json").read_text())
        assert meta["config"]["data.sample_users"] == 20

    @pytest.mark.parametrize("command", ["train", "evaluate", "influence",
                                         "features", "mds"])
    def test_stage_refuses_sample_users(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], "--sample-users", "5"])
        assert exc.value.code == 2
        assert "--sample-users" in capsys.readouterr().err


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

# Options of every subcommand, and of the four that fit a model.
COMMON_CASES = [
    (["--seed", "11"], "seed", 11),
    (["--out-dir", "elsewhere"], "out_dir", "elsewhere"),
]
MODEL_CASES = [
    (["--algo", "nmf"], "algo", "nmf"),
    (["--k", "3"], "knn.k", 3),
    (["--similarity", "cosine"], "knn.similarity", "cosine"),
    (["--factors", "4"], "nmf.factors", 4),
    (["--iters", "30"], "nmf.iters", 30),
    (["--no-masked"], "nmf.masked", False),
    (["--l", "4"], "list.length", 4),
]
MODEL_STAGES = ("train", "evaluate", "influence", "features")

# (subcommand, option and value, config key, resolved value): one row per
# config-backed option of each subcommand, each value off its key's default.
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
] + [(command, *case) for command in REQUIRED for case in COMMON_CASES] + [
    (command, *case) for command in MODEL_STAGES for case in MODEL_CASES]


def _subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


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

    def test_table_lists_every_config_option(self):
        # adding or removing a config-backed flag fails until FLAG_CASES
        # lists it
        exposed = {(command, action.dest)
                   for command, sub in _subcommands().items()
                   for action in sub._actions if action.dest in DEFAULTS}
        listed = [(c[0], c[2]) for c in FLAG_CASES]
        assert len(set(listed)) == len(listed)
        assert exposed == set(listed)
        assert set(_subcommands()) == set(REQUIRED)

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


# (stage, bad option, message): each stage refuses these before it reads
# the dataset.
STAGE_CASES = [
    ("train", ["--k", "0"], "knn.k must be at least 1, got 0"),
    ("train", ["--algo", "nmf", "--factors", "0"],
     "nmf.factors must be at least 1, got 0"),
    ("train", ["--algo", "nmf", "--iters", "0"],
     "nmf.iters must be at least 1, got 0"),
    ("evaluate", ["--l", "0"], "list.length must be at least 1, got 0"),
    ("evaluate", ["--k", "-1"], "knn.k must be at least 1, got -1"),
    ("evaluate", ["--algo", "nmf", "--factors", "0"],
     "nmf.factors must be at least 1, got 0"),
    ("influence", ["--algo", "nmf", "--factors", "0"],
     "nmf.factors must be at least 1, got 0"),
    ("influence", ["--algo", "nmf", "--iters", "0"],
     "nmf.iters must be at least 1, got 0"),
    ("influence", ["--warm-iters", "0"],
     "influence.warm_iters must be at least 1, got 0"),
    ("features", ["--l", "0"], "list.length must be at least 1, got 0"),
    ("features", ["--k", "0"], "knn.k must be at least 1, got 0"),
    ("features", ["--algo", "nmf", "--k", "0"],
     "knn.k must be at least 1, got 0"),
    ("features", ["--algo", "nmf", "--factors", "0"],
     "nmf.factors must be at least 1, got 0"),
    ("features", ["--algo", "nmf", "--iters", "0"],
     "nmf.iters must be at least 1, got 0"),
    ("features", ["--epsilon-quantile", "2"],
     "features.epsilon_quantile must lie in [0, 1], got 2.0"),
    ("features", ["--epsilon-quantile", "-0.5"],
     "features.epsilon_quantile must lie in [0, 1], got -0.5"),
    ("mds", ["--segments", "0"], "mds.segments must be at least 1, got 0"),
    ("evaluate", ["--test-fraction", "1.5"],
     "eval.test_fraction must lie in (0, 1), got 1.5"),
    ("evaluate", ["--test-fraction", "0"],
     "eval.test_fraction must lie in (0, 1), got 0.0"),
    ("features", ["--epsilon", "-1"],
     "features.epsilon must be at least 0, got -1.0"),
    ("mds", ["--max-points", "2"], "mds.max_points must be at least 3, got 2"),
    ("mds", ["--refine-iters", "-3"],
     "mds.refine_iters must be at least 0, got -3"),
]


@pytest.fixture
def no_work(monkeypatch):
    """Every call that reads the dataset or computes on it raises."""
    def refused(*args, **kwargs):
        raise AssertionError("the stage read or computed on the data")

    names = ("load_dataset", "user_similarity_matrix", "train_knn",
             "train_nmf", "top_lists", "mds_embed")
    for module in (cli, analysis, features, influence, recommender,
                   similarity):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)


class TestGroupOptionsCheckedFirst:
    @pytest.mark.parametrize("option,message", [
        (["--thetas", "0.1,x"],
         "influence.thetas expects comma-separated numbers, got '0.1,x'"),
        (["--top-k", "2,y"],
         "influence.top_k expects comma-separated numbers, got '2,y'"),
        (["--top-k", "0"], "influence.top_k must be at least 1, got '0'"),
        (["--l", "0"], "list.length must be at least 1, got 0"),
        (["--k", "0"], "knn.k must be at least 1, got 0"),
        (["--thetas=-1,7"], "influence.thetas must lie in [0, 1], got '-1,7'"),
        (["--thetas=0,1.5"],
         "influence.thetas must lie in [0, 1], got '0,1.5'"),
        (["--top-k", ""],
         "influence.top_k expects comma-separated numbers, got ''"),
        (["--thetas", ","],
         "influence.thetas expects comma-separated numbers, got ','"),
    ], ids=["thetas-word", "top-k-word", "top-k-zero", "l-zero", "k-zero",
            "thetas-outside", "thetas-above-one", "top-k-empty",
            "thetas-empty"])
    def test_bad_option_exits_2_before_audit(self, tmp_path, capsys,
                                             no_work, option, message):
        out = ingest_toy(tmp_path)
        capsys.readouterr()
        assert main(["influence", "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "2", *option,
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "influence.csv").exists()
        assert not (out / "influence.csv.meta.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("command", ["influence", "features"])
    def test_workers_below_one_exits_2_before_reading_data(
            self, tmp_path, capsys, no_work, command, workers):
        out = ingest_toy(tmp_path)
        before = sorted(out.iterdir())
        capsys.readouterr()
        assert main([command, "--dataset", str(out / "dataset.tsv"),
                     "--workers", workers, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: workers must be at least 1, got {workers}\n")
        assert sorted(out.iterdir()) == before

    @pytest.mark.parametrize("command,option,message", STAGE_CASES,
                             ids=[f"{c[0]}{''.join(c[1])}"
                                  for c in STAGE_CASES])
    def test_every_stage_exits_2_before_reading_data(self, tmp_path, capsys,
                                                     no_work, command,
                                                     option, message):
        out = ingest_toy(tmp_path)
        before = sorted(out.iterdir())
        capsys.readouterr()
        argv = [command, "--dataset", str(out / "dataset.tsv"),
                "--out-dir", str(out), *option]
        if command == "mds":
            argv += ["--influence", str(out / "influence.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(out.iterdir()) == before


    @pytest.mark.parametrize("value", ["-1", "nan", "-inf"])
    def test_negative_or_nan_rel_tol_exits_2_before_reading_data(
            self, tmp_path, capsys, no_work, value):
        for command in MODEL_STAGES:
            assert run_with_config(
                tmp_path / command, capsys, command,
                ["algo = nmf", f"nmf.rel_tol = {value}"]) == (
                2, f"error: nmf.rel_tol must be at least 0, got {value}\n",
                set())

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path,
                                                      capsys, no_work,
                                                      command):
        out = tmp_path / "out"
        assert main([command, *REQUIRED[command], "--seed", "-1",
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: seed must be at least 0, got -1\n")
        assert not out.exists()


# The stages that read each key whose default is a similarity kind.
KIND_STAGES = {
    "knn.similarity": ("train", "evaluate", "influence", "features"),
    "features.similarity": ("features",),
    "features.user_distance": ("features",),
    "features.item_distance": ("features",),
    "mds.distance": ("mds",),
}
KIND_KEYS = [key for key, value in DEFAULTS.items()
             if value in similarity.SIMILARITIES]


def run_with_config(tmp_path, capsys, command, lines):
    """``command`` on the toy dump with ``lines`` in a config file: its exit
    code, its stderr and the names of the files it wrote."""
    tmp_path.mkdir(exist_ok=True)
    out = ingest_toy(tmp_path)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{line}\n" for line in lines))
    before = set(out.iterdir())
    capsys.readouterr()
    argv = [command, *REQUIRED[command], "--config", str(cfgfile),
            "--out-dir", str(out)]
    argv[argv.index("--dataset") + 1] = str(out / "dataset.tsv")
    code = main(argv)
    wrote = {path.name for path in set(out.iterdir()) - before}
    return code, capsys.readouterr().err, wrote


class TestNamesCheckedFirst:
    @pytest.mark.parametrize("key", KIND_KEYS)
    def test_unknown_kind_exits_2_at_every_stage_that_reads_it(
            self, tmp_path, capsys, no_work, key):
        # a new kind key fails here until KIND_STAGES lists its stages
        for command in KIND_STAGES[key]:
            assert run_with_config(tmp_path / command, capsys, command,
                                   [f"{key} = foo"]) == (
                2, f"error: {key} must be one of pearson, cosine, got 'foo'\n",
                set())

    def test_every_kind_key_is_listed(self):
        assert set(KIND_KEYS) == set(KIND_STAGES)

    def test_kind_options_offer_exactly_the_kinds(self):
        # a new kind name reaches every flag that takes one
        offered = {(command, action.dest): tuple(action.choices)
                   for command, sub in _subcommands().items()
                   for action in sub._actions if action.dest in KIND_KEYS}
        assert {dest for _, dest in offered} == {"knn.similarity",
                                                 "mds.distance"}
        assert set(offered.values()) == {similarity.SIMILARITIES}

    @pytest.mark.parametrize("command", MODEL_STAGES)
    def test_unknown_algorithm_exits_2_before_reading_data(
            self, tmp_path, capsys, no_work, command):
        assert run_with_config(tmp_path, capsys, command, ["algo = foo"]) == (
            2, "error: unknown algorithm 'foo'\n", set())

    def test_nmf_run_ignores_knn_similarity(self, tmp_path, capsys):
        # only the algorithm's own keys are checked where no kNN model runs
        assert run_with_config(
            tmp_path, capsys, "train",
            ["algo = nmf", "nmf.iters = 3", "knn.similarity = foo"]) == (
            0, "", {"model.json", "model.tsv", "model.json.meta.json"})

    @pytest.mark.parametrize("flag,key", [
        ("--sample-users", "data.sample_users"),
        ("--sample-items", "data.sample_items")])
    def test_negative_sample_count_exits_2_before_parsing(
            self, tmp_path, capsys, monkeypatch, flag, key):
        raw = write_toy_csv(tmp_path)

        def refused(*args, **kwargs):
            raise AssertionError("the input was parsed")

        monkeypatch.setattr(cli, "load_ratings", refused)
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     flag, "-1", "--out-dir", str(tmp_path / "work")]) == 2
        assert capsys.readouterr().err == (
            f"error: {key} must be at least 0, got -1\n")
        assert not (tmp_path / "work" / "dataset.tsv").exists()

    def test_unknown_item_sample_mode_exits_2_before_parsing(
            self, tmp_path, capsys, monkeypatch):
        raw = write_toy_csv(tmp_path)

        def refused(*args, **kwargs):
            raise AssertionError("the input was parsed")

        monkeypatch.setattr(cli, "load_ratings", refused)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("data.sample_items = 3\n"
                           "data.item_sample_mode = foo\n")
        assert main(["ingest", "--input", str(raw), "--format", "csv",
                     "--config", str(cfgfile),
                     "--out-dir", str(tmp_path / "work")]) == 2
        assert capsys.readouterr().err == (
            "error: data.item_sample_mode must be one of random, "
            "popularity, got 'foo'\n")
        assert not (tmp_path / "work" / "dataset.tsv").exists()


class TestFitTreeOptionsCheckedFirst:
    @pytest.mark.parametrize("option,message", [
        (["--max-depth", "0"], "tree.max_depth must lie in [1, 10], got 0"),
        (["--max-depth", "11"],
         "tree.max_depth must lie in [1, 10], got 11"),
        (["--min-samples-leaf", "0"],
         "tree.min_samples_leaf must be at least 1, got 0"),
        (["--holdout-fraction", "1.5"],
         "tree.holdout_fraction must lie in [0, 1), got 1.5"),
        (["--holdout-fraction=-0.2"],
         "tree.holdout_fraction must lie in [0, 1), got -0.2"),
    ], ids=["depth-0", "depth-11", "leaf-0", "holdout-1.5", "holdout-neg"])
    def test_bad_option_exits_2_before_reading_inputs(
            self, tmp_path, capsys, monkeypatch, option, message):
        def refused(*args, **kwargs):
            raise AssertionError("an input table was read")

        for name in ("read_csv", "read_features_csv", "read_influence_csv"):
            monkeypatch.setattr(artifacts, name, refused)
        out = tmp_path / "work"
        out.mkdir()
        for name in ("features.csv", "influence.csv"):
            (out / name).write_text("user_id\n")
        before = sorted(out.iterdir())
        assert main(["fit-tree", "--features", str(out / "features.csv"),
                     "--influence", str(out / "influence.csv"), *option,
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(out.iterdir()) == before


@pytest.fixture(scope="module")
def toy_tables(tmp_path_factory):
    """A toy dump with its kNN influence.csv and features.csv."""
    out = ingest_toy(tmp_path_factory.mktemp("tables"))
    for command in ("influence", "features"):
        assert main([command, "--dataset", str(out / "dataset.tsv"),
                     "--algo", "knn", "--k", "2", "--l", "2",
                     "--out-dir", str(out)]) == 0
    return out


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks():
    """The lines of each fenced block in README.md."""
    return README.read_text(encoding="utf-8").split("```")[1::2]


class TestReadmeExamples:
    """The README's command lines and config example parse as written."""

    def test_command_lines_parse(self):
        text = "\n".join(_readme_blocks()).replace("\\\n", " ")
        lines = [ln for ln in text.split("\n")
                 if ln.startswith("recinfluence ")]
        assert len(lines) >= 7
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_config_example_parses(self, tmp_path):
        examples = [block for block in _readme_blocks()
                    if block.strip() and all(
                        " = " in ln for ln in block.strip().split("\n"))]
        assert examples
        for block in examples:
            path = tmp_path / "example.cfg"
            path.write_text(block)
            keys = [ln.split(" = ")[0] for ln in block.strip().split("\n")]
            assert list(parse_config_file(path)) == keys


class TestBrokenTablesExit2:
    @pytest.mark.parametrize("command,table", [
        ("fit-tree", "features.csv"), ("fit-tree", "influence.csv"),
        ("mds", "influence.csv")])
    @pytest.mark.parametrize("damage", ["empty", "short"])
    def test_empty_or_short_table_exits_2(self, tmp_path, capsys,
                                          toy_tables, command, table,
                                          damage):
        work = tmp_path / "work"
        work.mkdir()
        for name in ("features.csv", "influence.csv"):
            (work / name).write_bytes((toy_tables / name).read_bytes())
        lines = (work / table).read_text().split("\n")
        # the second row keeps its user id alone
        lines[2] = lines[2].split(",")[0]
        (work / table).write_text("" if damage == "empty"
                                  else "\n".join(lines))
        before = sorted(work.iterdir())
        argv = {"fit-tree": ["--features", str(work / "features.csv")],
                "mds": ["--dataset", str(toy_tables / "dataset.tsv")]}
        capsys.readouterr()
        assert main([command, *argv[command],
                     "--influence", str(work / "influence.csv"),
                     "--out-dir", str(work)]) == 2
        where = ("no header row" if damage == "empty"
                 else "line 3: 1 fields, the header has")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {work / table}: {where}")
        assert sorted(work.iterdir()) == before
