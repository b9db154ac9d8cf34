import hashlib
import json

import numpy as np
import pytest

from recinfluence import artifacts
from recinfluence.data import save_dataset
from recinfluence.influence import influence_all
from recinfluence.recommender import (ModelConfig, continue_nmf, recommend,
                                      train_knn, train_nmf)
from recinfluence.predictor import fit_tree

from conftest import random_dataset


class TestModelDump:
    def test_knn_round_trip_reproduces_recommendations(self, tmp_path, toy):
        model = train_knn(toy, 2, "pearson")
        artifacts.save_model(model, tmp_path / "model")
        back = artifacts.load_model(tmp_path / "model", toy)
        assert np.array_equal(back.neighbors, model.neighbors)
        assert np.array_equal(back.neighbor_sims, model.neighbor_sims)
        assert np.array_equal(back.item_means, model.item_means)
        for u in range(5):
            assert recommend(back, u, 3) == recommend(model, u, 3)

    def test_nmf_round_trip_bit_exact(self, tmp_path, toy):
        model = train_nmf(toy, 2, seed=9, n_iters=40)
        artifacts.save_model(model, tmp_path / "model")
        back = artifacts.load_model(tmp_path / "model", toy)
        assert np.array_equal(back.p, model.p)
        assert np.array_equal(back.q, model.q)
        assert back.objective_history == model.objective_history

    def test_dump_rejects_wrong_dataset(self, tmp_path, toy):
        model = train_knn(toy, 2, "pearson")
        artifacts.save_model(model, tmp_path / "model")
        other = random_dataset(5, 6, 0.5, seed=1)
        with pytest.raises(ValueError, match="does not match"):
            artifacts.load_model(tmp_path / "model", other)

    def test_header_lists_hyperparameters(self, tmp_path, toy):
        model = train_nmf(toy, 2, seed=9, n_iters=40)
        artifacts.save_model(model, tmp_path / "model")
        header = json.loads((tmp_path / "model.json").read_text())
        assert header["algorithm"] == "nmf"
        assert header["factors"] == 2
        assert header["seed"] == 9


class TestCsvFormats:
    def test_lf_line_endings_and_header(self, tmp_path, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 2)
        path = artifacts.write_influence_csv(report, toy,
                                             tmp_path / "influence.csv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"user_id,influence,rank\n")

    def test_floats_round_trip_exactly(self, tmp_path, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 2)
        path = artifacts.write_influence_csv(report, toy,
                                             tmp_path / "influence.csv")
        _, values = artifacts.read_influence_csv(path)
        assert np.array_equal(values, report.influence)

    def test_sidecar_carries_config_and_hash(self, tmp_path, toy):
        path = save_dataset(toy, tmp_path / "d.tsv")
        side = artifacts.write_sidecar(path, {"algo": "knn"},
                                       artifacts.dataset_hash(toy))
        doc = json.loads(side.read_text())
        assert doc["config"] == {"algo": "knn"}
        assert doc["dataset_sha256"] == artifacts.dataset_hash(toy)

    def test_dataset_hash_tracks_content(self, toy):
        other = random_dataset(5, 6, 0.5, seed=3)
        assert artifacts.dataset_hash(toy) != artifacts.dataset_hash(other)
        assert artifacts.dataset_hash(toy) == artifacts.dataset_hash(toy)

    def test_dataset_hash_is_sha256_of_saved_dump(self, tmp_path):
        ds = random_dataset(30, 50, 0.2, seed=9)
        path = save_dataset(ds, tmp_path / "d.tsv")
        assert artifacts.dataset_hash(ds) == \
            hashlib.sha256(path.read_bytes()).hexdigest()

    def test_tree_json_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.random((20, 3))
        tree = fit_tree(x, rng.random(20), max_depth=3, min_samples_leaf=2)
        path = artifacts.write_tree_json(tree, tmp_path / "tree.json")
        back = artifacts.read_tree_json(path)
        assert back.to_json() == tree.to_json()


class TestNmfModes:
    def test_unmasked_objective_covers_full_matrix(self, toy):
        model = train_nmf(toy, 2, seed=3, n_iters=60, masked=False)
        ratings, _ = toy.dense
        resid = ratings - model.p @ model.q.T
        assert model.final_objective == pytest.approx(
            float(np.sum(resid ** 2)), rel=1e-9)
        hist = model.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_masked_and_unmasked_differ(self, toy):
        masked = train_nmf(toy, 2, seed=3, n_iters=60, masked=True)
        unmasked = train_nmf(toy, 2, seed=3, n_iters=60, masked=False)
        assert not np.array_equal(masked.p, unmasked.p)

    def test_continue_nmf_shape_validation(self, toy):
        model = train_nmf(toy, 2, seed=3, n_iters=10)
        with pytest.raises(ValueError):
            continue_nmf(toy, model.p[:-1], model.q, seed=3, n_iters=5)
        with pytest.raises(ValueError):
            continue_nmf(toy, model.p, model.q[:, :1], seed=3, n_iters=5)

    def test_divergence_reported_as_failure(self, toy):
        from recinfluence.recommender import TrainingError, _nmf_iterate
        ratings, mask = toy.dense
        w = mask.astype(float)
        rng = np.random.default_rng(0)
        p = rng.random((5, 2))
        q = rng.random((6, 2))
        # a fabricated "previous objective" below any reachable value
        with pytest.raises(TrainingError, match="increased"):
            _nmf_iterate(ratings, w, p, q, 1, 0.0, [-1.0])
