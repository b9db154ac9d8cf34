import hashlib
import json

import numpy as np
import pytest

from recinfluence import artifacts, data
from recinfluence.data import load_dataset, save_dataset
from recinfluence.influence import influence_all
from recinfluence.recommender import (ModelConfig, continue_nmf, train_knn,
                                      train_nmf)
from recinfluence.predictor import fit_tree

from conftest import build_dataset, random_dataset
from oracles import load_model, recommend


def dump_hash(ds, tmp_path):
    return artifacts.file_sha256(save_dataset(ds, tmp_path / "d.tsv"))


class TestModelDump:
    def test_knn_round_trip_reproduces_recommendations(self, tmp_path, toy):
        model = train_knn(toy, 2, "pearson")
        artifacts.save_model(model, tmp_path / "model",
                             dump_hash(toy, tmp_path))
        back = load_model(tmp_path / "model", toy)
        assert np.array_equal(back.neighbors, model.neighbors)
        assert np.array_equal(back.neighbor_sims, model.neighbor_sims)
        assert np.array_equal(back.item_means, model.item_means)
        for u in range(5):
            assert recommend(back, u, 3) == recommend(model, u, 3)

    def test_nmf_round_trip_bit_exact(self, tmp_path, toy):
        model = train_nmf(toy, 2, seed=9, n_iters=40)
        artifacts.save_model(model, tmp_path / "model",
                             dump_hash(toy, tmp_path))
        back = load_model(tmp_path / "model", toy)
        assert np.array_equal(back.p, model.p)
        assert np.array_equal(back.q, model.q)
        assert back.objective_history == model.objective_history

    def test_header_lists_hyperparameters(self, tmp_path, toy):
        model = train_nmf(toy, 2, seed=9, n_iters=40)
        digest = dump_hash(toy, tmp_path)
        artifacts.save_model(model, tmp_path / "model", digest)
        header = json.loads((tmp_path / "model.json").read_text())
        assert header["algorithm"] == "nmf"
        assert header["factors"] == 2
        assert header["seed"] == 9
        assert header["dataset_sha256"] == digest


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
                                       artifacts.file_sha256(path))
        doc = json.loads(side.read_text())
        assert doc["config"] == {"algo": "knn"}
        assert doc["dataset_sha256"] == artifacts.file_sha256(path)

    def test_file_sha256_tracks_content(self, tmp_path, toy):
        other = random_dataset(5, 6, 0.5, seed=3)
        path = save_dataset(toy, tmp_path / "d.tsv")
        other_path = save_dataset(other, tmp_path / "other.tsv")
        assert artifacts.file_sha256(path) != artifacts.file_sha256(other_path)
        assert artifacts.file_sha256(path) == artifacts.file_sha256(path)

    def test_file_sha256_is_sha256_of_saved_dump(self, tmp_path):
        ds = random_dataset(30, 50, 0.2, seed=9)
        path = save_dataset(ds, tmp_path / "d.tsv")
        assert artifacts.file_sha256(path) == \
            hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200000])
    @pytest.mark.parametrize("block", [1, 7, 65536])
    def test_file_sha256_reads_every_block(self, tmp_path, monkeypatch,
                                           size, block):
        raw = bytes(range(256)) * (size // 256) + bytes(size % 256)
        path = tmp_path / "f.bin"
        path.write_bytes(raw)
        monkeypatch.setattr(artifacts, "_HASH_BLOCK", block)
        assert artifacts.file_sha256(path) == hashlib.sha256(raw).hexdigest()

    def test_dump_and_hash_equal_numpy_scalar_formula(self, tmp_path):
        # the dump formats tolist() values; the old formula formatted the
        # numpy scalars themselves
        ds = build_dataset([("a", "x", -0.0), ("a", "y", 1e-05),
                            ("b", "x", 1e+16), ("b", "z", 0.1 + 0.2),
                            ("c", "y", 4.5)])
        old = "".join(f"{u}\t{i}\t{repr(float(v))}\n"
                      for u, i, v in zip(ds.user_idx, ds.item_idx,
                                         ds.values))
        assert "-0.0" in old and "1e-05" in old and "1e+16" in old
        assert "0.30000000000000004" in old
        path = save_dataset(ds, tmp_path / "d.tsv")
        assert path.read_bytes() == old.encode()
        digest = hashlib.sha256(old.encode()).hexdigest()
        assert artifacts.file_sha256(path) == digest
        reread = load_dataset(path)
        assert np.array_equal(reread.values.view(np.int64),
                              ds.values.view(np.int64))

    @pytest.mark.parametrize("block", [1, 2, 7, 600, 65536])
    def test_blocks_join_to_the_whole_dump(self, tmp_path, monkeypatch,
                                           block):
        ds = random_dataset(30, 50, 0.2, seed=9)
        whole = "".join(f"{u}\t{i}\t{v!r}\n"
                        for u, i, v in zip(ds.user_idx.tolist(),
                                           ds.item_idx.tolist(),
                                           ds.values.tolist())).encode()
        monkeypatch.setattr(data, "_DUMP_BLOCK", block)
        path = save_dataset(ds, tmp_path / "d.tsv")
        assert path.read_bytes() == whole
        assert artifacts.file_sha256(path) == \
            hashlib.sha256(whole).hexdigest()

    def test_tree_json_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.random((20, 3))
        tree = fit_tree(x, rng.random(20), max_depth=3, min_samples_leaf=2)
        path = artifacts.write_tree_json(tree, tmp_path / "tree.json")
        assert json.loads(path.read_text(encoding="utf-8")) == \
            json.loads(tree.to_json())


class TestNmfModes:
    def test_unmasked_objective_covers_full_matrix(self, toy):
        model = train_nmf(toy, 2, seed=3, n_iters=60, masked=False)
        ratings = toy.ratings()
        resid = ratings - model.p @ model.q.T
        assert model.objective_history[-1] == pytest.approx(
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
        ratings, mask = toy.ratings(), toy.mask
        rng = np.random.default_rng(0)
        p = rng.random((5, 2))
        q = rng.random((6, 2))
        # a fabricated "previous objective" below any reachable value
        with pytest.raises(TrainingError, match="increased"):
            _nmf_iterate(ratings, mask, p, q, 1, 0.0, [-1.0])
