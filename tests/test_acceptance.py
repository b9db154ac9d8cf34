"""Acceptance gate: one test per binding criterion.

Each test prints a PASS or FAIL line on the live terminal (bypassing
capture), so the gate reads as a checklist:

    pytest tests/test_acceptance.py

Criterion 10 (full-scale dataset reproduction) is optional and runs only
when RECINFLUENCE_ML1M points at a ratings.dat file.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from recinfluence.cli import main
from recinfluence.data import load_ratings, save_dataset
from recinfluence.influence import group_influence, influence_all, influence_oracle
from recinfluence.predictor import fit_tree, predict_tree
from recinfluence.recommender import (ModelConfig, evaluate, predict_knn,
                                      train_knn, train_nmf,
                                      train_test_split)
from recinfluence.analysis import classical_mds, pairwise_euclidean, stress_of

import oracles
from conftest import (build_dataset, hub_dataset, mutual_disruption_dataset,
                      random_dataset, toy_dataset)

RANDOM_SUITE = [(50, 100, 0.10, 100 + seed) for seed in range(20)]
KNN_CFG = ModelConfig("knn", k=5, similarity="pearson")
NMF_CFG = ModelConfig("nmf", factors=3, seed=11, n_iters=30)
THETA_GRID = tuple(np.arange(1, 10) / 10)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(number, description):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"FAIL  criterion {number}: {description}")
            raise
        with capsys.disabled():
            print(f"PASS  criterion {number}: {description}")
    return run


def suite_datasets():
    return [random_dataset(n, m, d, seed=s) for n, m, d, s in RANDOM_SUITE]


def test_criterion_1_oracle_equivalence(criterion):
    with criterion(1, "leave-one-out engine equals the naive oracle "
                      "bit for bit (kNN and NMF), under 60 s"):
        start = time.time()
        cases = [(toy_dataset(), ModelConfig("knn", k=2), 2),
                 (toy_dataset(), NMF_CFG, 2)]
        cases += [(ds, cfg, 10) for ds in suite_datasets()
                  for cfg in (KNN_CFG, NMF_CFG)]
        for ds, cfg, l in cases:
            report = influence_all(ds, cfg, l)
            assert not report.failures
            for u in range(ds.n_users):
                assert float(report.influence[u]) == \
                    influence_oracle(ds, cfg, u, l)
        assert time.time() - start < 60.0


def test_criterion_2_prediction_correctness(criterion):
    with criterion(2, "kNN prediction matches direct weighted-average "
                      "arithmetic on every toy pair to 1e-12"):
        toy = toy_dataset()
        model = train_knn(toy, 2, "pearson")
        fallbacks = 0
        for u in range(toy.n_users):
            for i in range(toy.n_items):
                expected = oracles.knn_predict(toy, u, i, 2, "pearson")
                got = predict_knn(model, u, i)
                assert abs(got - expected) <= 1e-12
                nbrs = model.neighbors[u]
                mask = toy.mask
                if not mask[nbrs, i].any():
                    fallbacks += 1
        assert fallbacks > 0        # the item-mean fallback is exercised


def test_criterion_3_nmf_soundness(criterion):
    with criterion(3, "NMF objective trace non-increasing (1e-9) and exact "
                      "rank-f recovery below 1e-6, under 60 s"):
        start = time.time()
        for seed in range(10):
            ds = random_dataset(20, 30, 0.15, seed=200 + seed)
            model = train_nmf(ds, 4, seed=seed, n_iters=200, rel_tol=0.0)
            hist = model.objective_history
            assert len(hist) == 201
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        for f in (1, 2, 3):
            rng = np.random.default_rng(f)
            p0 = rng.random((10, f)) + 0.2
            q0 = rng.random((8, f)) + 0.2
            m = p0 @ q0.T
            rows = [(f"u{a:02d}", f"i{b:02d}", float(m[a, b]))
                    for a in range(10) for b in range(8)]
            ds = build_dataset(rows)
            model = train_nmf(ds, f, seed=1, n_iters=5000, rel_tol=0.0)
            mse = float(np.mean((model.p @ model.q.T - m) ** 2))
            assert mse < 1e-6
        assert time.time() - start < 60.0


def test_criterion_4_group_influence_properties(criterion):
    with criterion(4, "group influence monotone in theta and top_k, "
                      "bounded, and uniquely counted"):
        cases = [(toy_dataset(), ModelConfig("knn", k=2), 2),
                 (toy_dataset(), NMF_CFG, 2)]
        cases += [(random_dataset(n, m, d, seed=s), KNN_CFG, 10)
                  for n, m, d, s in RANDOM_SUITE]
        for ds, cfg, l in cases:
            report = influence_all(ds, cfg, l)
            prev = None
            for top_k in (1, 2, 3):
                curve = group_influence(report, top_k, thresholds=THETA_GRID)
                fr = np.array(curve.influenced_fraction)
                assert np.all((fr >= 0.0) & (fr <= 1.0))
                assert np.all(np.diff(fr) <= 0)
                if prev is not None:
                    assert np.all(fr >= prev)
                prev = fr
        # two top users each influencing everyone count once, not twice
        ds = mutual_disruption_dataset()
        cfg = ModelConfig("knn", k=1)
        report = influence_all(ds, cfg, 4)
        curve = group_influence(report, 2, thresholds=(0.5,))
        assert curve.influenced_fraction == (1.0,)


def test_criterion_5_long_tail_hub(criterion):
    with criterion(5, "planted hub ranks first and exceeds the median "
                      "influence at least fivefold"):
        ds = hub_dataset(seed=0)
        cfg = ModelConfig("knn", k=10, similarity="pearson")
        report = influence_all(ds, cfg, 10)
        hub = list(ds.user_ids).index("u00")
        # verified against the naive oracle before asserting the ratio
        assert float(report.influence[hub]) == \
            influence_oracle(ds, cfg, hub, 10)
        assert report.ranking[0] == hub
        median = float(np.median(report.influence))
        assert report.influence[hub] >= 5.0 * median
        assert report.influence[hub] > 0.0


def test_criterion_6_tree_oracle_equivalence(criterion):
    with criterion(6, "regression tree equals the exhaustive-split oracle "
                      "on 50 small instances; importances and depth sound"):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            x = rng.random((n, 3))
            y = rng.random(n) * float(rng.integers(1, 20))
            depth = int(rng.integers(1, 6))
            leaf = int(rng.integers(1, 3))
            tree = fit_tree(x, y, max_depth=depth, min_samples_leaf=leaf)
            ref = oracles.exhaustive_tree(x, y, depth, leaf)
            assert oracles.tree_structures_match(tree.root, ref)
            assert tree.depth <= depth
            total = tree.importances.sum()
            assert total == 0.0 or abs(total - 1.0) <= 1e-9
        x = rng.random((30, 3))
        y = np.where(x[:, 1] < 0.4, 1.0, 6.0)
        tree = fit_tree(x, y, max_depth=4, min_samples_leaf=1)
        assert tree.mse == 0.0 and tree.depth == 1


def test_criterion_7_feature_recovery(criterion):
    with criterion(7, "tree importance concentrates above 0.5 on the "
                      "feature that drives a noisy monotone target"):
        rng = np.random.default_rng(9)
        x = rng.random((200, 8))
        y = np.exp(2.0 * x[:, 3]) + 0.1 * rng.standard_normal(200)
        tree = fit_tree(x, y, max_depth=8, min_samples_leaf=5)
        assert np.argmax(tree.importances) == 3
        assert tree.importances[3] > 0.5


def test_criterion_8_mds(criterion):
    with criterion(8, "classical scaling: exact 2-D recovery, triangle, "
                      "and permutation-invariant stress"):
        rng = np.random.default_rng(3)
        pts = rng.random((15, 2)) * 3
        dist = pairwise_euclidean(pts)
        coords = classical_mds(dist)
        assert stress_of(coords, dist) < 1e-6
        np.testing.assert_allclose(pairwise_euclidean(coords), dist,
                                   atol=1e-6)
        tri = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(
            pairwise_euclidean(classical_mds(tri)), tri, atol=1e-6)
        perm = rng.permutation(15)
        permuted = dist[np.ix_(perm, perm)]
        assert abs(stress_of(classical_mds(permuted), permuted)
                   - stress_of(coords, dist)) <= 1e-9


def test_criterion_9_parallel_determinism(criterion, tmp_path):
    with criterion(9, "influence command emits byte-identical CSVs for "
                      "1 and 8 workers across the random suite"):
        for case, (n, m, d, s) in enumerate(RANDOM_SUITE):
            ds = random_dataset(n, m, d, seed=s)
            data_dir = tmp_path / f"case{case}"
            data_dir.mkdir()
            save_dataset(ds, data_dir / "dataset.tsv")
            blobs = []
            for workers in (1, 8):
                out = data_dir / f"w{workers}"
                code = main(["influence", "--dataset",
                             str(data_dir / "dataset.tsv"),
                             "--algo", "knn", "--k", "5", "--l", "10",
                             "--top-k", "3", "--workers", str(workers),
                             "--out-dir", str(out)])
                assert code == 0
                blobs.append(((out / "influence.csv").read_bytes(),
                              (out / "group_influence.csv").read_bytes()))
            assert blobs[0] == blobs[1]


ML1M_PATH = os.environ.get("RECINFLUENCE_ML1M", "")


@pytest.mark.skipif(not ML1M_PATH, reason="full-scale dataset not supplied; "
                    "set RECINFLUENCE_ML1M to a ratings.dat path")
def test_criterion_10_full_scale_accuracy(criterion):
    with criterion(10, "full-scale precision/recall reproduction within "
                       "the 0.05 tolerance band"):
        ds = load_ratings(ML1M_PATH, format="movielens-dat")
        train, test = train_test_split(ds, 0.2, seed=0)
        nmf = train_nmf(train, 40, seed=0, n_iters=200)
        out = evaluate(nmf, test, 10, 4.0)
        assert abs(out["precision_at_l"] - 0.26) <= 0.05
        assert abs(out["recall_at_l"] - 0.18) <= 0.05
        knn = train_knn(train, 60, "pearson")
        out = evaluate(knn, test, 10, 4.0)
        assert abs(out["precision_at_l"] - 0.27) <= 0.05
