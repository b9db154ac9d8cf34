import json

import numpy as np
import pytest

from recinfluence.predictor import (export_boundaries, fit_metrics, fit_tree,
                                    predict_tree)

import oracles


def leaves(node):
    if node.is_leaf:
        return [node]
    return leaves(node.left) + leaves(node.right)


class TestFitTree:
    def test_constant_target_single_leaf(self):
        x = np.arange(12.0).reshape(6, 2)
        y = np.full(6, 3.5)
        tree = fit_tree(x, y, max_depth=4, min_samples_leaf=1)
        assert tree.root.is_leaf
        assert tree.mse == 0.0
        assert tree.r2 == 1.0
        assert np.all(tree.importances == 0.0)

    def test_step_function_single_split(self):
        rng = np.random.default_rng(0)
        x = rng.random((30, 3))
        y = np.where(x[:, 0] < 0.5, 2.0, 7.0)
        tree = fit_tree(x, y, max_depth=5, min_samples_leaf=1)
        assert tree.depth == 1
        assert tree.root.feature == 0
        assert tree.mse == 0.0
        assert tree.importances[0] == 1.0

    def test_noisy_single_driver_dominates_importance(self):
        rng = np.random.default_rng(7)
        x = rng.random((30, 8))
        y = 3.0 * x[:, 3] + 0.05 * rng.standard_normal(30)
        tree = fit_tree(x, y, max_depth=6, min_samples_leaf=2)
        imp = tree.importances
        assert np.argmax(imp) == 3
        assert all(imp[3] > imp[j] for j in range(8) if j != 3)

    def test_exhaustive_oracle_equivalence_small(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(4, 13))
            x = rng.random((n, 3))
            y = rng.random(n) * 10
            depth = int(rng.integers(1, 5))
            leaf = int(rng.integers(1, 3))
            tree = fit_tree(x, y, max_depth=depth, min_samples_leaf=leaf)
            ref = oracles.exhaustive_tree(x, y, depth, leaf)
            assert oracles.tree_structures_match(tree.root, ref)

    def test_deterministic_refit(self):
        rng = np.random.default_rng(3)
        x = rng.random((40, 4))
        y = rng.random(40)
        t1 = fit_tree(x, y, max_depth=6, min_samples_leaf=2)
        t2 = fit_tree(x, y, max_depth=6, min_samples_leaf=2)
        assert t1.to_json() == t2.to_json()

    def test_split_choice_invariant_to_target_shift(self):
        rng = np.random.default_rng(5)
        x = rng.random((25, 3))
        y = rng.random(25)
        t1 = fit_tree(x, y, max_depth=3, min_samples_leaf=2)
        t2 = fit_tree(x, y + 100.0, max_depth=3, min_samples_leaf=2)

        def splits(node):
            if node.is_leaf:
                return []
            return [(node.feature, node.threshold)] + \
                splits(node.left) + splits(node.right)

        got1, got2 = splits(t1.root), splits(t2.root)
        assert [f for f, _ in got1] == [f for f, _ in got2]
        np.testing.assert_allclose([t for _, t in got1],
                                   [t for _, t in got2], atol=1e-9)

    def test_depth_capped_and_mse_monotone_in_depth(self):
        rng = np.random.default_rng(9)
        x = rng.random((60, 3))
        y = np.sin(x[:, 0] * 6) + x[:, 1]
        prev = np.inf
        for depth in range(1, 8):
            tree = fit_tree(x, y, max_depth=depth, min_samples_leaf=1)
            assert tree.depth <= depth
            assert tree.mse <= prev + 1e-12
            prev = tree.mse

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        x = rng.random((30, 2))
        y = rng.random(30)
        tree = fit_tree(x, y, max_depth=8, min_samples_leaf=5)
        assert all(leaf.n_samples >= 5 for leaf in leaves(tree.root))

    def test_validation_errors(self):
        x = np.random.default_rng(0).random((6, 2))
        y = np.arange(6.0)
        with pytest.raises(ValueError):
            fit_tree(x[:1], y[:1])
        with pytest.raises(ValueError):
            fit_tree(x, y, max_depth=0)
        with pytest.raises(ValueError):
            fit_tree(x, y, max_depth=11)
        with pytest.raises(ValueError):
            fit_tree(x, y[:-1])


class TestImportances:
    def test_sum_to_one_when_any_split(self):
        rng = np.random.default_rng(4)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.random((25, 5))
            y = rng.random(25)
            tree = fit_tree(x, y, max_depth=4, min_samples_leaf=2)
            imp = tree.importances
            assert np.all(imp >= 0)
            if tree.root.is_leaf:
                assert imp.sum() == 0.0
            else:
                assert imp.sum() == pytest.approx(1.0, abs=1e-9)

    def test_depth1_importance_concentrated(self):
        x = np.array([[0.0, 9.0], [1.0, 8.0], [2.0, 7.0], [3.0, 6.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        tree = fit_tree(x, y, max_depth=1, min_samples_leaf=1)
        assert tree.root.feature == 0
        assert tree.importances.tolist() == [1.0, 0.0]

    def test_importance_matches_manual_reduction(self):
        rng = np.random.default_rng(6)
        x = rng.random((20, 3))
        y = rng.random(20)
        tree = fit_tree(x, y, max_depth=3, min_samples_leaf=2)

        raw = np.zeros(3)

        def walk(node):
            if node.is_leaf:
                return
            drop = node.n_samples * node.mse \
                - node.left.n_samples * node.left.mse \
                - node.right.n_samples * node.right.mse
            raw[node.feature] += drop
            walk(node.left)
            walk(node.right)

        walk(tree.root)
        np.testing.assert_allclose(tree.importances, raw / raw.sum(),
                                   atol=1e-9)


class TestPredict:
    def test_single_leaf_returns_global_mean(self):
        x = np.ones((5, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        tree = fit_tree(x, y, max_depth=3, min_samples_leaf=1)
        assert tree.root.is_leaf
        for probe in ([0, 0], [9, -9]):
            assert predict_tree(tree, probe) == 3.0

    def test_pure_leaf_recovers_training_target(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        tree = fit_tree(x, y, max_depth=8, min_samples_leaf=1)
        for xi, yi in zip(x, y):
            assert predict_tree(tree, xi) == yi

    def test_matches_manual_descent(self):
        rng = np.random.default_rng(8)
        x = rng.random((30, 4))
        y = rng.random(30)
        tree = fit_tree(x, y, max_depth=4, min_samples_leaf=2)

        def descend(node, row):
            while not node.is_leaf:
                node = node.left if row[node.feature] < node.threshold \
                    else node.right
            return node.value

        for row in rng.random((20, 4)):
            assert predict_tree(tree, row) == descend(tree.root, row)

    def test_predictions_within_target_range(self):
        rng = np.random.default_rng(10)
        x = rng.random((40, 3))
        y = rng.random(40) * 7 - 2
        tree = fit_tree(x, y, max_depth=6, min_samples_leaf=1)
        for row in x:
            assert y.min() <= predict_tree(tree, row) <= y.max()


class TestMetrics:
    def test_perfect_fit(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5.0, 5.0, 9.0, 9.0])
        tree = fit_tree(x, y, max_depth=2, min_samples_leaf=1)
        out = fit_metrics(tree, x, y)
        assert out == {"r2": 1.0, "mse": 0.0}

    def test_matches_direct_residual_sums(self):
        rng = np.random.default_rng(13)
        x = rng.random((35, 3))
        y = 2 * x[:, 0] + x[:, 1] + 0.1 * rng.standard_normal(35)
        tree = fit_tree(x, y, max_depth=3, min_samples_leaf=2)
        out = fit_metrics(tree, x, y)
        preds = np.array([predict_tree(tree, row) for row in x])
        ss_res = np.sum((y - preds) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert out["mse"] == pytest.approx(ss_res / 35, abs=1e-12)
        assert out["r2"] == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)


class TestBoundaries:
    def test_single_leaf_empty(self):
        x = np.ones((4, 2))
        y = np.ones(4)
        tree = fit_tree(x, y, max_depth=2, min_samples_leaf=1)
        assert export_boundaries(tree) == []

    def test_depth1_single_record(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(x, y, max_depth=1, min_samples_leaf=1)
        records = export_boundaries(tree)
        assert len(records) == 1
        assert records[0]["side"] == "root"
        assert records[0]["feature"] == 0

    def test_record_count_equals_internal_nodes(self):
        rng = np.random.default_rng(14)
        x = rng.random((50, 3))
        y = rng.random(50)
        tree = fit_tree(x, y, max_depth=3, min_samples_leaf=2)
        assert len(export_boundaries(tree)) == tree.n_internal_nodes


class TestSerialization:
    def test_json_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(15)
        x = rng.random((30, 4))
        y = rng.random(30)
        tree = fit_tree(x, y, max_depth=4, min_samples_leaf=2)
        doc = json.loads(tree.to_json())
        assert doc["root"] == tree.root.to_dict()
        for row in x:
            node = doc["root"]
            while "feature" in node:
                side = "left" if row[node["feature"]] < node["threshold"] \
                    else "right"
                node = node[side]
            assert node["value"] == predict_tree(tree, row)
        np.testing.assert_array_equal(doc["importances"], tree.importances)
        assert (doc["r2"], doc["mse"]) == (tree.r2, tree.mse)
