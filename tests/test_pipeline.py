"""Cross-module integration checks that knit the stages together."""

import numpy as np

from recinfluence.analysis import (centrality_dispersion, mds_embed,
                                   segment_by_influence)
from recinfluence.features import FeatureConfig, extract_all
from recinfluence.influence import influence_all
from recinfluence.predictor import export_boundaries, fit_tree, predict_tree
from recinfluence.recommender import ModelConfig

from conftest import build_dataset, random_dataset


def heterogeneous_dataset(n_users=40, n_items=60, seed=21):
    """Profile sizes spread widely so neighborhood membership varies."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(n_users):
        size = int(rng.integers(3, 25))
        for i in rng.choice(n_items, size=size, replace=False):
            rows.append((f"u{u:02d}", f"i{i:02d}", float(rng.integers(1, 6))))
    return build_dataset(rows, users=[f"u{u:02d}" for u in range(n_users)])


def spearman(a, b):
    ra = np.argsort(np.argsort(a))
    rb = np.argsort(np.argsort(b))
    return float(np.corrcoef(ra, rb)[0, 1])


def test_neighborhood_membership_tracks_knn_influence_best():
    # Removing u can only move v's list if u sits in v's neighbor list (or
    # carries an item mean), so beta3 should out-correlate every other
    # feature for the neighborhood model.
    ds = heterogeneous_dataset()
    cfg = ModelConfig("knn", k=5)
    report = influence_all(ds, cfg, 10)
    table = extract_all(ds, cfg, 10, FeatureConfig())
    corrs = [spearman(table.values[:, j], report.influence)
             for j in range(8)]
    assert np.argmax(corrs) == 2
    assert corrs[2] > 0.7


def test_full_stage_chain_is_consistent():
    ds = random_dataset(25, 40, 0.2, seed=31)
    cfg = ModelConfig("knn", k=4)
    report = influence_all(ds, cfg, 5)
    table = extract_all(ds, cfg, 5, FeatureConfig())
    tree = fit_tree(table.values, report.influence,
                    max_depth=6, min_samples_leaf=2)
    total = tree.importances.sum()
    assert total == 0.0 or abs(total - 1.0) < 1e-9
    assert len(export_boundaries(tree)) == tree.n_internal_nodes
    lo, hi = report.influence.min(), report.influence.max()
    for row in table.values:
        assert lo <= predict_tree(tree, row) <= hi
    embedding = mds_embed(ds)
    labels = segment_by_influence(report.influence, 4)
    stats = centrality_dispersion(embedding, labels)
    assert {s["segment"] for s in stats} == set(range(4))
    assert all(s["mean_radius"] >= 0 for s in stats)
