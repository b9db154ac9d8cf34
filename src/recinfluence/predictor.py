"""Greedy binary regression tree with squared-error splits.

Splits minimize the weighted child mean squared error; candidate thresholds
are midpoints between consecutive sorted unique feature values. Ties break
to the lowest feature index, then the lowest threshold, so fitting the same
data twice yields the same tree. A sample goes left when
feature < threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class TreeNode:
    value: float              # mean target of the node's training samples
    n_samples: int
    mse: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def to_dict(self) -> dict:
        d = {"value": self.value, "n_samples": self.n_samples,
             "mse": self.mse}
        if not self.is_leaf:
            d["feature"] = self.feature
            d["threshold"] = self.threshold
            d["left"] = self.left.to_dict()
            d["right"] = self.right.to_dict()
        return d


@dataclass(frozen=True, eq=False)
class RegressionTree:
    root: TreeNode
    n_features: int
    max_depth: int
    min_samples_leaf: int
    importances: np.ndarray
    r2: float
    mse: float

    @property
    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self.root)

    @property
    def n_internal_nodes(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + walk(node.left) + walk(node.right)
        return walk(self.root)

    def to_json(self) -> str:
        return json.dumps({
            "n_features": self.n_features,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "importances": [float(v) for v in self.importances],
            "r2": self.r2,
            "mse": self.mse,
            "root": self.root.to_dict(),
        }, sort_keys=True, indent=1)


def _node_mse(y: np.ndarray) -> float:
    return float(np.mean((y - y.mean()) ** 2))


def _best_split(x: np.ndarray, y: np.ndarray, min_samples_leaf: int):
    """(feature, threshold, cost, left_mask) minimizing n_l*mse_l + n_r*mse_r.

    An improvement must clear a noise-level margin relative to the node's
    total squared error, so mathematically tied candidates (two splits
    inducing the same partition) resolve to the lowest feature index, then
    the lowest threshold, instead of racing on rounding error.
    """
    n, d = x.shape
    node_sse = float(np.sum((y - y.mean()) ** 2))
    tol = 1e-12 * max(1.0, node_sse)
    best = None
    for feature in range(d):
        col = x[:, feature]
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        y_sorted = y[order]
        uniq_last = np.flatnonzero(col_sorted[1:] != col_sorted[:-1])
        if len(uniq_last) == 0:
            continue
        csum = np.cumsum(y_sorted)
        csum2 = np.cumsum(y_sorted * y_sorted)
        total, total2 = csum[-1], csum2[-1]
        for cut in uniq_last:
            n_l = cut + 1
            n_r = n - n_l
            if n_l < min_samples_leaf or n_r < min_samples_leaf:
                continue
            sse_l = csum2[cut] - csum[cut] ** 2 / n_l
            sum_r = total - csum[cut]
            sse_r = (total2 - csum2[cut]) - sum_r ** 2 / n_r
            cost = sse_l + sse_r
            if best is None or cost < best[2] - tol:
                threshold = (col_sorted[cut] + col_sorted[cut + 1]) / 2.0
                best = (feature, float(threshold), float(cost))
    if best is None:
        return None
    feature, threshold, cost = best
    return feature, threshold, cost, x[:, feature] < threshold


def _grow(x, y, depth, max_depth, min_samples_leaf, importances):
    node = TreeNode(float(y.mean()), len(y), _node_mse(y))
    if depth >= max_depth or len(y) < 2 * min_samples_leaf or node.mse == 0.0:
        return node
    found = _best_split(x, y, min_samples_leaf)
    if found is None:
        return node
    feature, threshold, cost, left_mask = found
    reduction = node.n_samples * node.mse - cost
    if reduction <= 0.0:
        return node
    importances[feature] += reduction
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(x[left_mask], y[left_mask], depth + 1, max_depth,
                      min_samples_leaf, importances)
    node.right = _grow(x[~left_mask], y[~left_mask], depth + 1, max_depth,
                       min_samples_leaf, importances)
    return node


def fit_tree(x: np.ndarray, y: np.ndarray, max_depth: int = 8,
             min_samples_leaf: int = 5) -> RegressionTree:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-dimensional")
    if len(x) != len(y):
        raise ValueError("x and y length mismatch")
    if len(y) < 2:
        raise ValueError("need at least 2 samples")
    if not 1 <= max_depth <= 10:
        raise ValueError("max_depth must be in [1, 10]")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    importances = np.zeros(x.shape[1])
    root = _grow(x, y, 0, max_depth, min_samples_leaf, importances)
    total = importances.sum()
    if total > 0:
        importances /= total
    importances.flags.writeable = False
    tree = RegressionTree(root, x.shape[1], max_depth, min_samples_leaf,
                          importances, 0.0, 0.0)
    metrics = fit_metrics(tree, x, y)
    return RegressionTree(root, x.shape[1], max_depth, min_samples_leaf,
                          importances, metrics["r2"], metrics["mse"])


def predict_tree(tree: RegressionTree, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    node = tree.root
    while not node.is_leaf:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.value


def fit_metrics(tree: RegressionTree, x, y) -> dict[str, float]:
    """Training-style residual metrics; constant targets give r2 = 1 when
    residuals vanish, else 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    preds = np.array([predict_tree(tree, row) for row in x])
    ss_res = float(np.sum((y - preds) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    mse = ss_res / len(y)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return {"r2": r2, "mse": mse}


def export_boundaries(tree: RegressionTree) -> list[dict]:
    """One record per internal node, preorder: where each split sits."""
    records = []

    def walk(node, depth, side):
        if node.is_leaf:
            return
        records.append({"feature": node.feature,
                        "threshold": node.threshold,
                        "depth": depth,
                        "side": side,
                        "leaf_value": node.value})
        walk(node.left, depth + 1, "left")
        walk(node.right, depth + 1, "right")

    walk(tree.root, 0, "root")
    return records
