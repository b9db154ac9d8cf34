"""User-kNN and non-negative factorization recommenders with top-l lists.

Both models are immutable once trained and keep a reference to the training
dataset; recommendation candidates are items the target user has not rated
that still have at least one rater in the training data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset
from .similarity import SIMILARITIES, user_similarity_matrix


class TrainingError(RuntimeError):
    """Raised when model fitting fails (for example a diverging objective)."""


@dataclass(frozen=True, eq=False)
class KnnModel:
    """Neighborhood model: per-user top-k neighbor lists plus item means.

    Neighbor lists hold exactly min(k, n - 1) entries, sorted by similarity
    descending with ties broken by ascending user index. Ratings of a target
    item are blended as sum(sim * r) / sum(|sim|) over the listed neighbors
    who rated it; when no listed neighbor rated the item (or their
    similarities cancel to zero weight) the item's mean rating stands in,
    and an item with no raters at all falls back to the global mean.
    """

    dataset: RatingsDataset
    k: int
    similarity: str
    neighbors: np.ndarray       # (n, k_eff) int
    neighbor_sims: np.ndarray   # (n, k_eff) float
    item_means: np.ndarray      # (m,), global mean where an item has no raters
    global_mean: float

    @property
    def algorithm(self) -> str:
        return "knn"

    def scores_for(self, u: int) -> np.ndarray:
        """Predicted score for every item (candidate filtering comes later)."""
        ratings, mask = self.dataset.dense
        nbrs = self.neighbors[u]
        sims = self.neighbor_sims[u]
        rated = mask[nbrs]
        wsum = np.sum((sims[:, None] * ratings[nbrs]) * rated, axis=0)
        asum = np.sum(np.abs(sims)[:, None] * rated, axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            blended = wsum / asum
        return np.where(asum > 0, blended, self.item_means)


@dataclass(frozen=True, eq=False)
class NmfModel:
    """Nonnegative factorization model fit by multiplicative updates.

    Minimizes the squared Frobenius error of p @ q.T against the rating
    matrix, by default restricted to observed entries (masked objective).
    The objective trace is recorded per iteration and is non-increasing up
    to arithmetic noise.
    """

    dataset: RatingsDataset
    factors: int
    seed: int
    n_iters: int
    masked: bool
    p: np.ndarray  # (n, f), nonnegative
    q: np.ndarray  # (m, f), nonnegative
    objective_history: tuple[float, ...]

    @property
    def algorithm(self) -> str:
        return "nmf"

    @property
    def final_objective(self) -> float:
        return self.objective_history[-1]

    def scores_for(self, u: int) -> np.ndarray:
        return self.p[u] @ self.q.T


@dataclass(frozen=True)
class RecommendationList:
    user: int
    items: tuple[int, ...]
    scores: tuple[float, ...]


def train_knn(ds: RatingsDataset, k: int, similarity: str = "pearson",
              sim_matrix: np.ndarray | None = None) -> KnnModel:
    """Fit the neighborhood model.

    ``sim_matrix`` lets callers inject precomputed pairwise similarities
    (they do not depend on third users, so leave-one-out retrains reuse them;
    the features stage passes its beta2 matrix); else they are computed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if similarity not in SIMILARITIES:
        raise ValueError(f"unknown similarity {similarity!r}")
    n = ds.n_users
    if k >= n:
        warnings.warn(f"k={k} >= n_users={n}; reduced to {n - 1}",
                      stacklevel=2)
    k_eff = min(k, n - 1)
    if sim_matrix is None:
        sim_matrix = user_similarity_matrix(ds, kind=similarity)
    idx = np.arange(n)
    order = np.lexsort((np.broadcast_to(idx, (n, n)), -sim_matrix), axis=-1)
    # each row holds its own index exactly once
    neighbors = np.ascontiguousarray(
        order[order != idx[:, None]].reshape(n, n - 1)[:, :k_eff])
    neighbor_sims = np.take_along_axis(sim_matrix, neighbors, axis=1)

    counts = ds.item_counts
    global_mean = ds.global_mean
    with np.errstate(invalid="ignore", divide="ignore"):
        means = ds.item_sums / counts
    item_means = np.where(counts > 0, means, global_mean)
    for arr in (neighbors, neighbor_sims, item_means):
        arr.flags.writeable = False
    return KnnModel(ds, k, similarity, neighbors, neighbor_sims,
                    item_means, global_mean)


def predict_knn(model: KnnModel, u: int, i: int) -> float:
    """Single-pair rating prediction: the score ``scores_for`` gives item i."""
    return float(model.scores_for(u)[i])


_EPS = 1e-12


def _nmf_objective(m, w, pq) -> float:
    resid = w * (m - pq)
    return float(np.sum(resid * resid))


def _nmf_iterate(m, w, p, q, n_iters, rel_tol, history):
    """Alternating multiplicative updates; appends objectives to history."""
    wm = w * m
    pq = p @ q.T
    for _ in range(n_iters):
        p = p * ((wm @ q) / ((w * pq) @ q + _EPS))
        pq = p @ q.T
        q = q * ((wm.T @ p) / ((w * pq).T @ p + _EPS))
        # serves both this objective and the next iteration's p update
        pq = p @ q.T
        obj = _nmf_objective(m, w, pq)
        prev = history[-1]
        if obj > prev + 1e-9:
            raise TrainingError(
                f"objective increased from {prev} to {obj}")
        history.append(obj)
        if rel_tol and prev > 0 and (prev - obj) / prev < rel_tol:
            break
    return p, q


def _fit_nmf(ds, p, q, seed, n_iters, rel_tol, masked) -> NmfModel:
    """Iterate from starting factors ``p``, ``q`` and freeze the result."""
    ratings, mask = ds.dense
    w = mask.astype(np.float64) if masked else np.ones_like(ratings)
    history = [_nmf_objective(ratings, w, p @ q.T)]
    p, q = _nmf_iterate(ratings, w, p, q, n_iters, rel_tol, history)
    p.flags.writeable = False
    q.flags.writeable = False
    return NmfModel(ds, p.shape[1], seed, n_iters, masked, p, q,
                    tuple(history))


def train_nmf(ds: RatingsDataset, factors: int, seed: int,
              n_iters: int = 200, rel_tol: float = 1e-5,
              masked: bool = True) -> NmfModel:
    """Fit nonnegative factors, deterministically for a fixed seed.

    Initial entries are drawn uniformly from (0, 1) and scaled by
    sqrt(mean rating / factors). ``masked=True`` (default) fits observed
    entries only; ``masked=False`` fits the zero-imputed full matrix.
    Stops at ``n_iters`` or when the relative objective improvement drops
    below ``rel_tol`` (0 disables early stopping).
    """
    if factors < 1:
        raise ValueError("factors must be >= 1")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(ds.global_mean / factors)
    p = rng.random((ds.n_users, factors)) * scale
    q = rng.random((ds.n_items, factors)) * scale
    return _fit_nmf(ds, p, q, seed, n_iters, rel_tol, masked)


def continue_nmf(ds: RatingsDataset, p0: np.ndarray, q0: np.ndarray,
                 seed: int, n_iters: int, masked: bool = True) -> NmfModel:
    """Refit from given starting factors instead of a random draw.

    Approximate by construction; backs the labeled warm-start leave-one-out
    mode, where the starting factors are the full-data factors with the
    removed user's row dropped.
    """
    if p0.shape[0] != ds.n_users or q0.shape[0] != ds.n_items:
        raise ValueError("factor shapes do not match dataset")
    if p0.shape[1] != q0.shape[1]:
        raise ValueError("factor rank mismatch")
    p = np.array(p0, dtype=np.float64)
    q = np.array(q0, dtype=np.float64)
    return _fit_nmf(ds, p, q, seed, n_iters, 0.0, masked)


def top_items(model, u: int, l: int) -> np.ndarray:
    """Indices of the top-l eligible items, score descending, index ascending."""
    if l < 1:
        raise ValueError("l must be >= 1")
    ds = model.dataset
    _, mask = ds.dense
    candidates = np.flatnonzero(~mask[u] & (ds.item_counts > 0))
    if len(candidates) == 0:
        return candidates
    scores = model.scores_for(u)[candidates]
    order = np.lexsort((candidates, -scores))
    return candidates[order[:l]]


def recommend(model, u: int, l: int) -> RecommendationList:
    items = top_items(model, u, l)
    scores = model.scores_for(u)
    return RecommendationList(u, tuple(int(i) for i in items),
                              tuple(float(scores[i]) for i in items))


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for one recommender run; ``train`` dispatches."""

    algorithm: str = "knn"
    k: int = 20
    similarity: str = "pearson"
    factors: int = 8
    seed: int = 0
    n_iters: int = 200
    rel_tol: float = 1e-5
    masked: bool = True

    def __post_init__(self):
        if self.algorithm not in ("knn", "nmf"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")

    def train(self, ds: RatingsDataset):
        if self.algorithm == "knn":
            return train_knn(ds, self.k, self.similarity)
        return train_nmf(ds, self.factors, self.seed, n_iters=self.n_iters,
                         rel_tol=self.rel_tol, masked=self.masked)

    def to_dict(self) -> dict:
        if self.algorithm == "knn":
            return {"algorithm": "knn", "k": self.k,
                    "similarity": self.similarity}
        return {"algorithm": "nmf", "factors": self.factors,
                "seed": self.seed, "n_iters": self.n_iters,
                "rel_tol": self.rel_tol, "masked": self.masked}


def train_test_split(ds: RatingsDataset, test_fraction: float = 0.2,
                     seed: int = 0):
    """Per-user random holdout. Returns (train dataset, test ratings).

    The train dataset keeps the full user and item axes (so indices stay
    aligned); each user keeps at least one training rating. Test ratings
    come back as {user: {item: rating}}.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    keep = np.ones(ds.n_ratings, dtype=bool)
    test: dict[int, dict[int, float]] = {}
    for u in range(ds.n_users):
        lo, hi = ds._user_ptr[u], ds._user_ptr[u + 1]
        count = hi - lo
        n_test = int(np.floor(test_fraction * count))
        if n_test == 0:
            continue
        perm = rng.permutation(count)
        held = lo + perm[:n_test]
        keep[held] = False
        test[u] = {int(ds.item_idx[j]): float(ds.values[j]) for j in held}
    train = RatingsDataset.build(ds.user_ids, ds.item_ids, ds.user_idx[keep],
                                 ds.item_idx[keep], ds.values[keep],
                                 r_min=ds.r_min, r_max=ds.r_max)
    return train, test


def evaluate(model, test: dict[int, dict[int, float]], l: int,
             relevance_threshold: float) -> dict[str, float]:
    """Mean precision@l and recall@l against held-out relevant items.

    Users with no relevant test item are excluded from both means.
    """
    if not test:
        raise ValueError("empty test set")
    _, train_mask = model.dataset.dense
    precisions, recalls = [], []
    for u, held in test.items():
        relevant = {i for i, r in held.items() if r >= relevance_threshold}
        if not relevant:
            continue
        overlap = relevant & set(np.flatnonzero(train_mask[u]).tolist())
        if overlap:
            raise ValueError(f"test ratings overlap training for user {u}")
        recs = top_items(model, u, l)
        hits = len(relevant.intersection(int(i) for i in recs))
        precisions.append(hits / l)
        recalls.append(hits / len(relevant))
    if not precisions:
        raise ValueError("no user has a relevant test item")
    return {"precision_at_l": float(np.mean(precisions)),
            "recall_at_l": float(np.mean(recalls))}
