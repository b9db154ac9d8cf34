"""Per-user factors used to characterize and predict influence.

Eight features per user, kept in the order beta1..beta8 used by the CSV
interface:

  beta1  profile size |I_u|
  beta2  centrality: mean similarity to all other users
  beta3  membership: times u appears in other users' top-k neighbor lists
  beta4  local density: users within distance epsilon of u
  beta5  mean Jaccard similarity of I_u to other users' top-l lists
  beta6  median popularity (rater count) of the items in I_u
  beta7  similarity of u to the centroid user (per-item mean ratings)
  beta8  mean pairwise distance between the items in I_u
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset
from .recommender import KnnModel
from .similarity import (_similarity_rows, item_distance_submatrix,
                         user_distance_matrix, user_similarity_matrix)

FEATURE_NAMES = tuple(f"beta{j}" for j in range(1, 9))
EPSILON_SAMPLE = 1000   # users sampled for the epsilon quantile when larger


@dataclass(frozen=True)
class FeatureConfig:
    similarity: str = "pearson"       # beta2 / beta7
    user_distance: str = "cosine"     # beta4
    item_distance: str = "cosine"     # beta8
    epsilon: float | None = None      # beta4; None resolves from the quantile
    epsilon_quantile: float = 0.25
    seed: int = 0


@dataclass(frozen=True, eq=False)
class FeatureTable:
    user_ids: tuple[str, ...]
    values: np.ndarray        # (n, 8)
    config: dict              # resolved snapshot (epsilon, k, l, metric names)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)


def profile_size(ds: RatingsDataset, u: int) -> int:
    """beta1: number of items rated by u."""
    return int(ds.user_counts[u])


def centrality(ds: RatingsDataset, u: int, similarity: str = "pearson",
               sim_matrix: np.ndarray | None = None) -> float:
    """beta2: mean similarity of u to every other user."""
    if sim_matrix is None:
        sim_matrix = user_similarity_matrix(ds, kind=similarity)
    row = np.delete(sim_matrix[u], u)
    return float(row.mean()) if len(row) else 0.0


def neighborhood_membership(model: KnnModel, u: int) -> int:
    """beta3: how many other users carry u in their neighbor list."""
    others = np.delete(model.neighbors, u, axis=0)
    return int(np.count_nonzero(others == u))


def neighborhood_density(ds: RatingsDataset, u: int, epsilon: float,
                         distance: str = "cosine",
                         dist_matrix: np.ndarray | None = None) -> int:
    """beta4: count of other users strictly within distance epsilon of u."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if dist_matrix is None:
        dist_matrix = user_distance_matrix(ds, kind=distance)
    row = np.delete(dist_matrix[u], u)
    return int(np.count_nonzero(row < epsilon))


def recommendation_overlap(ds: RatingsDataset, u: int, lists) -> float:
    """beta5: mean Jaccard similarity of u's profile to others' lists."""
    profile = set(int(i) for i in ds.user_items(u))
    sims = []
    for v, items in enumerate(lists):
        if v == u:
            continue
        other = set(int(i) for i in items)
        union = profile | other
        sims.append(len(profile & other) / len(union) if union else 0.0)
    return float(np.mean(sims)) if sims else 0.0


def recommendation_overlaps(ds: RatingsDataset, lists) -> np.ndarray:
    """beta5 of every user: ``recommendation_overlap`` as one matrix pass.

    The intersections are one product of 0/1 profile and list indicators;
    with fewer than 2**24 items every partial count is an exact float32.
    The Jaccard values are the same integer ratios, and each row's mean runs
    over v != u in order, so every value is the reference's to the bit.
    """
    n, m = ds.n_users, ds.n_items
    out = np.zeros(n)
    if n < 2:
        return out
    counts = np.float32 if m < 2 ** 24 else np.float64
    listed = np.zeros((n, m), dtype=counts)
    for v, items in enumerate(lists):
        listed[v, [int(i) for i in items]] = 1
    _, rated = ds.dense
    inter = rated.astype(counts) @ listed.T
    sizes = listed.sum(axis=1, dtype=np.int64)
    for u in range(n):
        shared = np.delete(inter[u], u).astype(np.int64)
        union = ds.user_counts[u] + np.delete(sizes, u) - shared
        jaccard = np.zeros(n - 1)
        ok = union > 0
        jaccard[ok] = shared[ok] / union[ok]
        out[u] = np.mean(jaccard)
    return out


def median_item_popularity(ds: RatingsDataset, u: int) -> float:
    """beta6: median rater count over u's items (even count: middle mean)."""
    pops = ds.item_counts[ds.user_items(u)]
    return float(np.median(pops))


def centroid_similarity(ds: RatingsDataset, u: int,
                        similarity: str = "pearson") -> float:
    """beta7: similarity of u's ratings to per-item mean ratings.

    Scored over u's rated items by the routine user similarities use
    (Pearson shrink included); degenerate variance scores 0.
    """
    items = ds.user_items(u)
    x = ds.user_values(u)
    y = ds.item_sums[items] / ds.item_counts[items]
    observed = np.ones((1, len(x)), dtype=bool)
    return float(_similarity_rows(similarity, x[None, :], observed,
                                  y[None, :], observed)[0, 0])


def intra_profile_distance(ds: RatingsDataset, u: int,
                           item_distance: str = "cosine") -> float:
    """beta8: mean pairwise distance over u's rated items; < 2 items gives 0."""
    items = ds.user_items(u)
    t = len(items)
    if t < 2:
        return 0.0
    dist = item_distance_submatrix(ds, items, kind=item_distance)
    iu = np.triu_indices(t, k=1)
    return float(np.mean(dist[iu]))


def resolve_epsilon(ds: RatingsDataset, config: FeatureConfig,
                    dist_matrix: np.ndarray | None = None) -> float:
    """Quantile-based epsilon over the pairwise distance distribution."""
    if config.epsilon is not None:
        return float(config.epsilon)
    if dist_matrix is None:
        dist_matrix = user_distance_matrix(ds, kind=config.user_distance)
    n = ds.n_users
    if n > EPSILON_SAMPLE:
        rng = np.random.default_rng(config.seed)
        sel = np.sort(rng.choice(n, size=EPSILON_SAMPLE, replace=False))
        sub = dist_matrix[np.ix_(sel, sel)]
    else:
        sub = dist_matrix
    iu = np.triu_indices(sub.shape[0], k=1)
    epsilon = float(np.quantile(sub[iu], config.epsilon_quantile))
    if epsilon <= 0:
        raise ValueError(
            f"the {config.epsilon_quantile} quantile of pairwise "
            f"{config.user_distance} user distances is {epsilon:g}, but beta4 "
            f"needs epsilon > 0; set --epsilon, or raise --epsilon-quantile")
    return epsilon


def extract_all(ds: RatingsDataset, knn_model: KnnModel, lists,
                config: FeatureConfig = FeatureConfig()) -> FeatureTable:
    """All eight features for every user.

    ``knn_model`` supplies the neighbor structure for beta3 (when the run
    under study is a factorization model, a standalone neighborhood
    structure is fitted for this purpose); ``lists`` are the top-l item
    sets of the model under study, one per user, for beta5.
    """
    n = ds.n_users
    if len(lists) != n:
        raise ValueError("need one recommendation list per user")
    values = np.empty((n, 8))
    # beta4 first, so a bad epsilon fails before the Pearson pass and the
    # distance matrix is freed before the similarity matrix is built.
    dists = user_distance_matrix(ds, kind=config.user_distance)
    epsilon = resolve_epsilon(ds, config, dist_matrix=dists)
    for u in range(n):
        values[u, 3] = neighborhood_density(ds, u, epsilon, dist_matrix=dists)
    del dists
    # beta5 before the Pearson pass, so its n x n counts are never alive
    # alongside another n x n matrix
    values[:, 4] = recommendation_overlaps(ds, lists)
    sims = user_similarity_matrix(ds, kind=config.similarity)
    for u in range(n):
        values[u, 0] = profile_size(ds, u)
        values[u, 1] = centrality(ds, u, sim_matrix=sims)
        values[u, 2] = neighborhood_membership(knn_model, u)
        values[u, 5] = median_item_popularity(ds, u)
        values[u, 6] = centroid_similarity(ds, u, similarity=config.similarity)
        values[u, 7] = intra_profile_distance(
            ds, u, item_distance=config.item_distance)
    values.flags.writeable = False
    snapshot = {
        "similarity": config.similarity,
        "user_distance": config.user_distance,
        "item_distance": config.item_distance,
        "epsilon": epsilon,
        "k": knn_model.k,
        "l": max((len(x) for x in lists), default=None),
    }
    return FeatureTable(ds.user_ids, values, snapshot)
