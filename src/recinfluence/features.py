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

The one-user functions (``centrality``, ``intra_profile_distance``, ...)
are the reference definitions. ``extract_all`` computes each column for
all users in whole-array passes that give the same bits:

- beta2 and beta5 reduce rows of an n x n matrix with the diagonal
  dropped, so each row holds the same n - 1 contiguous values in the same
  order as ``np.delete(row, u)``, and a row mean is the same pairwise sum.
  beta4 counts a whole distance row and subtracts its zero diagonal.
- beta6 and beta7 group users by profile size t and gather each group as
  a (users, t) array; a row sum over t contiguous values adds in the same
  pairwise order as ``np.sum`` over one profile. beta7 pairs those rows
  with their item means in ``similarity._sums_against``, the row loop's
  sums, and scores them with ``similarity._scores``, as the reference does.
- beta8 looks up each profile's item pairs in
  ``similarity._item_pair_scores``, which owns item cosine's float32 Gram
  and item Pearson's m x m matrix; a pair's value depends on its two
  columns alone. Where it gives none (item cosine off the half-star grid
  or past the Gram's bound), beta8 is the reference per profile, whose
  columns come from the raters of its items alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset
from .recommender import KnnModel, _row_chunks
from .similarity import (SHRINK_COUNT, _exact_dtype, _item_pair_scores,
                         _scores, _similarity_loop, _sums_against,
                         item_distance_submatrix, user_distance_matrix,
                         user_similarity_matrix)

FEATURE_NAMES = tuple(f"beta{j}" for j in range(1, 9))
EPSILON_SAMPLE = 1000   # users sampled for the epsilon quantile when larger
# Item pairs per batch of beta8 profiles.
_BATCH_ENTRIES = 2 ** 15


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


def centralities(sim_matrix: np.ndarray) -> np.ndarray:
    """beta2 of every user, ``centrality`` of each row of the n x n
    similarity matrix, a chunk of rows at a time."""
    n = sim_matrix.shape[0]
    out = np.zeros(n)
    if n > 1:
        for rows in _row_chunks(np.arange(n), n):
            out[rows] = _drop_self(sim_matrix[rows], rows).mean(axis=1)
    return out


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


def recommendation_overlaps(ds: RatingsDataset, listed) -> np.ndarray:
    """beta5 of every user: ``recommendation_overlap`` as one matrix pass.

    The intersections are one product of the 0/1 profile and list
    indicators (``listed``, as ``top_lists`` returns it); below 2**24 items
    every partial count is an exact float32. The Jaccard values are the
    same integer ratios, and each row's mean runs over v != u in order, so
    every value is the reference's to the bit. Rows go a chunk at a time,
    so the temporaries stay a few chunk rows.
    """
    n, m = ds.n_users, ds.n_items
    out = np.zeros(n)
    if n < 2:
        return out
    sizes = np.count_nonzero(listed, axis=1)
    counts = _exact_dtype(m)
    listed = listed.astype(counts)
    rated = ds.mask
    for rows in _row_chunks(np.arange(n), n):
        shared = _drop_self(rated[rows].astype(counts) @ listed.T,
                            rows).astype(np.int64)
        union = (ds.user_counts[rows, None]
                 + _drop_self(np.broadcast_to(sizes, (len(rows), n)), rows)
                 - shared)
        jaccard = np.divide(shared, union, out=np.zeros(shared.shape),
                            where=union > 0)
        out[rows] = jaccard.mean(axis=1)
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
    return float(_similarity_loop(similarity, x[None, :], observed,
                                  y[None, :], observed)[0, 0])


def intra_profile_distance(ds: RatingsDataset, u: int,
                           item_distance: str = "cosine") -> float:
    """beta8: mean pairwise distance over u's rated items; < 2 items gives 0."""
    items = ds.user_items(u)
    t = len(items)
    if t < 2:
        return 0.0
    dist = item_distance_submatrix(ds, items, kind=item_distance)
    return float(np.mean(dist[np.triu_indices(t, k=1)]))


def resolve_epsilon(ds: RatingsDataset, config: FeatureConfig,
                    dist_matrix: np.ndarray | None = None) -> float:
    """Quantile-based epsilon over the pairwise distance distribution."""
    if config.epsilon is not None:
        return float(config.epsilon)
    if ds.n_users < 2:
        raise ValueError("the epsilon quantile needs two users; set --epsilon")
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


def _drop_self(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``block`` (one row per user in ``rows``, one column per user) without
    each row's own column: row r is ``np.delete(block[r], rows[r])``, as one
    contiguous (len(rows), n - 1) array."""
    keep = np.arange(block.shape[1]) != rows[:, None]
    return block[keep].reshape(len(rows), -1)


def _size_groups(ds: RatingsDataset):
    """(users, positions) per profile size t: the users rating t items and
    the (users, t) positions of their ratings in ``ds.item_idx`` and
    ``ds.values``."""
    counts = ds.user_counts
    for t in np.unique(counts):
        users = np.flatnonzero(counts == t)
        yield users, ds._user_ptr[users, None] + np.arange(t)


def _intra_profile_distances(ds: RatingsDataset,
                             item_distance: str) -> np.ndarray:
    """beta8 of every user, bit-identical to ``intra_profile_distance``.

    Each item pair is scored by ``similarity._item_pair_scores``, whose
    value depends on the pair's two columns alone; where it gives none
    (item cosine off the half-star grid or past its float32 bound) this is
    the reference per user. Profiles of one size t go together, about
    ``_BATCH_ENTRIES`` item pairs at a time: row r of a batch holds user
    r's t(t-1)/2 pairs in ``np.triu_indices`` order, one contiguous row
    that ``np.mean`` reduces as it reduces the reference's upper triangle.
    """
    pair_scores = _item_pair_scores(ds, item_distance)
    if pair_scores is None:
        return np.array([intra_profile_distance(ds, u, item_distance)
                         for u in range(ds.n_users)])
    out = np.zeros(ds.n_users)
    for users, pos in _size_groups(ds):
        t = pos.shape[1]
        if t < 2:
            continue
        upper = np.triu_indices(t, k=1)
        step = max(1, _BATCH_ENTRIES // len(upper[0]))
        for lo in range(0, len(users), step):
            items = ds.item_idx[pos[lo:lo + step]]
            # np.take keeps each user's pairs in one contiguous row
            a, b = (np.take(items, side, axis=1) for side in upper)
            # 1 - similarity, as similarity._distances gives it off the
            # diagonal
            out[users[lo:lo + step]] = np.mean(1.0 - pair_scores(a, b),
                                               axis=1)
    return out


def extract_all(ds: RatingsDataset, knn_model: KnnModel, listed,
                beta2: np.ndarray,
                config: FeatureConfig = FeatureConfig()) -> FeatureTable:
    """All eight features for every user.

    ``knn_model`` supplies the neighbor structure for beta3 (when the run
    under study is a factorization model, a standalone neighborhood
    structure is fitted for this purpose); ``listed`` is the (n, m) bool
    indicator of the studied model's top-l lists (``top_lists``), for beta5.
    ``beta2`` is ``centralities(user_similarity_matrix(ds,
    config.similarity))``, so the caller can free that matrix first.

    Each column is computed for all users at once and equals the one-user
    reference function's value bit for bit (see the module docstring).
    Beside the caller's arrays at most one n x n matrix is held at a time,
    beta4's distances, and beta8 one m x m matrix: item cosine's float32
    Gram on half-star ratings, or item Pearson's float64 similarities.
    """
    n = ds.n_users
    if listed.shape != (n, ds.n_items):
        raise ValueError("need one recommendation list per user")
    values = np.empty((n, 8))
    # beta4 first, its distance matrix freed before beta5's products
    dists = user_distance_matrix(ds, kind=config.user_distance)
    epsilon = resolve_epsilon(ds, config, dist_matrix=dists)
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    # the zero diagonal is below epsilon, and a user is not its own neighbor
    values[:, 3] = np.count_nonzero(dists < epsilon, axis=1) - 1
    del dists
    values[:, 4] = recommendation_overlaps(ds, listed)
    values[:, 0] = ds.user_counts
    values[:, 1] = beta2
    values[:, 2] = np.bincount(knn_model.neighbors.ravel(), minlength=n)
    for users, pos in _size_groups(ds):
        items = ds.item_idx[pos]
        values[users, 5] = np.median(ds.item_counts[items], axis=1)
        means = ds.item_sums[items] / ds.item_counts[items]
        rated = np.ones(means.shape, dtype=bool)
        sums = _sums_against(config.similarity, means, rated)
        values[users, 6] = _scores(config.similarity,
                                   sums(ds.values[pos], rated), SHRINK_COUNT)
    values[:, 7] = _intra_profile_distances(ds, config.item_distance)
    values.flags.writeable = False
    snapshot = {
        "similarity": config.similarity,
        "user_distance": config.user_distance,
        "item_distance": config.item_distance,
        "epsilon": epsilon,
        "k": knn_model.k,
        "l": int(np.count_nonzero(listed, axis=1).max()),
    }
    return FeatureTable(ds.user_ids, values, snapshot)
