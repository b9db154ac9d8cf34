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

The one-user reference definitions of beta1..beta7, and of beta8 under
item Pearson, live in the tests (``tests/oracles.py``); beta8's under item
cosine, ``intra_profile_distance``, stays here, as ``extract_all`` runs it
where item pairs cannot be looked up (see beta8 below). ``extract_all``
builds its own inputs for the studied ``ModelConfig`` and computes each
column for all users in whole-array passes that give the same bits:

- beta2 and beta5 reduce rows of an n x n matrix with the diagonal
  dropped, ``_BLOCK_ROWS`` users at a time (``_other_user_means``), so
  each row holds the same n - 1 contiguous values in the same order as
  ``np.delete(row, u)``, and a row mean is the same pairwise sum; beta5
  forms exact float32 counts.
  beta4 counts a whole distance row and subtracts its zero diagonal; its
  epsilon quantile is ``_quantile``, numpy's rule without ``np.quantile``,
  which would import ``numpy.ma`` (no stage does).
- beta6 and beta7 group users by profile size t and gather each group as
  a (users, t) array; a row sum over t contiguous values adds in the same
  pairwise order as ``np.sum`` over one profile. beta7 pairs those rows
  with their item means in ``similarity._sums_against``, the row loop's
  sums, and scores them with ``similarity._scores``, as the reference does.
- beta8 looks up each profile's item pairs in
  ``similarity._item_pair_scores``, which owns item cosine's float32 Gram
  and item Pearson's m x m matrix; a pair's value depends on its two
  columns alone. Profiles of every size go in row blocks of about
  ``_BATCH_ENTRIES`` pairs, or one profile each, filled a piece of that
  size at a time. Where it gives none (item cosine off the half-star
  grid or past the Gram's bound), beta8 is the item cosine reference per
  profile, whose columns come from the raters of its items alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset, _present, _spans
from .recommender import ModelConfig, top_lists, train_knn
from .similarity import (SHRINK_COUNT, _exact_dtype, _item_pair_scores,
                         _scores, _sums_against, item_distance_submatrix,
                         user_distance_matrix, user_similarity_matrix)

FEATURE_NAMES = tuple(f"beta{j}" for j in range(1, 9))
EPSILON_SAMPLE = 1000   # users sampled for the epsilon quantile when larger
# Users per block of beta2's and beta5's n x n row reductions. Row means
# are row-local and beta5's counts small integers, exact in float32, so any
# height gives the same bits; a (rows, n) block holds a few float64
# temporaries. At 6040 x 3706 integer ratings (one OpenBLAS thread, 2-vCPU
# Xeon VM), beta5 took 44 s in one-row chunks and 5.4 s in 64-row blocks
# (BENCH_features.json).
_BLOCK_ROWS = 64
# Item pairs per beta8 row block (or one profile, if it has more) and per
# piece of a block that is scored at once.
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
    config: dict              # resolved snapshot (epsilon, k, metric names)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)


def centralities(sim_matrix: np.ndarray) -> np.ndarray:
    """beta2 of every user, the mean of each row of the n x n similarity
    matrix without its diagonal entry (the one-user reference
    ``centrality`` is in ``tests/oracles.py``)."""
    return _other_user_means(len(sim_matrix), lambda rows: sim_matrix[rows])


def recommendation_overlaps(ds: RatingsDataset, listed) -> np.ndarray:
    """beta5 of every user: the mean Jaccard similarity of each profile to
    the other users' lists, as one matrix pass. The one-user reference,
    ``recommendation_overlap``, is in ``tests/oracles.py``.

    The intersections are one product of the 0/1 profile and list
    indicators (``listed``, as ``top_lists`` returns it); below 2**24 items
    every partial count is an exact float32, in any order BLAS adds. The
    unions are small integers too, exact in float64, so each Jaccard value
    is the reference's integer ratio, and each row's mean runs over v != u
    in order: every value is the reference's to the bit.
    """
    sizes = np.count_nonzero(listed, axis=1)
    counts = _exact_dtype(ds.n_items)
    listed = listed.astype(counts)

    def jaccard(rows):
        shared = ds.mask[rows].astype(counts) @ listed.T
        union = ds.user_counts[rows, None] + sizes - shared
        return np.divide(shared, union, out=np.zeros(union.shape),
                         where=union > 0)
    return _other_user_means(ds.n_users, jaccard)


def _other_user_means(n: int, block) -> np.ndarray:
    """Each user's mean over the other users (0.0 alone) of the n x n
    matrix whose rows ``block(rows)`` gives, ``_BLOCK_ROWS`` at a time."""
    out = np.zeros(n)
    if n > 1:
        for lo in range(0, n, _BLOCK_ROWS):
            rows = np.arange(lo, min(lo + _BLOCK_ROWS, n))
            keep = np.arange(n) != rows[:, None]
            out[rows] = block(rows)[keep].reshape(len(rows), -1).mean(axis=1)
    return out


def intra_profile_distance(ds: RatingsDataset, u: int) -> float:
    """beta8 under item cosine: mean pairwise distance over u's rated items;
    < 2 items gives 0."""
    items = ds.user_items(u)
    t = len(items)
    if t < 2:
        return 0.0
    dist = item_distance_submatrix(ds, items)
    return float(np.mean(dist[np.triu_indices(t, k=1)]))


def resolve_epsilon(ds: RatingsDataset, config: FeatureConfig,
                    dist_matrix: np.ndarray) -> float:
    """beta4's epsilon: the explicit one, which must be > 0, or the
    configured quantile of the pairwise distances ``dist_matrix``."""
    if config.epsilon is not None:
        if config.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        return float(config.epsilon)
    if ds.n_users < 2:
        raise ValueError("the epsilon quantile needs two users; set --epsilon")
    n = ds.n_users
    if n > EPSILON_SAMPLE:
        rng = np.random.default_rng(config.seed)
        sel = np.sort(rng.choice(n, size=EPSILON_SAMPLE, replace=False))
        sub = dist_matrix[np.ix_(sel, sel)]
    else:
        sub = dist_matrix
    iu = np.triu_indices(sub.shape[0], k=1)
    epsilon = _quantile(sub[iu], config.epsilon_quantile)
    if epsilon <= 0:
        raise ValueError(
            f"the {config.epsilon_quantile} quantile of pairwise "
            f"{config.user_distance} user distances is {epsilon:g}, but beta4 "
            f"needs epsilon > 0; set --epsilon, or raise --epsilon-quantile")
    return epsilon


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, float(q))`` of a 1-D array of finite floats,
    bit for bit, by numpy's 'linear' rule on the same ``np.partition``:
    virtual index (n - 1)q, and the lerp of its two neighbors that takes
    the t >= 0.5 branch. ``np.quantile`` itself would call ``np.unique``,
    which imports ``numpy.ma``."""
    if not 0 <= q <= 1:
        raise ValueError("Quantiles must be in the range [0, 1]")
    n = len(values)
    virtual = (n - 1) * float(q)
    prev = nxt = -1   # past the last index, both neighbors are the max
    if virtual < n - 1:
        prev = int(np.floor(virtual))
        nxt = prev + 1
    gamma = virtual - prev
    part = np.partition(values, sorted({0, -1, prev, nxt}))
    a, b = part[prev], part[nxt]
    diff = b - a
    return float(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)


def _size_groups(ds: RatingsDataset):
    """(users, positions) per profile size t: the users rating t items and
    the (users, t) positions of their ratings in ``ds.item_idx`` and
    ``ds.values``."""
    counts = ds.user_counts
    for t in _present(counts):
        users = np.flatnonzero(counts == t)
        yield users, ds._user_ptr[users, None] + np.arange(t)


def _intra_profile_distances(ds: RatingsDataset,
                             item_distance: str) -> np.ndarray:
    """beta8 of every user, bit-identical to the one-user reference.

    Each item pair is scored by ``similarity._item_pair_scores``, whose
    value depends on the pair's two columns alone; where it gives none
    (item cosine off the half-star grid or past its float32 bound) this is
    ``intra_profile_distance`` per user. Profiles of one size t go in
    batches of max(1, ``_BATCH_ENTRIES`` // pairs) users: row r of a block
    holds user r's t(t-1)/2 pairs in ``np.triu_indices`` order, one
    contiguous row that ``np.mean`` reduces as it reduces the reference's
    upper triangle. The block is filled a piece at a time
    (``_triangle_pieces``); a group whose triangle is one piece lists its
    pairs once.
    """
    pair_scores = _item_pair_scores(ds, item_distance)
    if pair_scores is None:
        return np.array([intra_profile_distance(ds, u)
                         for u in range(ds.n_users)])
    out = np.zeros(ds.n_users)
    for users, pos in _size_groups(ds):
        t = pos.shape[1]
        pairs = t * (t - 1) // 2
        if pairs == 0:
            continue
        once = list(_triangle_pieces(t)) if pairs <= _BATCH_ENTRIES else None
        step = max(1, _BATCH_ENTRIES // pairs)
        for lo in range(0, len(users), step):
            items = ds.item_idx[pos[lo:lo + step]]
            block = np.empty((len(items), pairs))
            # np.take, where items[:, i] is 3x slower on one long row
            for span, i, j in once or _triangle_pieces(t):
                dist = block[:, span]
                pair_scores(np.take(items, i, axis=1),
                            np.take(items, j, axis=1), dist)
                # 1 - similarity (similarity._distances), while in cache
                np.subtract(1.0, dist, out=dist)
            out[users[lo:lo + step]] = np.mean(block, axis=1)
    return out


def _triangle_pieces(t: int):
    """The pairs (i, j > i) of t items in ``np.triu_indices`` order, in
    pieces of consecutive triangle rows holding about ``_BATCH_ENTRIES``
    pairs (one row at least): (span, i, j), each piece's slice and indices."""
    # where each triangle row's pairs start; row t - 1 has none
    starts = np.concatenate(([0], np.cumsum(np.arange(t - 1, 0, -1))))
    lo = 0
    while lo < t - 1:
        hi = max(lo + 1, int(np.searchsorted(
            starts, starts[lo] + _BATCH_ENTRIES, side="right")) - 1)
        rows = np.arange(lo, hi)
        sizes = t - 1 - rows
        yield (slice(starts[lo], starts[hi]), np.repeat(rows, sizes),
               _spans(rows + 1, sizes))
        lo = hi


def extract_all(ds: RatingsDataset, model: ModelConfig, l: int,
                config: FeatureConfig = FeatureConfig()) -> FeatureTable:
    """All eight features for every user, under the studied ``model`` and
    its top-``l`` lists.

    beta2 reads the ``config.similarity`` user matrix, which the kNN fit
    of ``model.k`` and ``model.similarity`` for beta3 reuses when the
    kinds agree (for a factorization model it serves beta3 alone); it is
    dropped before any other n x n array is built, so at most one is held
    at a time. beta5 reads ``top_lists`` of the studied model, and beta8
    one m x m matrix: item cosine's float32 Gram on half-star ratings, or
    item Pearson's float64 similarities.

    Each column is computed for all users at once and equals the one-user
    reference's value bit for bit (see the module docstring; all references
    but beta8's under item cosine are in ``tests/oracles.py``).

    ``l < 1`` and ``model.k < 1`` raise ``ValueError`` before any work.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if model.k < 1:
        raise ValueError("k must be >= 1")
    sims = user_similarity_matrix(ds, kind=config.similarity)
    beta2 = centralities(sims)
    sims = sims if model.similarity == config.similarity else None
    knn = train_knn(ds, model.k, model.similarity, sim_matrix=sims)
    del sims
    studied = knn if model.algorithm == "knn" else model.train(ds)
    listed, _ = top_lists(studied, l)
    n = ds.n_users
    values = np.empty((n, 8))
    # beta4 first, its distance matrix freed before beta5's products
    dists = user_distance_matrix(ds, kind=config.user_distance)
    epsilon = resolve_epsilon(ds, config, dists)
    # the zero diagonal is below epsilon, and a user is not its own neighbor
    values[:, 3] = np.count_nonzero(dists < epsilon, axis=1) - 1
    del dists
    values[:, 4] = recommendation_overlaps(ds, listed)
    values[:, 0] = ds.user_counts
    values[:, 1] = beta2
    values[:, 2] = np.bincount(knn.neighbors.ravel(), minlength=n)
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
        "k": knn.k,
    }
    return FeatureTable(ds.user_ids, values, snapshot)
