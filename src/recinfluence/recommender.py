"""User-kNN and non-negative factorization recommenders with top-l lists.

Both models are immutable once trained and keep a reference to the training
dataset; recommendation candidates are items the target user has not rated
that still have at least one rater in the training data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset, _restrict, _spans
from .similarity import SIMILARITIES, user_similarity_matrix


class TrainingError(RuntimeError):
    """Raised when model fitting fails (for example a diverging objective)."""


def _blend(ds, nbrs, sims, means, out):
    """The one kNN blend: scores of a block of rows into ``out`` (rows, m).

    Row r blends the ratings of its neighbors ``nbrs[r]`` (user indices of
    ``ds``) with weights ``sims[r]`` and falls back to ``means`` where no
    neighbor with non-zero weight rated the item. The ratings come from
    ``ds``'s CSR arrays as (row, rank, item) triples, ordered by row, then
    by neighbor rank, then by item, and each of the two sums is one
    ``np.bincount`` over them. ``bincount`` adds in input order from +0, so
    every entry adds its rated neighbors' terms in rank order: the bits of
    a dense loop over ranks, whose other terms are ±0 added to a sum that
    is never -0. A row's scores depend neither on the block nor on m.
    Rows go in sub-blocks of at most ``_BLEND_TRIPLES`` triples (one row
    at least), which keeps the scratch arrays small. ``KnnModel`` and the
    leave-one-out engine's reduced neighbor lists both score through it.
    """
    rows = len(out)
    ptr = ds._user_ptr
    lo = ptr[nbrs]
    sizes = ptr[nbrs + 1] - lo
    ends = np.cumsum(sizes.sum(axis=1))
    a = 0
    while a < rows:
        start = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, start + _BLEND_TRIPLES,
                                           side="right")))
        _scatter_rows(ds, lo[a:b], sizes[a:b], sims[a:b], means, out[a:b])
        a = b


def _scatter_rows(ds, lo, sizes, sims, means, out):
    """``_blend`` of one sub-block, given each neighbor's CSR start ``lo``
    and rating count ``sizes``; its scratch is freed on return."""
    rows, m = out.shape
    size = sizes.ravel()
    # rating positions of the triples: each neighbor's CSR range in turn
    pos = _spans(lo.ravel(), size)
    flat = np.repeat(np.arange(0, rows * m, m), sizes.sum(axis=1))
    flat += ds.item_idx[pos]
    terms = ds.values[pos]
    weight = np.repeat(sims.ravel(), size)
    terms *= weight
    wsum = np.bincount(flat, weights=terms, minlength=rows * m)
    asum = np.bincount(flat, weights=np.abs(weight, out=weight),
                       minlength=rows * m)
    wsum.shape = asum.shape = (rows, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(wsum, asum, out=out)
    np.copyto(out, means, where=~(asum > 0))


class _RowScorer:
    """A model whose every score comes from its ``score_rows``."""

    def scores_for(self, u: int) -> np.ndarray:
        """Predicted score for every item: one row of ``score_rows``."""
        out = np.empty((1, self.dataset.n_items))
        self.score_rows(np.array([u]), out)
        return out[0]


@dataclass(frozen=True, eq=False)
class KnnModel(_RowScorer):
    """Neighborhood model: per-user top-k neighbor lists plus item means.

    ``order`` holds each user's first min(k + 1, n - 1) other users by
    similarity descending, ties in ascending user index, and ``order_sims``
    their similarities; the neighbor lists (``neighbors``,
    ``neighbor_sims``) are views of its first min(k, n - 1) columns. Ratings
    of a target item are blended as sum(sim * r) / sum(|sim|) over the
    listed neighbors who rated it, each sum added in rank order by one
    ordered scatter of the neighbors' ratings (``_blend``); when no listed
    neighbor rated the item (or their similarities cancel to zero weight)
    the item's mean rating stands in, and an item with no raters at all
    falls back to the global mean.
    """

    dataset: RatingsDataset
    k: int
    similarity: str
    order: np.ndarray           # (n, min(k + 1, n - 1)) int
    order_sims: np.ndarray      # (n, min(k + 1, n - 1)) float
    item_means: np.ndarray      # (m,), global mean where an item has no raters
    global_mean: float

    @property
    def algorithm(self) -> str:
        return "knn"

    @property
    def neighbors(self) -> np.ndarray:
        return self.order[:, :self.k]

    @property
    def neighbor_sims(self) -> np.ndarray:
        return self.order_sims[:, :self.k]

    def score_rows(self, rows, out) -> None:
        """Scores of users ``rows`` for every item into ``out`` (len(rows),
        m): ``_blend`` of their neighbors' ratings."""
        _blend(self.dataset, self.neighbors[rows],
               self.neighbor_sims[rows], self.item_means, out)


@dataclass(frozen=True, eq=False)
class NmfModel(_RowScorer):
    """Nonnegative factorization model fit by multiplicative updates.

    Minimizes the squared Frobenius error of p @ q.T against the rating
    matrix, by default restricted to observed entries (masked objective).
    The objective trace is recorded per iteration and is non-increasing up
    to arithmetic noise. The fit holds the ratings and one (n, m) buffer
    (``_nmf_iterate``), and its factors and trace are bit-identical to
    those of the updates with a float weight matrix and fresh temporaries
    while every product is finite; a non-finite objective raises
    ``TrainingError``.
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

    def score_rows(self, rows, out) -> None:
        """Scores of users ``rows`` into ``out`` (len(rows), m): stacked
        (1, f) @ (f, m) slices, each the gemv of one user's ``p[u] @ q.T``
        (a 2-D product would run a gemm, whose sums differ in last bits)."""
        np.matmul(self.p[rows, None, :], self.q.T, out=out[:, None, :])


def _cut(scores: np.ndarray, d: int):
    """The one selection rule of ``_neighbor_order`` and ``_top_lists``: the
    (rows, m) bool mask of each row's entries above its d-th largest value
    (1 <= d <= m), then those equal to it (-0.0 and 0.0 alike) in index
    order until the row holds d, and that value per row. Nothing is sorted.
    """
    m = scores.shape[1]
    # a copy, so the partitioned buffer is freed at once
    thr = np.partition(scores, m - d, axis=1)[:, m - d].copy()
    keep = scores > thr[:, None]
    tied = scores == thr[:, None]
    room = d - np.count_nonzero(keep, axis=1)
    keep |= tied & (np.cumsum(tied, axis=1) <= room[:, None])
    return keep, thr


# Bytes of similarity rows one block of ``_neighbor_order`` copies and
# partitions; its scratch is a few times this. At 6040 users (5 rows a
# block) the order to depth 21 took 0.45-0.56 s with a 1.7 MiB traced
# peak, against 0.45-0.58 s and 4.1 MiB with 1 MiB blocks, 0.66-0.88 s
# and 1.1 MiB with 64 KiB blocks, and 4.1-4.7 s and 591 MiB for one full
# stable sort (one OpenBLAS thread, 2-vCPU Xeon VM).
_ORDER_BYTES = 1 << 18


def _neighbor_order(sim_matrix: np.ndarray, depth: int) -> np.ndarray:
    """Each user's first min(depth, n - 1) other users by similarity
    descending, ties (-0.0 and 0.0 alike) in ascending user index: the
    order of one stable sort of each row, self dropped, as an
    (n, min(depth, n - 1)) int array.

    Rows go in blocks of about ``_ORDER_BYTES``. Each row's own entry is
    set to -inf, ``_cut`` keeps the row's top ``depth`` (its mask is not
    held past the block), and only those are sorted, stably. Non-finite
    similarities are refused with ``ValueError``.
    """
    n = len(sim_matrix)
    depth = min(depth, n - 1)
    order = np.empty((n, max(depth, 0)), dtype=np.intp)
    if depth < 1:
        return order
    step = max(1, _ORDER_BYTES // (8 * n))
    for lo in range(0, n, step):
        block = sim_matrix[lo:lo + step]
        if not np.isfinite(block).all():
            raise ValueError("similarity matrix holds a non-finite value")
        block = block.copy()
        np.fill_diagonal(block[:, lo:], -np.inf)
        cols = np.nonzero(_cut(block, depth)[0])[1].reshape(len(block), depth)
        ranks = np.argsort(-np.take_along_axis(block, cols, axis=1), axis=1,
                           kind="stable")
        order[lo:lo + step] = np.take_along_axis(cols, ranks, axis=1)
    return order


def train_knn(ds: RatingsDataset, k: int, similarity: str = "pearson",
              sim_matrix: np.ndarray | None = None) -> KnnModel:
    """Fit the neighborhood model.

    ``sim_matrix`` lets callers inject precomputed pairwise similarities
    (the features stage passes its beta2 matrix); else they are computed.
    The matrix is sorted once, by ``_neighbor_order`` to depth min(k + 1,
    n - 1): one deeper than the neighbor lists, which are its first
    min(k, n - 1) columns. A matrix that is not (n, n) or holds a
    non-finite value raises ``ValueError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if similarity not in SIMILARITIES:
        raise ValueError(f"unknown similarity {similarity!r}")
    n = ds.n_users
    if k >= n:
        warnings.warn(f"k={k} >= n_users={n}; reduced to {n - 1}",
                      stacklevel=2)
    if sim_matrix is None:
        sim_matrix = user_similarity_matrix(ds, kind=similarity)
    elif sim_matrix.shape != (n, n):
        raise ValueError(f"sim_matrix must be a ({n}, {n}) array")
    order = _neighbor_order(sim_matrix, min(k + 1, n - 1))
    order_sims = np.take_along_axis(sim_matrix, order, axis=1)

    counts = ds.item_counts
    global_mean = ds.global_mean
    with np.errstate(invalid="ignore", divide="ignore"):
        means = ds.item_sums / counts
    item_means = np.where(counts > 0, means, global_mean)
    for arr in (order, order_sims, item_means):
        arr.flags.writeable = False
    return KnnModel(ds, k, similarity, order, order_sims, item_means,
                    global_mean)


def predict_knn(model: KnnModel, u: int, i: int) -> float:
    """Single-pair rating prediction: the score ``scores_for`` gives item i."""
    return float(model.scores_for(u)[i])


_EPS = 1e-12
# Rows per chunk (``_row_chunks``) keep each (rows, width) float buffer
# near this many bytes.
_CHUNK_BYTES = 64 * 1024
# Most (row, rank, item) triples one ``_blend`` sub-block holds, so its
# scratch (four or five 8-byte values a triple) stays near two score
# chunks, what the dense loop over ranks held.
_BLEND_TRIPLES = _CHUNK_BYTES // 16
# Densest mask whose objective gathers the observed entries. Up to it the
# four nnz-sized vectors (32 bytes a rating) hold no more than one more
# (n, m) buffer would, and the gathers cost less than forming p @ q.T
# once more per iteration: the two met at 20-30% in one-thread fit
# timings with 8 and 40 factors (2-vCPU Xeon VM, OpenBLAS). End to end on
# the nmf-loo bench workload (5% observed), gathering gave 17% lower
# audit_s than the re-product route in 10 of 10 alternating pairs.
_GATHER_DENSITY = 0.25


def _nmf_iterate(m, mask, p, q, n_iters, rel_tol, history):
    """Alternating multiplicative updates; appends objectives to history,
    starting with the objective of ``p`` and ``q`` when it is empty.

    ``mask`` is the bool mask of observed entries for a masked fit, or
    None to fit every entry. Precondition: ``m`` is +0 wherever ``mask``
    is False (``_fit_nmf`` passes the float64 ratings it builds), so the
    updates read ``m`` itself in place of ``w * m``, where ``w`` is the
    float weights.

    The fit holds one (n, m) buffer, ``buf``, and allocates no (n, m)
    array per iteration. With a mask, each ``p @ q.T`` is multiplied in
    place by it, so ``buf`` holds ``w * pq`` (without one, ``pq`` itself),
    which serves the objective and the next p update. The objective takes
    one of two routes:

    - A mask no denser than ``_GATHER_DENSITY``: gather ``buf`` at the
      observed entries, square ``m - buf`` there in nnz-sized vectors and
      scatter the squares into ``buf``, whose other entries are already
      ``pq * 0`` = +0, the square of ``0 - 0``. One full-array ``np.sum``
      adds the same values in the same layout as the sum of ``(w * (m -
      pq))**2``, and the gathered products are scattered back.
    - No mask, or a denser one: square ``m - buf`` in ``buf`` itself,
      and form the same product again before the next update.

    Every factor and objective is bit-identical to the route with a float
    weight matrix and fresh temporaries while every product is finite. A
    non-finite objective raises ``TrainingError``.
    """
    buf = np.empty((len(p), len(q)))
    gather = (mask is not None
              and np.count_nonzero(mask) <= _GATHER_DENSITY * mask.size)
    if gather:
        idx = np.flatnonzero(mask)
        flat = buf.reshape(-1)
        observed = m.reshape(-1)[idx]
        products = np.empty(len(idx))
        squares = np.empty(len(idx))

    def product(p, q):
        np.matmul(p, q.T, out=buf)
        if mask is not None:
            np.multiply(buf, mask, out=buf)

    def objective():
        if gather:
            # "clip" writes into products; the default "raise" buffers
            # an nnz-sized copy on each call
            np.take(flat, idx, out=products, mode="clip")
            np.subtract(observed, products, out=squares)
            np.multiply(squares, squares, out=squares)
            flat[idx] = squares
            obj = float(np.sum(buf))
            flat[idx] = products
        else:
            np.subtract(m, buf, out=buf)
            np.multiply(buf, buf, out=buf)
            obj = float(np.sum(buf))
        if not np.isfinite(obj):
            raise TrainingError(f"objective is not finite: {obj}")
        return obj

    product(p, q)
    # whether buf holds residual squares in place of the product
    stale = False
    if not history:
        history.append(objective())
        stale = not gather
    for _ in range(n_iters):
        if stale:
            product(p, q)
        p = p * ((m @ q) / (buf @ q + _EPS))
        product(p, q)
        q = q * ((m.T @ p) / (buf.T @ p + _EPS))
        product(p, q)
        obj = objective()
        stale = not gather
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
    full = ds.n_ratings == ds.n_users * ds.n_items
    mask = ds.mask if masked and not full else None
    history = []
    p, q = _nmf_iterate(ds.ratings(), mask, p, q, n_iters, rel_tol, history)
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
    below ``rel_tol`` (0 disables early stopping; below 0 or NaN raises).
    """
    if factors < 1:
        raise ValueError("factors must be >= 1")
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    if not rel_tol >= 0:
        raise ValueError("rel_tol must be >= 0")
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
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    p = np.array(p0, dtype=np.float64)
    q = np.array(q0, dtype=np.float64)
    return _fit_nmf(ds, p, q, seed, n_iters, 0.0, masked)


def top_items(model, u: int, l: int) -> np.ndarray:
    """Indices of the top-l eligible items, score descending, index
    ascending, from one ``scores_for`` of u."""
    if l < 1:
        raise ValueError("l must be >= 1")
    ds = model.dataset
    candidates = np.flatnonzero(~ds.mask[u] & (ds.item_counts > 0))
    scores = model.scores_for(u)[candidates]
    return candidates[np.lexsort((candidates, -scores))[:l]]


def _top_lists(scores, cand, l):
    """Top-l lists of a block of rows in one pass, ranked as ``top_items``
    ranks them: score descending, item index ascending.

    ``scores`` (rows, m) is overwritten; ``cand`` marks each row's
    candidates, whose scores are finite. Returns the (rows, m) bool
    indicator of the lists and each row's l-th score (-inf for a row with
    fewer than l candidates): ``_cut`` with non-candidates at -inf, ANDed
    with ``cand``, as a row short of l candidates fills its ties from them.
    """
    rows, m = scores.shape
    scores[~cand] = -np.inf
    if l > m:
        return cand.copy(), np.full(rows, -np.inf)
    lists, thr = _cut(scores, l)
    lists &= cand
    return lists, thr


def _row_chunks(rows, width: int):
    """Consecutive slices of ``rows`` whose (len(slice), width) float
    buffers fill about ``_CHUNK_BYTES``."""
    step = max(1, _CHUNK_BYTES // (8 * width))
    for lo in range(0, len(rows), step):
        yield rows[lo:lo + step]


def _list_chunks(ds: RatingsDataset, rows, score, live, l: int):
    """Yield (chunk, lists, l-th scores) for ``rows`` chunk by chunk.

    ``score(chunk, out)`` fills a (len(chunk), m) buffer; a row's
    candidates are the ``live`` items (those with a rater) it has not
    rated. Each chunk is ranked by ``_top_lists``.
    """
    mask = ds.mask
    for chunk in _row_chunks(rows, ds.n_items):
        scores = np.empty((len(chunk), ds.n_items))
        score(chunk, scores)
        cand = ~mask[chunk] & live
        yield (chunk, *_top_lists(scores, cand, l))


def top_lists(model, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Every user's ``top_items`` list in one chunked pass.

    Returns the (n, m) bool indicator of the lists and each list's l-th
    score (-inf for a user with fewer than l candidates). Rows are scored
    by ``model.score_rows``, as ``top_items`` scores them, so every list
    holds exactly the items ``top_items(model, v, l)`` returns.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    ds = model.dataset
    n = ds.n_users
    lists = np.zeros((n, ds.n_items), dtype=bool)
    thr = np.empty(n)
    for rows, chunk_lists, chunk_thr in _list_chunks(
            ds, np.arange(n), model.score_rows, ds.item_counts > 0, l):
        lists[rows] = chunk_lists
        thr[rows] = chunk_thr
    return lists, thr


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
        if self.algorithm == "knn" and self.k < 1:
            raise ValueError("k must be >= 1")

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
    train = _restrict(ds, keep, np.arange(ds.n_users), np.arange(ds.n_items))
    return train, test


def evaluate(model, test: dict[int, dict[int, float]], l: int,
             relevance_threshold: float) -> dict[str, float]:
    """Mean precision@l and recall@l of the ``top_lists`` lists against
    held-out relevant items.

    Users with no relevant test item are excluded from both means.
    """
    if not test:
        raise ValueError("empty test set")
    train_mask = model.dataset.mask
    listed, _ = top_lists(model, l)
    precisions, recalls = [], []
    for u, held in test.items():
        relevant = sorted(i for i, r in held.items()
                          if r >= relevance_threshold)
        if not relevant:
            continue
        if train_mask[u, relevant].any():
            raise ValueError(f"test ratings overlap training for user {u}")
        hits = int(np.count_nonzero(listed[u, relevant]))
        precisions.append(hits / l)
        recalls.append(hits / len(relevant))
    if not precisions:
        raise ValueError("no user has a relevant test item")
    return {"precision_at_l": float(np.mean(precisions)),
            "recall_at_l": float(np.mean(recalls))}
