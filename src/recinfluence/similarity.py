"""Pairwise similarity and distance kernels over sparse rating profiles.

Pearson runs over co-rated items only, with a significance shrink of
min(co_rated, SHRINK_COUNT) / SHRINK_COUNT; cosine runs over the raw sparse
vectors. Pairs with no co-rated items, and degenerate (zero-variance)
correlations, score 0. ``SIMILARITIES`` lists the kinds.

One step, ``_scores``, turns per-pair sums into every score: Pearson's six
sums through ``_pearson_parts`` and the shrink, cosine's dot and norm
product through the same ratio and clip. The sums are formed three ways:

- ``_similarity_rows`` serves user similarities and distances, and item
  Pearson distances as the user distances of ``data._transposed``.
  Leave-one-out retrains reuse cached user similarities, so a pair's
  value must depend only on that pair's rows, bit for bit. When every
  rating is finite and a multiple of 0.5, the doubled values h = 2x are
  integers, and ``_exact_sums``, the one owner of this bound, reads the
  nnz ratings to give the type in which every partial sum of h, h * h
  and mask counts over m items is an exact integer: float32 while
  m * max(1, max|h|)**2 < 2**24, float64 below 2**53 (``_exact_dtype``);
  beta8's item Gram asks it over n users. ``_similarity_blocks`` scatters
  h and the 0/1 mask from the nnz arrays straight into operands of that
  type (``_doubled``), forms each sum as one matrix product over a block
  of users, exact in any order BLAS adds in, converts it to float64 and
  scales it by the exact factor 0.5 or 0.25; cosine norms are per-user
  sums of squares, exact there too. Every score is bitwise symmetric in
  its two rows (the arithmetic after the sums only multiplies commuting
  pairs), so only the blocks on or above the diagonal are formed and each
  is mirrored. Pearson keeps two n x m operands, h and the mask: a first
  pass writes every pair's sum of squares into the output, row block by
  row block, and each upper-triangle block reads both of its pairs' sums
  of squares from there before it writes its scores over them. No float64
  n x m array is made on this path. Half-star and implicit ratings take
  it. Any other ratings (continuous, or past the bound) build the float64
  ratings once (``RatingsDataset.ratings``) and take ``_similarity_loop``,
  the tests' reference, which reduces each pair with the elementwise
  products and np.sum of ``_sums_against``. Both paths give the same bits
  wherever the first applies.
- ``_similarity_loop`` alone scores the one-pair references in
  ``tests/oracles.py``: beta7's ``centroid_similarity`` and the per-profile
  item Pearson. ``features.extract_all`` calls ``_sums_against`` on paired
  (users, t) rows, so each beta7 score is the loop's for that one pair.
- Item cosine sums are one ``cols.T @ cols`` product (beta8's
  ``_item_pair_scores`` slices a float32 Gram of h where ``_exact_sums``
  allows): item distances are never reused across removals, so they carry
  no per-pair order guarantee. ``item_distance_submatrix`` gathers its
  columns from the raters of the listed items alone
  (``RatingsDataset._item_ratings``) into column-major arrays, so its sums
  add in the order they take over the dense ``ratings()[:, items]``.

Every distance is 1 - unshrunk similarity, zero diagonal (``_distances``).
"""

from __future__ import annotations

import numpy as np

from .data import RatingsDataset, _transposed

SHRINK_COUNT = 50
_DEGENERATE = 1e-12
# Users per block of matrix products: max(_BLOCK, m // _BLOCK_ITEMS) for
# m items. A block holds about a dozen float64 (rows x n) temporaries,
# against the n x m operands' 8 bytes an entry (float32 mask and h; 4
# for cosine's h), so these stay within about three eighths of the
# operands. At 120 x 240, 16-row blocks kept the allocation peak below
# the row loop's and 32-row blocks did not. Fewer rows cost BLAS speed: on
# one OpenBLAS thread of a 2-vCPU Intel Xeon VM, a 1500 x 2000 float32
# upper-triangle Pearson matrix took 1.2-1.4 s with 16-row blocks and
# 0.52-0.57 s with 62-row blocks.
_BLOCK = 16
_BLOCK_ITEMS = 32

SIMILARITIES = ("pearson", "cosine")


def _on_half_grid(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is a multiple of 0.5. nan is not, inf
    is (callers bound the magnitude). Holds one temporary the size of x."""
    halves = x * 2
    np.rint(halves, out=halves)
    halves *= 0.5
    return np.array_equal(halves, x)


def _exact_dtype(top: float):
    """The float type in which integers whose magnitudes sum to at most
    ``top`` add exactly in any order: float32 while top < 2**24, float64
    while top < 2**53, else None."""
    if top < 2.0 ** 24:
        return np.float32
    return np.float64 if top < 2.0 ** 53 else None


def _doubled(ds: RatingsDataset, dtype) -> np.ndarray:
    """The doubled ratings h = 2x of ``ds`` as an (n_users, n_items)
    ``dtype`` array, zeros where no rating exists: the nnz ratings are
    scattered into it and doubled in place, so no float64 n x m array is
    made. Exact where ``_exact_sums`` gives ``dtype``."""
    h = np.zeros((ds.n_users, ds.n_items), dtype=dtype)
    h[ds.user_idx, ds.item_idx] = ds.values
    h *= 2
    return h


def _exact_sums(values: np.ndarray, width: int):
    """The float type in which every sum over ``width`` entries of h = 2x
    (``values`` the nnz ratings, all multiples of 0.5), of h * h or of 0/1
    counts is exact, or None: each is at most width * max(1, max|h|)**2,
    which ``_exact_dtype`` bounds; nan fails the grid test and inf the
    bound. The user kernel passes n_items, beta8's item Gram n_users."""
    if not _on_half_grid(values):
        return None
    top = 2 * float(np.abs(values).max(initial=0.0))
    return _exact_dtype(width * max(1.0, top) ** 2)


def _pearson_parts(nc, su, sv, suu, svv, suv):
    """(numerator, denominator, defined) of Pearson from its sums."""
    with np.errstate(invalid="ignore", divide="ignore"):
        num = suv - su * sv / nc
        var_u = np.maximum(suu - su * su / nc, 0.0)
        var_v = np.maximum(svv - sv * sv / nc, 0.0)
        denom = np.sqrt(var_u * var_v)
    return num, denom, (nc > 0) & (denom > _DEGENERATE)


def _bounded_ratio(num, denom, ok, out=None) -> np.ndarray:
    """num / denom where ``ok`` (else 0), clipped to [-1, 1]; divided into
    the zeroed output, so no masked copy of an operand is made. ``out``,
    which may be ``num``, is zeroed only where not ``ok``."""
    if out is None:
        out = np.zeros(num.shape)
    else:
        np.copyto(out, 0.0, where=~ok)
    np.divide(num, denom, out=out, where=ok)
    np.clip(out, -1.0, 1.0, out=out)
    return out


def _scores(kind: str, sums: tuple, shrink: int | None = None,
            out=None) -> np.ndarray:
    """Scores from per-pair sums, elementwise, into a fresh array or
    ``out``: Pearson's six (co-rated count, two sums, two sums of squares,
    cross product), shrunk by min(count, shrink) / shrink when ``shrink``
    is set, or cosine's (dot product, norm product), never shrunk."""
    if kind == "pearson":
        out = _bounded_ratio(*_pearson_parts(*sums), out)
        if shrink:
            out *= np.minimum(sums[0], shrink) / shrink
        return out
    if kind == "cosine":
        dot, norms = sums
        return _bounded_ratio(dot, norms, norms > 0, out)
    raise ValueError(f"unknown similarity {kind!r}")


def _sums_against(kind: str, b: np.ndarray, b_mask: np.ndarray):
    """The sums ``_scores`` reads, as a function of (x, x_mask) against the
    rows of ``b``: np.sums over the last axis, so x may be one row or rows
    paired with b's. Pearson sums entries both masks mark; cosine reads
    raw vectors. b's squares (Pearson) or norms (cosine) are formed once."""
    if kind == "cosine":
        norms = np.sqrt(np.sum(b * b, axis=-1))
        return lambda x, x_mask: (np.sum(x * b, axis=-1),
                                  np.sqrt(np.sum(x * x, axis=-1)) * norms)
    sq = b * b

    def sums(x, x_mask):
        co = x_mask & b_mask
        return (co.sum(axis=-1), np.sum(x * co, axis=-1),
                np.sum(b * co, axis=-1), np.sum((x * x) * co, axis=-1),
                np.sum(sq * co, axis=-1), np.sum((x * b) * co, axis=-1))
    return sums


def _similarity_loop(kind: str, a: np.ndarray, a_mask: np.ndarray,
                     b: np.ndarray, b_mask: np.ndarray,
                     shrink: int | None = SHRINK_COUNT) -> np.ndarray:
    """``_similarity_rows`` one row of ``a`` at a time; exact to the pair on
    any values, as each pair is reduced with np.sum over its two rows."""
    sums = _sums_against(kind, b, b_mask)
    sims = np.zeros((a.shape[0], b.shape[0]))
    for u in range(a.shape[0]):
        sims[u] = _scores(kind, sums(a[u], a_mask[u]), shrink)
    return sims


def _similarity_blocks(kind: str, ds: RatingsDataset, shrink: int | None,
                       dtype) -> np.ndarray:
    """``_similarity_rows`` with each sum one matrix product in ``dtype``
    of doubled ratings (or 0/1 masks) scattered from the nnz arrays, over
    a block of users, scaled back in float64; exact only where
    ``_exact_sums`` gives ``dtype``. Only the blocks on or above the
    diagonal are formed, and each is mirrored into the lower triangle."""
    pearson = kind == "pearson"
    n = ds.n_users
    if not pearson:
        # each square is a multiple of 0.25 and every partial sum is exact,
        # so these are the norms of the dense float64 rows, bit for bit
        norms = np.sqrt(np.bincount(ds.user_idx, weights=np.square(ds.values),
                                    minlength=n))
    sims = np.empty((n, n))
    h = _doubled(ds, dtype)
    step = max(_BLOCK, ds.n_items // _BLOCK_ITEMS)
    if pearson:
        ones = np.zeros(h.shape, dtype=dtype)
        ones[ds.user_idx, ds.item_idx] = 1
        # every pair's suu, row block by row block, so no h * h operand is
        # kept; svv[u, v] is suu[v, u]. A block below reads rows and
        # columns from its own start on, which no earlier block wrote.
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            np.multiply((h[rows] * h[rows]) @ ones.T, 0.25, out=sims[rows],
                        dtype=np.float64)
    for lo in range(0, n, step):
        rows, cols = slice(lo, lo + step), slice(lo, None)
        if pearson:
            m_t, h_t = ones[cols].T, h[cols].T
            sums = (np.asarray(ones[rows] @ m_t, dtype=np.float64),
                    np.multiply(h[rows] @ m_t, 0.5, dtype=np.float64),
                    np.multiply(ones[rows] @ h_t, 0.5, dtype=np.float64),
                    sims[rows, cols], sims[cols, rows].T,
                    np.multiply(h[rows] @ h_t, 0.25, dtype=np.float64))
        else:
            sums = (np.multiply(h[rows] @ h[cols].T, 0.25, dtype=np.float64),
                    norms[rows, None] * norms[cols])
        block = _scores(kind, sums, shrink)
        sims[rows, cols] = block
        sims[cols, rows] = block.T
    return sims


def _similarity_rows(kind: str, ds: RatingsDataset,
                     shrink: int | None = SHRINK_COUNT) -> np.ndarray:
    """Score each user of ``ds`` against every user (n_users x n_users).

    Item similarities are the user similarities of ``data._transposed``.
    Pearson sums co-rated entries only; cosine reads the raw vectors,
    zeros included. A pair's value depends on its two users' ratings
    alone, bit for bit; see the module docstring for the two paths that
    guarantee it. Only the row loop builds the float64 ratings.
    """
    dtype = _exact_sums(ds.values, ds.n_items)
    if dtype:
        return _similarity_blocks(kind, ds, shrink, dtype)
    ratings = ds.ratings()
    return _similarity_loop(kind, ratings, ds.mask, ratings, ds.mask, shrink)


def _distances(sims: np.ndarray) -> np.ndarray:
    """1 - similarity, zero diagonal."""
    dist = 1.0 - sims
    np.fill_diagonal(dist, 0.0)
    return dist


def user_similarity_matrix(ds: RatingsDataset,
                           kind: str = "pearson") -> np.ndarray:
    """n x n shrunk user similarity matrix, self-similarity zeroed."""
    sims = _similarity_rows(kind, ds)
    np.fill_diagonal(sims, 0.0)
    return sims


def user_distance_matrix(ds: RatingsDataset, kind: str = "cosine") -> np.ndarray:
    """n x n user distance matrix: 1 - unshrunk similarity, zero diagonal."""
    return _distances(_similarity_rows(kind, ds, shrink=None))


def item_distance_submatrix(ds: RatingsDataset,
                            items: np.ndarray) -> np.ndarray:
    """Pairwise item cosine distances between the rating columns of
    ``items`` (repeats allowed), from one column product."""
    pos, slot = ds._item_ratings(items)
    cols = np.zeros((ds.n_users, len(items)), order="F")
    cols[ds.user_idx[pos], slot] = ds.values[pos]
    norms = np.sqrt(np.sum(cols * cols, axis=0))
    return _distances(_scores("cosine", (cols.T @ cols,
                                         np.outer(norms, norms))))


def _item_pair_scores(ds: RatingsDataset, kind: str):
    """beta8's unshrunk item similarities, as a function of index arrays
    (a, b) and a float64 array ``out`` of their shape (a view will do),
    which it fills with the value the per-profile route gives each pair:
    ``item_distance_submatrix`` for item cosine, the row loop on the
    profile's columns (``tests/oracles.py``) for item Pearson. Item Pearson
    reads the m x m ``_similarity_rows`` of ``_transposed``; item cosine
    slices the float32 Gram h.T @ h (m * m * 4 bytes), exact in any BLAS
    order where ``_exact_sums`` over n_users gives float32, and scales it
    back by 0.25; its norm product is formed in place. Otherwise item
    cosine gives None."""
    if kind != "cosine":
        sims = _similarity_rows(kind, _transposed(ds), shrink=None)
        return lambda a, b, out: np.copyto(out, sims[a, b])
    if _exact_sums(ds.values, ds.n_users) is not np.float32:
        return None
    h = _doubled(ds, np.float32)
    gram = h.T @ h
    norms = np.sqrt(np.multiply(np.diagonal(gram), 0.25, dtype=np.float64))

    def scores(a, b, out):
        # out holds the dot products until their scores overwrite them
        np.multiply(gram[a, b], 0.25, out=out, dtype=np.float64)
        norm = norms[a]
        norm *= norms[b]
        _scores("cosine", (out, norm), out=out)
    return scores
