"""Pairwise similarity and distance kernels over sparse rating profiles.

Pearson runs over co-rated items only, with a significance shrink of
min(co_rated, SHRINK_COUNT) / SHRINK_COUNT; cosine runs over the raw sparse
vectors. Pairs with no co-rated items, and degenerate (zero-variance)
correlations, score 0.

User similarities and distances (``user_similarity_matrix``,
``user_distance_matrix``), item Pearson distances (``item_distance_submatrix``)
and the beta7 centroid score (``features.centroid_similarity``) all go through
the one routine ``_similarity_rows``. Leave-one-out retrains reuse cached user
similarities, so a pair's value must depend only on that pair's profiles,
bit for bit.

``_similarity_rows`` takes one of two paths, chosen from its input:

- When ``_exact_sums`` holds (every value finite and a multiple of 0.5, every
  value 0 where its mask is False, and m * max|value|**2 < 2**51), the
  per-pair sums (co-rated count, sums, sums of squares, cross products; for
  cosine the dot product) are matrix products over blocks of ``_BLOCK`` rows
  of ``a``. Each term is then a multiple of 0.25 and every partial sum is a
  multiple of 0.25 below 2**51, hence an exact float64, so the totals do not
  depend on the order BLAS adds in. Half-star and implicit ratings take this
  path.
- Any other input (continuous ratings, beta7's per-item means) takes
  ``_similarity_loop``, which reduces row by row with elementwise products
  and np.sum over the pair's two rows. It is also the tests' reference.

Both paths run the same arithmetic after the sums (``_pearson_parts`` and
``_bounded_ratio``), so they return the same bits on every input the
products path accepts.

Item cosine distances are one ``cols.T @ cols`` matrix product instead, with
the ratio and clip of ``_bounded_ratio``: item distances are never reused
across removals, so they carry no per-pair order guarantee. Every distance,
user or item, is 1 - unshrunk similarity with a zero diagonal (``_distances``).
"""

from __future__ import annotations

import numpy as np

from .data import RatingsDataset

SHRINK_COUNT = 50
_DEGENERATE = 1e-12
# Rows of ``a`` per block of matrix products. A block holds about a dozen
# (_BLOCK x len(b)) temporaries: at 120 x 240, 16-row blocks keep the
# allocation peak below the row loop's and 32-row blocks do not. Fewer rows
# cost BLAS speed: on one OpenBLAS thread of an Intel Xeon VM, a 1500 x 2000
# Pearson matrix took 8.7 s with 4-row blocks and 3.0 s with 16-row blocks.
_BLOCK = 16
_EXACT_LIMIT = 2.0 ** 51

SIMILARITIES = ("pearson", "cosine")


def _exact_sums(a: np.ndarray, a_mask: np.ndarray, b: np.ndarray,
                b_mask: np.ndarray) -> bool:
    """Whether every per-pair sum over ``a`` and ``b`` is an exact float64.

    True when every value is finite and a multiple of 0.5, every value is 0
    wherever its mask is False (so a product with the other mask sums over
    co-rated entries only), and m * max|value|**2 < 2**51. Each check holds
    at most one (n x m) temporary; nan fails the grid test and inf the bound.
    """
    top = 0.0
    same = b is a and b_mask is a_mask
    for x, mask in ((a, a_mask),) if same else ((a, a_mask), (b, b_mask)):
        halves = x * 2
        np.rint(halves, out=halves)
        halves *= 0.5
        if not (np.array_equal(halves, x)
                and np.count_nonzero(x) == np.count_nonzero(x[mask])):
            return False
        del halves
        top = max(top, float(np.abs(x).max(initial=0.0)))
    return a.shape[1] * top * top < _EXACT_LIMIT


def _pearson_parts(nc, su, sv, suu, svv, suv):
    """(numerator, denominator, defined) of Pearson from its sums."""
    with np.errstate(invalid="ignore", divide="ignore"):
        num = suv - su * sv / nc
        var_u = np.maximum(suu - su * su / nc, 0.0)
        var_v = np.maximum(svv - sv * sv / nc, 0.0)
        denom = np.sqrt(var_u * var_v)
    return num, denom, (nc > 0) & (denom > _DEGENERATE)


def _bounded_ratio(num, denom, ok, nc=None, shrink=None) -> np.ndarray:
    """num / denom where ``ok`` (else 0), clipped to [-1, 1], then shrunk
    by min(nc, shrink) / shrink when ``nc`` is given and shrink is set."""
    out = np.zeros(num.shape)
    out[ok] = num[ok] / denom[ok]
    np.clip(out, -1.0, 1.0, out=out)
    if nc is not None and shrink:
        out *= np.minimum(nc, shrink) / shrink
    return out


def _similarity_loop(kind: str, a: np.ndarray, a_mask: np.ndarray,
                     b: np.ndarray, b_mask: np.ndarray,
                     shrink: int | None = SHRINK_COUNT) -> np.ndarray:
    """``_similarity_rows`` one row of ``a`` at a time, reduced with np.sum.

    Exact to the pair on any values: a pair's value is reduced with np.sum
    over its two rows alone.
    """
    pearson = kind == "pearson"
    sims = np.zeros((a.shape[0], b.shape[0]))
    if pearson:
        sq = b * b
    else:
        norms_a = np.sqrt(np.sum(a * a, axis=1))
        norms_b = np.sqrt(np.sum(b * b, axis=1))
    for u in range(a.shape[0]):
        ru = a[u]
        if pearson:
            co = a_mask[u] & b_mask
            nc = co.sum(axis=1)
            num, denom, ok = _pearson_parts(
                nc, np.sum(ru * co, axis=1), np.sum(b * co, axis=1),
                np.sum((ru * ru) * co, axis=1), np.sum(sq * co, axis=1),
                np.sum((ru * b) * co, axis=1))
        else:
            nc = None
            num = np.sum(ru * b, axis=1)
            denom = norms_a[u] * norms_b
            ok = denom > 0
        sims[u] = _bounded_ratio(num, denom, ok, nc, shrink)
    return sims


def _similarity_blocks(kind: str, a: np.ndarray, a_mask: np.ndarray,
                       b: np.ndarray, b_mask: np.ndarray,
                       shrink: int | None = SHRINK_COUNT) -> np.ndarray:
    """``_similarity_rows`` with each sum a matrix product over a block of
    ``_BLOCK`` rows of ``a``; exact only where ``_exact_sums`` holds."""
    pearson = kind == "pearson"
    sims = np.empty((a.shape[0], b.shape[0]))
    if pearson:
        bm = b_mask.astype(np.float64)
        sq = b * b
    else:
        norms_a = np.sqrt(np.sum(a * a, axis=1))
        norms_b = np.sqrt(np.sum(b * b, axis=1))
    for lo in range(0, a.shape[0], _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        ra = a[rows]
        if pearson:
            am = a_mask[rows].astype(np.float64)
            nc = am @ bm.T
            num, denom, ok = _pearson_parts(
                nc, ra @ bm.T, am @ b.T, (ra * ra) @ bm.T, am @ sq.T,
                ra @ b.T)
        else:
            nc = None
            num = ra @ b.T
            denom = norms_a[rows, None] * norms_b
            ok = denom > 0
        sims[rows] = _bounded_ratio(num, denom, ok, nc, shrink)
    return sims


def _similarity_rows(kind: str, a: np.ndarray, a_mask: np.ndarray,
                     b: np.ndarray, b_mask: np.ndarray,
                     shrink: int | None = SHRINK_COUNT) -> np.ndarray:
    """Score each row of ``a`` against every row of ``b`` (len(a) x len(b)).

    Rows are value vectors over the same columns; the masks mark observed
    entries (Pearson only; cosine reads the raw vectors, zeros included).
    A pair's value depends on its two rows alone, bit for bit; see the
    module docstring for the two paths that guarantee it.
    """
    if kind not in SIMILARITIES:
        raise ValueError(f"unknown similarity {kind!r}")
    if _exact_sums(a, a_mask, b, b_mask):
        return _similarity_blocks(kind, a, a_mask, b, b_mask, shrink)
    return _similarity_loop(kind, a, a_mask, b, b_mask, shrink)


def _distances(sims: np.ndarray) -> np.ndarray:
    """1 - similarity, zero diagonal."""
    dist = 1.0 - sims
    np.fill_diagonal(dist, 0.0)
    return dist


def user_similarity_matrix(ds: RatingsDataset,
                           kind: str = "pearson") -> np.ndarray:
    """n x n shrunk user similarity matrix, self-similarity zeroed."""
    sims = _similarity_rows(kind, *ds.dense, *ds.dense)
    np.fill_diagonal(sims, 0.0)
    return sims


def user_distance_matrix(ds: RatingsDataset, kind: str = "cosine") -> np.ndarray:
    """n x n user distance matrix: 1 - unshrunk similarity, zero diagonal."""
    return _distances(_similarity_rows(kind, *ds.dense, *ds.dense,
                                       shrink=None))


def item_distance_submatrix(ds: RatingsDataset, items: np.ndarray,
                            kind: str = "cosine") -> np.ndarray:
    """Pairwise distances between the rating columns of ``items``."""
    ratings, mask = ds.dense
    cols = ratings[:, items]
    if kind == "cosine":
        norms = np.sqrt(np.sum(cols * cols, axis=0))
        denom = np.outer(norms, norms)
        return _distances(_bounded_ratio(cols.T @ cols, denom, denom > 0))
    rows = np.ascontiguousarray(cols.T)
    observed = np.ascontiguousarray(mask[:, items].T)
    return _distances(_similarity_rows(kind, rows, observed, rows, observed,
                                       shrink=None))
