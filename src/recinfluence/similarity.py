"""Pairwise similarity and distance kernels over sparse rating profiles.

Pearson runs over co-rated items only, with a significance shrink of
min(co_rated, SHRINK_COUNT) / SHRINK_COUNT; cosine runs over the raw sparse
vectors. Pairs with no co-rated items, and degenerate (zero-variance)
correlations, score 0.

User similarities (``user_similarity_matrix``, and through it
``user_distance_matrix``), item Pearson distances (``item_distance_submatrix``)
and the beta7 centroid score (``features.centroid_similarity``) all go through
the one row routine ``_similarity_rows``. It reduces row by row with
elementwise products and np.sum, so a pair's value depends only on that
pair's profiles. Leave-one-out retrains reuse cached user similarities, and
this keeps the reuse bitwise identical to a from-scratch recomputation.

Item cosine distances are one ``cols.T @ cols`` matrix product instead: item
distances are never reused across removals, so they carry no per-pair order
guarantee.
"""

from __future__ import annotations

import numpy as np

from .data import RatingsDataset

SHRINK_COUNT = 50
_DEGENERATE = 1e-12

SIMILARITIES = ("pearson", "cosine")


def _similarity_rows(kind: str, a: np.ndarray, a_mask: np.ndarray,
                     b: np.ndarray, b_mask: np.ndarray,
                     shrink: int | None = SHRINK_COUNT) -> np.ndarray:
    """Score each row of ``a`` against every row of ``b`` (len(a) x len(b)).

    Rows are value vectors over the same columns; the masks mark observed
    entries (Pearson only; cosine reads the raw vectors, zeros included).
    A pair's value is reduced with np.sum over its two rows alone.
    """
    if kind not in SIMILARITIES:
        raise ValueError(f"unknown similarity {kind!r}")
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
            su = np.sum(ru * co, axis=1)
            sv = np.sum(b * co, axis=1)
            suu = np.sum((ru * ru) * co, axis=1)
            svv = np.sum(sq * co, axis=1)
            suv = np.sum((ru * b) * co, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                num = suv - su * sv / nc
                var_u = np.maximum(suu - su * su / nc, 0.0)
                var_v = np.maximum(svv - sv * sv / nc, 0.0)
                denom = np.sqrt(var_u * var_v)
            ok = (nc > 0) & (denom > _DEGENERATE)
        else:
            num = np.sum(ru * b, axis=1)
            denom = norms_a[u] * norms_b
            ok = denom > 0
        row = np.zeros(b.shape[0])
        row[ok] = num[ok] / denom[ok]
        np.clip(row, -1.0, 1.0, out=row)
        if pearson and shrink:
            row *= np.minimum(nc, shrink) / shrink
        sims[u] = row
    return sims


def user_similarity_matrix(ds: RatingsDataset, kind: str = "pearson",
                           shrink: int | None = SHRINK_COUNT,
                           zero_diagonal: bool = True) -> np.ndarray:
    """n x n user similarity matrix; self-similarity zeroed by default."""
    ratings, mask = ds.dense
    sims = _similarity_rows(kind, ratings, mask, ratings, mask, shrink)
    if zero_diagonal:
        np.fill_diagonal(sims, 0.0)
    return sims


def user_distance_matrix(ds: RatingsDataset, kind: str = "cosine") -> np.ndarray:
    """n x n user distance matrix: 1 - unshrunk similarity, zero diagonal."""
    sims = user_similarity_matrix(ds, kind=kind, shrink=None,
                                  zero_diagonal=False)
    dist = 1.0 - sims
    np.fill_diagonal(dist, 0.0)
    return dist


def item_distance_submatrix(ds: RatingsDataset, items: np.ndarray,
                            kind: str = "cosine") -> np.ndarray:
    """Pairwise distances between the rating columns of ``items``."""
    ratings, mask = ds.dense
    cols = ratings[:, items]
    if kind == "cosine":
        norms = np.sqrt(np.sum(cols * cols, axis=0))
        num = cols.T @ cols
        denom = np.outer(norms, norms)
        sims = np.zeros_like(num)
        ok = denom > 0
        sims[ok] = num[ok] / denom[ok]
        np.clip(sims, -1.0, 1.0, out=sims)
    else:
        rows = np.ascontiguousarray(cols.T)
        observed = np.ascontiguousarray(mask[:, items].T)
        sims = _similarity_rows(kind, rows, observed, rows, observed,
                                shrink=None)
    dist = 1.0 - sims
    np.fill_diagonal(dist, 0.0)
    return dist
