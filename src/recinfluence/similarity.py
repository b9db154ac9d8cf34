"""Pairwise similarity and distance kernels over sparse rating profiles.

Pearson runs over co-rated items only, with a significance shrink of
min(co_rated, SHRINK_COUNT) / SHRINK_COUNT; cosine runs over the raw sparse
vectors. Pairs with no co-rated items, and degenerate (zero-variance)
correlations, score 0. ``SIMILARITIES`` lists the kinds.

One step, ``_scores``, turns per-pair sums into every score: Pearson's six
sums through ``_pearson_parts`` and the shrink, cosine's dot and norm
product through the same ratio and clip. The sums are formed three ways:

- ``_similarity_rows`` serves user similarities and distances, item
  Pearson distances and the beta7 reference. Leave-one-out retrains reuse
  cached user similarities, so a pair's value must depend only on that
  pair's rows, bit for bit. When every value is finite, a multiple of
  0.5 and 0 where its mask is False, the doubled values h = 2x are
  integers, and ``_exact_sums`` gives the type in which every partial sum
  of h, h * h and mask counts is an exact integer: float32 while
  m * max(1, max|h|)**2 < 2**24, float64 below 2**53 (``_exact_dtype``).
  ``_similarity_blocks`` then forms each sum as one matrix product in that
  type over a block of rows of ``a``, exact in any order BLAS adds in,
  converts it to float64 and scales it by the exact factor 0.5 or 0.25.
  Every score is bitwise symmetric in its two rows (the arithmetic after
  the sums only multiplies commuting pairs), so when ``a is b`` only the
  blocks on or above the diagonal are formed and each is mirrored.
  Half-star and implicit ratings take this path. Any other input
  (continuous ratings, beta7's item means) takes ``_similarity_loop``,
  the tests' reference, which reduces each pair with the elementwise
  products and np.sum of ``_sums_against``. Both paths give the same bits
  wherever the first applies.
- ``features.extract_all`` calls ``_sums_against`` on paired (users, t)
  rows, so each beta7 score is the loop's for that one pair.
- Item cosine sums are one ``cols.T @ cols`` product (beta8 slices a
  float32 Gram instead): item distances are never reused across removals,
  so they carry no per-pair order guarantee.

Every distance is 1 - unshrunk similarity, zero diagonal (``_distances``).
"""

from __future__ import annotations

import numpy as np

from .data import RatingsDataset

SHRINK_COUNT = 50
_DEGENERATE = 1e-12
# Rows of ``a`` per block of matrix products: max(_BLOCK, m // _BLOCK_ITEMS)
# for m columns. A block holds about a dozen float64 (rows x len(b))
# temporaries, against the n x m operands' 12 bytes an entry (float32 mask,
# h and h * h; 4 for cosine's h), so these stay within about a quarter of
# the operands. At 120 x 240, 16-row blocks keep the allocation peak below
# the row loop's and 32-row blocks do not. Fewer rows cost BLAS speed: on
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


def _exact_sums(a: np.ndarray, a_mask: np.ndarray, b: np.ndarray,
                b_mask: np.ndarray):
    """The float type in which every per-pair sum over the doubled values
    h = 2a and 2b is exact, or None when there is none.

    Every value must be finite and a multiple of 0.5 (so h holds integers)
    and 0 wherever its mask is False (so a product with the other mask sums
    over co-rated entries only). Each sum of h, h * h or mask counts over m
    columns is then at most m * max(1, max|h|)**2, which ``_exact_dtype``
    bounds. Each check holds at most one (n x m) temporary; nan fails the
    grid test and inf the bound.
    """
    top = 0.0
    same = b is a and b_mask is a_mask
    for x, mask in ((a, a_mask),) if same else ((a, a_mask), (b, b_mask)):
        if not (_on_half_grid(x)
                and np.count_nonzero(x) == np.count_nonzero(x[mask])):
            return None
        top = max(top, float(np.abs(x).max(initial=0.0)))
    return _exact_dtype(a.shape[1] * max(1.0, 2 * top) ** 2)


def _pearson_parts(nc, su, sv, suu, svv, suv):
    """(numerator, denominator, defined) of Pearson from its sums."""
    with np.errstate(invalid="ignore", divide="ignore"):
        num = suv - su * sv / nc
        var_u = np.maximum(suu - su * su / nc, 0.0)
        var_v = np.maximum(svv - sv * sv / nc, 0.0)
        denom = np.sqrt(var_u * var_v)
    return num, denom, (nc > 0) & (denom > _DEGENERATE)


def _bounded_ratio(num, denom, ok) -> np.ndarray:
    """num / denom where ``ok`` (else 0), clipped to [-1, 1]."""
    out = np.zeros(num.shape)
    out[ok] = num[ok] / denom[ok]
    np.clip(out, -1.0, 1.0, out=out)
    return out


def _scores(kind: str, sums: tuple, shrink: int | None = None) -> np.ndarray:
    """Scores from per-pair sums, elementwise: Pearson's six (co-rated
    count, two sums, two sums of squares, cross product), shrunk by
    min(count, shrink) / shrink when ``shrink`` is set, or cosine's (dot
    product, norm product), never shrunk."""
    if kind == "pearson":
        out = _bounded_ratio(*_pearson_parts(*sums))
        if shrink:
            out *= np.minimum(sums[0], shrink) / shrink
        return out
    if kind == "cosine":
        dot, norms = sums
        return _bounded_ratio(dot, norms, norms > 0)
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


def _doubled(x: np.ndarray, dtype) -> np.ndarray:
    """2 * x as ``dtype``: cast, then doubled in place, so no float64
    temporary the size of x is made."""
    h = x.astype(dtype)
    h *= 2
    return h


def _similarity_blocks(kind: str, a: np.ndarray, a_mask: np.ndarray,
                       b: np.ndarray, b_mask: np.ndarray,
                       shrink: int | None, dtype) -> np.ndarray:
    """``_similarity_rows`` with each sum one matrix product in ``dtype``
    of doubled values (or masks) over a block of rows of ``a``, scaled
    back in float64; exact only where ``_exact_sums`` gives ``dtype``.
    When ``a is b`` only the blocks on or above the diagonal are formed,
    and each is mirrored into the lower triangle."""
    pearson = kind == "pearson"
    same = a is b and a_mask is b_mask
    if not pearson:     # before sims and the copies, as a * a is n x m
        norms_a = np.sqrt(np.sum(a * a, axis=1))
        norms_b = norms_a if same else np.sqrt(np.sum(b * b, axis=1))
    sims = np.empty((a.shape[0], b.shape[0]))
    hb = _doubled(b, dtype)
    if pearson:
        mb = b_mask.astype(dtype)
        hb2 = hb * hb
    step = max(_BLOCK, a.shape[1] // _BLOCK_ITEMS)
    for lo in range(0, a.shape[0], step):
        rows = slice(lo, lo + step)
        cols = slice(lo if same else 0, None)
        ha = hb[rows] if same else _doubled(a[rows], dtype)
        if pearson:
            ma = mb[rows] if same else a_mask[rows].astype(dtype)
            ha2 = hb2[rows] if same else ha * ha
            m_t, h_t, h2_t = mb[cols].T, hb[cols].T, hb2[cols].T
            sums = (np.asarray(ma @ m_t, dtype=np.float64),
                    np.multiply(ha @ m_t, 0.5, dtype=np.float64),
                    np.multiply(ma @ h_t, 0.5, dtype=np.float64),
                    np.multiply(ha2 @ m_t, 0.25, dtype=np.float64),
                    np.multiply(ma @ h2_t, 0.25, dtype=np.float64),
                    np.multiply(ha @ h_t, 0.25, dtype=np.float64))
        else:
            sums = (np.multiply(ha @ hb[cols].T, 0.25, dtype=np.float64),
                    norms_a[rows, None] * norms_b[cols])
        block = _scores(kind, sums, shrink)
        sims[rows, cols] = block
        if same:
            sims[cols, rows] = block.T
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
    dtype = _exact_sums(a, a_mask, b, b_mask)
    if dtype:
        return _similarity_blocks(kind, a, a_mask, b, b_mask, shrink, dtype)
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
        return _distances(_scores(kind, (cols.T @ cols,
                                         np.outer(norms, norms))))
    rows = np.ascontiguousarray(cols.T)
    observed = np.ascontiguousarray(mask[:, items].T)
    return _distances(_similarity_rows(kind, rows, observed, rows, observed,
                                       shrink=None))
