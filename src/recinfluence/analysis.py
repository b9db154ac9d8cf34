"""Analysis artifacts: 2-D embeddings and influence segments.

The embedding uses classical (Torgerson) multidimensional scaling: double
center the squared distance matrix and take the top two spectral
components. Optional iterative stress-majorization refinement is available
for a fixed budget. Stress is the normalized residual
sum((d_hat - d)^2) / sum(d^2) over pairs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset, _present, _restrict
from .influence import _rank_users
from .similarity import user_distance_matrix


@dataclass(frozen=True, eq=False)
class MdsEmbedding:
    coordinates: np.ndarray       # (n, 2), centered
    stress: float
    distance_config: str
    user_indices: np.ndarray      # rows of the source dataset that were embedded


def _pairwise_into(coords: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """``out`` filled with the row distances of ``coords``, each column's
    squares formed in ``scratch`` and summed in order: np.sum's bits over
    the (n, n, d) differences while d < 8, before it sums pairwise."""
    out.fill(0.0)
    for col in coords.T:
        np.subtract(col[:, None], col[None, :], out=scratch)
        scratch *= scratch
        out += scratch
    return np.sqrt(out, out=out)


def pairwise_euclidean(coords: np.ndarray) -> np.ndarray:
    """(n, n) distances between the rows of ``coords`` (d = 2 here)."""
    n = coords.shape[0]
    return _pairwise_into(coords, np.empty((n, n)), np.empty((n, n)))


def stress_of(coords: np.ndarray, dist: np.ndarray) -> float:
    """Normalized residual stress of an embedding against target distances."""
    denom = float(np.sum(dist * dist))
    if denom == 0.0:
        return 0.0
    resid = pairwise_euclidean(coords) - dist
    return float(np.sum(np.multiply(resid, resid, out=resid)) / denom)


@functools.cache
def _openblas_threads():
    """(get, set) thread-count calls of the loaded OpenBLAS, or None."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
        for lib in map(ctypes.CDLL, paths):
            for fmt in ("scipy_openblas_%s_num_threads64_",
                        "openblas_%s_num_threads"):
                calls = [getattr(lib, fmt % op, None) for op in ("get", "set")]
                if all(calls):
                    return calls
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, if found, then restore the
    count: products and ``eigh`` give the one-thread bits at any count."""
    get, set_ = _openblas_threads() or (lambda: None, lambda count: None)
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


@_one_blas_thread()
def classical_mds(dist: np.ndarray) -> np.ndarray:
    """Torgerson embedding of a symmetric distance matrix in 2-D.

    The doubly centered matrix -0.5 * j @ (dist * dist) @ j, with j the
    centering matrix, is formed in three (n, n) buffers, which are freed
    but for the result before ``eigh``. Each scaling of j is by a power
    of two, so every bit is that of the formula with fresh temporaries.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(dist).all():
        raise ValueError("distance matrix contains non-finite entries")
    n = dist.shape[0]
    # eye(n) - full(1 / n), bit for bit
    j = np.full((n, n), -1.0 / n)
    j.flat[::n + 1] += 1.0
    j *= -0.5
    b = dist * dist
    half = j @ b
    j *= -2.0
    np.matmul(half, j, out=b)
    del j, half
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1][:2]
    lams = np.maximum(evals[order], 0.0)
    coords = evecs[:, order] * np.sqrt(lams)
    # Fix each axis sign so equal inputs embed identically everywhere.
    for col in range(coords.shape[1]):
        pivot = np.argmax(np.abs(coords[:, col]))
        if coords[pivot, col] < 0:
            coords[:, col] = -coords[:, col]
    return coords


@_one_blas_thread()
def smacof_refine(coords: np.ndarray, dist: np.ndarray,
                  n_iters: int = 200) -> np.ndarray:
    """Guttman-transform majorization steps from a starting configuration,
    each in the same two (n, n) float64 buffers and one bool buffer."""
    n = dist.shape[0]
    x = np.array(coords, dtype=np.float64)
    d_hat, buf = np.empty((n, n)), np.empty((n, n))
    pos = np.empty((n, n), dtype=bool)
    for _ in range(n_iters):
        _pairwise_into(x, d_hat, buf)
        np.greater(d_hat, 0, out=pos)
        buf.fill(0.0)
        np.divide(dist, d_hat, out=buf, where=pos)
        sums = buf.sum(axis=1)
        np.negative(buf, out=buf)
        np.fill_diagonal(buf, sums)
        x = buf @ x / n
    return x - x.mean(axis=0)


def mds_embed(ds: RatingsDataset, distance: str = "cosine",
              max_points: int = 2000, seed: int = 0,
              refine_iters: int = 0) -> MdsEmbedding:
    """Embed users in 2-D from their pairwise profile distances.

    Datasets larger than ``max_points`` are subsampled, seeded, before any
    distance is computed. Classical scaling runs first; ``refine_iters`` > 0
    adds majorization steps.
    """
    if max_points < 3:
        raise ValueError(f"mds.max_points must be >= 3, got {max_points}")
    n = ds.n_users
    if n < 3:
        raise ValueError("need at least 3 users to embed")
    chosen = np.arange(n)
    if n > max_points:
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(n, size=max_points, replace=False))
        # every item kept: a pair's distance reads only its two rows
        ds = _restrict(ds, np.isin(ds.user_idx, chosen), chosen,
                       np.arange(ds.n_items))
    dist = user_distance_matrix(ds, kind=distance)
    coords = classical_mds(dist)
    stress = stress_of(coords, dist)
    if refine_iters > 0:
        refined = smacof_refine(coords, dist, n_iters=refine_iters)
        refined_stress = stress_of(refined, dist)
        if refined_stress < stress:
            coords, stress = refined, refined_stress
    coords.flags.writeable = False
    return MdsEmbedding(coords, stress, distance, chosen)


def segment_by_influence(influence: np.ndarray,
                         n_segments: int) -> np.ndarray:
    """Contiguous rank-quantile segment label per user; 0 = most influential."""
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    labels = np.empty(len(influence), dtype=np.int64)
    for seg, chunk in enumerate(np.array_split(_rank_users(influence),
                                               n_segments)):
        labels[chunk] = seg
    return labels


def centrality_dispersion(embedding: MdsEmbedding,
                          labels: np.ndarray) -> list[dict]:
    """Per segment: mean distance to the origin and mean pairwise distance."""
    labels = np.asarray(labels)[embedding.user_indices]
    coords = embedding.coordinates
    out = []
    for seg in _present(labels):
        pts = coords[labels == seg]
        radius = float(np.mean(np.sqrt(np.sum(pts * pts, axis=1))))
        if len(pts) > 1:
            iu = np.triu_indices(len(pts), k=1)
            pair = float(np.mean(pairwise_euclidean(pts)[iu]))
        else:
            pair = 0.0
        out.append({"segment": int(seg), "mean_radius": radius,
                    "mean_pairwise_distance": pair})
    return out
