"""Analysis artifacts: ranked influence curves, 2-D embeddings, segments.

The embedding uses classical (Torgerson) multidimensional scaling: double
center the squared distance matrix and take the top two spectral
components. Optional iterative stress-majorization refinement is available
for a fixed budget. Stress is the normalized residual
sum((d_hat - d)^2) / sum(d^2) over pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset
from .influence import InfluenceReport
from .similarity import user_distance_matrix


@dataclass(frozen=True, eq=False)
class MdsEmbedding:
    coordinates: np.ndarray       # (n, 2), centered
    stress: float
    distance_config: str
    user_indices: np.ndarray      # rows of the source dataset that were embedded
    segments: np.ndarray | None = None


def pairwise_euclidean(coords: np.ndarray) -> np.ndarray:
    """(n, n) distances between the rows of ``coords`` (d = 2 here), summed
    over the columns in order into one buffer: the bits of np.sum over the
    (n, n, d) differences while d < 8, before numpy sums pairwise."""
    total = np.zeros((coords.shape[0],) * 2)
    for col in coords.T:
        diff = col[:, None] - col[None, :]
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def stress_of(coords: np.ndarray, dist: np.ndarray) -> float:
    """Normalized residual stress of an embedding against target distances."""
    d_hat = pairwise_euclidean(coords)
    denom = float(np.sum(dist * dist))
    if denom == 0.0:
        return 0.0
    return float(np.sum((d_hat - dist) ** 2) / denom)


def classical_mds(dist: np.ndarray, n_dims: int = 2) -> np.ndarray:
    """Torgerson embedding of a symmetric distance matrix."""
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(dist).all():
        raise ValueError("distance matrix contains non-finite entries")
    n = dist.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ (dist * dist) @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1][:n_dims]
    lams = np.maximum(evals[order], 0.0)
    coords = evecs[:, order] * np.sqrt(lams)
    # Fix each axis sign so equal inputs embed identically everywhere.
    for col in range(coords.shape[1]):
        pivot = np.argmax(np.abs(coords[:, col]))
        if coords[pivot, col] < 0:
            coords[:, col] = -coords[:, col]
    return coords


def smacof_refine(coords: np.ndarray, dist: np.ndarray,
                  n_iters: int = 200) -> np.ndarray:
    """Guttman-transform majorization steps from a starting configuration."""
    n = dist.shape[0]
    x = np.array(coords, dtype=np.float64)
    for _ in range(n_iters):
        d_hat = pairwise_euclidean(x)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(d_hat > 0, dist / d_hat, 0.0)
        bmat = -ratio
        bmat[np.arange(n), np.arange(n)] = ratio.sum(axis=1)
        x = bmat @ x / n
    return x - x.mean(axis=0)


def mds_embed(ds: RatingsDataset, distance: str = "cosine",
              max_points: int = 2000, seed: int = 0,
              refine_iters: int = 0) -> MdsEmbedding:
    """Embed users in 2-D from their pairwise profile distances.

    Datasets larger than ``max_points`` are subsampled, seeded. Classical
    scaling runs first; ``refine_iters`` > 0 adds majorization steps.
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
    dist = user_distance_matrix(ds, kind=distance)[np.ix_(chosen, chosen)]
    coords = classical_mds(dist)
    stress = stress_of(coords, dist)
    if refine_iters > 0:
        refined = smacof_refine(coords, dist, n_iters=refine_iters)
        refined_stress = stress_of(refined, dist)
        if refined_stress < stress:
            coords, stress = refined, refined_stress
    coords.flags.writeable = False
    return MdsEmbedding(coords, stress, distance, chosen)


def influence_ranking_curve(report: InfluenceReport) -> list[tuple[int, float]]:
    """(rank, influence) pairs, most influential first, ranks 1-based."""
    return [(rank + 1, float(report.influence[u]))
            for rank, u in enumerate(report.ranking)]


def segment_by_influence(report: InfluenceReport,
                         n_segments: int) -> np.ndarray:
    """Contiguous rank-quantile segment label per user; 0 = most influential."""
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    labels = np.empty(report.n_users, dtype=np.int64)
    for seg, chunk in enumerate(np.array_split(report.ranking, n_segments)):
        labels[chunk] = seg
    return labels


def centrality_dispersion(embedding: MdsEmbedding,
                          labels: np.ndarray) -> list[dict]:
    """Per segment: mean distance to the origin and mean pairwise distance."""
    labels = np.asarray(labels)[embedding.user_indices]
    coords = embedding.coordinates
    out = []
    for seg in np.unique(labels):
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
