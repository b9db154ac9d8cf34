"""Leave-one-out influence measurement over recommendation lists.

A user's influence is the summed Jaccard distance between every other
user's top-l list with and without that user's ratings in the training
data. The module ships two routes to the same number: a naive oracle that
retrains everything from scratch per removal, and an engine that reuses
whatever survives a removal unchanged while retraining deterministically
where nothing does (the factorization model). For the neighborhood model
the engine reuses the pairwise similarities and rebuilds only the lists a
removal can change; every other list keeps distance 0, which is exact
because its reduced list equals its full list. The two routes agree bit
for bit. Each removal runs once: its per-user distance row is kept, and
group curves read those rows instead of retraining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingsDataset, drop_user
from .recommender import (ModelConfig, TrainingError, continue_nmf,
                          top_items, train_knn)
from .similarity import user_similarity_matrix

DEFAULT_THETA_GRID = tuple(round(0.1 * t, 1) for t in range(1, 10))


def jaccard_distance(a, b) -> float:
    """1 - |a & b| / |a | b| over item sets; two empty sets give 0."""
    a, b = set(a), set(b)
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


@dataclass(frozen=True, eq=False)
class InfluenceReport:
    """Per-user influence scores plus the run's provenance."""

    config: ModelConfig
    l: int
    influence: np.ndarray          # (n,), NaN where the removal job failed
    ranking: np.ndarray            # all users, influence desc, index asc
    failures: tuple[int, ...]
    # (n, n): row u holds each user's list distance after removing u, NaN
    # where that removal failed; None for reports rebuilt from a CSV
    distances: np.ndarray | None = None
    # top-l lists the removals rebuilt; kept out of to_meta so artifacts
    # stay free of run statistics
    lists_rebuilt: int = 0

    @property
    def n_users(self) -> int:
        return len(self.influence)

    def to_meta(self) -> dict:
        return {"model": self.config.to_dict(), "l": self.l,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class GroupInfluenceCurve:
    """Fraction of users whose list is moved at least theta by a top set."""

    top_set_size: int
    thresholds: tuple[float, ...]
    influenced_fraction: tuple[float, ...]


def _rank_users(influence: np.ndarray) -> np.ndarray:
    key = np.where(np.isnan(influence), -np.inf, influence)
    return np.lexsort((np.arange(len(influence)), -key))


class LeaveOneOutEngine:
    """Shared state for a batch of single-user removals.

    The full-data model, its recommendation lists, and (for the
    neighborhood model) the pairwise similarity matrix are computed once and
    shared read-only across removals; each removal trains its own reduced
    model.
    Removal keeps the item axis, so reduced-model lists come back in the
    original item index space.

    A factorization removal rebuilds every other user's list. A
    neighborhood removal of u rebuilds only the lists of the users v != u
    that it flags:

    (a) u is one of v's full-model neighbors (when k >= n - 1 everyone
        else is, so the narrower reduced neighbor lists are all rebuilt);
    (b) an item v has not rated changes value (its mean moves, or u was its
        only rater so it leaves the candidates), v's score for it falls
        back to the item mean because no listed neighbor of v with non-zero
        similarity rated it, and the larger of its old and new value
        reaches the score of v's l-th full-list item (any value does when v
        has fewer than l candidates).

    An unflagged v keeps its neighbors in the same order (removal preserves
    the relative order of user indices, so tie-breaks hold) with the same
    similarities and rating rows, so every blended score is bit-identical;
    only fallback means of u's items can move, and (b) catches each one
    that could cross v's l-th score. Its reduced list is its full list and
    its distance is exactly 0. ``lists_rebuilt`` counts the lists rebuilt
    so far.
    """

    def __init__(self, ds: RatingsDataset, config: ModelConfig, l: int,
                 warm_start: bool = False, warm_iters: int = 20):
        self.ds = ds
        self.config = config
        self.l = l
        self.warm_start = warm_start
        self.warm_iters = warm_iters
        self.lists_rebuilt = 0
        knn = config.algorithm == "knn"
        if knn:
            self.sim = user_similarity_matrix(ds, kind=config.similarity)
            self.full_model = train_knn(ds, config.k, config.similarity,
                                        sim_matrix=self.sim)
        else:
            self.sim = None
            self.full_model = config.train(ds)
        self.full_lists = []
        # score of each user's l-th full-list item, -inf below l candidates
        self._thr = np.full(ds.n_users, -np.inf)
        for u in range(ds.n_users):
            items = top_items(self.full_model, u, l)
            self.full_lists.append(frozenset(int(i) for i in items))
            if knn and len(items) == l:
                self._thr[u] = self.full_model.scores_for(u)[items[-1]]

    def _reduced_model(self, u: int, reduced: RatingsDataset):
        if self.config.algorithm == "knn":
            keep = np.delete(np.arange(self.ds.n_users), u)
            sim_sub = self.sim[np.ix_(keep, keep)]
            return train_knn(reduced, self.config.k, self.config.similarity,
                             sim_matrix=sim_sub)
        if self.warm_start:
            p0 = np.delete(self.full_model.p, u, axis=0)
            return continue_nmf(reduced, p0, self.full_model.q,
                                self.config.seed, self.warm_iters,
                                masked=self.config.masked)
        return self.config.train(reduced)

    def _flagged(self, u: int, model) -> np.ndarray:
        """Bool mask of the users whose list removing u may change; u is
        never flagged."""
        if self.config.algorithm != "knn":
            flags = np.ones(self.ds.n_users, dtype=bool)
        else:
            full = self.full_model
            flags = np.any(full.neighbors == u, axis=1)
            new_counts = model.dataset.item_counts
            changed = (self.ds.item_counts > 0) & (
                (new_counts == 0) | (model.item_means != full.item_means))
            items = np.flatnonzero(changed)
            new = np.where(new_counts[items] > 0, model.item_means[items],
                           -np.inf)
            reach = np.maximum(full.item_means[items], new)
            _, mask = self.ds.dense
            rated = mask[:, items]
            covered = np.any(rated[full.neighbors]
                             & (full.neighbor_sims != 0)[:, :, None], axis=1)
            flags |= np.any(~rated & ~covered
                            & (reach >= self._thr[:, None]), axis=1)
        flags[u] = False
        return flags

    def distances_without(self, u: int) -> np.ndarray:
        """Jaccard distance of each other user's list after removing u.

        Entry v is the distance for original user v; entry u is 0, as is
        every entry of a user whose list the removal cannot change.
        """
        reduced = drop_user(self.ds, u)
        model = self._reduced_model(u, reduced)
        dists = np.zeros(self.ds.n_users)
        flagged = np.flatnonzero(self._flagged(u, model))
        for v in flagged:
            v_red = v if v < u else v - 1
            after = frozenset(int(i) for i in top_items(model, v_red, self.l))
            dists[v] = jaccard_distance(self.full_lists[v], after)
        self.lists_rebuilt += len(flagged)
        return dists


def influence_oracle(ds: RatingsDataset, config: ModelConfig, u: int,
                     l: int) -> float:
    """Naive reference: retrain everything from scratch and sum distances.

    Trains the full model, removes user ``u``, retrains on the reduced data
    with the same seed and hyperparameters, and sums the per-user Jaccard
    distances between the before and after top-l lists.
    """
    if not 0 <= u < ds.n_users:
        raise ValueError(f"user index {u} out of range")
    full_model = config.train(ds)
    reduced = drop_user(ds, u)
    reduced_model = config.train(reduced)
    # Same n-length layout and reduction as the engine, so the two routes
    # agree bit for bit.
    dists = np.zeros(ds.n_users)
    for v_red in range(reduced.n_users):
        v = v_red if v_red < u else v_red + 1
        before = frozenset(int(i) for i in top_items(full_model, v, l))
        after = frozenset(int(i) for i in top_items(reduced_model, v_red, l))
        dists[v] = jaccard_distance(before, after)
    return float(np.sum(dists))


def influence_all(ds: RatingsDataset, config: ModelConfig, l: int,
                  warm_start: bool = False,
                  warm_iters: int = 20) -> InfluenceReport:
    """Influence of every user, one removal after another.

    Each removal's distance row is kept in the report, so group curves need
    no further retraining. A failed removal (diverging retrain) marks that
    user's influence and row NaN instead of aborting the batch.
    """
    engine = LeaveOneOutEngine(ds, config, l, warm_start=warm_start,
                               warm_iters=warm_iters)
    n = ds.n_users
    influence = np.full(n, np.nan)
    distances = np.full((n, n), np.nan)
    failures = []
    for u in range(n):
        try:
            row = engine.distances_without(u)
        except TrainingError:
            failures.append(u)
            continue
        distances[u] = row
        influence[u] = float(np.sum(row))
    influence.flags.writeable = False
    distances.flags.writeable = False
    return InfluenceReport(config, l, influence, _rank_users(influence),
                           tuple(failures), distances, engine.lists_rebuilt)


def group_influence(report: InfluenceReport, top_k: int,
                    thresholds=DEFAULT_THETA_GRID) -> GroupInfluenceCurve:
    """Fraction of users influenced by the top-``top_k`` set, per threshold.

    A user v counts (once) when at least one top user's removal moves v's
    list by Jaccard distance >= theta; the fraction is over all users. The
    distances are the rows ``influence_all`` stored in the report.
    """
    n = report.n_users
    if report.distances is None:
        raise ValueError("report holds no distance rows; group curves need "
                         "the report influence_all returns")
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k {top_k} out of range [1, {n}]")
    top = report.ranking[:top_k]
    failed = sorted(set(top.tolist()) & set(report.failures))
    if failed:
        raise TrainingError(f"top-{top_k} set holds failed removals of "
                            f"users {failed}")
    best = np.zeros(n)
    for u in top:
        np.maximum(best, report.distances[u], out=best)
    fractions = tuple(float(np.count_nonzero(best >= theta) / n)
                      for theta in thresholds)
    return GroupInfluenceCurve(top_k, tuple(float(t) for t in thresholds),
                               fractions)


def prediction_shift_oracle(ds: RatingsDataset, config: ModelConfig,
                            u: int) -> float:
    """Mean absolute change in predicted scores caused by removing ``u``.

    Averages |score(with u) - score(without u)| over every other user and
    every item outside that user's profile. This is the score-level
    baseline that list-level influence deliberately ignores: shifts on
    items that never crack a top-l list move this number but not
    list influence.
    """
    if not 0 <= u < ds.n_users:
        raise ValueError(f"user index {u} out of range")
    full_model = config.train(ds)
    reduced = drop_user(ds, u)
    reduced_model = config.train(reduced)
    _, mask = ds.dense
    total = 0.0
    count = 0
    for v_red in range(reduced.n_users):
        v = v_red if v_red < u else v_red + 1
        unrated = ~mask[v]
        before = full_model.scores_for(v)[unrated]
        after = reduced_model.scores_for(v_red)[unrated]
        total += float(np.sum(np.abs(before - after)))
        count += int(np.count_nonzero(unrated))
    return total / count if count else 0.0
