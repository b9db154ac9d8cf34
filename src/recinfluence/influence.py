"""Leave-one-out influence measurement over recommendation lists.

A user's influence is the summed Jaccard distance between every other
user's top-l list with and without that user's ratings in the training
data. The module ships two routes to the same number: a naive oracle that
retrains everything from scratch per removal, and an engine that works
from the full data. A factorization removal retrains deterministically,
since nothing survives it unchanged. A neighborhood removal retrains
nothing: the engine derives the reduced model's neighbors and item means
from the full data, rebuilds only the lists the removal can change, and
gives every other list distance 0, which is exact because its reduced list
equals its full list. The two routes agree bit for bit. Each removal runs
once: the Jaccard counts of its per-user row, each list pair's intersection
and union, are kept as small unsigned integers, and group curves rebuild
their float rows from them instead of retraining.

Scoring is the model layer's: every list is scored by a model's
``score_rows``, or for a neighborhood removal by ``recommender._blend``,
the kNN model's own blend, on the reduced neighbor lists. The blend
scatters only the ratings those neighbors hold, in rank order, so its
scores are the full model's arithmetic bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetError, RatingsDataset, drop_user
from .recommender import (ModelConfig, TrainingError, _blend, _list_chunks,
                          _neighbor_order, continue_nmf, top_items,
                          top_lists, train_knn)
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
    """Per-user influence scores plus the run's provenance.

    Each removal's distance row is kept as its Jaccard counts: ``inter[u,
    v]`` and ``union[u, v]`` are the sizes of the intersection and union of
    v's top-l lists with and without u. Both are at most 2l, so they are
    held as ``np.min_scalar_type(2 * l)`` (uint8 up to l = 127, uint16
    above), and ``row(u)`` gives back the float row bit for bit. A row of
    a failed removal, and each entry whose list the removal left unchanged,
    holds 0/0.
    """

    config: ModelConfig
    l: int
    influence: np.ndarray          # (n,), NaN where the removal job failed
    ranking: np.ndarray            # all users, influence desc, index asc
    failures: tuple[int, ...]
    inter: np.ndarray              # (n, n) unsigned Jaccard counts
    union: np.ndarray
    # top-l lists the removals rebuilt, and the NMF iterations and early
    # stops of their retrains; kept out of to_meta so artifacts stay free
    # of run statistics
    lists_rebuilt: int = 0
    nmf_iters: int = 0
    nmf_early_stops: int = 0

    @property
    def n_users(self) -> int:
        return len(self.influence)

    def row(self, u: int) -> np.ndarray:
        """Jaccard distance of each user's list after removing u, the row
        ``LeaveOneOutEngine.distances_without(u)`` returned; NaN throughout
        when that removal failed."""
        if u in self.failures:
            return np.full(self.n_users, np.nan)
        return _jaccard_rows(self.inter[u], self.union[u])

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
    # a stable sort puts NaN (failed removals) last, ties in index order
    return np.argsort(-influence, kind="stable")


def _jaccard_rows(inter, union) -> np.ndarray:
    """``jaccard_distance`` from the intersection and union counts of list
    pairs, as float64; 0/0 (two empty lists) gives 0.

    Counts are small exact integers of any width, so each quotient is the
    float the set formula gives.
    """
    return 1.0 - np.divide(inter, union, out=np.ones(np.shape(inter)),
                           where=union > 0)


class LeaveOneOutEngine:
    """Shared state for a batch of single-user removals.

    The full-data model, its top-l lists (``full_lists``, an (n, m) bool
    indicator) and each list's l-th score are built once and shared
    read-only across removals. Removal keeps the item axis, so every list
    lives in the original item index space, and an item whose only rater
    is removed leaves the candidates.

    A factorization removal retrains on the reduced data (from the full
    factors when ``warm_start``) and rebuilds every other user's list. A
    neighborhood removal of u builds no reduced dataset and trains no
    model. Set-up sorts the similarity matrix once, to each user's neighbor
    order one deeper than the model's k; the model's neighbor lists are its
    prefix. The engine keeps that order and its similarities, (n, k + 1)
    each, and frees the n x n matrix. The reduced neighbors of v are v's
    order with u dropped, cut to min(k, n - 2), and their similarities the
    same columns (removal preserves the relative order of user indices, so
    tie-breaks hold, and similarities do not depend on third users). Only
    the means of u's items move, and they are summed again over their
    remaining raters in user order, as the reduced dataset sums them.
    Scores are blended by ``_blend`` from the full data's ratings. The
    lists rebuilt are those of the users v != u that the removal flags:

    (a) u is one of v's full-model neighbors (when k >= n - 1 everyone
        else is, so the narrower reduced neighbor lists are all rebuilt);
    (b) an item v has not rated changes value (its mean moves, or u was its
        only rater so it leaves the candidates), v's score for it falls
        back to the item mean because no listed neighbor of v with non-zero
        similarity rated it, and the larger of its old and new value
        reaches the score of v's l-th full-list item (any value does when v
        has fewer than l candidates).

    An unflagged v keeps its neighbors in the same order with the same
    similarities and rating rows, so every blended score is bit-identical;
    only fallback means of u's items can move, and (b) catches each one
    that could cross v's l-th score. Its reduced list is its full list and
    its distance is exactly 0.

    Lists are built in chunks of rows: each chunk is scored into one
    buffer, ranked by ``recommender._top_lists`` and compared with the full
    lists by integer Jaccard counts, each list pair's intersection and union
    (``_jaccard_rows`` turns them into distances). ``lists_rebuilt`` counts
    the lists rebuilt by removals so far, ``nmf_iters`` and
    ``nmf_early_stops`` the iterations and early stops of the retrains that
    finished.
    """

    def __init__(self, ds: RatingsDataset, config: ModelConfig, l: int,
                 warm_start: bool = False, warm_iters: int = 20):
        self.ds = ds
        self.config = config
        self.l = l
        self.warm_start = warm_start
        self.warm_iters = warm_iters
        self.lists_rebuilt = 0
        self.nmf_iters = 0
        self.nmf_early_stops = 0
        n = ds.n_users
        mask = ds.mask
        if config.algorithm == "knn":
            sim = user_similarity_matrix(ds, kind=config.similarity)
            self._deep = _neighbor_order(sim, min(config.k + 1, n - 1))
            full = train_knn(ds, config.k, config.similarity,
                             sim_matrix=sim, order=self._deep)
            self._deep_sims = np.take_along_axis(sim, self._deep, axis=1)
            del sim
            # unrated by v and not covered by a full-model neighbor with
            # non-zero similarity: v's score there is the item mean
            covered = np.zeros_like(mask)
            for j in range(full.neighbors.shape[1]):
                covered |= (mask[full.neighbors[:, j]]
                            & (full.neighbor_sims[:, j, None] != 0))
            self._open = ~mask & ~covered
        else:
            full = config.train(ds)
        self.full_model = full
        # score of each user's l-th full-list item, -inf below l candidates
        self.full_lists, self._thr = top_lists(full, l)
        self.full_lists.flags.writeable = False

    def _means_without(self, u: int) -> np.ndarray:
        """Means of u's items (``ds.user_items(u)``) once u is gone, -inf
        for an item u alone rated; summed over the remaining raters in user
        order exactly as the reduced dataset's ``item_sums`` sums them."""
        ds = self.ds
        items = ds.user_items(u)
        pos, seg = ds._item_ratings(items)
        keep = ds.user_idx[pos] != u
        sums = np.bincount(seg[keep], weights=ds.values[pos[keep]],
                           minlength=len(items))
        counts = ds.item_counts[items] - 1
        return np.divide(sums, counts, out=np.full(len(items), -np.inf),
                         where=counts > 0)

    def _flagged(self, u: int, means) -> np.ndarray:
        """Bool mask of the users whose kNN list removing u may change,
        given the new means of u's items (``_means_without``); u is never
        flagged."""
        full = self.full_model
        items = self.ds.user_items(u)
        flags = np.any(full.neighbors == u, axis=1)
        old = full.item_means[items]
        changed = means != old
        reach = np.maximum(old, means)[changed]
        flags |= np.any(self._open[:, items[changed]]
                        & (reach >= self._thr[:, None]), axis=1)
        flags[u] = False
        return flags

    def _reduced_neighbors(self, rows, u: int):
        """Neighbors (full user indices) and similarities of ``rows`` once
        u is gone: each deep order with u dropped, cut to min(k, n - 2)."""
        deep = self._deep[rows]
        k = min(self.config.k, self.ds.n_users - 2)
        cols = np.arange(k) + np.cumsum(deep == u, axis=1)[:, :k]
        return (np.take_along_axis(deep, cols, axis=1),
                np.take_along_axis(self._deep_sims[rows], cols, axis=1))

    def _retrain(self, u: int):
        """The factorization model of the data without u; counts its
        iterations and whether it stopped early."""
        reduced = drop_user(self.ds, u)
        if self.warm_start:
            p0 = np.delete(self.full_model.p, u, axis=0)
            model = continue_nmf(reduced, p0, self.full_model.q,
                                 self.config.seed, self.warm_iters,
                                 masked=self.config.masked)
        else:
            model = self.config.train(reduced)
        iters = len(model.objective_history) - 1
        self.nmf_iters += iters
        self.nmf_early_stops += int(iters < model.n_iters)
        return model

    def distances_without(self, u: int, counts=None) -> np.ndarray:
        """Jaccard distance of each other user's list after removing u.

        Entry v is the distance for original user v; entry u is 0, as is
        every entry of a user whose list the removal cannot change.
        ``counts``, a (2, n) unsigned array able to hold 2l, receives each
        entry's intersection and union; entries whose list is not rebuilt
        hold 0/0.
        """
        ds = self.ds
        if ds.n_users < 2:
            raise DatasetError("cannot remove the only user")
        items = ds.user_items(u)
        live = ds.item_counts > 0
        live[items[ds.item_counts[items] == 1]] = False
        if self.config.algorithm == "knn":
            new_means = self._means_without(u)
            rows = np.flatnonzero(self._flagged(u, new_means))
            means = self.full_model.item_means.copy()
            means[items] = new_means

            def score(chunk, out):
                nbrs, sims = self._reduced_neighbors(chunk, u)
                _blend(ds, nbrs, sims, means, out)
        else:
            model = self._retrain(u)
            rows = np.delete(np.arange(ds.n_users), u)

            def score(chunk, out):
                model.score_rows(chunk - (chunk > u), out)
        if counts is None:
            counts = np.zeros((2, ds.n_users), np.min_scalar_type(2 * self.l))
        counts[:] = 0
        inter, union = counts
        for chunk, lists, _ in _list_chunks(ds, rows, score, live,
                                            self.l):
            full = self.full_lists[chunk]
            inter[chunk] = np.count_nonzero(lists & full, axis=1)
            union[chunk] = np.count_nonzero(lists | full, axis=1)
        self.lists_rebuilt += len(rows)
        return _jaccard_rows(inter, union)


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
    reduced_model = config.train(drop_user(ds, u))
    # Same n-length layout and reduction as the engine, so the two routes
    # agree bit for bit.
    dists = np.zeros(ds.n_users)
    for v_red in range(ds.n_users - 1):
        v = v_red if v_red < u else v_red + 1
        before = frozenset(int(i) for i in top_items(full_model, v, l))
        after = frozenset(int(i) for i in top_items(reduced_model, v_red, l))
        dists[v] = jaccard_distance(before, after)
    return float(np.sum(dists))


def influence_all(ds: RatingsDataset, config: ModelConfig, l: int,
                  warm_start: bool = False,
                  warm_iters: int = 20) -> InfluenceReport:
    """Influence of every user, one removal after another.

    Each removal's row is kept in the report as two (n,) rows of Jaccard
    counts (see ``InfluenceReport``; 2 x n^2 bytes in all for l <= 127), so
    group curves need no further retraining. A failed removal (diverging
    retrain) marks that user's influence and row NaN instead of aborting
    the batch. Each influence is the sum over the removal's full n-length
    float row.
    """
    engine = LeaveOneOutEngine(ds, config, l, warm_start=warm_start,
                               warm_iters=warm_iters)
    n = ds.n_users
    influence = np.full(n, np.nan)
    counts = np.zeros((2, n, n), np.min_scalar_type(2 * l))
    inter, union = counts
    failures = []
    for u in range(n):
        try:
            row = engine.distances_without(u, counts[:, u])
        except TrainingError:
            failures.append(u)
            continue
        influence[u] = float(np.sum(row))
    for array in (influence, inter, union):
        array.flags.writeable = False
    return InfluenceReport(config, l, influence, _rank_users(influence),
                           tuple(failures), inter, union,
                           engine.lists_rebuilt, engine.nmf_iters,
                           engine.nmf_early_stops)


def group_influence(report: InfluenceReport, top_k: int,
                    thresholds=DEFAULT_THETA_GRID) -> GroupInfluenceCurve:
    """Fraction of users influenced by the top-``top_k`` set, per threshold.

    A user v counts (once) when at least one top user's removal moves v's
    list by Jaccard distance >= theta; the fraction is over all users. The
    distances are ``report.row(u)``, rebuilt from the counts
    ``influence_all`` stored.
    """
    n = report.n_users
    if not 1 <= top_k <= n:
        raise ValueError(f"top_k {top_k} out of range [1, {n}]")
    top = report.ranking[:top_k]
    failed = sorted(set(top.tolist()) & set(report.failures))
    if failed:
        raise TrainingError(f"top-{top_k} set holds failed removals of "
                            f"users {failed}")
    best = np.zeros(n)
    for u in top:
        np.maximum(best, report.row(u), out=best)
    fractions = tuple(float(np.count_nonzero(best >= theta) / n)
                      for theta in thresholds)
    return GroupInfluenceCurve(top_k, tuple(float(t) for t in thresholds),
                               fractions)
