import itertools
from contextlib import nullcontext

import numpy as np
import pytest

from recinfluence.data import RatingsDataset, drop_user
from recinfluence.recommender import (ModelConfig, TrainingError,
                                      continue_nmf, evaluate, predict_knn,
                                      recommend, top_items, train_knn,
                                      train_nmf, train_test_split)
from recinfluence.similarity import user_similarity_matrix

import oracles
from conftest import build_dataset, clone_users_dataset, random_dataset


class TestSimilarity:
    def test_toy_pairwise_pearson_matches_textbook(self, toy):
        sims = user_similarity_matrix(toy, kind="pearson")
        for u in range(5):
            for v in range(5):
                if u == v:
                    assert sims[u, v] == 0.0
                else:
                    assert sims[u, v] == pytest.approx(
                        oracles.pearson_pair(toy, u, v), abs=1e-12)

    def test_toy_pairwise_cosine_matches_textbook(self, toy):
        sims = user_similarity_matrix(toy, kind="cosine")
        for u in range(5):
            for v in range(5):
                if u != v:
                    assert sims[u, v] == pytest.approx(
                        oracles.cosine_pair(toy, u, v), abs=1e-12)

    def test_identical_users_mutual_top_neighbor(self):
        # Wide identical profiles so the support shrink saturates.
        rows = [(u, f"i{j:02d}", float(1 + j % 5))
                for u in ("a", "b") for j in range(60)]
        ds = build_dataset(rows)
        model = train_knn(ds, 1, "pearson")
        assert model.neighbors[0][0] == 1 and model.neighbors[1][0] == 0
        assert model.neighbor_sims[0][0] == pytest.approx(1.0, abs=1e-12)
        cos = train_knn(ds, 1, "cosine")
        assert cos.neighbor_sims[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_no_corated_items_scores_zero(self):
        ds = build_dataset([("a", "x", 5.0), ("b", "y", 4.0)])
        sims = user_similarity_matrix(ds, kind="pearson")
        assert sims[0, 1] == 0.0

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    def test_removal_reuse_exact_on_continuous_ratings(self, kind):
        # Off-grid ratings make the sums inexact, so only a per-pair
        # summation order keeps a reduced matrix equal to sim[keep, keep].
        base = random_dataset(60, 150, 0.1, seed=7)
        rng = np.random.default_rng(7)
        ds = build_dataset(
            [(base.user_ids[u], base.item_ids[i], float(1 + 4 * rng.random()))
             for u, i in zip(base.user_idx, base.item_idx)],
            users=list(base.user_ids), items=list(base.item_ids))
        assert not np.array_equal(ds.values, np.round(ds.values * 2) / 2)
        full = user_similarity_matrix(ds, kind=kind)
        for u in range(ds.n_users):
            keep = np.delete(np.arange(ds.n_users), u)
            reduced = user_similarity_matrix(drop_user(ds, u), kind=kind)
            assert np.array_equal(reduced, full[np.ix_(keep, keep)])

    def test_rating_scale_invariance_of_neighbor_sets(self):
        base = random_dataset(12, 20, 0.3, seed=4)
        scaled = build_dataset(
            [(base.user_ids[u], base.item_ids[i], 2.5 * v)
             for u, i, v in zip(base.user_idx, base.item_idx, base.values)],
            users=list(base.user_ids), items=list(base.item_ids))
        for kind in ("pearson", "cosine"):
            m1 = train_knn(base, 3, kind)
            m2 = train_knn(scaled, 3, kind)
            assert np.array_equal(m1.neighbors, m2.neighbors)


class TestTrainKnn:
    def test_toy_top2_neighbors_of_u1(self, toy):
        # Oracle: explicit pairwise Pearson over co-rated items.
        expected = oracles.neighbor_list(toy, 0, 2, "pearson")
        model = train_knn(toy, 2, "pearson")
        assert model.neighbors[0].tolist() == expected == [2, 3]

    def test_all_neighbor_lists_match_oracle(self, toy):
        for kind in ("pearson", "cosine"):
            model = train_knn(toy, 3, kind)
            for u in range(5):
                assert model.neighbors[u].tolist() == \
                    oracles.neighbor_list(toy, u, 3, kind)

    def test_k_reduced_with_warning(self, toy):
        with pytest.warns(UserWarning, match="reduced"):
            model = train_knn(toy, 10, "pearson")
        assert model.neighbors.shape == (5, 4)

    def test_list_sizes_and_self_exclusion(self):
        ds = random_dataset(15, 25, 0.2, seed=1)
        model = train_knn(ds, 6, "pearson")
        assert model.neighbors.shape == (15, 6)
        for u in range(15):
            assert u not in model.neighbors[u]
            sims = model.neighbor_sims[u]
            assert np.all(np.diff(sims) <= 0)
            assert np.all(np.abs(sims) <= 1.0)

    @pytest.mark.parametrize("decimals", [None, 1])
    @pytest.mark.parametrize("k", [1, 5, 39, 60])
    def test_neighbor_sort_equals_per_user_loop(self, k, decimals):
        # rounding the similarities forces many ties
        ds = random_dataset(40, 60, 0.15, seed=4)
        sims = user_similarity_matrix(ds, kind="pearson")
        if decimals is not None:
            sims = np.round(sims, decimals)
        with pytest.warns(UserWarning) if k >= 40 else nullcontext():
            model = train_knn(ds, k, "pearson", sim_matrix=sims)
        idx = np.arange(40)
        for u in range(40):
            order = np.lexsort((idx, -sims[u]))
            order = order[order != u][:min(k, 39)]
            assert np.array_equal(model.neighbors[u], order)
            assert np.array_equal(model.neighbor_sims[u], sims[u, order])

    def test_invalid_k(self, toy):
        with pytest.raises(ValueError):
            train_knn(toy, 0)


class TestPredictKnn:
    def test_every_toy_pair_matches_direct_arithmetic(self, toy):
        model = train_knn(toy, 2, "pearson")
        for u in range(5):
            for i in range(6):
                expected = oracles.knn_predict(toy, u, i, 2, "pearson")
                assert predict_knn(model, u, i) == \
                    pytest.approx(expected, abs=1e-12)

    def test_toy_u1_i4_is_item_mean_fallback(self, toy):
        # N_u1 = {u3, u4} with zero weight; i4's mean is (2 + 4) / 2 = 3.
        model = train_knn(toy, 2, "pearson")
        assert predict_knn(model, 0, 3) == 3.0

    def test_constant_neighborhood(self):
        # d correlates positively with a, b, c, who all rated i10 with 3.
        rows = [(u, f"i{j:02d}", 3.0 if j < 60 else 4.0)
                for u in ("a", "b", "c") for j in range(61)]
        ds = build_dataset(rows + [("d", "i00", 3.0), ("d", "i60", 4.0)])
        model = train_knn(ds, 3, "pearson")
        assert all(s > 0 for s in model.neighbor_sims[3])
        i10 = list(ds.item_ids).index("i10")
        assert predict_knn(model, 3, i10) == 3.0

    def test_item_mean_fallback_when_no_neighbor_rated(self):
        rows = [("a", "x", 5.0), ("a", "y", 4.0),
                ("b", "x", 5.0), ("b", "y", 4.0),
                ("c", "z", 3.5), ("c", "w", 3.5)]
        ds = build_dataset(rows)
        model = train_knn(ds, 1, "pearson")
        # a's single neighbor is b (the only co-rater); neither rated z.
        z = list(ds.item_ids).index("z")
        assert model.neighbors[0][0] == 1
        assert predict_knn(model, 0, z) == 3.5

    @pytest.mark.parametrize("seed", [300, 301])
    def test_matches_literal_weighted_average(self, seed):
        # Reference: a scalar loop over the model's own neighbor lists, so
        # the check is independent of how those lists were chosen. Only
        # Pearson gives negative weights on positive ratings.
        ds = random_dataset(20, 40, 0.25, seed=seed)
        # an item nobody rated takes the global-mean fallback
        ds = RatingsDataset.build(ds.user_ids, ds.item_ids + ("unrated",),
                                  ds.user_idx, ds.item_idx, ds.values)
        ratings, mask = ds.dense
        negative_blends = fallbacks = 0
        for kind, k in itertools.product(("pearson", "cosine"),
                                         (1, 5, ds.n_users - 1)):
            model = train_knn(ds, k, kind)
            for u in range(ds.n_users):
                for i in range(ds.n_items):
                    num = den = 0.0
                    negative = False
                    for v, s in zip(model.neighbors[u],
                                    model.neighbor_sims[u]):
                        if mask[v, i]:
                            num += s * ratings[v, i]
                            den += abs(s)
                            negative |= s < 0
                    if den > 0:
                        expected = num / den
                        negative_blends += negative
                    else:
                        raters = ratings[mask[:, i], i]
                        expected = (raters.mean() if len(raters)
                                    else ratings[mask].mean())
                        fallbacks += 1
                    assert abs(predict_knn(model, u, i) - expected) <= 1e-12
        assert negative_blends > 0 and fallbacks > 0


class TestTrainNmf:
    def test_rank1_exact_recovery(self):
        rng = np.random.default_rng(0)
        p0 = rng.random(3) + 0.5
        q0 = rng.random(3) + 0.5
        m = np.outer(p0, q0)
        rows = [(f"u{a}", f"i{b}", float(m[a, b]))
                for a in range(3) for b in range(3)]
        ds = build_dataset(rows)
        model = train_nmf(ds, 1, seed=1, n_iters=2000, rel_tol=0.0)
        recon = model.p @ model.q.T
        assert float(np.mean((recon - m) ** 2)) < 1e-6

    def test_objective_trace_non_increasing_independent_recompute(self, toy):
        model = train_nmf(toy, 2, seed=42, n_iters=200, rel_tol=0.0)
        ratings, mask = toy.dense
        # independent recompute of the final objective
        resid = (ratings - model.p @ model.q.T)[mask]
        assert model.final_objective == pytest.approx(
            float(np.sum(resid ** 2)), rel=1e-9)
        hist = model.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_nonnegativity_and_determinism(self, toy):
        m1 = train_nmf(toy, 3, seed=7, n_iters=80)
        m2 = train_nmf(toy, 3, seed=7, n_iters=80)
        assert np.all(m1.p >= 0) and np.all(m1.q >= 0)
        assert np.array_equal(m1.p, m2.p) and np.array_equal(m1.q, m2.q)
        m3 = train_nmf(toy, 3, seed=8, n_iters=80)
        assert not np.array_equal(m1.p, m3.p)

    @pytest.mark.parametrize("masked", [True, False])
    def test_continue_from_seeded_draw_equals_train(self, masked):
        # Replays train_nmf's documented starting draw.
        ds = random_dataset(20, 30, 0.2, seed=7)
        factors, seed, n_iters = 3, 11, 40
        rng = np.random.default_rng(seed)
        scale = np.sqrt(ds.global_mean / factors)
        p0 = rng.random((ds.n_users, factors)) * scale
        q0 = rng.random((ds.n_items, factors)) * scale
        trained = train_nmf(ds, factors, seed, n_iters=n_iters, rel_tol=0.0,
                            masked=masked)
        resumed = continue_nmf(ds, p0, q0, seed, n_iters, masked=masked)
        assert np.array_equal(trained.p, resumed.p)
        assert np.array_equal(trained.q, resumed.q)
        assert trained.objective_history == resumed.objective_history
        assert len(trained.objective_history) == n_iters + 1
        assert resumed.factors == factors

    def test_invalid_params(self, toy):
        with pytest.raises(ValueError):
            train_nmf(toy, 0, seed=1)
        with pytest.raises(ValueError):
            train_nmf(toy, 2, seed=1, n_iters=0)


class TestRecommend:
    def test_forced_single_choice(self):
        rows = [("a", "x", 5.0), ("a", "y", 4.0),
                ("b", "x", 3.0), ("b", "y", 2.0), ("b", "z", 5.0)]
        ds = build_dataset(rows)
        model = train_knn(ds, 1, "pearson")
        out = recommend(model, 0, 4)
        assert out.items == (list(ds.item_ids).index("z"),)

    def test_user_rated_everything_empty_list(self):
        rows = [("a", "x", 5.0), ("a", "y", 4.0),
                ("b", "x", 3.0), ("b", "y", 2.0)]
        ds = build_dataset(rows)
        model = train_knn(ds, 1, "pearson")
        assert recommend(model, 0, 3).items == ()

    def test_toy_nmf_matches_full_sort_oracle(self, toy):
        model = train_nmf(toy, 2, seed=42, n_iters=200)
        scores = model.p[0] @ model.q.T
        rated = set(toy.user_items(0).tolist())
        cands = sorted((i for i in range(6) if i not in rated),
                       key=lambda i: (-scores[i], i))
        out = recommend(model, 0, 3)
        assert list(out.items) == cands[:3]

    def test_never_recommends_rated_items(self):
        ds = random_dataset(10, 15, 0.3, seed=2)
        for cfg in (ModelConfig("knn", k=3),
                    ModelConfig("nmf", factors=2, seed=0, n_iters=50)):
            model = cfg.train(ds)
            for u in range(10):
                rec = set(top_items(model, u, 5).tolist())
                assert not rec & set(ds.user_items(u).tolist())

    def test_tie_break_is_ascending_index(self):
        # all zero-similarity neighbors force equal item-mean scores
        rows = [("a", "p", 4.0), ("b", "q", 4.0), ("c", "r", 4.0),
                ("d", "s", 4.0), ("d", "p", 4.0)]
        ds = build_dataset(rows)
        model = train_knn(ds, 2, "pearson")
        out = top_items(model, 0, 2).tolist()
        assert out == sorted(out)

    def test_invalid_l(self, toy):
        model = train_knn(toy, 2)
        with pytest.raises(ValueError):
            recommend(model, 0, 0)


class TestEvaluate:
    def test_split_disjoint_and_seeded(self, toy):
        tr1, te1 = train_test_split(toy, 1 / 3, seed=5)
        tr2, te2 = train_test_split(toy, 1 / 3, seed=5)
        assert te1 == te2
        assert np.array_equal(tr1.values, tr2.values)
        _, train_mask = tr1.dense
        for u, held in te1.items():
            for i in held:
                assert not train_mask[u, i]
        assert tr1.n_ratings + sum(len(h) for h in te1.values()) == 15

    def test_perfect_recall_case(self):
        # two clone groups; the held-out item is each user's top pick
        rows = []
        for u in ("a", "b", "c"):
            rows += [(u, "x", 5.0), (u, "y", 5.0), (u, "z", 5.0)]
        ds = build_dataset(rows)
        model = train_knn(ds, 2, "cosine")
        test = {0: {list(ds.item_ids).index("z"): 5.0}}
        # drop z from a's training profile
        rows2 = [r for r in rows if r != ("a", "z", 5.0)]
        ds2 = build_dataset(rows2, users=["a", "b", "c"],
                            items=list(ds.item_ids))
        model = train_knn(ds2, 2, "cosine")
        out = evaluate(model, test, l=3, relevance_threshold=4.0)
        assert out["recall_at_l"] == 1.0
        assert out["precision_at_l"] == pytest.approx(1 / 3)

    def test_toy_one_heldout_per_user_matches_hand_count(self, toy):
        train, test = train_test_split(toy, 1 / 3, seed=11)
        model = train_knn(train, 2, "pearson")
        got = evaluate(model, test, l=3, relevance_threshold=4.0)
        # oracle: enumerate hits by hand from the model's lists
        precisions, recalls = [], []
        for u, held in test.items():
            relevant = {i for i, r in held.items() if r >= 4.0}
            if not relevant:
                continue
            rec = set(top_items(model, u, 3).tolist())
            hits = len(rec & relevant)
            precisions.append(hits / 3)
            recalls.append(hits / len(relevant))
        assert got["precision_at_l"] == pytest.approx(np.mean(precisions))
        assert got["recall_at_l"] == pytest.approx(np.mean(recalls))

    def test_empty_test_set_rejected(self, toy):
        model = train_knn(toy, 2)
        with pytest.raises(ValueError):
            evaluate(model, {}, 3, 4.0)
