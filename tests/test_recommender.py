import itertools
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from recinfluence.data import RatingsDataset, _transposed, drop_user
from recinfluence.recommender import (ModelConfig, TrainingError,
                                      continue_nmf, evaluate, predict_knn,
                                      recommend, top_items, train_knn,
                                      train_nmf, train_test_split)
from recinfluence import influence, recommender, similarity
from recinfluence.artifacts import save_model
from recinfluence.similarity import user_similarity_matrix

import oracles
from conftest import (build_dataset, clone_users_dataset, hub_dataset,
                      random_dataset, revalued, toy_dataset)


def _grid_dataset(n_users, n_items, density, seed, values):
    """``random_dataset``'s pattern with ratings drawn from ``values``."""
    base = random_dataset(n_users, n_items, density, seed=seed)
    rng = np.random.default_rng(seed)
    return build_dataset(
        [(base.user_ids[u], base.item_ids[i], float(rng.choice(values)))
         for u, i in zip(base.user_idx, base.item_idx)],
        users=list(base.user_ids), items=list(base.item_ids))


HALF_STARS = np.arange(1, 11) / 2


def _edge_users_dataset():
    """One-rating user, a user who rated every item, a constant profile."""
    ds = _grid_dataset(12, 9, 0.4, 5, HALF_STARS)
    rows = [(ds.user_ids[u], ds.item_ids[i], float(v))
            for u, i, v in zip(ds.user_idx, ds.item_idx, ds.values)]
    rows += [("x_one", "i0", 4.5)]
    rows += [("x_all", f"i{i}", 1.0 + (i % 4) / 2) for i in range(9)]
    rows += [("x_flat", f"i{i}", 3.5) for i in range(0, 9, 2)]
    return build_dataset(rows)


def _single_rater_dataset():
    """Every item but one is rated by a single user."""
    rows = [(f"u{u}", f"i{u}{j}", float(1 + (u + j) % 5))
            for u in range(6) for j in range(4)]
    rows += [(f"u{u}", "shared", 2.5 + u / 2) for u in range(6)]
    return build_dataset(rows)


GRID_DATASETS = {
    "toy": toy_dataset,
    "random": lambda: random_dataset(50, 100, 0.1, seed=0),
    "hub": lambda: hub_dataset(30, 60, seed=2),
    "clones": lambda: clone_users_dataset(6, 10),
    "single_rater_items": _single_rater_dataset,
    "edge_users": _edge_users_dataset,
    "implicit": lambda: _grid_dataset(25, 40, 0.2, 1, [1.0]),
    "half_stars": lambda: _grid_dataset(40, 70, 0.15, 2, HALF_STARS),
    "negative_half_grid": lambda: _grid_dataset(
        30, 50, 0.2, 3, np.arange(-6, 7) / 2),
    **{f"n{n}": (lambda n=n: _grid_dataset(n, 30, 0.3, n, HALF_STARS))
       for n in (1, 2, 17, 33)},
}


def _row_loop(kind, ds, shrink):
    """``similarity._similarity_loop`` on the float64 ratings of ``ds``."""
    ratings = ds.ratings()
    return similarity._similarity_loop(kind, ratings, ds.mask, ratings,
                                       ds.mask, shrink)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("shrink", [50, None])
    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    @pytest.mark.parametrize("name", sorted(GRID_DATASETS))
    def test_products_equal_row_loop_on_grid(self, name, kind, shrink):
        ds = GRID_DATASETS[name]()
        assert similarity._exact_sums(ds.values, ds.n_items)
        got = similarity._similarity_rows(kind, ds, shrink)
        assert_same_bits(got, _row_loop(kind, ds, shrink))

    @pytest.mark.parametrize("case", ["off_grid", "sums_past_2**53"])
    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    def test_row_loop_taken_when_sums_may_be_inexact(self, case, kind,
                                                     monkeypatch):
        ds = _grid_dataset(20, 30, 0.3, 4, HALF_STARS)
        values = ds.values.copy()
        if case == "off_grid":
            values[0] = 2.25
        else:
            # 30 items * (2 * 2**24)**2 = 2**50 * 30 > 2**53
            values += 2.0 ** 24
        ds = revalued(ds, values)
        assert not similarity._exact_sums(ds.values, ds.n_items)
        want = _row_loop(kind, ds, similarity.SHRINK_COUNT)

        def refuse(*args, **kwargs):
            raise AssertionError("products path taken")

        monkeypatch.setattr(similarity, "_similarity_blocks", refuse)
        got = similarity._similarity_rows(kind, ds)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_not_exact(self, bad):
        ds = _grid_dataset(5, 6, 0.5, 1, HALF_STARS)
        assert not similarity._exact_sums(np.full(ds.n_ratings, bad),
                                          ds.n_items)

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    def test_grid_data_never_reaches_the_row_loop(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("row loop taken on half-star data")

        monkeypatch.setattr(similarity, "_similarity_loop", refuse)
        ds = _grid_dataset(40, 70, 0.15, 2, HALF_STARS)
        assert user_similarity_matrix(ds, kind=kind).shape == (40, 40)

    def test_pearson_products_keep_two_operands(self, monkeypatch):
        # blocks of 8 rows keep each block's scratch small beside the
        # n x m float32 operands, h and the mask; a third, h * h, fails
        monkeypatch.setattr(similarity, "_BLOCK", 8)
        monkeypatch.setattr(similarity, "_BLOCK_ITEMS", 10 ** 9)
        n, m = 300, 3000
        ds = random_dataset(n, m, 0.02, seed=1)
        tracemalloc.start()
        try:
            user_similarity_matrix(ds, kind="pearson")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 + 2.5 * n * m * 4

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    def test_products_allocate_no_more_than_row_loop(self, kind,
                                                     monkeypatch):
        # knn-loo's shape; 32-row blocks went over the row loop's peak here
        ds = _grid_dataset(120, 240, 0.05, 6, HALF_STARS)

        def peak():
            tracemalloc.start()
            try:
                user_similarity_matrix(ds, kind=kind)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        products = peak()
        # the row loop is charged for its work alone: its ratings and mask
        # are built before the trace starts
        ratings = ds.ratings()
        ds.mask
        monkeypatch.setattr(similarity, "_exact_sums", lambda *args: None)
        monkeypatch.setattr(RatingsDataset, "ratings", lambda self: ratings)
        assert products <= peak()

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


def assert_same_int64(got, want):
    """Equal as raw bits, the sign of every zero included."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _bounded_dataset(top):
    """Half stars over 30 items plus two users who rated every item with
    magnitudes up to ``top``, so the largest per-pair sums come near the
    bound 30 * (2 * top)**2."""
    ds = _grid_dataset(20, 30, 0.3, 4, HALF_STARS)
    ratings, mask = ds.ratings(), ds.mask.copy()
    ratings[0] = top
    ratings[1] = np.where(np.arange(30) % 2, -top, top - 0.5)
    mask[:2] = True
    users, items = np.nonzero(mask)
    return RatingsDataset.build(ds.user_ids, ds.item_ids, users, items,
                                ratings[users, items])


# Cases for the float32 route: n against the 16-row blocks (one row, fewer
# than a block, a partial last block), 700 items (21-row blocks), one-rater
# items, items left rating-less by a removal, ratings of 0.0, users who
# rated every item, negative half stars, and sums up to 30 * 747**2, just
# under 2**24.
FLOAT32_CASES = {
    "n1": lambda: _grid_dataset(1, 30, 0.3, 1, HALF_STARS),
    "n11": lambda: _grid_dataset(11, 30, 0.3, 11, HALF_STARS),
    "n37": lambda: _grid_dataset(37, 30, 0.3, 37, HALF_STARS),
    "wide_blocks": lambda: _grid_dataset(45, 700, 0.05, 5, HALF_STARS),
    "single_rater_items": _single_rater_dataset,
    "rating_less_items": lambda: drop_user(_single_rater_dataset(), 2),
    "zero_ratings": lambda: _grid_dataset(30, 50, 0.2, 7,
                                          np.arange(-2, 3) / 2),
    "full_profiles": _edge_users_dataset,
    "negative_half_stars": lambda: _grid_dataset(
        30, 50, 0.2, 3, np.arange(-6, 7) / 2),
    "under_float32_bound": lambda: _bounded_dataset(373.5),
}


class TestExactKernel:
    """The product kernel, fed from the nnz ratings, against the row loop
    on the float64 ratings, compared as int64 views."""

    @pytest.mark.parametrize("top,dtype", [
        (0.0, np.float32), (2.0 ** 24 - 1, np.float32),
        (2.0 ** 24, np.float64), (2.0 ** 53 - 1, np.float64),
        (2.0 ** 53, None), (np.inf, None), (np.nan, None)])
    def test_exact_dtype_at_its_edges(self, top, dtype):
        assert similarity._exact_dtype(top) is dtype

    @pytest.mark.parametrize("shrink", [50, None])
    @pytest.mark.parametrize("kind", similarity.SIMILARITIES)
    @pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
    def test_float32_products_equal_row_loop(self, name, kind, shrink):
        ds = FLOAT32_CASES[name]()
        assert similarity._exact_sums(ds.values, ds.n_items) is np.float32
        got = similarity._similarity_rows(kind, ds, shrink)
        assert_same_int64(got, _row_loop(kind, ds, shrink))
        assert_same_int64(got, got.T)

    @pytest.mark.parametrize("shrink", [50, None])
    @pytest.mark.parametrize("kind", similarity.SIMILARITIES)
    @pytest.mark.parametrize("name", sorted(FLOAT32_CASES))
    def test_item_rows_equal_row_loop(self, name, kind, shrink):
        items = _transposed(FLOAT32_CASES[name]())
        assert similarity._exact_sums(items.values, items.n_items)
        got = similarity._similarity_rows(kind, items, shrink)
        assert_same_int64(got, _row_loop(kind, items, shrink))

    def test_rating_cases_are_present(self):
        cut = FLOAT32_CASES["rating_less_items"]()
        assert np.count_nonzero(cut.item_counts == 0) == 4
        assert np.any(FLOAT32_CASES["zero_ratings"]().values == 0.0)
        full = FLOAT32_CASES["full_profiles"]()
        assert full.user_counts.max() == full.n_items
        top = FLOAT32_CASES["under_float32_bound"]().values
        assert 30 * (2 * np.abs(top).max()) ** 2 == 30 * 747 ** 2 < 2 ** 24

    @pytest.mark.parametrize("shrink", [50, None])
    @pytest.mark.parametrize("kind", similarity.SIMILARITIES)
    def test_float64_products_just_over_the_float32_bound(self, kind,
                                                          shrink):
        ds = _bounded_dataset(374.0)    # 30 * 748**2 >= 2**24
        assert similarity._exact_sums(ds.values, ds.n_items) is np.float64
        got = similarity._similarity_rows(kind, ds, shrink)
        assert_same_int64(got, _row_loop(kind, ds, shrink))
        assert_same_int64(got, got.T)

    @pytest.mark.parametrize("kind", similarity.SIMILARITIES)
    def test_pair_depends_on_its_two_users_alone(self, kind):
        # shuffled users put each pair in other blocks and on the other
        # side of the diagonal
        ds = _grid_dataset(37, 30, 0.3, 37, HALF_STARS)
        order = np.random.default_rng(37).permutation(ds.n_users)
        shuffled = RatingsDataset.build(
            [ds.user_ids[u] for u in order], ds.item_ids,
            np.argsort(order)[ds.user_idx], ds.item_idx, ds.values)
        assert_same_int64(similarity._similarity_rows(kind, shuffled),
                          similarity._similarity_rows(kind, ds)[
                              np.ix_(order, order)])

    @pytest.mark.parametrize("kind", similarity.SIMILARITIES)
    def test_square_call_scores_only_the_upper_blocks(self, kind,
                                                      monkeypatch):
        ds = _grid_dataset(40, 30, 0.3, 40, HALF_STARS)
        shapes, score = [], similarity._scores

        def spy(kind, sums, shrink=None):
            shapes.append(sums[0].shape)
            return score(kind, sums, shrink)

        monkeypatch.setattr(similarity, "_scores", spy)
        similarity._similarity_rows(kind, ds)
        assert shapes == [(16, 40), (16, 24), (8, 8)]


# Datasets whose similarities tie often: one to three users, clones, users
# with no co-rated item (all zero), and three items for ten users.
_TIE_DATASETS = {
    "one_user": lambda: build_dataset([("a", "x", 5.0), ("a", "y", 3.0)]),
    "two_clones": lambda: clone_users_dataset(2, 4),
    "three_users": lambda: build_dataset(
        [("a", "x", 5.0), ("a", "y", 3.0), ("b", "x", 5.0),
         ("b", "y", 3.0), ("c", "z", 4.0)]),
    "five_clones": clone_users_dataset,
    "disjoint": lambda: build_dataset(
        [(f"u{u}", f"i{u}", 3.0) for u in range(6)]),
    "three_items": lambda: random_dataset(10, 3, 0.7, seed=2),
}


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

    @pytest.mark.parametrize("shape", [(5, 4), (4, 4), (5, 5, 1), (25,)])
    def test_sim_matrix_of_wrong_shape_refused(self, toy, shape):
        with pytest.raises(ValueError, match="sim_matrix"):
            train_knn(toy, 2, sim_matrix=np.zeros(shape))

    @pytest.mark.parametrize("with_order", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sim_matrix_refused(self, toy, bad, with_order):
        sims = user_similarity_matrix(toy)
        order = recommender._neighbor_order(sims, 3) if with_order else None
        sims[3, 1] = bad
        with pytest.raises(ValueError, match="sim_matrix"):
            train_knn(toy, 2, sim_matrix=sims, order=order)

    @pytest.mark.parametrize("k,rows,cols", [
        (2, 4, 3), (2, 6, 3), (3, 5, 2), (9, 5, 3), (1, 5, 0)])
    def test_order_of_wrong_shape_refused(self, toy, k, rows, cols):
        # k = 9 needs all n - 1 = 4 columns
        sims = user_similarity_matrix(toy)
        order = recommender._neighbor_order(sims, 4)
        order = np.resize(order, (rows, cols))
        with pytest.raises(ValueError, match="order"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train_knn(toy, k, sim_matrix=sims, order=order)

    def test_one_dimensional_order_refused(self, toy):
        sims = user_similarity_matrix(toy)
        with pytest.raises(ValueError, match="order"):
            train_knn(toy, 1, sim_matrix=sims,
                      order=recommender._neighbor_order(sims, 1).ravel())

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    @pytest.mark.parametrize("name", sorted(_TIE_DATASETS))
    def test_given_order_equals_own_sort(self, name, kind, tmp_path):
        # the leave-one-out engine hands over its order, one deeper than k
        ds = _TIE_DATASETS[name]()
        n = ds.n_users
        sims = user_similarity_matrix(ds, kind=kind)
        for k in sorted({k for k in (1, n - 2, n - 1, n, 2 * n) if k >= 1}):
            order = recommender._neighbor_order(sims, min(k + 1, n - 1))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                given = train_knn(ds, k, kind, sim_matrix=sims, order=order)
                own = train_knn(ds, k, kind)
            assert len(caught) == (2 if k >= n else 0)
            assert given.neighbors.dtype == own.neighbors.dtype
            assert np.array_equal(given.neighbors, own.neighbors)
            assert_same_int64(given.neighbor_sims, own.neighbor_sims)
            assert_same_int64(given.item_means, own.item_means)
            for arr in (given.neighbors, given.neighbor_sims):
                assert arr.flags.c_contiguous and not arr.flags.writeable
            assert (given.k, given.similarity, given.global_mean) == \
                (own.k, own.similarity, own.global_mean)
            for model, base in ((given, "given"), (own, "own")):
                save_model(model, tmp_path / base)
            for ext in (".json", ".tsv"):
                assert (tmp_path / f"given{ext}").read_bytes() == \
                    (tmp_path / f"own{ext}").read_bytes()


class TestModelConfig:
    @pytest.mark.parametrize("k", [0, -2])
    def test_knn_k_below_one_refused_before_any_similarity_pass(
            self, monkeypatch, toy, k):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return user_similarity_matrix(*args, **kwargs)

        for module in (similarity, recommender, influence):
            monkeypatch.setattr(module, "user_similarity_matrix", spy)
        with pytest.raises(ValueError, match="k must be >= 1"):
            influence.influence_all(toy, ModelConfig("knn", k=k), 2)
        assert calls == []

    def test_nmf_keeps_any_k(self):
        assert ModelConfig("nmf", k=0).to_dict()["algorithm"] == "nmf"


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
        ratings, mask = ds.ratings(), ds.mask
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


# The acceptance criteria's random suite (tests/test_acceptance.py).
ACCEPTANCE_SUITE = [(50, 100, 0.10, 100 + seed) for seed in range(20)]


def _blend_pair(ds, nbrs, sims, means):
    """``_blend`` and the dense reference loop on the same block, as int64
    views so that signed zeros and NaN payloads count."""
    got = np.empty((len(nbrs), ds.n_items))
    want = np.empty_like(got)
    recommender._blend(ds, nbrs, sims, means, got)
    oracles.dense_blend(ds.ratings(), ds.mask, nbrs, sims, means, want)
    return got.view(np.int64), want.view(np.int64)


def _one_item_dataset(n=12, seed=4):
    rng = np.random.default_rng(seed)
    raters = n - 3
    return RatingsDataset.build(
        [f"u{j}" for j in range(n)], ["x"], np.arange(raters),
        np.zeros(raters, dtype=int), 1 + 4 * rng.random(raters))


class TestBlendMatchesDenseReference:
    """The scatter over rated (row, rank, item) triples adds each entry's
    terms in rank order, as the dense loop over ranks does, bit for bit."""

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    def test_acceptance_random_suite(self, kind):
        for n, m, d, seed in ACCEPTANCE_SUITE:
            ds = random_dataset(n, m, d, seed=seed)
            for k in (1, 5, n - 1):
                model = train_knn(ds, k, kind)
                rows = np.random.default_rng(seed).permutation(n)[:n // 2]
                for block in (np.arange(n), rows, rows[:1]):
                    got, want = _blend_pair(
                        ds, model.neighbors[block],
                        model.neighbor_sims[block], model.item_means)
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(GRID_DATASETS))
    def test_edge_datasets(self, name):
        # one-rater items, users who rated everything, ratings of 0 and
        # negative ratings, and k up to n - 1
        ds = GRID_DATASETS[name]()
        n = ds.n_users
        ks = sorted({k for k in (1, 3, n - 1) if 1 <= k < n})
        for kind, k in itertools.product(("pearson", "cosine"), ks):
            model = train_knn(ds, k, kind)
            got, want = _blend_pair(ds, model.neighbors,
                                    model.neighbor_sims, model.item_means)
            assert np.array_equal(got, want)

    def test_no_neighbors_gives_the_means(self):
        ds = random_dataset(6, 9, 0.4, seed=1)
        means = np.linspace(1.0, 5.0, ds.n_items)
        got, want = _blend_pair(ds, np.empty((6, 0), dtype=np.int64),
                                np.empty((6, 0)), means)
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.broadcast_to(means, (6, 9))
                              .view(np.int64))

    def test_signed_and_zero_similarities(self):
        # negative weights, +0 and -0 weights, weights that cancel, rows
        # with only zero weights, and -inf fallback means
        ds = _grid_dataset(40, 60, 0.2, 6, np.arange(-6, 7) / 2)
        rng = np.random.default_rng(6)
        model = train_knn(ds, 8, "pearson")
        choices = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
        sims = rng.choice(choices, size=model.neighbor_sims.shape)
        sims[:5] = rng.choice([0.0, -0.0], size=(5, 8))
        sims[5:10, :2] = [0.5, -0.5]
        means = model.item_means.copy()
        means[::7] = -np.inf
        got, want = _blend_pair(ds, model.neighbors, sims, means)
        assert np.array_equal(got, want)
        assert np.signbit(sims).any() and not np.all(sims)

    @pytest.mark.parametrize("k", [1, 8, 11])
    def test_one_item(self, k):
        ds = _one_item_dataset()
        model = train_knn(ds, k, "cosine")
        got, want = _blend_pair(ds, model.neighbors, model.neighbor_sims,
                                model.item_means)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cap", ["one", "split"])
    def test_sub_blocks_split_mid_block(self, cap, monkeypatch):
        ds = hub_dataset(30, 60, seed=2)
        model = train_knn(ds, 6, "pearson")
        want = np.empty((ds.n_users, ds.n_items))
        model.score_rows(np.arange(ds.n_users), want)
        _, want_thr = recommender.top_lists(model, 5)
        triples = ds.user_counts[model.neighbors].sum(axis=1)
        # "split" cuts both the one-block pass and each list chunk
        limit = 1 if cap == "one" else int(triples[:4].sum()) - 1
        assert limit < triples.sum()
        monkeypatch.setattr(recommender, "_BLEND_TRIPLES", limit)
        got = np.empty_like(want)
        model.score_rows(np.arange(ds.n_users), got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got_block, dense_block = _blend_pair(
            ds, model.neighbors, model.neighbor_sims, model.item_means)
        assert np.array_equal(got_block, dense_block)
        _, thr = recommender.top_lists(model, 5)
        assert np.array_equal(thr.view(np.int64), want_thr.view(np.int64))

    def test_scratch_stays_near_the_triple_cap(self):
        ds = random_dataset(300, 600, 0.05, seed=9)
        model = train_knn(ds, 20, "cosine")
        rows = np.arange(40)
        out = np.empty((len(rows), ds.n_items))
        nbrs, sims = model.neighbors[rows], model.neighbor_sims[rows]
        assert ds.user_counts[nbrs].sum(axis=1).max() <= \
            recommender._BLEND_TRIPLES
        tracemalloc.start()
        try:
            recommender._blend(ds, nbrs, sims, model.item_means, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two (rows, m) sums, about five 8-byte arrays of triples, and
        # the per-neighbor CSR bounds
        assert peak <= (2 * out.nbytes + 48 * recommender._BLEND_TRIPLES
                        + 4 * nbrs.nbytes)


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
        ratings, mask = toy.ratings(), toy.mask
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

    @pytest.mark.parametrize("n_iters", [0, -5])
    def test_continue_refuses_fewer_than_one_iteration(self, toy, n_iters):
        model = train_nmf(toy, 2, seed=1, n_iters=5)
        with pytest.raises(ValueError, match="n_iters must be >= 1"):
            continue_nmf(toy, model.p, model.q, seed=1, n_iters=n_iters)


def _sole_rater_removed():
    """A reduced dataset holding an item nobody rates any more."""
    ds = random_dataset(20, 30, 0.15, seed=5)
    item = int(np.flatnonzero(ds.item_counts == 1)[0])
    mask = ds.mask
    reduced = drop_user(ds, int(np.flatnonzero(mask[:, item])[0]))
    assert reduced.item_counts[item] == 0
    return reduced


def _one_rater_item():
    """A dataset where some item has exactly one rater."""
    ds = random_dataset(20, 30, 0.15, seed=5)
    assert np.any(ds.item_counts == 1)
    return ds


NMF_EDGE_CASES = {
    "one-user": lambda: build_dataset([("a", "x", 5.0), ("a", "y", 2.0),
                                       ("a", "z", 4.0)]),
    "unrated-item": _sole_rater_removed,
    "user-rated-all": lambda: hub_dataset(15, 25, hub_fraction=1.0,
                                          profile=3, seed=2),
    "factors-above-rank": toy_dataset,
    "one-rater-item": _one_rater_item,
}


class TestLeanNmfLoop:
    """The one-buffer loop against ``oracles.nmf_iterate``, which forms
    the float weights and every product and residual afresh: bit for
    bit."""

    def assert_fit_matches(self, model, ds, p0, q0, n_iters, rel_tol):
        p, q, history = oracles.nmf_fit(ds, p0, q0, n_iters, rel_tol,
                                        model.masked)
        assert np.array_equal(model.p, p)
        assert np.array_equal(model.q, q)
        assert model.objective_history == history

    @pytest.mark.parametrize("masked", [True, False])
    def test_train_matches_reference(self, masked):
        ds = random_dataset(40, 70, 0.1, seed=3)
        model = train_nmf(ds, 5, 9, n_iters=30, rel_tol=0.0, masked=masked)
        self.assert_fit_matches(model, ds, *oracles.nmf_start(ds, 5, 9),
                                30, 0.0)

    @pytest.mark.parametrize("masked", [True, False])
    def test_warm_start_matches_reference(self, masked):
        ds = random_dataset(30, 50, 0.15, seed=4)
        full = train_nmf(ds, 4, 2, n_iters=25, masked=masked)
        reduced = drop_user(ds, 7)
        p0 = np.delete(full.p, 7, axis=0)
        model = continue_nmf(reduced, p0, full.q, 2, 12, masked=masked)
        self.assert_fit_matches(model, reduced, p0, full.q, 12, 0.0)

    @pytest.mark.parametrize("masked", [True, False])
    def test_early_stop_matches_reference(self, masked):
        ds = random_dataset(30, 50, 0.15, seed=6)
        model = train_nmf(ds, 3, 4, n_iters=500, rel_tol=1e-3,
                          masked=masked)
        assert len(model.objective_history) - 1 < 500
        self.assert_fit_matches(model, ds, *oracles.nmf_start(ds, 3, 4),
                                500, 1e-3)

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("density", [0.05, 0.4, 1.0])
    def test_densities_match_reference(self, density, masked):
        # masked, 0.05 gathers the observed entries and 0.4 squares the
        # residual in place; at 1.0 every entry is observed, so the mask
        # product is skipped
        ds = random_dataset(30, 50, density, seed=8)
        assert (ds.n_ratings == 30 * 50) == (density == 1.0)
        model = train_nmf(ds, 4, 3, n_iters=25, rel_tol=0.0, masked=masked)
        self.assert_fit_matches(model, ds, *oracles.nmf_start(ds, 4, 3),
                                25, 0.0)

    @pytest.mark.parametrize("masked", [True, False])
    def test_one_iteration_matches_reference(self, masked):
        ds = random_dataset(25, 40, 0.1, seed=9)
        model = train_nmf(ds, 3, 5, n_iters=1, masked=masked)
        assert len(model.objective_history) == 2
        self.assert_fit_matches(model, ds, *oracles.nmf_start(ds, 3, 5),
                                1, 1e-5)

    @pytest.mark.parametrize("masked", [True, False])
    @pytest.mark.parametrize("case", sorted(NMF_EDGE_CASES))
    def test_edge_cases_match_reference(self, case, masked):
        ds = NMF_EDGE_CASES[case]()
        factors = 8 if case == "factors-above-rank" else 2
        model = train_nmf(ds, factors, 1, n_iters=40, rel_tol=0.0,
                          masked=masked)
        self.assert_fit_matches(model, ds,
                                *oracles.nmf_start(ds, factors, 1), 40, 0.0)

    def test_divergence_message_matches_reference(self, toy):
        from recinfluence.recommender import _nmf_iterate
        ratings, mask = toy.ratings(), toy.mask
        rng = np.random.default_rng(0)
        p, q = rng.random((5, 2)), rng.random((6, 2))
        # a fabricated "previous objective" below any reachable value
        with pytest.raises(TrainingError) as lean:
            _nmf_iterate(ratings, mask, p, q, 1, 0.0, [-1.0])
        with pytest.raises(RuntimeError) as ref:
            oracles.nmf_iterate(ratings, mask.astype(float), p, q, 1, 0.0,
                                [-1.0])
        assert str(lean.value) == str(ref.value)
        assert str(lean.value).startswith("objective increased from -1.0 to ")

    @pytest.mark.parametrize("masked", [True, False])
    def test_empty_history_gets_the_starting_objective(self, masked):
        from recinfluence.recommender import _nmf_iterate
        ds = random_dataset(20, 30, 0.2, seed=5)
        ratings, mask = ds.ratings(), ds.mask
        w = mask.astype(float) if masked else np.ones_like(ratings)
        p, q = oracles.nmf_start(ds, 3, 1)
        history = []
        _nmf_iterate(ratings, mask if masked else None, p, q, 0, 0.0,
                     history)
        assert history == [oracles.nmf_objective(ratings, w, p @ q.T)]

    @pytest.mark.parametrize("masked", [True, False])
    def test_non_finite_objective_raises(self, masked):
        # 1e300 is a finite rating, but its square overflows
        ds = build_dataset([("a", "x", 1e300), ("a", "y", 2.0),
                            ("b", "x", 3.0), ("b", "z", 4.0),
                            ("c", "y", 5.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="objective is not finite"):
                train_nmf(ds, 2, 0, n_iters=5, masked=masked)

    @staticmethod
    def assert_one_buffer(monkeypatch, masked, density):
        # nmf-loo's shape: 100 x 200, 8 factors, 40 iterations
        ds = random_dataset(100, 200, density, seed=1)
        # both fits read ratings and a mask built before the trace starts
        ratings = ds.ratings()
        ds.mask
        monkeypatch.setattr(RatingsDataset, "ratings", lambda self: ratings)

        def peak(fit):
            tracemalloc.start()
            try:
                fit()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        lean = peak(lambda: train_nmf(ds, 8, 1, n_iters=40, rel_tol=0.0,
                                      masked=masked))
        p0, q0 = oracles.nmf_start(ds, 8, 1)
        reference = peak(lambda: oracles.nmf_fit(ds, p0, q0, 40, 0.0,
                                                 masked))
        assert lean < reference
        # One (n, m) float buffer. A masked fit at 5% density adds four
        # nnz-sized vectors: the observed indexes and ratings, the
        # gathered products and their squared residuals. Six factor-sized
        # arrays cover the rest: the starting and current factors, one
        # update's temporaries, or numpy's 64 KB cast buffer for the bool
        # mask in the mask product. All of that stays below a second
        # buffer.
        factor_bytes = (ds.n_users + ds.n_items) * 8 * 8
        gathers = (masked and ds.n_ratings
                   <= recommender._GATHER_DENSITY * ratings.size)
        vector_bytes = 4 * 8 * ds.n_ratings if gathers else 0
        assert 6 * factor_bytes + vector_bytes < ratings.nbytes
        assert lean <= ratings.nbytes + vector_bytes + 6 * factor_bytes

    def test_no_per_iteration_temporaries(self, monkeypatch):
        self.assert_one_buffer(monkeypatch, True, 0.05)

    @pytest.mark.parametrize("masked,density", [(False, 0.05), (True, 0.4)])
    def test_one_buffer_without_gathers(self, monkeypatch, masked, density):
        self.assert_one_buffer(monkeypatch, masked, density)


class TestTopListsMatchSortOracle:
    """``_top_lists`` selects without sorting; ``oracles.top_l`` sorts."""

    @pytest.mark.parametrize("seed", range(60))
    def test_tie_heavy_blocks(self, seed):
        rng = np.random.default_rng(seed)
        rows, m = int(rng.integers(4, 12)), int(rng.integers(1, 25))
        # few distinct values, signed zeros among them, so most rows tie
        scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0], size=(rows, m))
        cand = rng.random((rows, m)) < rng.random()
        cand[0] = False             # no candidates
        cand[1] = True              # every item a candidate, all tied
        scores[1] = 2.0
        cand[2] = False             # one candidate
        cand[2, rng.integers(m)] = True
        for l in sorted({1, 2, (m + 1) // 2, m, m + 3}):
            lists, thr = recommender._top_lists(scores.copy(), cand, l)
            for r in range(rows):
                want = oracles.top_l(dict(enumerate(scores[r].tolist())),
                                     set(), set(np.flatnonzero(cand[r])), l)
                assert np.flatnonzero(lists[r]).tolist() == sorted(want)
                assert thr[r] == (scores[r, want[-1]] if len(want) == l
                                  else -np.inf)


class TestNeighborOrderMatchesLexsort:
    """``_neighbor_order`` is one stable sort; ``oracles`` keeps the
    two-key lexsort it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 121])
    def test_tie_heavy_matrices(self, n):
        rng = np.random.default_rng(n)
        # few distinct values, signed zeros among them, so most rows tie
        sim = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0], size=(n, n))
        if n > 2:
            sim[1] = 0.0            # one row tied throughout
            sim[2] = -0.0
            sim[2, ::2] = 0.0       # and one with the two zeros interleaved
        for depth in sorted({1, max(1, (n - 1) // 2), max(1, n - 1), n,
                             n + 5}):
            got = recommender._neighbor_order(sim, depth)
            want = oracles.neighbor_order_lexsort(sim, depth)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows_per_block", [1, 2, 3])
    def test_many_blocks(self, rows_per_block, monkeypatch):
        n = 10
        monkeypatch.setattr(recommender, "_ORDER_BYTES",
                            rows_per_block * 8 * n)
        sim = np.random.default_rng(rows_per_block).choice(
            [-0.5, -0.0, 0.0, 1.0], size=(n, n))
        for depth in (1, 4, n - 1):
            assert np.array_equal(recommender._neighbor_order(sim, depth),
                                  oracles.neighbor_order_lexsort(sim, depth))

    @pytest.mark.parametrize("depth", range(1, 12))
    def test_cut_inside_signed_zero_ties(self, depth):
        # every row: two above the zeros, a run of interleaved -0.0 and 0.0
        # (self among them), two below, so most depths cut inside the run
        n = 12
        rng = np.random.default_rng(depth)
        sim = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
        for u in range(n):
            others = rng.permutation(np.delete(np.arange(n), u))
            sim[u, others[:2]] = (0.75, 0.25)
            sim[u, others[-2:]] = (-0.25, -0.75)
        assert np.array_equal(recommender._neighbor_order(sim, depth),
                              oracles.neighbor_order_lexsort(sim, depth))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (2, 2), (8, 3)])
    def test_non_finite_refused(self, bad, where, monkeypatch):
        # the (8, 3) entry lies in the last of three blocks
        monkeypatch.setattr(recommender, "_ORDER_BYTES", 3 * 8 * 9)
        sim = np.zeros((9, 9))
        sim[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            recommender._neighbor_order(sim, 3)

    def test_peak_within_a_few_blocks(self):
        n, depth = 2000, 21
        sim = np.random.default_rng(0).standard_normal((n, n))
        tracemalloc.start()
        try:
            recommender._neighbor_order(sim, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (n, depth) order and a block's scratch; one full sort of the
        # matrix holds two n x n arrays
        assert peak <= n * depth * 8 + 4 * recommender._ORDER_BYTES

    def test_similarity_matrices(self):
        for seed in range(5):
            ds = random_dataset(60, 40, 0.15, seed=seed)
            for kind in ("pearson", "cosine"):
                sim = user_similarity_matrix(ds, kind=kind)
                assert np.array_equal(
                    recommender._neighbor_order(sim, 59),
                    oracles.neighbor_order_lexsort(sim, 59))

    def test_order_and_lists_select_through_one_cut(self, monkeypatch):
        depths = []
        real = recommender._cut

        def spy(scores, d):
            depths.append(d)
            return real(scores, d)

        monkeypatch.setattr(recommender, "_cut", spy)
        sim = np.random.default_rng(0).choice([-0.5, 0.0, 1.0], size=(6, 6))
        assert np.array_equal(recommender._neighbor_order(sim, 3),
                              oracles.neighbor_order_lexsort(sim, 3))
        assert depths == [3]
        lists, _ = recommender._top_lists(sim.copy(), sim > -1, 2)
        assert depths == [3, 2]
        assert np.all(np.count_nonzero(lists, axis=1) == 2)


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

    @pytest.mark.parametrize("algorithm", ["knn", "nmf"])
    def test_scores_the_user_once(self, algorithm, monkeypatch):
        ds = random_dataset(20, 40, 0.2, seed=5)
        model = ModelConfig(algorithm, k=4, factors=3, n_iters=20).train(ds)
        expected = {u: (top_items(model, u, 6), model.scores_for(u))
                    for u in range(ds.n_users)}
        calls = []
        real = type(model).scores_for

        def counted(self, u):
            calls.append(u)
            return real(self, u)

        monkeypatch.setattr(type(model), "scores_for", counted)
        for u, (items, scores) in expected.items():
            out = recommend(model, u, 6)
            assert out.items == tuple(items.tolist())
            assert out.scores == tuple(scores[items].tolist())
        assert calls == list(expected)


class TestEvaluate:
    def test_split_disjoint_and_seeded(self, toy):
        tr1, te1 = train_test_split(toy, 1 / 3, seed=5)
        tr2, te2 = train_test_split(toy, 1 / 3, seed=5)
        assert te1 == te2
        assert np.array_equal(tr1.values, tr2.values)
        train_mask = tr1.mask
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

    @pytest.mark.parametrize("algorithm", ["knn", "nmf"])
    def test_equals_per_user_top_items_on_random_suite(self, algorithm):
        # the one top_lists pass against each user's own top_items list
        cfg = ModelConfig(algorithm, k=10, factors=4, seed=1, n_iters=20)
        for seed in range(20):
            ds = random_dataset(50, 100, 0.10, seed=100 + seed)
            train, test = train_test_split(ds, 0.2, seed=seed)
            model = cfg.train(train)
            for l in (1, 10):
                precisions, recalls = [], []
                for u, held in test.items():
                    relevant = {i for i, r in held.items() if r >= 4.0}
                    if not relevant:
                        continue
                    rec = set(top_items(model, u, l).tolist())
                    hits = len(rec & relevant)
                    precisions.append(hits / l)
                    recalls.append(hits / len(relevant))
                assert evaluate(model, test, l, 4.0) == {
                    "precision_at_l": float(np.mean(precisions)),
                    "recall_at_l": float(np.mean(recalls))}

    def test_empty_test_set_rejected(self, toy):
        model = train_knn(toy, 2)
        with pytest.raises(ValueError):
            evaluate(model, {}, 3, 4.0)
