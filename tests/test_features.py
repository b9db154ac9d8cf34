import tracemalloc
import warnings

import numpy as np
import pytest

from recinfluence import features, similarity
from recinfluence.data import RatingsDataset
from recinfluence.features import (FEATURE_NAMES, FeatureConfig, centralities,
                                   extract_all, recommendation_overlaps,
                                   resolve_epsilon)
from recinfluence.recommender import (ModelConfig, top_items, top_lists,
                                      train_knn)
from recinfluence.similarity import (item_distance_submatrix,
                                     user_distance_matrix,
                                     user_similarity_matrix)

import oracles
from conftest import (build_dataset, clone_users_dataset,
                      order_statistic_arrays, random_dataset)
from oracles import (centrality, centroid_similarity, intra_profile_distance,
                     median_item_popularity, neighborhood_density,
                     neighborhood_membership, profile_size,
                     recommendation_overlap)


def indicator(lists, n_items):
    """The (n, m) bool indicator of per-user item lists, as ``top_lists``
    returns it."""
    listed = np.zeros((len(lists), n_items), dtype=bool)
    for v, items in enumerate(lists):
        listed[v, list(items)] = True
    return listed


class TestProfileSize:
    def test_toy_u1(self, toy):
        assert profile_size(toy, 0) == 3

    def test_single_rating_user(self):
        ds = build_dataset([("a", "x", 3.0), ("b", "x", 4.0),
                            ("b", "y", 5.0)])
        assert profile_size(ds, 0) == 1

    def test_partition_identity(self):
        ds = random_dataset(10, 20, 0.25, seed=3)
        total = sum(profile_size(ds, u) for u in range(10))
        assert total == ds.n_ratings


class TestCentrality:
    def test_identical_users_cosine(self):
        ds = clone_users_dataset(n_users=4, n_items=6, seed=0)
        for u in range(4):
            assert centrality(ds, u, similarity="cosine") == \
                pytest.approx(1.0, abs=1e-12)

    def test_toy_u1_mean_of_pairwise_pearson(self, toy):
        expected = np.mean([oracles.pearson_pair(toy, 0, v)
                            for v in range(1, 5)])
        assert centrality(toy, 0, similarity="pearson") == \
            pytest.approx(expected, abs=1e-12)


class TestNeighborhoodMembership:
    def test_two_users_forced_neighbor(self):
        ds = build_dataset([("a", "x", 3.0), ("a", "y", 2.0),
                            ("b", "x", 4.0), ("b", "z", 5.0)])
        model = train_knn(ds, 1, "pearson")
        assert neighborhood_membership(model, 0) == 1
        assert neighborhood_membership(model, 1) == 1

    def test_toy_counts_match_list_enumeration(self, toy):
        model = train_knn(toy, 2, "pearson")
        for u in range(5):
            expected = sum(1 for v in range(5) if v != u
                           and u in model.neighbors[v])
            assert neighborhood_membership(model, u) == expected

    def test_sum_identity(self):
        ds = random_dataset(9, 15, 0.3, seed=8)
        model = train_knn(ds, 4, "pearson")
        total = sum(neighborhood_membership(model, u) for u in range(9))
        assert total == 9 * min(4, 8)


class TestNeighborhoodDensity:
    def test_huge_epsilon_counts_everyone(self, toy):
        for u in range(5):
            assert neighborhood_density(toy, u, 1e9) == 4

    def test_toy_median_epsilon_matches_distance_table(self, toy):
        dist = user_distance_matrix(toy, kind="cosine")
        iu = np.triu_indices(5, k=1)
        eps = float(np.median(dist[iu]))
        for u in range(5):
            expected = sum(1 for v in range(5) if v != u
                           and dist[v, u] < eps)
            assert neighborhood_density(toy, u, eps) == expected

    def test_monotone_in_epsilon(self, toy):
        grid = np.linspace(0.05, 2.0, 12)
        for u in range(5):
            counts = [neighborhood_density(toy, u, e) for e in grid]
            assert counts == sorted(counts)

    def test_epsilon_must_be_positive(self, toy):
        with pytest.raises(ValueError):
            neighborhood_density(toy, 0, 0.0)


class TestRecommendationOverlap:
    def test_disjoint_lists_zero(self, toy):
        lists = [set(), {3}, {4}, {5}, {3, 4}]
        # u1 rated items 0,1,2; all the above avoid them
        assert recommendation_overlap(toy, 0, lists) == 0.0

    def test_equal_lists_one(self, toy):
        profile = set(toy.user_items(0).tolist())
        lists = [profile] * 5
        assert recommendation_overlap(toy, 0, lists) == 1.0

    def test_toy_knn_mean_of_four_jaccards(self, toy):
        model = train_knn(toy, 2, "pearson")
        lists = [set(top_items(model, v, 3).tolist()) for v in range(5)]
        profile = set(toy.user_items(0).tolist())
        expected = np.mean([
            len(profile & lists[v]) / len(profile | lists[v])
            for v in range(1, 5)])
        assert recommendation_overlap(toy, 0, lists) == \
            pytest.approx(expected, abs=1e-12)

    def test_complement_of_jaccard_distance(self, toy):
        from recinfluence.influence import jaccard_distance
        profile = set(toy.user_items(2).tolist())
        other = {0, 2, 4}
        sim = recommendation_overlap(toy, 2, [other, profile])
        # single v term: similarity + distance = 1
        lists = [other] * 5
        sim = recommendation_overlap(toy, 2, lists)
        assert sim == pytest.approx(1 - jaccard_distance(profile, other),
                                    abs=1e-12)


class TestRecommendationOverlaps:
    """The one-pass beta5 column against the per-user reference."""

    @staticmethod
    def reference(ds, lists):
        return np.array([recommendation_overlap(ds, u, lists)
                         for u in range(ds.n_users)])

    @pytest.mark.parametrize("n_users,n_items,l", [
        (5, 6, 3), (1, 8, 2), (2, 8, 2), (17, 30, 5), (40, 80, 10),
        (30, 12, 12)])
    def test_equals_reference(self, n_users, n_items, l):
        ds = random_dataset(n_users, n_items, 0.2, seed=n_users)
        rng = np.random.default_rng(n_users)
        lists = [frozenset(rng.choice(n_items, size=l, replace=False).tolist())
                 for _ in range(n_users)]
        got = recommendation_overlaps(ds, indicator(lists, ds.n_items))
        assert np.array_equal(got, self.reference(ds, lists))

    def test_empty_and_ragged_lists(self, toy):
        # empty lists give empty unions only against empty profiles; the
        # lists here are plain lists with a repeated item
        lists = [[], [3], [4, 4, 5], [0, 1, 2, 3, 4, 5], [2]]
        got = recommendation_overlaps(toy, indicator(lists, toy.n_items))
        assert np.array_equal(got, self.reference(toy, lists))

    def test_user_without_ratings_scores_its_empty_unions_zero(self):
        # a train split can leave a user with no ratings; with an empty
        # list too, the pair's union is empty and scores 0
        ds = build_dataset([("a", "x", 4.0), ("b", "y", 2.0)],
                           users=["a", "b", "c"])
        lists = [[1], [], []]
        got = recommendation_overlaps(ds, indicator(lists, ds.n_items))
        assert np.array_equal(got, self.reference(ds, lists))


class TestMedianPopularity:
    def test_everyone_rates_everything(self):
        ds = clone_users_dataset(n_users=4, n_items=5, seed=6)
        for u in range(4):
            assert median_item_popularity(ds, u) == 4.0

    def test_toy_u1_frozen(self, toy):
        # Pop(i1)=3, Pop(i2)=3, Pop(i3)=3 per the fixture columns
        assert median_item_popularity(toy, 0) == 3.0

    def test_even_profile_takes_middle_mean(self):
        rows = [("a", "w", 1.0), ("a", "x", 1.0),
                ("b", "w", 1.0), ("b", "x", 1.0), ("b", "y", 1.0),
                ("c", "w", 1.0), ("c", "y", 1.0), ("c", "z", 1.0)]
        ds = build_dataset(rows)
        # a's items: w (pop 3), x (pop 2) -> median 2.5
        assert median_item_popularity(ds, 0) == 2.5


class TestCentroidSimilarity:
    def test_single_user_cosine_is_one(self):
        ds = build_dataset([("a", "x", 3.0), ("a", "y", 5.0)])
        assert centroid_similarity(ds, 0, similarity="cosine") == \
            pytest.approx(1.0, abs=1e-12)

    def test_toy_u1_cosine_hand_computed(self, toy):
        # centroid over u1's items: i1 -> 11/3, i2 -> 4, i3 -> 10/3
        x = np.array([5.0, 4.0, 1.0])
        y = np.array([11 / 3, 4.0, 10 / 3])
        expected = float(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)))
        assert centroid_similarity(toy, 0, similarity="cosine") == \
            pytest.approx(expected, abs=1e-12)

    def test_constant_profile_pearson_is_zero(self):
        rows = [("a", "x", 4.0), ("a", "y", 4.0), ("a", "z", 4.0),
                ("b", "x", 1.0), ("b", "y", 5.0), ("b", "z", 3.0)]
        ds = build_dataset(rows)
        assert centroid_similarity(ds, 0, similarity="pearson") == 0.0


def centred_pearson(x, y, shrink=50):
    """Two-pass Pearson of two aligned vectors, shrunk by their length."""
    xd = x - x.mean()
    yd = y - y.mean()
    rho = np.sum(xd * yd) / (np.sqrt(np.sum(xd * xd))
                             * np.sqrt(np.sum(yd * yd)))
    return max(-1.0, min(1.0, float(rho))) * min(len(x), shrink) / shrink


class TestCentroidPearsonTextbook:
    @pytest.mark.parametrize("size", [30, 80])   # below and past the shrink
    def test_matches_two_pass_pearson(self, size):
        rng = np.random.default_rng(size)
        rows = [("a", f"i{i:03d}", float(rng.integers(1, 6)))
                for i in range(size)]
        rows += [(f"o{j}", f"i{i:03d}", float(rng.integers(1, 6)))
                 for j in range(6) for i in range(size)
                 if rng.random() < 0.5]
        ds = build_dataset(rows)
        ratings, mask = ds.ratings(), ds.mask
        a = list(ds.user_ids).index("a")
        items = ds.user_items(a)
        x = np.array([ratings[a, i] for i in items])
        y = np.array([np.mean(ratings[mask[:, i], i]) for i in items])
        assert centroid_similarity(ds, a, similarity="pearson") == \
            pytest.approx(centred_pearson(x, y), abs=1e-12)

    def test_unknown_kind_refused(self, toy):
        with pytest.raises(ValueError, match="unknown similarity"):
            centroid_similarity(toy, 0, similarity="jaccard")


class TestIntraProfileDistance:
    def test_single_item_profile(self):
        ds = build_dataset([("a", "x", 3.0), ("b", "x", 4.0),
                            ("b", "y", 5.0)])
        assert intra_profile_distance(ds, 0) == 0.0

    def test_identical_columns_zero(self):
        rows = [(u, i, 2.0) for u in ("a", "b") for i in ("x", "y", "z")]
        ds = build_dataset(rows)
        assert intra_profile_distance(ds, 0) == pytest.approx(0.0, abs=1e-12)

    def test_toy_u1_mean_of_three_pairs(self, toy):
        ratings = toy.ratings()
        cols = [ratings[:, i] for i in (0, 1, 2)]

        def cos_dist(a, b):
            return 1 - a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        expected = np.mean([cos_dist(cols[0], cols[1]),
                            cos_dist(cols[0], cols[2]),
                            cos_dist(cols[1], cols[2])])
        assert intra_profile_distance(toy, 0) == \
            pytest.approx(expected, abs=1e-12)


class TestAlternativeDistances:
    def test_pearson_user_distance_complements_similarity(self, toy):
        dist = user_distance_matrix(toy, kind="pearson")
        for u in range(5):
            assert dist[u, u] == 0.0
            for v in range(5):
                if u != v:
                    assert dist[u, v] == pytest.approx(
                        1 - oracles.pearson_pair(toy, u, v, shrink=None),
                        abs=1e-12)

    def test_pearson_item_distance_identical_columns(self):
        rows = [(u, i, float(r)) for u, r in (("a", 2), ("b", 5))
                for i in ("x", "y")]
        ds = build_dataset(rows)
        assert intra_profile_distance(ds, 0, item_distance="pearson") == \
            pytest.approx(0.0, abs=1e-12)

    def test_pearson_item_distance_matches_textbook(self):
        ds = random_dataset(12, 20, 0.4, seed=9)
        # items as users: the oracle's user Pearson is then item Pearson
        flipped = build_dataset(
            [(ds.item_ids[i], ds.user_ids[u], v)
             for u, i, v in zip(ds.user_idx, ds.item_idx, ds.values)],
            users=list(ds.item_ids), items=list(ds.user_ids))
        items = np.arange(ds.n_items)
        dist = oracles.item_pearson_distances(ds, items)
        for a in items:
            assert dist[a, a] == 0.0
            for b in items:
                if a != b:
                    assert dist[a, b] == pytest.approx(
                        1 - oracles.pearson_pair(flipped, a, b, shrink=None),
                        abs=1e-12)

    def test_unknown_item_distance_refused(self, toy, monkeypatch):
        # every kind is refused before the first similarity pass
        passes = []
        real = similarity._similarity_rows

        def spy(*args, **kwargs):
            passes.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(similarity, "_similarity_rows", spy)
        for model, config in (
                (ModelConfig(k=2), FeatureConfig(item_distance="jaccard")),
                (ModelConfig(k=2), FeatureConfig(user_distance="jaccard")),
                (ModelConfig(k=2), FeatureConfig(similarity="jaccard")),
                (ModelConfig(k=2, similarity="jaccard"), FeatureConfig())):
            with pytest.raises(ValueError,
                               match="unknown similarity 'jaccard'"):
                extract_all(toy, model, 3, config)
        assert passes == []

    def test_density_with_pearson_distance(self, toy):
        dist = user_distance_matrix(toy, kind="pearson")
        for u in range(5):
            expected = sum(1 for v in range(5) if v != u
                           and dist[v, u] < 1.0)
            assert neighborhood_density(toy, u, 1.0,
                                        distance="pearson") == expected


class TestExtractAll:
    def test_toy_table_matches_per_feature_functions(self, toy):
        model = train_knn(toy, 2, "pearson")
        lists = [frozenset(top_items(model, v, 3).tolist())
                 for v in range(5)]
        table = extract_all(toy, ModelConfig(k=2), 3)
        assert table.values.shape == (5, 8)
        eps = table.config["epsilon"]
        for u in range(5):
            assert table.values[u, 0] == profile_size(toy, u)
            assert table.values[u, 1] == centrality(toy, u)
            assert table.values[u, 2] == neighborhood_membership(model, u)
            assert table.values[u, 3] == neighborhood_density(toy, u, eps)
            assert table.values[u, 4] == recommendation_overlap(toy, u, lists)
            assert table.values[u, 5] == median_item_popularity(toy, u)
            assert table.values[u, 6] == centroid_similarity(toy, u)
            assert table.values[u, 7] == intra_profile_distance(toy, u)

    @pytest.mark.parametrize("model, l, message", [
        (ModelConfig("nmf", k=0), 3, "k must be >= 1"),
        (ModelConfig(k=2), 0, "l must be >= 1")])
    def test_refuses_l_and_k_before_any_work(self, toy, monkeypatch, model,
                                             l, message):
        calls = []
        monkeypatch.setattr(features, "user_similarity_matrix",
                            lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=message):
            extract_all(toy, model, l)
        assert calls == []

    def test_epsilon_recorded_and_quantile_resolved(self, toy):
        cfg = FeatureConfig(epsilon_quantile=0.25)
        dist = user_distance_matrix(toy, kind="cosine")
        iu = np.triu_indices(5, k=1)
        assert resolve_epsilon(toy, cfg, dist) == \
            pytest.approx(float(np.quantile(dist[iu], 0.25)))
        explicit = FeatureConfig(epsilon=0.3)
        assert resolve_epsilon(toy, explicit, dist) == 0.3

    def test_user_relabeling_equivariance(self):
        # dense continuous ratings keep all pairwise similarities distinct,
        # so index tie-breaking never enters
        rng = np.random.default_rng(12)
        rows = []
        for u in range(8):
            for i in range(12):
                if rng.random() < 0.8:
                    rows.append((f"u{u}", f"i{i:02d}",
                                 float(1 + 4 * rng.random())))
        ds = build_dataset(rows, users=[f"u{j}" for j in range(8)])
        sims = user_similarity_matrix(ds, kind="pearson")
        iu = np.triu_indices(8, k=1)
        assert len(np.unique(sims[iu])) == len(sims[iu])  # tie-free fixture
        perm = [3, 0, 6, 1, 7, 4, 2, 5]
        renamed = {ds.user_ids[orig]: f"u{new}"
                   for new, orig in enumerate(perm)}
        rows = [(renamed[ds.user_ids[u]], ds.item_ids[i], v)
                for u, i, v in zip(ds.user_idx, ds.item_idx, ds.values)]
        ds2 = build_dataset(rows, users=[f"u{j}" for j in range(8)],
                            items=list(ds.item_ids))
        cfg = FeatureConfig(epsilon=0.4)
        t1 = extract_all(ds, ModelConfig(k=3), 4, cfg)
        t2 = extract_all(ds2, ModelConfig(k=3), 4, cfg)
        for new, orig in enumerate(perm):
            np.testing.assert_allclose(t2.values[new], t1.values[orig],
                                       atol=1e-12)

    def test_column_count_always_eight(self):
        ds = random_dataset(6, 10, 0.3, seed=4)
        table = extract_all(ds, ModelConfig(k=2), 2, FeatureConfig())
        assert table.values.shape[1] == 8

    def test_invariant_ranges(self):
        ds = random_dataset(10, 18, 0.3, seed=5)
        table = extract_all(ds, ModelConfig(k=3), 4, FeatureConfig())
        v = table.values
        assert np.all(v[:, 0] >= 1)
        assert np.all(v[:, 2] == v[:, 2].astype(int))
        assert np.all(v[:, 3] == v[:, 3].astype(int))
        assert np.all((v[:, 4] >= 0) & (v[:, 4] <= 1))
        assert np.all(v[:, 5] >= 1)
        assert np.all(np.abs(v[:, 1]) <= 1)
        assert np.all(np.abs(v[:, 6]) <= 1)


def graded_dataset(n_users, n_items, density, seed, grade="half",
                   full_user=False, top=5.0):
    """Random ratings on a chosen grid: "int" 1..5 stars, "half" half stars
    up to ``top``, or "continuous" 1 + 4 * U(0, 1). Every user and item gets
    a rating; ``full_user`` makes user 0 rate every item."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_items)) < density
    if full_user:
        mask[0] = True
    for u in np.flatnonzero(~mask.any(axis=1)):
        mask[u, rng.integers(n_items)] = True
    for i in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(n_users), i] = True
    users, items = np.nonzero(mask)
    if grade == "int":
        values = rng.integers(1, 6, len(users)).astype(float)
    elif grade == "half":
        values = rng.integers(1, int(2 * top) + 1, len(users)) * 0.5
    else:
        values = 1 + 4 * rng.random(len(users))
    return RatingsDataset.build([f"u{j}" for j in range(n_users)],
                                [f"i{j}" for j in range(n_items)],
                                users, items, values)


def reference_values(ds, model, listed, sims, cfg, epsilon):
    """The table the one-user reference functions give, row by row."""
    lists = [np.flatnonzero(row) for row in listed]
    return np.array([
        [profile_size(ds, u), centrality(ds, u, sim_matrix=sims),
         neighborhood_membership(model, u),
         neighborhood_density(ds, u, epsilon, distance=cfg.user_distance),
         recommendation_overlap(ds, u, lists),
         median_item_popularity(ds, u),
         centroid_similarity(ds, u, cfg.similarity),
         intra_profile_distance(ds, u, cfg.item_distance)]
        for u in range(ds.n_users)]).reshape(ds.n_users, 8)


def studied_model(cfg, k=3, algo="knn"):
    """The run under study: kNN of ``cfg.similarity``, or a small NMF."""
    return ModelConfig(algo, k=k, similarity=cfg.similarity, factors=3,
                       seed=2, n_iters=20)


def feature_inputs(ds, cfg, mc, l):
    """The kNN model, top-l list indicator and similarity matrix that
    ``extract_all(ds, mc, l, cfg)`` reads, each built on its own for the
    one-user references."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # k >= n is reduced
        model = train_knn(ds, mc.k, mc.similarity)
    studied = model if mc.algorithm == "knn" else mc.train(ds)
    listed, _ = top_lists(studied, l)
    return model, listed, user_similarity_matrix(ds, kind=cfg.similarity)


def extract(ds, mc, l, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # k >= n is reduced
        return extract_all(ds, mc, l, cfg)


def table_and_reference(ds, cfg=FeatureConfig(), k=3, l=5, algo="knn"):
    mc = studied_model(cfg, k, algo)
    table = extract(ds, mc, l, cfg)
    model, listed, sims = feature_inputs(ds, cfg, mc, l)
    return table.values, reference_values(ds, model, listed, sims, cfg,
                                          table.config["epsilon"])


def assert_same_bits(got, expected):
    # an int64 view tells signed zeros and NaN payloads apart
    assert got.shape == expected.shape
    same = got.view(np.int64) == expected.view(np.int64)
    assert same.all(), [FEATURE_NAMES[j] for j in
                        np.flatnonzero(~same.all(axis=0))]


class TestBatchedColumns:
    """``extract_all``'s whole-array columns against the one-user reference
    functions, bit for bit."""

    @staticmethod
    def random_suite_dataset(seed):
        """The random suite's dataset for ``seed``, and the generator that
        drew its shape."""
        rng = np.random.default_rng(100 + seed)
        grade = ("int", "half", "continuous")[seed % 3]
        ds = graded_dataset(int(rng.integers(4, 61)),
                            int(rng.integers(5, 301)),
                            rng.uniform(0.05, 0.4), seed, grade,
                            full_user=seed % 4 == 0)
        return ds, rng

    @pytest.mark.parametrize("seed", range(12))
    def test_random_suite(self, seed):
        ds, rng = self.random_suite_dataset(seed)
        for cfg in (FeatureConfig(),
                    FeatureConfig(similarity="cosine",
                                  user_distance="pearson",
                                  item_distance="pearson")):
            assert_same_bits(*table_and_reference(
                ds, cfg, k=int(rng.integers(1, ds.n_users + 2))))

    @pytest.mark.parametrize("seed", range(12))
    def test_overlap_blocks_of_any_height(self, seed, monkeypatch):
        # beta5 and beta2, the two n x n row reductions
        ds, _ = self.random_suite_dataset(seed)
        cfg = FeatureConfig()
        _, listed, sims = feature_inputs(ds, cfg, studied_model(cfg), 5)
        lists = [np.flatnonzero(row) for row in listed]
        want = np.array([recommendation_overlap(ds, u, lists)
                         for u in range(ds.n_users)])
        want_beta2 = np.array([centrality(ds, u, sim_matrix=sims)
                               for u in range(ds.n_users)])
        for rows in (1, 7, ds.n_users, ds.n_users + 5):
            monkeypatch.setattr(features, "_BLOCK_ROWS", rows)
            got = recommendation_overlaps(ds, listed)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            got = centralities(sims)
            assert np.array_equal(got.view(np.int64),
                                  want_beta2.view(np.int64))

    @staticmethod
    def assert_pieces_equal_reference(ds, monkeypatch):
        """beta8 with batches and pieces of 1 and 7 item pairs against the
        one-user reference, for both item kinds."""
        split = []
        real = features._triangle_pieces

        def spy(t):
            pieces = list(real(t))
            split.append(len(pieces) > 1)
            return iter(pieces)

        monkeypatch.setattr(features, "_triangle_pieces", spy)
        for kind in ("cosine", "pearson"):
            want = np.array([intra_profile_distance(ds, u, kind)
                             for u in range(ds.n_users)])
            for piece in (1, 7):
                monkeypatch.setattr(features, "_BATCH_ENTRIES", piece)
                got = features._intra_profile_distances(ds, kind)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (kind, piece)
        # item Pearson always scores pairs, so a profile of three items or
        # more is split across pieces of one pair
        assert any(split) == (ds.user_counts.max() >= 3)

    @pytest.mark.parametrize("t,entries", [
        (2, 2 ** 15), (3, 1), (7, 1), (7, 7), (60, 7), (60, 100),
        (300, 2 ** 15)])
    def test_triangle_pieces_are_the_upper_triangle(self, t, entries,
                                                    monkeypatch):
        # entries below t - 1 put one row alone past the budget
        monkeypatch.setattr(features, "_BATCH_ENTRIES", entries)
        spans, i, j = zip(*features._triangle_pieces(t))
        want_i, want_j = np.triu_indices(t, 1)
        for got, want in ((i, want_i), (j, want_j)):
            got = np.concatenate(got)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert [span.stop - span.start for span in spans] == \
            [len(piece) for piece in i]
        assert spans[0].start == 0 and spans[-1].stop == len(want_i)
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("seed", range(12))
    def test_profile_pieces_on_the_random_suite(self, seed, monkeypatch):
        ds, _ = self.random_suite_dataset(seed)
        self.assert_pieces_equal_reference(ds, monkeypatch)

    @pytest.mark.parametrize("grade", ["int", "half", "continuous"])
    def test_profile_pieces_at_the_edges(self, grade, monkeypatch):
        full = graded_dataset(25, 40, 0.2, 6, grade, full_user=True)
        assert full.user_counts[0] == full.n_items
        sparse = graded_dataset(30, 80, 0.02, 5, grade)
        assert np.any(sparse.user_counts == 1)
        for ds in (full, sparse):
            self.assert_pieces_equal_reference(ds, monkeypatch)

    def test_profile_pieces_with_zero_norm_items(self, monkeypatch):
        # items rated 0.0 or -0.0 by everyone have no norm: their cosine
        # scores are 0, written over the dot products in place
        rng = np.random.default_rng(17)
        mask = rng.random((20, 30)) < 0.4
        mask[:, :2] = True
        users, items = np.nonzero(mask)
        values = rng.integers(-4, 5, len(users)) / 2
        values[items == 0] = 0.0
        values[items == 1] = -0.0
        ds = RatingsDataset.build([f"u{u}" for u in range(20)],
                                  [f"i{i}" for i in range(30)],
                                  users, items, values)
        assert similarity._item_pair_scores(ds, "cosine") is not None
        self.assert_pieces_equal_reference(ds, monkeypatch)

    def test_single_user(self):
        ds = build_dataset([("a", "x", 3.0), ("a", "y", 4.5),
                            ("a", "z", 1.0)])
        got, expected = table_and_reference(ds, FeatureConfig(epsilon=0.5),
                                            k=1, l=2)
        assert_same_bits(got, expected)
        assert got[0, 1] == got[0, 3] == got[0, 4] == 0.0

    @pytest.mark.parametrize("grade", ["int", "half", "continuous"])
    def test_two_users(self, grade):
        ds = graded_dataset(2, 6, 0.6, 3, grade)
        assert_same_bits(*table_and_reference(
            ds, FeatureConfig(epsilon=1.5), k=1, l=3))

    def test_one_rating_users_and_single_rater_items(self):
        ds = graded_dataset(30, 80, 0.02, 5)
        assert np.any(ds.user_counts == 1)
        assert np.any(ds.item_counts == 1)
        assert_same_bits(*table_and_reference(ds))

    @pytest.mark.parametrize("grade", ["int", "half", "continuous"])
    def test_user_who_rated_every_item(self, grade):
        ds = graded_dataset(25, 40, 0.2, 6, grade, full_user=True)
        assert ds.user_counts[0] == ds.n_items
        for item_distance in ("cosine", "pearson"):
            assert_same_bits(*table_and_reference(
                ds, FeatureConfig(item_distance=item_distance)))

    @pytest.mark.parametrize("k", [14, 15, 40])
    def test_k_at_least_n_minus_one(self, k):
        ds = graded_dataset(16, 30, 0.3, 7)
        assert_same_bits(*table_and_reference(ds, k=k))

    def test_continuous_ratings(self):
        ds = graded_dataset(40, 90, 0.15, 8, "continuous")
        assert similarity._item_pair_scores(ds, "cosine") is None
        assert_same_bits(*table_and_reference(ds))

    def test_half_stars_over_the_float32_bound(self):
        # n * max|2r|**2 = 30 * 1600**2 passes 2**24: per-profile route
        ds = graded_dataset(30, 60, 0.2, 9, "half", top=800.0)
        assert 30 * (2 * ds.values.max()) ** 2 >= 2 ** 24
        assert similarity._item_pair_scores(ds, "cosine") is None
        assert_same_bits(*table_and_reference(ds))

    def test_half_stars_just_under_the_float32_bound(self):
        # 30 * 740**2 < 2**24: the Gram route with its largest sums
        ds = graded_dataset(30, 60, 0.2, 9, "half", top=370.0)
        assert 30 * (2 * ds.values.max()) ** 2 < 2 ** 24
        assert similarity._item_pair_scores(ds, "cosine") is not None
        assert_same_bits(*table_and_reference(ds))

    @pytest.mark.parametrize("grade", ["int", "half", "continuous"])
    def test_item_pearson(self, grade):
        ds = graded_dataset(35, 70, 0.15, 10, grade)
        assert_same_bits(*table_and_reference(
            ds, FeatureConfig(item_distance="pearson")))

    @pytest.mark.parametrize("grade", ["int", "half", "continuous"])
    def test_cosine_similarity(self, grade):
        ds = graded_dataset(35, 70, 0.15, 11, grade)
        assert_same_bits(*table_and_reference(
            ds, FeatureConfig(similarity="cosine")))

    def test_nmf_lists(self):
        ds = graded_dataset(30, 60, 0.15, 12)
        assert_same_bits(*table_and_reference(ds, algo="nmf"))

    def test_negative_ratings(self):
        ds = graded_dataset(25, 50, 0.2, 13, "half")
        shifted = RatingsDataset.build(ds.user_ids, ds.item_ids,
                                       ds.user_idx, ds.item_idx,
                                       ds.values - 3.0)
        assert_same_bits(*table_and_reference(shifted))

    def test_explicit_epsilon_must_be_positive(self, toy):
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            extract_all(toy, ModelConfig(k=2), 3,
                        FeatureConfig(epsilon=-0.5))


class TestBeta8Routes:
    def test_grid_ratings_form_no_per_profile_product(self, monkeypatch):
        ds = graded_dataset(30, 60, 0.2, 14)
        expected = {kind: table_and_reference(
            ds, FeatureConfig(item_distance=kind))[1]
            for kind in ("cosine", "pearson")}

        def refuse(*args, **kwargs):
            raise AssertionError("per-profile item product")

        monkeypatch.setattr(features, "item_distance_submatrix", refuse)
        for kind, reference in expected.items():
            cfg = FeatureConfig(item_distance=kind)
            table = extract(ds, studied_model(cfg), 5, cfg)
            assert_same_bits(table.values, reference)

    @pytest.mark.parametrize("grade,top", [("continuous", 5.0),
                                           ("half", 800.0)])
    def test_off_grid_ratings_form_no_gram(self, monkeypatch, grade, top):
        ds = graded_dataset(30, 60, 0.2, 15, grade, top=top)
        built, operands = [], []
        real, real_doubled = similarity._item_pair_scores, similarity._doubled

        def spy(data, kind):
            scores = real(data, kind)
            built.append(scores)
            return scores

        def doubled_spy(data, dtype):
            operands.append(dtype)
            return real_doubled(data, dtype)

        monkeypatch.setattr(features, "_item_pair_scores", spy)
        monkeypatch.setattr(similarity, "_doubled", doubled_spy)
        got, expected = table_and_reference(ds)
        assert built == [None]
        # the user kernels may double the ratings in float64; the Gram's
        # float32 operand is never made
        assert np.float32 not in operands
        assert_same_bits(got, expected)


class TestFeatureMemory:
    def test_peak_within_reference_route_plus_item_gram(self):
        # profile-analysis shape: 300 x 600 half stars at 4% density
        ds = graded_dataset(300, 600, 0.04, 16)
        cfg = FeatureConfig()
        mc = studied_model(cfg, k=20)
        model, listed, sims = feature_inputs(ds, cfg, mc, 10)
        lists = [np.flatnonzero(row) for row in listed]

        def reference():
            dists = user_distance_matrix(ds, kind=cfg.user_distance)
            epsilon = resolve_epsilon(ds, cfg, dist_matrix=dists)
            for u in range(ds.n_users):
                neighborhood_density(ds, u, epsilon, dist_matrix=dists)
            del dists
            for u in range(ds.n_users):
                centrality(ds, u, sim_matrix=sims)
                neighborhood_membership(model, u)
                recommendation_overlap(ds, u, lists)
                median_item_popularity(ds, u)
                centroid_similarity(ds, u)
                intra_profile_distance(ds, u)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def batched():
            extract_all(ds, mc, 10, cfg)

        # a first call may import modules lazily, which both routes would
        # otherwise count (no stage imports numpy.ma: see test_imports)
        batched()
        limit = peak(reference) + ds.n_items ** 2 * 4
        assert peak(batched) <= limit


def with_values(ds, values):
    """``ds`` with its ratings replaced by ``values``, in rating order."""
    return RatingsDataset.build(ds.user_ids, ds.item_ids, ds.user_idx,
                                ds.item_idx, values)


def shifted(ds, by):
    """``ds`` with every rating lowered by ``by``."""
    return with_values(ds, ds.values - by)


def half_star_means_dataset():
    """Integer ratings with one or two raters per item, so every item mean
    is a multiple of 0.5."""
    rng = np.random.default_rng(21)
    rows = [(f"u{u:02d}", f"i{i:02d}", float(rng.integers(1, 6)))
            for i in range(60)
            for u in rng.choice(15, size=rng.integers(1, 3), replace=False)]
    return build_dataset(rows)


def constant_profiles_dataset():
    """Every third user rates all of its items alike."""
    ds = graded_dataset(30, 50, 0.2, 22, "half")
    values = ds.values.copy()
    flat = ds.user_idx % 3 == 0
    values[flat] = 1.0 + ds.user_idx[flat] % 5
    return with_values(ds, values)


CENTROID_DATASETS = {
    "half_star_means": half_star_means_dataset,
    "off_grid": lambda: graded_dataset(30, 60, 0.15, 23, "continuous"),
    "one_item_profiles": lambda: graded_dataset(40, 60, 0.02, 5),
    "constant_profiles": constant_profiles_dataset,
    "negative_half_stars": lambda: shifted(
        graded_dataset(25, 50, 0.2, 24, "half"), 3.0),
    "negative_off_grid": lambda: shifted(
        graded_dataset(25, 50, 0.2, 25, "continuous"), 3.5),
}


class TestCentroidColumn:
    """beta7 from ``extract_all`` (paired (users, t) rows through
    ``similarity._sums_against``) against ``oracles.centroid_similarity``,
    which scores one user at a time through ``similarity._similarity_loop``."""

    @staticmethod
    def column(ds, kind):
        cfg = FeatureConfig(similarity=kind, epsilon=0.5)
        return extract(ds, studied_model(cfg, k=1), 1, cfg).values[:, 6]

    @staticmethod
    def reference(ds, kind):
        return np.array([centroid_similarity(ds, u, kind)
                         for u in range(ds.n_users)])

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    @pytest.mark.parametrize("name", sorted(CENTROID_DATASETS))
    def test_equals_one_user_reference(self, name, kind):
        ds = CENTROID_DATASETS[name]()
        got, want = self.column(ds, kind), self.reference(ds, kind)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_cases_cover_their_edges(self):
        data = {name: make() for name, make in CENTROID_DATASETS.items()}
        assert np.any(data["one_item_profiles"].user_counts == 1)
        assert np.any(data["constant_profiles"].user_counts > 1)
        for name in ("negative_half_stars", "negative_off_grid"):
            assert data[name].values.min() < 0
        ds = data["off_grid"]
        assert not similarity._on_half_grid(ds.item_sums / ds.item_counts)
        ds = data["half_star_means"]
        assert similarity._on_half_grid(ds.item_sums / ds.item_counts)

    @pytest.mark.parametrize("kind", ["pearson", "cosine"])
    def test_half_star_means_reference_takes_the_products_path(
            self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("row loop taken")

        ds = half_star_means_dataset()
        monkeypatch.setattr(similarity, "_similarity_loop", refuse)
        got, want = self.column(ds, kind), self.reference(ds, kind)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_unknown_kind_refused(self, toy):
        cfg = FeatureConfig(epsilon=0.5)
        with pytest.raises(ValueError, match="unknown similarity"):
            extract_all(toy, studied_model(cfg), 5,
                        FeatureConfig(similarity="foo", epsilon=0.5))


class TestItemCosineDistances:
    @pytest.mark.parametrize("grade", ["int", "half", "continuous"])
    def test_equals_literal_formula(self, grade):
        ds = graded_dataset(30, 45, 0.2, 26, grade)
        for items in (np.arange(ds.n_items), ds.user_items(0),
                      np.array([3, 3, 7])):
            got = item_distance_submatrix(ds, items)
            want = oracles.item_cosine_distances(ds, items)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rating_less_item_is_at_distance_one(self):
        ds = graded_dataset(12, 20, 0.3, 27)
        keep = ds.item_idx != 4
        cut = RatingsDataset.build(ds.user_ids, ds.item_ids,
                                   ds.user_idx[keep], ds.item_idx[keep],
                                   ds.values[keep])
        got = item_distance_submatrix(cut, np.arange(6))
        want = oracles.item_cosine_distances(cut, np.arange(6))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(got[4, np.arange(6) != 4] == 1.0)


def same_float(a, b) -> bool:
    """Equal bits, so +0.0 and -0.0 differ."""
    return bool(np.float64(a).view(np.int64) == np.float64(b).view(np.int64))


class TestEpsilonQuantile:
    """``features._quantile`` against ``np.quantile``, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_np_quantile(self, seed):
        rng = np.random.default_rng(seed)
        for values in order_statistic_arrays(seed):
            for q in (0.0, 0.25, 0.5, 1.0, *rng.random(4)):
                want = np.quantile(values, q)
                assert same_float(features._quantile(values, q), want), \
                    (values.tolist(), q)

    def test_integer_quantile_from_a_config_file(self):
        # a config file's "features.epsilon_quantile = 1" reads as int 1
        values = np.array([0.5, 0.25, 1.5, 0.75])
        for q in (0, 1):
            assert same_float(features._quantile(values, q),
                              np.quantile(values, float(q)))

    def test_leaves_its_input_alone(self):
        values = np.array([3.0, -0.0, 1.0, 0.0, 2.0])
        features._quantile(values, 0.3)
        assert values.tolist() == [3.0, -0.0, 1.0, 0.0, 2.0]

    @pytest.mark.parametrize("q", [-0.1, 1.5, float("nan")])
    def test_out_of_range_refused(self, q):
        with pytest.raises(ValueError, match="range"):
            features._quantile(np.arange(4.0), q)
