import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recinfluence import influence, recommender
from recinfluence.data import DatasetError, RatingsDataset, drop_user
from recinfluence.influence import (LeaveOneOutEngine, group_influence,
                                    influence_all, influence_oracle,
                                    jaccard_distance)
from recinfluence.recommender import (ModelConfig, NmfModel, TrainingError,
                                      continue_nmf, predict_knn, top_items,
                                      train_knn)

import oracles
from conftest import (build_dataset, clone_users_dataset, hub_dataset,
                      mutual_disruption_dataset, random_dataset, toy_dataset)
from oracles import prediction_shift_oracle

KNN2 = ModelConfig("knn", k=2, similarity="pearson")
FLAKY_NMF = ModelConfig("nmf", factors=2, seed=1, n_iters=20)
_real_train = ModelConfig.train


def flaky_train(self, ds):
    """Stands in for ModelConfig.train: the toy's removal of u3 diverges."""
    if ds.n_users == 4 and "u3" not in ds.user_ids:
        raise TrainingError("synthetic divergence")
    return _real_train(self, ds)


def isolated_user_dataset():
    """Clique c1..c3 plus a user z with no co-rated items and low-rated
    exclusive items that never crack a top list."""
    rows = []
    for c in ("c1", "c2", "c3"):
        rows += [(c, "s1", 5.0), (c, "s2", 4.0), (c, "s3", 3.0),
                 (c, "s4", 2.0)]
    rows += [("c2", "x1", 5.0), ("c3", "x1", 5.0),
             ("c1", "x2", 5.0), ("c3", "x2", 5.0),
             ("c1", "x3", 5.0), ("c2", "x3", 5.0),
             ("z", "z1", 1.0), ("z", "z2", 1.0)]
    return build_dataset(rows)


class TestJaccardDistance:
    def test_identical_nonempty(self):
        assert jaccard_distance({1, 2, 3}, {1, 2, 3}) == 0.0

    def test_disjoint_nonempty(self):
        assert jaccard_distance({1, 2}, {3, 4}) == 1.0

    def test_both_empty(self):
        assert jaccard_distance(set(), set()) == 0.0

    def test_half_overlap_of_ten(self):
        a = set(range(10))
        b = set(range(5, 15))
        assert jaccard_distance(a, b) == pytest.approx(1 - 5 / 15)

    @given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
    def test_bounds_symmetry_identity(self, a, b):
        d = jaccard_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == jaccard_distance(b, a)
        assert (d == 0.0) == (a == b)


class TestInfluenceOracle:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_toy_knn_matches_independent_replay(self, toy, l):
        for u in range(5):
            expected = oracles.knn_loo_influence(toy, u, k=2, l=l)
            assert influence_oracle(toy, KNN2, u, l) == \
                pytest.approx(expected, abs=1e-12)

    def test_toy_knn_l1_frozen_values(self, toy):
        # Frozen from the replay oracle above.
        got = [influence_oracle(toy, KNN2, u, 1) for u in range(5)]
        assert got == [2.0, 2.0, 2.0, 1.0, 3.0]

    def test_no_op_removal_on_identical_users(self):
        ds = clone_users_dataset(n_users=5, n_items=8, seed=3)
        cfg = ModelConfig("knn", k=3)
        for u in range(5):
            assert influence_oracle(ds, cfg, u, 3) == 0.0

    def test_clone_pair_carries_identical_information(self):
        rows = []
        for u in ("A", "A2"):
            rows += [(u, "a1", 5.0), (u, "a2", 4.0), (u, "a3", 3.0)]
        rows += [("B", "b1", 4.0), ("B", "b2", 2.0),
                 ("C", "c1", 5.0), ("C", "c2", 1.0)]
        ds = build_dataset(rows)
        a = list(ds.user_ids).index("A")
        assert influence_oracle(ds, ModelConfig("knn", k=2), a, 2) == 0.0

    def test_bad_user_index(self, toy):
        with pytest.raises(ValueError):
            influence_oracle(toy, KNN2, 9, 2)


class TestInfluenceAll:
    @pytest.mark.parametrize("cfg", [
        KNN2,
        ModelConfig("knn", k=2, similarity="cosine"),
        ModelConfig("nmf", factors=2, seed=42, n_iters=100),
    ])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_equals_oracle_bit_for_bit_on_toy(self, toy, cfg, l):
        report = influence_all(toy, cfg, l)
        for u in range(5):
            assert float(report.influence[u]) == \
                influence_oracle(toy, cfg, u, l)

    def test_equals_oracle_on_random_data(self):
        ds = random_dataset(15, 30, 0.15, seed=9)
        for cfg in (ModelConfig("knn", k=4),
                    ModelConfig("nmf", factors=3, seed=5, n_iters=40)):
            report = influence_all(ds, cfg, 5)
            for u in range(ds.n_users):
                assert float(report.influence[u]) == \
                    influence_oracle(ds, cfg, u, 5)

    def test_identical_users_equal_influence(self):
        ds = clone_users_dataset(n_users=6, n_items=10, seed=1)
        report = influence_all(ds, ModelConfig("knn", k=2), 3)
        assert len(set(report.influence.tolist())) == 1

    def test_bounds_and_ranking_permutation(self):
        ds = random_dataset(12, 25, 0.2, seed=2)
        report = influence_all(ds, ModelConfig("knn", k=3), 4)
        assert np.all(report.influence >= 0)
        assert np.all(report.influence <= ds.n_users - 1)
        assert sorted(report.ranking.tolist()) == list(range(12))
        ranked = report.influence[report.ranking]
        assert np.all(np.diff(ranked) <= 0)

    def test_per_user_failure_isolation(self, toy, monkeypatch):
        monkeypatch.setattr(ModelConfig, "train", flaky_train)
        report = influence_all(toy, FLAKY_NMF, 2)
        assert report.failures == (2,)
        assert np.isnan(report.influence[2])
        assert np.isfinite(np.delete(report.influence, 2)).all()
        assert report.ranking[-1] == 2
        assert np.isnan(report.row(2)).all()
        assert not report.inter[2].any() and not report.union[2].any()
        for u in (0, 1, 3, 4):
            assert np.isfinite(report.row(u)).all()

    def test_non_finite_objective_is_a_failure(self):
        # One rating just above sqrt(max float): its squared residual
        # overflows in the starting objective of the fits without u3 and
        # without u4, but not in the full fit or the other removals'.
        big = np.sqrt(np.finfo(float).max) * 1.01
        rows = [("h", "a", big), ("h", "b", 3.0)]
        for u in range(5):
            rows += [(f"u{u}", item, float(1 + (u + j) % 5))
                     for j, item in enumerate("abcd"[:2 + u % 3])]
        ds = build_dataset(rows)
        cfg = ModelConfig("nmf", factors=1, seed=1, n_iters=5)
        with np.errstate(over="ignore", invalid="ignore"):
            report = influence_all(ds, cfg, 2)
        failed = (ds.user_ids.index("u3"), ds.user_ids.index("u4"))
        assert report.failures == failed
        assert np.isnan(report.influence[list(failed)]).all()
        assert np.isfinite(np.delete(report.influence, failed)).all()

    def test_warm_start_mode_runs(self, toy):
        cfg = ModelConfig("nmf", factors=2, seed=4, n_iters=60)
        report = influence_all(toy, cfg, 2, warm_start=True, warm_iters=10)
        assert np.isfinite(report.influence).all()
        assert np.all(report.influence >= 0)


class TestGroupInfluence:
    def test_theta_and_topk_monotonicity(self, toy):
        thetas = tuple(np.arange(1, 10) / 10)
        prev = None
        report = influence_all(toy, KNN2, 2)
        for top_k in (1, 2, 3):
            curve = group_influence(report, top_k, thresholds=thetas)
            fr = np.array(curve.influenced_fraction)
            assert np.all(np.diff(fr) <= 0)
            assert np.all((fr >= 0) & (fr <= 1))
            if prev is not None:
                assert np.all(fr >= prev)
            prev = fr

    def test_toy_top1_matches_pairwise_enumeration(self, toy):
        report = influence_all(toy, KNN2, 2)
        engine = LeaveOneOutEngine(toy, KNN2, 2)
        top = int(report.ranking[0])
        dists = engine.distances_without(top)
        # oracle: enumerate the (u in T, v) pairs by replay
        for v in range(5):
            if v == top:
                continue
            expected = oracles.jaccard_dist(
                oracles.knn_top_l(toy, v, 2, 2),
                oracles.knn_top_l(oracles.drop_user_keep_items(toy, top),
                                  v if v < top else v - 1, 2, 2))
            assert dists[v] == pytest.approx(expected, abs=1e-12)
        curve = group_influence(report, 1, thresholds=(0.5,))
        expected_count = sum(1 for v in range(5) if dists[v] >= 0.5)
        assert curve.influenced_fraction[0] == expected_count / 5

    def test_unique_counting_two_tops_influencing_everyone(self):
        ds = mutual_disruption_dataset()
        cfg = ModelConfig("knn", k=1)
        report = influence_all(ds, cfg, 4)
        assert np.allclose(report.influence, 4 / 3)
        curve = group_influence(report, 2, thresholds=(0.1, 0.3, 0.5, 0.9))
        assert curve.influenced_fraction == (1.0, 1.0, 1.0, 0.0)

    def test_theta_zero_is_maximal(self, toy):
        report = influence_all(toy, KNN2, 2)
        curve = group_influence(report, 2, thresholds=(0.0, 0.2, 0.5))
        assert curve.influenced_fraction[0] == \
            max(curve.influenced_fraction)

    def test_top_k_out_of_range(self, toy):
        report = influence_all(toy, KNN2, 2)
        with pytest.raises(ValueError):
            group_influence(report, 6)

    @pytest.mark.parametrize("data,cfg,l,warm", [
        ("toy", KNN2, 2, False),
        ("toy", ModelConfig("nmf", factors=2, seed=4, n_iters=60), 2, False),
        ("toy", ModelConfig("nmf", factors=2, seed=4, n_iters=60), 2, True),
        (100, ModelConfig("knn", k=5), 10, False),
        (101, ModelConfig("knn", k=5), 10, False),
        (102, ModelConfig("nmf", factors=3, seed=11, n_iters=30), 10, False),
    ], ids=["toy-knn", "toy-nmf", "toy-nmf-warm", "suite100-knn",
            "suite101-knn", "suite102-nmf"])
    def test_stored_rows_equal_fresh_removals(self, toy, data, cfg, l, warm):
        # the random-suite datasets of the acceptance tests
        ds = toy if data == "toy" else random_dataset(50, 100, 0.10,
                                                      seed=data)
        report = influence_all(ds, cfg, l, warm_start=warm, warm_iters=10)
        engine = LeaveOneOutEngine(ds, cfg, l, warm_start=warm,
                                   warm_iters=10)
        fresh = np.array([engine.distances_without(u)
                          for u in range(ds.n_users)])
        for u in range(ds.n_users):
            assert np.array_equal(report.row(u), fresh[u])
        thetas = (0.0, 0.1, 0.5, 0.9, 1.0)
        for top_k in (1, 2, 3, ds.n_users):
            best = fresh[report.ranking[:top_k]].max(axis=0)
            expected = tuple(np.count_nonzero(best >= t) / ds.n_users
                             for t in thetas)
            curve = group_influence(report, top_k, thresholds=thetas)
            assert curve.influenced_fraction == expected

    def test_failed_removal_in_top_set_raises(self, toy, monkeypatch):
        monkeypatch.setattr(ModelConfig, "train", flaky_train)
        report = influence_all(toy, FLAKY_NMF, 2)
        group_influence(report, toy.n_users - 1)   # failure ranks last
        with pytest.raises(TrainingError):
            group_influence(report, toy.n_users)


def swap_dataset(l):
    """v's only neighbor (k = 1) u alone rates 2l items, all at 5, which
    fill v's top-l list; w rates 2l other items at 1. Removing u takes u's
    items out of the candidates and makes w v's neighbor, so v's list is
    replaced whole: intersection 0, union 2l."""
    shared = [5.0, 4.0, 3.0, 2.0, 1.0]
    rows = []
    for user, pattern in (("v", shared), ("u", shared),
                          ("w", [5.0, 4.0, 3.0, 1.0, 2.0])):
        rows += [(user, f"s{j}", r) for j, r in enumerate(pattern)]
    rows += [("u", f"a{j:03d}", 5.0) for j in range(2 * l)]
    rows += [("w", f"b{j:03d}", 1.0) for j in range(2 * l)]
    return build_dataset(rows)


COUNT_CONFIGS = [
    (KNN2, False),
    (ModelConfig("knn", k=3, similarity="cosine"), False),
    (ModelConfig("nmf", factors=3, seed=5, n_iters=30), False),
    (ModelConfig("nmf", factors=3, seed=5, n_iters=30), True),
]


class TestCountLayout:
    @pytest.mark.parametrize("cfg,warm", COUNT_CONFIGS,
                             ids=["knn-pearson", "knn-cosine", "nmf",
                                  "nmf-warm"])
    def test_rows_equal_engine_rows(self, cfg, warm):
        ds = random_dataset(24, 60, 0.15, seed=8)
        report = influence_all(ds, cfg, 4, warm_start=warm, warm_iters=10)
        engine = LeaveOneOutEngine(ds, cfg, 4, warm_start=warm,
                                   warm_iters=10)
        # stale counts in the buffer are overwritten, rebuilt or not
        counts = np.full((2, ds.n_users), 7, np.uint8)
        for u in range(ds.n_users):
            row = engine.distances_without(u, counts)
            assert np.array_equal(report.row(u).view(np.int64),
                                  row.view(np.int64))
            assert np.array_equal(counts[0], report.inter[u])
            assert np.array_equal(counts[1], report.union[u])
            assert report.influence[u] == np.sum(row)
        assert report.inter.dtype == report.union.dtype == np.uint8

    @pytest.mark.parametrize("l,dtype", [(127, np.uint8), (128, np.uint16)])
    def test_rows_equal_engine_rows_at_the_dtype_edge(self, l, dtype):
        ds = swap_dataset(l)
        cfg = ModelConfig("knn", k=1)
        report = influence_all(ds, cfg, l)
        assert report.inter.dtype == report.union.dtype == dtype
        v, u = ds.user_ids.index("v"), ds.user_ids.index("u")
        assert report.inter[u, v] == 0
        assert report.union[u, v] == 2 * l
        assert report.row(u)[v] == 1.0
        engine = LeaveOneOutEngine(ds, cfg, l)
        for x in range(ds.n_users):
            assert np.array_equal(report.row(x).view(np.int64),
                                  engine.distances_without(x).view(np.int64))

    @pytest.mark.parametrize("l", [3, 128])
    def test_counts_take_two_n_squared_itemsize_bytes(self, l):
        ds = random_dataset(20, 300, 0.2, seed=4)
        report = influence_all(ds, ModelConfig("knn", k=3), l)
        n, itemsize = ds.n_users, np.min_scalar_type(2 * l).itemsize
        for counts in (report.inter, report.union):
            assert counts.shape == (n, n)
            assert counts.dtype.kind == "u"
            assert not counts.flags.writeable
        assert report.inter.nbytes + report.union.nbytes == \
            2 * n * n * itemsize


class TestPredictionShift:
    def test_no_op_removal_is_zero(self):
        ds = clone_users_dataset(n_users=5, n_items=8, seed=2)
        assert prediction_shift_oracle(ds, ModelConfig("knn", k=3), 0) == 0.0

    def test_toy_matches_direct_replay(self, toy):
        u = 0
        got = prediction_shift_oracle(toy, KNN2, u)
        reduced = oracles.drop_user_keep_items(toy, u)
        mask = toy.mask
        diffs = []
        for v in range(5):
            if v == u:
                continue
            v_red = v if v < u else v - 1
            for i in range(6):
                if mask[v, i]:
                    continue
                before = oracles.knn_predict(toy, v, i, 2)
                after = oracles.knn_predict(reduced, v_red, i, 2)
                diffs.append(abs(before - after))
        assert got == pytest.approx(np.mean(diffs), abs=1e-12)

    def test_shift_without_list_influence(self):
        # z shifts scores only on items that never enter anyone's list.
        ds = isolated_user_dataset()
        cfg = ModelConfig("knn", k=2)
        z = list(ds.user_ids).index("z")
        assert influence_oracle(ds, cfg, z, 1) == 0.0
        assert prediction_shift_oracle(ds, cfg, z) > 0.1


class TestEngineInternals:
    def test_reduced_lists_live_in_original_item_space(self, toy):
        engine = LeaveOneOutEngine(toy, KNN2, 2)
        reduced = drop_user(toy, 0)
        model = engine.config.train(reduced)
        for v_red in range(4):
            items = top_items(model, v_red, 2)
            assert set(items) <= set(range(6))
            assert not set(items) & set(reduced.user_items(v_red).tolist())

    def test_empty_only_rater_items_excluded(self):
        rows = [("a", "only", 5.0), ("a", "shared", 3.0),
                ("b", "shared", 4.0), ("b", "other", 2.0),
                ("c", "other", 4.0), ("c", "shared", 5.0)]
        ds = build_dataset(rows)
        engine = LeaveOneOutEngine(ds, ModelConfig("knn", k=1), 3)
        a = list(ds.user_ids).index("a")
        model = engine.config.train(drop_user(ds, a))
        only = list(ds.item_ids).index("only")
        for v_red in range(2):
            assert only not in top_items(model, v_red, 3)

    @pytest.mark.parametrize("cfg", [KNN2, FLAKY_NMF], ids=["knn", "nmf"])
    def test_only_user_cannot_be_removed(self, cfg):
        ds = build_dataset([("a", "x", 5.0), ("a", "y", 3.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            engine = LeaveOneOutEngine(ds, cfg, 2)
        with pytest.raises(DatasetError):
            engine.distances_without(0)

    def test_k_warnings_come_from_the_full_model_only(self):
        ds = random_dataset(10, 20, 0.3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            influence_all(ds, ModelConfig("knn", k=9), 3)
        with pytest.warns(UserWarning) as caught:
            influence_all(ds, ModelConfig("knn", k=10), 3)
        assert len(caught) == 1


class TestOneNeighborSort:
    """A kNN engine sorts its similarities once and keeps no n x n array."""

    @pytest.mark.parametrize("k", [1, 3, 10, 11, 15])
    def test_one_sort_per_knn_engine(self, k, monkeypatch):
        calls = []
        real = recommender._neighbor_order

        def counting(sim, depth):
            calls.append(depth)
            return real(sim, depth)

        for module in (recommender, influence):
            monkeypatch.setattr(module, "_neighbor_order", counting)
        ds = random_dataset(12, 20, 0.3, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for _ in range(2):
                LeaveOneOutEngine(ds, ModelConfig("knn", k=k), 3)
        assert calls == [min(k + 1, 11)] * 2

    @pytest.mark.parametrize("cfg", [KNN2, ModelConfig("knn", k=11),
                                     FLAKY_NMF], ids=["knn", "knn_all",
                                                      "nmf"])
    def test_no_user_by_user_float_array_is_kept(self, cfg):
        ds = random_dataset(12, 20, 0.3, seed=3)
        n = ds.n_users
        engine = LeaveOneOutEngine(ds, cfg, 3)
        engine.distances_without(4)
        assert not hasattr(engine, "sim")
        report = influence_all(ds, cfg, 3)
        for obj in (engine, engine.full_model, report):
            for name, value in vars(obj).items():
                if isinstance(value, np.ndarray):
                    assert not (value.shape == (n, n)
                                and value.dtype.kind == "f"), name


def single_rater_dataset():
    """u is the only rater of "solo"; a's only neighbor (k=1) is b, and a's
    fallback mean for "solo" tops a's list."""
    rows = [("a", "x1", 5.0), ("a", "x2", 4.0), ("a", "x3", 1.0),
            ("b", "x1", 5.0), ("b", "x2", 4.0), ("b", "x3", 2.0),
            ("b", "y", 3.0),
            ("c", "x1", 1.0), ("c", "x2", 2.0), ("c", "x3", 5.0),
            ("c", "z", 2.0),
            ("u", "x1", 1.0), ("u", "x2", 1.0), ("u", "x3", 5.0),
            ("u", "solo", 5.0)]
    return build_dataset(rows)


def sparse_dataset(seed, n_users=12, n_items=30):
    """Profiles of one to five items, so many items have a single rater."""
    rng = np.random.default_rng(seed)
    rows = [(f"u{u:02d}", f"i{i:02d}", float(rng.integers(1, 6)))
            for u in range(n_users)
            for i in rng.choice(n_items, size=rng.integers(1, 6),
                                replace=False)]
    return build_dataset(rows)


def rebuilt_row(engine, u):
    """Reference row: every other user's list from a from-scratch retrain
    on the reduced data, plus the users whose list changed."""
    model = engine.config.train(drop_user(engine.ds, u))
    row = np.zeros(engine.ds.n_users)
    changed = set()
    for v_red in range(engine.ds.n_users - 1):
        v = v_red if v_red < u else v_red + 1
        before = frozenset(int(i) for i in
                           top_items(engine.full_model, v, engine.l))
        after = frozenset(int(i) for i in top_items(model, v_red, engine.l))
        row[v] = jaccard_distance(before, after)
        if after != before:
            changed.add(v)
    return row, changed


def check_delta_rows(ds, cfg, l):
    engine = LeaveOneOutEngine(ds, cfg, l)
    n = ds.n_users
    for u in range(n):
        expected, changed = rebuilt_row(engine, u)
        row = engine.distances_without(u)
        assert np.array_equal(row, expected)
        flagged = engine._flagged(u, engine._means_without(u))
        assert not flagged[u]
        assert changed <= set(np.flatnonzero(flagged).tolist())
        if cfg.k >= n - 1:
            assert row[u] == 0.0


def two_user_dataset():
    """Removing either user leaves a model with no neighbors at all."""
    rows = [("a", "x", 5.0), ("a", "y", 2.0), ("a", "z", 4.0),
            ("b", "x", 4.0), ("b", "w", 3.0), ("b", "v", 1.0)]
    return build_dataset(rows)


def dense_dataset():
    """u0 rated every item, so its candidate row is empty; each other user
    skips one to three items, so every list is shorter than l = 4."""
    rng = np.random.default_rng(4)
    rows = [("u0", f"i{i}", float(rng.integers(1, 6))) for i in range(6)]
    for u in range(1, 7):
        skip = rng.choice(6, size=rng.integers(1, 4), replace=False)
        rows += [(f"u{u}", f"i{i}", float(rng.integers(1, 6)))
                 for i in range(6) if i not in skip]
    return build_dataset(rows)


def off_grid_dataset(seed=0, n_users=12, n_items=25, density=0.3):
    """Ratings off the half-star grid, so sums depend on their order."""
    ds = random_dataset(n_users, n_items, density, seed=seed)
    values = np.random.default_rng(seed).uniform(1.0, 5.0, ds.n_ratings)
    return RatingsDataset.build(ds.user_ids, ds.item_ids, ds.user_idx,
                                ds.item_idx, values, r_min=1.0, r_max=5.0)


DELTA_DATASETS = {
    "two-users": two_user_dataset,
    "dense": dense_dataset,
    "off-grid": off_grid_dataset,
    "toy": toy_dataset,
    "clones": lambda: clone_users_dataset(n_users=6, n_items=8, seed=3),
    "mutual": mutual_disruption_dataset,
    "hub": lambda: hub_dataset(20, 40, seed=1),
    "single-rater": single_rater_dataset,
    "random3": lambda: random_dataset(15, 30, 0.15, seed=3),
    "random7": lambda: random_dataset(15, 30, 0.15, seed=7),
    "sparse0": lambda: sparse_dataset(0),
    "sparse1": lambda: sparse_dataset(1),
}


class TestDeltaEngine:
    @pytest.mark.parametrize("name", sorted(DELTA_DATASETS))
    @pytest.mark.parametrize("similarity", ["pearson", "cosine"])
    def test_rows_equal_full_rebuild(self, name, similarity):
        ds = DELTA_DATASETS[name]()
        n = ds.n_users
        for k in (1, 3, 20, n - 1, n + 5):
            for l in (1, 4, 10):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    check_delta_rows(ds, ModelConfig(
                        "knn", k=k, similarity=similarity), l)

    @settings(max_examples=30, deadline=None)
    @given(n_users=st.integers(3, 9), n_items=st.integers(2, 12),
           density=st.floats(0.05, 0.6), seed=st.integers(0, 10_000),
           k=st.integers(1, 10), l=st.integers(1, 6),
           similarity=st.sampled_from(["pearson", "cosine"]))
    def test_rows_equal_full_rebuild_on_random_data(self, n_users, n_items,
                                                    density, seed, k, l,
                                                    similarity):
        ds = random_dataset(n_users, n_items, density, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            check_delta_rows(ds, ModelConfig("knn", k=k,
                                             similarity=similarity), l)

    def test_only_rater_item_in_list_flags_user(self):
        ds = single_rater_dataset()
        a, u = list(ds.user_ids).index("a"), list(ds.user_ids).index("u")
        solo = list(ds.item_ids).index("solo")
        engine = LeaveOneOutEngine(ds, ModelConfig("knn", k=1), 1)
        assert u not in engine.full_model.neighbors[a]
        assert set(np.flatnonzero(engine.full_lists[a])) == {solo}
        assert engine._flagged(u, engine._means_without(u))[a]
        assert engine.distances_without(u)[a] == 1.0

    def test_rebuilds_fewer_lists_than_full_pass(self, monkeypatch):
        ds = random_dataset(60, 200, 0.03, seed=0)
        n = ds.n_users
        built = []
        real = recommender._top_lists

        def counting_top_lists(scores, cand, l):
            built.append(len(scores))
            return real(scores, cand, l)

        knn = LeaveOneOutEngine(ds, ModelConfig("knn", k=5), 10)
        nmf = LeaveOneOutEngine(ds, ModelConfig("nmf", factors=3, seed=1,
                                                n_iters=10), 10)
        monkeypatch.setattr(recommender, "_top_lists", counting_top_lists)
        for u in range(n):
            knn.distances_without(u)
        assert 0 < sum(built) < n * (n - 1)
        assert knn.lists_rebuilt == sum(built)
        built.clear()
        for u in range(3):
            nmf.distances_without(u)
        assert sum(built) == nmf.lists_rebuilt == 3 * (n - 1)

    def test_report_counts_rebuilt_lists_outside_meta(self, toy):
        report = influence_all(toy, ModelConfig("knn", k=1), 2)
        assert 0 < report.lists_rebuilt <= 5 * 4
        assert "lists_rebuilt" not in report.to_meta()
        nmf = influence_all(toy, FLAKY_NMF, 2)
        assert nmf.lists_rebuilt == 5 * 4

    def test_report_counts_nmf_iterations_outside_meta(self):
        # nmf-loo's model settings on smaller data: 8 factors, 40
        # iterations and the default rel_tol run every retrain to the end
        ds = random_dataset(20, 40, 0.1, seed=2)
        report = influence_all(ds, ModelConfig("nmf", factors=8, seed=1,
                                               n_iters=40), 10)
        assert not report.failures
        assert report.nmf_iters == 20 * 40
        assert report.nmf_early_stops == 0
        meta = report.to_meta()
        assert "nmf_iters" not in meta and "nmf_early_stops" not in meta
        warm = influence_all(ds, ModelConfig("nmf", factors=8, seed=1,
                                             n_iters=40), 10,
                             warm_start=True, warm_iters=6)
        assert (warm.nmf_iters, warm.nmf_early_stops) == (20 * 6, 0)
        knn = influence_all(ds, KNN2, 10)
        assert (knn.nmf_iters, knn.nmf_early_stops) == (0, 0)

    def test_report_counts_early_stops(self):
        ds = random_dataset(12, 30, 0.15, seed=4)
        cfg = ModelConfig("nmf", factors=3, seed=2, n_iters=500, rel_tol=1e-3)
        report = influence_all(ds, cfg, 5)
        engine = LeaveOneOutEngine(ds, cfg, 5)
        lengths = [len(engine._retrain(u).objective_history) - 1
                   for u in range(ds.n_users)]
        assert report.nmf_iters == sum(lengths)
        assert report.nmf_early_stops == sum(n < 500 for n in lengths) > 0


def item_sets(rng, rows, m):
    a = np.zeros((rows, m), dtype=bool)
    for r in range(rows):
        a[r, rng.choice(m, size=rng.integers(0, 11), replace=False)] = True
    return a


class TestOnePassParts:
    """Each part of the engine's kNN delta and list builder against the
    from-scratch route it replaces, bit for bit."""

    @pytest.mark.parametrize("name", sorted(DELTA_DATASETS))
    @pytest.mark.parametrize("similarity", ["pearson", "cosine"])
    def test_reduced_neighbors_and_means_equal_retrain(self, name,
                                                       similarity):
        ds = DELTA_DATASETS[name]()
        n = ds.n_users
        for k in sorted({1, 3, n - 1, n + 5}):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                engine = LeaveOneOutEngine(ds, ModelConfig(
                    "knn", k=k, similarity=similarity), 4)
                for u in range(n):
                    model = train_knn(drop_user(ds, u), k, similarity)
                    nbrs, sims = engine._reduced_neighbors(
                        np.delete(np.arange(n), u), u)
                    assert np.array_equal(nbrs - (nbrs > u), model.neighbors)
                    assert np.array_equal(sims, model.neighbor_sims)
                    items = ds.user_items(u)
                    means = engine._means_without(u)
                    kept = model.dataset.item_counts[items] > 0
                    assert np.array_equal(means[kept],
                                          model.item_means[items[kept]])
                    assert np.all(means[~kept] == -np.inf)

    @pytest.mark.parametrize("name", sorted(DELTA_DATASETS))
    def test_block_scores_equal_scores_for(self, name):
        # one score_rows block against each row scored alone
        ds = DELTA_DATASETS[name]()
        nmf = ModelConfig("nmf", factors=2, seed=3, n_iters=20)
        for model in (train_knn(ds, min(3, ds.n_users - 1)), nmf.train(ds)):
            out = np.empty((ds.n_users, ds.n_items))
            model.score_rows(np.arange(ds.n_users), out)
            expected = np.array([model.scores_for(v)
                                 for v in range(ds.n_users)])
            assert np.array_equal(out.view(np.int64),
                                  expected.view(np.int64))

    @pytest.mark.parametrize("n,m,f", [(2, 7, 3), (9, 1, 2), (12, 15, 1),
                                       (40, 60, 8), (3, 200, 11)])
    def test_stacked_nmf_scores_equal_scores_for(self, n, m, f):
        ds = random_dataset(n, m, 0.3, seed=n + m + f)
        rng = np.random.default_rng(f)
        model = NmfModel(ds, f, 0, 1, True, rng.random((n, f)),
                         rng.random((m, f)), (0.0,))
        rows = rng.permutation(n)[:max(1, n - 1)]
        out = np.empty((len(rows), m))
        model.score_rows(rows, out)
        expected = np.array([model.p[v] @ model.q.T for v in rows])
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("name", sorted(DELTA_DATASETS))
    def test_one_pass_lists_equal_top_items(self, name):
        ds = DELTA_DATASETS[name]()
        nmf = ModelConfig("nmf", factors=2, seed=3, n_iters=20)
        full = nmf.train(ds)
        warm = continue_nmf(drop_user(ds, 0), np.delete(full.p, 0, axis=0),
                            full.q, nmf.seed, 5)
        for model in (train_knn(ds, min(3, ds.n_users - 1)), full, warm):
            mask = model.dataset.mask
            cand = ~mask & (model.dataset.item_counts > 0)
            scores = np.array([model.scores_for(v)
                               for v in range(len(mask))])
            for l in (1, 4, 10):
                lists, thr = recommender._top_lists(scores.copy(), cand, l)
                for v in range(len(mask)):
                    expected = top_items(model, v, l)
                    assert np.array_equal(np.flatnonzero(lists[v]),
                                          np.sort(expected))
                    short = len(expected) < l
                    assert thr[v] == (-np.inf if short
                                      else scores[v, expected[-1]])

    @pytest.mark.parametrize("algorithm", ["knn", "nmf"])
    @pytest.mark.parametrize("name", sorted(DELTA_DATASETS))
    def test_engine_full_lists_equal_top_items(self, name, algorithm):
        ds = DELTA_DATASETS[name]()
        cfg = ModelConfig(algorithm, k=min(3, ds.n_users - 1), factors=2,
                          seed=3, n_iters=20)
        engine = LeaveOneOutEngine(ds, cfg, 4)
        for v in range(ds.n_users):
            expected = top_items(engine.full_model, v, 4)
            assert np.array_equal(np.flatnonzero(engine.full_lists[v]),
                                  np.sort(expected))

    @pytest.mark.parametrize("algorithm", ["knn", "nmf"])
    @pytest.mark.parametrize("name", sorted(DELTA_DATASETS))
    def test_top_lists_equal_top_items(self, name, algorithm):
        ds = DELTA_DATASETS[name]()
        model = ModelConfig(algorithm, k=min(3, ds.n_users - 1), factors=2,
                            seed=3, n_iters=20).train(ds)
        for l in (1, 4, ds.n_items + 5):
            lists, thr = recommender.top_lists(model, l)
            for v in range(ds.n_users):
                expected = top_items(model, v, l)
                assert np.array_equal(np.flatnonzero(lists[v]),
                                      np.sort(expected))
                if len(expected) < l:
                    assert thr[v] == -np.inf
                else:
                    assert thr[v] == model.scores_for(v)[expected[-1]]
        with pytest.raises(ValueError, match="l must be >= 1"):
            recommender.top_lists(model, 0)

    @pytest.mark.parametrize("n,k", [(16, 8), (31, 11)])
    def test_one_item_scores_agree_bit_for_bit(self, n, k):
        # With one item, numpy would add an axis-0 neighbor sum pairwise,
        # not in rank order, from 8 neighbors on. Every route must score
        # through the one blend: predict_knn, a top_lists block and the
        # engine's blend of reduced neighbor lists.
        rng = np.random.default_rng(n)
        raters = n - 2
        ds = RatingsDataset.build(
            [f"u{j}" for j in range(n)], ["x"], np.arange(raters),
            np.zeros(raters, dtype=int), 1 + 4 * rng.random(raters))
        engine = LeaveOneOutEngine(ds, ModelConfig("knn", k=k,
                                                   similarity="cosine"), 1)
        model = engine.full_model
        alone = np.array([predict_knn(model, v, 0) for v in range(n)])
        assert np.array_equal(
            alone.view(np.int64),
            np.array([model.scores_for(v)[0] for v in range(n)])
            .view(np.int64))
        block = np.empty((n, 1))
        model.score_rows(np.arange(n), block)
        assert np.array_equal(block[:, 0].view(np.int64),
                              alone.view(np.int64))
        # the two non-raters are the only candidates: their l-th score
        _, thr = recommender.top_lists(model, 1)
        assert np.array_equal(thr[raters:].view(np.int64),
                              alone[raters:].view(np.int64))
        assert np.all(thr[:raters] == -np.inf)
        for u in (0, raters - 1, n - 1):
            reduced = train_knn(drop_user(ds, u), k, "cosine")
            rows = np.delete(np.arange(n), u)
            nbrs, sims = engine._reduced_neighbors(rows, u)
            means = model.item_means.copy()
            means[ds.user_items(u)] = engine._means_without(u)
            out = np.empty((n - 1, 1))
            recommender._blend(ds, nbrs, sims, means, out)
            retrained = np.array([predict_knn(reduced, v, 0)
                                  for v in range(n - 1)])
            assert np.array_equal(out[:, 0].view(np.int64),
                                  retrained.view(np.int64))

    def test_integer_jaccard_equals_set_formula(self):
        rng = np.random.default_rng(0)
        a, b = item_sets(rng, 300, 30), item_sets(rng, 300, 30)
        a[:2] = False               # both empty, then one empty
        b[0] = False
        b[1, 5] = True
        a[2, 7], b[2] = True, False  # the other one empty
        expected = [jaccard_distance(np.flatnonzero(x), np.flatnonzero(y))
                    for x, y in zip(a, b)]
        assert expected[:3] == [0.0, 1.0, 1.0]
        inter = np.count_nonzero(a & b, axis=1)
        union = np.count_nonzero(a | b, axis=1)
        for dtype in (np.uint8, np.uint16, np.int64):
            rows = influence._jaccard_rows(inter.astype(dtype),
                                           union.astype(dtype))
            assert rows.dtype == np.float64
            assert np.array_equal(rows, expected)
