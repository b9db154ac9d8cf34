import json

import numpy as np
import pytest

from recinfluence.data import (DatasetError, RatingsDataset, _sorted_ids,
                               compute_stats, drop_user, load_dataset,
                               load_ratings, sample_items, sample_users,
                               save_dataset)
from recinfluence.analysis import mds_embed
from recinfluence.features import _intra_profile_distances
from recinfluence.influence import influence_all
from recinfluence.recommender import (ModelConfig, continue_nmf, train_nmf,
                                      train_test_split)
from recinfluence.similarity import (SIMILARITIES, item_distance_submatrix,
                                     user_distance_matrix,
                                     user_similarity_matrix)

import oracles
from conftest import (build_dataset, clone_users_dataset, hub_dataset,
                      random_dataset, revalued, toy_dataset)


class TestLoadRatings:
    def test_three_line_file_direct_readback(self, tmp_path):
        f = tmp_path / "mini.csv"
        f.write_text("u1,i1,5\nu1,i2,4\nu2,i1,3\n")
        ds = load_ratings(f, format="csv")
        assert ds.n_users == 2
        assert ds.n_items == 2
        assert ds.n_ratings == 3
        ratings, mask = ds.ratings(), ds.mask
        assert ratings[0, 0] == 5.0 and ratings[0, 1] == 4.0
        assert ratings[1, 0] == 3.0 and not mask[1, 1]

    def test_duplicate_keeps_last_occurrence(self, tmp_path):
        # Oracle: sequential replay of the records into a dict.
        records = [("u1", "i1", 3.0), ("u1", "i2", 4.0), ("u1", "i1", 5.0)]
        replay = {}
        for u, i, v in records:
            replay[(u, i)] = v
        f = tmp_path / "dup.csv"
        f.write_text("\n".join(f"{u},{i},{v}" for u, i, v in records) + "\n")
        ds = load_ratings(f, format="csv")
        assert ds.n_ratings == len(replay) == 2
        ratings = ds.ratings()
        assert ratings[0, 0] == replay[("u1", "i1")] == 5.0

    def test_movielens_dat_format(self, tmp_path):
        f = tmp_path / "ml.dat"
        f.write_text("1::10::5::978300760\n1::20::3::978302109\n"
                     "2::10::4::978301968\n")
        ds = load_ratings(f, format="movielens-dat")
        assert (ds.n_users, ds.n_items, ds.n_ratings) == (2, 2, 3)
        assert ds.user_ids == ("1", "2")
        assert ds.item_ids == ("10", "20")

    def test_header_and_custom_columns(self, tmp_path):
        f = tmp_path / "w.tsv"
        f.write_text("rating\tuser\titem\n4.5\tu9\tix\n")
        ds = load_ratings(f, format="tsv",
                          columns=("rating", "user", "item"),
                          has_header=True)
        assert ds.n_ratings == 1
        assert ds.values[0] == 4.5

    def test_malformed_record_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("u1,i1,5\nu2,i2,not-a-number\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_ratings(f, format="csv")

    def test_short_record_reports_line_number(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("u1,i1,5\nu2,i2\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_ratings(f, format="csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ratings(tmp_path / "nope.csv", format="csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_ratings(f, format="csv")

    def test_rating_whose_square_overflows_is_refused(self, tmp_path):
        f = tmp_path / "big.csv"
        f.write_text("u1,i1,5\nu2,i2,-1e300\n")
        with pytest.raises(DatasetError,
                           match=r"rating -1e\+300 is too large"):
            load_ratings(f, format="csv")

    def test_square_bound_is_n_users_times_n_items(self, tmp_path):
        # 2 users x 2 items: n * m * r**2 reaches max float at
        # r = sqrt(max / 4)
        edge = float(np.sqrt(np.finfo(float).max / 4))
        f = tmp_path / "edge.csv"
        f.write_text(f"u1,i1,{edge * 0.999!r}\nu2,i2,1\n")
        assert load_ratings(f, format="csv").n_ratings == 2
        f.write_text(f"u1,i1,{edge * 1.001!r}\nu2,i2,1\n")
        with pytest.raises(DatasetError, match="too large"):
            load_ratings(f, format="csv")

    def test_integer_ids_sort_numerically(self, tmp_path):
        f = tmp_path / "ids.csv"
        f.write_text("10,1,3\n2,1,4\n1,1,5\n")
        ds = load_ratings(f, format="csv")
        assert ds.user_ids == ("1", "2", "10")


class TestBuild:
    USERS, ITEMS = ("a", "b", "c"), ("x", "y", "z")

    def build(self, u_idx, i_idx, values, **bounds):
        return RatingsDataset.build(self.USERS, self.ITEMS, u_idx, i_idx,
                                    values, **bounds)

    def test_mismatched_lengths(self):
        with pytest.raises(DatasetError, match="mismatched lengths"):
            self.build([0, 1], [0, 1], [1.0])

    def test_empty(self):
        with pytest.raises(DatasetError, match="empty dataset"):
            self.build([], [], [])

    def test_duplicate_pair_apart_in_input(self):
        with pytest.raises(DatasetError, match="duplicate"):
            self.build([1, 0, 2, 1], [2, 1, 0, 2], [1.0, 2.0, 3.0, 4.0])

    def test_rating_outside_bounds(self):
        with pytest.raises(DatasetError, match="outside declared scale"):
            self.build([0, 1], [0, 1], [1.0, 6.0], r_min=1.0, r_max=5.0)
        with pytest.raises(DatasetError, match="outside declared scale"):
            self.build([0, 1], [0, 1], [0.5, 3.0], r_min=1.0, r_max=5.0)

    @pytest.mark.parametrize("bounds", [{}, {"r_min": 1.0, "r_max": 5.0}],
                             ids=["unbounded", "bounded"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_rating(self, bad, bounds):
        with pytest.raises(DatasetError,
                           match=f"^rating {bad!r} is not finite$"):
            self.build([0, 1, 2], [0, 1, 2], [1.0, bad, 3.0], **bounds)

    @pytest.mark.parametrize("u_idx,i_idx,message", [
        ([0, 3], [0, 1], "user index 3 out of range \\[0, 3\\)"),
        ([0, -1], [0, 1], "user index -1 out of range \\[0, 3\\)"),
        ([0, 1], [999, 1], "item index 999 out of range \\[0, 3\\)"),
        ([0, 1], [0, -2], "item index -2 out of range \\[0, 3\\)"),
    ], ids=["user-past-end", "user-negative", "item-past-end",
            "item-negative"])
    def test_index_outside_its_axis(self, u_idx, i_idx, message):
        with pytest.raises(DatasetError, match=message):
            self.build(u_idx, i_idx, [1.0, 2.0])

    def test_shuffled_input_sorted_with_values_kept(self):
        ref = random_dataset(25, 40, 0.2, seed=12)
        perm = np.random.default_rng(0).permutation(ref.n_ratings)
        u_idx, i_idx = ref.user_idx[perm], ref.item_idx[perm]
        values = np.random.default_rng(1).random(ref.n_ratings)
        ds = RatingsDataset.build(ref.user_ids, ref.item_ids, u_idx, i_idx,
                                  values)
        order = np.lexsort((i_idx, u_idx))
        assert np.array_equal(ds.user_idx, u_idx[order])
        assert np.array_equal(ds.item_idx, i_idx[order])
        assert np.array_equal(ds.values, values[order])


class TestStats:
    def test_toy_counts_and_sparsity(self, toy):
        # Oracle: direct counting over the fixture rows.
        st = compute_stats(toy)
        assert (st.n_users, st.n_items, st.n_ratings) == (5, 6, 15)
        assert st.sparsity == 1 - 15 / 30 == 0.5
        assert st.per_user_count == (3, 3, 3, 3, 3)
        assert st.per_item_count == (3, 3, 3, 2, 2, 2)

    def test_single_rating_sparsity_zero(self):
        ds = build_dataset([("u", "i", 3.0)])
        assert compute_stats(ds).sparsity == 0.0

    def test_sparsity_formula_on_random(self):
        for seed in range(5):
            ds = random_dataset(20, 30, 0.2, seed=seed)
            st = compute_stats(ds)
            assert st.sparsity == 1 - st.n_ratings / (20 * 30)
            assert min(st.per_user_count) >= 1
            assert min(st.per_item_count) >= 1


class TestSampleUsers:
    def test_full_sample_identical(self, toy):
        out = sample_users(toy, toy.n_users, seed=99)
        assert out.user_ids == toy.user_ids
        assert out.item_ids == toy.item_ids
        assert np.array_equal(out.values, toy.values)

    def test_seeded_draw_matches_independent_replay(self, toy):
        # Oracle: replay the seeded uniform draw without replacement.
        expected = np.sort(np.random.default_rng(7).choice(5, 2,
                                                           replace=False))
        out = sample_users(toy, 2, seed=7)
        assert out.user_ids == tuple(toy.user_ids[u] for u in expected)
        again = sample_users(toy, 2, seed=7)
        assert out.user_ids == again.user_ids
        assert np.array_equal(out.values, again.values)

    def test_items_repruned(self):
        rows = [("a", "x", 1.0), ("a", "y", 2.0), ("b", "z", 3.0)]
        ds = build_dataset(rows)
        # pick whichever single user survives; its items alone remain
        out = sample_users(ds, 1, seed=0)
        assert out.n_items == len(out.item_ids)
        assert min(compute_stats(out).per_item_count) >= 1

    def test_count_out_of_range(self, toy):
        with pytest.raises(DatasetError):
            sample_users(toy, 0, seed=1)
        with pytest.raises(DatasetError):
            sample_users(toy, 6, seed=1)


class TestSampleItems:
    def test_popularity_mode_keeps_most_rated(self, toy):
        # i1..i3 have 3 raters, i4..i6 have 2
        out = sample_items(toy, 3, mode="popularity")
        assert out.item_ids == ("i1", "i2", "i3")
        assert min(compute_stats(out).per_user_count) >= 1

    def test_random_mode_seeded(self, toy):
        a = sample_items(toy, 4, mode="random", seed=13)
        b = sample_items(toy, 4, mode="random", seed=13)
        assert a.item_ids == b.item_ids
        assert np.array_equal(a.values, b.values)

    def test_users_repruned(self):
        rows = [("a", "x", 1.0), ("b", "y", 2.0), ("c", "x", 3.0),
                ("c", "y", 4.0)]
        ds = build_dataset(rows)
        out = sample_items(ds, 1, mode="popularity")
        assert "b" not in out.user_ids
        assert min(compute_stats(out).per_user_count) >= 1

    def test_bad_arguments(self, toy):
        with pytest.raises(DatasetError):
            sample_items(toy, 0)
        with pytest.raises(DatasetError):
            sample_items(toy, 7)
        with pytest.raises(DatasetError):
            sample_items(toy, 3, mode="alphabetical")


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path, toy):
        path = save_dataset(toy, tmp_path / "dump.tsv")
        back = load_dataset(path)
        assert back.user_ids == toy.user_ids
        assert back.item_ids == toy.item_ids
        assert np.array_equal(back.user_idx, toy.user_idx)
        assert np.array_equal(back.item_idx, toy.item_idx)
        assert np.array_equal(back.values, toy.values)
        assert (back.r_min, back.r_max) == (toy.r_min, toy.r_max)

    def test_round_trip_random_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [(f"u{j % 4}", f"i{j}", float(v))
                for j, v in enumerate(rng.random(12) * 5)]
        ds = build_dataset(rows)
        back = load_dataset(save_dataset(ds, tmp_path / "d.tsv"))
        assert np.array_equal(back.values, ds.values)

    def test_round_trip_keeps_every_bit_of_extreme_floats(self, tmp_path):
        rng = np.random.default_rng(8)
        mask = rng.random((30, 40)) < 0.3
        u, i = np.nonzero(mask)
        values = (rng.standard_normal(len(u))
                  * 10.0 ** rng.integers(-300, 300, len(u)))
        values[:3] = [-0.0, 5e-324, 1.7976931348623157e308]
        ds = RatingsDataset.build([f"u{j}" for j in range(30)],
                                  [f"i{j}" for j in range(40)], u, i, values)
        back = load_dataset(save_dataset(ds, tmp_path / "d.tsv"))
        assert np.array_equal(back.user_idx, ds.user_idx)
        assert np.array_equal(back.item_idx, ds.item_idx)
        assert back.user_idx.dtype == back.item_idx.dtype == np.int64
        assert np.array_equal(back.values.view(np.int64),
                              ds.values.view(np.int64))

    @pytest.mark.parametrize("line", [
        "1\t2", "1\t2\t3.0\t4", "1\t2\tx", "1.5\t2\t3.0", "1e30\t2\t3.0",
        "#\t2\t3.0", "  ", "1\t2\t3.0\t"])
    def test_bad_row_reports_its_line_number(self, tmp_path, toy, line):
        path = save_dataset(toy, tmp_path / "dump.tsv")
        lines = path.read_text().splitlines()
        lines[2] = ""               # empty lines are skipped but counted
        lines[5] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"dump.tsv: line 6: bad dump"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["user_ids", "item_ids", "r_min",
                                     "r_max"])
    def test_sidecar_without_a_key_names_it(self, tmp_path, toy, key):
        path = save_dataset(toy, tmp_path / "dump.tsv")
        side_path = tmp_path / "dump.json"
        side = json.loads(side_path.read_text())
        del side[key]
        side_path.write_text(json.dumps(side))
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: sidecar {side_path} lacks {key}"

    @pytest.mark.parametrize("key", ["user_ids", "item_ids"])
    def test_sidecar_with_a_repeated_id_names_it(self, tmp_path, toy, key):
        path = save_dataset(toy, tmp_path / "dump.tsv")
        side_path = tmp_path / "dump.json"
        side = json.loads(side_path.read_text())
        # the first id that repeats an earlier one is named
        side[key] = ["a", "b", "c", "b", "a", *side[key][5:]]
        side_path.write_text(json.dumps(side))
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == \
            f"{path}: sidecar {side_path}: {key} repeats 'b'"

    @pytest.mark.parametrize("text", ["null", "[\"user_ids\"]", "3"])
    def test_sidecar_that_is_not_an_object(self, tmp_path, toy, text):
        path = save_dataset(toy, tmp_path / "dump.tsv")
        (tmp_path / "dump.json").write_text(text)
        with pytest.raises(DatasetError, match="dump.json lacks user_ids"):
            load_dataset(path)

    def test_empty_dump_is_an_empty_dataset(self, tmp_path, toy):
        path = save_dataset(toy, tmp_path / "dump.tsv")
        path.write_text("\n")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(path)


class TestDropUser:
    def test_keeps_item_axis(self, toy):
        out = drop_user(toy, 0)
        assert out.n_users == 4
        assert out.item_ids == toy.item_ids
        assert out.user_ids == toy.user_ids[1:]

    def test_item_may_become_empty(self):
        rows = [("a", "only", 5.0), ("a", "shared", 3.0),
                ("b", "shared", 4.0)]
        ds = build_dataset(rows)
        out = drop_user(ds, 0)
        assert out.n_items == 2
        assert out.item_counts[list(out.item_ids).index("only")] == 0

    def test_cannot_drop_only_user(self):
        ds = build_dataset([("a", "x", 1.0)])
        with pytest.raises(DatasetError):
            drop_user(ds, 0)


def only_rater_dataset():
    """a alone rates "solo" and c alone rates "last"; b shares "x" with
    both; the declared scale is wider than the ratings."""
    rows = [("a", "solo", 2.5), ("a", "x", 4.0), ("b", "x", 3.0),
            ("b", "y", 1.0), ("c", "x", 5.0), ("c", "last", 0.5)]
    return build_dataset(rows, r_min=0.0, r_max=10.0)


def off_grid_dataset():
    ds = random_dataset(12, 20, 0.3, seed=5)
    values = np.random.default_rng(5).random(ds.n_ratings) * 4 + 1
    return RatingsDataset.build(ds.user_ids, ds.item_ids, ds.user_idx,
                                ds.item_idx, values, r_min=0.0, r_max=6.0)


CUT_DATASETS = {
    **{f"suite{s}": (lambda s=s: random_dataset(50, 100, 0.10, seed=s))
       for s in range(100, 120)},
    "toy": toy_dataset,
    "only-rater": only_rater_dataset,
    "off-grid": off_grid_dataset,
    "hub": lambda: hub_dataset(20, 40, seed=1),
    "clones": lambda: clone_users_dataset(n_users=4, n_items=6),
    "one-user": lambda: build_dataset([("a", "x", 1.0), ("a", "y", 2.0)]),
}


def assert_fields(ds, expected):
    """Ids, index arrays, values (as bits) and scale bounds, one by one."""
    assert ds.user_ids == expected["user_ids"]
    assert ds.item_ids == expected["item_ids"]
    for name in ("user_idx", "item_idx"):
        got = getattr(ds, name)
        assert got.dtype == np.int64
        assert got.tolist() == expected[name]
    want = np.array(expected["values"], dtype=np.float64)
    assert ds.values.dtype == np.float64
    assert np.array_equal(ds.values.view(np.int64), want.view(np.int64))
    assert (ds.r_min, ds.r_max) == (expected["r_min"], expected["r_max"])


class TestCutsMatchLiteralOracles:
    """Every dataset cut against a per-rating replay in ``oracles``."""

    @pytest.mark.parametrize("name", sorted(CUT_DATASETS))
    def test_drop_user(self, name):
        ds = CUT_DATASETS[name]()
        if ds.n_users < 2:
            with pytest.raises(DatasetError, match="only user"):
                drop_user(ds, 0)
            return
        users = range(ds.n_users) if ds.n_users <= 20 else \
            (0, 1, ds.n_users // 2, ds.n_users - 1)
        for u in users:
            assert_fields(drop_user(ds, u), oracles.drop_user_fields(ds, u))

    @pytest.mark.parametrize("name", sorted(CUT_DATASETS))
    def test_sample_users(self, name):
        ds = CUT_DATASETS[name]()
        for count in sorted({1, (ds.n_users + 1) // 2, ds.n_users}):
            for seed in (0, 7):
                assert_fields(sample_users(ds, count, seed),
                              oracles.sample_users_fields(ds, count, seed))

    @pytest.mark.parametrize("mode", ["random", "popularity"])
    @pytest.mark.parametrize("name", sorted(CUT_DATASETS))
    def test_sample_items(self, name, mode):
        ds = CUT_DATASETS[name]()
        for count in sorted({1, 2, (ds.n_items + 1) // 2, ds.n_items}):
            if count > ds.n_items:
                continue
            for seed in (0, 7):
                assert_fields(
                    sample_items(ds, count, mode=mode, seed=seed),
                    oracles.sample_items_fields(ds, count, mode, seed))

    @pytest.mark.parametrize("name", sorted(CUT_DATASETS))
    def test_train_test_split(self, name):
        ds = CUT_DATASETS[name]()
        for fraction, seed in ((0.2, 0), (0.5, 3), (0.9, 1)):
            train, test = train_test_split(ds, fraction, seed)
            want_train, want_test = oracles.train_test_split_fields(
                ds, fraction, seed)
            assert_fields(train, want_train)
            assert test == want_test

    def test_popularity_ties_at_the_cut_keep_lower_indices(self, toy):
        # i1..i3 have 3 raters and i4..i6 2: the fourth slot goes to i4
        out = sample_items(toy, 4, mode="popularity")
        assert out.item_ids == ("i1", "i2", "i3", "i4")
        assert_fields(out, oracles.sample_items_fields(toy, 4, "popularity",
                                                       0))

    def test_only_raters_removed(self):
        ds = only_rater_dataset()
        a = ds.user_ids.index("a")
        dropped = drop_user(ds, a)
        assert dropped.item_ids == ds.item_ids
        assert dropped.item_counts[ds.item_ids.index("solo")] == 0
        for seed in range(6):
            kept = sample_users(ds, 2, seed=seed)
            for user, item in (("a", "solo"), ("c", "last")):
                assert (item in kept.item_ids) == (user in kept.user_ids)
            assert (kept.r_min, kept.r_max) == (0.0, 10.0)


class TestSortedIds:
    def test_ids_of_one_value_order_by_text(self):
        ids = ["2", "1", "01", "10", "001"]
        want = ["001", "01", "1", "2", "10"]
        assert _sorted_ids(ids) == _sorted_ids(ids[::-1]) == want

    def test_ingest_order_ignores_record_order(self, tmp_path):
        got = []
        for name, rows in (("a", ["1,x,1", "01,x,2", "2,x,3"]),
                           ("b", ["2,x,3", "01,x,2", "1,x,1"])):
            f = tmp_path / f"{name}.csv"
            f.write_text("\n".join(rows) + "\n")
            got.append(load_ratings(f, format="csv").user_ids)
        assert got == [("01", "1", "2")] * 2


class TestItemIndex:
    """The item-major index: each item's rating positions in user order."""

    @pytest.mark.parametrize("name", ["toy", "only-rater", "off-grid",
                                      "hub", "suite100"])
    def test_order_and_ptr(self, name):
        ds = CUT_DATASETS[name]()
        assert np.array_equal(ds._item_order,
                              np.argsort(ds.item_idx, kind="stable"))
        assert np.array_equal(np.diff(ds._item_ptr), ds.item_counts)
        assert ds._item_ptr[0] == 0 and ds._item_ptr[-1] == ds.n_ratings

    def test_ratings_of_listed_items(self):
        ds = drop_user(only_rater_dataset(), 0)
        solo, x = ds.item_ids.index("solo"), ds.item_ids.index("x")
        assert ds.item_counts[solo] == 0
        items = np.array([x, solo, x, ds.item_ids.index("last"), x])
        pos, slot = ds._item_ratings(items)
        want = [(p, s) for s, i in enumerate(items)
                for p in range(ds.n_ratings) if ds.item_idx[p] == i]
        assert list(zip(pos.tolist(), slot.tolist())) == want
        # x's raters, b and c, in user order in every slot that lists x
        assert [ds.user_ids[u] for u in ds.user_idx[pos[slot == 0]]] == [
            "b", "c"]

    def test_no_items(self):
        pos, slot = toy_dataset()._item_ratings(np.array([], dtype=np.int64))
        assert len(pos) == len(slot) == 0

    def test_index_adds_no_2d_array(self):
        ds = random_dataset(30, 50, 0.2, seed=3)
        ds._item_ratings(ds.user_items(0))
        held = {name: v.ndim for name, v in vars(ds).items()
                if isinstance(v, np.ndarray)}
        assert {"_item_order", "_item_ptr"} <= set(held)
        assert set(held.values()) == {1}


def _half_stars(n_users, n_items, seed):
    ds = random_dataset(n_users, n_items, 0.15, seed=seed)
    rng = np.random.default_rng(seed)
    return revalued(ds, rng.integers(2, 11, ds.n_ratings) / 2)


def _continuous(n_users, n_items, seed):
    ds = random_dataset(n_users, n_items, 0.15, seed=seed)
    rng = np.random.default_rng(seed)
    return revalued(ds, 1 + 4 * rng.random(ds.n_ratings))


class TestRatingsBuiltOnlyWhereRead:
    """``RatingsDataset.ratings`` builds the float64 n x m ratings afresh on
    each call; only readers of float64 n x m values call it, and the
    dataset caches its bool mask alone."""

    @staticmethod
    def refuse(monkeypatch):
        def refused(ds):
            raise AssertionError("float64 ratings built")

        monkeypatch.setattr(RatingsDataset, "ratings", refused)

    @staticmethod
    def count(monkeypatch):
        """(n_users, n_items) of each dataset whose ratings are built."""
        shapes, real = [], RatingsDataset.ratings

        def counting(ds):
            shapes.append((ds.n_users, ds.n_items))
            return real(ds)

        monkeypatch.setattr(RatingsDataset, "ratings", counting)
        return shapes

    def test_ratings_are_built_afresh_and_mask_is_cached(self):
        ds = _half_stars(6, 9, 1)
        first, second = ds.ratings(), ds.ratings()
        assert first is not second and np.array_equal(first, second)
        assert first.dtype == np.float64 and first.flags.writeable
        assert np.array_equal(first[ds.mask], ds.values)
        assert not first[~ds.mask].any()
        assert ds.mask is ds.mask and not ds.mask.flags.writeable

    @pytest.mark.parametrize("kind", SIMILARITIES)
    def test_knn_audit_on_half_stars_builds_none(self, monkeypatch, kind):
        ds = _half_stars(25, 40, 2)
        self.refuse(monkeypatch)
        report = influence_all(ds, ModelConfig(k=5, similarity=kind), 4)
        assert not report.failures
        held = [v for v in vars(ds).values()
                if isinstance(v, np.ndarray) and v.ndim == 2]
        assert [(v.shape, v.dtype) for v in held] == [
            ((ds.n_users, ds.n_items), np.dtype(bool))]

    @pytest.mark.parametrize("kind", SIMILARITIES)
    def test_distances_on_half_stars_build_none(self, monkeypatch, kind):
        ds = _half_stars(25, 40, 3)
        self.refuse(monkeypatch)
        assert user_distance_matrix(ds, kind).shape == (25, 25)
        assert user_similarity_matrix(ds, kind).shape == (25, 25)
        items = ds.user_items(0)
        assert item_distance_submatrix(ds, items).shape == (
            len(items),) * 2
        assert _intra_profile_distances(ds, "pearson").shape == (25,)

    @pytest.mark.parametrize("kind", SIMILARITIES)
    def test_sampled_mds_on_half_stars_builds_none(self, monkeypatch, kind):
        ds = _half_stars(40, 30, 4)
        self.refuse(monkeypatch)
        emb = mds_embed(ds, distance=kind, max_points=12, seed=1)
        assert len(emb.user_indices) == 12

    @pytest.mark.parametrize("kind", SIMILARITIES)
    def test_off_grid_builds_once_per_similarity_pass(self, monkeypatch,
                                                      kind):
        ds = _continuous(20, 30, 5)
        shapes = self.count(monkeypatch)
        user_similarity_matrix(ds, kind)
        assert shapes == [(20, 30)]
        user_distance_matrix(ds, kind)
        assert shapes == [(20, 30)] * 2
        # item Pearson scores the rows of the transposed data
        _intra_profile_distances(ds, "pearson")
        assert shapes == [(20, 30)] * 2 + [(30, 20)]
        # item cosine off the grid gathers each profile's columns from the
        # raters of its items and builds none
        _intra_profile_distances(ds, "cosine")
        assert shapes == [(20, 30)] * 2 + [(30, 20)]

    @pytest.mark.parametrize("masked", [True, False])
    def test_nmf_fit_builds_once(self, monkeypatch, masked):
        ds = _continuous(20, 30, 6)
        shapes = self.count(monkeypatch)
        full = train_nmf(ds, 3, 0, n_iters=5, masked=masked)
        assert shapes == [(20, 30)]
        reduced = drop_user(ds, 4)
        continue_nmf(reduced, np.delete(full.p, 4, axis=0), full.q, 0, 3,
                     masked=masked)
        assert shapes == [(20, 30), (19, 30)]
        held = [v for v in vars(ds).values()
                if isinstance(v, np.ndarray) and v.dtype == np.float64
                and v.ndim == 2]
        assert held == []
