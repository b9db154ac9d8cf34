import numpy as np
import pytest

from recinfluence.data import (DatasetError, RatingsDataset, compute_stats,
                               drop_user, load_dataset, load_ratings,
                               sample_items, sample_users, save_dataset)

from conftest import build_dataset, random_dataset, toy_dataset


class TestLoadRatings:
    def test_three_line_file_direct_readback(self, tmp_path):
        f = tmp_path / "mini.csv"
        f.write_text("u1,i1,5\nu1,i2,4\nu2,i1,3\n")
        ds = load_ratings(f, format="csv")
        assert ds.n_users == 2
        assert ds.n_items == 2
        assert ds.n_ratings == 3
        ratings, mask = ds.dense
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
        ratings, _ = ds.dense
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

    def test_value_map_for_interaction_labels(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("u1,j1,click\nu1,j2,apply\nu2,j1,view\n")
        ds = load_ratings(f, format="csv",
                          value_map={"view": 1, "click": 2, "apply": 3})
        assert sorted(ds.values.tolist()) == [1.0, 2.0, 3.0]
        with pytest.raises(DatasetError, match="line 1"):
            load_ratings(f, format="csv", value_map={"view": 1})

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

    def test_rating_outside_declared_scale(self, tmp_path):
        f = tmp_path / "oob.csv"
        f.write_text("u1,i1,9\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_ratings(f, format="csv", r_min=1, r_max=5)

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
