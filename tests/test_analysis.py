import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recinfluence.analysis import (MdsEmbedding, centrality_dispersion,
                                   classical_mds, influence_ranking_curve,
                                   mds_embed, pairwise_euclidean,
                                   segment_by_influence, smacof_refine,
                                   stress_of)
from recinfluence.influence import InfluenceReport, influence_all
from recinfluence.recommender import ModelConfig
from recinfluence.similarity import user_distance_matrix

from conftest import build_dataset, random_dataset


def make_report(influence):
    influence = np.asarray(influence, dtype=float)
    key = np.where(np.isnan(influence), -np.inf, influence)
    ranking = np.lexsort((np.arange(len(influence)), -key))
    return InfluenceReport(ModelConfig("knn", k=2), 3, influence, ranking, ())


class TestRankingCurve:
    def test_flat_curve_for_equal_influence(self):
        curve = influence_ranking_curve(make_report([2.0] * 6))
        assert [r for r, _ in curve] == [1, 2, 3, 4, 5, 6]
        assert all(v == 2.0 for _, v in curve)

    def test_toy_sorted_pairs_match_sort_oracle(self, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 2)
        curve = influence_ranking_curve(report)
        expected = sorted(report.influence.tolist(), reverse=True)
        assert [v for _, v in curve] == expected


class TestClassicalMds:
    def test_exact_recovery_of_planar_points(self):
        rng = np.random.default_rng(0)
        pts = rng.random((12, 2)) * 4
        dist = pairwise_euclidean(pts)
        coords = classical_mds(dist)
        np.testing.assert_allclose(pairwise_euclidean(coords), dist,
                                   atol=1e-6)
        assert stress_of(coords, dist) < 1e-6
        np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-9)

    def test_equilateral_triangle_recovery(self):
        dist = np.ones((3, 3)) - np.eye(3)
        coords = classical_mds(dist)
        got = pairwise_euclidean(coords)
        np.testing.assert_allclose(got, dist, atol=1e-6)

    def test_permutation_invariance_of_stress_and_distances(self):
        rng = np.random.default_rng(1)
        pts = rng.random((10, 3))
        dist = pairwise_euclidean(pts)
        perm = rng.permutation(10)
        permuted = dist[np.ix_(perm, perm)]
        c1 = classical_mds(dist)
        c2 = classical_mds(permuted)
        assert stress_of(c1, dist) == pytest.approx(
            stress_of(c2, permuted), abs=1e-9)
        d1 = pairwise_euclidean(c1)[np.ix_(perm, perm)]
        d2 = pairwise_euclidean(c2)
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_rejects_non_finite(self):
        dist = np.zeros((3, 3))
        dist[0, 1] = dist[1, 0] = np.nan
        with pytest.raises(ValueError):
            classical_mds(dist)

    def test_identical_points_collapse_cleanly(self):
        dist = np.zeros((4, 4))
        coords = classical_mds(dist)
        assert np.all(coords == 0.0)
        assert stress_of(coords, dist) == 0.0


class TestMdsEmbed:
    def test_three_disjoint_users_form_equilateral_triangle(self):
        rows = [("a", "x", 5.0), ("b", "y", 4.0), ("c", "z", 3.0)]
        ds = build_dataset(rows)
        emb = mds_embed(ds)
        got = pairwise_euclidean(emb.coordinates)
        np.testing.assert_allclose(got, np.ones((3, 3)) - np.eye(3),
                                   atol=1e-6)
        assert emb.stress < 1e-6

    def test_toy_stress_matches_independent_recompute(self, toy):
        emb = mds_embed(toy)
        dist = user_distance_matrix(toy, kind="cosine")
        d_hat = pairwise_euclidean(emb.coordinates)
        expected = np.sum((d_hat - dist) ** 2) / np.sum(dist ** 2)
        assert emb.stress == pytest.approx(float(expected), abs=1e-12)
        assert 0.0 <= emb.stress <= 1.0
        np.testing.assert_allclose(emb.coordinates.mean(axis=0), 0.0,
                                   atol=1e-9)

    def test_subsampling_is_seeded(self):
        ds = random_dataset(20, 30, 0.25, seed=2)
        e1 = mds_embed(ds, max_points=10, seed=5)
        e2 = mds_embed(ds, max_points=10, seed=5)
        assert np.array_equal(e1.user_indices, e2.user_indices)
        assert np.array_equal(e1.coordinates, e2.coordinates)
        assert len(e1.user_indices) == 10

    def test_refinement_never_hurts_stress(self):
        ds = random_dataset(15, 25, 0.25, seed=3)
        plain = mds_embed(ds)
        refined = mds_embed(ds, refine_iters=100)
        assert refined.stress <= plain.stress + 1e-12

    def test_too_few_users(self):
        ds = build_dataset([("a", "x", 1.0), ("b", "x", 2.0)])
        with pytest.raises(ValueError):
            mds_embed(ds)

    @pytest.mark.parametrize("max_points", [0, 1, 2])
    def test_sample_below_three_points_refused(self, max_points):
        ds = random_dataset(20, 30, 0.25, seed=2)
        with pytest.raises(ValueError, match="mds.max_points"):
            mds_embed(ds, max_points=max_points)

    def test_refined_stress_is_the_kept_embeddings(self):
        ds = random_dataset(15, 25, 0.25, seed=3)
        emb = mds_embed(ds, refine_iters=100)
        dist = user_distance_matrix(ds, kind="cosine")
        assert emb.stress == stress_of(emb.coordinates, dist)


class TestPairwiseEuclidean:
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_bits_equal_broadcast_sum(self, n, d):
        coords = np.random.default_rng(10 * n + d).standard_normal((n, d))
        diff = coords[:, None, :] - coords[None, :, :]
        expected = np.sqrt(np.sum(diff * diff, axis=2))
        assert np.array_equal(pairwise_euclidean(coords), expected)


class TestSegments:
    def test_single_segment(self):
        labels = segment_by_influence(make_report([3.0, 1.0, 2.0]), 1)
        assert labels.tolist() == [0, 0, 0]

    def test_hundred_users_four_even_segments(self):
        rng = np.random.default_rng(4)
        labels = segment_by_influence(make_report(rng.random(100)), 4)
        counts = np.bincount(labels)
        assert counts.tolist() == [25, 25, 25, 25]

    def test_toy_five_segments_one_user_each(self, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 1)
        labels = segment_by_influence(report, 5)
        assert sorted(labels.tolist()) == [0, 1, 2, 3, 4]
        for seg in range(5):
            user = int(np.flatnonzero(labels == seg)[0])
            assert user == report.ranking[seg]

    def test_labels_depend_only_on_ranking(self):
        a = make_report([5.0, 1.0, 3.0, 2.0])
        b = make_report([50.0, 10.0, 30.0, 20.0])
        assert np.array_equal(segment_by_influence(a, 2),
                              segment_by_influence(b, 2))

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            segment_by_influence(make_report([1.0, 2.0]), 0)

    @given(st.lists(st.floats(0, 100), min_size=2, max_size=40),
           st.integers(1, 10))
    def test_segments_are_contiguous_rank_blocks(self, values, n_segments):
        report = make_report(values)
        labels = segment_by_influence(report, n_segments)
        ordered = labels[report.ranking]
        assert np.all(np.diff(ordered) >= 0)       # blocks in rank order
        sizes = np.bincount(labels, minlength=n_segments)
        nonempty = sizes[sizes > 0]
        assert nonempty.max() - nonempty.min() <= 1  # near-even split


class TestDispersion:
    def test_all_points_at_origin(self):
        emb = MdsEmbedding(np.zeros((4, 2)), 0.0, "cosine", np.arange(4))
        out = centrality_dispersion(emb, np.zeros(4, dtype=int))
        assert out == [{"segment": 0, "mean_radius": 0.0,
                        "mean_pairwise_distance": 0.0}]

    def test_constructed_radii(self):
        coords = np.array([[1.0, 0.0], [-1.0, 0.0],
                           [2.0, 0.0], [0.0, -2.0]])
        emb = MdsEmbedding(coords, 0.0, "cosine", np.arange(4))
        labels = np.array([0, 0, 1, 1])
        out = centrality_dispersion(emb, labels)
        assert out[0]["mean_radius"] == 1.0
        assert out[1]["mean_radius"] == 2.0
        assert out[0]["mean_pairwise_distance"] == 2.0
        assert out[1]["mean_pairwise_distance"] == \
            pytest.approx(np.sqrt(8.0))

    def test_toy_statistics_match_direct_arithmetic(self, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 2)
        emb = mds_embed(toy)
        labels = segment_by_influence(report, 2)
        out = centrality_dispersion(emb, labels)
        for entry in out:
            pts = emb.coordinates[labels == entry["segment"]]
            radius = np.mean([np.hypot(*p) for p in pts])
            assert entry["mean_radius"] == pytest.approx(radius, abs=1e-12)
            pair = [np.hypot(*(p - q)) for a, p in enumerate(pts)
                    for q in pts[a + 1:]]
            expected = np.mean(pair) if pair else 0.0
            assert entry["mean_pairwise_distance"] == \
                pytest.approx(expected, abs=1e-12)


class TestSmacof:
    def test_majorization_reduces_stress_of_noisy_start(self):
        rng = np.random.default_rng(6)
        pts = rng.random((10, 2))
        dist = pairwise_euclidean(pts)
        start = pts + 0.3 * rng.standard_normal(pts.shape)
        refined = smacof_refine(start, dist, n_iters=150)
        assert stress_of(refined, dist) < stress_of(start, dist)
