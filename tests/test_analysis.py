import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recinfluence import analysis, similarity
from recinfluence.analysis import (MdsEmbedding, centrality_dispersion,
                                   classical_mds, mds_embed,
                                   pairwise_euclidean, segment_by_influence,
                                   smacof_refine, stress_of)
from recinfluence.data import RatingsDataset
from recinfluence.influence import _rank_users, influence_all
from recinfluence.recommender import ModelConfig
from recinfluence.similarity import user_distance_matrix

import oracles
from conftest import build_dataset, random_dataset


def ranking_of(influence):
    """Users by influence descending, index ascending, NaN last."""
    return sorted(range(len(influence)),
                  key=lambda u: (np.isnan(influence[u]),
                                 -np.nan_to_num(influence[u]), u))


class TestRanking:
    def test_equal_influence_ranks_in_index_order(self):
        assert _rank_users(np.full(6, 2.0)).tolist() == [0, 1, 2, 3, 4, 5]

    def test_toy_report_ranking_matches_sort_oracle(self, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 2)
        assert report.ranking.tolist() == ranking_of(report.influence)
        expected = sorted(report.influence.tolist(), reverse=True)
        assert report.influence[report.ranking].tolist() == expected

    def test_failed_removals_rank_last(self):
        influence = np.array([1.0, np.nan, 3.0, np.nan, 1.0])
        ranking = _rank_users(influence)
        assert ranking.tolist() == [2, 0, 4, 1, 3]
        assert ranking.tolist() == ranking_of(influence)


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


def _revalued(ds, values):
    return RatingsDataset.build(ds.user_ids, ds.item_ids, ds.user_idx,
                                ds.item_idx, values)


class TestMdsSampleMatchesFullMatrix:
    """Above ``max_points`` only the chosen users' distances are computed;
    they are the full matrix's entries, bit for bit."""

    N, POINTS, SEED = 40, 12, 4

    def dataset(self, data):
        ds = random_dataset(self.N, 60, 0.2, seed=9)
        rng = np.random.default_rng(1)
        if data == "half-star":
            return _revalued(ds, ds.values
                             - 0.5 * rng.integers(0, 2, ds.n_ratings))
        off_grid = ds.values + rng.random(ds.n_ratings)
        if data == "continuous":
            return _revalued(ds, off_grid)
        # off-grid only outside the sample: the full matrix takes the loop
        # path, the sampled rows the matrix-product path
        chosen = np.sort(np.random.default_rng(self.SEED).choice(
            self.N, size=self.POINTS, replace=False))
        return _revalued(ds, np.where(np.isin(ds.user_idx, chosen),
                                      ds.values, off_grid))

    @pytest.mark.parametrize("refine_iters", [0, 5])
    @pytest.mark.parametrize("kind", ["cosine", "pearson"])
    @pytest.mark.parametrize("data", ["half-star", "continuous",
                                      "off-grid-outside-sample"])
    def test_sampled_distances_are_the_full_slice(self, monkeypatch, data,
                                                  kind, refine_iters):
        ds = self.dataset(data)
        full = user_distance_matrix(ds, kind=kind)
        rows, dists = [], []
        real_rows = similarity._similarity_rows
        real_mds = analysis.classical_mds

        def counting(kind, rated, *rest, **kwargs):
            rows.append(rated.n_users)
            return real_rows(kind, rated, *rest, **kwargs)

        def capturing(dist, *args, **kwargs):
            dists.append(dist)
            return real_mds(dist, *args, **kwargs)

        monkeypatch.setattr(similarity, "_similarity_rows", counting)
        monkeypatch.setattr(analysis, "classical_mds", capturing)
        emb = mds_embed(ds, distance=kind, max_points=self.POINTS,
                        seed=self.SEED, refine_iters=refine_iters)
        monkeypatch.undo()
        assert rows == [self.POINTS]
        want = full[np.ix_(emb.user_indices, emb.user_indices)]
        assert np.array_equal(dists[0].view(np.int64), want.view(np.int64))
        coords = classical_mds(want)
        stress = stress_of(coords, want)
        if refine_iters:
            refined = smacof_refine(coords, want, n_iters=refine_iters)
            if stress_of(refined, want) < stress:
                coords, stress = refined, stress_of(refined, want)
        assert np.array_equal(emb.coordinates.view(np.int64),
                              coords.view(np.int64))
        assert emb.stress == stress


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
        labels = segment_by_influence(np.array([3.0, 1.0, 2.0]), 1)
        assert labels.tolist() == [0, 0, 0]

    def test_hundred_users_four_even_segments(self):
        rng = np.random.default_rng(4)
        labels = segment_by_influence(rng.random(100), 4)
        counts = np.bincount(labels)
        assert counts.tolist() == [25, 25, 25, 25]

    def test_toy_five_segments_one_user_each(self, toy):
        report = influence_all(toy, ModelConfig("knn", k=2), 1)
        labels = segment_by_influence(report.influence, 5)
        assert sorted(labels.tolist()) == [0, 1, 2, 3, 4]
        for seg in range(5):
            user = int(np.flatnonzero(labels == seg)[0])
            assert user == report.ranking[seg]

    def test_labels_depend_only_on_ranking(self):
        a = np.array([5.0, 1.0, 3.0, 2.0])
        assert np.array_equal(segment_by_influence(a, 2),
                              segment_by_influence(10 * a, 2))

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            segment_by_influence(np.array([1.0, 2.0]), 0)

    @given(st.lists(st.floats(0, 100) | st.just(float("nan")), min_size=2,
                    max_size=40),
           st.integers(1, 10))
    def test_segments_are_contiguous_rank_blocks(self, values, n_segments):
        influence = np.array(values)
        labels = segment_by_influence(influence, n_segments)
        ordered = labels[ranking_of(influence)]
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
        labels = segment_by_influence(report.influence, 2)
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


def same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def mds_case(name):
    """(start, target distances) for an MDS refinement case."""
    rng = np.random.default_rng(len(name))
    if name == "three":
        pts = rng.standard_normal((3, 4))
    else:
        pts = rng.standard_normal((40, 6))
    dist = oracles.pairwise_euclidean(pts)
    start = classical_mds(dist)
    if name == "coincident":
        # repeated rows make d_hat == 0 off the diagonal
        start[5] = start[4]
        start[20:23] = start[19]
    return start, dist


class TestMdsWorkspaces:
    """The MDS steps that reuse their (n, n) buffers against the textbook
    formulas in ``oracles``, bit for bit."""

    @pytest.mark.parametrize("n_iters", [1, 50])
    @pytest.mark.parametrize("name", ["random", "coincident", "three"])
    def test_smacof_bits(self, name, n_iters):
        start, dist = mds_case(name)
        assert same_bits(smacof_refine(start, dist, n_iters),
                         oracles.smacof_refine(start, dist, n_iters))

    @pytest.mark.parametrize("name", ["random", "coincident", "three"])
    def test_stress_and_distance_bits(self, name):
        start, dist = mds_case(name)
        refined = oracles.smacof_refine(start, dist, 3)
        for coords in (start, refined):
            assert same_bits(pairwise_euclidean(coords),
                             oracles.pairwise_euclidean(coords))
            assert same_bits(stress_of(coords, dist),
                             oracles.stress_of(coords, dist))
        assert stress_of(start, np.zeros_like(dist)) == 0.0

    def test_smacof_peak_within_three_square_buffers(self):
        n = 300
        pts = np.random.default_rng(3).standard_normal((n, 5))
        dist = oracles.pairwise_euclidean(pts)
        coords = classical_mds(dist)
        smacof_refine(coords, dist, 1)
        tracemalloc.start()
        try:
            smacof_refine(coords, dist, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8


class TestClassicalMdsBuffers:
    """``classical_mds`` forms its centered matrix in three (n, n) buffers,
    with the bits of the one-line formula ``oracles`` keeps."""

    @staticmethod
    def distances(name):
        rng = np.random.default_rng(len(name))
        if name == "zeros":
            return np.zeros((6, 6))
        if name == "users":
            return user_distance_matrix(random_dataset(70, 90, 0.1, seed=2))
        n = int(name)
        return oracles.pairwise_euclidean(rng.standard_normal((n, 4)))

    @pytest.mark.parametrize("name", ["1", "2", "5", "64", "300", "zeros",
                                      "users"])
    def test_bits_of_the_one_line_formula(self, name, monkeypatch):
        dist = self.distances(name)
        with analysis._one_blas_thread():
            want = oracles.centered_squares(dist)
        seen, real = [], np.linalg.eigh

        def eigh(b):
            seen.append(b.copy())
            return real(b)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        classical_mds(dist)
        assert len(seen) == 1 and same_bits(seen[0], want)

    def test_peak_within_three_square_buffers(self):
        n = 300
        dist = self.distances("300")
        classical_mds(dist)
        tracemalloc.start()
        try:
            classical_mds(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * n * n * 8


class TestBlasPin:
    @staticmethod
    def fake_blas(monkeypatch, count):
        monkeypatch.setattr(analysis, "_openblas_threads", lambda: (
            lambda: count[0], lambda k: count.__setitem__(0, k)))

    def test_one_thread_inside_then_restored(self, monkeypatch):
        count = [3]
        self.fake_blas(monkeypatch, count)
        with analysis._one_blas_thread():
            assert count == [1]
        assert count == [3]

    def test_restored_after_an_error(self, monkeypatch):
        count = [2]
        self.fake_blas(monkeypatch, count)
        with pytest.raises(ValueError, match="non-finite"):
            classical_mds(np.full((3, 3), np.nan))
        assert count == [2]

    def test_mds_steps_run_pinned(self, monkeypatch):
        _, dist = mds_case("random")
        seen, count = [], [4]
        self.fake_blas(monkeypatch, count)
        real = np.linalg.eigh

        def eigh(b):
            seen.append(count[0])
            return real(b)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        classical_mds(dist)
        assert seen == [1] and count == [4]

    def test_without_openblas_nothing_changes(self, monkeypatch):
        start, dist = mds_case("random")
        want = smacof_refine(start, dist, 5)
        monkeypatch.setattr(analysis, "_openblas_threads", lambda: None)
        assert same_bits(smacof_refine(start, dist, 5), want)
