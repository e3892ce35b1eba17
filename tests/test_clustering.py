import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.clustering import (
    ClusterAssignment,
    SimilarityMatrix,
    adjusted_rand_index,
    js_divergence,
    kmeans,
    laplacian_eigengaps,
    normalized_laplacian,
    similarity_matrix,
    spectral_cluster,
    symmetric_eig,
)
from fedsim.data import ClassDistribution
from fedsim.errors import NumericError, ParameterError

LN2 = math.log(2.0)

simplexes = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
).map(lambda xs: np.array(xs) / np.sum(xs))


def entropy(p):
    mask = p > 0
    return -float(np.sum(p[mask] * np.log(p[mask])))


# two mixes that differ only in the last bits of their entries
NEAR_P = [0.1, 0.2, 0.3, 0.4]
NEAR_Q = [0.10000000000000002, 0.20000000000000004, 0.30000000000000004, 0.39999999999999997]


class TestJsDivergence:
    def test_identical_distributions(self):
        p = np.full(4, 0.25)
        assert js_divergence(p, p) == 0.0

    def test_disjoint_supports_reach_ln2(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)

    def test_hand_evaluated_pair(self):
        # 0.5*KL(p||m) + 0.5*KL(q||m) worked out by hand for m = (0.375, 0.625)
        got = js_divergence([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(0.0338220755686052, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            js_divergence([0.5, 0.5], [0.3, 0.3, 0.4])
        with pytest.raises(ParameterError):
            js_divergence([1.2, -0.2], [0.5, 0.5])

    def test_rejects_non_finite_input(self):
        with pytest.raises(ParameterError):
            js_divergence([math.nan, 0.5, 0.5], [0.25, 0.25, 0.5])

    def test_nearly_equal_pair_is_not_negative(self):
        # rounding leaves the two half-KL terms of this pair summing to about -2.2e-17
        assert js_divergence(NEAR_P, NEAR_Q) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_entropy_form_oracle(self, data):
        # JS(p, q) = H(m) - (H(p) + H(q)) / 2 is an independent formulation
        p = data.draw(simplexes)
        q = data.draw(st.just(np.roll(p, 1)) | simplexes.filter(lambda x: len(x) == len(p)))
        m = 0.5 * (p + q)
        expected = entropy(m) - 0.5 * (entropy(p) + entropy(q))
        assert js_divergence(p, q) == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= js_divergence(p, q) <= LN2 + 1e-12
        assert js_divergence(p, q) == pytest.approx(js_divergence(q, p), abs=1e-15)


def dist(props, count=100):
    return ClassDistribution(np.asarray(props, dtype=float), count)


class TestSimilarityMatrix:
    def test_identical_clients_all_ones(self):
        dists = [dist([0.25, 0.25, 0.25, 0.25])] * 3
        sim = similarity_matrix(dists, 1.0, 1.0)
        np.testing.assert_array_equal(sim.entries, np.ones((3, 3)))

    def test_nearly_equal_mixes_stay_in_unit_interval(self):
        # a JS term a few ulps below 0 would push this entry above 1 at lambda1 = 10
        sim = similarity_matrix([dist(NEAR_P), dist(NEAR_Q)], 10.0, 1.0)
        np.testing.assert_array_equal(sim.entries, np.ones((2, 2)))

    def test_zero_lambdas_all_ones(self):
        dists = [dist([1, 0], 10), dist([0, 1], 1000)]
        sim = similarity_matrix(dists, 0.0, 0.0)
        np.testing.assert_array_equal(sim.entries, np.ones((2, 2)))

    def test_disjoint_pair_equal_counts(self):
        sim = similarity_matrix([dist([1, 0]), dist([0, 1])], 1.0, 1.0)
        assert sim.entries[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_exact_symmetry_and_unit_diagonal(self, rng):
        dists = [dist(p) for p in rng.dirichlet(np.ones(4), size=8)]
        sim = similarity_matrix(dists, 2.0, 0.5)
        np.testing.assert_array_equal(sim.entries, sim.entries.T)
        np.testing.assert_array_equal(np.diagonal(sim.entries), np.ones(8))

    def test_monotone_in_divergence(self):
        base = dist([0.5, 0.5])
        near = dist([0.45, 0.55])
        far = dist([0.1, 0.9])
        s_near = similarity_matrix([base, near], 1.0, 0.0).entries[0, 1]
        s_far = similarity_matrix([base, far], 1.0, 0.0).entries[0, 1]
        assert s_near > s_far

    def test_type_invariants_enforced(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[0.9, 0.2], [0.2, 0.9]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[1.0, math.nan], [math.nan, 1.0]]))

    @pytest.mark.parametrize("n_classes", [2, 4, 10, 16])
    def test_matches_scalar_reference(self, n_classes):
        # C >= 8 sums through numpy's unrolled pairwise loop, whose order
        # differs from the masked 1-D sum in js_divergence
        rng = np.random.default_rng(n_classes)
        props = rng.dirichlet(np.full(n_classes, 0.5), size=25)
        props[rng.random(props.shape) < 0.3] = 0.0
        props[props.sum(axis=1) == 0.0, 0] = 1.0
        props /= props.sum(axis=1, keepdims=True)
        counts = rng.integers(1, 400, size=25)
        assert np.any(props == 0.0) and len(set(counts.tolist())) > 1
        lambda1, lambda2 = 1.7, 0.6
        sim = similarity_matrix([dist(p, int(c)) for p, c in zip(props, counts)], lambda1, lambda2)
        for i in range(25):
            for j in range(25):
                gap = abs(int(counts[i]) - int(counts[j])) / int(counts[i] + counts[j])
                expected = math.exp(-lambda1 * js_divergence(props[i], props[j]) - lambda2 * gap)
                assert sim.entries[i, j] == pytest.approx(expected, rel=1e-15, abs=0.0)
        np.testing.assert_array_equal(sim.entries, sim.entries.T)
        np.testing.assert_array_equal(np.diagonal(sim.entries), np.ones(25))

    def test_rejects_distributions_of_different_length(self):
        with pytest.raises(ParameterError):
            similarity_matrix([dist([0.5, 0.5]), dist([0.2, 0.3, 0.5])])


class TestNormalizedLaplacian:
    def test_single_client(self):
        lap = normalized_laplacian(SimilarityMatrix(np.array([[1.0]])))
        np.testing.assert_array_equal(lap, [[0.0]])

    def test_uniform_graph_nullvector(self):
        sim = SimilarityMatrix(np.ones((3, 3)))
        lap = normalized_laplacian(sim)
        values, vectors = symmetric_eig(lap)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        direction = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
        np.testing.assert_allclose(np.abs(direction), np.full(3, 1 / math.sqrt(3)), atol=1e-10)

    def test_known_nullvector_of_random_similarity(self, rng):
        dists = [dist(p, int(c)) for p, c in zip(rng.dirichlet(np.ones(3), size=10), rng.integers(50, 200, 10))]
        sim = similarity_matrix(dists, 1.0, 1.0)
        lap = normalized_laplacian(sim)
        null = np.sqrt(sim.entries.sum(axis=1))
        residual = np.linalg.norm(lap @ null)
        assert residual < 1e-8 * np.linalg.norm(null)

    def test_spectrum_in_zero_two(self, rng):
        dists = [dist(p) for p in rng.dirichlet(np.ones(4), size=12)]
        lap = normalized_laplacian(similarity_matrix(dists, 1.5, 0.0))
        values = np.linalg.eigvalsh(lap)  # independent eigensolver as oracle
        assert values[0] > -1e-10
        assert values[-1] < 2.0 + 1e-10


class TestSymmetricEig:
    def test_identity(self):
        values, vectors = symmetric_eig(np.eye(4))
        np.testing.assert_allclose(values, np.ones(4))
        np.testing.assert_allclose(vectors, np.eye(4))

    def test_diagonal_sorted_with_permuted_basis(self):
        values, vectors = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_reconstruction_oracle(self, rng):
        a = rng.standard_normal((10, 10))
        a = 0.5 * (a + a.T)
        values, vectors = symmetric_eig(a)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        assert np.max(np.abs(rebuilt - a)) < 1e-8

    def test_residuals_and_orthonormality(self, rng):
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        values, vectors = symmetric_eig(a)
        for k in range(20):
            assert np.linalg.norm(a @ vectors[:, k] - values[k] * vectors[:, k]) < 1e-8
        assert np.max(np.abs(vectors.T @ vectors - np.eye(20))) < 1e-8

    def test_constructed_spectrum_oracle(self):
        # A = Q diag(lam) Q^T with a known spectrum; the triple eigenvalue 0.2
        # has no unique eigenvectors, so its eigenspace is compared by projector
        lam = np.array([-3.0, -1.5, 0.2, 0.2, 0.2, 1.0, 2.5, 4.0, 5.5, 7.0])
        q, _ = np.linalg.qr(np.random.default_rng(2024).standard_normal((10, 10)))
        a = q @ np.diag(lam) @ q.T
        a = 0.5 * (a + a.T)
        values, vectors = symmetric_eig(a)
        np.testing.assert_allclose(values, lam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(10), rtol=0, atol=1e-12)
        for k in (0, 1, 5, 6, 7, 8, 9):
            aligned = vectors[:, k] * np.sign(vectors[:, k] @ q[:, k])
            np.testing.assert_allclose(aligned, q[:, k], rtol=0, atol=1e-10)
        repeated = slice(2, 5)
        np.testing.assert_allclose(
            vectors[:, repeated] @ vectors[:, repeated].T,
            q[:, repeated] @ q[:, repeated].T,
            rtol=0,
            atol=1e-10,
        )

    def test_sign_convention(self, rng):
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T)
        _, vectors = symmetric_eig(a)
        for k in range(6):
            first = vectors[np.abs(vectors[:, k]) > 1e-12, k][0]
            assert first > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            symmetric_eig(np.array([[1.0, bad], [bad, 1.0]]))

    def test_lapack_failure_is_numeric_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError, match="did not converge"):
            symmetric_eig(np.eye(3))


class TestKmeans:
    def test_single_cluster(self, rng):
        points = rng.standard_normal((7, 3))
        result = kmeans(points, 1, 0)
        np.testing.assert_array_equal(result.labels, np.zeros(7, dtype=np.int64))

    def test_all_singletons_with_distinct_points(self):
        points = np.arange(10, dtype=float).reshape(5, 2)
        result = kmeans(points, 5, 3)
        # canonical relabeling: cluster ids follow ascending smallest member
        np.testing.assert_array_equal(result.labels, np.arange(5))

    def test_planted_blobs_recovered(self, rng):
        spread = 0.05
        a = rng.normal(0.0, spread, size=(12, 2))
        b = rng.normal(0.0, spread, size=(12, 2)) + [10 * spread * 20, 0.0]
        points = np.vstack([a, b])
        truth = np.array([0] * 12 + [1] * 12)
        result = kmeans(points, 2, 9)
        assert adjusted_rand_index(result.labels, truth) == 1.0

    def test_determinism(self, rng):
        points = rng.standard_normal((30, 4))
        a = kmeans(points, 4, 11)
        b = kmeans(points, 4, 11)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, 0)


class TestSpectralCluster:
    def block_similarity(self):
        entries = np.full((10, 10), 0.05)
        entries[:5, :5] = 0.95
        entries[5:, 5:] = 0.95
        np.fill_diagonal(entries, 1.0)
        return SimilarityMatrix(entries)

    def test_single_cluster(self):
        result = spectral_cluster(self.block_similarity(), 1, 0)
        np.testing.assert_array_equal(result.labels, np.zeros(10, dtype=np.int64))

    def test_two_block_model_recovered_exactly(self):
        result = spectral_cluster(self.block_similarity(), 2, 0)
        truth = np.array([0] * 5 + [1] * 5)
        assert adjusted_rand_index(result.labels, truth) == 1.0

    def test_n_singletons(self, rng):
        dists = [dist(p) for p in rng.dirichlet(np.ones(4) * 5, size=6)]
        sim = similarity_matrix(dists, 4.0, 0.0)
        result = spectral_cluster(sim, 6, 1)
        assert result.n_clusters == 6
        assert len(set(result.labels.tolist())) == 6

    def test_canonical_relabeling(self):
        result = spectral_cluster(self.block_similarity(), 2, 5)
        # cluster containing client 0 must be labelled 0
        assert result.labels[0] == 0

    def test_eigengap_report(self):
        values, gaps = laplacian_eigengaps(self.block_similarity())
        assert len(values) == 10
        assert len(gaps) == 9
        # two planted blocks: large gap after the second eigenvalue
        assert gaps[1] == np.max(gaps)

    def test_cluster_count_bounds(self):
        with pytest.raises(ParameterError):
            spectral_cluster(self.block_similarity(), 11, 0)


class TestClusterAssignment:
    def test_every_cluster_occupied(self):
        with pytest.raises(ParameterError):
            ClusterAssignment(np.array([0, 0, 0]), 2)

    def test_sizes(self):
        a = ClusterAssignment(np.array([0, 1, 0, 1, 1]), 2)
        np.testing.assert_array_equal(a.cluster_sizes(), [2, 3])


class TestAdjustedRandIndex:
    def test_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_permutation_invariance(self):
        assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
        assert adjusted_rand_index([0, 1, 2, 0], [2, 0, 1, 2]) == 1.0

    def test_disagreement_below_one(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 1.0
