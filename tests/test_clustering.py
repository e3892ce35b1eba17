import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import clustering
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
from fedsim.errors import NumericError, ParameterError

from conftest import same_bits

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


# Reference implementations: the row, column and restart loops that the
# whole-array passes in fedsim.clustering replace. Outputs must match them
# bit for bit.


def reference_half_kl_rows(a, m):
    a = np.broadcast_to(a, m.shape)
    ratio = np.divide(a, m, out=np.ones_like(m), where=a > 0)
    return 0.5 * np.sum(a * np.log(ratio), axis=1)


def reference_similarity_entries(props, counts, lambda1, lambda2):
    n = len(props)
    s = np.ones((n, n))
    for i in range(n - 1):
        rest = props[i + 1:]
        m = 0.5 * (props[i] + rest)
        div = np.maximum(reference_half_kl_rows(props[i], m) + reference_half_kl_rows(rest, m), 0.0)
        size_gap = np.abs(counts[i] - counts[i + 1:]) / (counts[i] + counts[i + 1:])
        s[i, i + 1:] = s[i + 1:, i] = np.exp(-lambda1 * div - lambda2 * size_gap)
    return s


def reference_sign_fix(vecs):
    vecs = vecs.copy()
    for k in range(vecs.shape[1]):
        nz = np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)
        if len(nz) and vecs[nz[0], k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vecs


def reference_lloyd(points, centers):
    """One restart's Lloyd iterations: labels, inertia and final centers."""
    centers = centers.copy()
    labels = None
    for _ in range(clustering.KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(len(centers)):
            members = labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, inertia, centers


def reference_kmeans_labels(points, k, seed):
    """Best restart's raw labels, one restart at a time, before repair."""
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, math.inf
    for _ in range(clustering.KMEANS_RESTARTS):
        labels, inertia, _ = reference_lloyd(points, clustering._plusplus_centers(points, k, rng))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def reference_kmeans(points, k, seed):
    labels = clustering._repair_empty_clusters(reference_kmeans_labels(points, k, seed), points, k)
    return clustering._canonical_labels(labels, k)


def random_mixes(rng, n, n_classes):
    """n class mixes over n_classes, about a third of their entries exactly 0."""
    props = rng.dirichlet(np.full(n_classes, 0.5), size=n)
    props[rng.random(props.shape) < 0.3] = 0.0
    props[props.sum(axis=1) == 0.0, 0] = 1.0
    return props / props.sum(axis=1, keepdims=True)


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


class TestSimilarityMatrix:
    def test_identical_clients_all_ones(self):
        sim = similarity_matrix(np.full((3, 4), 0.25), np.full(3, 100), 1.0, 1.0)
        np.testing.assert_array_equal(sim.entries, np.ones((3, 3)))

    def test_nearly_equal_mixes_stay_in_unit_interval(self):
        # a JS term a few ulps below 0 would push this entry above 1 at lambda1 = 10
        sim = similarity_matrix(np.array([NEAR_P, NEAR_Q]), np.array([100, 100]), 10.0, 1.0)
        np.testing.assert_array_equal(sim.entries, np.ones((2, 2)))

    def test_zero_lambdas_all_ones(self):
        sim = similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([10, 1000]), 0.0, 0.0)
        np.testing.assert_array_equal(sim.entries, np.ones((2, 2)))

    def test_disjoint_pair_equal_counts(self):
        sim = similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([100, 100]), 1.0, 1.0)
        assert sim.entries[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_exact_symmetry_and_unit_diagonal(self, rng):
        sim = similarity_matrix(rng.dirichlet(np.ones(4), size=8), np.full(8, 100), 2.0, 0.5)
        np.testing.assert_array_equal(sim.entries, sim.entries.T)
        np.testing.assert_array_equal(np.diagonal(sim.entries), np.ones(8))

    def test_monotone_in_divergence(self):
        counts = np.array([100, 100])
        s_near = similarity_matrix(np.array([[0.5, 0.5], [0.45, 0.55]]), counts, 1.0, 0.0).entries[0, 1]
        s_far = similarity_matrix(np.array([[0.5, 0.5], [0.1, 0.9]]), counts, 1.0, 0.0).entries[0, 1]
        assert s_near > s_far

    def test_type_invariants_enforced(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[0.9, 0.2], [0.2, 0.9]]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ParameterError):
            SimilarityMatrix(np.array([[1.0, math.nan], [math.nan, 1.0]]))

    @pytest.mark.parametrize("entries, named", [
        (np.ones((2, 3)), "square and non-empty"),
        (np.ones(4), "square and non-empty"),
        (np.zeros((0, 0)), "square and non-empty"),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), r"lie in \(0, 1\]"),
        (np.array([[1.0, -0.5], [-0.5, 1.0]]), r"lie in \(0, 1\]"),
        (np.array([[1.0, 1.5], [1.5, 1.0]]), r"lie in \(0, 1\]"),
    ])
    def test_rejects_a_non_square_or_empty_matrix_and_entries_outside_the_unit_interval(self, entries, named):
        with pytest.raises(ParameterError, match=named):
            SimilarityMatrix(entries)

    @pytest.mark.parametrize("lambdas", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0), (math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_nan_or_negative_lambdas(self, lambdas):
        with pytest.raises(ParameterError, match="lambda1 and lambda2"):
            similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([10, 20]), *lambdas)

    @pytest.mark.parametrize("props, counts, lambdas", [
        ([[1.0, 0.0], [0.0, 1.0]], [10, 10], (2000.0, 1.0)),  # JS = ln 2, so the exponent is about -1386
        ([[0.5, 0.5], [0.5, 0.5]], [1, 1000], (1.0, 2000.0)),  # size gap 0.998, exponent about -1996
    ])
    def test_underflow_to_zero_is_a_numeric_error(self, props, counts, lambdas):
        named = rf"in 1 of 1 client pairs at lambda1={lambdas[0]:g}, lambda2={lambdas[1]:g}"
        with pytest.raises(NumericError, match=named):
            similarity_matrix(np.array(props), np.array(counts), *lambdas)
        # the same pairs at a lambda whose exponent stays above -745 give a tiny positive similarity
        assert similarity_matrix(np.array(props), np.array(counts), *(min(x, 700.0) for x in lambdas)).entries[0, 1] > 0

    @pytest.mark.parametrize("n_classes", [2, 4, 10, 16])
    def test_matches_scalar_reference(self, n_classes):
        # C >= 8 sums through numpy's unrolled pairwise loop, whose order
        # differs from the masked 1-D sum in js_divergence
        rng = np.random.default_rng(n_classes)
        props = random_mixes(rng, 25, n_classes)
        counts = rng.integers(1, 400, size=25)
        assert np.any(props == 0.0) and len(set(counts.tolist())) > 1
        lambda1, lambda2 = 1.7, 0.6
        sim = similarity_matrix(props, counts, lambda1, lambda2)
        for i in range(25):
            for j in range(25):
                gap = abs(int(counts[i]) - int(counts[j])) / int(counts[i] + counts[j])
                expected = math.exp(-lambda1 * js_divergence(props[i], props[j]) - lambda2 * gap)
                assert sim.entries[i, j] == pytest.approx(expected, rel=1e-15, abs=0.0)
        np.testing.assert_array_equal(sim.entries, sim.entries.T)
        np.testing.assert_array_equal(np.diagonal(sim.entries), np.ones(25))

    @pytest.mark.parametrize("n_classes", [2, 4, 10, 16])
    def test_all_pairs_pass_matches_row_loop_bit_for_bit(self, n_classes):
        rng = np.random.default_rng(100 + n_classes)
        for n in range(1, 61):
            props = random_mixes(rng, n, n_classes)
            counts = rng.integers(1, 400, size=n)
            lambda1, lambda2 = rng.uniform(0.0, 5.0, size=2)
            sim = similarity_matrix(props, counts, lambda1, lambda2)
            assert same_bits(sim.entries, reference_similarity_entries(props, counts, lambda1, lambda2)), n

    def test_rejects_distributions_of_different_length(self):
        with pytest.raises(ParameterError, match="equal length"):
            similarity_matrix([[0.5, 0.5], [0.2, 0.3, 0.5]], [100, 100])
        with pytest.raises(ParameterError, match="3 sample counts for 2"):
            similarity_matrix(np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([100, 100, 100]))
        with pytest.raises(ParameterError, match="non-empty"):
            similarity_matrix(np.zeros((0, 2)), np.zeros(0))


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
        sim = similarity_matrix(rng.dirichlet(np.ones(3), size=10), rng.integers(50, 200, 10), 1.0, 1.0)
        lap = normalized_laplacian(sim)
        null = np.sqrt(sim.entries.sum(axis=1))
        residual = np.linalg.norm(lap @ null)
        assert residual < 1e-8 * np.linalg.norm(null)

    def test_spectrum_in_zero_two(self, rng):
        lap = normalized_laplacian(similarity_matrix(rng.dirichlet(np.ones(4), size=12), np.full(12, 100), 1.5, 0.0))
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

    def test_sign_pass_matches_column_loop_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 10, 33, 60):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            values, vectors = symmetric_eig(a)
            raw_values, raw_vectors = np.linalg.eigh(0.5 * (a + a.T))
            assert same_bits(values, raw_values)
            assert same_bits(vectors, reference_sign_fix(raw_vectors))

    def test_sign_pass_skips_exact_zero_leading_entries(self):
        # blocks on the diagonal: each eigenvector is exactly 0 outside its
        # block, so its first entries above 1e-12 sit past the top rows
        blocks = [
            np.array([[2.0]]),
            np.array([[1.0, -0.5], [-0.5, 3.0]]),
            np.array([[0.5, 0.2, 0.0], [0.2, -1.0, 0.7], [0.0, 0.7, 4.0]]),
        ]
        a = np.zeros((6, 6))
        start = 0
        for block in blocks:
            a[start:start + len(block), start:start + len(block)] = block
            start += len(block)
        for sign in (1.0, -1.0):
            values, vectors = symmetric_eig(sign * a)
            raw_vectors = np.linalg.eigh(sign * a)[1]
            leads = np.argmax(np.abs(raw_vectors) > 1e-12, axis=0)
            assert np.any(leads > 0) and np.any(raw_vectors == 0.0)
            assert same_bits(vectors, reference_sign_fix(raw_vectors))
            assert np.all(vectors[leads, np.arange(6)] > 0)

    def test_all_zero_column_is_left_alone(self, monkeypatch):
        # no entry above 1e-12: no leading entry, so no flip
        vecs = np.array([[-1e-13, 0.6], [0.0, -0.8]])
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.zeros(2), vecs.copy()))
        _, vectors = symmetric_eig(np.eye(2))
        assert same_bits(vectors, reference_sign_fix(vecs))
        assert vectors[0, 0] == -1e-13

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            symmetric_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError, match="square"):
            symmetric_eig(np.ones((2, 3)))

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

    @pytest.mark.parametrize("d", range(1, 10))
    def test_lockstep_restarts_match_one_restart_at_a_time(self, d):
        # d >= 8 takes numpy's unrolled pairwise sum for the squared distances
        rng = np.random.default_rng(d)
        for n in (1, 2, 5, 9, 17, 40):
            points = rng.standard_normal((n, d))
            if n > 4:
                points[rng.integers(n, size=n // 3)] = points[0]  # duplicate points
            for k in sorted({1, min(2, n), min(4, n), n}):
                seed = int(rng.integers(1000))
                got = kmeans(points, k, seed).labels
                np.testing.assert_array_equal(got, reference_kmeans(points, k, seed))

    @pytest.mark.parametrize("d", [1, 2, 5, 8, 9])
    def test_lloyd_stack_matches_each_restart_bit_for_bit(self, d):
        # labels, inertias and centers: a center one ulp off rarely moves a label
        rng = np.random.default_rng(20 + d)
        for n, k in ((1, 1), (12, 3), (40, 2), (60, 5), (60, 60)):
            points = rng.standard_normal((n, d))
            points[: n // 4] = np.round(points[: n // 4], 1)
            starts = np.stack([clustering._plusplus_centers(points, k, rng) for _ in range(6)])
            centers = starts.copy()
            labels, inertia = clustering._lloyd(points, centers)
            for r in range(len(starts)):
                ref_labels, ref_inertia, ref_centers = reference_lloyd(points, starts[r])
                np.testing.assert_array_equal(labels[r], ref_labels)
                assert same_bits(inertia[r], ref_inertia)
                np.testing.assert_array_equal(centers[r], ref_centers)  # 0.0 == -0.0 here

    def test_lockstep_matches_on_clustered_and_tied_points(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3, 8, 9):
            centres = rng.standard_normal((4, d)) * 3.0
            points = centres[rng.integers(4, size=60)] + rng.normal(0.0, 0.3, size=(60, d))
            points[::7] = np.round(points[::7])  # many equal coordinates
            for k in (2, 3, 4, 7):
                np.testing.assert_array_equal(kmeans(points, k, k).labels, reference_kmeans(points, k, k))
        lattice = np.array([[x, y] for x in range(3) for y in range(3)], dtype=float).repeat(2, axis=0)
        for k in range(1, len(lattice) + 1):
            np.testing.assert_array_equal(kmeans(lattice, k, 0).labels, reference_kmeans(lattice, k, 0))

    def test_spectral_embedding_of_wide_round_matches(self):
        rng = np.random.default_rng(42)
        sim = similarity_matrix(random_mixes(rng, 200, 4), rng.integers(1, 11, 200), 1.0, 1.0)
        embedding = symmetric_eig(normalized_laplacian(sim))[1][:, :4].copy()
        embedding /= np.linalg.norm(embedding, axis=1)[:, None]
        np.testing.assert_array_equal(kmeans(embedding, 4, 42).labels, reference_kmeans(embedding, 4, 42))

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros(4), np.zeros((2, 2, 2)), np.zeros((3, 0))])
    def test_rejects_points_that_are_not_a_non_empty_n_by_d_array(self, points):
        with pytest.raises(ParameterError, match=r"non-empty \(n, d\) array"):
            kmeans(points, 1, 0)

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, 0)

    @pytest.mark.parametrize("k, named", [(2.0, "k must be an integer, not 2.0"), (0, "k must be >= 1")])
    def test_k_that_is_not_a_count_rejected(self, k, named):
        # k = 2.0 once raised a bare TypeError from np.empty
        with pytest.raises(ParameterError, match=f"^{named}$"):
            kmeans(np.arange(8.0).reshape(4, 2), k, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        points = np.zeros((4, 2))
        points[2, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            kmeans(points, 2, 0)


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
        sim = similarity_matrix(rng.dirichlet(np.ones(4) * 5, size=6), np.full(6, 100), 4.0, 0.0)
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

    @pytest.mark.parametrize("n_clusters, named", [
        (1.5, "n_clusters must be an integer, not 1.5"), (2.0, "n_clusters must be an integer, not 2.0"),
        (0, "n_clusters must be >= 1"),
    ])
    def test_cluster_count_that_is_not_a_count_rejected(self, n_clusters, named):
        # 1.5 once raised a bare TypeError from slicing the eigenvectors
        with pytest.raises(ParameterError, match=f"^{named}$"):
            spectral_cluster(self.block_similarity(), n_clusters, 0)


class TestClusterAssignment:
    def test_every_cluster_occupied(self):
        with pytest.raises(ParameterError):
            ClusterAssignment(np.array([0, 0, 0]), 2)

    @pytest.mark.parametrize("labels, n_clusters, named", [
        (np.zeros(0), 1, "non-empty vector"),
        (np.zeros((2, 2)), 1, "non-empty vector"),
        (np.zeros(3), 0, "n_clusters must be >= 1"),
        (np.array([0, 1, 2]), 2, r"lie in \[0, n_clusters\)"),
        (np.array([0, -1, 1]), 2, r"lie in \[0, n_clusters\)"),
        (np.array([0.7, 1.2]), 2, "whole numbers"),
        (np.zeros(3), 1.5, r"n_clusters must be an integer, not 1\.5"),
        (np.zeros(3), 1.0, r"n_clusters must be an integer, not 1\.0"),
    ])
    def test_rejects_malformed_labels_or_cluster_count(self, labels, n_clusters, named):
        with pytest.raises(ParameterError, match=named):
            ClusterAssignment(labels, n_clusters)

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

    @pytest.mark.parametrize("labels_b", [[0, 0, 0], [5, 5, 5]])
    def test_one_cluster_on_both_sides_agrees_fully(self, labels_b):
        # the chance-corrected index is 0 / 0 here; agreement is total
        assert adjusted_rand_index([2, 2, 2], labels_b) == 1.0

    @pytest.mark.parametrize("labels_b", [[0, 1], [[0, 1, 1]]])
    def test_rejects_label_vectors_of_unequal_length(self, labels_b):
        with pytest.raises(ParameterError, match="identical length"):
            adjusted_rand_index([0, 1, 1], labels_b)
