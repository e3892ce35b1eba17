import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (
    DEGENERATE_RESULTANT,
    AggregationWeights,
    aggregate_quantum,
    arithmetic_mean_quantum,
    circular_mean,
    cluster_weighted_average,
    fedadam_update,
    wrap_angle,
    wrap_angles,
)
from fedsim.clustering import ClusterAssignment
from fedsim.errors import ParameterError
from fedsim.model import AdamState, ParamLayout

from conftest import angle_stack, same_bits


def angular_gap(a, b):
    return abs(wrap_angle(a - b))


# Reference implementations: the scalar math.remainder wrap, the
# row-at-a-time resultant of aggregate_quantum, the inline arithmetic mean
# and the inline per-cluster weights that the shared primitives in
# fedsim.aggregation replace. Outputs must match them bit for bit.


def reference_wrap_angle(x):
    if -math.pi < x <= math.pi:
        return x
    y = math.remainder(x, 2.0 * math.pi)
    if y <= -math.pi:
        y += 2.0 * math.pi
    return y


def reference_wrap(values):
    return np.array([reference_wrap_angle(float(x)) for x in np.ravel(values)]).reshape(np.shape(values))


def reference_weights(counts):
    counts = np.asarray(counts, dtype=np.float64)
    return counts / counts.sum()


def reference_aggregate_quantum(angles, counts, fallback):
    rows = np.ascontiguousarray(angles.reshape(len(angles), -1).T)
    w = reference_weights(counts)
    sines = (w * np.sin(rows)).sum(axis=-1) + 0.0
    cosines = (w * np.cos(rows)).sum(axis=-1) + 0.0
    out = np.array(fallback, dtype=np.float64).reshape(-1)
    degenerate = []
    for j, (s, c) in enumerate(zip(sines.tolist(), cosines.tolist())):
        if math.hypot(s, c) < DEGENERATE_RESULTANT:
            degenerate.append(j)
        else:
            out[j] = math.atan2(s, c)
    return reference_wrap(out).reshape(np.shape(fallback)), degenerate


def reference_arithmetic_mean_quantum(angles, counts):
    mean = (reference_weights(counts)[:, None] * angles.reshape(len(angles), -1)).sum(axis=0)
    return reference_wrap(mean).reshape(angles.shape[1:])


def reference_cluster_weighted_average(classical, counts, labels, n_clusters):
    counts = np.asarray(counts, dtype=np.float64)
    out = np.empty((n_clusters, classical.shape[1]))
    for cluster in range(n_clusters):
        members = np.flatnonzero(labels == cluster)
        weights = counts[members] / counts[members].sum()
        out[cluster] = (weights[:, None] * classical[members]).sum(axis=0)
    return out


# client counts around numpy's pairwise summation, which starts at 8 terms
CLIENT_COUNTS = (1, 2, 7, 8, 9, 200)


def edge_case_angles(rng, n):
    """(n, 3, 2) angles: uniform dimensions, one at pi, one straddling the cut, two of signed zeros."""
    angles = rng.uniform(-math.pi, math.pi, (n, 6))
    angles[:, 0] = math.pi
    angles[:, 1] = rng.choice([math.pi, math.pi - 1e-3, -math.pi + 1e-3, -math.pi + 1e-12], n)
    angles[:, 2] = rng.choice([-0.0, 0.0], n)
    angles[:, 3] = -0.0
    return angles.reshape(n, 3, 2)


def collapsed_angles(n_pairs):
    """(2 * n_pairs, 1, 1) angles in opposite pairs, so with equal counts the resultant collapses."""
    base = np.linspace(-3.0, 0.1, n_pairs)
    return np.concatenate([base, base + math.pi]).reshape(-1, 1, 1)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [(3 * math.pi / 2, -math.pi / 2), (-math.pi, math.pi), (0.0, 0.0), (math.pi, math.pi)],
    )
    def test_examples(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)

    def test_in_range_values_pass_through_bitwise(self):
        for x in (-3.14159, -1.0, 0.0, 0.5, math.pi):
            assert wrap_angle(x) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            wrap_angle(float("nan"))
        with pytest.raises(ParameterError):
            wrap_angles(np.array([0.0, float("inf")]))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_congruence_and_range(self, x):
        y = wrap_angle(x)
        assert -math.pi < y <= math.pi
        assert math.cos(y) == pytest.approx(math.cos(x), abs=1e-9)
        assert math.sin(y) == pytest.approx(math.sin(x), abs=1e-9)
        assert wrap_angle(y) == y

    def test_vectorized_matches_scalar(self, rng):
        xs = rng.uniform(-50, 50, 64)
        wrapped = wrap_angles(xs)
        for x, y in zip(xs, wrapped):
            assert y == pytest.approx(wrap_angle(x), abs=1e-12)

    @pytest.mark.parametrize("magnitude", [math.pi, 5 * math.pi, 100.0, 1e6, 1e10, 1e15])
    def test_matches_the_remainder_reference_bitwise(self, magnitude):
        xs = np.random.default_rng(7).uniform(-magnitude, magnitude, 20000)
        exact = [0.0, -0.0, math.pi, -math.pi, np.nextafter(-math.pi, 0.0), np.nextafter(math.pi, 4.0)]
        xs = np.concatenate([xs, exact, np.arange(-8, 9) * math.pi])
        wrapped = wrap_angles(xs)
        assert same_bits(wrapped, reference_wrap(xs))
        assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)
        assert all(same_bits(wrap_angle(x), y) for x, y in zip(xs[::97].tolist(), wrapped[::97]))


class TestAggregationWeights:
    def test_from_counts(self):
        w = AggregationWeights.from_counts([1, 3])
        np.testing.assert_array_equal(w.weights, [0.25, 0.75])

    def test_integer_scaling_invariance(self):
        a = AggregationWeights.from_counts([7, 11, 2])
        b = AggregationWeights.from_counts([21, 33, 6])
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_sum_enforced(self):
        with pytest.raises(ParameterError):
            AggregationWeights(np.array([0.5, 0.4]))
        with pytest.raises(ParameterError):
            AggregationWeights(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan], [np.inf, -np.inf]])
    def test_rejects_nan_or_infinite_weights(self, weights):
        with pytest.raises(ParameterError, match="finite"):
            AggregationWeights(np.array(weights))

    @pytest.mark.parametrize("weights", [np.array([[0.5, 0.5]]), np.array([]), np.float64(1.0)])
    def test_rejects_a_non_vector_or_empty_array(self, weights):
        with pytest.raises(ParameterError, match="non-empty vector"):
            AggregationWeights(weights)

    @pytest.mark.parametrize("counts", [[0, 0], [0.0], [-3, 2], [np.nan, 2.0], [np.inf, 2.0], [np.inf, -np.inf]])
    def test_rejects_counts_without_a_positive_total(self, counts):
        with pytest.raises(ParameterError, match="total sample count must be positive"):
            AggregationWeights.from_counts(counts)

    def test_rejects_a_negative_count_with_a_positive_total(self):
        with pytest.raises(ParameterError, match="non-negative"):
            AggregationWeights.from_counts([-1, 3])


def classical_rows(*values):
    """A five-entry classical block per client, every entry of row i set to values[i]."""
    return np.repeat(np.array(values, dtype=np.float64)[:, None], 5, axis=1)


class TestClusterWeightedAverage:
    def test_singleton_cluster_is_identity(self):
        classical = classical_rows(1.25)
        result = cluster_weighted_average(classical, [17], ClusterAssignment(np.array([0]), 1))
        np.testing.assert_array_equal(result[0], classical[0])

    def test_equal_counts_midpoint(self):
        result = cluster_weighted_average(classical_rows(0.0, 4.0), [10, 10], ClusterAssignment(np.array([0, 0]), 1))
        np.testing.assert_allclose(result[0], np.full(5, 2.0), atol=1e-15)

    def test_count_weighted(self):
        result = cluster_weighted_average(classical_rows(0.0, 4.0), [1, 3], ClusterAssignment(np.array([0, 0]), 1))
        np.testing.assert_allclose(result[0], np.full(5, 3.0), atol=1e-15)

    def test_matches_elementwise_oracle(self, rng):
        classical = rng.standard_normal((6, 5))
        counts = rng.integers(5, 60, 6)
        labels = np.array([0, 1, 0, 1, 1, 0])
        result = cluster_weighted_average(classical, counts, ClusterAssignment(labels, 2))
        assert result.shape == (2, 5)
        for cluster in (0, 1):
            members = [i for i, lab in enumerate(labels) if lab == cluster]
            total = sum(counts[i] for i in members)
            for k in range(5):
                expected = sum(counts[i] * classical[i, k] for i in members) / total
                assert result[cluster][k] == pytest.approx(expected, abs=1e-12)

    def test_missing_update_rejected(self):
        with pytest.raises(ParameterError):
            cluster_weighted_average(classical_rows(0.0), [5], ClusterAssignment(np.array([0, 1]), 2))

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            cluster_weighted_average(classical_rows(0.0, 1.0), [5], ClusterAssignment(np.array([0, 1]), 2))

    @pytest.mark.parametrize("counts", [[np.nan, 2.0], [np.inf, 2.0]])
    def test_nan_or_infinite_counts_rejected(self, counts):
        with pytest.raises(ParameterError, match="total sample count"):
            cluster_weighted_average(np.ones((2, 3)), counts, ClusterAssignment.single(2))


class TestCircularMean:
    def test_identical_angles(self):
        w = AggregationWeights.from_counts([2, 3, 5])
        angle, magnitude = circular_mean(np.full(3, 1.1), w)
        assert angle == pytest.approx(1.1, abs=1e-15)
        assert magnitude == pytest.approx(1.0, abs=1e-12)

    def test_branch_cut_symmetry_gives_pi(self):
        w = AggregationWeights.from_counts([1, 1])
        angle, magnitude = circular_mean(np.array([math.pi - 0.1, -math.pi + 0.1]), w)
        assert angle == pytest.approx(math.pi, abs=1e-9)
        assert magnitude == pytest.approx(math.cos(0.1), abs=1e-12)

    def test_weighted_unit_vector_sum(self):
        w = AggregationWeights(np.array([0.75, 0.25]))
        angle, _ = circular_mean(np.array([0.0, math.pi / 2]), w)
        assert angle == pytest.approx(0.3217505543966422, abs=1e-12)

    def test_angles_and_weights_of_different_lengths_rejected(self):
        with pytest.raises(ParameterError, match="equal length"):
            circular_mean(np.zeros(3), AggregationWeights.from_counts([1, 1]))

    def test_degenerate_resultant(self):
        w = AggregationWeights.from_counts([1, 1])
        _, magnitude = circular_mean(np.array([0.0, math.pi]), w)
        assert magnitude < 1e-12

    def test_negative_zero_angle_gives_positive_zero(self):
        # a numpy whose sums start from the first element sums this sine to -0.0 (numpy 2 starts
        # from +0.0); the + 0.0 guard keeps the mean at +0.0, as it keeps a -0.0 sine sum off -pi
        mean, magnitude = circular_mean(np.array([-0.0]), AggregationWeights.from_counts([1]))
        assert math.copysign(1.0, mean) == 1.0
        assert magnitude == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        angles=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=8),
        shift=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_rotation_equivariance(self, angles, shift):
        angles = np.array(angles)
        w = AggregationWeights.from_counts(np.ones(len(angles)))
        base, _ = circular_mean(angles, w)
        shifted, _ = circular_mean(angles + shift, w)
        assert angular_gap(shifted, base + shift) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(
        angles=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=8),
        data=st.data(),
    )
    def test_two_pi_invariance(self, angles, data):
        angles = np.array(angles)
        ks = np.array(data.draw(st.lists(
            st.integers(min_value=-3, max_value=3), min_size=len(angles), max_size=len(angles)
        )))
        w = AggregationWeights.from_counts(np.ones(len(angles)))
        base, _ = circular_mean(angles, w)
        shifted, _ = circular_mean(angles + 2 * math.pi * ks, w)
        assert angular_gap(shifted, base) < 1e-10


class TestAggregateQuantum:
    def test_single_client_passthrough(self):
        fallback = np.zeros((2, 1))
        result, degenerate = aggregate_quantum(angle_stack([2.0, -1.0]), [10], fallback)
        np.testing.assert_allclose(result.ravel(), [2.0, -1.0], atol=1e-15)
        assert degenerate == []

    def test_identical_clients_passthrough(self):
        fallback = np.zeros((2, 1))
        result, _ = aggregate_quantum(angle_stack(*[[0.5, -2.5]] * 4), [10] * 4, fallback)
        np.testing.assert_allclose(result.ravel(), [0.5, -2.5], atol=1e-12)

    def test_degenerate_dimension_uses_fallback(self):
        fallback = np.array([[0.123], [9.0]])
        result, degenerate = aggregate_quantum(angle_stack([0.0, 1.0], [math.pi, 1.0]), [5, 5], fallback)
        assert degenerate == [0]
        assert result.ravel()[0] == pytest.approx(0.123, abs=1e-15)
        assert result.ravel()[1] == pytest.approx(1.0, abs=1e-12)

    def test_branch_cut_consensus(self):
        angles = angle_stack([math.pi - 0.1], [-math.pi + 0.1])
        result, degenerate = aggregate_quantum(angles, [7, 7], np.zeros((1, 1)))
        assert result.ravel()[0] == pytest.approx(math.pi, abs=1e-9)
        assert degenerate == []

    def test_result_has_the_fallback_shape(self):
        angles = angle_stack(*[[0.1 * i, -0.2, 0.3, 0.4] for i in range(3)])
        result, _ = aggregate_quantum(angles, [5] * 3, np.zeros((2, 2)))
        assert result.shape == (2, 2)

    def test_fallback_size_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            aggregate_quantum(angle_stack([0.1, 0.2]), [5], np.zeros((3, 1)))

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            aggregate_quantum(angle_stack([0.1], [0.2]), [5], np.zeros((1, 1)))
        with pytest.raises(ParameterError):
            aggregate_quantum(np.zeros((0, 1, 1)), [], np.zeros((1, 1)))

    def test_reads_a_view_of_the_upload_stack(self):
        # the angle block of an (n, P) stack, as run_round passes it, equals a fresh copy of it
        layout = ParamLayout(2, 1, 2, 2)
        stack = np.random.default_rng(4).uniform(-math.pi, math.pi, (5, layout.size))
        view = layout.angles(stack)
        assert not view.flags.c_contiguous
        counts = [3, 1, 4, 1, 5]
        fallback = np.zeros((2, 2))
        for got, want in zip(aggregate_quantum(view, counts, fallback), aggregate_quantum(view.copy(), counts, fallback)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(arithmetic_mean_quantum(view, counts), arithmetic_mean_quantum(view.copy(), counts))


class TestArithmeticMeanQuantum:
    def test_shape_is_layers_by_qubits(self):
        assert arithmetic_mean_quantum(angle_stack(*[[0.7, -0.2, 0.1]] * 2), [10, 10]).shape == (3, 1)

    def test_identical_clients(self):
        result = arithmetic_mean_quantum(angle_stack(*[[0.7, -0.2]] * 3), [10] * 3)
        np.testing.assert_allclose(result.ravel(), [0.7, -0.2], atol=1e-15)

    def test_branch_cut_collapse_to_zero(self):
        # the failure mode the circular mean exists to avoid
        result = arithmetic_mean_quantum(angle_stack([math.pi - 0.1], [-math.pi + 0.1]), [7, 7])
        assert result.ravel()[0] == 0.0

    def test_count_weighted(self):
        result = arithmetic_mean_quantum(angle_stack([0.4], [0.8]), [1, 3])
        assert result.ravel()[0] == pytest.approx(0.7, abs=1e-15)

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            arithmetic_mean_quantum(angle_stack([0.4], [0.8]), [1, 3, 2])


class TestMatchesReferences:
    @pytest.mark.parametrize("n", CLIENT_COUNTS)
    def test_aggregate_quantum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            angles = edge_case_angles(rng, n)
            counts = rng.integers(1, 120, n)
            fallback = rng.uniform(-math.pi, math.pi, (3, 2))
            got, got_degenerate = aggregate_quantum(angles, counts, fallback)
            want, want_degenerate = reference_aggregate_quantum(angles, counts, fallback)
            assert same_bits(got, want)
            assert got_degenerate == want_degenerate

    @pytest.mark.parametrize("n_pairs", [1, 4, 100])
    def test_aggregate_quantum_collapsed_dimension(self, n_pairs):
        angles = collapsed_angles(n_pairs)
        counts = np.full(len(angles), 5)
        got, degenerate = aggregate_quantum(angles, counts, np.full((1, 1), 0.25))
        want, want_degenerate = reference_aggregate_quantum(angles, counts, np.full((1, 1), 0.25))
        assert same_bits(got, want)
        assert degenerate == want_degenerate
        if n_pairs == 1:
            assert degenerate == [0] and got[0, 0] == 0.25

    @pytest.mark.parametrize("n", CLIENT_COUNTS)
    def test_arithmetic_mean_quantum(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            angles = edge_case_angles(rng, n)
            counts = rng.integers(1, 120, n)
            assert same_bits(arithmetic_mean_quantum(angles, counts), reference_arithmetic_mean_quantum(angles, counts))
        collapsed = collapsed_angles(max(n // 2, 1))
        counts = np.full(len(collapsed), 7)
        assert same_bits(
            arithmetic_mean_quantum(collapsed, counts), reference_arithmetic_mean_quantum(collapsed, counts)
        )

    @pytest.mark.parametrize("n", CLIENT_COUNTS)
    def test_cluster_weighted_average(self, n):
        rng = np.random.default_rng(200 + n)
        classical = rng.standard_normal((n, 11))
        counts = rng.integers(1, 120, n)
        # one cluster; every client alone; the first clients alone, the rest together
        for labels in (np.zeros(n), np.arange(n), np.minimum(np.arange(n), 3)):
            assignment = ClusterAssignment(labels, int(labels.max()) + 1)
            assert same_bits(
                cluster_weighted_average(classical, counts, assignment),
                reference_cluster_weighted_average(classical, counts, assignment.labels, assignment.n_clusters),
            )


class TestFedadamUpdate:
    def test_fixed_point(self):
        phi = np.array([0.4, -1.2])
        state = AdamState.zeros(2)
        after, new_state = fedadam_update(phi, phi, state)
        np.testing.assert_array_equal(after, phi)
        np.testing.assert_array_equal(new_state.m, np.zeros(2))
        np.testing.assert_array_equal(new_state.v, np.zeros(2))
        assert new_state.t == 1

    def test_first_step_bias_correction(self):
        phi_t = np.array([0.5])
        phi_bar = np.array([0.0])
        after, state = fedadam_update(phi_t, phi_bar, AdamState.zeros(1),
                                      beta1=0.9, beta2=0.999, eta=0.001, eps=1e-8)
        # g = 0.5: m_hat = 0.5, v_hat = 0.25, step = eta * 0.5 / (0.5 + 1e-8)
        expected = 0.5 - 0.001 * 0.5 / (0.5 + 1e-8)
        assert after[0] == pytest.approx(expected, abs=1e-15)
        assert state.m[0] == pytest.approx(0.05, abs=1e-15)
        assert state.v[0] == pytest.approx(0.00025, abs=1e-18)

    def test_twenty_step_trajectory_vs_recurrence_oracle(self):
        b1, b2, eta, eps = 0.9, 0.999, 0.001, 1e-8
        target = 0.2
        phi = np.array([0.9])
        state = AdamState.zeros(1)
        gaps = [abs(phi[0] - target)]
        trajectory = []
        for _ in range(20):
            phi, state = fedadam_update(phi, np.array([target]), state, b1, b2, eta, eps)
            trajectory.append(phi[0])
            gaps.append(abs(phi[0] - target))

        # independent scalar replay
        x, m, v = 0.9, 0.0, 0.0
        expected = []
        for t in range(1, 21):
            g = x - target
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - eta * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            expected.append(x)
        np.testing.assert_allclose(trajectory, expected, atol=1e-12)
        assert all(late < early for early, late in zip(gaps, gaps[1:]))

    def test_branch_cut_gap_closes(self):
        # 0.02 rad apart across the -pi/pi cut: the step must move toward the
        # aggregate, exactly as for the same pair rotated away from the cut
        phi, state = np.array([math.pi - 0.01]), AdamState.zeros(1)
        rotated, rotated_state = np.array([-0.01]), AdamState.zeros(1)
        for _ in range(5):
            phi, state = fedadam_update(phi, np.array([-math.pi + 0.01]), state, eta=0.05)
            rotated, rotated_state = fedadam_update(rotated, np.array([0.01]), rotated_state, eta=0.05)
        assert abs(wrap_angle(phi[0] - math.pi - rotated[0])) < 1e-12
        assert abs(wrap_angle(phi[0] - (-math.pi + 0.01))) < 0.02

    def test_output_wrapped(self):
        phi_t = np.array([math.pi])
        phi_bar = np.array([-math.pi + 0.5])
        after, _ = fedadam_update(phi_t, phi_bar, AdamState.zeros(1), eta=1.5)
        assert -math.pi < after[0] <= math.pi

    @pytest.mark.parametrize(
        "step", [{"eta": math.nan}, {"eps": math.nan}, {"eta": 0.0}, {"eps": -1e-8}, {"eta": math.inf}, {"eps": math.inf}]
    )
    def test_rejects_nan_or_non_positive_step_settings(self, step):
        with pytest.raises(ParameterError, match="eta and eps"):
            fedadam_update(np.zeros(2), np.ones(2), AdamState.zeros(2), **step)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            fedadam_update(
                np.zeros(2),
                np.zeros(3),
                AdamState.zeros(2),
            )

    @pytest.mark.parametrize("state", [AdamState.zeros(3), AdamState.zeros(1), AdamState.zeros((1, 2))])
    def test_state_of_another_size_rejected_by_the_shared_step(self, state):
        # the server's moments are flat vectors of the angles' size; adam_step's one shape rule checks them
        with pytest.raises(ParameterError, match="params, grads and Adam moments must share one shape"):
            fedadam_update(np.zeros(2), np.ones(2), state)
