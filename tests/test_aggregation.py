import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.aggregation import (
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
from fedsim.errors import ParameterError, ProtocolError
from fedsim.model import AdamState, ParamLayout

from conftest import angle_stack


def angular_gap(a, b):
    return abs(wrap_angle(a - b))


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
        with pytest.raises(ProtocolError):
            cluster_weighted_average(classical_rows(0.0), [5], ClusterAssignment(np.array([0, 1]), 2))

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            cluster_weighted_average(classical_rows(0.0, 1.0), [5], ClusterAssignment(np.array([0, 1]), 2))


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

    def test_degenerate_resultant(self):
        w = AggregationWeights.from_counts([1, 1])
        _, magnitude = circular_mean(np.array([0.0, math.pi]), w)
        assert magnitude < 1e-12

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
        with pytest.raises(ProtocolError):
            aggregate_quantum(angle_stack([0.1], [0.2]), [5], np.zeros((1, 1)))
        with pytest.raises(ProtocolError):
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
        with pytest.raises(ProtocolError):
            arithmetic_mean_quantum(angle_stack([0.4], [0.8]), [1, 3, 2])


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

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            fedadam_update(
                np.zeros(2),
                np.zeros(3),
                AdamState.zeros(2),
            )
