import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fedsim import model
from fedsim.data import Dataset, generate_synthetic
from fedsim.errors import NumericError, ParameterError
from fedsim.model import (
    HALF_PI,
    AdamState,
    ParamLayout,
    adam_local_step,
    circuit_forward,
    epoch_batches,
    hybrid_loss_and_grads,
    init_params,
    local_train,
    mlp_forward,
    param_shift_grad,
    softmax_cross_entropy,
    statevector,
    _circuit_inputs,
    _offset_table,
    _simulate,
    _z_expectations,
)
from fedsim.orchestrator import ExperimentConfig, build_context, init_state, run_round


MODEL_LAYER_DIGEST = "5c95852b90b20b94c07dd96cdea90a251aa65e09b55a04652d50ef639affbd13"


def random_hybrid(rng, f=4, h=5, q=3, layers=1):
    layout = ParamLayout(f, h, q, layers)
    return layout, init_params(layout, int(rng.integers(1 << 30)))


def random_dense(rng):
    layout, params = random_hybrid(rng)
    return layout.dense(params)


def ry_matrix(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def dense_gate(single, qubit, n):
    out = np.array([[1.0]])
    for pos in range(n):
        out = np.kron(out, single if pos == qubit else np.eye(2))
    return out


def dense_cnot(control, target, n):
    dim = 2**n
    gate = np.zeros((dim, dim))
    for col in range(dim):
        if (col >> (n - 1 - control)) & 1:
            row = col ^ (1 << (n - 1 - target))
        else:
            row = col
        gate[row, col] = 1.0
    return gate


def dense_oracle_state(embedding, angles):
    """Statevector via explicit 2^Q x 2^Q matrix products."""
    layers, n = angles.shape
    psi = np.zeros(2**n)
    psi[0] = 1.0
    for q in range(n):
        psi = dense_gate(ry_matrix(math.pi * embedding[q]), q, n) @ psi
    for layer in range(layers):
        for q in range(n):
            psi = dense_gate(ry_matrix(angles[layer, q]), q, n) @ psi
        if n > 1:
            for q in range(n):
                psi = dense_cnot(q, (q + 1) % n, n) @ psi
    return psi


class TestMlp:
    def test_zero_parameters_zero_embedding(self):
        layout = ParamLayout(2, 3, 2, 1)
        embedding, _ = mlp_forward(layout.dense(np.zeros(layout.n_classical)), np.array([0.7, -0.3]))
        np.testing.assert_array_equal(embedding, np.zeros(2))

    def test_identity_chain(self):
        layout = ParamLayout(3, 3, 3, 1)
        w1, _, w2, _ = dense = layout.dense(np.zeros(layout.n_classical))
        w1[...] = np.eye(3)
        w2[...] = np.eye(3)
        x = np.array([0.2, -0.5, 1.5])
        embedding, _ = mlp_forward(dense, x)
        np.testing.assert_allclose(embedding, np.tanh(np.tanh(x)), atol=1e-15)

    def test_matches_dense_algebra_oracle(self, rng):
        w1, b1, w2, b2 = dense = random_dense(rng)
        x = rng.uniform(-1, 1, 4)
        embedding, _ = mlp_forward(dense, x)
        # independent recomputation with explicit loops
        hidden = np.array([math.tanh(sum(w1[i, j] * x[j] for j in range(4)) + b1[i]) for i in range(5)])
        expected = np.array([math.tanh(sum(w2[i, j] * hidden[j] for j in range(5)) + b2[i]) for i in range(3)])
        np.testing.assert_allclose(embedding, expected, atol=1e-12)

    def test_batch_forward_agrees(self, rng):
        dense = random_dense(rng)
        xs = rng.uniform(-1, 1, (6, 4))
        batch, _ = mlp_forward(dense, xs)
        assert batch.shape == (6, 3)
        for i in range(6):
            np.testing.assert_allclose(batch[i], mlp_forward(dense, xs[i])[0], atol=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ParameterError):
            mlp_forward(random_dense(rng), np.zeros(7))


class TestParamLayout:
    def test_views_tile_the_vector_in_order(self):
        layout = ParamLayout(4, 5, 3, 2)
        params = np.arange(layout.size, dtype=np.float64)
        w1, b1, w2, b2 = layout.dense(params)
        angles = layout.angles(params)
        assert (w1.shape, b1.shape, w2.shape, b2.shape, angles.shape) == ((5, 4), (5,), (3, 5), (3,), (2, 3))
        pieces = np.concatenate([w1.ravel(), b1, w2.ravel(), b2, angles.ravel()])
        np.testing.assert_array_equal(pieces, params)
        assert layout.n_classical == 20 + 5 + 15 + 3
        assert layout.size == layout.n_classical + 6

    def test_views_share_memory(self):
        layout = ParamLayout(2, 2, 2, 2)
        params = np.zeros(layout.size)
        layout.dense(params)[2][1, 0] = 7.0
        layout.angles(params)[1, 0] = -1.5
        assert params[4 + 2 + 2] == 7.0
        assert params[layout.n_classical + 2] == -1.5

    def test_classical_part_has_the_same_dense_views(self, rng):
        layout, params = random_hybrid(rng)
        full = layout.dense(params)
        part = layout.dense(params[:layout.n_classical].copy())
        for a, b in zip(full, part):
            np.testing.assert_array_equal(a, b)

    def test_wrong_length_rejected(self):
        layout = ParamLayout(2, 2, 2, 1)
        with pytest.raises(ParameterError):
            layout.dense(np.zeros(layout.size + 1))
        with pytest.raises(ParameterError):
            layout.angles(np.zeros(layout.n_classical))

    def test_init_keeps_its_draw_order(self):
        layout = ParamLayout(3, 4, 2, 2)
        params = init_params(layout, 9)
        rng = np.random.default_rng(9)
        lim1, lim2 = math.sqrt(6.0 / 7.0), math.sqrt(6.0 / 6.0)
        w1, b1, w2, b2 = layout.dense(params)
        np.testing.assert_array_equal(w1, rng.uniform(-lim1, lim1, (4, 3)))
        np.testing.assert_array_equal(w2, rng.uniform(-lim2, lim2, (2, 4)))
        np.testing.assert_array_equal(layout.angles(params).ravel(), np.pi - rng.uniform(0.0, 2.0 * np.pi, 4))
        assert not b1.any() and not b2.any()


class TestCircuit:
    def test_ground_state_all_logits_one(self):
        logits = circuit_forward(np.zeros(4), np.zeros((2, 4)), 4)
        np.testing.assert_allclose(logits, np.ones(4), atol=1e-12)

    def test_single_qubit_flip(self):
        logits = circuit_forward(np.zeros(1), np.array([[math.pi]]), 1)
        assert logits[0] == pytest.approx(-1.0, abs=1e-12)

    def test_single_qubit_closed_form(self):
        for theta in np.linspace(-3, 3, 7):
            logit = circuit_forward(np.zeros(1), np.array([[theta]]), 1)[0]
            assert logit == pytest.approx(math.cos(theta), abs=1e-12)

    def test_statevector_matches_dense_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            layers = int(rng.integers(1, 4))
            angles = rng.uniform(-math.pi, math.pi, (layers, n))
            embeddings = rng.uniform(-1, 1, (3, n))
            batch = statevector(embeddings, angles)
            assert batch.shape == (3, 2**n)
            for embedding, row in zip(embeddings, batch):
                want = dense_oracle_state(embedding, angles)
                assert np.max(np.abs(statevector(embedding, angles) - want)) < 1e-10
                assert np.max(np.abs(row - want)) < 1e-10

    def test_norm_preserved(self, rng):
        psi = statevector(rng.uniform(-1, 1, 4), rng.uniform(-math.pi, math.pi, (2, 4)))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_periodicity(self, rng):
        angles = rng.uniform(-math.pi, math.pi, (2, 3))
        embedding = rng.uniform(-1, 1, 3)
        base = circuit_forward(embedding, angles, 3)
        shifts = 2 * math.pi * rng.integers(-3, 4, (2, 3))
        np.testing.assert_allclose(circuit_forward(embedding, angles + shifts, 3), base, atol=1e-10)

    def test_logit_bounds(self, rng):
        for _ in range(20):
            embeddings = rng.uniform(-1, 1, (5, 4))
            angles = rng.uniform(-math.pi, math.pi, (2, 4))
            logits = circuit_forward(embeddings, angles, 4)
            assert logits.shape == (5, 4)
            assert np.all(logits <= 1.0 + 1e-12)
            assert np.all(logits >= -1.0 - 1e-12)
            # a batch equals its row-wise calls
            for embedding, row in zip(embeddings, logits):
                np.testing.assert_allclose(row, circuit_forward(embedding, angles, 4), rtol=0, atol=1e-15)

    def test_too_many_classes(self):
        with pytest.raises(ParameterError):
            circuit_forward(np.zeros(2), np.zeros((1, 2)), 3)

    def test_flat_angles_rejected(self):
        with pytest.raises(ParameterError):
            circuit_forward(np.zeros(2), np.zeros(2), 2)


class TestParamShift:
    def test_closed_form_gradient(self):
        grad_var, _ = param_shift_grad(np.zeros(1), np.array([[math.pi / 2]]), np.ones(1), 1)
        assert grad_var[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_stationary_point(self):
        grad_var, _ = param_shift_grad(np.zeros(1), np.array([[0.0]]), np.ones(1), 1)
        assert grad_var[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_batch_sums_angle_gradients_and_keeps_embedding_rows(self, rng):
        angles = rng.uniform(-math.pi, math.pi, (2, 4))
        embeddings = rng.uniform(-0.9, 0.9, (5, 4))
        upstream = rng.standard_normal((5, 3))
        grad_var, grad_emb = param_shift_grad(embeddings, angles, upstream, 3)
        assert grad_var.shape == angles.shape and grad_emb.shape == embeddings.shape
        rows = [param_shift_grad(e, angles, u, 3) for e, u in zip(embeddings, upstream)]
        np.testing.assert_allclose(grad_var, sum(g for g, _ in rows), rtol=0, atol=1e-14)
        for got, (_, want) in zip(grad_emb, rows):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_matches_finite_differences(self, rng):
        n, layers, classes = 4, 2, 4
        angles = rng.uniform(-math.pi, math.pi, (layers, n))
        embedding = rng.uniform(-0.9, 0.9, n)
        upstream = rng.standard_normal(classes)
        grad_var, grad_emb = param_shift_grad(embedding, angles, upstream, classes)
        assert grad_var.shape == angles.shape and grad_emb.shape == embedding.shape

        h = 1e-5

        def loss(var, emb):
            return float(upstream @ circuit_forward(emb, var, classes))

        for k in range(n * layers):
            plus = angles.copy()
            plus.flat[k] += h
            minus = angles.copy()
            minus.flat[k] -= h
            fd = (loss(plus, embedding) - loss(minus, embedding)) / (2 * h)
            assert abs(grad_var.flat[k] - fd) <= 1e-6 * max(abs(fd), 1.0)
        for k in range(n):
            plus = embedding.copy()
            plus[k] += h
            minus = embedding.copy()
            minus[k] -= h
            fd = (loss(angles, plus) - loss(angles, minus)) / (2 * h)
            assert abs(grad_emb[k] - fd) <= 1e-6 * max(abs(fd), 1.0)


class TestHybridLoss:
    def test_uniform_softmax_loss(self):
        loss, grad = softmax_cross_entropy(np.zeros(4), 2)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)
        np.testing.assert_allclose(grad, [0.25, 0.25, -0.75, 0.25], atol=1e-12)

    def test_softmax_batch_equals_row_wise_calls(self, rng):
        logits = rng.uniform(-1, 1, (6, 4))
        labels = rng.integers(0, 4, 6)
        losses, grads = softmax_cross_entropy(logits, labels)
        assert losses.shape == (6,) and grads.shape == (6, 4)
        for row, label, loss, grad in zip(logits, labels, losses, grads):
            want_loss, want_grad = softmax_cross_entropy(row, int(label))
            assert loss == want_loss
            np.testing.assert_array_equal(grad, want_grad)
        with pytest.raises(ParameterError):
            softmax_cross_entropy(logits, labels[:5])

    def test_batch_is_the_mean_of_single_sample_calls(self, rng):
        layout, params = random_hybrid(rng, f=4, h=5, q=3, layers=2)
        xs = rng.uniform(-1, 1, (32, 4))
        ys = rng.integers(0, 3, 32)
        loss, grad = hybrid_loss_and_grads(xs, ys, params, layout, 3)
        singles = [hybrid_loss_and_grads(xs[i:i + 1], ys[i:i + 1], params, layout, 3) for i in range(32)]
        assert loss == pytest.approx(np.mean([one for one, _ in singles]), rel=0, abs=1e-12)
        np.testing.assert_allclose(grad, np.mean([g for _, g in singles], axis=0), rtol=0, atol=1e-12)

    def test_prox_penalty_is_two_vector_dot_products(self, rng):
        # classical block, then angles, each one BLAS dot; an einsum or a stacked reduction differs in the last bits
        layout = ParamLayout(4, 5, 3, 2)
        xs = rng.uniform(-1, 1, (2, 4))
        ys = rng.integers(0, 3, 2)
        for seed in range(20):
            params = init_params(layout, seed)
            anchors = np.stack([init_params(layout, 100 + seed), params + 0.1 * rng.standard_normal(layout.size)])
            for anchor in anchors:
                plain, _ = hybrid_loss_and_grads(xs, ys, params, layout, 3)
                loss, _ = hybrid_loss_and_grads(xs, ys, params, layout, 3, 2.0, anchor)
                diff_c, diff_q = np.split(params - anchor, [layout.n_classical])
                assert loss == plain + 0.5 * 2.0 * (float(diff_c @ diff_c) + float(diff_q @ diff_q))

    def test_prox_zero_matches_no_anchor(self, rng):
        layout, params = random_hybrid(rng)
        _, anchor = random_hybrid(rng)
        xs = rng.uniform(-1, 1, (3, 4))
        ys = rng.integers(0, 3, 3)
        plain = hybrid_loss_and_grads(xs, ys, params, layout, 3, 0.0, None)
        anchored = hybrid_loss_and_grads(xs, ys, params, layout, 3, 0.0, anchor)
        assert plain[0] == anchored[0]
        np.testing.assert_array_equal(plain[1], anchored[1])

    def test_prox_term_value(self, rng):
        layout, params = random_hybrid(rng)
        _, anchor = random_hybrid(rng)
        xs = rng.uniform(-1, 1, (2, 4))
        ys = rng.integers(0, 3, 2)
        base, _ = hybrid_loss_and_grads(xs, ys, params, layout, 3)
        mu = 0.37
        with_prox, _ = hybrid_loss_and_grads(xs, ys, params, layout, 3, mu, anchor)
        gap = params - anchor
        assert with_prox == pytest.approx(base + 0.5 * mu * float(gap @ gap), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        layout, params = random_hybrid(rng, f=4, h=5, q=3, layers=1)
        _, anchor = random_hybrid(rng, f=4, h=5, q=3, layers=1)
        xs = rng.uniform(-1, 1, (2, 4))
        ys = rng.integers(0, 3, 2)
        mu = 0.05
        _, analytic = hybrid_loss_and_grads(xs, ys, params, layout, 3, mu, anchor)
        assert analytic.shape == params.shape

        h = 1e-5
        fd = np.empty_like(params)
        for k in range(len(params)):
            plus = params.copy()
            plus[k] += h
            minus = params.copy()
            minus[k] -= h
            lp, _ = hybrid_loss_and_grads(xs, ys, plus, layout, 3, mu, anchor)
            lm, _ = hybrid_loss_and_grads(xs, ys, minus, layout, 3, mu, anchor)
            fd[k] = (lp - lm) / (2 * h)
        rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-6)
        assert rel < 1e-5

    def test_empty_batch_rejected(self, rng):
        layout, params = random_hybrid(rng)
        with pytest.raises(ParameterError):
            hybrid_loss_and_grads(np.zeros((0, 4)), np.zeros(0, dtype=int), params, layout, 3)


class TestAdamLocalStep:
    def test_zero_gradient_is_identity(self, rng):
        _, params = random_hybrid(rng)
        size = len(params)
        stepped, state = adam_local_step(params, np.zeros(size), AdamState.zeros(size))
        np.testing.assert_array_equal(stepped, params)
        assert state.t == 1

    def test_first_step_is_signed_lr(self, rng):
        _, params = random_hybrid(rng)
        size = len(params)
        grads = np.full(size, 0.125)
        stepped, _ = adam_local_step(params, grads, AdamState.zeros(size), lr=0.01)
        np.testing.assert_allclose(stepped - params, np.full(size, -0.01), rtol=1e-6)

    def test_trajectory_matches_recurrence_oracle(self, rng):
        _, params = random_hybrid(rng, f=2, h=2, q=1, layers=1)
        size = len(params)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grad_seq = rng.standard_normal((10, size))

        state = AdamState.zeros(size)
        stepped = params
        for g in grad_seq:
            stepped, state = adam_local_step(stepped, g, state, lr, b1, b2, eps)

        # independent scalar replay per coordinate
        expected = params.copy()
        for k in range(size):
            m = v = 0.0
            x = expected[k]
            for t, g in enumerate(grad_seq[:, k], start=1):
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                x -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            expected[k] = x
        np.testing.assert_allclose(stepped, expected, atol=1e-12)

    def test_gradient_length_checked(self, rng):
        _, params = random_hybrid(rng)
        with pytest.raises(ParameterError):
            adam_local_step(params, np.zeros(len(params) - 1), AdamState.zeros(len(params)))


class TestAdamState:
    def test_moments_must_be_equal_length_vectors(self):
        # a (clients, size) stack of equal shape is allowed; mismatched shapes, 0-d and 3-d moments are not
        with pytest.raises(ParameterError):
            AdamState(np.zeros(2), np.zeros(3))
        with pytest.raises(ParameterError):
            AdamState(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ParameterError):
            AdamState(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ParameterError):
            AdamState(np.zeros(()), np.zeros(()))
        assert AdamState.zeros((3, 5)).m.shape == (3, 5)

    def test_negative_second_moment_or_step_rejected(self):
        with pytest.raises(ParameterError):
            AdamState(np.zeros(2), np.array([0.0, -1e-3]))
        with pytest.raises(ParameterError):
            AdamState(np.zeros(2), np.zeros(2), -1)


def train_alone(client, dataset, init, layout, epochs, batch_size, lr, prox_mu, seed):
    """local_train on a one-client cohort: the client's trained vector and its last-epoch loss."""
    params, losses = local_train([client], dataset, init[None], layout, epochs, batch_size, lr, prox_mu, [seed])
    return params[0], losses[0]


class TestLocalTrain:
    def toy_setup(self, seed=0, classes=2, qubits=2):
        data = generate_synthetic(classes, 2, 30, 0.05, seed)
        client = np.arange(len(data))
        layout = ParamLayout(2, 4, qubits, 1)
        return data, client, layout, init_params(layout, seed + 1)

    def test_zero_lr_returns_init(self):
        data, client, layout, params = self.toy_setup()
        trained, _ = train_alone(client, data, params, layout, epochs=2, batch_size=8, lr=0.0, prox_mu=0.0, seed=3)
        np.testing.assert_array_equal(trained, params)

    def test_prox_changes_result_only_when_positive(self):
        data, client, layout, params = self.toy_setup()
        plain, _ = train_alone(client, data, params, layout, 2, 8, 0.05, 0.0, seed=3)
        regularized, _ = train_alone(client, data, params, layout, 2, 8, 0.05, 0.5, seed=3)
        assert not np.array_equal(plain, regularized)
        # the proximal pull keeps the trained model closer to the broadcast
        gap_plain = np.linalg.norm(plain - params)
        gap_prox = np.linalg.norm(regularized - params)
        assert gap_prox < gap_plain

    def test_training_reduces_loss(self):
        data, client, layout, params = self.toy_setup(seed=4)
        _, first = train_alone(client, data, params, layout, 1, 8, 0.05, 0.0, seed=9)
        _, final = train_alone(client, data, params, layout, 5, 8, 0.05, 0.0, seed=9)
        assert final < first

    def test_determinism(self):
        data, client, layout, params = self.toy_setup(seed=2)
        a, _ = train_alone(client, data, params, layout, 3, 4, 0.02, 0.01, seed=7)
        b, _ = train_alone(client, data, params, layout, 3, 4, 0.02, 0.01, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_angles_wrapped(self):
        data, client, layout, params = self.toy_setup(seed=6)
        trained, _ = train_alone(client, data, params, layout, 4, 4, 0.5, 0.0, seed=1)
        angles = layout.angles(trained)
        assert np.all(angles > -math.pi)
        assert np.all(angles <= math.pi)

    def test_init_left_untouched(self):
        data, client, layout, params = self.toy_setup(seed=3)
        before = params.copy()
        train_alone(client, data, params, layout, 2, 8, 0.05, 0.1, seed=4)
        np.testing.assert_array_equal(params, before)

    def test_divergence_raises_numeric_error(self):
        # steps of ~1e308 overflow the angles to inf; the circuit must never see them
        data, client, layout, params = self.toy_setup()
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="client 0"):
            train_alone(client, data, params, layout, 3, 4, 1e308, 0.0, seed=0)


class TestCohortStacking:
    """A stacked call gives every client exactly (array_equal) what a call of its own gives."""

    @pytest.mark.parametrize("qubits,layers,classes", [(2, 1, 2), (3, 2, 3), (4, 2, 4), (5, 3, 3)])
    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_circuit_forward_stack_equals_per_client_calls(self, rng, qubits, layers, classes, rows):
        angles = rng.uniform(-math.pi, math.pi, (4, layers, qubits))
        embeddings = rng.uniform(-1, 1, (4, rows, qubits))
        logits = circuit_forward(embeddings, angles, classes)
        assert logits.shape == (4, rows, classes)
        for g in range(4):
            np.testing.assert_array_equal(logits[g], circuit_forward(embeddings[g], angles[g], classes))
            if rows == 1:
                np.testing.assert_array_equal(logits[g, 0], circuit_forward(embeddings[g, 0], angles[g], classes))

    def test_stacked_circuit_rejects_mismatched_client_counts(self, rng):
        with pytest.raises(ParameterError):
            circuit_forward(np.zeros((3, 2, 4)), np.zeros((2, 1, 4)), 4)
        with pytest.raises(ParameterError):
            circuit_forward(np.zeros((2, 4)), np.zeros((2, 1, 4)), 4)

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_hybrid_stack_equals_per_client_calls(self, rng, prox_mu, rows):
        layout = ParamLayout(4, 5, 3, 2)
        clients = 3
        params = np.stack([init_params(layout, 10 + g) for g in range(clients)])
        anchors = np.stack([init_params(layout, 20 + g) for g in range(clients)])
        xs = rng.uniform(-1, 1, (clients * rows, 4))
        ys = rng.integers(0, 3, clients * rows)
        losses, grads = hybrid_loss_and_grads(xs, ys, params, layout, 3, prox_mu, anchors)
        assert losses.shape == (clients,) and grads.shape == params.shape
        for g in range(clients):
            own = slice(g * rows, (g + 1) * rows)
            loss, grad = hybrid_loss_and_grads(xs[own], ys[own], params[g], layout, 3, prox_mu, anchors[g])
            assert losses[g] == loss
            np.testing.assert_array_equal(grads[g], grad)

    def test_hybrid_stack_needs_equal_batches(self, rng):
        layout = ParamLayout(4, 5, 3, 2)
        params = np.stack([init_params(layout, g) for g in range(2)])
        with pytest.raises(ParameterError):
            hybrid_loss_and_grads(np.zeros((3, 4)), np.zeros(3, dtype=int), params, layout, 3)
        with pytest.raises(ParameterError):
            hybrid_loss_and_grads(np.zeros((4, 4)), np.zeros((2, 2), dtype=int), params, layout, 3)

    def test_adam_step_on_a_stack_equals_row_wise_steps(self, rng):
        params = rng.standard_normal((5, 7))
        grads = rng.standard_normal((5, 7))
        state = AdamState(rng.standard_normal((5, 7)), rng.uniform(0, 2, (5, 7)), 3)
        stepped, after = adam_local_step(params, grads, state, 0.02)
        assert after.t == 4
        for g in range(5):
            row, row_state = adam_local_step(params[g], grads[g], AdamState(state.m[g], state.v[g], 3), 0.02)
            np.testing.assert_array_equal(stepped[g], row)
            np.testing.assert_array_equal(after.m[g], row_state.m)
            np.testing.assert_array_equal(after.v[g], row_state.v)

    @staticmethod
    def mixed_cohort(sizes=(1, 7, 1, 3, 12, 5, 2, 9)):
        data = generate_synthetic(3, 4, 30, 0.3, 8)
        order = np.random.default_rng(2).permutation(len(data))
        bounds = np.cumsum((0, *sizes))
        clients = [np.sort(order[a:b]) for a, b in zip(bounds, bounds[1:])]
        layout = ParamLayout(4, 5, 3, 2)
        inits = np.stack([init_params(layout, 30 + g) for g in range(len(clients))])
        return data, clients, layout, inits

    @pytest.mark.parametrize("prox_mu", [0.0, 0.2])
    @pytest.mark.parametrize("batch_size", [1, 4, 8])
    def test_mixed_cohort_equals_one_client_cohorts(self, batch_size, prox_mu):
        # unequal sizes, 1-sample clients, 3 epochs, and batches of every size from 1 to batch_size
        data, clients, layout, inits = self.mixed_cohort()
        seeds = [100 + g for g in range(len(clients))]
        params, losses = local_train(clients, data, inits, layout, 3, batch_size, 0.05, prox_mu, seeds)
        assert params.shape == inits.shape and params.flags.c_contiguous
        assert losses.shape == (len(clients),)
        for client, init, seed, row, loss in zip(clients, inits, seeds, params, losses):
            alone, alone_loss = train_alone(client, data, init, layout, 3, batch_size, 0.05, prox_mu, seed)
            np.testing.assert_array_equal(row, alone)
            assert loss == alone_loss

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @pytest.mark.parametrize("batch_size", [8, 32])
    def test_full_batch_cohort_equals_one_client_cohorts(self, batch_size, prox_mu):
        # ten clients of two full batches each: every step stacks all ten in one call
        data = generate_synthetic(3, 4, 7 * batch_size, 0.3, 8)
        order = np.random.default_rng(3).permutation(len(data))
        per_client = 2 * batch_size
        clients = [np.sort(order[g * per_client:(g + 1) * per_client]) for g in range(10)]
        layout = ParamLayout(4, 5, 3, 2)
        inits = np.stack([init_params(layout, 50 + g) for g in range(10)])
        seeds = [300 + g for g in range(10)]
        params, losses = local_train(clients, data, inits, layout, 2, batch_size, 0.05, prox_mu, seeds)
        for client, init, seed, row, loss in zip(clients, inits, seeds, params, losses):
            alone, alone_loss = train_alone(client, data, init, layout, 2, batch_size, 0.05, prox_mu, seed)
            np.testing.assert_array_equal(row, alone)
            assert loss == alone_loss

    def test_one_call_per_step_and_batch_size(self, monkeypatch):
        # one round of the criterion-07 config: unequal clients, batch 8, 5 epochs
        config = ExperimentConfig(
            strategy="fedcompass", n_clients=10, alpha=0.3, rounds=1, local_epochs=5, batch_size=8,
            local_lr=0.03, server_lr=0.05, features=8, spread=0.3, per_class=100, seed=42,
        ).validate()
        context = build_context(config)
        calls = []
        loss_and_grads, adam = model.hybrid_loss_and_grads, model.adam_local_step

        def counted_loss_and_grads(features, labels, params, *args):
            calls.append([len(labels) // len(params), len(params)])
            return loss_and_grads(features, labels, params, *args)

        def counted_adam(params, grads, state, lr):
            calls[-1].append(state.t)
            return adam(params, grads, state, lr)

        monkeypatch.setattr(model, "hybrid_loss_and_grads", counted_loss_and_grads)
        monkeypatch.setattr(model, "adam_local_step", counted_adam)
        run_round(init_state(config, context), config, context)
        # client sizes alone fix the batch size each client has at each step
        expected = Counter()
        for client in context.clients:
            full, rest = divmod(len(client), config.batch_size)
            epoch = [config.batch_size] * full + [rest] * (rest > 0)
            expected.update((step, n) for step, n in enumerate(epoch * config.local_epochs))
        assert Counter({(step, n): clients for n, clients, step in calls}) == expected
        assert len(calls) == len(expected)

    def test_one_seed_and_one_init_per_client(self):
        data, clients, layout, inits = self.mixed_cohort()
        seeds = list(range(len(clients)))
        with pytest.raises(ParameterError):
            local_train(clients, data, inits, layout, 1, 4, 0.05, 0.0, seeds[:1])
        with pytest.raises(ParameterError):
            local_train(clients, data, inits[0], layout, 1, 4, 0.05, 0.0, seeds)

    def test_an_empty_client_is_a_parameter_error(self):
        data, clients, layout, inits = self.mixed_cohort()
        cohort = [clients[0], np.zeros(0, dtype=np.int64), clients[2]]
        with pytest.raises(ParameterError, match="^client 1 has no samples"):
            local_train(cohort, data, inits[:3], layout, 1, 4, 0.05, 0.0, [0, 1, 2])

    def test_divergence_names_the_first_diverged_client_in_cohort_order(self):
        # a NaN feature makes the gradient of any batch that holds it NaN
        data, _, layout, inits = self.mixed_cohort()
        features = data.features.copy()
        features[[0, 1]] = np.nan
        data = Dataset(features, data.labels, data.n_classes)
        # a seed whose shuffle of the late client's [1, 2] puts NaN sample 1 second: it diverges at step 1
        seed = next(s for s in range(100) if np.random.default_rng(s).permutation(2)[0] == 1)
        healthy, late, early = np.array([5, 6, 7]), np.array([1, 2]), np.array([0])
        # the error names the client's position in the cohort, whichever diverged first in time
        with np.errstate(all="ignore"):
            for cohort, first in (
                ([healthy, late, early], "client 1"),
                ([late, healthy, early], "client 0"),
                ([healthy, early, late], "client 1"),
                ([healthy, healthy, late], "client 2"),
            ):
                with pytest.raises(NumericError, match=f"^{first}:"):
                    local_train(cohort, data, inits[:3], layout, 1, 1, 0.05, 0.0, [seed] * 3)
            # as the client-by-client loop saw it: the late client trains first, alone, and diverges at step 1
            with pytest.raises(NumericError, match="^client 0:"):
                train_alone(late, data, inits[1], layout, 1, 1, 0.05, 0.0, seed)
            train_alone(healthy, data, inits[0], layout, 1, 1, 0.05, 0.0, seed)


def circuit_major(states):
    """The (G, circuits, 2^Q) view of the simulator's amplitude-major (G, 2^Q, circuits) result."""
    return np.swapaxes(states, 1, 2)


def peak_memory(call):
    """Bytes tracemalloc sees allocated at the peak of call(), above what was allocated before it."""
    call()  # fill the caches first
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestOffsetTable:
    """The simulator's offset table runs exactly (array_equal) the circuits of explicitly shifted angles."""

    @pytest.mark.parametrize("qubits,layers", [(1, 1), (2, 1), (3, 2), (4, 2)])
    def test_shift_rows_equal_explicitly_shifted_angles(self, rng, qubits, layers):
        clients, rows, depth = 3, 2, layers + 1
        k = depth * qubits
        embeddings = rng.uniform(-1, 1, (clients, rows, qubits))
        angles = rng.uniform(-math.pi, math.pi, (clients, layers, qubits))
        rotations, _, _ = _circuit_inputs(embeddings, angles, None)
        table = HALF_PI * np.concatenate([np.eye(k), -np.eye(k)])
        states = circuit_major(_simulate(rotations, _offset_table(table))).reshape(clients, rows, 2 * k, -1)
        forward = _offset_table(np.full((1, k), -0.0))
        for r, offset in enumerate(table):
            shift = offset.reshape(depth, qubits)
            # a one-row table of -0.0 is the forward pass
            np.testing.assert_array_equal(states[:, :, r], circuit_major(_simulate(rotations + shift, forward)))
            if r % k >= qubits:  # a variational angle: the public entry points can shift it too
                shifted = angles + shift[1:]
                np.testing.assert_array_equal(states[:, :, r], statevector(embeddings, shifted))
                np.testing.assert_array_equal(
                    circuit_forward(embeddings, shifted),
                    _z_expectations(_simulate(rotations, _offset_table(table[r:r + 1])), qubits),
                )

    def test_shift_rule_peak_memory_is_at_most_three_states(self, rng):
        # the simulator holds the state and one scratch buffer; the <Z> squares replace the scratch
        clients, rows, qubits, layers = 10, 32, 4, 2
        embeddings = rng.uniform(-1, 1, (clients, rows, qubits))
        angles = rng.uniform(-math.pi, math.pi, (clients, layers, qubits))
        upstream = rng.standard_normal((clients, rows, qubits))
        peak = peak_memory(lambda: param_shift_grad(embeddings, angles, upstream))
        state_bytes = clients * rows * 2 * (layers + 1) * qubits * 2**qubits * 8
        assert peak <= 3 * state_bytes

    def test_training_call_peak_memory_is_at_most_three_states(self, rng):
        # the same bound as the shift rule alone: the forward circuits ride in the same two buffers
        clients, rows, qubits, layers = 10, 32, 4, 2
        layout = ParamLayout(4, 5, qubits, layers)
        params = np.stack([init_params(layout, g) for g in range(clients)])
        features = rng.uniform(-1, 1, (clients * rows, 4))
        labels = rng.integers(0, qubits, clients * rows)
        peak = peak_memory(lambda: hybrid_loss_and_grads(features, labels, params, layout, qubits))
        state_bytes = clients * rows * 2 * (layers + 1) * qubits * 2**qubits * 8
        assert peak <= 3 * state_bytes

    def test_forward_pass_peak_memory_is_under_three_and_a_quarter_states(self, rng):
        # _simulate's bound for a one-row table at Q = 4, plus the (L+1)Q rotations per sample it is given;
        # a state of megabytes keeps numpy's fixed-size iteration buffers out of the ratio
        clients, rows, qubits, layers = 100, 200, 4, 2
        embeddings = rng.uniform(-1, 1, (clients, rows, qubits))
        angles = rng.uniform(-math.pi, math.pi, (clients, layers, qubits))
        peak = peak_memory(lambda: circuit_forward(embeddings, angles))
        state_bytes = clients * rows * 2**qubits * 8
        rotation_bytes = clients * rows * (layers + 1) * qubits * 8
        assert peak <= 3.25 * state_bytes + rotation_bytes


def reference_simulate(rotations, offsets):
    """The simulator as it was before the fused pass: gate by gate from |0...0>, one angle per circuit and gate.

    Takes the (G, rows, L+1, Q) base rotations and a plain (m, K) offset
    table, and returns the (G, rows * m, 2^Q) circuit-major statevectors.
    """
    g, rows, depth, n_qubits = rotations.shape
    circuits = rows * len(offsets)
    state = np.zeros((g, 2**n_qubits, circuits))
    state[:, 0] = 1.0
    scratch = np.empty_like(state)
    for layer in range(depth):
        for q in range(n_qubits):
            angle = rotations[:, :, None, layer, q] + offsets[:, layer * n_qubits + q]
            half = (0.5 * angle).reshape(g, 1, 1, circuits)
            c, s = np.cos(half), np.sin(half)
            # axes (block, higher qubits, qubit q, lower qubits, circuit)
            view = state.reshape(g, 2**q, 2, -1, circuits)
            temp = scratch.reshape(g, 2**q, 2, -1, circuits)
            a0, a1, t0, t1 = view[:, :, 0], view[:, :, 1], temp[:, :, 0], temp[:, :, 1]
            np.multiply(s, a1, out=t0)
            np.multiply(s, a0, out=t1)
            a0 *= c
            a0 -= t0  # c * a0 - s * a1
            a1 *= c
            a1 += t1  # s * a0 + c * a1
        if layer > 0 and n_qubits > 1:
            np.take(state, model._ring_gather(n_qubits), axis=1, out=scratch, mode="clip")
            state, scratch = scratch, state
    return np.swapaxes(state, 1, 2)


def reference_z_expectations(states, n_classes):
    """<Z> as it was taken from reference_simulate's (G, rows, 2^Q) view: squares, then one product per block."""
    n_qubits = states.shape[-1].bit_length() - 1
    bits = np.arange(states.shape[-1])[:, None] >> (n_qubits - 1 - np.arange(n_classes))
    return states**2 @ (1.0 - 2.0 * (bits & 1))


class TestReferenceSimulator:
    """The simulator against reference_simulate: the same numbers, byte for byte, on every offset table."""

    @staticmethod
    def tables(rng, k):
        shifts = HALF_PI * np.concatenate([np.eye(k), -np.eye(k)])
        # each entry +0.0, -0.0, +pi/2, -pi/2 or uniform
        kinds = rng.integers(0, 5, (5, k))
        pool = np.array([0.0, -0.0, HALF_PI, -HALF_PI])
        mixed = np.where(kinds < 4, pool[np.minimum(kinds, 3)], rng.uniform(-math.pi, math.pi, (5, k)))
        return {
            "forward": np.full((1, k), -0.0),
            "fold": np.concatenate([np.full((1, k), -0.0), shifts]),
            "random": mixed,
        }

    @staticmethod
    def rotations(rng, shape):
        # a third of the angles 0, -0.0, pi or -pi, and one encoding angle -0.0 (an embedding entry of -0.0)
        kinds = rng.integers(0, 6, shape)
        pool = np.array([0.0, -0.0, math.pi, -math.pi])
        rotations = np.where(kinds < 4, pool[np.minimum(kinds, 3)], rng.uniform(-math.pi, math.pi, shape))
        rotations[0, 0, 0, 0] = -0.0
        return rotations

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_gate_by_gate_reference(self, rng, qubits, layers):
        depth = layers + 1
        k = depth * qubits
        forward = _offset_table(np.full((1, k), -0.0))
        for name, table in self.tables(rng, k).items():
            offsets = _offset_table(table)
            for clients in range(1, 5):
                for rows in range(1, 6):
                    rotations = self.rotations(rng, (clients, rows, depth, qubits))
                    reference = reference_simulate(rotations, table)
                    states = _simulate(rotations, offsets)
                    where = f"{name} table, {clients} clients, {rows} rows"
                    # signed zeros aside (the product-state encoding may flip the sign of an exact zero)
                    np.testing.assert_array_equal(circuit_major(states), reference, err_msg=where)
                    probabilities = np.ascontiguousarray(circuit_major(np.square(states)))
                    assert probabilities.tobytes() == np.ascontiguousarray(reference**2).tobytes(), where
                    z = _z_expectations(states, qubits)
                    assert z.shape == reference.shape[:2] + (qubits,)
                    assert z.tobytes() == reference_z_expectations(reference, qubits).tobytes(), where
                    # every row runs exactly its explicitly offset angles, signed zeros included
                    blocks = states.reshape(clients, 2**qubits, rows, len(table))
                    for r, row in enumerate(table):
                        alone = _simulate(rotations + row.reshape(depth, qubits), forward)
                        assert np.ascontiguousarray(blocks[..., r]).tobytes() == alone.tobytes(), f"{where}, row {r}"

    def test_distinct_offsets_keep_signed_zeros_apart(self):
        offsets = _offset_table(np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 2.0]]))
        assert offsets.distinct.shape == (2, 2)
        assert sorted(np.signbit(offsets.distinct[0])) == [False, True]
        # every row's offset comes back, bit for bit, from its gate's distinct values
        gathered = np.take_along_axis(offsets.distinct, offsets.lookup, axis=1)
        assert gathered.tobytes() == offsets.table.T.tobytes()


def model_layer_digest():
    """sha256 over the bytes of training losses and gradients and shift-rule outputs on a fixed seeded grid."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261018)
    for qubits in range(1, 6):
        for layers in (1, 2, 3):
            layout = ParamLayout(4, 5, qubits, layers)
            classes = min(qubits, 3)
            for clients in (1, 3):
                for rows in (1, 4):
                    params = np.stack([init_params(layout, int(rng.integers(1 << 30))) for _ in range(clients)])
                    special = [-0.0, math.pi, -math.pi][:qubits * layers]
                    params[0, layout.size - len(special):] = special
                    anchors = params + rng.normal(0.0, 0.1, params.shape)
                    features = rng.uniform(-1, 1, (clients * rows, 4))
                    labels = rng.integers(0, classes, clients * rows)
                    stacks = [(params, anchors)] + ([(params[0], anchors[0])] if clients == 1 else [])
                    for prox_mu in (0.0, 0.3):
                        for p, a in stacks:
                            loss, grad = hybrid_loss_and_grads(features, labels, p, layout, classes, prox_mu, a)
                            digest.update(np.asarray(loss).tobytes())
                            digest.update(grad.tobytes())
                    embeddings = rng.uniform(-1, 1, (clients, rows, qubits))
                    embeddings[0, 0, 0] = -0.0
                    angles = layout.angles(params)
                    upstream = rng.standard_normal((clients, rows, classes))
                    cases = [(embeddings, angles, upstream)]
                    if clients == 1:
                        cases.append((embeddings[0], angles[0], upstream[0]))
                        cases.append((embeddings[0, 0], angles[0], upstream[0, 0]))
                    for case in cases:
                        grad_var, grad_emb = param_shift_grad(*case, classes)
                        digest.update(grad_var.tobytes())
                        digest.update(grad_emb.tobytes())
    return digest.hexdigest()


class TestTrainingPass:
    """A training call simulates its forward and shift-rule circuits in one pass, with the numbers unchanged."""

    def test_one_simulation_per_training_call(self, rng, monkeypatch):
        calls = Counter()
        for name in ("_simulate", "circuit_forward", "param_shift_grad"):
            def counted(*args, _name=name, _original=getattr(model, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        layout = ParamLayout(4, 5, 3, 2)
        params = np.stack([init_params(layout, g) for g in range(3)])
        features = rng.uniform(-1, 1, (12, 4))
        labels = rng.integers(0, 3, 12)
        # a stack, one client's batch and one sample
        for p, rows in ((params, 12), (params[0], 4), (params[0], 1)):
            calls.clear()
            hybrid_loss_and_grads(features[:rows], labels[:rows], p, layout, 3, 0.3, p)
            assert calls == Counter({"_simulate": 1})

    def test_model_layer_digest_is_pinned(self):
        # losses, gradients and shift-rule outputs, stacks and one-row batches included, bit for bit
        assert model_layer_digest() == MODEL_LAYER_DIGEST


class TestEpochBatches:
    def test_every_epoch_covers_every_index(self, rng):
        for n, batch in ((17, 5), (32, 32), (10, 3), (8, 16)):
            batches = epoch_batches(n, batch, rng)
            combined = np.sort(np.concatenate(batches))
            np.testing.assert_array_equal(combined, np.arange(n))
            assert all(len(b) <= batch for b in batches)

    def test_samples_seen_conservation(self, rng):
        # one epoch sees n samples, so E epochs see n * E
        n, batch, epochs = 23, 7, 4
        seen = sum(len(b) for _ in range(epochs) for b in epoch_batches(n, batch, rng))
        assert seen == n * epochs
