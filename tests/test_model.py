import math

import numpy as np
import pytest

from fedsim.data import ClientDataset, generate_synthetic
from fedsim.errors import NumericError, ParameterError
from fedsim.model import (
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
)


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
        with pytest.raises(ParameterError):
            AdamState(np.zeros(2), np.zeros(3))
        with pytest.raises(ParameterError):
            AdamState(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_negative_second_moment_or_step_rejected(self):
        with pytest.raises(ParameterError):
            AdamState(np.zeros(2), np.array([0.0, -1e-3]))
        with pytest.raises(ParameterError):
            AdamState(np.zeros(2), np.zeros(2), -1)


class TestLocalTrain:
    def toy_setup(self, seed=0, classes=2, qubits=2):
        data = generate_synthetic(classes, 2, 30, 0.05, seed)
        client = ClientDataset(0, np.arange(len(data)))
        layout = ParamLayout(2, 4, qubits, 1)
        return data, client, layout, init_params(layout, seed + 1)

    def test_zero_lr_returns_init(self):
        data, client, layout, params = self.toy_setup()
        update = local_train(client, data, params, layout, epochs=2, batch_size=8, lr=0.0, prox_mu=0.0, seed=3)
        np.testing.assert_array_equal(update.params, params)
        assert update.layout == layout

    def test_prox_changes_result_only_when_positive(self):
        data, client, layout, params = self.toy_setup()
        plain = local_train(client, data, params, layout, 2, 8, 0.05, 0.0, seed=3)
        regularized = local_train(client, data, params, layout, 2, 8, 0.05, 0.5, seed=3)
        assert not np.array_equal(plain.params, regularized.params)
        # the proximal pull keeps the trained model closer to the broadcast
        gap_plain = np.linalg.norm(plain.params - params)
        gap_prox = np.linalg.norm(regularized.params - params)
        assert gap_prox < gap_plain

    def test_training_reduces_loss(self):
        data, client, layout, params = self.toy_setup(seed=4)
        first = local_train(client, data, params, layout, 1, 8, 0.05, 0.0, seed=9)
        final = local_train(client, data, params, layout, 5, 8, 0.05, 0.0, seed=9)
        assert final.train_loss < first.train_loss

    def test_determinism(self):
        data, client, layout, params = self.toy_setup(seed=2)
        a = local_train(client, data, params, layout, 3, 4, 0.02, 0.01, seed=7)
        b = local_train(client, data, params, layout, 3, 4, 0.02, 0.01, seed=7)
        np.testing.assert_array_equal(a.params, b.params)

    def test_angles_wrapped(self):
        data, client, layout, params = self.toy_setup(seed=6)
        update = local_train(client, data, params, layout, 4, 4, 0.5, 0.0, seed=1)
        angles = layout.angles(update.params)
        assert np.all(angles > -math.pi)
        assert np.all(angles <= math.pi)

    def test_init_left_untouched(self):
        data, client, layout, params = self.toy_setup(seed=3)
        before = params.copy()
        local_train(client, data, params, layout, 2, 8, 0.05, 0.1, seed=4)
        np.testing.assert_array_equal(params, before)

    def test_divergence_raises_numeric_error(self):
        # steps of ~1e308 overflow the angles to inf; the circuit must never see them
        data, client, layout, params = self.toy_setup()
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="client 0"):
            local_train(client, data, params, layout, 3, 4, 1e308, 0.0, seed=0)

    def test_distribution_reported(self):
        data, client, layout, params = self.toy_setup(seed=1)
        update = local_train(client, data, params, layout, 1, 8, 0.01, 0.0, seed=2)
        assert update.distribution.count == len(client)
        assert update.client_id == 0


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
