import hashlib
import inspect
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fedsim import model
from fedsim.data import Dataset, generate_synthetic, integer
from fedsim.errors import NumericError, ParameterError
from fedsim.model import (
    AdamState,
    ParamLayout,
    adam_local_step,
    adam_step,
    circuit_forward,
    hybrid_loss_and_grads,
    init_params,
    local_train,
    mlp_forward,
    param_shift_grad,
    softmax_cross_entropy,
    statevector,
    _circuit_inputs,
    _gate_trig,
    _simulate,
    _z_expectations,
)
from fedsim.orchestrator import ExperimentConfig, build_context, init_state, run_round

from conftest import dense_oracle_state


MODEL_LAYER_DIGEST = "7d9acbb1d8d75175d643667127686452df767f720ca59ecf978266f38800b45c"


def random_hybrid(rng, f=4, h=5, q=3, layers=1):
    layout = ParamLayout(f, h, q, layers)
    return layout, init_params(layout, int(rng.integers(1 << 30)))


def random_dense(rng):
    layout, params = random_hybrid(rng)
    return layout.dense(params)


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled mini-batch index blocks covering 0..n-1 exactly once: the reference for local_train's schedules.

    The final block is kept even when shorter than batch_size, so every
    epoch touches every sample exactly once. A batch_size that is not an
    integer of at least 1 raises ParameterError. local_train must draw the
    same blocks: one rng.permutation(n) per epoch, cut into runs of
    batch_size.
    """
    batch_size = integer(batch_size, "batch_size")
    perm = rng.permutation(n)
    return [perm[start:start + batch_size] for start in range(0, n, batch_size)]


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

    @pytest.mark.parametrize("embedding", [np.zeros(3), np.zeros((4, 3)), np.zeros((1, 4, 2)), np.float64(0.5)])
    def test_one_model_embedding_must_be_a_vector_or_a_batch_of_qubit_width(self, embedding):
        with pytest.raises(ParameterError, match=r"length-2 embedding or an \(n, 2\) batch"):
            circuit_forward(embedding, np.zeros((1, 2)), 2)


class TestParamShift:
    def test_closed_form_gradient(self):
        grad_var, _ = param_shift_grad(np.zeros(1), np.array([[math.pi / 2]]), np.ones(1), 1)
        assert grad_var[0, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_stationary_point(self):
        grad_var, _ = param_shift_grad(np.zeros(1), np.array([[0.0]]), np.ones(1), 1)
        assert grad_var[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("embedding, upstream", [
        (np.zeros(3), np.ones(3)),
        (np.zeros(3), np.ones((1, 2))),
        (np.zeros((4, 3)), np.ones((3, 2))),
        (np.zeros((4, 3)), np.ones(2)),
    ])
    def test_upstream_must_hold_one_class_row_per_sample(self, embedding, upstream):
        with pytest.raises(ParameterError, match="length-2 upstream gradient per sample"):
            param_shift_grad(embedding, np.zeros((1, 3)), upstream, 2)

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

    def test_params_beyond_a_client_stack_rejected(self, rng):
        layout, params = random_hybrid(rng)
        with pytest.raises(ParameterError, match=r"one vector or a \(clients, size\) stack"):
            hybrid_loss_and_grads(np.zeros((2, 4)), np.zeros(2, dtype=int), params[None, None], layout, 3)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_classes_rejected(self, rng, label):
        # -1 would index the last class, whose gradient probs - 0 is not that of the loss; 3 would not index at all
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 3\)"):
            softmax_cross_entropy(np.zeros(3), label)
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 3\)"):
            softmax_cross_entropy(np.zeros((2, 3)), [0, label])
        layout, params = random_hybrid(rng)
        with pytest.raises(ParameterError, match=r"labels must lie in \[0, 3\)"):
            hybrid_loss_and_grads(rng.uniform(-1, 1, (2, 4)), np.array([1, label]), params, layout, 3)

    @pytest.mark.parametrize("label", [1.9, 0.2, math.nan, math.inf])
    def test_label_that_is_not_a_whole_number_rejected(self, rng, label):
        # int64 conversion would truncate 1.9 to class 1 and raise a bare ValueError for nan
        with pytest.raises(ParameterError, match="labels must be whole numbers"):
            softmax_cross_entropy(np.zeros(3), label)
        with pytest.raises(ParameterError, match="labels must be whole numbers"):
            softmax_cross_entropy(np.zeros((2, 3)), [0, label])
        layout, params = random_hybrid(rng)
        with pytest.raises(ParameterError, match="labels must be whole numbers"):
            hybrid_loss_and_grads(rng.uniform(-1, 1, (2, 4)), np.array([label, 1.6]), params, layout, 3)
        # whole numbers in a float array are the classes they name
        xs = rng.uniform(-1, 1, (2, 4))
        loss, grad = hybrid_loss_and_grads(xs, np.array([2.0, 0.0]), params, layout, 3)
        want_loss, want_grad = hybrid_loss_and_grads(xs, np.array([2, 0]), params, layout, 3)
        assert loss == want_loss
        np.testing.assert_array_equal(grad, want_grad)

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    def test_anchor_not_shaped_like_params_rejected(self, rng, prox_mu):
        # a (P,) anchor for a (2, P) stack, or the reverse, made reshape raise a bare ValueError
        layout = ParamLayout(4, 5, 3, 2)
        params = np.stack([init_params(layout, g) for g in range(2)])
        xs, ys = rng.uniform(-1, 1, (4, 4)), rng.integers(0, 3, 4)
        for p, anchor in ((params, params[0]), (params, params[:1]), (params[0], params), (params[0], params[0, 1:])):
            with pytest.raises(ParameterError, match="prox_anchor must be shaped like params"):
                hybrid_loss_and_grads(xs, ys, p, layout, 3, prox_mu, anchor)

    @pytest.mark.parametrize("prox_mu", [-0.1, -math.inf, math.inf, math.nan])
    def test_prox_mu_that_is_not_finite_and_non_negative_rejected(self, rng, prox_mu):
        # prox_mu > 0 is false for nan and negative values, which skipped the penalty; inf made the loss inf
        layout, params = random_hybrid(rng)
        with pytest.raises(ParameterError, match="prox_mu must be finite and >= 0"):
            hybrid_loss_and_grads(rng.uniform(-1, 1, (2, 4)), np.array([0, 1]), params, layout, 3, prox_mu, params)

    def test_prox_mu_without_an_anchor_rejected(self, rng):
        # the penalty was once dropped silently: the loss equalled prox_mu = 0's, bit for bit
        layout, params = random_hybrid(rng)
        xs, ys = rng.uniform(-1, 1, (5, 4)), rng.integers(0, 3, 5)
        with pytest.raises(ParameterError, match="prox_mu > 0 needs a prox_anchor"):
            hybrid_loss_and_grads(xs, ys, params, layout, 3, 5.0, None)
        hybrid_loss_and_grads(xs, ys, params, layout, 3, 0.0, None)


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

    @pytest.mark.parametrize("betas", [(1.0, 0.999), (0.9, 1.0), (-0.1, 0.999), (0.9, math.nan)])
    def test_betas_outside_the_unit_interval_rejected(self, betas):
        # the step returns its moments unchecked, so it checks the betas that keep them valid
        with pytest.raises(ParameterError, match="beta1 and beta2"):
            adam_local_step(np.zeros(3), np.ones(3), AdamState.zeros(3), 0.01, *betas)

    def test_is_adam_step_itself(self):
        # one Adam for clients and server: the clients' name is bound to the same function
        assert model.adam_local_step is model.adam_step

    @pytest.mark.parametrize("params, state", [
        (np.zeros(3), AdamState.zeros(2)),
        (np.zeros(3), AdamState.zeros((1, 3))),
        (np.zeros((2, 3)), AdamState.zeros(3)),
    ])
    def test_moments_of_another_shape_rejected(self, params, state):
        # each of these once failed inside numpy's broadcasting with a bare ValueError
        with pytest.raises(ParameterError, match="params, grads and Adam moments must share one shape"):
            adam_local_step(params, np.ones(params.shape), state)

    @pytest.mark.parametrize("step", [
        {"lr": math.nan}, {"lr": math.inf}, {"lr": -1.0}, {"eps": 0.0}, {"eps": -1e-8}, {"eps": math.nan},
    ])
    def test_lr_or_eps_out_of_range_rejected(self, step):
        # a nan lr or eps once returned nan parameters, an infinite lr infinite ones, and the others stepped silently
        with pytest.raises(ParameterError, match="lr must be finite and >= 0, eps finite and > 0"):
            adam_local_step(np.zeros(3), np.ones(3), AdamState.zeros(3), **step)

    def test_zero_lr_is_a_step_that_keeps_params(self):
        # lr = 0 is the one boundary value allowed: the moments and counter move, the parameters do not
        params = np.array([0.5, -1.5, 2.0])
        stepped, state = adam_local_step(params, np.ones(3), AdamState.zeros(3), lr=0.0)
        np.testing.assert_array_equal(stepped, params)
        assert state.t == 1 and np.all(state.m > 0)


class TestAdamStep:
    """adam_step against the one-expression step it computes in four arrays: same bits, inputs untouched."""

    @staticmethod
    def expression(params, grads, m, v, t, lr, beta1, beta2, eps):
        """The Adam step as one numpy expression, each temporary a fresh array: the oracle of adam_step's bits."""
        t += 1
        m = beta1 * m + (1.0 - beta1) * grads
        v = beta2 * v + (1.0 - beta2) * grads**2
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

    @pytest.mark.parametrize("shape", [(7,), (5, 9)])
    @pytest.mark.parametrize("moments", ["zeros", "broadcast zeros", "drawn"])
    @pytest.mark.parametrize("t", [0, 3])
    def test_bits_equal_the_expression_signbits_included(self, rng, shape, moments, t):
        params, grads = rng.standard_normal((2, *shape))
        # signed zeros where a zero step keeps params' sign and where zero moments meet zero gradients
        params.flat[:2] = -0.0, 0.0
        grads.flat[:4] = 0.0, -0.0, -0.0, 0.0
        if moments == "drawn":
            m, v = rng.standard_normal(shape), rng.uniform(0.0, 2.0, shape)
            m.flat[2:4] = -0.0, 0.0
            v.flat[2:4] = 0.0, 0.0
        elif moments == "zeros":
            m, v = np.zeros(shape), np.zeros(shape)
        else:  # local_train's fresh moments
            m = v = np.broadcast_to(0.0, shape)
        for lr, beta1, beta2, eps in ((0.02, 0.9, 0.999, 1e-8), (0.5, 0.0, 0.5, 1e-3)):
            stepped, state = adam_step(params, grads, AdamState(m, v, t), lr, beta1, beta2, eps)
            want, want_m, want_v = self.expression(params, grads, m, v, t, lr, beta1, beta2, eps)
            assert state.t == t + 1
            for got, expected in ((stepped, want), (state.m, want_m), (state.v, want_v)):
                assert got.shape == shape
                assert got.tobytes() == expected.tobytes()
                np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("shape", [(6,), (4, 6)])
    def test_leaves_its_inputs_unmodified(self, rng, shape):
        # the server state and fedadam_update hand in arrays they keep
        params, grads, m = rng.standard_normal((3, *shape))
        state = AdamState(m, rng.uniform(0.0, 1.0, shape), 2)
        inputs = (params, grads, state.m, state.v)
        before = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False  # a write into any of them raises
        stepped, after = adam_step(params, grads, state, 0.1, 0.9, 0.999, 1e-8)
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()
        assert state.t == 2
        for out in (stepped, after.m, after.v):
            assert out.flags.writeable and not any(np.shares_memory(out, a) for a in inputs)


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

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        data, client, layout, params = self.toy_setup()
        with pytest.raises(ParameterError, match="epochs must be >= 1"):
            train_alone(client, data, params, layout, epochs, 8, 0.05, 0.0, seed=3)

    @pytest.mark.parametrize(
        "epochs,batch_size,named", [(1.5, 8, "epochs"), (2.0, 8, "epochs"), (1, 2.5, "batch_size")]
    )
    def test_a_count_that_is_not_an_integer_rejected(self, epochs, batch_size, named):
        # range() once raised a bare TypeError for each of these
        data, client, layout, params = self.toy_setup()
        with pytest.raises(ParameterError, match=f"^{named} must be an integer"):
            train_alone(client, data, params, layout, epochs, batch_size, 0.05, 0.0, seed=3)

    def test_divergence_raises_numeric_error(self):
        # steps of ~1e308 overflow the angles to inf; the circuit must never see them
        data, client, layout, params = self.toy_setup()
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="client 0"):
            train_alone(client, data, params, layout, 3, 4, 1e308, 0.0, seed=0)

    @pytest.mark.parametrize("lr,prox_mu", [
        (math.nan, 0.0), (math.inf, 0.0), (-0.05, 0.0), (0.05, math.nan), (0.05, math.inf), (0.05, -0.1),
    ])
    def test_rate_that_is_not_finite_and_non_negative_rejected(self, lr, prox_mu):
        # a nan lr once ended as NumericError "diverged", and a nan or negative prox_mu skipped the penalty
        data, client, layout, params = self.toy_setup()
        with pytest.raises(ParameterError, match="lr and prox_mu must be finite and >= 0"):
            train_alone(client, data, params, layout, 1, 8, lr, prox_mu, seed=3)


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

    @pytest.mark.parametrize("prox_mu", [0.0, 0.3])
    @pytest.mark.parametrize("qubits,classes", [(1, 1), (2, 2), (4, 3), (6, 4)])
    @pytest.mark.parametrize("sizes", [[8, 1, 8, 3, 2], [5], [1], [2, 9, 2, 1, 1, 3]])
    def test_mixed_sizes_equal_per_client_calls(self, rng, prox_mu, qubits, classes, sizes):
        # unsorted batch sizes in one call, each client's rows bit-identical to its own call
        layout = ParamLayout(4, 5, qubits, 2)
        params = np.stack([init_params(layout, 10 + g) for g in range(len(sizes))])
        anchors = np.stack([init_params(layout, 20 + g) for g in range(len(sizes))])
        xs = rng.uniform(-1, 1, (sum(sizes), 4))
        ys = rng.integers(0, classes, sum(sizes))
        losses, grads = hybrid_loss_and_grads(xs, ys, params, layout, classes, prox_mu, anchors, sizes)
        assert losses.shape == (len(sizes),) and grads.shape == params.shape
        bounds = np.cumsum([0, *sizes])
        for g, (a, b) in enumerate(zip(bounds, bounds[1:])):
            loss, grad = hybrid_loss_and_grads(xs[a:b], ys[a:b], params[g], layout, classes, prox_mu, anchors[g])
            assert losses[g] == loss
            np.testing.assert_array_equal(grads[g], grad)

    def test_equal_sizes_equal_the_default_split(self, rng):
        layout = ParamLayout(4, 5, 3, 2)
        params = np.stack([init_params(layout, g) for g in range(3)])
        xs, ys = rng.uniform(-1, 1, (12, 4)), rng.integers(0, 3, 12)
        loss, grad = hybrid_loss_and_grads(xs, ys, params, layout, 3)
        sized_loss, sized_grad = hybrid_loss_and_grads(xs, ys, params, layout, 3, 0.0, None, np.array([4, 4, 4]))
        np.testing.assert_array_equal(sized_loss, loss)
        np.testing.assert_array_equal(sized_grad, grad)

    @pytest.mark.parametrize("sizes,named", [
        ([4, 4], "sizes of at least 1"),
        ([4, 4, 4, 0], "sizes of at least 1"),
        ([13, -1, 0], "sizes of at least 1"),
        ([4, 4, 5], "sizes of at least 1"),
        ([4, 4, 3], "sizes of at least 1"),
        ([[4, 4, 4]], "sizes of at least 1"),
        ([4.0, 4.5, 3.5], "sizes must be whole numbers"),
    ])
    def test_bad_sizes_rejected(self, rng, sizes, named):
        layout = ParamLayout(4, 5, 3, 2)
        params = np.stack([init_params(layout, g) for g in range(3)])
        with pytest.raises(ParameterError, match=named):
            hybrid_loss_and_grads(rng.uniform(-1, 1, (12, 4)), rng.integers(0, 3, 12), params, layout, 3, 0.0, None, sizes)

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

    def test_loss_is_the_final_epochs_sum_bit_for_bit(self, monkeypatch):
        data, clients, layout, inits = self.mixed_cohort()
        seeds = [100 + g for g in range(len(clients))]
        _, losses = local_train(clients, data, inits, layout, 3, 4, 0.05, 0.0, seeds)
        loss_and_grads = model.hybrid_loss_and_grads
        calls = []

        def recorded(features, labels, *args):
            loss, grads = loss_and_grads(features, labels, *args)
            calls.append((loss[0], len(labels)))
            return loss, grads

        monkeypatch.setattr(model, "hybrid_loss_and_grads", recorded)
        for client, init, seed, loss in zip(clients, inits, seeds, losses):
            calls.clear()
            _, alone_loss = train_alone(client, data, init, layout, 3, 4, 0.05, 0.0, seed)
            assert len(calls) == 3 * math.ceil(len(client) / 4)
            total = 0.0
            for step_loss, n in calls[2 * len(calls) // 3:]:
                total += step_loss * n
            assert alone_loss == loss == total / len(client)

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
        calls, adam_steps = [], []
        loss_and_grads, adam = model.hybrid_loss_and_grads, model.adam_local_step

        def counted_loss_and_grads(features, labels, params, layout, n_classes, prox_mu, anchor, sizes):
            calls.append(list(sizes))
            assert len(params) == len(sizes) and sum(sizes) == len(labels)
            return loss_and_grads(features, labels, params, layout, n_classes, prox_mu, anchor, sizes)

        def counted_adam(params, grads, state, lr):
            adam_steps.append((state.t, len(params)))
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
        # one call per step, holding every batch of that step; then one Adam step over all of that step's clients
        assert len(calls) == max(step for step, _ in expected) + 1
        assert Counter((step, n) for step, sizes in enumerate(calls) for n in sizes) == expected
        clients_per_step = Counter()
        for (step, _), clients in expected.items():
            clients_per_step[step] += clients
        assert adam_steps == sorted(clients_per_step.items())

    def test_a_converge_round_trains_through_the_traced_names(self, monkeypatch):
        # perfbench's per-layer counters see training through these two module names
        config = ExperimentConfig(
            strategy="fedcompass", n_clients=10, alpha=0.3, rounds=1, local_epochs=5, batch_size=8,
            local_lr=0.03, server_lr=0.05, per_class=100, seed=42,
        ).validate()
        context = build_context(config)
        samples, adam_calls = [], []
        loss_and_grads, adam = model.hybrid_loss_and_grads, model.adam_local_step

        def counted_loss_and_grads(features, labels, *args):
            samples.append(len(labels))
            return loss_and_grads(features, labels, *args)

        def counted_adam(*args):
            adam_calls.append(1)
            return adam(*args)

        monkeypatch.setattr(model, "hybrid_loss_and_grads", counted_loss_and_grads)
        monkeypatch.setattr(model, "adam_local_step", counted_adam)
        run_round(init_state(config, context), config, context)
        assert (len(samples), sum(samples), len(adam_calls)) == (65, 1600, 65)

    def test_one_seed_and_one_init_per_client(self):
        data, clients, layout, inits = self.mixed_cohort()
        seeds = list(range(len(clients)))
        with pytest.raises(ParameterError):
            local_train(clients, data, inits, layout, 1, 4, 0.05, 0.0, seeds[:1])
        with pytest.raises(ParameterError):
            local_train(clients, data, inits[0], layout, 1, 4, 0.05, 0.0, seeds)

    def test_each_client_shuffles_as_default_rng_of_its_seed(self, monkeypatch):
        # one-word entropy below 2**32, two words from there on
        data, clients, layout, inits = self.mixed_cohort()
        seeds = [0, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
        clients, inits = clients[:len(seeds)], inits[:len(seeds)]
        traced = model.hybrid_loss_and_grads
        steps = []

        def recorded(*args, **kwargs):
            call = inspect.signature(traced).bind(*args, **kwargs).arguments
            steps.append((call["features"], call["sizes"]))
            return traced(*args, **kwargs)

        monkeypatch.setattr(model, "hybrid_loss_and_grads", recorded)
        local_train(clients, data, inits, layout, 2, 4, 0.05, 0.0, np.array(seeds, dtype=np.uint64))
        # each client's batches, as dataset indices: those of its generator's epochs, end to end
        schedules = []
        for client, seed in zip(clients, seeds):
            rng = np.random.default_rng(seed)
            schedules.append([client[batch] for _ in range(2) for batch in epoch_batches(len(client), 4, rng)])
        assert len(steps) == max(len(schedule) for schedule in schedules)
        for step, (features, sizes) in enumerate(steps):
            # the clients with a batch at this step, in cohort order, each training on its batch's rows
            batches = [schedule[step] for schedule in schedules if step < len(schedule)]
            assert list(sizes) == [len(batch) for batch in batches]
            np.testing.assert_array_equal(features, data.features[np.concatenate(batches)])

    @pytest.mark.parametrize("seeds,named", [([0, -1, 2], "client 1"), ([0, 1, 2**64], "client 2")])
    def test_a_seed_outside_0_to_2_64_names_its_client(self, seeds, named):
        data, clients, layout, inits = self.mixed_cohort()
        with pytest.raises(ParameterError, match=f"^{named}: seed"):
            local_train(clients[:3], data, inits[:3], layout, 1, 4, 0.05, 0.0, seeds)

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf, np.float32(1.5), "2", None])
    def test_a_seed_that_is_not_a_whole_number_names_its_client(self, seed):
        # 1.5 once trained silently as seed 1, and nan raised a bare ValueError from int()
        data, clients, layout, inits = self.mixed_cohort()
        with pytest.raises(ParameterError, match="^client 1: seed .* is not a whole number"):
            local_train(clients[:3], data, inits[:3], layout, 1, 4, 0.05, 0.0, [0, seed, 2])

    def test_whole_seeds_keep_every_bit_whatever_their_type(self):
        # a float 2.0 is seed 2, and a Python int above 2**53 next to it is not rounded through a float
        data, clients, layout, inits = self.mixed_cohort()
        args = (data, inits[:3], layout, 2, 4, 0.05, 0.0)
        want, want_losses = local_train(clients[:3], *args, np.array([2**63 + 5, 2, 7], dtype=np.uint64))
        got, losses = local_train(clients[:3], *args, [2**63 + 5, 2.0, np.int64(7)])
        assert got.tobytes() == want.tobytes() and losses.tobytes() == want_losses.tobytes()

    @pytest.mark.parametrize("given", [
        lambda seeds: np.array(seeds),
        lambda seeds: [np.int64(s) for s in seeds],
        lambda seeds: list(np.array(seeds, dtype=np.uint64)),
    ], ids=["int64 array", "list of np.int64", "list of np.uint64, as derived_seeds gives"])
    def test_numpy_integer_seeds_keep_every_bit(self, given):
        # math.floor of a NumPy integer rounds through a float: 2**53 + 1 was once rejected as not whole
        data, clients, layout, inits = self.mixed_cohort()
        seeds = [2**53 + 1, 2**53 + 3, 2**62 + 1]
        args = (data, inits[:3], layout, 2, 4, 0.05, 0.0)
        want, want_losses = local_train(clients[:3], *args, seeds)
        got, losses = local_train(clients[:3], *args, given(seeds))
        assert got.tobytes() == want.tobytes() and losses.tobytes() == want_losses.tobytes()

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

    def test_a_diverged_client_is_in_no_later_training_call(self, monkeypatch):
        # the cohorts of the test above over two epochs, so that each diverging client has steps left
        data, _, layout, inits = self.mixed_cohort()
        features = data.features.copy()
        features[[0, 1]] = np.nan
        data = Dataset(features, data.labels, data.n_classes)
        seed = next(s for s in range(100) if np.random.default_rng(s).permutation(2)[0] == 1)
        healthy, late, early = np.array([5, 6, 7]), np.array([1, 2]), np.array([0])
        loss_and_grads = model.hybrid_loss_and_grads
        calls = []

        def finite_rows_only(features, labels, params, *args):
            assert np.all(np.isfinite(params))
            calls.append(len(params))
            return loss_and_grads(features, labels, params, *args)

        monkeypatch.setattr(model, "hybrid_loss_and_grads", finite_rows_only)
        with np.errstate(all="ignore"):
            for cohort, first in (
                ([healthy, late, early], "client 1"),
                ([late, healthy, early], "client 0"),
                ([healthy, early, late], "client 1"),
                ([healthy, healthy, late], "client 2"),
            ):
                calls.clear()
                with pytest.raises(NumericError, match=f"^{first}:"):
                    local_train(cohort, data, inits[:3], layout, 2, 1, 0.05, 0.0, [seed] * 3)
                # the healthy client still takes all six of its steps
                assert len(calls) == 6

    def test_an_empty_cohort_returns_empty_arrays(self):
        data, _, layout, _ = self.mixed_cohort()
        params, losses = local_train([], data, np.zeros((0, layout.size)), layout, 2, 4, 0.05, 0.0, [])
        assert params.shape == (0, layout.size) and params.dtype == np.float64
        assert losses.shape == (0,) and losses.dtype == np.float64


def circuit_major(states):
    """The (G, circuits, 2^Q) view of a stack of amplitude-major (G, 2^Q, circuits) states."""
    return np.swapaxes(states, 1, 2)


def simulate_stack(encoding, angles, classes=1):
    """_simulate, then _z_expectations of the first `classes` qubits, over blocks of k clients of n rows each.

    encoding and angles are one block's (k, n, Q) encoding angles and
    (k, L, Q) variational angles, or lists of them, one per block in row
    order; each client owns its next n rows. Returns the buffer pair, the
    (k, 2^Q, n) view of the first block's states, the (k, n, C) logits of
    a lone block (of each block, as a list, for lists), and the gate table
    and row owners the pass ran with.
    """
    lone = isinstance(encoding, np.ndarray)
    encodings, angles = ([encoding], [angles]) if lone else (encoding, angles)
    blocks = [e.shape[:2] for e in encodings]
    q = encodings[0].shape[-1]
    gates = _gate_trig(np.concatenate(angles))
    owners = np.repeat(np.arange(sum(k for k, _ in blocks)), [n for k, n in blocks for _ in range(k)])
    pair = _simulate(np.concatenate([e.reshape(-1, q) for e in encodings]), gates, owners)
    rows = _z_expectations(pair, classes, blocks)
    starts = np.cumsum([0] + [k * n for k, n in blocks])
    logits = [rows[a:b].reshape(k, n, classes) for (k, n), a, b in zip(blocks, starts, starts[1:])]
    k, n = blocks[0]
    states = pair[0, :, :k * n].reshape(2**q, k, n).transpose(1, 0, 2)
    return pair, states, logits[0] if lone else logits, gates, owners


def adjoint_stack(encoding, angles, upstream):
    """The adjoint's (k, L, Q) angle and (k, n, Q) embedding gradients of one (k, n, ·) block, after its <Z>.

    Lists of blocks, as simulate_stack takes them, with one (k, n, C)
    upstream array per block, give a list of per-block gradient pairs.
    """
    lone = isinstance(encoding, np.ndarray)
    upstreams = [upstream] if lone else upstream
    pair, _, _, gates, owners = simulate_stack(encoding, angles, upstreams[0].shape[-1])
    rows = np.concatenate([u.reshape(-1, u.shape[-1]) for u in upstreams])
    grads = model._adjoint(pair, gates, owners, rows, [u.shape[:2] for u in upstreams])
    return grads[0] if lone else grads


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
    """Peak memory of the simulator's calls, by tracemalloc, against the buffers they hold."""

    def test_shift_rule_peak_memory_is_at_most_three_states(self, rng):
        # the oracle's 2K shifted circuits per sample: two simulator buffers, then the state and its <Z> squares
        clients, rows, qubits, layers = 10, 32, 4, 2
        embeddings = rng.uniform(-1, 1, (clients, rows, qubits))
        angles = rng.uniform(-math.pi, math.pi, (clients, layers, qubits))
        upstream = rng.standard_normal((clients, rows, qubits))
        peak = peak_memory(lambda: param_shift_grad(embeddings, angles, upstream))
        state_bytes = clients * rows * 2 * (layers + 1) * qubits * 2**qubits * 8
        assert peak <= 3 * state_bytes

    @pytest.mark.parametrize("clients,rows,qubits,layers", [(100, 64, 4, 2), (4, 64, 10, 1)])
    def test_training_call_peak_memory_is_within_its_buffers(self, rng, clients, rows, qubits, layers):
        # Q + 5 forward states: the forward result, the (psi, lambda) pair and its scratch, Q gathered partner
        # states; plus 64 values per row (MLP activations, encoding, softmax) and numpy's fixed-size iteration buffers
        layout = ParamLayout(4, 5, qubits, layers)
        params = np.stack([init_params(layout, g) for g in range(clients)])
        features = rng.uniform(-1, 1, (clients * rows, 4))
        labels = rng.integers(0, qubits, clients * rows)
        peak = peak_memory(lambda: hybrid_loss_and_grads(features, labels, params, layout, qubits))
        state_bytes = clients * rows * 2**qubits * 8
        assert peak <= (qubits + 5) * state_bytes + clients * rows * 64 * 8 + 512 * 1024

    @pytest.mark.parametrize("clients,most,qubits,layers", [(100, 127, 4, 2), (4, 160, 10, 1)])
    def test_mixed_size_training_call_peak_memory_is_within_its_buffers(self, rng, clients, most, qubits, layers):
        # the bound of an equal-size call, over the call's total rows, whatever their batch sizes
        layout = ParamLayout(4, 5, qubits, layers)
        params = np.stack([init_params(layout, g) for g in range(clients)])
        sizes = rng.integers(1, most + 1, clients)
        sizes[:3] = [1, 2, 3]
        rows = int(sizes.sum())
        features = rng.uniform(-1, 1, (rows, 4))
        labels = rng.integers(0, qubits, rows)
        peak = peak_memory(lambda: hybrid_loss_and_grads(features, labels, params, layout, qubits, 0.0, None, sizes))
        state_bytes = rows * 2**qubits * 8
        assert peak <= (qubits + 5) * state_bytes + rows * 64 * 8 + 512 * 1024

    def test_forward_pass_peak_memory_is_under_three_and_a_quarter_states(self, rng):
        # _simulate's bound at Q = 4, plus room for (L+1)Q input angles per sample;
        # a state of megabytes keeps numpy's fixed-size iteration buffers out of the ratio
        clients, rows, qubits, layers = 100, 200, 4, 2
        embeddings = rng.uniform(-1, 1, (clients, rows, qubits))
        angles = rng.uniform(-math.pi, math.pi, (clients, layers, qubits))
        peak = peak_memory(lambda: circuit_forward(embeddings, angles))
        state_bytes = clients * rows * 2**qubits * 8
        rotation_bytes = clients * rows * (layers + 1) * qubits * 8
        assert peak <= 3.25 * state_bytes + rotation_bytes


def reference_simulate(rotations):
    """The simulator as it was before the fused pass: gate by gate from |0...0>, one angle per circuit and gate.

    Takes the (G, rows, L+1, Q) rotations of every row and returns the
    (G, rows, 2^Q) circuit-major statevectors.
    """
    g, rows, depth, n_qubits = rotations.shape
    state = np.zeros((g, 2**n_qubits, rows))
    state[:, 0] = 1.0
    scratch = np.empty_like(state)
    for layer in range(depth):
        for q in range(n_qubits):
            half = (0.5 * rotations[:, :, layer, q]).reshape(g, 1, 1, rows)
            c, s = np.cos(half), np.sin(half)
            # axes (block, higher qubits, qubit q, lower qubits, row)
            view = state.reshape(g, 2**q, 2, -1, rows)
            temp = scratch.reshape(g, 2**q, 2, -1, rows)
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


def draw_angles(rng, shape):
    """Angles of the given shape: a third of them 0, -0.0, pi or -pi, the rest uniform in [-pi, pi)."""
    kinds = rng.integers(0, 6, shape)
    pool = np.array([0.0, -0.0, math.pi, -math.pi])
    return np.where(kinds < 4, pool[np.minimum(kinds, 3)], rng.uniform(-math.pi, math.pi, shape))


class TestReferenceSimulator:
    """The simulator against reference_simulate: the same numbers, byte for byte."""

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_gate_by_gate_reference(self, rng, qubits, layers):
        for clients in range(1, 5):
            for rows in range(1, 6):
                encoding = draw_angles(rng, (clients, rows, qubits))
                encoding[0, 0, 0] = -0.0  # an embedding entry of -0.0
                angles = draw_angles(rng, (clients, layers, qubits))
                # the reference takes every row's rotations: its encoding, then its client's angles
                shared = np.broadcast_to(angles[:, None], (clients, rows, layers, qubits))
                reference = reference_simulate(np.concatenate([encoding[:, :, None], shared], axis=2))
                _, states, z, _, _ = simulate_stack(encoding, angles, qubits)
                where = f"{clients} clients, {rows} rows"
                # signed zeros aside (the product-state encoding may flip the sign of an exact zero)
                np.testing.assert_array_equal(circuit_major(states), reference, err_msg=where)
                probabilities = np.ascontiguousarray(circuit_major(np.square(states)))
                assert probabilities.tobytes() == np.ascontiguousarray(reference**2).tobytes(), where
                assert z.shape == reference.shape[:2] + (qubits,)
                assert z.tobytes() == reference_z_expectations(reference, qubits).tobytes(), where


def model_layer_digest():
    """sha256 over the bytes of training losses and gradients and shift-rule oracle outputs on a fixed seeded grid."""
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


class TestAdjoint:
    """The adjoint sweep against the shift-rule oracle, and its stacks against their blocks run alone."""

    @pytest.mark.parametrize("qubits", range(1, 11))
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_the_shift_rule_oracle(self, rng, qubits, layers):
        for clients, rows in ((1, 1), (2, 3)):
            classes = int(rng.integers(1, qubits + 1))
            # encoding angles pi * e at 0, -0.0 and +-pi too
            embeddings = draw_angles(rng, (clients, rows, qubits)) / math.pi
            angles = draw_angles(rng, (clients, layers, qubits))
            upstream = rng.standard_normal((clients, rows, classes))
            encoding, _, _, _ = _circuit_inputs(embeddings, angles, classes)
            grad_var, grad_emb = adjoint_stack(encoding, angles, upstream)
            want_var, want_emb = param_shift_grad(embeddings, angles, upstream, classes)
            np.testing.assert_allclose(grad_var, want_var, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad_emb, want_emb, rtol=0, atol=1e-12)

    def test_stack_equals_its_blocks_alone_bit_for_bit(self, rng):
        for _ in range(200):
            qubits, layers = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            clients, rows = int(rng.integers(2, 7)), int(rng.integers(1, 7))
            classes = int(rng.integers(1, qubits + 1))
            encoding = draw_angles(rng, (clients, rows, qubits))
            angles = draw_angles(rng, (clients, layers, qubits))
            upstream = rng.standard_normal((clients, rows, classes))
            stacked = adjoint_stack(encoding, angles, upstream)
            for g in range(clients):
                alone = adjoint_stack(encoding[g:g + 1], angles[g:g + 1], upstream[g:g + 1])
                for got, want in zip(stacked, alone):
                    assert np.ascontiguousarray(got[g]).tobytes() == np.ascontiguousarray(want[0]).tobytes()


class TestRaggedPass:
    """One pass over blocks of different row counts: each block's results are those of its own pass, byte for byte."""

    @pytest.mark.parametrize("qubits,layers,classes", [(1, 1, 1), (2, 2, 1), (3, 1, 2), (4, 2, 3), (6, 3, 4)])
    def test_blocks_of_any_row_counts_equal_each_block_alone(self, rng, qubits, layers, classes):
        blocks = [(2, 3), (1, 1), (3, 8), (2, 2), (1, 13)]
        encodings = [draw_angles(rng, (k, n, qubits)) for k, n in blocks]
        angles = [draw_angles(rng, (k, layers, qubits)) for k, _ in blocks]
        upstream = [rng.standard_normal((k, n, classes)) for k, n in blocks]
        pair, _, logits, _, _ = simulate_stack(encodings, angles, classes)
        states = pair[0].copy()
        grads = adjoint_stack(encodings, angles, upstream)
        start = 0
        for (k, n), e, a, u, z, (grad_var, grad_emb) in zip(blocks, encodings, angles, upstream, logits, grads):
            alone, _, alone_z, _, _ = simulate_stack(e, a, classes)
            assert states[:, start:start + k * n].tobytes() == np.ascontiguousarray(alone[0]).tobytes()
            assert z.tobytes() == alone_z.tobytes()
            want_var, want_emb = adjoint_stack(e, a, u)
            assert grad_var.tobytes() == want_var.tobytes()
            assert np.ascontiguousarray(grad_emb).tobytes() == np.ascontiguousarray(want_emb).tobytes()
            start += k * n


class TestTrainingPass:
    """A training call simulates each sample's circuit once, forward; the adjoint sweep needs no second simulation."""

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
        # a stack, a stack of mixed batch sizes, one client's batch and one sample
        for p, rows, sizes in ((params, 12, None), (params, 12, [5, 1, 6]), (params[0], 4, None), (params[0], 1, None)):
            calls.clear()
            hybrid_loss_and_grads(features[:rows], labels[:rows], p, layout, 3, 0.3, p, sizes)
            assert calls == Counter({"_simulate": 1})

    def test_cached_tables_are_shared_and_read_only(self):
        signs = model._z_signs(3, 2)
        assert model._z_signs(3, 2) is signs
        # <Z_c> is +1 where qubit c (bit Q-1-c of the basis index) is clear
        np.testing.assert_array_equal(signs.T, [[1, 1, 1, 1, -1, -1, -1, -1], [1, 1, -1, -1, 1, 1, -1, -1]])
        index, partner_signs = model._partners(2)
        assert model._partners(2)[0] is index
        # qubit 0 owns bit 1 and qubit 1 bit 0; J_q's sign is -1 where q's bit is clear
        np.testing.assert_array_equal(index, [2, 3, 0, 1, 1, 0, 3, 2])
        np.testing.assert_array_equal(partner_signs[:, 0], [[-1, -1, 1, 1], [-1, 1, -1, 1]])
        ring, inverse = model._ring_gather(3), model._ring_gather(3, True)
        np.testing.assert_array_equal(ring[inverse], np.arange(8))
        for table in (signs, index, partner_signs, ring, inverse):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_model_layer_digest_is_pinned(self):
        # losses, gradients and shift-rule oracle outputs, stacks and one-row batches included, bit for bit
        assert model_layer_digest() == MODEL_LAYER_DIGEST


class TestEpochBatches:
    def test_every_epoch_covers_every_index(self, rng):
        for n, batch in ((17, 5), (32, 32), (10, 3), (8, 16)):
            batches = epoch_batches(n, batch, rng)
            combined = np.sort(np.concatenate(batches))
            np.testing.assert_array_equal(combined, np.arange(n))
            assert all(len(b) <= batch for b in batches)

    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_batch_size_below_one_rejected(self, rng, batch_size):
        with pytest.raises(ParameterError, match="batch_size must be >= 1"):
            epoch_batches(10, batch_size, rng)

    def test_batch_size_that_is_not_an_integer_rejected(self, rng):
        # range() once raised a bare TypeError
        with pytest.raises(ParameterError, match="^batch_size must be an integer"):
            epoch_batches(5, 2.5, rng)

    def test_samples_seen_conservation(self, rng):
        # one epoch sees n samples, so E epochs see n * E
        n, batch, epochs = 23, 7, 4
        seen = sum(len(b) for _ in range(epochs) for b in epoch_batches(n, batch, rng))
        assert seen == n * epochs
