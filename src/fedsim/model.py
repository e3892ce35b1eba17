"""The hybrid client model and its local trainer.

A two-layer tanh MLP compresses F input features into Q values which are
angle-encoded into a Q-qubit statevector; L variational layers of RY
rotations plus a CNOT ring follow, and Pauli-Z expectations of the first C
qubits serve as class logits. Every gate here is real-valued, so the
statevector is kept in float64.

All parameters live in one flat float64 vector; a ParamLayout hands out
zero-copy views of its dense-layer blocks and of its (L, Q) angle block.
Gradients share that layout, so Adam steps, the proximal term and server
aggregation all work on plain vectors.

Gradients are exact: backprop through the dense layers and the two-point
shift rule through every rotation gate (two circuit evaluations per
parameter, the same recipe gradient hardware uses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._angles import wrap_angles
from .data import ClientDataset, Dataset, ClassDistribution, class_distribution
from .errors import NumericError, ParameterError

HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class ParamLayout:
    """Block layout of the flat parameter vector of an F -> H -> Q MLP plus L layers.

    The vector holds w1 (H, F), b1 (H,), w2 (Q, H), b2 (Q,) and the angles
    (L, Q), in that order and each row-major, so angle l * Q + q of the angle
    block rotates qubit q in layer l. The first n_classical entries are the
    classical feature extractor; a vector of just those entries (a server-side
    cluster model) yields the same dense views. Views share memory with the
    vector they come from.

    The canonical angle domain is (-pi, pi]; protocol boundaries
    (initialization, trained uploads, aggregated broadcasts) always wrap,
    while intermediate optimizer steps may briefly leave the interval.
    """

    features: int
    hidden: int
    qubits: int
    layers: int

    @property
    def n_classical(self) -> int:
        return self.hidden * (self.features + 1 + self.qubits) + self.qubits

    @property
    def size(self) -> int:
        return self.n_classical + self.layers * self.qubits

    def dense(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views (w1, b1, w2, b2) of a full parameter vector or of its classical part."""
        if params.shape not in ((self.n_classical,), (self.size,)):
            raise ParameterError("parameter vector length does not match the layout")
        f, h, q = self.features, self.hidden, self.qubits
        o1 = h * f
        o2 = o1 + h
        o3 = o2 + q * h
        return params[:o1].reshape(h, f), params[o1:o2], params[o2:o3].reshape(q, h), params[o3:self.n_classical]

    def angles(self, params: np.ndarray) -> np.ndarray:
        """The (L, Q) view of a full parameter vector's variational angles."""
        if params.shape != (self.size,):
            raise ParameterError("parameter vector length does not match the layout")
        return params[self.n_classical:].reshape(self.layers, self.qubits)


@dataclass
class ClientUpdate:
    """What a client uploads after local training: one flat vector, angles wrapped."""

    client_id: int
    params: np.ndarray
    layout: ParamLayout
    distribution: ClassDistribution
    train_loss: float


class MlpCache(NamedTuple):
    x: np.ndarray
    hidden: np.ndarray
    embedding: np.ndarray


def mlp_forward(dense, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Embedding tanh(W2 tanh(W1 x + b1) + b2) plus the activations backprop needs.

    `dense` is the (w1, b1, w2, b2) tuple of ParamLayout.dense.
    """
    w1, b1, w2, b2 = dense
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (w1.shape[1],):
        raise ParameterError(f"expected a length-{w1.shape[1]} feature vector")
    hidden = np.tanh(w1 @ x + b1)
    embedding = np.tanh(w2 @ hidden + b2)
    return embedding, MlpCache(x, hidden, embedding)


def mlp_forward_batch(dense, xs: np.ndarray) -> np.ndarray:
    """Row-wise embeddings for a (n, F) feature matrix (inference path)."""
    w1, b1, w2, b2 = dense
    hidden = np.tanh(xs @ w1.T + b1)
    return np.tanh(hidden @ w2.T + b2)


def mlp_backward(dense, cache: MlpCache, grad_embedding: np.ndarray, grad_dense) -> None:
    """Add one sample's dense-layer gradients, given dLoss/dEmbedding, into grad_dense.

    grad_dense is the (w1, b1, w2, b2) view tuple of the flat gradient.
    """
    _, _, w2, _ = dense
    gw1, gb1, gw2, gb2 = grad_dense
    d_pre2 = grad_embedding * (1.0 - cache.embedding**2)
    gw2 += np.outer(d_pre2, cache.hidden)
    d_hidden = w2.T @ d_pre2
    d_pre1 = d_hidden * (1.0 - cache.hidden**2)
    gw1 += np.outer(d_pre1, cache.x)
    gb1 += d_pre1
    gb2 += d_pre2


def _apply_ry(state: np.ndarray, qubit: int, angle: float) -> None:
    """In-place RY rotation on one axis of the (2,)*Q state tensor."""
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    view = np.moveaxis(state, qubit, 0)
    a0 = view[0].copy()
    a1 = view[1].copy()
    view[0] = c * a0 - s * a1
    view[1] = s * a0 + c * a1


def _apply_cnot(state: np.ndarray, control: int, target: int) -> None:
    """In-place CNOT: flip the target axis within the control=1 slice."""
    sl = [slice(None)] * state.ndim
    sl[control] = 1
    t_axis = target - 1 if target > control else target
    sub = state[tuple(sl)]
    state[tuple(sl)] = np.flip(sub, axis=t_axis).copy()


def _run_circuit(encoding_angles: np.ndarray, angles: np.ndarray) -> np.ndarray:
    n_qubits = angles.shape[1]
    state = np.zeros((2,) * n_qubits, dtype=np.float64)
    state[(0,) * n_qubits] = 1.0
    for q in range(n_qubits):
        _apply_ry(state, q, encoding_angles[q])
    for layer_angles in angles:
        for q in range(n_qubits):
            _apply_ry(state, q, layer_angles[q])
        if n_qubits > 1:
            for q in range(n_qubits):
                _apply_cnot(state, q, (q + 1) % n_qubits)
    return state


def _z_expectations(state: np.ndarray) -> np.ndarray:
    probs = state**2
    n_qubits = state.ndim
    out = np.empty(n_qubits)
    for q in range(n_qubits):
        marginal = np.moveaxis(probs, q, 0).reshape(2, -1).sum(axis=1)
        out[q] = marginal[0] - marginal[1]
    return out


def _circuit_inputs(embedding, angles, n_classes: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """Validated (embedding, (L, Q) angles, class count); Q and L come from the angles' shape."""
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 2:
        raise ParameterError("angles must have shape (layers, qubits)")
    q = angles.shape[1]
    c = q if n_classes is None else n_classes
    if c > q:
        raise ParameterError(f"need n_classes <= {q} qubits")
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.shape != (q,):
        raise ParameterError(f"expected a length-{q} embedding")
    return emb, angles, c


def statevector(embedding: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Flat 2^Q statevector after encoding and all variational layers.

    Qubit 0 owns the most significant bit of the flat index. Exposed so the
    simulator can be checked against dense matrix products.
    """
    emb, angles, _ = _circuit_inputs(embedding, angles, None)
    return _run_circuit(np.pi * emb, angles).reshape(-1)


def circuit_forward(embedding: np.ndarray, angles: np.ndarray, n_classes: int | None = None) -> np.ndarray:
    """Class logits <Z_0> .. <Z_{C-1}> of the variational classifier.

    The embedding enters as per-qubit RY(pi * e_q) rotations of |0...0>,
    then each of the L layers (rows of the (L, Q) angles) applies per-qubit
    RY rotations followed by a CNOT ring q -> q+1 mod Q (skipped when
    Q = 1). Logits are Pauli-Z expectations, so each lies in [-1, 1].
    """
    emb, angles, c = _circuit_inputs(embedding, angles, n_classes)
    return _z_expectations(_run_circuit(np.pi * emb, angles))[:c]


def param_shift_grad(
    embedding: np.ndarray,
    angles: np.ndarray,
    upstream: np.ndarray,
    n_classes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact circuit gradients contracted with an upstream dLoss/dLogits.

    Every rotation angle theta obeys d<Z>/dtheta =
    (<Z>(theta + pi/2) - <Z>(theta - pi/2)) / 2, evaluated by re-running
    the circuit twice per parameter. The embedding gradient additionally
    carries the pi factor of the encoding map e -> RY(pi * e). The angle
    gradient has the (L, Q) shape of the angles.
    """
    emb, angles, c = _circuit_inputs(embedding, angles, n_classes)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (c,):
        raise ParameterError(f"expected a length-{c} upstream gradient")

    def shift_rule(encoding, var, shifted):
        # shifted is a flat view of encoding or of var; every entry is shifted in turn
        grad = np.empty(len(shifted))
        for k in range(len(shifted)):
            original = shifted[k]
            shifted[k] = original + HALF_PI
            plus = _z_expectations(_run_circuit(encoding, var))[:c]
            shifted[k] = original - HALF_PI
            minus = _z_expectations(_run_circuit(encoding, var))[:c]
            shifted[k] = original
            grad[k] = upstream @ (plus - minus) * 0.5
        return grad

    encoding = np.pi * emb
    var = angles.copy()
    grad_var = shift_rule(encoding, var, var.reshape(-1)).reshape(angles.shape)
    shifted_encoding = encoding.copy()
    grad_emb = np.pi * shift_rule(shifted_encoding, angles, shifted_encoding)
    return grad_var, grad_emb


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Loss -log softmax(logits)[label] and its gradient w.r.t. the logits."""
    z = logits - logits.max()
    expz = np.exp(z)
    probs = expz / expz.sum()
    grad = probs.copy()
    grad[label] -= 1.0
    return -float(np.log(probs[label])), grad


def hybrid_loss_and_grads(
    features: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    layout: ParamLayout,
    n_classes: int,
    prox_mu: float = 0.0,
    prox_anchor: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy loss and its exact gradient, a vector laid out like params.

    When prox_mu > 0 and an anchor is given, adds the proximal penalty
    (prox_mu / 2) * ||params - anchor||^2 over all parameters, classical
    and quantum alike. prox_mu = 0 skips the penalty entirely so the result
    is bit-identical with or without an anchor.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    params = np.asarray(params, dtype=np.float64)
    if len(labels) == 0:
        raise ParameterError("batch must be non-empty")
    dense, angles = layout.dense(params), layout.angles(params)
    grad = np.zeros(layout.size)
    grad_dense, grad_angles = layout.dense(grad), layout.angles(grad)
    loss = 0.0
    for x, y in zip(features, labels):
        emb, cache = mlp_forward(dense, x)
        logits = circuit_forward(emb, angles, n_classes)
        sample_loss, upstream = softmax_cross_entropy(logits, int(y))
        gq, gemb = param_shift_grad(emb, angles, upstream, n_classes)
        mlp_backward(dense, cache, gemb, grad_dense)
        loss += sample_loss
        grad_angles += gq
    n = float(len(labels))
    loss /= n
    grad /= n
    if prox_mu > 0.0 and prox_anchor is not None:
        diff = params - prox_anchor
        # two dot products rather than one over diff: the summation order fixes the loss's last bits
        diff_c, diff_q = diff[:layout.n_classical], diff[layout.n_classical:]
        loss += 0.5 * prox_mu * (float(diff_c @ diff_c) + float(diff_q @ diff_q))
        grad += prox_mu * diff
    return loss, grad


@dataclass
class AdamState:
    """Adam's first/second moment vectors and step counter, for client and server alike."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape or self.m.ndim != 1:
            raise ParameterError("moment buffers must be vectors of equal length")
        if np.any(self.v < 0):
            raise ParameterError("second moments must be non-negative")
        if self.t < 0:
            raise ParameterError("step counter must be >= 0")

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), 0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step on a parameter vector; the client and server steps share it."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), AdamState(m, v, t)


def adam_local_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One client-side Adam step over the flat hybrid parameters."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != params.shape:
        raise ParameterError("gradient length does not match parameter count")
    return adam_step(params, grads, state, lr, beta1, beta2, eps)


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled mini-batch index blocks covering 0..n-1 exactly once.

    The final block is kept even when shorter than batch_size, so every
    epoch touches every sample exactly once.
    """
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    perm = rng.permutation(n)
    return [perm[start:start + batch_size] for start in range(0, n, batch_size)]


def local_train(
    client: ClientDataset,
    dataset: Dataset,
    init: np.ndarray,
    layout: ParamLayout,
    epochs: int,
    batch_size: int,
    lr: float,
    prox_mu: float,
    seed: int,
) -> ClientUpdate:
    """Mini-batch Adam over the client's samples, from a fresh optimizer state.

    Sample order reshuffles every epoch from the seeded generator. When
    prox_mu > 0 the received model is the proximal anchor, which keeps the
    local objective from drifting far from the broadcast parameters. The
    returned update carries quantum angles wrapped to (-pi, pi], the
    client's class distribution, and the mean loss of the final epoch.
    A step that leaves any parameter non-finite raises NumericError naming
    the client, before the circuit could see an infinite angle.
    """
    if epochs < 1:
        raise ParameterError("epochs must be >= 1")
    rng = np.random.default_rng(seed)
    params = np.asarray(init, dtype=np.float64)
    state = AdamState.zeros(layout.size)
    anchor = params if prox_mu > 0.0 else None
    xs = dataset.features[client.indices]
    ys = dataset.labels[client.indices]
    n = len(ys)
    last_epoch_loss = math.nan
    for _ in range(epochs):
        total = 0.0
        for batch in epoch_batches(n, batch_size, rng):
            loss, grad = hybrid_loss_and_grads(
                xs[batch], ys[batch], params, layout, dataset.n_classes, prox_mu, anchor
            )
            params, state = adam_local_step(params, grad, state, lr)
            if not np.all(np.isfinite(params)):
                raise NumericError(f"client {client.client_id}: local training diverged to non-finite parameters")
            total += loss * len(batch)
        last_epoch_loss = total / n
    trained = np.concatenate([params[:layout.n_classical], wrap_angles(params[layout.n_classical:])])
    return ClientUpdate(client.client_id, trained, layout, class_distribution(client, dataset), last_epoch_loss)


def init_params(layout: ParamLayout, seed: int) -> np.ndarray:
    """Seeded initialization: Glorot-uniform weights, zero biases, uniform angles.

    Angles land in (-pi, pi] by construction (pi minus a uniform [0, 2pi)
    draw), matching the canonical domain.
    """
    rng = np.random.default_rng(seed)
    lim1 = math.sqrt(6.0 / (layout.features + layout.hidden))
    lim2 = math.sqrt(6.0 / (layout.hidden + layout.qubits))
    params = np.zeros(layout.size)
    w1, _, w2, _ = layout.dense(params)
    w1[...] = rng.uniform(-lim1, lim1, w1.shape)
    w2[...] = rng.uniform(-lim2, lim2, w2.shape)
    angles = layout.angles(params)
    angles[...] = np.pi - rng.uniform(0.0, 2.0 * np.pi, angles.shape)
    return params
