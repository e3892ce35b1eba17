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

There is one simulation path, and it works on blocks of batches: the
statevectors of G blocks of circuits are one amplitude-major
(G, 2^Q, rows) array, the encoding layer a product state built one qubit
at a time, each variational RY gate three passes over the whole state (its
halves swapped times -sin | +sin, the state times cos, the two summed),
the CNOT ring one index permutation and <Z> one product per block against
a +-1 sign table. A block's circuits are its samples' base angles plus the
rows of an offset table: one row of -0.0 for a forward pass; for a
training call that row followed by the +-pi/2 shifts, so the logits and
the shift-rule gradient come from one simulation. Cosines and sines are
taken once per sample, gate and distinct offset, a few per gate however
long the table, and each gate gathers its own from them. The simulator
holds two state-size buffers, the state and one scratch array, so a
training stack costs little more than twice its final state (see
_simulate). A single sample is a one-row batch, a single batch a
one-block stack.

Clients train as a cohort. Parameters, gradients and Adam moments of G
clients stack on a leading client axis as (G, P) arrays, and G equal-size
batches run as one (G, n, ·) stack through the MLP, the circuits, the
softmax and the Adam step, however large G is; a single client is a
one-client cohort. A stacked result is bit-identical to G separate calls
because every BLAS product keeps its per-client operand shape and layout:
the dense layers are (G, n, ·) @ (G, ·, ·) products, <Z> is taken per
(rows, 2^Q) block rather than over the flattened stack (a one-row block
must stay a gemv), and the proximal term is a (G, 1, k) @ (G, k, 1)
product, one ddot per client. Everything else is elementwise or a
reduction along a client's own rows.

Gradients are exact: backprop through the dense layers and the two-point
shift rule through every rotation gate (two circuit evaluations per
parameter, the same recipe gradient hardware uses), with all shifted
circuits of a batch simulated at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._angles import wrap_angles
from .data import Dataset
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
        """Views (w1, b1, w2, b2) of a full parameter vector or of its classical part.

        A (G, P) stack of G such vectors gives (G, H, F), (G, 1, H), (G, Q, H)
        and (G, 1, Q) views: the biases keep a row axis so that they
        broadcast over each client's (G, n, ·) batch.
        """
        if params.ndim not in (1, 2) or params.shape[-1] not in (self.n_classical, self.size):
            raise ParameterError("parameter vector length does not match the layout")
        f, h, q = self.features, self.hidden, self.qubits
        o1 = h * f
        o2 = o1 + h
        o3 = o2 + q * h
        lead = params.shape[:-1]
        row = (*lead, 1) if lead else ()
        return (
            params[..., :o1].reshape(*lead, h, f),
            params[..., o1:o2].reshape(*row, h),
            params[..., o2:o3].reshape(*lead, q, h),
            params[..., o3:self.n_classical].reshape(*row, q),
        )

    def angles(self, params: np.ndarray) -> np.ndarray:
        """The (L, Q) view of a full parameter vector's variational angles; (G, L, Q) for a (G, P) stack."""
        if params.ndim not in (1, 2) or params.shape[-1] != self.size:
            raise ParameterError("parameter vector length does not match the layout")
        return params[..., self.n_classical:].reshape(*params.shape[:-1], self.layers, self.qubits)


class MlpCache(NamedTuple):
    x: np.ndarray
    hidden: np.ndarray
    embedding: np.ndarray


def _transpose(a: np.ndarray) -> np.ndarray:
    """Swap the last two axes: a matrix's transpose, or every matrix's in a stack."""
    return np.swapaxes(a, -1, -2)


def mlp_forward(dense, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Embedding tanh(W2 tanh(W1 x + b1) + b2) plus the activations backprop needs.

    `dense` is the (w1, b1, w2, b2) tuple of ParamLayout.dense. x is one
    length-F feature vector or an (n, F) batch of them; the embedding is a
    length-Q vector or an (n, Q) batch to match. With the views of a (G, P)
    stack, x is a (G, n, F) stack of batches, client g's rows meeting
    client g's weights, and the embedding is (G, n, Q).
    """
    w1, b1, w2, b2 = dense
    x = np.asarray(x, dtype=np.float64)
    f = w1.shape[-1]
    if w1.ndim == 3:
        shape_ok = x.ndim == 3 and len(x) == len(w1)
    else:
        shape_ok = x.ndim in (1, 2)
    if not shape_ok or x.shape[-1] != f:
        raise ParameterError(f"expected a length-{f} feature vector or an (n, {f}) batch, one per client of a stack")
    hidden = np.tanh(x @ _transpose(w1) + b1)
    embedding = np.tanh(hidden @ _transpose(w2) + b2)
    return embedding, MlpCache(x, hidden, embedding)


def mlp_backward(dense, cache: MlpCache, grad_embedding: np.ndarray, grad_dense) -> None:
    """Add a batch's dense-layer gradients, given its (n, Q) dLoss/dEmbedding rows, into grad_dense.

    cache comes from mlp_forward on an (n, F) batch; the gradients are
    summed over its rows. grad_dense is the (w1, b1, w2, b2) view tuple of
    the flat gradient. For a (G, n, F) stack, each client's gradient is
    summed over its own rows into its row of a (G, P) gradient stack.
    """
    _, _, w2, _ = dense
    gw1, gb1, gw2, gb2 = grad_dense
    stacked = gw1.ndim == 3
    d_pre2 = grad_embedding * (1.0 - cache.embedding**2)
    gw2 += _transpose(d_pre2) @ cache.hidden
    d_pre1 = (d_pre2 @ w2) * (1.0 - cache.hidden**2)
    gw1 += _transpose(d_pre1) @ cache.x
    gb1 += d_pre1.sum(axis=-2, keepdims=stacked)
    gb2 += d_pre2.sum(axis=-2, keepdims=stacked)


@functools.lru_cache(maxsize=None)
def _ring_gather(n_qubits: int) -> np.ndarray:
    """Read-only gather index of the ring CNOT(q, q+1 mod Q), q = 0..Q-1, over the 2^Q amplitudes.

    Qubit q owns bit Q-1-q; each CNOT is its own inverse, so the gather
    composes them in reverse. Cached per qubit count.
    """
    ring = np.arange(2**n_qubits)
    for q in reversed(range(n_qubits)):
        control_bit, target_bit = n_qubits - 1 - q, n_qubits - 1 - (q + 1) % n_qubits
        ring ^= ((ring >> control_bit) & 1) << target_bit
    ring.flags.writeable = False
    return ring


class OffsetTable(NamedTuple):
    """An (m, K) table of angle offsets, K = (L+1) * Q, split per gate into its distinct values.

    Column j of the table offsets gate j (layer j // Q, qubit j % Q). Two
    offsets count as distinct when their bit patterns differ, so +0.0 and
    -0.0 stay apart. Build one with _offset_table; every array is read-only.
    """

    table: np.ndarray  # (m, K)
    distinct: np.ndarray  # (K, d) the distinct values of each column, padded with 0.0
    lookup: np.ndarray  # (K, m) where row r's offset of gate j sits in distinct[j]


def _offset_table(table: np.ndarray) -> OffsetTable:
    """The OffsetTable of an (m, K) array of offsets."""
    table = np.array(table, dtype=np.float64)
    columns = [np.unique(column.view(np.uint64), return_inverse=True) for column in table.T]
    distinct = np.zeros((table.shape[1], max(len(values) for values, _ in columns)))
    lookup = np.empty(table.T.shape, dtype=np.intp)
    for j, (values, where) in enumerate(columns):
        distinct[j, :len(values)] = values.view(np.float64)
        lookup[j] = where
    for array in (table, distinct, lookup):
        array.flags.writeable = False
    return OffsetTable(table, distinct, lookup)


@functools.lru_cache(maxsize=None)
def _forward_offsets(n_gates: int) -> OffsetTable:
    """The one-row table of a forward pass: -0.0 leaves every angle, signed zeros included, as it is. Cached per K."""
    return _offset_table(np.full((1, n_gates), -0.0))


@functools.lru_cache(maxsize=None)
def _training_offsets(n_gates: int) -> OffsetTable:
    """The (2K+1)-row table of a training pass: the forward row, then +pi/2 I, then -pi/2 I. Cached per K."""
    shifts = HALF_PI * np.concatenate([np.eye(n_gates), -np.eye(n_gates)])
    return _offset_table(np.concatenate([np.full((1, n_gates), -0.0), shifts]))


def _simulate(rotations: np.ndarray, offsets: OffsetTable) -> np.ndarray:
    """Amplitude-major (G, 2^Q, rows * m) statevectors of G blocks of circuits: base RY angles plus an offset table.

    rotations holds the (G, rows, L+1, Q) base angles of each block's rows
    and offsets an (m, (L+1) * Q) table; circuit i * m + r of block g runs
    rotations[g, i] + offsets.table[r] (flattened layer-major), so column
    i * m + r of block g is its statevector. A forward pass is a one-row
    table of -0.0, the identity of float addition; a training pass adds the
    2(L+1)Q rows of +-pi/2 times the identity.

    Half angles, cosines and sines are taken one layer at a time, once per
    (sample, gate, distinct offset): 0.5 * (base + offset), from the same
    float sums as a full shifted angle array would hold. A layer's table
    holds cos, -sin and sin, and each gate gathers its (G, 3, rows * m)
    values from it in one take.

    Row 0 of each circuit's angles is the encoding layer. It acts on
    |0...0>, so its state is a product state, built one qubit at a time,
    qubit 0 outermost: the amplitudes so far times the qubit's cosine (bit
    clear) and sine (bit set). Each nonzero amplitude is the same product,
    in the same order, as RY gates applied to |0...0> compute; only the sign
    of an amplitude that is exactly zero may differ. Rows 1..L are the
    variational layers, each an RY gate per qubit followed by the CNOT ring
    (skipped when Q = 1). A gate on qubit q maps the amplitude pair (a0, a1)
    with q's bit clear and set to (c * a0 - s * a1, c * a1 + s * a0) in
    three passes over the whole state: the scratch buffer takes (-s, +s)
    times the state with its two halves swapped, (-s * a1, s * a0); the
    state is multiplied by c; then the scratch is added. This is exact
    against the direct form, byte for byte: negation is exact, so
    (-s) * a1 is -(s * a1), and IEEE 754 defines x - y as x + (-y), signed
    zeros included. Holding the state amplitude-major lets every pass run
    over contiguous runs of circuits.

    Memory: two state-size buffers. Gates update the state in place, with
    the other buffer holding their temporaries; the product-state rounds
    and the ring write into the other buffer, and the two swap roles. On
    top of them come the layer table, 3 * Q * d values per sample (d the
    most distinct offsets of any gate), and per gate 3 gathered values
    per circuit plus the 3 * d per sample that the take copies out of the
    table. Against 2^Q amplitudes per circuit that is about a third of
    the state for a training table at Q = 4 (d = 4, 2K + 1 = 25 circuits
    per sample), but (3Q + 6) / 2^Q of it for a one-row table (d = 1): a
    forward pass at Q = 4 holds under 3.25 states.
    """
    g, rows, depth, n_qubits = rotations.shape
    circuits = rows * len(offsets.table)
    buffers = (np.empty((g, 2**n_qubits, circuits)), np.empty((g, 2**n_qubits, circuits)))
    # per buffer and qubit q, axes (block, higher qubits, q's bit, lower qubits, circuit)
    views = [[b.reshape(g, 2**q, 2, -1, circuits) for q in range(n_qubits)] for b in buffers]
    trig = np.empty((g, 3, rows, n_qubits, offsets.distinct.shape[1]))  # a layer's cos, -sin and sin
    gathered = np.empty((g, 3, rows, len(offsets.table)))  # one gate's, per circuit
    gate = gathered.reshape(g, 1, 3, 1, circuits)
    now = 0
    buffers[now][:, 0] = 1.0  # the empty product, before the encoding layer's first qubit
    for layer in range(depth):
        gates = slice(layer * n_qubits, (layer + 1) * n_qubits)
        half_angles = trig[:, 1]  # the -sin slot holds the half angles until the sines are taken
        np.add(rotations[:, :, layer, :, None], offsets.distinct[gates], out=half_angles)
        half_angles *= 0.5
        np.cos(half_angles, out=trig[:, 0])
        np.sin(half_angles, out=trig[:, 2])
        np.negative(trig[:, 2], out=trig[:, 1])
        for q, where in enumerate(offsets.lookup[gates]):
            np.take(trig[:, :, :, q], where, axis=-1, out=gathered, mode="clip")
            if layer == 0:
                # the first 2^q amplitudes (qubits 0..q-1) times qubit q's cosine and sine give the first 2^(q+1)
                prefix = buffers[now][:, :2**q]
                out = buffers[1 - now][:, :2 ** (q + 1)].reshape(g, 2**q, 2, circuits)
                np.multiply(prefix, gate[:, 0, 0], out=out[:, :, 0])
                np.multiply(prefix, gate[:, 0, 2], out=out[:, :, 1])
                now = 1 - now
            else:
                state, scratch = views[now][q], views[1 - now][q]
                np.multiply(gate[:, :, 1:], state[:, :, ::-1], out=scratch)  # -s * a1 | s * a0
                state *= gate[:, :, :1]
                state += scratch  # c * a0 - s * a1 | c * a1 + s * a0
        if layer > 0 and n_qubits > 1:
            # mode="clip" (the index is always in range) writes straight into out; "raise" buffers it
            np.take(buffers[now], _ring_gather(n_qubits), axis=1, out=buffers[1 - now], mode="clip")
            now = 1 - now
    return buffers[now]


def _z_expectations(amplitudes: np.ndarray, n_classes: int) -> np.ndarray:
    """(G, rows, C) expectations <Z_0> .. <Z_{C-1}> of amplitude-major (G, 2^Q, ...) statevector blocks.

    The trailing axes of amplitudes index a block's circuits, row-major.
    One product per block of its probabilities against a +-1 sign table.
    The probabilities are laid out like a whole simulator result, each
    block column-major, so BLAS sees, for every block of a stack, the same
    call (gemm, or gemv for a one-row block) on the same operand layout as
    for that block alone, and the results are bit-identical. Flattening
    the stack into one (G * rows, 2^Q) product would not be: a one-row
    block would go through gemm instead of gemv.
    """
    g, dim = amplitudes.shape[:2]
    n_qubits = dim.bit_length() - 1
    bits = np.arange(dim)[:, None] >> (n_qubits - 1 - np.arange(n_classes))
    probabilities = np.square(amplitudes, order="C").reshape(g, dim, -1)
    return np.swapaxes(probabilities, 1, 2) @ (1.0 - 2.0 * (bits & 1))


def _circuit_inputs(embedding, angles, n_classes: int | None) -> tuple[np.ndarray, tuple, int]:
    """Validated (G, n, L+1, Q) RY angles per circuit, the embedding's leading shape, and the class count.

    Q and L come from the angles' shape. Either the angles are one (L, Q)
    array and the embedding one length-Q vector (leading shape ()) or an
    (n, Q) batch, with G = 1; or they are a (G, L, Q) stack and the
    embedding a (G, n, Q) stack, client g's rows meeting client g's angles.
    Each circuit's rotations are its encoding pi * e followed by the
    angles of its client.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim not in (2, 3):
        raise ParameterError("angles must have shape (layers, qubits) or (clients, layers, qubits)")
    q = angles.shape[-1]
    c = q if n_classes is None else n_classes
    if c > q:
        raise ParameterError(f"need n_classes <= {q} qubits")
    emb = np.asarray(embedding, dtype=np.float64)
    if angles.ndim == 3:
        g = len(angles)
        if emb.ndim != 3 or len(emb) != g or emb.shape[-1] != q:
            raise ParameterError(f"expected a ({g}, n, {q}) stack of embedding batches")
    else:
        g = 1
        if emb.ndim not in (1, 2) or emb.shape[-1] != q:
            raise ParameterError(f"expected a length-{q} embedding or an (n, {q}) batch")
    rows = emb.reshape(g, -1, q)
    per_client = angles.reshape(g, 1, *angles.shape[-2:])
    shared = np.broadcast_to(per_client, (g, rows.shape[1], *angles.shape[-2:]))
    return np.concatenate([np.pi * rows[:, :, None, :], shared], axis=2), emb.shape[:-1], c


def _forward_pass(rotations: np.ndarray) -> np.ndarray:
    """Amplitude-major (G, 2^Q, n) statevectors of the unshifted circuits."""
    return _simulate(rotations, _forward_offsets(rotations.shape[2] * rotations.shape[3]))


def _training_pass(rotations: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, n, C) logits and (G, n, 2, K, C) shift-rule expectations of every sample, from one simulation.

    Each sample runs its forward circuit and its 2K shifted circuits
    together (_training_offsets). The logits are a (n, 2^Q) product per
    block, exactly as a forward pass alone takes them; the shifted
    expectations a (n * 2K, 2^Q) product per block, exactly as a pass of
    the shifted circuits alone would. Entry [g, i, 0, j] runs sample i
    with rotation j shifted by +pi/2, [g, i, 1, j] by -pi/2.
    """
    g, n, depth, n_qubits = rotations.shape
    k = depth * n_qubits
    states = _simulate(rotations, _training_offsets(k)).reshape(g, 2**n_qubits, n, 2 * k + 1)
    logits = _z_expectations(states[..., 0], n_classes)
    shifted = _z_expectations(states[..., 1:], n_classes).reshape(g, n, 2, k, n_classes)
    return logits, shifted


def _shift_rule(shifted: np.ndarray, upstream: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift-rule gradients contracted with (G, n, C) upstream rows.

    Returns the (G, L * Q) variational gradient, summed over each client's
    rows, and the (G, n, Q) embedding gradient. shifted is _training_pass's
    (G, n, 2, K, C) array. Every rotation angle
    theta obeys d<Z>/dtheta = (<Z>(theta + pi/2) - <Z>(theta - pi/2)) / 2;
    the embedding gradient also carries the pi of the encoding e -> RY(pi * e).
    """
    g, n, _, _, c = shifted.shape
    grad = ((shifted[:, :, 0] - shifted[:, :, 1]) @ upstream.reshape(g, n, c, 1))[..., 0] * 0.5
    return grad[..., n_qubits:].sum(axis=1), np.pi * grad[..., :n_qubits]


def statevector(embedding: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Flat 2^Q statevector after encoding and all variational layers.

    Qubit 0 owns the most significant bit of the flat index. An (n, Q)
    embedding batch gives (n, 2^Q) rows, a (G, n, Q) stack with (G, L, Q)
    angles (G, n, 2^Q). Exposed so the simulator can be checked against
    dense matrix products.
    """
    rotations, lead, _ = _circuit_inputs(embedding, angles, None)
    return np.swapaxes(_forward_pass(rotations), 1, 2).reshape(*lead, -1)


def circuit_forward(embedding: np.ndarray, angles: np.ndarray, n_classes: int | None = None) -> np.ndarray:
    """Class logits <Z_0> .. <Z_{C-1}> of the variational classifier.

    The embedding enters as per-qubit RY(pi * e_q) rotations of |0...0>,
    then each of the L layers (rows of the (L, Q) angles) applies per-qubit
    RY rotations followed by a CNOT ring q -> q+1 mod Q (skipped when
    Q = 1). Logits are Pauli-Z expectations, so each lies in [-1, 1]. An
    (n, Q) embedding batch gives (n, C) logits; a (G, n, Q) stack with a
    (G, L, Q) angle stack gives (G, n, C), each client's rows run through
    its own angles, bit-identical to G separate calls.
    """
    rotations, lead, c = _circuit_inputs(embedding, angles, n_classes)
    return _z_expectations(_forward_pass(rotations), c).reshape(*lead, c)


def param_shift_grad(
    embedding: np.ndarray,
    angles: np.ndarray,
    upstream: np.ndarray,
    n_classes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact circuit gradients contracted with an upstream dLoss/dLogits.

    Every rotation angle theta obeys d<Z>/dtheta =
    (<Z>(theta + pi/2) - <Z>(theta - pi/2)) / 2, evaluated by running the
    circuit twice per parameter. This is the shift rule of training itself
    (_training_pass, _shift_rule): each sample's 2 * (L * Q + Q) shifted
    circuits run in one simulation, beside its forward circuit, whose
    logits go unused here. The embedding gradient additionally carries the
    pi factor of the encoding map e -> RY(pi * e). For an (n, Q) embedding
    batch with (n, C) upstream rows, the angle gradient (of the angles'
    (L, Q) shape) is summed over the rows and the embedding gradient keeps
    one row per sample. A (G, n, Q) stack with (G, L, Q) angles and
    (G, n, C) upstream rows gives a (G, L, Q) angle gradient, each
    client's summed over its own rows.
    """
    rotations, lead, c = _circuit_inputs(embedding, angles, n_classes)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (*lead, c):
        raise ParameterError(f"expected a length-{c} upstream gradient per sample")
    _, shifted = _training_pass(rotations, c)
    grad_var, grad_emb = _shift_rule(shifted, upstream, rotations.shape[3])
    return grad_var.reshape(np.shape(angles)), grad_emb.reshape(*lead, -1)


def softmax_cross_entropy(logits: np.ndarray, label) -> tuple[float | np.ndarray, np.ndarray]:
    """Loss -log softmax(logits)[label] and its gradient w.r.t. the logits.

    For (..., C) logits and labels of shape (...), the losses have shape
    (...) and the gradients (..., C); one row of logits gives a float.
    """
    logits = np.asarray(logits, dtype=np.float64)
    label = np.asarray(label, dtype=np.int64)
    if label.shape != logits.shape[:-1]:
        raise ParameterError("expected one label per row of logits")
    expz = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = expz / expz.sum(axis=-1, keepdims=True)
    loss = -np.log(np.take_along_axis(probs, label[..., None], axis=-1)[..., 0])
    one_hot = np.arange(logits.shape[-1]) == label[..., None]
    return (float(loss) if logits.ndim == 1 else loss), probs - one_hot


def hybrid_loss_and_grads(
    features: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    layout: ParamLayout,
    n_classes: int,
    prox_mu: float = 0.0,
    prox_anchor: np.ndarray | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Batch-mean cross-entropy loss and its exact gradient, laid out like params.

    params is one vector, or a (G, P) stack of G clients' vectors that all
    train on batches of the same size n: features are then (G * n, F) rows
    and labels (G * n,), client g owning rows g * n .. g * n + n - 1, and
    the result is a (G,) array of losses and a (G, P) gradient stack, each
    client's bit-identical to a call with its vector alone.

    The circuits run in one simulation (_training_pass): each sample's
    forward circuit, whose logits give the loss, beside its 2(L+1)Q
    shift-rule circuits, whose expectations give the circuit gradient
    (_shift_rule); backprop through the MLP follows. The numbers are those
    of circuit_forward and param_shift_grad called one after the other.

    When prox_mu > 0 and an anchor (laid out like params) is given, adds the
    proximal penalty (prox_mu / 2) * ||params - anchor||^2 over all
    parameters, classical and quantum alike. prox_mu = 0 skips the penalty
    entirely so the result is bit-identical with or without an anchor.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    params = np.asarray(params, dtype=np.float64)
    if len(labels) == 0:
        raise ParameterError("batch must be non-empty")
    if params.ndim not in (1, 2):
        raise ParameterError("params must be one vector or a (clients, size) stack")
    stack = np.atleast_2d(params)
    g = len(stack)
    if labels.ndim != 1 or features.shape != (len(labels), layout.features) or len(labels) % g:
        raise ParameterError(f"expected one length-{layout.features} feature row per label, n per client")
    n = len(labels) // g
    dense, angles = layout.dense(stack), layout.angles(stack)
    grad = np.zeros(stack.shape)
    grad_dense, grad_angles = layout.dense(grad), layout.angles(grad)
    embeddings, cache = mlp_forward(dense, features.reshape(g, n, -1))
    rotations, _, _ = _circuit_inputs(embeddings, angles, n_classes)
    logits, shifted = _training_pass(rotations, n_classes)
    losses, upstream = softmax_cross_entropy(logits, labels.reshape(g, n))
    grad_var, grad_embeddings = _shift_rule(shifted, upstream, layout.qubits)
    mlp_backward(dense, cache, grad_embeddings, grad_dense)
    grad_angles += grad_var.reshape(grad_angles.shape)
    loss = losses.mean(axis=1)
    grad /= n
    if prox_mu > 0.0 and prox_anchor is not None:
        diff = stack - np.asarray(prox_anchor, dtype=np.float64).reshape(stack.shape)
        # two dot products rather than one over diff: the summation order fixes the loss's last bits;
        # a (G, 1, k) @ (G, k, 1) product makes the same ddot call per client that a vector product does
        diff_c, diff_q = diff[:, None, :layout.n_classical], diff[:, None, layout.n_classical:]
        squares = diff_c @ _transpose(diff_c) + diff_q @ _transpose(diff_q)
        loss += 0.5 * prox_mu * squares[:, 0, 0]
        grad += prox_mu * diff
    if params.ndim == 1:
        return float(loss[0]), grad[0]
    return loss, grad


@dataclass
class AdamState:
    """Adam's first/second moments and step counter, for client and server alike.

    The moments are vectors, or (G, P) stacks for a cohort of G clients
    that step together and so share the counter.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.m.shape != self.v.shape or self.m.ndim not in (1, 2):
            raise ParameterError("moment buffers must be vectors or (clients, size) stacks of equal shape")
        if np.any(self.v < 0):
            raise ParameterError("second moments must be non-negative")
        if self.t < 0:
            raise ParameterError("step counter must be >= 0")

    @classmethod
    def zeros(cls, shape: int | tuple[int, int]) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0)


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step on a parameter vector or a (G, P) stack; client and server share it."""
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
    """One client-side Adam step over the flat hybrid parameters (or a cohort's (G, P) stack)."""
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
    clients: Sequence[np.ndarray],
    dataset: Dataset,
    inits: np.ndarray,
    layout: ParamLayout,
    epochs: int,
    batch_size: int,
    lr: float,
    prox_mu: float,
    seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch Adam for a cohort of clients in lockstep, each from a fresh optimizer state.

    clients[g] is client g's index array into dataset, and an empty one
    raises ParameterError. Client g starts from row g of the (G, P)
    `inits` and reshuffles its samples every epoch from a generator seeded
    with seeds[g]. It keeps its own Adam moments and loss totals; its step
    count is the cohort's step index s, so every client that still has a
    batch at step s takes its step together with the others. All of those
    whose batches hold the same number n of samples share one
    hybrid_loss_and_grads call and one Adam step, so a step makes one call
    per distinct batch size; the call's memory is about twice its shift-rule
    statevectors (see _simulate). Every row is bit-identical to training
    its client alone, as a one-client cohort.

    When prox_mu > 0 the received model is the proximal anchor, which keeps
    the local objective from drifting far from the broadcast parameters.
    Returns the uploads as one C-contiguous (G, P) stack, row g holding
    client g's trained vector with its angles wrapped to (-pi, pi], and the
    (G,) mean losses of each client's final epoch. A step that leaves any
    of a client's parameters non-finite stops that client before the
    circuit could see an infinite angle; NumericError then names the first
    such client by its position in the cohort.
    """
    if epochs < 1:
        raise ParameterError("epochs must be >= 1")
    if len(seeds) != len(clients):
        raise ParameterError("expected one seed per client")
    sizes = np.array([len(client) for client in clients], dtype=np.int64)
    if np.any(sizes < 1):
        raise ParameterError(f"client {int(np.argmin(sizes))} has no samples")
    inits = np.asarray(inits, dtype=np.float64)
    if inits.shape != (len(clients), layout.size):
        raise ParameterError("expected one initial parameter vector per client")
    params = inits.copy()
    anchors = inits if prox_mu > 0.0 else None
    m, v = np.zeros(params.shape), np.zeros(params.shape)
    # each client's batches, as dataset indices, for all of its epochs in order
    schedules = []
    for client, seed in zip(clients, seeds):
        rng = np.random.default_rng(seed)
        epoch = [epoch_batches(len(client), batch_size, rng) for _ in range(epochs)]
        schedules.append([client[batch] for batches in epoch for batch in batches])
    per_epoch = np.array([len(s) // epochs for s in schedules])
    totals = np.zeros(len(clients))
    last_epoch_loss = np.full(len(clients), math.nan)
    diverged = np.zeros(len(clients), dtype=bool)
    for step in range(max(map(len, schedules), default=0)):
        active = [g for g, schedule in enumerate(schedules) if step < len(schedule) and not diverged[g]]
        if not active:
            break
        totals[[g for g in active if step % per_epoch[g] == 0]] = 0.0
        by_size: dict[int, list[int]] = {}
        for g in active:
            by_size.setdefault(len(schedules[g][step]), []).append(g)
        for n, members in by_size.items():
            batch = np.concatenate([schedules[g][step] for g in members])
            loss, grads = hybrid_loss_and_grads(
                dataset.features[batch], dataset.labels[batch], params[members], layout,
                dataset.n_classes, prox_mu, None if anchors is None else anchors[members],
            )
            stepped, state = adam_local_step(params[members], grads, AdamState(m[members], v[members], step), lr)
            params[members], m[members], v[members] = stepped, state.m, state.v
            diverged[members] = ~np.all(np.isfinite(stepped), axis=1)
            totals[members] += loss * n
        done = [g for g in active if step % per_epoch[g] == per_epoch[g] - 1]
        last_epoch_loss[done] = totals[done] / sizes[done]
    if diverged.any():
        raise NumericError(f"client {int(np.argmax(diverged))}: local training diverged to non-finite parameters")
    params[:, layout.n_classical:] = wrap_angles(params[:, layout.n_classical:])
    return params, last_epoch_loss


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
