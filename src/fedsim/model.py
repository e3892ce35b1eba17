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

There is one simulation path, and it works on rows: the statevectors of
R circuits, one per row, are one amplitude-major (2^Q, R) array, with no
axis that separates clients. The encoding layer is a product state built
one qubit at a time, each variational RY gate three passes over the whole
state (its halves swapped times -sin | +sin, the state times cos, the two
summed) and the CNOT ring one index permutation. Gates take per-row
tables: cosines and sines are taken once per gate, per sample for the
encoding gates and per client for the variational gates, whose angles all
of a client's samples share, and each gate's (cos, -sin, sin) is copied
over its client's rows as the gate comes up. So the rows of clients of
any batch sizes go through one pass. The simulator holds two state-size
buffers, the state and one scratch array (see _simulate). A single sample
is a one-row batch.

Clients train as a cohort. Parameters, gradients and Adam moments of G
clients stack on a leading client axis as (G, P) arrays. A step of the
cohort is one hybrid_loss_and_grads call and one Adam step over the
stack of the clients still training, whatever their batch sizes: Adam
is elementwise per parameter. Inside the call the clients are grouped
by batch size n, each group's k equal-size batches run as one (k, n, ·)
stack through the MLP, and the circuits and the softmax of all the
groups' rows run as one pass each: one forward simulation, one adjoint
sweep and one softmax over the step's rows. Between those passes the
step's rows travel as one array each, in one row order (group by group,
client after client): the (R, C) logits from <Z> to the softmax and its
(R, C) gradient back into the adjoint sweep, with the groups named by
their (k, n) blocks.
A client's result is bit-identical to a call of its own because every
BLAS product keeps its per-client operand shape and layout: the dense
layers are (k, n, ·) @ (k, ·, ·) products, <Z> is taken per group as a
contiguous (k, 2^Q, n) block rather than over the shared state (a
one-row block must stay a gemv), the adjoint's read-off gathers each
group's partner amplitudes into a contiguous block too, and the proximal
term is a (G, 1, k) @ (G, k, 1) product, one ddot per client. Everything
else is elementwise or a reduction along a client's own rows.

Gradients are exact: backprop through the dense layers and the adjoint
method through the circuit (Jones & Gacon 2020, arXiv:2009.02823). A
training call simulates each sample's circuit once, forward; one backward
sweep then carries its state and the loss's co-state back through the
layers and reads every rotation's gradient off the pair (_adjoint).
param_shift_grad, the two-point shift rule over explicitly shifted
circuits, is kept as the oracle the adjoint is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._angles import wrap_angles
from ._seeds import pcg64_states
from .data import Dataset, integer, whole_numbers
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

    Each of the four sizes must be an integer >= 1 (data.integer's rule:
    2.0 is not one), else ParameterError.
    """

    features: int
    hidden: int
    qubits: int
    layers: int

    def __post_init__(self):
        for name in ("features", "hidden", "qubits", "layers"):
            object.__setattr__(self, name, integer(getattr(self, name), name))

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
    return a.swapaxes(-1, -2)


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
    """Add a stack's dense-layer gradients, given its (G, n, Q) dLoss/dEmbedding rows, into grad_dense.

    dense and cache come from mlp_forward with the views of a (G, P) stack
    on a (G, n, F) stack of batches; grad_dense is the view tuple of a
    (G, P) gradient stack. Each client's gradient is summed over its own
    rows into its row of that stack.
    """
    _, _, w2, _ = dense
    gw1, gb1, gw2, gb2 = grad_dense
    d_pre2 = grad_embedding * (1.0 - cache.embedding**2)
    gw2 += _transpose(d_pre2) @ cache.hidden
    d_pre1 = (d_pre2 @ w2) * (1.0 - cache.hidden**2)
    gw1 += _transpose(d_pre1) @ cache.x
    gb1 += d_pre1.sum(axis=-2, keepdims=True)
    gb2 += d_pre2.sum(axis=-2, keepdims=True)


@functools.lru_cache(maxsize=None)
def _ring_gather(n_qubits: int, inverse: bool = False) -> np.ndarray:
    """Read-only gather index of the ring CNOT(q, q+1 mod Q), q = 0..Q-1, over the 2^Q amplitudes, or of its inverse.

    Qubit q owns bit Q-1-q; each CNOT is its own inverse, so the ring's
    gather composes them in reverse order and the inverse's in ring order.
    Cached per qubit count and direction.
    """
    ring = np.arange(2**n_qubits)
    for q in range(n_qubits) if inverse else reversed(range(n_qubits)):
        control_bit, target_bit = n_qubits - 1 - q, n_qubits - 1 - (q + 1) % n_qubits
        ring ^= ((ring >> control_bit) & 1) << target_bit
    ring.flags.writeable = False
    return ring


@functools.lru_cache(maxsize=None)
def _partners(n_qubits: int) -> np.ndarray:
    """Read-only (Q * 2^Q,) gather index of x ^ bit_q for every qubit q: slot q * 2^Q + x holds x ^ bit_q.

    J_q maps qubit q's amplitude pair (a0, a1) to (-a1, a0), so
    (J_q psi)[x] = sign_q(x) * psi[x ^ bit_q], the sign -1 where q's bit
    is clear and +1 where it is set: minus <Z_q>'s sign (_z_signs).
    Cached per qubit count.
    """
    bits = 1 << (n_qubits - 1 - np.arange(n_qubits))[:, None]
    index = (np.arange(2**n_qubits) ^ bits).reshape(-1)
    index.flags.writeable = False
    return index


def _half_angle_trig(angles: np.ndarray, kinds: int, out: np.ndarray | None = None) -> np.ndarray:
    """cos, then -sin and sin (kinds = 3) or sin (kinds = 2), of half of each angle: (kinds, ...) for (...) angles, in out if given."""
    trig = np.empty((kinds, *angles.shape)) if out is None else out
    half_angles = np.multiply(angles, 0.5, out=trig[1])  # the second slot holds them until the sines are taken
    np.cos(half_angles, out=trig[0])
    np.sin(half_angles, out=trig[-1])
    if kinds == 3:
        np.negative(trig[2], out=trig[1])
    return trig


def _gate_trig(angles: np.ndarray) -> np.ndarray:
    """cos, -sin and sin of half of each of K clients' (K, L, Q) variational angles, as an (L, Q, 3, K) table: one run per gate.

    A gate's per-row (3, R) table is its run taken at each row's client
    (the `owners` of the rows); the simulator and the adjoint sweep draw
    each gate's table in turn into one reused (3, R) buffer.
    """
    clients, layers, n_qubits = angles.shape
    gates = np.empty((layers, n_qubits, 3, clients))
    _half_angle_trig(angles.transpose(1, 2, 0), 3, out=gates.transpose(2, 0, 1, 3))
    return gates


def _rotate(state: np.ndarray, scratch: np.ndarray, cos: np.ndarray, pair: np.ndarray) -> None:
    """Apply one RY gate, in place, to (..., 2^q, 2, rest, R) views of a state and a scratch buffer.

    The views' axes are (any leading axes, higher qubits, the qubit's bit,
    lower qubits, row); cos holds each row's cos(theta / 2) and pair
    (2, 1, R) its -sin and sin. A pair of sin and -sin applies the
    inverse gate, RY(-theta).
    """
    np.multiply(pair, state[..., ::-1, :, :], out=scratch)  # -s * a1 | s * a0
    state *= cos
    state += scratch  # c * a0 - s * a1 | c * a1 + s * a0


def _simulate(encoding: np.ndarray, gates: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Amplitude-major statevectors of R circuits, one per row, in slot 0 of a (2, 2^Q, R) buffer pair.

    encoding holds the (R, Q) encoding angles of each row, gates the
    _gate_trig table of K clients' variational angles, and owners the
    client of each row. Column i of slot 0 is the statevector of row i;
    slot 1 is left as scratch, for the caller to reuse (_z_expectations,
    _adjoint). No axis separates the clients: every pass runs over all R
    rows at once, with per-row gate tables, so clients of any row counts
    share it.

    The encoding layer acts on |0...0>, so its state is a product state,
    built one qubit at a time, qubit 0 outermost: the amplitudes so far
    times the qubit's cosine (bit clear) and sine (bit set), each round
    written into the other slot. Each nonzero amplitude is the same
    product, in the same order, as RY gates applied to |0...0> compute;
    only the sign of an amplitude that is exactly zero may differ. Layers
    1..L are the variational layers, each an RY gate per qubit followed
    by the CNOT ring (skipped when Q = 1). A gate on qubit q maps the
    amplitude pair (a0, a1) with q's bit clear and set to
    (c * a0 - s * a1, c * a1 + s * a0) in three passes over the whole
    state (_rotate), each row's (c, -s, s) broadcast over its amplitudes:
    the scratch slot takes (-s, +s) times the state with its two halves
    swapped, (-s * a1, s * a0); the state is multiplied by c; then the
    scratch is added. This is exact against the direct form, byte for
    byte: negation is exact, so (-s) * a1 is -(s * a1), and IEEE 754
    defines x - y as x + (-y), signed zeros included. Holding the state
    amplitude-major lets every pass run over contiguous runs of rows.

    Cosines and sines are taken once per gate: per row for the encoding
    gates, and per client for the variational gates, whose angles all of
    a client's rows share; each gate's (3, R) table copies its clients'
    values over their rows (_gate_trig).

    Memory: the two slots. Gates update the state in place, with the other
    slot holding their temporaries; the ring writes into the other slot,
    and the two swap roles. The encoding starts in the slot that makes
    the state end in slot 0. On top of them come the encoding's cosines
    and sines, 2Q values per row, until the encoding is done: 2Q / 2^Q of
    a state, so a forward pass at Q = 4 holds about two and a half states;
    then one gate table, 3 values per row.
    """
    rows, n_qubits = encoding.shape
    layers = len(gates)
    buffers = np.empty((2, 2**n_qubits, rows))
    flat = buffers.reshape(2, -1)
    # each encoding round after qubit 0's, and each ring, moves the state to the other slot
    now = (n_qubits - 1 + (layers if n_qubits > 1 else 0)) % 2

    factors = _half_angle_trig(encoding.T, 2)  # cos and sin per qubit and row, (2, Q, R)
    flat[now, :2 * rows].reshape(2, rows)[...] = factors[:, 0]
    for q in range(1, n_qubits):
        state = flat[now, :2**q * rows].reshape(2**q, 1, rows)
        now = 1 - now
        np.multiply(state, factors[:, q], out=flat[now, :2**(q + 1) * rows].reshape(2**q, 2, rows))
    del factors

    table = np.empty((3, rows))  # the current gate's cos, -sin and sin per row
    cos, pair = table[0], table[1:, None]
    # per slot and qubit q, axes (higher qubits, q's bit, lower qubits, row)
    views = [[b.reshape(2**q, 2, -1, rows) for q in range(n_qubits)] for b in buffers]
    for layer in range(layers):
        for q in range(n_qubits):
            # mode="clip" (the index is always in range) writes straight into out; "raise" buffers it
            gates[layer, q].take(owners, axis=1, out=table, mode="clip")
            _rotate(views[now][q], views[1 - now][q], cos, pair)
        if n_qubits > 1:
            buffers[now].take(_ring_gather(n_qubits), axis=0, out=buffers[1 - now], mode="clip")
            now = 1 - now
    return buffers


@functools.lru_cache(maxsize=None)
def _z_signs(n_qubits: int, n_classes: int) -> np.ndarray:
    """Read-only (2^Q, C) table of <Z_c> per basis state: +1 where qubit c's bit is clear, -1 where set.

    Cached per (Q, C).
    """
    bits = np.arange(2**n_qubits)[:, None] >> (n_qubits - 1 - np.arange(n_classes))
    signs = 1.0 - 2.0 * (bits & 1)
    signs.flags.writeable = False
    return signs


def _block_columns(state: np.ndarray, start: int, k: int, n: int) -> np.ndarray:
    """The (k, 2^Q, n) view of a block's k * n columns, from column start, of an amplitude-major (2^Q, R) array."""
    return state[:, start:start + k * n].reshape(len(state), k, n).transpose(1, 0, 2)


def _z_expectations(buffers: np.ndarray, n_classes: int, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """<Z_0> .. <Z_{C-1}> of _simulate's statevectors, as (R, C) logits in row order.

    The rows form blocks of k clients of n rows each, in row order. One
    product per block of its probabilities against the +-1 sign table
    writes the block's rows of the logits. Each block's probabilities are
    written, into slot 1 of the buffer pair, as one
    C-contiguous (k, 2^Q, n) run, the layout a block has when simulated
    alone: BLAS then sees, for every block, the same call (gemm, or gemv
    for a one-row block) on the same operand layout as for that block
    alone, and the results are bit-identical. A strided view of the shared
    state would not be: for blocks of up to three rows it changes the last
    bits.
    """
    state, spare = buffers
    dim, rows = state.shape
    signs = _z_signs(dim.bit_length() - 1, n_classes)
    logits = np.empty((rows, n_classes))
    for (k, n), start in zip(blocks, _offsets(k * n for k, n in blocks)):
        probabilities = spare.reshape(-1)[dim * start:dim * (start + k * n)].reshape(k, dim, n)
        np.square(_block_columns(state, start, k, n), out=probabilities)
        np.matmul(np.swapaxes(probabilities, 1, 2), signs, out=logits[start:start + k * n].reshape(k, n, n_classes))
    return logits


def _circuit_inputs(embedding, angles, n_classes: int | None) -> tuple[np.ndarray, np.ndarray, tuple, int]:
    """Validated (G, n, Q) encoding angles and (G, L, Q) variational angles, the embedding's leading shape, and the class count.

    Q and L come from the angles' shape. Either the angles are one (L, Q)
    array and the embedding one length-Q vector (leading shape ()) or an
    (n, Q) batch, with G = 1; or they are a (G, L, Q) stack and the
    embedding a (G, n, Q) stack, client g's rows meeting client g's angles.
    A circuit's encoding angles are pi * e; its variational angles are
    those of its client.
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
    return np.pi * emb.reshape(g, -1, q), angles.reshape(g, *angles.shape[-2:]), emb.shape[:-1], c


def _adjoint(
    pair: np.ndarray, gates: np.ndarray, owners: np.ndarray, upstream: np.ndarray, blocks: Sequence[tuple[int, int]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Circuit gradients of sum_c u_c <Z_c>, block by block, from _simulate's buffer pair, which the sweep overwrites.

    gates and owners are those _simulate ran, upstream the (R, C) rows u
    in row order, and blocks the (k, n) of each block of k clients of n
    rows each, in row order, as _z_expectations takes them. Returns, per
    block, the (k, L, Q) variational gradient, each client's summed over
    its own rows, and the (k, n, Q) embedding gradient, which carries the
    pi of the encoding e -> RY(pi * e). The observable sum_c u_c Z_c is
    diagonal, so the co-state is lambda = (_z_signs @ u) * psi, per row; it
    fills the pair's scratch slot, next to psi. A backward sweep then walks
    the layers in reverse on the stacked (psi, lambda) pair, all rows at
    once: it undoes the CNOT ring, reads off the layer's Q gradients and
    undoes its RY gates with RY(-theta), whose (c, s, -s) is a reversed
    view of the gate's table. An RY gate's derivative is J_q / 2 times the
    gate, and the gates of one layer commute, so the gradient of gate
    (l, q) is 2 <lambda | J_q psi / 2>, taken after the layer's gates. A
    block's Q gradients of a layer come from one gather of its psi columns
    at the partner amplitudes x ^ bit_q (_partners) into a C-contiguous
    (k, Q, 2^Q, n) block, one product with lambda and one signed sum per
    qubit, J_q's signs being minus <Z_q>'s (_z_signs), transposed into a
    C-contiguous (Q, 1, 2^Q) table. At the bottom the same read-off on the
    encoding product state gives each row's encoding-angle gradient. Every BLAS product and every
    sum over rows stays within one block, on the operand layout the block
    has alone: a strided view of the shared pair would change the last
    bits of blocks of up to three rows. So each block's gradients are
    bit-identical to its own call's.

    Memory: the pair and its scratch, four states; the gathered partner
    amplitudes, Q states of the largest block; and, where a block's psi
    columns are not contiguous, the gather's copy of them, one state of
    that block.
    """
    _, dim, rows = pair.shape
    layers, n_qubits = gates.shape[:2]
    starts = _offsets(k * n for k, n in blocks)
    index = _partners(n_qubits)
    # J_q's signs, (Q, 1, 2^Q): C-contiguous, as a transposed operand would change the product's last bits
    signs = np.ascontiguousarray(-_z_signs(n_qubits, n_qubits).T)[:, None]
    psi, costate = pair
    z_signs = _z_signs(n_qubits, upstream.shape[1])
    for (k, n), start in zip(blocks, starts):
        u = upstream[start:start + k * n].reshape(k, n, -1)
        np.matmul(z_signs, _transpose(u), out=_block_columns(costate, start, k, n))
    costate *= psi
    buffers = (pair, np.empty_like(pair))
    # per buffer and qubit q, axes (psi or lambda, higher qubits, q's bit, lower qubits, row)
    views = [[b.reshape(2, 2**q, 2, -1, rows) for q in range(n_qubits)] for b in buffers]
    table = np.empty((3, rows))  # the current gate's cos, -sin and sin per row
    cos, inverse_pair = table[0], table[2:0:-1, None]  # sin and -sin: RY(-theta)
    partners = np.empty(max(k * n for k, n in blocks) * n_qubits * dim)
    # per row; layer 0 the encoding, layer l + 1 angles[:, l]; each block's a (k, L + 1, Q, n) run
    grads = np.empty((layers + 1) * n_qubits * rows)
    per_row = (layers + 1) * n_qubits
    block_grads = [
        grads[per_row * start:per_row * end].reshape(k, layers + 1, n_qubits, n)
        for (k, n), start, end in zip(blocks, starts, starts[1:])
    ]
    # per buffer and block: its psi and lambda columns, its run of the partner buffer, its gradients
    readoffs = [
        [
            (_block_columns(b[0], start, k, n), _block_columns(b[1], start, k, n)[:, None],
             partners[:k * n_qubits * dim * n].reshape(k, n_qubits, dim, n), out)
            for (k, n), start, out in zip(blocks, starts, block_grads)
        ]
        for b in buffers
    ]
    now = 0
    for layer in reversed(range(layers + 1)):
        if layer < layers:
            for q in range(n_qubits):
                gates[layer, q].take(owners, axis=1, out=table, mode="clip")
                _rotate(views[now][q], views[1 - now][q], cos, inverse_pair)
        if layer and n_qubits > 1:
            buffers[now].take(_ring_gather(n_qubits, True), axis=1, out=buffers[1 - now], mode="clip")
            now = 1 - now
        for psi, costate, gathered, out in readoffs[now]:
            k, _, _, n = gathered.shape
            psi.take(index, axis=1, out=gathered.reshape(k, -1, n), mode="clip")
            gathered *= costate
            out[:, layer] = (signs @ gathered)[:, :, 0]
    return [(g[:, 1:].sum(axis=-1), np.pi * _transpose(g[:, 0])) for g in block_grads]


def statevector(embedding: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Flat 2^Q statevector after encoding and all variational layers.

    Qubit 0 owns the most significant bit of the flat index. An (n, Q)
    embedding batch gives (n, 2^Q) rows, a (G, n, Q) stack with (G, L, Q)
    angles (G, n, 2^Q). Exposed so the simulator can be checked against
    dense matrix products.
    """
    encoding, angles, lead, _ = _circuit_inputs(embedding, angles, None)
    g, n, q = encoding.shape
    states = _simulate(encoding.reshape(-1, q), _gate_trig(angles), np.repeat(np.arange(g), n))[0]
    return np.ascontiguousarray(states.T).reshape(*lead, -1)


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
    encoding, angles, lead, c = _circuit_inputs(embedding, angles, n_classes)
    g, n, q = encoding.shape
    pair = _simulate(encoding.reshape(-1, q), _gate_trig(angles), np.repeat(np.arange(g), n))
    return _z_expectations(pair, c, [(g, n)]).reshape(*lead, c)


def param_shift_grad(
    embedding: np.ndarray,
    angles: np.ndarray,
    upstream: np.ndarray,
    n_classes: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact circuit gradients contracted with an upstream dLoss/dLogits.

    Every rotation angle theta obeys d<Z>/dtheta =
    (<Z>(theta + pi/2) - <Z>(theta - pi/2)) / 2: the shift rule, run as
    2K explicitly shifted forward circuits per sample (K = (L + 1) * Q
    rotations), all in one simulation. Training takes the same
    gradients from the adjoint sweep (_adjoint); this is its oracle. The
    embedding gradient additionally carries the pi factor of the encoding
    map e -> RY(pi * e). For an (n, Q) embedding batch with (n, C) upstream
    rows, the angle gradient (of the angles' (L, Q) shape) is summed over
    the rows and the embedding gradient keeps one row per sample. A
    (G, n, Q) stack with (G, L, Q) angles and (G, n, C) upstream rows gives
    a (G, L, Q) angle gradient, each client's summed over its own rows.
    """
    encoding, stacked, lead, c = _circuit_inputs(embedding, angles, n_classes)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (*lead, c):
        raise ParameterError(f"expected a length-{c} upstream gradient per sample")
    g, n, q = encoding.shape
    k = (stacked.shape[1] + 1) * q
    shifts = HALF_PI * np.concatenate([np.eye(k), -np.eye(k)])  # block s shifts rotation s % K by +-pi/2
    shifted_encoding = (encoding[:, None] + shifts[:, None, :q]).reshape(-1, q)
    shifted_angles = (stacked[:, None] + shifts[:, q:].reshape(2 * k, -1, q)).reshape(-1, *stacked.shape[1:])
    pair = _simulate(shifted_encoding, _gate_trig(shifted_angles), np.repeat(np.arange(g * 2 * k), n))
    z = _z_expectations(pair, c, [(g * 2 * k, n)]).reshape(g, 2, k, n, c)
    grad = 0.5 * np.einsum("gknc,gnc->gkn", z[:, 0] - z[:, 1], upstream.reshape(g, n, c))
    return grad[:, q:].sum(axis=2).reshape(np.shape(angles)), np.pi * _transpose(grad[:, :q]).reshape(*lead, q)


def softmax_cross_entropy(logits: np.ndarray, label) -> tuple[float | np.ndarray, np.ndarray]:
    """Loss -log softmax(logits)[label] and its gradient w.r.t. the logits.

    For (..., C) logits and labels of shape (...), the losses have shape
    (...) and the gradients (..., C); one row of logits gives a float.
    Every label must be a whole number in [0, C), else ParameterError.
    """
    logits = np.asarray(logits, dtype=np.float64)
    label = whole_numbers(label, "labels")
    if label.shape != logits.shape[:-1]:
        raise ParameterError("expected one label per row of logits")
    one_hot = np.arange(logits.shape[-1]) == label[..., None]
    if np.count_nonzero(one_hot) != label.size:  # a label outside [0, C) marks no class of its row
        raise ParameterError(f"labels must lie in [0, {logits.shape[-1]})")
    expz = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = expz / expz.sum(axis=-1, keepdims=True)
    loss = -np.log(probs[one_hot]).reshape(label.shape)  # the mask holds one entry per row, in row order
    return (float(loss) if logits.ndim == 1 else loss), probs - one_hot


def _size_groups(sizes: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(n, positions) per distinct entry n of sizes, in increasing n: the positions holding n, in order."""
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order].tolist()
    cuts = [0, *(i for i in range(1, len(ordered)) if ordered[i] != ordered[i - 1]), len(ordered)]
    return [(ordered[a], order[a:b]) for a, b in zip(cuts, cuts[1:])]


def _offsets(counts) -> list[int]:
    """0 and the running totals of counts: where each of a run of consecutive spans starts, then where the last ends."""
    return list(itertools.accumulate(counts, initial=0))


def hybrid_loss_and_grads(
    features: np.ndarray,
    labels: np.ndarray,
    params: np.ndarray,
    layout: ParamLayout,
    n_classes: int,
    prox_mu: float = 0.0,
    prox_anchor: np.ndarray | None = None,
    sizes: Sequence[int] | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Batch-mean cross-entropy loss and its exact gradient, laid out like params.

    params is one vector, or a (G, P) stack of G clients' vectors. Client
    g owns the next sizes[g] of the (N, F) feature rows and (N,) labels,
    in client order; sizes = None splits the rows equally, n = N / G per
    client. The result is then a (G,) array of losses and a (G, P)
    gradient stack, each client's bit-identical to a call with its vector
    and rows alone. A label that is not a whole number in [0, n_classes),
    or sizes of the wrong length, with an entry below 1 or a sum other
    than N, raise ParameterError.

    Inside, the clients are grouped by batch size n, and the rows are put
    in group order, client after client; every stage of the pass takes and
    gives one array of all the rows in that order. Each group runs the
    dense layers, the <Z> products, the co-state products, the sums over
    rows and the mean loss as one (k, n, ·) stack, so every BLAS product
    keeps the operand shape and layout of a lone client's call. The
    circuits of all the rows, whatever their group, run as one forward
    simulation (_simulate), whose (N, C) logits (_z_expectations) go
    straight to one softmax pass, and one adjoint sweep back through those
    states (_adjoint) from the softmax's (N, C) gradient: all are
    elementwise or reductions per row. So the pass loops over the groups
    twice, once forward through the MLP and once back, taking each group's
    mean loss on the way back. The logits are exactly those of
    circuit_forward; the circuit gradient equals param_shift_grad's to
    rounding; backprop through the MLP follows.

    When prox_mu > 0, adds the proximal penalty (prox_mu / 2) *
    ||params - anchor||^2 over all parameters, classical and quantum
    alike, with the anchor laid out like params. prox_mu = 0 skips the
    penalty entirely so the result is bit-identical with or without an
    anchor. A prox_mu that is nan, infinite or negative, a prox_mu > 0
    without an anchor, or an anchor not shaped like params, raise
    ParameterError.

    Memory: about Q + 5 statevectors of its rows at the peak (see
    _adjoint), plus the dense layers' activations.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = whole_numbers(labels, "labels")
    params = np.asarray(params, dtype=np.float64)
    if len(labels) == 0:
        raise ParameterError("batch must be non-empty")
    if params.ndim not in (1, 2):
        raise ParameterError("params must be one vector or a (clients, size) stack")
    if n_classes > layout.qubits:
        raise ParameterError(f"need n_classes <= {layout.qubits} qubits")
    if not 0.0 <= prox_mu < math.inf:  # written so that nan fails it
        raise ParameterError("prox_mu must be finite and >= 0")
    if prox_anchor is None and prox_mu > 0.0:
        raise ParameterError("prox_mu > 0 needs a prox_anchor")
    if prox_anchor is not None and np.shape(prox_anchor) != params.shape:
        raise ParameterError(f"prox_anchor must be shaped like params, {params.shape}")
    stack = np.atleast_2d(params)
    g = len(stack)
    if labels.ndim != 1 or features.shape != (len(labels), layout.features):
        raise ParameterError(f"expected one length-{layout.features} feature row per label")
    if sizes is None:
        if g == 0 or len(labels) % g:
            raise ParameterError("expected n rows per client")
        sizes = np.full(g, len(labels) // g)
    sizes = whole_numbers(sizes, "sizes")
    if sizes.shape != (g,) or not g or sizes.min() < 1 or sizes.sum() != len(labels):
        raise ParameterError(f"expected {g} sizes of at least 1 that sum to the {len(labels)} rows")
    # the clients grouped by batch size, and their rows in that order: group by group, client after client
    groups = _size_groups(sizes)
    clients = np.repeat(np.arange(g), sizes)
    rows = np.argsort(sizes[clients], kind="stable")
    owners = clients[rows]
    features, labels = features[rows], labels[rows]
    blocks = [(len(members), n) for n, members in groups]
    bounds = _offsets(k * n for k, n in blocks)

    encoding = np.empty((len(labels), layout.qubits))
    batches = []  # per group: the span of its rows, its dense views and its activations
    for (n, members), a, b in zip(groups, bounds, bounds[1:]):
        dense = layout.dense(stack[members])
        embeddings, cache = mlp_forward(dense, features[a:b].reshape(len(members), n, -1))
        np.multiply(np.pi, embeddings, out=encoding[a:b].reshape(embeddings.shape))
        batches.append((slice(a, b), dense, cache))
    gates = _gate_trig(layout.angles(stack))
    pair = _simulate(encoding, gates, owners)
    del encoding
    # the softmax is row-local, so one pass over every group's rows; the loss means stay per group
    losses, upstream = softmax_cross_entropy(_z_expectations(pair, n_classes, blocks), labels)
    circuit_grads = _adjoint(pair, gates, owners, upstream, blocks)
    del pair, upstream
    loss = np.empty(g)
    grad = np.empty(stack.shape)
    for (n, members), (span, dense, cache), (grad_var, grad_embeddings) in zip(groups, batches, circuit_grads):
        loss[members] = losses[span].reshape(len(members), n).mean(axis=1)
        block_grad = np.zeros((len(members), layout.size))
        mlp_backward(dense, cache, grad_embeddings, layout.dense(block_grad))
        grad_angles = layout.angles(block_grad)
        grad_angles += grad_var
        block_grad /= n
        grad[members] = block_grad
    if prox_mu > 0.0:
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
    that step together and so share the counter, an integer >= 0
    (data.integer's rule), else ParameterError.
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
        self.t = integer(self.t, "step counter", 0)

    @classmethod
    def zeros(cls, shape: int | tuple[int, int]) -> "AdamState":
        """Fresh moments of a vector or a (G, P) stack: one read-only zero broadcast, as adam_step only reads them."""
        zeros = np.broadcast_to(0.0, shape)
        return cls(zeros, zeros, 0)

    @classmethod
    def _stepped(cls, m: np.ndarray, v: np.ndarray, t: int) -> "AdamState":
        """A state built without the checks of __post_init__, for moments that Adam steps produced.

        adam_step keeps what those checks hold: from float64 moments of one
        shape with v >= 0, its betas in [0, 1) give the same (v >= 0
        wherever it is a number), and its step counter only grows.
        """
        state = cls.__new__(cls)
        state.m, state.v, state.t = m, v, t
        return state


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam step on a parameter vector or a (G, P) stack: the one Adam of clients and server.

    Clients step through the name adam_local_step, the same function
    (local_train calls it once per cohort step), and fedadam_update steps
    the server's angles through adam_step. The defaults are the client
    settings. Before any arithmetic, ParameterError unless params, grads
    (taken as float64) and the state's moments share one shape, lr is
    finite and >= 0, eps finite and > 0, and beta1 and beta2 lie in
    [0, 1).

    The step computes params - lr * m_hat / (sqrt(v_hat) + eps), with
    m_hat and v_hat the bias-corrected moments, operation by operation in
    that order, so its bits are those of the expression; but it allocates
    only four arrays of that shape: the new m and v, one scratch and the
    output, each later operation writing into one of them (ufunc out=).
    params, grads and the state passed in are left unmodified. The
    returned state is not checked again (AdamState._stepped): these betas
    keep the moments valid.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if not params.shape == grads.shape == state.m.shape:
        raise ParameterError("params, grads and Adam moments must share one shape")
    # each written so that nan fails it
    if not (0.0 <= lr < math.inf and 0.0 < eps < math.inf):
        raise ParameterError("lr must be finite and >= 0, eps finite and > 0")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ParameterError("beta1 and beta2 must lie in [0, 1)")
    t = state.t + 1
    scratch = np.multiply(1.0 - beta1, grads)
    m = np.multiply(beta1, state.m)
    m += scratch  # beta1 * m + (1 - beta1) * g
    np.square(grads, out=scratch)
    scratch *= 1.0 - beta2
    v = np.multiply(beta2, state.v)
    v += scratch  # beta2 * v + (1 - beta2) * g**2
    np.divide(v, 1.0 - beta2**t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += eps
    out = np.divide(m, 1.0 - beta1**t)  # m_hat
    np.multiply(lr, out, out=out)
    out /= scratch
    np.subtract(params, out, out=out)
    return out, AdamState._stepped(m, v, t)


adam_local_step = adam_step  # the clients' name for the step; local_train calls it through this module global


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
    `inits` and reshuffles its samples every epoch from a generator in the
    state np.random.default_rng(seeds[g]) starts from; every seed must be
    an integer in [0, 2**64), by data.integer's rule (2.0 is not one), else
    ParameterError names its client. A uint64 array, as derived_seeds
    gives, holds only such seeds and is taken without a check.
    epochs and batch_size must be integers of at least 1, lr and prox_mu
    finite and >= 0, else ParameterError.

    Schedules: all the seeds are hashed into PCG64 states in one pass, and
    one reused generator is set to each client's state in turn. The
    schedule is one flat array of dataset indices, each client's once per
    epoch, client after client, so client g's epochs are the runs of its
    size n from epochs times the sizes of the clients before it. Each
    epoch is shuffled in place: the draws of rng.permutation(n), so each
    epoch of client g is
    clients[g][rng.permutation(n)] cut into runs of batch_size, the last
    run kept even when shorter. A table of every batch of the run, built
    once, puts the batches and their rows in step order, so a step's batch
    sizes and rows are one slice each and no per-client batch list is
    built.

    Client g keeps its own Adam moments and the loss total of its final
    epoch; its step count is the cohort's step index s, so every client
    that still has a batch at step s takes its step together with the
    others. The training state is the parameter rows, proximal anchors
    and Adam moments of those clients, in cohort order. A step makes one
    hybrid_loss_and_grads call over all of their batches, whatever their
    sizes, which holds about Q + 5 statevectors of the step's samples at
    its peak (see _adjoint), and one Adam step over the whole state, whose
    output is the next step's state. For k clients in the state that step
    allocates four (k, P) arrays: the new moments, a scratch and the
    output (see adam_step); the first step's zero moments are the
    read-only broadcast of AdamState.zeros, not arrays. A client leaves
    the state, and its row is written to the output, at the step that
    ends its schedule or leaves it non-finite; only then are rows
    gathered. When the whole cohort leaves at one step, the Adam output
    itself is the upload stack. Every row is bit-identical to training its client alone, as a
    one-client cohort.

    When prox_mu > 0 the received model is the proximal anchor, which keeps
    the local objective from drifting far from the broadcast parameters.
    Returns the uploads as one C-contiguous (G, P) stack, row g holding
    client g's trained vector with its angles wrapped to (-pi, pi], and the
    (G,) mean losses of each client's final epoch: the sum of loss * n over
    that epoch's batches, in step order from 0.0, divided by the client's
    size. A step that leaves any of a client's parameters non-finite stops
    that client before the circuit could see an infinite angle; the others
    train on, the overflows of such a step raise no numpy warning, and
    NumericError names the first such client by its position in the
    cohort.
    """
    epochs = integer(epochs, "epochs")
    batch_size = integer(batch_size, "batch_size")
    if not (0.0 <= lr < math.inf and 0.0 <= prox_mu < math.inf):  # written so that nan fails it
        raise ParameterError("lr and prox_mu must be finite and >= 0")
    if len(seeds) != len(clients):
        raise ParameterError("expected one seed per client")
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):  # derived_seeds' uint64 array holds only seeds
        for g, seed in enumerate(seeds):
            if integer(seed, f"client {g}: seed", 0) >= 1 << 64:
                raise ParameterError(f"client {g}: seed {seed} is not below 2**64")
    seeds = np.asarray(seeds, dtype=np.uint64)
    sizes = np.array([len(client) for client in clients], dtype=np.int64)
    if np.any(sizes < 1):
        raise ParameterError(f"client {int(np.argmin(sizes))} has no samples")
    inits = np.ascontiguousarray(inits, dtype=np.float64)
    if inits.shape != (len(clients), layout.size):
        raise ParameterError("expected one initial parameter vector per client")
    # the schedule: each client's dataset indices once per epoch, client after client, each epoch shuffled in
    # place as rng.permutation(n) shuffles 0..n-1 (the shuffle's swaps do not depend on the values); the
    # leading empty int64 array keeps a cohort of none valid
    schedule = np.concatenate([np.zeros(0, dtype=np.int64), *(client for client in clients for _ in range(epochs))])
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, first, n in zip(pcg64_states(seeds), (epochs * (np.cumsum(sizes) - sizes)).tolist(), sizes.tolist()):
        bit_generator.state = state  # the state default_rng(seed) starts from
        for start in range(first, first + epochs * n, n):
            rng.shuffle(schedule[start:start + n])
    per_epoch = -(-sizes // batch_size)
    steps = per_epoch * epochs
    # every batch of the run: a client's batches, in step order, tile its runs, and batch j of an epoch of n
    # samples holds min(batch_size, n - j * batch_size) of them
    owners = np.repeat(np.arange(len(clients)), steps)
    step_of = np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps)
    lengths = np.minimum(sizes[owners] - step_of % per_epoch[owners] * batch_size, batch_size)
    # the batches reordered step by step, in cohort order within a step, and the schedule's rows with them:
    # each step's batches and its rows are then one slice each
    by_step = np.argsort(step_of, kind="stable")
    firsts = (np.cumsum(lengths) - lengths)[by_step]
    owners, lengths = owners[by_step], lengths[by_step]
    ends = np.cumsum(lengths)
    schedule = schedule[np.repeat(firsts - (ends - lengths), lengths) + np.arange(len(schedule))]
    batch_at = np.searchsorted(step_of[by_step], np.arange(steps.max(initial=0) + 1))  # each step's first batch
    row_at = np.concatenate([[0], ends])[batch_at].tolist()
    batch_at = batch_at.tolist()
    # the step at which each client's final epoch starts; only its losses are summed
    final_epoch = steps - per_epoch
    totals = np.zeros(len(clients))
    # row g is written once, when client g leaves the training state
    params = np.empty(inits.shape)
    # the training state: the clients still training, in cohort order, with their parameter rows, proximal
    # anchors and Adam moments; each has taken every step so far, so they share Adam's step counter
    live = np.arange(len(clients))
    rows, anchors, state = inits, inits, AdamState.zeros(inits.shape)
    # a diverging step may overflow; the finiteness check below turns that into NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps.max(initial=0)):
            step_sizes = lengths[batch_at[step]:batch_at[step + 1]]
            batch = schedule[row_at[step]:row_at[step + 1]]
            if len(step_sizes) > len(live):  # a client that left non-finite still has batches here: drop them
                keep = np.isin(owners[batch_at[step]:batch_at[step + 1]], live)
                batch = batch[np.repeat(keep, step_sizes)]
                step_sizes = step_sizes[keep]
            loss, grads = hybrid_loss_and_grads(
                dataset.features[batch], dataset.labels[batch], rows, layout, dataset.n_classes,
                prox_mu, anchors, step_sizes,
            )
            rows, state = adam_local_step(rows, grads, state, lr)
            totals[live] += np.where(step >= final_epoch[live], loss * step_sizes, 0.0)
            # a client leaves when its schedule ends or its step leaves a parameter non-finite
            stay = np.isfinite(rows).all(axis=1) & (steps[live] > step + 1)
            if not stay.all():
                if len(live) == len(clients) and not stay.any():  # the whole cohort leaves: the output is the uploads
                    params = rows
                    break
                params[live[~stay]] = rows[~stay]
                live, rows, anchors = live[stay], rows[stay], anchors[stay]
                state = AdamState._stepped(state.m[stay], state.v[stay], state.t)
                if not len(live):  # every client has left
                    break
    diverged = ~np.isfinite(params).all(axis=1)
    if diverged.any():
        raise NumericError(f"client {int(np.argmax(diverged))}: local training diverged to non-finite parameters")
    params[:, layout.n_classical:] = wrap_angles(params[:, layout.n_classical:])
    return params, totals / sizes


def init_params(layout: ParamLayout, seed: int) -> np.ndarray:
    """Seeded initialization: Glorot-uniform weights, zero biases, uniform angles.

    Angles land in (-pi, pi] by construction (pi minus a uniform [0, 2pi)
    draw), matching the canonical domain. The seed must be an integer >= 0
    (data.integer's rule), else ParameterError.
    """
    rng = np.random.default_rng(integer(seed, "seed", 0))
    lim1 = math.sqrt(6.0 / (layout.features + layout.hidden))
    lim2 = math.sqrt(6.0 / (layout.hidden + layout.qubits))
    params = np.zeros(layout.size)
    w1, _, w2, _ = layout.dense(params)
    w1[...] = rng.uniform(-lim1, lim1, w1.shape)
    w2[...] = rng.uniform(-lim2, lim2, w2.shape)
    angles = layout.angles(params)
    angles[...] = np.pi - rng.uniform(0.0, 2.0 * np.pi, angles.shape)
    return params
