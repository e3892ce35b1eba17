"""The synchronous round loop for every supported strategy.

A round broadcasts models, trains all clients locally into one
(n_clients, P) upload stack in client-id order, aggregates the stack's
classical and angle blocks per the strategy, weighted by the partition's
sample counts, and evaluates on the shared test split. `STRATEGIES`
defines every strategy as four protocol switches, and `run_round` reads
only those switches: fedcompass clusters, takes the circular mean of the
angles and applies the server Adam step; its two ablations each drop one
ingredient (no_clustering the clustering, no_circular the circular mean);
fedavg does none of the three, and fedprox is fedavg plus the proximal
term in the local objective.

State transitions are functional: run_round returns a fresh ServerState,
so a failed round leaves the previous state untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from statistics import fmean
from typing import NamedTuple

import numpy as np

from .aggregation import (
    aggregate_quantum,
    arithmetic_mean_quantum,
    cluster_weighted_average,
    fedadam_update,
)
from .clustering import (
    ClusterAssignment,
    laplacian_eigengaps,
    similarity_matrix,
    spectral_cluster,
)
from .data import (
    ClassDistribution,
    ClientDataset,
    Dataset,
    class_distribution,
    dirichlet_partition,
    generate_synthetic,
    load_idx,
    stratified_split,
)
from .errors import ConfigError, NumericError, ParameterError
from .model import (
    AdamState,
    ParamLayout,
    circuit_forward,
    init_params,
    local_train,
    mlp_forward,
    softmax_cross_entropy,
)


class Strategy(NamedTuple):
    """The protocol switches that define a strategy."""

    clustered: bool  # spectral clustering into per-cluster classical models
    circular: bool  # circular mean of the angles, else the arithmetic mean
    server_step: bool  # server Adam step on the aggregated angles
    proximal: bool  # proximal term prox_mu in the local objective


STRATEGIES = {
    "fedcompass": Strategy(clustered=True, circular=True, server_step=True, proximal=False),
    "fedavg": Strategy(clustered=False, circular=False, server_step=False, proximal=False),
    "fedprox": Strategy(clustered=False, circular=False, server_step=False, proximal=True),
    "fedcompass_no_clustering": Strategy(clustered=False, circular=True, server_step=True, proximal=False),
    "fedcompass_no_circular": Strategy(clustered=True, circular=False, server_step=True, proximal=False),
}

TEST_FRACTION = 0.2

# integer tags for the seed-derivation paths (documented splitting rule:
# every consumer seed is SeedSequence([master, tag, ...extras]))
_SEED_DATA = 0
_SEED_SPLIT = 1
_SEED_PARTITION = 2
_SEED_INIT = 3
_SEED_CLIENT = 4
_SEED_KMEANS = 5


def derived_seed(master: int, *path: int) -> int:
    """Deterministic child seed from the master seed and an integer path."""
    return int(np.random.SeedSequence([master, *path]).generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    """Everything a run needs; defaults follow the reference training setup."""

    strategy: str = "fedcompass"
    n_clients: int = 10
    alpha: float = 0.3
    rounds: int = 5
    local_epochs: int = 5
    batch_size: int = 32
    local_lr: float = 0.001
    server_lr: float = 0.001
    lambda1: float = 1.0
    lambda2: float = 1.0
    clusters: int = 2
    prox_mu: float = 0.01
    features: int = 8
    hidden: int = 16
    qubits: int = 4
    layers: int = 2
    classes: int = 4
    dataset: str = "synthetic"
    per_class: int = 100
    spread: float = 0.3
    idx_images: str | None = None
    idx_labels: str | None = None
    keep_classes: tuple[int, ...] | None = None
    seed: int = 42

    def validate(self) -> "ExperimentConfig":
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy '{self.strategy}' (choose from {', '.join(STRATEGIES)})")
        if self.dataset not in ("synthetic", "idx"):
            raise ConfigError(f"dataset must be 'synthetic' or 'idx', not '{self.dataset}'")
        positive = ["n_clients", "local_epochs", "batch_size", "hidden", "qubits", "layers", "per_class"]
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.dataset == "synthetic" and round(TEST_FRACTION * self.per_class) < 1:
            raise ConfigError(f"per_class ({self.per_class}) is too small: its test share rounds to 0 samples")
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        if self.local_lr < 0 or self.server_lr <= 0:
            raise ConfigError("local_lr must be >= 0 and server_lr > 0")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1 and lambda2 must be >= 0")
        if not 1 <= self.clusters <= self.n_clients:
            raise ConfigError("clusters must lie in [1, n_clients]")
        if self.prox_mu < 0:
            raise ConfigError("prox_mu must be >= 0")
        if self.features < 2:
            raise ConfigError("features must be >= 2")
        if self.classes < 2:
            raise ConfigError("classes must be >= 2")
        if self.classes > self.qubits:
            raise ConfigError(f"classes ({self.classes}) must not exceed qubits ({self.qubits})")
        if self.spread < 0:
            raise ConfigError("spread must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.dataset == "idx" and (self.idx_images is None or self.idx_labels is None):
            raise ConfigError("dataset 'idx' requires idx_images and idx_labels")
        if self.keep_classes is not None and len(self.keep_classes) != self.classes:
            raise ConfigError("classes must equal len(keep_classes)")
        return self


@dataclass
class RoundMetrics:
    """Per-round observables; round 0 is the pre-training baseline row."""

    round_index: int
    strategy: str
    seed: int
    alpha: float
    accuracy: float
    loss: float
    mean_train_loss: float
    per_cluster_accuracy: tuple[float, ...]
    cluster_sizes: tuple[int, ...]
    eigengaps: tuple[float, ...] | None
    degeneracies: int
    duration_ms: float


@dataclass
class RunContext:
    """Immutable per-run environment: data, partition, and the test split.

    The partition never changes during a run, so each client's class
    distribution is taken once; distributions[i] belongs to clients[i], and
    both lists are in client-id order.
    """

    dataset: Dataset
    clients: list[ClientDataset]
    distributions: list[ClassDistribution]
    train_indices: np.ndarray
    test_indices: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Every client's sample count, in client-id order."""
        return np.array([d.count for d in self.distributions])


@dataclass
class ServerState:
    """Everything the server carries between rounds.

    Row m of cluster_models is cluster m's classical parameter vector (the
    first n_classical entries of a ParamLayout); quantum is the global
    (L, Q) angle array.
    """

    round_index: int
    cluster_models: np.ndarray
    assignment: ClusterAssignment | None
    quantum: np.ndarray
    opt_state: AdamState


def build_context(config: ExperimentConfig) -> RunContext:
    """Materialize the dataset, the global test split, and the client partition."""
    if config.dataset == "synthetic":
        dataset = generate_synthetic(
            config.classes,
            config.features,
            config.per_class,
            config.spread,
            derived_seed(config.seed, _SEED_DATA),
        )
    else:
        keep = config.keep_classes if config.keep_classes is not None else tuple(range(config.classes))
        dataset = load_idx(config.idx_images, config.idx_labels, keep)
    train_idx, test_idx = stratified_split(dataset, TEST_FRACTION, derived_seed(config.seed, _SEED_SPLIT))
    clients = dirichlet_partition(
        dataset,
        config.n_clients,
        config.alpha,
        derived_seed(config.seed, _SEED_PARTITION),
        indices=train_idx,
    )
    distributions = [class_distribution(client, dataset) for client in clients]
    return RunContext(dataset, clients, distributions, train_idx, test_idx)


def _layout(config: ExperimentConfig, context: RunContext) -> ParamLayout:
    return ParamLayout(context.dataset.n_features, config.hidden, config.qubits, config.layers)


def init_state(config: ExperimentConfig, context: RunContext) -> ServerState:
    """Round-0 server state: one broadcast model, empty optimizer moments."""
    layout = _layout(config, context)
    params = init_params(layout, derived_seed(config.seed, _SEED_INIT))
    return ServerState(
        round_index=0,
        cluster_models=params[None, :layout.n_classical],
        assignment=None,
        quantum=layout.angles(params),
        opt_state=AdamState.zeros(config.qubits * config.layers),
    )


def _score_model(classical, angles, xs, ys, n_classes) -> tuple[float, float]:
    # the hidden width is the one unknown in n_classical = H * (F + 1 + Q) + Q
    layers, qubits = angles.shape
    features = xs.shape[1]
    hidden = (len(classical) - qubits) // (features + 1 + qubits)
    dense = ParamLayout(features, hidden, qubits, layers).dense(classical)
    embeddings, _ = mlp_forward(dense, xs)
    logits = circuit_forward(embeddings, angles, n_classes)
    losses, _ = softmax_cross_entropy(logits, ys)
    correct = np.count_nonzero(np.argmax(logits, axis=1) == ys)
    return correct / len(ys), float(losses.mean())


def evaluate(
    cluster_models: np.ndarray,
    quantum: np.ndarray,
    assignment: ClusterAssignment | None,
    counts: np.ndarray | None,
    dataset: Dataset,
    test_indices: np.ndarray,
    n_classes: int,
) -> tuple[float, float, dict[int, float]]:
    """Score every cluster model (row of cluster_models) on the full shared test split.

    The aggregate accuracy (and loss) weights each cluster's score by its
    share of the clients' sample counts (counts[i] belongs to client i of
    the assignment); a single model without an assignment or counts
    scores plainly. Several models cannot be weighted without both, and
    raise ParameterError. Per-cluster accuracies are returned unreduced so
    nothing is hidden by the weighting.
    """
    if len(test_indices) == 0:
        raise ParameterError("test split is empty")
    if assignment is None or counts is None:
        if len(cluster_models) != 1:
            raise ParameterError(f"{len(cluster_models)} cluster models need an assignment and sample counts")
        shares = [1.0]
    else:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != assignment.labels.shape:
            raise ParameterError(f"{counts.size} sample counts for {len(assignment.labels)} assigned clients")
        total = counts.sum()
        shares = [float(counts[assignment.labels == cid].sum() / total) for cid in range(len(cluster_models))]
    xs = dataset.features[test_indices]
    ys = dataset.labels[test_indices]
    per_cluster: dict[int, float] = {}
    agg_acc = 0.0
    agg_loss = 0.0
    for cid, (model, share) in enumerate(zip(cluster_models, shares)):
        acc, loss = _score_model(model, quantum, xs, ys, n_classes)
        per_cluster[cid] = acc
        agg_acc += share * acc
        agg_loss += share * loss
    return agg_acc, agg_loss, per_cluster


def _round_metrics(
    state: ServerState,
    config: ExperimentConfig,
    context: RunContext,
    start: float,
    losses: np.ndarray | None = None,
    eigengaps: tuple[float, ...] | None = None,
    degeneracies: int = 0,
) -> RoundMetrics:
    """Score the server state on the test split and report it as one row.

    Round 0 trains nobody, so it has no losses and its mean train loss is
    nan. A state without an assignment holds one model that all n_clients
    share.
    """
    acc, loss, per_cluster = evaluate(
        state.cluster_models, state.quantum, state.assignment, context.counts,
        context.dataset, context.test_indices, config.classes,
    )
    sizes = (config.n_clients,) if state.assignment is None else state.assignment.cluster_sizes()
    return RoundMetrics(
        round_index=state.round_index,
        strategy=config.strategy,
        seed=config.seed,
        alpha=config.alpha,
        accuracy=acc,
        loss=loss,
        mean_train_loss=math.nan if losses is None else fmean(losses.tolist()),
        per_cluster_accuracy=tuple(per_cluster[c] for c in sorted(per_cluster)),
        cluster_sizes=tuple(int(s) for s in sizes),
        eigengaps=eigengaps,
        degeneracies=degeneracies,
        duration_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_round(state: ServerState, config: ExperimentConfig, context: RunContext) -> tuple[ServerState, RoundMetrics]:
    """One full round: broadcast, local training, aggregation, evaluation.

    Client i trains from its cluster's classical parameters when the state
    holds an assignment, otherwise from the single global model; everyone
    receives the same global quantum parameters, and a broadcast is the
    concatenation of the two. The clients train as one cohort, in one
    local_train call, and its (n_clients, P) stack goes straight to
    aggregation. Per-client seeds derive from (master seed, round, client
    id), so a round is reproducible regardless of scheduling. A client
    whose training diverges raises NumericError naming the round and the
    client.
    """
    start = time.perf_counter()
    round_index = state.round_index + 1
    strategy = STRATEGIES[config.strategy]
    layout = _layout(config, context)

    n_clients = len(context.clients)
    labels = np.zeros(n_clients, dtype=np.int64) if state.assignment is None else state.assignment.labels
    angles = np.broadcast_to(state.quantum.reshape(-1), (n_clients, state.quantum.size))
    try:
        uploads, losses = local_train(
            context.clients,
            context.dataset,
            np.concatenate([state.cluster_models[labels], angles], axis=1),
            layout,
            config.local_epochs,
            config.batch_size,
            config.local_lr,
            config.prox_mu if strategy.proximal else 0.0,
            [derived_seed(config.seed, _SEED_CLIENT, round_index, c.client_id) for c in context.clients],
        )
    except NumericError as exc:
        raise NumericError(f"round {round_index}, {exc}") from exc
    counts = context.counts

    eigengaps = None
    if strategy.clustered:
        sim = similarity_matrix(context.distributions, config.lambda1, config.lambda2)
        assignment = spectral_cluster(sim, config.clusters, derived_seed(config.seed, _SEED_KMEANS, round_index))
        _, gaps = laplacian_eigengaps(sim)
        eigengaps = tuple(float(g) for g in gaps)
    else:
        assignment = ClusterAssignment(np.zeros(n_clients, dtype=np.int64), 1)
    cluster_models = cluster_weighted_average(uploads[:, :layout.n_classical], counts, assignment)

    if strategy.circular:
        phi_bar, degenerate = aggregate_quantum(layout.angles(uploads), counts, state.quantum)
    else:
        phi_bar, degenerate = arithmetic_mean_quantum(layout.angles(uploads), counts), []
    if strategy.server_step:
        quantum, opt_state = fedadam_update(state.quantum, phi_bar, state.opt_state, eta=config.server_lr)
    else:
        quantum, opt_state = phi_bar, state.opt_state

    next_state = ServerState(
        round_index=round_index,
        cluster_models=cluster_models,
        assignment=assignment if strategy.clustered else None,
        quantum=quantum,
        opt_state=opt_state,
    )
    return next_state, _round_metrics(next_state, config, context, start, losses, eigengaps, len(degenerate))


def run_experiment(config: ExperimentConfig) -> list[RoundMetrics]:
    """Full deterministic run, returning the round-0 baseline plus one row per round."""
    config.validate()
    context = build_context(config)
    state = init_state(config, context)
    metrics = [_round_metrics(state, config, context, time.perf_counter())]
    for _ in range(config.rounds):
        state, round_metrics = run_round(state, config, context)
        metrics.append(round_metrics)
    return metrics
