"""The synchronous round loop for every supported strategy.

A round broadcasts models, trains all clients locally, collects updates
sorted by client id, aggregates classical and quantum parameters per the
strategy, and evaluates on the shared test split:

  fedcompass                spectral clustering + per-cluster classical
                            averages; circular-mean quantum aggregation
                            followed by the server Adam step
  fedcompass_no_clustering  single global classical average; quantum path
                            as fedcompass
  fedcompass_no_circular    clustering as fedcompass; quantum aggregation
                            replaced by the arithmetic mean (still fed
                            through the server Adam step)
  fedavg                    single classical average; plain weighted
                            arithmetic quantum mean, no server optimizer
  fedprox                   fedavg plus the proximal term in the local
                            objective

State transitions are functional: run_round returns a fresh ServerState,
so a failed round leaves the previous state untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from statistics import fmean

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
    ClientDataset,
    Dataset,
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

STRATEGIES = (
    "fedcompass",
    "fedavg",
    "fedprox",
    "fedcompass_no_clustering",
    "fedcompass_no_circular",
)

# strategies whose quantum path is circular mean + server Adam
_CIRCULAR_STRATEGIES = {"fedcompass", "fedcompass_no_clustering"}

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
    """Immutable per-run environment: data, partition, and the test split."""

    dataset: Dataset
    clients: list[ClientDataset]
    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass
class ServerState:
    """Everything the server carries between rounds.

    Cluster models are classical parameter vectors (the first n_classical
    entries of a ParamLayout); quantum is the global (L, Q) angle array.
    """

    round_index: int
    cluster_models: dict[int, np.ndarray]
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
    return RunContext(dataset, clients, train_idx, test_idx)


def _layout(config: ExperimentConfig, context: RunContext) -> ParamLayout:
    return ParamLayout(context.dataset.n_features, config.hidden, config.qubits, config.layers)


def init_state(config: ExperimentConfig, context: RunContext) -> ServerState:
    """Round-0 server state: one broadcast model, empty optimizer moments."""
    layout = _layout(config, context)
    params = init_params(layout, derived_seed(config.seed, _SEED_INIT))
    return ServerState(
        round_index=0,
        cluster_models={0: params[:layout.n_classical]},
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
    cluster_models: dict[int, np.ndarray],
    quantum: np.ndarray,
    assignment: ClusterAssignment | None,
    updates,
    dataset: Dataset,
    test_indices: np.ndarray,
    n_classes: int,
) -> tuple[float, float, dict[int, float]]:
    """Score every cluster model on the full shared test split.

    The aggregate accuracy (and loss) weights each cluster's score by its
    share of training samples; with a single model this reduces to the
    plain test accuracy. Per-cluster accuracies are returned unreduced so
    nothing is hidden by the weighting.
    """
    if len(test_indices) == 0:
        raise ParameterError("test split is empty")
    xs = dataset.features[test_indices]
    ys = dataset.labels[test_indices]
    if assignment is None or updates is None or assignment.n_clusters == 1:
        shares = {cid: 1.0 for cid in cluster_models}
    else:
        ups = sorted(updates, key=lambda u: u.client_id)
        counts = np.array([u.distribution.count for u in ups], dtype=np.float64)
        total = counts.sum()
        shares = {
            cid: float(counts[assignment.labels == cid].sum() / total)
            for cid in cluster_models
        }
    per_cluster: dict[int, float] = {}
    agg_acc = 0.0
    agg_loss = 0.0
    for cid in sorted(cluster_models):
        acc, loss = _score_model(cluster_models[cid], quantum, xs, ys, n_classes)
        per_cluster[cid] = acc
        agg_acc += shares[cid] * acc
        agg_loss += shares[cid] * loss
    return agg_acc, agg_loss, per_cluster


def _baseline_metrics(state: ServerState, config: ExperimentConfig, context: RunContext) -> RoundMetrics:
    start = time.perf_counter()
    acc, loss, per_cluster = evaluate(
        state.cluster_models, state.quantum, None, None,
        context.dataset, context.test_indices, config.classes,
    )
    return RoundMetrics(
        round_index=0,
        strategy=config.strategy,
        seed=config.seed,
        alpha=config.alpha,
        accuracy=acc,
        loss=loss,
        mean_train_loss=math.nan,
        per_cluster_accuracy=tuple(per_cluster[c] for c in sorted(per_cluster)),
        cluster_sizes=(config.n_clients,),
        eigengaps=None,
        degeneracies=0,
        duration_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_round(state: ServerState, config: ExperimentConfig, context: RunContext) -> tuple[ServerState, RoundMetrics]:
    """One full round: broadcast, local training, aggregation, evaluation.

    Client i trains from its cluster's classical parameters when a
    fedcompass assignment exists, otherwise from the single global model;
    everyone receives the same global quantum parameters, and a broadcast
    is the concatenation of the two. Per-client seeds derive from (master
    seed, round, client id), so a round is reproducible regardless of
    scheduling. A client whose training diverges raises NumericError
    naming the round and the client.
    """
    start = time.perf_counter()
    round_index = state.round_index + 1
    strategy = config.strategy
    layout = _layout(config, context)

    updates = []
    for position, client in enumerate(context.clients):
        if strategy == "fedcompass" and state.assignment is not None:
            classical = state.cluster_models[int(state.assignment.labels[position])]
        else:
            classical = state.cluster_models[0]
        broadcast = np.concatenate([classical, state.quantum.reshape(-1)])
        prox_mu = config.prox_mu if strategy == "fedprox" else 0.0
        try:
            update = local_train(
                client,
                context.dataset,
                broadcast,
                layout,
                config.local_epochs,
                config.batch_size,
                config.local_lr,
                prox_mu,
                derived_seed(config.seed, _SEED_CLIENT, round_index, client.client_id),
            )
        except NumericError as exc:
            raise NumericError(f"round {round_index}, {exc}") from exc
        updates.append(update)
    updates.sort(key=lambda u: u.client_id)

    eigengaps = None
    if strategy == "fedcompass":
        sim = similarity_matrix([u.distribution for u in updates], config.lambda1, config.lambda2)
        assignment = spectral_cluster(sim, config.clusters, derived_seed(config.seed, _SEED_KMEANS, round_index))
        _, gaps = laplacian_eigengaps(sim)
        eigengaps = tuple(float(g) for g in gaps)
    else:
        assignment = ClusterAssignment(np.zeros(len(updates), dtype=np.int64), 1)
    cluster_models = cluster_weighted_average(updates, assignment)

    degenerate: list[int] = []
    if strategy in _CIRCULAR_STRATEGIES:
        phi_bar, degenerate = aggregate_quantum(updates, state.quantum)
        quantum, opt_state = fedadam_update(
            state.quantum, phi_bar, state.opt_state, eta=config.server_lr
        )
    elif strategy == "fedcompass_no_circular":
        phi_bar = arithmetic_mean_quantum(updates)
        quantum, opt_state = fedadam_update(
            state.quantum, phi_bar, state.opt_state, eta=config.server_lr
        )
    else:  # fedavg, fedprox
        quantum = arithmetic_mean_quantum(updates)
        opt_state = state.opt_state

    acc, loss, per_cluster = evaluate(
        cluster_models, quantum, assignment, updates,
        context.dataset, context.test_indices, config.classes,
    )
    metrics = RoundMetrics(
        round_index=round_index,
        strategy=strategy,
        seed=config.seed,
        alpha=config.alpha,
        accuracy=acc,
        loss=loss,
        mean_train_loss=fmean(u.train_loss for u in updates),
        per_cluster_accuracy=tuple(per_cluster[c] for c in sorted(per_cluster)),
        cluster_sizes=tuple(int(s) for s in assignment.cluster_sizes()),
        eigengaps=eigengaps,
        degeneracies=len(degenerate),
        duration_ms=(time.perf_counter() - start) * 1000.0,
    )
    next_state = ServerState(
        round_index=round_index,
        cluster_models=cluster_models,
        assignment=assignment if strategy == "fedcompass" else None,
        quantum=quantum,
        opt_state=opt_state,
    )
    return next_state, metrics


def run_experiment(config: ExperimentConfig) -> list[RoundMetrics]:
    """Full deterministic run, returning the round-0 baseline plus one row per round."""
    config.validate()
    context = build_context(config)
    state = init_state(config, context)
    metrics = [_baseline_metrics(state, config, context)]
    for _ in range(config.rounds):
        state, round_metrics = run_round(state, config, context)
        metrics.append(round_metrics)
    return metrics
