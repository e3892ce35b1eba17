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

The clustering's inputs (the partition's class counts, lambda1, lambda2
and clusters) never change during a run, so a clustered strategy
clusters the clients once per run, in `init_state`, and every round
passes that assignment and eigengap report on in the server state. The
run context holds only data, so runs of different configs can share it.

State transitions are functional: run_round returns a fresh ServerState,
so a failed round leaves the previous state untouched.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ._seeds import MASK32, int_words, seed_words
from .aggregation import (
    AggregationWeights,
    aggregate_quantum,
    arithmetic_mean_quantum,
    cluster_weighted_average,
    fedadam_update,
)
from .clustering import (
    ClusterAssignment,
    SimilarityMatrix,
    laplacian_eigengaps,
    similarity_matrix,
    spectral_cluster,
)
from .data import (
    Dataset,
    class_counts,
    dirichlet_partition,
    generate_synthetic,
    integer,
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


def derived_seeds(master: int, path: Sequence[int], ids: Sequence[int]) -> np.ndarray:
    """derived_seed(master, *path, i) for every i of ids, as one (N,) uint64 array hashed in one pass.

    master and path are non-negative integers and every id an integer in
    [0, 2**32), each by data.integer's rule (42.5, "42" and nan are none),
    else ParameterError: ids are an integer-dtype array or each is taken
    through operator.index. The range is checked before any fixed-width
    conversion, so an id of 2**63 or more is rejected, not overflowed.
    """
    prefix = [integer(value, "a non-negative seed path entry", 0) for value in (master, *path)]
    ids = np.asarray(ids).reshape(-1)
    if ids.dtype.kind not in "iu":  # an object array: Python ints of any size, range-checked below
        ids = np.array([integer(i, "a non-negative seed id", 0) for i in ids.tolist()], dtype=object)
    if np.any((ids < 0) | (ids > MASK32)):
        raise ParameterError("seed paths must be non-negative, with every id in [0, 2**32)")
    words = [word for value in prefix for word in int_words(value)]
    entropy = np.empty((len(words) + 1, len(ids)), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = ids
    lo, hi = seed_words(entropy, 2).astype(np.uint64)
    return lo | hi << 32


def derived_seed(master: int, *path: int) -> int:
    """Deterministic child seed from the master seed and a non-empty integer path: the one-id derived_seeds."""
    return int(derived_seeds(master, path[:-1], path[-1:])[0])


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
        # every count, the seed and each kept class are integers by data.integer's rule (2.0 is not one), each
        # with its minimum; clusters' range, [1, n_clients], is checked below
        minima = {"n_clients": 1, "rounds": 0, "local_epochs": 1, "batch_size": 1, "clusters": -math.inf, "features": 2,
                  "hidden": 1, "qubits": 1, "layers": 1, "classes": 2, "per_class": 1, "seed": 0}
        checks = [(getattr(self, name), name, minimum) for name, minimum in minima.items()]
        for value, name, minimum in checks + [(label, "keep_classes", 0) for label in self.keep_classes or ()]:
            try:
                integer(value, name, minimum)
            except ParameterError as exc:
                raise ConfigError(str(exc)) from None
        if self.dataset == "synthetic" and round(TEST_FRACTION * self.per_class) < 1:
            raise ConfigError(f"per_class ({self.per_class}) is too small: its test share rounds to 0 samples")
        # each float check is written so that nan fails it; alpha = inf is the partition's even-split
        # limit, and every other float setting must be finite
        if not self.alpha > 0:
            raise ConfigError("alpha must be > 0")
        if not (0 <= self.local_lr < math.inf and 0 < self.server_lr < math.inf):
            raise ConfigError("local_lr must be >= 0 and server_lr > 0, both finite")
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise ConfigError("lambda1 and lambda2 must be finite and >= 0")
        if not 1 <= self.clusters <= self.n_clients:
            raise ConfigError("clusters must lie in [1, n_clients]")
        if not 0 <= self.prox_mu < math.inf:
            raise ConfigError("prox_mu must be finite and >= 0")
        if self.classes > self.qubits:
            raise ConfigError(f"classes ({self.classes}) must not exceed qubits ({self.qubits})")
        if not 0 <= self.spread < math.inf:
            raise ConfigError("spread must be finite and >= 0")
        if self.dataset == "idx" and (self.idx_images is None or self.idx_labels is None):
            raise ConfigError("dataset 'idx' requires idx_images and idx_labels")
        if self.keep_classes is not None:
            if len(set(self.keep_classes)) != len(self.keep_classes):
                raise ConfigError("keep_classes must be distinct labels")
            if len(self.keep_classes) != self.classes:
                raise ConfigError(f"classes ({self.classes}) must equal len(keep_classes) ({len(self.keep_classes)})")
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


@dataclass(frozen=True)
class Clustering:
    """A run's spectral clustering of its clients.

    eigenvalues is the ascending normalized-Laplacian spectrum of the
    clients' similarity graph.
    """

    assignment: ClusterAssignment
    eigenvalues: np.ndarray

    @property
    def eigengaps(self) -> tuple[float, ...]:
        """The spectrum's consecutive gaps, as every clustered round reports them."""
        return tuple(np.diff(self.eigenvalues).tolist())


def client_similarity(counts: np.ndarray, config: ExperimentConfig) -> SimilarityMatrix:
    """The clients' similarity graph under config's lambdas, from their (n_clients, C) class counts."""
    sizes = counts.sum(axis=1)
    return similarity_matrix(counts / sizes[:, None], sizes, config.lambda1, config.lambda2)


def cluster_clients(counts: np.ndarray, config: ExperimentConfig) -> Clustering:
    """Cluster the clients by their (n_clients, C) class counts, with k-means on round 1's seed path.

    One similarity matrix feeds both spectral_cluster and the eigengap
    report.
    """
    sim = client_similarity(counts, config)
    assignment = spectral_cluster(sim, config.clusters, derived_seed(config.seed, _SEED_KMEANS, 1))
    values, _ = laplacian_eigengaps(sim)
    return Clustering(assignment, values)


@dataclass
class RunContext:
    """Immutable per-run environment: data, partition, and the test split.

    clients[i] is client i's index array into dataset, and row i of the
    (n_clients, C) class_counts matrix tallies its labels; the partition
    never changes during a run, so the matrix is taken once. The context
    depends on the seed and the data and partition settings only, not on
    the strategy or its clustering settings.
    """

    dataset: Dataset
    clients: list[np.ndarray]
    class_counts: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Every client's sample count, in client-id order."""
        return self.class_counts.sum(axis=1)


@dataclass
class ServerState:
    """Everything the server carries between rounds.

    Row m of cluster_models is cluster m's classical parameter vector (the
    first n_classical entries of a ParamLayout), and assignment puts every
    client in one of those clusters: a state that never clustered holds the
    one-cluster assignment of all clients. quantum is the global (L, Q)
    angle array. clustering is a clustered strategy's clustering of the
    run's clients, computed once, by init_state, and passed on from round
    to round; an unclustered strategy's state holds None. A state built by
    hand for a clustered strategy must carry it too,
    clustering=cluster_clients(context.class_counts, config), or run_round
    raises ParameterError.
    """

    round_index: int
    cluster_models: np.ndarray
    assignment: ClusterAssignment
    quantum: np.ndarray
    opt_state: AdamState
    clustering: Clustering | None = None


def build_context(config: ExperimentConfig) -> RunContext:
    """Materialize the dataset, the global test split, and the client partition.

    The three seeds are hashed in one derived_seeds pass.
    """
    tags = [_SEED_DATA, _SEED_SPLIT, _SEED_PARTITION]
    data_seed, split_seed, partition_seed = derived_seeds(config.seed, (), tags).tolist()
    if config.dataset == "synthetic":
        dataset = generate_synthetic(
            config.classes,
            config.features,
            config.per_class,
            config.spread,
            data_seed,
        )
    else:
        keep = config.keep_classes if config.keep_classes is not None else tuple(range(config.classes))
        dataset = load_idx(config.idx_images, config.idx_labels, keep)
    train_idx, test_idx = stratified_split(dataset, TEST_FRACTION, split_seed)
    clients = dirichlet_partition(
        dataset,
        config.n_clients,
        config.alpha,
        partition_seed,
        indices=train_idx,
    )
    return RunContext(dataset, clients, class_counts(clients, dataset), train_idx, test_idx)


def _layout(config: ExperimentConfig, context: RunContext) -> ParamLayout:
    return ParamLayout(context.dataset.n_features, config.hidden, config.qubits, config.layers)


def init_state(config: ExperimentConfig, context: RunContext) -> ServerState:
    """Round-0 server state: one model for one cluster of all clients, empty optimizer moments.

    A clustered strategy's state also holds the run's clustering, computed
    here from the context's class counts.
    """
    layout = _layout(config, context)
    params = init_params(layout, derived_seed(config.seed, _SEED_INIT))
    return ServerState(
        round_index=0,
        cluster_models=params[None, :layout.n_classical],
        assignment=ClusterAssignment.single(len(context.clients)),
        quantum=layout.angles(params),
        opt_state=AdamState.zeros(config.qubits * config.layers),
        clustering=cluster_clients(context.class_counts, config) if STRATEGIES[config.strategy].clustered else None,
    )


def _score_models(classical, angles, xs, ys, n_classes) -> tuple[np.ndarray, np.ndarray]:
    """Accuracies and mean losses of an (M, n_classical) stack of models, each with the (L, Q) angles.

    The M models score the same test rows as one (M, n, ·) stack, so each
    row of the result is bit-identical to scoring its model alone.
    """
    # the hidden width is the one unknown in n_classical = H * (F + 1 + Q) + Q
    layers, qubits = angles.shape
    m, (n, features) = len(classical), xs.shape
    hidden = (classical.shape[1] - qubits) // (features + 1 + qubits)
    dense = ParamLayout(features, hidden, qubits, layers).dense(classical)
    embeddings, _ = mlp_forward(dense, np.broadcast_to(xs, (m, n, features)))
    logits = circuit_forward(embeddings, np.broadcast_to(angles, (m, layers, qubits)), n_classes)
    losses, _ = softmax_cross_entropy(logits, np.broadcast_to(ys, (m, n)))
    correct = np.count_nonzero(np.argmax(logits, axis=-1) == ys, axis=-1)
    return correct / n, losses.mean(axis=-1)


def evaluate(
    cluster_models: np.ndarray,
    quantum: np.ndarray,
    assignment: ClusterAssignment | None,
    counts: np.ndarray | None,
    dataset: Dataset,
    test_indices: np.ndarray,
    n_classes: int,
) -> tuple[float, float, tuple[float, ...]]:
    """Score every cluster model (row of cluster_models) on the full shared test split, in one stacked pass.

    The aggregate accuracy (and loss) weights each cluster's score by its
    share of the clients' sample counts (counts[i] belongs to client i of
    the assignment, and the assignment must have one cluster per model); a
    single model given None for both scores plainly. Several models cannot
    be weighted without both, and raise ParameterError. Per-cluster
    accuracies are returned unreduced, in cluster order, so nothing is
    hidden by the weighting.
    """
    if len(test_indices) == 0:
        raise ParameterError("test split is empty")
    if assignment is not None and assignment.n_clusters != len(cluster_models):
        raise ParameterError(f"{len(cluster_models)} cluster models for {assignment.n_clusters} clusters")
    if assignment is None or counts is None:
        if len(cluster_models) != 1:
            raise ParameterError(f"{len(cluster_models)} cluster models need an assignment and sample counts")
        shares = [1.0]
    else:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.shape != assignment.labels.shape:
            raise ParameterError(f"{counts.size} sample counts for {len(assignment.labels)} assigned clients")
        cluster_counts = np.bincount(assignment.labels, weights=counts, minlength=assignment.n_clusters)
        shares = AggregationWeights.from_counts(cluster_counts).weights.tolist()
    xs = dataset.features[test_indices]
    ys = dataset.labels[test_indices]
    accuracies, losses = _score_models(cluster_models, quantum, xs, ys, n_classes)
    agg_acc = 0.0
    agg_loss = 0.0
    for acc, loss, share in zip(accuracies.tolist(), losses.tolist(), shares):
        agg_acc += share * acc
        agg_loss += share * loss
    return agg_acc, agg_loss, tuple(accuracies.tolist())


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
    nan.
    """
    acc, loss, per_cluster = evaluate(
        state.cluster_models, state.quantum, state.assignment, context.counts,
        context.dataset, context.test_indices, config.classes,
    )
    return RoundMetrics(
        round_index=state.round_index,
        strategy=config.strategy,
        seed=config.seed,
        alpha=config.alpha,
        accuracy=acc,
        loss=loss,
        mean_train_loss=math.nan if losses is None else math.fsum(losses.tolist()) / len(losses),
        per_cluster_accuracy=per_cluster,
        cluster_sizes=tuple(state.assignment.cluster_sizes().tolist()),
        eigengaps=eigengaps,
        degeneracies=degeneracies,
        duration_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_round(state: ServerState, config: ExperimentConfig, context: RunContext) -> tuple[ServerState, RoundMetrics]:
    """One full round: broadcast, local training, aggregation, evaluation.

    Client i trains from the classical parameters of its cluster in the
    state's assignment; everyone receives the same global quantum
    parameters, and a broadcast is the concatenation of the two. A
    clustered strategy aggregates into the state's clustering and passes
    it on to the next state, so every round reports the same assignment
    and eigengaps; a state without one (clustering None) raises
    ParameterError before any client trains, as only init_state clusters
    (a hand-built state takes cluster_clients(context.class_counts,
    config)). An unclustered strategy always aggregates into one cluster
    of all clients. The clients train as one cohort, in one local_train
    call, and its (n_clients, P) stack goes straight to aggregation.
    Per-client seeds derive from (master seed, round, client id), so a
    round is reproducible regardless of scheduling; derived_seeds hashes
    the whole cohort's in one pass, each equal to SeedSequence([master, 4,
    round, id]) and so in [0, 2**64). A client whose training diverges raises
    NumericError naming the round and the client.
    """
    start = time.perf_counter()
    round_index = state.round_index + 1
    strategy = STRATEGIES[config.strategy]
    if strategy.clustered and state.clustering is None:
        raise ParameterError(f"a {config.strategy} round needs a state that holds the run's clustering (init_state's)")
    layout = _layout(config, context)

    n_clients = len(context.clients)
    angles = np.broadcast_to(state.quantum.reshape(-1), (n_clients, state.quantum.size))
    try:
        uploads, losses = local_train(
            context.clients,
            context.dataset,
            np.concatenate([state.cluster_models[state.assignment.labels], angles], axis=1),
            layout,
            config.local_epochs,
            config.batch_size,
            config.local_lr,
            config.prox_mu if strategy.proximal else 0.0,
            derived_seeds(config.seed, (_SEED_CLIENT, round_index), np.arange(n_clients)),
        )
    except NumericError as exc:
        raise NumericError(f"round {round_index}, {exc}") from exc
    counts = context.counts

    assignment = state.clustering.assignment if strategy.clustered else ClusterAssignment.single(n_clients)
    eigengaps = state.clustering.eigengaps if strategy.clustered else None
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
        assignment=assignment,
        quantum=quantum,
        opt_state=opt_state,
        clustering=state.clustering,
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
