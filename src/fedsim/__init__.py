"""Deterministic simulator of hybrid classical-quantum federated learning.

Clients train a small MLP feeding a statevector-simulated variational
quantum classifier on non-IID Dirichlet partitions. The server clusters
clients spectrally by class-distribution similarity, averages classical
parameters within clusters, and fuses periodic quantum parameters with a
circular mean followed by a server-side Adam step. Baselines (fedavg,
fedprox) and the two ablation variants share the same round loop.
"""

__version__ = "0.1.0"

from .aggregation import (
    AggregationWeights,
    aggregate_quantum,
    arithmetic_mean_quantum,
    circular_mean,
    cluster_weighted_average,
    fedadam_update,
    wrap_angle,
    wrap_angles,
)
from .clustering import (
    ClusterAssignment,
    SimilarityMatrix,
    adjusted_rand_index,
    js_divergence,
    kmeans,
    laplacian_eigengaps,
    normalized_laplacian,
    similarity_matrix,
    spectral_cluster,
    symmetric_eig,
)
from .data import (
    Dataset,
    class_counts,
    dirichlet_partition,
    generate_synthetic,
    load_idx,
    stratified_split,
)
from .errors import (
    ConfigError,
    DataFormatError,
    FedsimError,
    NumericError,
    ParameterError,
    PartitionError,
)
from .model import (
    AdamState,
    ParamLayout,
    adam_local_step,
    circuit_forward,
    hybrid_loss_and_grads,
    init_params,
    local_train,
    mlp_forward,
    param_shift_grad,
    statevector,
)
from .orchestrator import (
    STRATEGIES,
    Clustering,
    ExperimentConfig,
    RoundMetrics,
    RunContext,
    ServerState,
    build_context,
    cluster_clients,
    derived_seed,
    derived_seeds,
    evaluate,
    init_state,
    run_experiment,
    run_round,
)

__all__ = [name for name in dir() if not name.startswith("_")]
