"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS line with the measured figure so a plain
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
Constructions and thresholds are frozen; see the module tests for the
broader property coverage behind them.
"""

import dataclasses
import math
import time

import numpy as np

import fedsim.cli as cli
from fedsim.aggregation import (
    AggregationWeights,
    arithmetic_mean_quantum,
    circular_mean,
    fedadam_update,
    wrap_angle,
)
from fedsim.clustering import (
    ClusterAssignment,
    adjusted_rand_index,
    normalized_laplacian,
    similarity_matrix,
    spectral_cluster,
    symmetric_eig,
)
from fedsim.model import (
    AdamState,
    ParamLayout,
    circuit_forward,
    hybrid_loss_and_grads,
    init_params,
    local_train,
    mlp_forward,
    softmax_cross_entropy,
    statevector,
)
from fedsim.orchestrator import (
    ExperimentConfig,
    ServerState,
    build_context,
    cluster_clients,
    derived_seed,
    init_state,
    run_experiment,
    run_round,
)

from conftest import dense_oracle_state


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


# -- criterion 1: analytic gradients vs central finite differences ----------


def forward_loss(xs, ys, layout, params, n_classes):
    """Independent loss-only oracle: plain forward composition, no gradients."""
    total = 0.0
    for x, y in zip(xs, ys):
        embedding, _ = mlp_forward(layout.dense(params), x)
        logits = circuit_forward(embedding, layout.angles(params), n_classes)
        loss, _ = softmax_cross_entropy(logits, int(y))
        total += loss
    return total / len(ys)


def test_criterion_01_gradient_suite():
    start = time.perf_counter()
    f, h, q, layers, classes = 8, 16, 4, 2, 4
    draws = 20
    worst = 0.0
    for draw in range(draws):
        rng = np.random.default_rng(1000 + draw)
        layout = ParamLayout(f, h, q, layers)
        flat = init_params(layout, int(rng.integers(1 << 30)))
        xs = rng.uniform(-1.0, 1.0, (2, f))
        ys = rng.integers(0, classes, 2)
        _, analytic = hybrid_loss_and_grads(xs, ys, flat, layout, classes)

        fd = np.empty_like(flat)
        step = 1e-5
        for k in range(len(flat)):
            plus = flat.copy()
            plus[k] += step
            minus = flat.copy()
            minus[k] -= step
            fd[k] = (
                forward_loss(xs, ys, layout, plus, classes)
                - forward_loss(xs, ys, layout, minus, classes)
            ) / (2 * step)
        rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-6)
        worst = max(worst, rel)
        assert rel < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, f"{draws} draws, worst relative gradient error {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: statevector vs dense unitary-product oracle ---------------


def test_criterion_02_quantum_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    circuits = 50
    worst = 0.0
    for _ in range(circuits):
        n = int(rng.integers(1, 6))
        layers = int(rng.integers(1, 4))
        quantum = rng.uniform(-math.pi, math.pi, (layers, n))
        embedding = rng.uniform(-1.0, 1.0, n)
        gap = np.max(np.abs(statevector(embedding, quantum) - dense_oracle_state(embedding, quantum)))
        worst = max(worst, gap)
        assert gap < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{circuits} circuits (Q<=5), worst statevector error {worst:.2e}, {elapsed:.1f}s")


# -- criterion 3: circular-mean suite ----------------------------------------


def test_criterion_03_circular_mean_suite():
    rng = np.random.default_rng(11)

    # rotation equivariance
    for _ in range(50):
        angles = rng.uniform(-1.0, 1.0, int(rng.integers(2, 9)))
        shift = float(rng.uniform(-10.0, 10.0))
        weights = AggregationWeights.from_counts(rng.integers(1, 50, len(angles)))
        base, _ = circular_mean(angles, weights)
        shifted, _ = circular_mean(angles + shift, weights)
        assert abs(wrap_angle(shifted - (base + shift))) < 1e-10

    # invariance under per-client 2*pi shifts
    for _ in range(50):
        angles = rng.uniform(-1.0, 1.0, int(rng.integers(2, 9)))
        ks = rng.integers(-3, 4, len(angles))
        weights = AggregationWeights.from_counts(rng.integers(1, 50, len(angles)))
        base, _ = circular_mean(angles, weights)
        shifted, _ = circular_mean(angles + 2 * math.pi * ks, weights)
        assert abs(wrap_angle(shifted - base)) < 1e-10

    # branch-cut case: circular mean lands on +pi, arithmetic mean collapses to 0
    branch_angles = np.array([math.pi - 0.1, -math.pi + 0.1])
    mean, _ = circular_mean(branch_angles, AggregationWeights.from_counts([1, 1]))
    assert abs(mean - math.pi) <= 1e-9
    collapsed = arithmetic_mean_quantum(branch_angles.reshape(2, 1, 1), [7, 7])[0, 0]
    assert collapsed == 0.0
    report(3, f"equivariance/invariance at 1e-10; branch cut -> {mean:.9f}, arithmetic -> {collapsed}")


# -- criterion 4: server optimizer vs independent recurrence -----------------


def test_criterion_04_fedadam_oracle():
    b1, b2, eta, eps = 0.9, 0.999, 0.001, 1e-8
    target = -0.35
    phi = np.array([0.8])
    state = AdamState.zeros(1)
    trajectory = []
    gaps = [abs(phi[0] - target)]
    for _ in range(20):
        phi, state = fedadam_update(phi, np.array([target]), state, b1, b2, eta, eps)
        trajectory.append(phi[0])
        gaps.append(abs(phi[0] - target))

    x, m, v = 0.8, 0.0, 0.0
    expected = []
    for t in range(1, 21):
        g = x - target
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - eta * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        expected.append(x)

    worst = float(np.max(np.abs(np.array(trajectory) - np.array(expected))))
    assert worst < 1e-12
    assert all(late < early for early, late in zip(gaps, gaps[1:]))
    report(4, f"20-step replay gap {worst:.2e}, distance to target strictly decreasing")


# -- criterion 5: planted two-block clustering recovery ----------------------


def planted_two_block_population(seed):
    """Two blocks of five clients, each fully concentrated on its two classes.

    The block's sample mass is allocated across its clients by one
    Dirichlet(0.1) draw, so within-block sample sizes are heavily skewed
    while cross-block class divergence stays maximal.
    """
    rng = np.random.default_rng(seed)
    proportions = np.zeros((10, 4))
    counts = []
    for block, classes in enumerate(((0, 1), (2, 3))):
        shares = rng.dirichlet(np.full(5, 0.1))
        counts.extend(np.maximum(1, np.round(shares * 500).astype(int)))
        proportions[5 * block:5 * block + 5, list(classes)] = 0.5
    return proportions, np.array(counts), np.array([0] * 5 + [1] * 5)


def test_criterion_05_clustering_recovery():
    start = time.perf_counter()
    recovered = 0
    for seed in range(100):
        proportions, counts, truth = planted_two_block_population(seed)
        sim = similarity_matrix(proportions, counts, lambda1=2.0, lambda2=1.0)
        assignment = spectral_cluster(sim, 2, seed)
        if adjusted_rand_index(assignment.labels, truth) == 1.0:
            recovered += 1
    elapsed = time.perf_counter() - start
    assert recovered >= 95
    assert elapsed < 20.0
    report(5, f"blocks recovered exactly in {recovered}/100 seeds, {elapsed:.1f}s")


# -- criterion 6: eigensolver and Laplacian guarantees -----------------------


def test_criterion_06_eigen_laplacian_suite():
    rng = np.random.default_rng(3)
    worst_residual = 0.0
    for _ in range(10):
        a = rng.standard_normal((20, 20))
        a = 0.5 * (a + a.T)
        values, vectors = symmetric_eig(a)
        for k in range(20):
            residual = np.linalg.norm(a @ vectors[:, k] - values[k] * vectors[:, k])
            worst_residual = max(worst_residual, residual)
            assert residual < 1e-8

    worst_null = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 15))
        proportions, counts = rng.dirichlet(np.ones(4), n), rng.integers(10, 500, n)
        sim = similarity_matrix(proportions, counts, float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
        smallest = symmetric_eig(normalized_laplacian(sim))[0][0]
        worst_null = max(worst_null, abs(smallest))
        assert abs(smallest) < 1e-8
    report(6, f"worst 20x20 residual {worst_residual:.2e}; worst smallest-eigenvalue {worst_null:.2e}")


# -- criterion 7: end-to-end convergence -------------------------------------

# training scale calibrated by the oracle run behind this criterion:
# seed-42 trajectory 0.263 -> 0.580 -> 0.714 -> 0.829 -> 0.888 -> 0.912
CONVERGENCE_CONFIG = dict(
    strategy="fedcompass",
    n_clients=10,
    alpha=0.3,
    rounds=5,
    local_epochs=5,
    batch_size=8,
    local_lr=0.03,
    server_lr=0.05,
    features=8,
    spread=0.3,
    per_class=100,
    seed=42,
)


def test_criterion_07_end_to_end_convergence():
    start = time.perf_counter()
    metrics = run_experiment(ExperimentConfig(**CONVERGENCE_CONFIG))
    elapsed = time.perf_counter() - start
    accuracies = [m.accuracy for m in metrics]
    assert len(accuracies) == 6
    assert accuracies[-1] >= 0.85
    non_decreasing = sum(b >= a for a, b in zip(accuracies, accuracies[1:]))
    assert non_decreasing >= 4
    assert elapsed < 300.0
    curve = " -> ".join(f"{a:.3f}" for a in accuracies)
    report(7, f"accuracy {curve} ({non_decreasing}/5 non-decreasing), {elapsed:.0f}s")


# -- criterion 8: circular-mean ablation direction ----------------------------


def branch_cut_classical():
    """Frozen feature extractor whose optimal quantum angle sits at +/-pi.

    The hidden layer saturates into per-class sign patterns; the embedding
    targets 0.9 (class 0) vs 0.1 (class 1) sum to one, which makes the
    cross-entropy landscape of the second angle symmetric about the branch
    cut, so locally trained uploads jitter onto both sides of it.
    """
    gain = 8.0
    w1 = np.array([[gain, -gain], [-gain, gain]])
    split = 0.25 * (math.atanh(0.9) - math.atanh(0.1))
    bias = 0.5 * (math.atanh(0.9) + math.atanh(0.1))
    w2 = np.array([[0.0, 0.0], [split, -split]])
    b2 = np.array([0.0, bias])
    return np.concatenate([w1.ravel(), np.zeros(2), w2.ravel(), b2])


ABLATION_CONFIG = dict(
    strategy="fedcompass",
    n_clients=10,
    alpha=10.0,
    rounds=4,
    local_epochs=1,
    batch_size=32,
    local_lr=0.005,
    server_lr=0.7,
    features=2,
    hidden=2,
    qubits=2,
    layers=1,
    classes=2,
    spread=0.05,
    per_class=80,
)


def branch_cut_state(config, context):
    return ServerState(
        round_index=0,
        cluster_models=branch_cut_classical()[None],
        assignment=ClusterAssignment.single(ABLATION_CONFIG["n_clients"]),
        quantum=np.full((1, 2), math.pi - 0.002),
        opt_state=AdamState.zeros(2),
        clustering=cluster_clients(context.class_counts, config),
    )


def test_criterion_08_ablation_direction():
    # premise check: round-1 uploads genuinely straddle the branch cut
    probe = ExperimentConfig(**ABLATION_CONFIG, seed=0).validate()
    context = build_context(probe)
    state = branch_cut_state(probe, context)
    params, _ = local_train(
        context.clients, context.dataset,
        np.tile(np.concatenate([state.cluster_models[0], state.quantum.ravel()]), (len(context.clients), 1)),
        ParamLayout(2, 2, 2, 1),
        probe.local_epochs, probe.batch_size, probe.local_lr, 0.0,
        [derived_seed(probe.seed, 4, 1, client_id) for client_id in range(len(context.clients))],
    )
    uploads = params[:, -2:]
    straddling = [j for j in range(2) if uploads[:, j].max() > 3.0 and uploads[:, j].min() < -3.0]
    assert straddling, "constructed scenario must put client angles on both sides of the cut"

    diffs = []
    for seed in range(10):
        base = ExperimentConfig(**ABLATION_CONFIG, seed=seed).validate()
        context = build_context(base)
        finals = {}
        for strategy in ("fedcompass", "fedcompass_no_circular"):
            config = dataclasses.replace(base, strategy=strategy)
            state = branch_cut_state(config, context)
            for _ in range(config.rounds):
                state, metrics = run_round(state, config, context)
            finals[strategy] = metrics.accuracy
        diffs.append(finals["fedcompass"] - finals["fedcompass_no_circular"])
    mean_diff = float(np.mean(diffs))
    assert mean_diff > 0.0
    report(8, f"straddling dims {straddling}; mean accuracy gap over 10 seeds {mean_diff:+.3f}")


# -- criterion 9: byte-identical compare reruns ------------------------------


def test_criterion_09_compare_determinism(tmp_path):
    args = [
        "compare", "--strategy", "fedcompass,fedavg", "--alpha", "0.3",
        "--clients", "4", "--rounds", "2", "--epochs", "1", "--batch", "8",
        "--lr", "0.05", "--seed", "3", "--out", str(tmp_path),
    ]
    assert cli.main(args) == 0
    first_csvs = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    first_manifests = {p.name: p.read_text() for p in tmp_path.glob("*.manifest.json")}
    assert first_csvs and first_manifests

    assert cli.main(args) == 0
    second_csvs = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert first_csvs == second_csvs

    import json

    for name, text in first_manifests.items():
        a = json.loads(text)
        b = json.loads((tmp_path / name).read_text())
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
    report(9, f"{len(first_csvs)} CSVs byte-identical across reruns; manifests differ only in timestamp")


# -- criterion 10: strategy equivalences --------------------------------------


def test_criterion_10_strategy_equivalences():
    settings = dict(
        n_clients=4, alpha=0.5, rounds=3, local_epochs=1, batch_size=8,
        local_lr=0.05, features=4, hidden=6, per_class=20, spread=0.2, seed=5,
    )

    # fedprox with mu = 0 must replay fedavg bit for bit
    prox = run_experiment(ExperimentConfig(strategy="fedprox", prox_mu=0.0, **settings))
    avg = run_experiment(ExperimentConfig(strategy="fedavg", **settings))
    for row_p, row_a in zip(prox, avg):
        assert row_p.accuracy == row_a.accuracy
        assert row_p.loss == row_a.loss

    # fedcompass with M = 1 aggregates classically exactly like fedavg:
    # replay every fedavg round through a fedcompass(M=1) state
    avg_config = ExperimentConfig(strategy="fedavg", **settings).validate()
    fc_config = ExperimentConfig(strategy="fedcompass", clusters=1, **settings).validate()
    context = build_context(avg_config)
    state = init_state(avg_config, context)
    for _ in range(avg_config.rounds):
        next_avg_state, _ = run_round(state, avg_config, context)
        fc_state = ServerState(
            round_index=state.round_index,
            cluster_models=state.cluster_models.copy(),
            assignment=ClusterAssignment.single(settings["n_clients"]),
            quantum=state.quantum.copy(),
            opt_state=AdamState.zeros(state.quantum.size),
            clustering=cluster_clients(context.class_counts, fc_config),
        )
        next_fc_state, _ = run_round(fc_state, fc_config, context)
        np.testing.assert_array_equal(
            next_fc_state.cluster_models[0].flatten(),
            next_avg_state.cluster_models[0].flatten(),
        )
        state = next_avg_state
    report(10, "fedprox(mu=0) == fedavg bitwise; fedcompass(M=1) classical path == fedavg per round")
