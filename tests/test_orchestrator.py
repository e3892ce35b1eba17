import dataclasses
import hashlib
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim.orchestrator as orch
from fedsim.aggregation import AggregationWeights, aggregate_quantum, fedadam_update
from fedsim.cli import metrics_rows
from fedsim.clustering import ClusterAssignment, laplacian_eigengaps, similarity_matrix, spectral_cluster
from fedsim.data import class_counts
from fedsim.errors import ConfigError, NumericError, ParameterError
from fedsim.model import ParamLayout, circuit_forward, init_params, mlp_forward, softmax_cross_entropy
from fedsim.orchestrator import (
    ExperimentConfig,
    build_context,
    cluster_clients,
    derived_seed,
    evaluate,
    init_state,
    run_experiment,
    run_round,
)


def layout_of(config, context):
    return ParamLayout(context.dataset.n_features, config.hidden, config.qubits, config.layers)


def broadcast(state):
    """The single global model as a flat parameter vector."""
    return np.concatenate([state.cluster_models[0], state.quantum.ravel()])


def stub_scores(monkeypatch, score):
    """Have each cluster model score score(model) = (accuracy, loss) in place of the stacked circuit pass."""
    def scores(classical, angles, xs, ys, n_classes):
        accuracies, losses = zip(*(score(model) for model in classical))
        return np.array(accuracies), np.array(losses)

    monkeypatch.setattr(orch, "_score_models", scores)


def reference_score_model(classical, angles, xs, ys, n_classes):
    """One model's accuracy and mean loss, as evaluate scored each cluster model alone before the stacked pass."""
    layers, qubits = angles.shape
    features = xs.shape[1]
    hidden = (len(classical) - qubits) // (features + 1 + qubits)
    dense = ParamLayout(features, hidden, qubits, layers).dense(classical)
    embeddings, _ = mlp_forward(dense, xs)
    logits = circuit_forward(embeddings, angles, n_classes)
    losses, _ = softmax_cross_entropy(logits, ys)
    correct = np.count_nonzero(np.argmax(logits, axis=1) == ys)
    return correct / len(ys), float(losses.mean())


def reference_evaluate(cluster_models, quantum, shares, xs, ys, n_classes):
    """evaluate's scores from one reference_score_model call per model, weighted in cluster order."""
    per_cluster = []
    agg_acc = 0.0
    agg_loss = 0.0
    for model, share in zip(cluster_models, shares):
        acc, loss = reference_score_model(model, quantum, xs, ys, n_classes)
        per_cluster.append(acc)
        agg_acc += share * acc
        agg_loss += share * loss
    return agg_acc, agg_loss, tuple(per_cluster)


def small_config(**overrides):
    base = dict(
        strategy="fedavg",
        n_clients=4,
        alpha=0.5,
        rounds=2,
        local_epochs=1,
        batch_size=8,
        local_lr=0.05,
        features=4,
        hidden=6,
        qubits=4,
        layers=1,
        classes=4,
        per_class=20,
        spread=0.2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


class TestConfig:
    def test_defaults_follow_reference_setup(self):
        config = ExperimentConfig()
        assert config.n_clients == 10
        assert config.alpha == 0.3
        assert config.rounds == 5
        assert config.local_epochs == 5
        assert config.batch_size == 32
        assert config.local_lr == 0.001
        assert config.server_lr == 0.001

    def test_classes_bounded_by_qubits(self):
        with pytest.raises(ConfigError):
            small_config(classes=5, qubits=4)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            small_config(strategy="fedsgd")

    def test_rounds_zero_allowed(self):
        assert small_config(rounds=0).rounds == 0

    @pytest.mark.parametrize("overrides, named", [
        ({"dataset": "mnist"}, "dataset must be 'synthetic' or 'idx', not 'mnist'"),
        *[({field: 0}, f"{field} must be >= 1")
          for field in ["n_clients", "local_epochs", "batch_size", "hidden", "qubits", "layers", "per_class"]],
        ({"rounds": -1}, "rounds must be >= 0"),
        ({"clusters": 0}, r"clusters must lie in \[1, n_clients\]"),
        ({"clusters": 5}, r"clusters must lie in \[1, n_clients\]"),
        ({"features": 1}, "features must be >= 2"),
        ({"classes": 1}, "classes must be >= 2"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"dataset": "idx", "idx_images": "images.idx"}, "requires idx_images and idx_labels"),
        ({"dataset": "idx", "idx_labels": "labels.idx"}, "requires idx_images and idx_labels"),
    ])
    def test_out_of_range_settings_named(self, overrides, named):
        with pytest.raises(ConfigError, match=named):
            small_config(**overrides)

    @pytest.mark.parametrize("field, value", [
        ("n_clients", 2.5), ("n_clients", 3.0), ("rounds", 1.5), ("local_epochs", 1.5), ("batch_size", 8.0),
        ("clusters", 1.5), ("features", 2.5), ("hidden", 4.5), ("qubits", 4.0), ("layers", 1.5), ("classes", 2.0),
        ("per_class", 12.5), ("seed", 42.5), ("seed", "42"),
    ])
    def test_integer_fields_that_are_not_integers_rejected(self, field, value):
        # each once failed deep inside the run with a bare TypeError; seed 42.5 ran silently as seed 42
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, not {value!r}$"):
            small_config(**{field: value})

    def test_numpy_integers_are_integers(self):
        config = small_config(n_clients=np.int64(4), rounds=np.uint8(0), seed=np.int32(7))
        assert (config.n_clients, config.rounds, config.seed) == (4, 0, 7)

    @pytest.mark.parametrize("field", ["alpha", "local_lr", "server_lr", "lambda1", "lambda2", "prox_mu", "spread"])
    def test_nan_float_fields_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: math.nan})

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["local_lr", "server_lr", "lambda1", "lambda2", "prox_mu", "spread"])
    def test_infinite_float_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    def test_infinite_alpha_is_the_even_split_limit(self):
        assert small_config(alpha=math.inf).alpha == math.inf
        assert small_config(local_lr=1e308, server_lr=1e308, prox_mu=1e308, spread=1e308).spread == 1e308

    @pytest.mark.parametrize("keep", [(3, 3), (0, -1), (2, 0, 2)])
    def test_repeated_or_negative_kept_classes_rejected(self, keep):
        with pytest.raises(ConfigError, match="keep_classes"):
            small_config(keep_classes=keep, classes=len(keep), qubits=4)

    @pytest.mark.parametrize("keep", [(2.5, 1), (2.0, 1), (1, "0")])
    def test_kept_classes_that_are_not_integers_rejected(self, keep):
        # (2.5, 1) once validated, and load_idx kept class 2
        with pytest.raises(ConfigError, match="^keep_classes must be an integer"):
            small_config(keep_classes=keep, classes=len(keep), qubits=4)


class TestDerivedSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derived_seed(42, 4, 1, 3) == derived_seed(42, 4, 1, 3)
        assert derived_seed(42, 4, 1, 3) != derived_seed(42, 4, 3, 1)
        assert derived_seed(42, 4, 1, 3) != derived_seed(43, 4, 1, 3)

    @pytest.mark.parametrize("path,expected", [
        ((42, 4, 1, 3), 7503925549000681190),
        ((0, 0), 15793235383387715774),
        ((7, 5, 1), 12176184755866622661),
        ((2**32 + 5, 4, 2, 199), 17706198865546065587),
        ((2**64 + 3, 1), 18236630106159467435),
    ])
    def test_pinned_values(self, path, expected):
        assert derived_seed(*path) == expected

    @pytest.mark.parametrize("master", [0, 42, 2**32 - 1, 2**32, 2**63 + 11, 2**64 + 5, 3**50])
    def test_a_cohort_hashed_at_once_matches_seed_sequence(self, master):
        # masters from 2**32 on add entropy words, past the pool of four
        ids = np.array([0, 1, 2, 7, 199, 2**32 - 1])
        seeds = orch.derived_seeds(master, (4, 3), ids)
        assert seeds.dtype == np.uint64
        expected = [int(np.random.SeedSequence([master, 4, 3, i]).generate_state(1, np.uint64)[0]) for i in ids.tolist()]
        assert seeds.tolist() == expected == [derived_seed(master, 4, 3, i) for i in ids.tolist()]

    @pytest.mark.parametrize("master,path,ids", [
        (-1, (4,), [0]), (1, (-4,), [0]), (1, (4,), [-1]), (1, (4,), [2**32]), (1, (4,), [2**63]), (1, (), [2**63]),
        # once truncated or cast: 42.5 hashed as 42, "42" as 42, an id 1.5 as 1 and a nan id as some id
        (42.5, (), [3]), ("42", (), [3]), (42, (4, 1), [1.5]), (42, (4, 1), [math.nan]),
    ])
    def test_negative_paths_and_wide_ids_rejected(self, master, path, ids):
        with pytest.raises(ParameterError, match="non-negative"):
            orch.derived_seeds(master, path, ids)
        with pytest.raises(ParameterError, match="non-negative"):
            derived_seed(master, *path, *ids)

    def test_run_round_seeds_its_clients_with_one_hash(self, monkeypatch):
        config = small_config(n_clients=6)
        context = build_context(config)
        state = init_state(config, context)
        hashed = orch.derived_seeds
        calls = []

        def counted(*args):
            calls.append(args)
            return hashed(*args)

        def one_seed(*args):
            raise AssertionError("derived_seed called during a round")

        monkeypatch.setattr(orch, "derived_seeds", counted)
        monkeypatch.setattr(orch, "derived_seed", one_seed)
        run_round(state, config, context)
        assert [(master, path, ids.tolist()) for master, path, ids in calls] == [(config.seed, (4, 1), list(range(6)))]

    def test_build_context_seeds_data_split_and_partition_with_one_hash(self, monkeypatch):
        config = small_config(n_clients=6)
        expected = [derived_seed(config.seed, tag) for tag in (0, 1, 2)]
        hashed = orch.derived_seeds
        calls, seeds = [], []

        def counted(*args):
            calls.append(args)
            seeds.append(hashed(*args).tolist())
            return hashed(*args)

        def one_seed(*args):
            raise AssertionError("derived_seed called while building the context")

        monkeypatch.setattr(orch, "derived_seeds", counted)
        monkeypatch.setattr(orch, "derived_seed", one_seed)
        build_context(config)
        assert [(master, tuple(path), list(ids)) for master, path, ids in calls] == [(config.seed, (), [0, 1, 2])]
        assert seeds == [expected]


class TestRoundMetricsMean:
    def test_mean_train_loss_is_bit_equal_to_fmean(self):
        config = small_config(n_clients=4)
        context = build_context(config)
        state = init_state(config, context)
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 10, 200):
            for scale in (1e-3, 1.0, 1e6):
                losses = rng.exponential(scale, n)
                got = orch._round_metrics(state, config, context, 0.0, losses).mean_train_loss
                assert got.hex() == statistics.fmean(losses.tolist()).hex()

    def test_importing_fedsim_loads_no_statistics_fractions_or_decimal(self):
        code = "import sys, fedsim; print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"


class TestRunContext:
    def test_distributions_are_taken_once_per_client_in_id_order(self):
        config = small_config(n_clients=6)
        context = build_context(config)
        assert len(context.clients) == 6
        assert context.class_counts.shape == (6, config.classes) and context.class_counts.dtype == np.int64
        for client, row in zip(context.clients, context.class_counts):
            np.testing.assert_array_equal(row, class_counts([client], context.dataset)[0])
            assert row.sum() == len(client)
        np.testing.assert_array_equal(context.counts, [len(c) for c in context.clients])

    def test_init_state_holds_one_cluster_of_all_clients_without_np_unique(self, monkeypatch):
        # np.unique's first call in a process imports numpy.ma, which set-up should not pay for
        config = small_config(n_clients=5)
        context = build_context(config)

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", no_unique)
        state = init_state(config, context)
        assert state.assignment.n_clusters == 1
        np.testing.assert_array_equal(state.assignment.labels, np.zeros(5))

    @pytest.mark.parametrize("strategy", ["fedcompass", "fedavg"])
    def test_a_round_takes_no_class_distribution(self, monkeypatch, strategy):
        config = small_config(strategy=strategy, clusters=2, rounds=2)
        context = build_context(config)
        reference = run_experiment(config)

        def stub(*args, **kwargs):
            raise AssertionError("class_counts called during a round")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fedsim" and hasattr(module, "class_counts"):
                monkeypatch.setattr(module, "class_counts", stub)
        state = init_state(config, context)
        for expected in reference[1:]:
            state, row = run_round(state, config, context)
            assert (row.accuracy, row.loss, row.mean_train_loss) == (
                expected.accuracy, expected.loss, expected.mean_train_loss,
            )


def forbid_clustering(monkeypatch):
    def stub(*args, **kwargs):
        raise AssertionError("clustering recomputed")

    for name in ("similarity_matrix", "spectral_cluster", "laplacian_eigengaps"):
        monkeypatch.setattr(orch, name, stub)


def run_rounds(config, context):
    """The last state and every round's metrics of config.rounds rounds on context."""
    state, rows = init_state(config, context), []
    for _ in range(config.rounds):
        state, row = run_round(state, config, context)
        rows.append(row)
    return state, rows


class TestClusteringOncePerRun:
    def test_every_round_keeps_one_assignment_at_200_clients(self):
        # re-seeding k-means every round gave sizes (76, 34, 54, 36), then (75, 39, 44, 42), ...
        rows = run_experiment(ExperimentConfig(
            strategy="fedcompass", n_clients=200, alpha=1.0, rounds=5, local_epochs=1, batch_size=32,
            local_lr=0.03, server_lr=0.05, per_class=300, clusters=4, seed=42,
        ))
        assert {row.cluster_sizes for row in rows[1:]} == {rows[1].cluster_sizes}
        assert {row.eigengaps for row in rows[1:]} == {rows[1].eigengaps}

    @pytest.mark.parametrize("strategy", ["fedcompass", "fedcompass_no_circular"])
    def test_clustered_init_state_holds_round_one_clustering(self, strategy):
        config = small_config(strategy=strategy, n_clients=6, clusters=3, lambda1=0.5, lambda2=2.0)
        context = build_context(config)
        record = init_state(config, context).clustering
        counts = context.class_counts
        sim = similarity_matrix(counts / counts.sum(axis=1)[:, None], counts.sum(axis=1), 0.5, 2.0)
        expected = spectral_cluster(sim, 3, derived_seed(config.seed, 5, 1))
        np.testing.assert_array_equal(record.assignment.labels, expected.labels)
        values, gaps = laplacian_eigengaps(sim)
        np.testing.assert_array_equal(record.eigenvalues, values)
        assert record.eigengaps == tuple(gaps.tolist())

    def test_rounds_reuse_the_init_state_clustering(self, monkeypatch):
        config = small_config(strategy="fedcompass", clusters=2, rounds=3)
        context = build_context(config)
        state = init_state(config, context)
        record = state.clustering
        forbid_clustering(monkeypatch)
        rows = []
        for _ in range(config.rounds):
            state, row = run_round(state, config, context)
            rows.append(row)
        assert state.clustering is record
        assert state.assignment is record.assignment
        assert [row.eigengaps for row in rows] == [record.eigengaps] * 3

    def test_a_run_clusters_once(self, monkeypatch):
        config = small_config(strategy="fedcompass", clusters=2, rounds=3)
        calls = []

        def counted(*args):
            calls.append(args)
            return cluster_clients(*args)

        monkeypatch.setattr(orch, "cluster_clients", counted)
        rows = run_experiment(config)
        assert len(rows) == 4 and len(calls) == 1

    def test_a_clustered_round_without_a_clustering_is_a_parameter_error(self):
        # only init_state clusters; run_round once clustered a hand-built state itself
        config = small_config(strategy="fedcompass", clusters=2)
        context = build_context(config)
        state = dataclasses.replace(init_state(config, context), clustering=None)
        with pytest.raises(ParameterError, match="clustering"):
            run_round(state, config, context)

    def test_build_context_runs_no_clustering(self, monkeypatch):
        config = small_config(strategy="fedcompass", clusters=2)
        forbid_clustering(monkeypatch)
        build_context(config)

    def test_a_shared_unclustered_context_clusters_once_per_run(self, monkeypatch):
        avg = small_config(strategy="fedavg", n_clients=6, rounds=3)
        configs = [
            dataclasses.replace(avg, strategy=strategy, clusters=2).validate()
            for strategy in ("fedcompass", "fedcompass_no_circular")
        ]
        solos = [run_experiment(config) for config in configs]
        context = build_context(avg)
        real_spectral_cluster = orch.spectral_cluster
        calls = []

        def counted(*args):
            calls.append(args)
            return real_spectral_cluster(*args)

        monkeypatch.setattr(orch, "spectral_cluster", counted)
        for config, solo in zip(configs, solos):
            calls.clear()
            state = init_state(config, context)
            rows = [orch._round_metrics(state, config, context, 0.0)]
            for _ in range(config.rounds):
                state, row = run_round(state, config, context)
                rows.append(row)
            assert len(calls) == 1, config.strategy
            assert metrics_rows(rows) == metrics_rows(solo)

    @pytest.mark.parametrize("change", [dict(clusters=3), dict(lambda1=0.25), dict(lambda2=4.0)])
    def test_a_clustering_built_from_other_inputs_is_not_reused(self, change):
        built = small_config(strategy="fedcompass", clusters=2, rounds=2)
        config = dataclasses.replace(built, **change).validate()
        shared = build_context(built)
        built_clustering = init_state(built, shared).clustering
        state, rows = run_rounds(config, shared)
        expected_state, expected_rows = run_rounds(config, build_context(config))
        assert metrics_rows(rows) == metrics_rows(expected_rows)
        assert [r.eigengaps for r in rows] == [r.eigengaps for r in expected_rows]
        assert (rows[-1].cluster_sizes, rows[-1].eigengaps) != (
            tuple(built_clustering.assignment.cluster_sizes().tolist()), built_clustering.eigengaps,
        )
        np.testing.assert_array_equal(state.assignment.labels, expected_state.assignment.labels)
        np.testing.assert_array_equal(state.cluster_models, expected_state.cluster_models)
        np.testing.assert_array_equal(state.quantum, expected_state.quantum)

    def test_an_unclustered_context_clusters_a_clustered_config(self):
        # the shape of criterion 10: a fedavg context run with a clustered config
        avg = small_config(strategy="fedavg")
        config = dataclasses.replace(avg, strategy="fedcompass", clusters=2)
        context = build_context(avg)
        _, row = run_round(init_state(config, context), config, context)
        expected = cluster_clients(context.class_counts, config)
        assert row.eigengaps == expected.eigengaps
        assert row.cluster_sizes == tuple(expected.assignment.cluster_sizes().tolist())

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "fedcompass_no_clustering"])
    def test_unclustered_strategies_pay_no_clustering(self, monkeypatch, strategy):
        config = small_config(strategy=strategy, clusters=2)
        forbid_clustering(monkeypatch)
        context = build_context(config)
        state = init_state(config, context)
        assert state.clustering is None
        run_round(state, config, context)


class TestSingleClientRound:
    def test_aggregate_equals_trained_client(self):
        config = small_config(strategy="fedcompass", n_clients=1, clusters=1, rounds=1)
        context = build_context(config)
        state = init_state(config, context)
        new_state, _ = run_round(state, config, context)

        from fedsim.model import local_train

        params, _ = local_train(
            context.clients,
            context.dataset,
            broadcast(state)[None],
            layout_of(config, context),
            config.local_epochs,
            config.batch_size,
            config.local_lr,
            0.0,
            [derived_seed(config.seed, 4, 1, 0)],
        )
        layout = layout_of(config, context)
        np.testing.assert_array_equal(new_state.cluster_models, params[:, :layout.n_classical])
        # quantum passes through the server optimizer step on the aggregated angles
        phi_bar, _ = aggregate_quantum(layout.angles(params), context.counts, state.quantum)
        expected, _ = fedadam_update(state.quantum, phi_bar, state.opt_state, eta=config.server_lr)
        np.testing.assert_array_equal(new_state.quantum, expected)


class TestStrategyEquivalences:
    def test_fedcompass_m1_equals_no_clustering(self):
        a = run_experiment(small_config(strategy="fedcompass", clusters=1))
        b = run_experiment(small_config(strategy="fedcompass_no_clustering"))
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.loss == rb.loss
            assert ra.mean_train_loss == rb.mean_train_loss or (
                math.isnan(ra.mean_train_loss) and math.isnan(rb.mean_train_loss)
            )

    def test_fedprox_mu_zero_equals_fedavg(self):
        a = run_experiment(small_config(strategy="fedprox", prox_mu=0.0))
        b = run_experiment(small_config(strategy="fedavg"))
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.loss == rb.loss



def first_round(strategy, **overrides):
    """(round-0 state, round-1 state, round-1 metrics) of a two-cluster small config."""
    config = small_config(strategy=strategy, clusters=2, rounds=1, **overrides)
    context = build_context(config)
    state = init_state(config, context)
    return (state, *run_round(state, config, context))


class TestStrategyTable:
    @pytest.mark.parametrize("name", list(orch.STRATEGIES))
    def test_one_round_follows_the_switches(self, monkeypatch, name):
        switches = orch.STRATEGIES[name]
        prox_mus = []
        real_local_train = orch.local_train

        def spy(*args):
            prox_mus.append(args[7])
            return real_local_train(*args)

        monkeypatch.setattr(orch, "local_train", spy)
        state, new_state, row = first_round(name, prox_mu=0.25)
        assert prox_mus == [0.25 if switches.proximal else 0.0]
        assert (row.eigengaps is not None) == switches.clustered
        assert switches.clustered or new_state.assignment.n_clusters == 1
        assert new_state.opt_state.t == state.opt_state.t + int(switches.server_step)

    def test_no_circular_clusters_as_fedcompass(self):
        _, reference, reference_row = first_round("fedcompass")
        _, state, row = first_round("fedcompass_no_circular")
        assert len(row.cluster_sizes) == 2
        assert state.assignment.n_clusters == reference.assignment.n_clusters
        np.testing.assert_array_equal(state.assignment.labels, reference.assignment.labels)
        assert row.cluster_sizes == reference_row.cluster_sizes
        assert row.eigengaps == reference_row.eigengaps
        assert state.cluster_models.shape == reference.cluster_models.shape
        np.testing.assert_array_equal(state.cluster_models, reference.cluster_models)

    def test_no_clustering_steps_the_angles_as_fedcompass(self):
        _, reference, _ = first_round("fedcompass")
        _, state, _ = first_round("fedcompass_no_clustering")
        np.testing.assert_array_equal(state.quantum, reference.quantum)
        np.testing.assert_array_equal(state.opt_state.m, reference.opt_state.m)
        np.testing.assert_array_equal(state.opt_state.v, reference.opt_state.v)
        assert state.opt_state.t == reference.opt_state.t == 1

class TestFedavgAggregationOracle:
    def test_round_matches_hand_computed_average(self):
        config = small_config(rounds=1)
        context = build_context(config)
        state = init_state(config, context)

        from fedsim.model import local_train

        # one-client cohorts, one per client, independent of the round's cohort call
        rows = [
            local_train(
                [client],
                context.dataset,
                broadcast(state)[None],
                layout_of(config, context),
                config.local_epochs,
                config.batch_size,
                config.local_lr,
                0.0,
                [derived_seed(config.seed, 4, 1, client_id)],
            )[0][0]
            for client_id, client in enumerate(context.clients)
        ]
        counts = np.array([len(client) for client in context.clients], dtype=float)
        weights = counts / counts.sum()
        n_classical = state.cluster_models.shape[1]
        expected_classical = sum(w * row[:n_classical] for w, row in zip(weights, rows))
        expected_quantum = sum(w * row[n_classical:] for w, row in zip(weights, rows))

        new_state, _ = run_round(state, config, context)
        np.testing.assert_allclose(new_state.cluster_models[0], expected_classical, atol=1e-12)
        np.testing.assert_allclose(new_state.quantum.ravel(), expected_quantum, atol=1e-12)


class TestByteStability:
    # metrics_rows digests that later changes must reproduce byte for byte: the first two come from the
    # client-by-client trainer, the third from the row-by-row similarity matrix and one-restart-at-a-time k-means
    PINNED = {
        # clients of 1-4 samples at batch 3: one-sample stacks of three, and batches of 1, 2 and 3
        "53ab579c6b6410420f031232f505fbc587949d82a6e780d00fa5fea8e5f42fe1": dict(
            strategy="fedcompass", n_clients=16, alpha=1.0, rounds=2, local_epochs=2, batch_size=3,
            local_lr=0.05, server_lr=0.05, features=4, hidden=5, qubits=4, layers=2, classes=4,
            per_class=10, spread=0.2, clusters=3, seed=11,
        ),
        "4df9dce88d74a6d49353a8c91bde4a430fb1627956eadaabbb0933b5b0f2fd77": dict(
            strategy="fedprox", n_clients=5, alpha=0.5, rounds=2, local_epochs=2, batch_size=4,
            local_lr=0.05, prox_mu=0.1, features=4, hidden=6, qubits=3, layers=2, classes=3,
            per_class=16, spread=0.2, seed=3,
        ),
        # 200 clients in 4 clusters, as in the benchmark's wide workload: rounds 1 and 2 both cluster
        "5bf19e62a9b4f43e5ec2195344cad75713feca2e776e4ce2e04b6735611fa453": dict(
            strategy="fedcompass", n_clients=200, alpha=1.0, rounds=2, local_epochs=1, batch_size=32,
            local_lr=0.03, server_lr=0.05, per_class=300, clusters=4, seed=5,
        ),
    }

    @pytest.mark.parametrize("digest", sorted(PINNED))
    def test_metrics_rows_digest_is_pinned(self, digest):
        rows = metrics_rows(run_experiment(ExperimentConfig(**self.PINNED[digest])))
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest

    def test_paper_regime_round_at_200_clients(self):
        # alpha 0.3 at 200 clients needs the partition repair: the redraw loop alone always fails here
        config = ExperimentConfig(
            strategy="fedcompass", n_clients=200, alpha=0.3, rounds=1, local_epochs=1, batch_size=32,
            local_lr=0.03, server_lr=0.05, per_class=100, clusters=4, seed=42,
        ).validate()
        context = build_context(config)
        assert min(len(c) for c in context.clients) == 1
        _, row = run_experiment(config)
        assert sum(row.cluster_sizes) == 200
        values = [row.accuracy, row.loss, row.mean_train_loss, *row.per_cluster_accuracy, *row.eigengaps]
        assert all(math.isfinite(v) for v in values)


class TestRunExperiment:
    def test_rounds_zero_gives_baseline_row_only(self):
        metrics = run_experiment(small_config(rounds=0))
        assert len(metrics) == 1
        assert metrics[0].round_index == 0
        assert math.isnan(metrics[0].mean_train_loss)
        assert metrics[0].cluster_sizes == (4,)

    def test_row_count(self):
        metrics = run_experiment(small_config(rounds=2))
        assert [m.round_index for m in metrics] == [0, 1, 2]

    def test_bit_identical_reruns(self):
        a = run_experiment(small_config(strategy="fedcompass", clusters=2))
        b = run_experiment(small_config(strategy="fedcompass", clusters=2))
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.loss == rb.loss
            assert ra.cluster_sizes == rb.cluster_sizes
            assert ra.per_cluster_accuracy == rb.per_cluster_accuracy
            assert ra.eigengaps == rb.eigengaps

    def test_cluster_sizes_sum_to_clients(self):
        for metrics_row in run_experiment(small_config(strategy="fedcompass", clusters=2)):
            assert sum(metrics_row.cluster_sizes) == 4

    def test_fedcompass_reports_eigengaps_and_degeneracies(self):
        metrics = run_experiment(small_config(strategy="fedcompass", clusters=2, rounds=1))
        assert metrics[1].eigengaps is not None
        assert len(metrics[1].eigengaps) == 3
        assert metrics[1].degeneracies >= 0


class TestEvaluate:
    def test_weighted_two_cluster_aggregate(self, monkeypatch):
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        scores = {0: (0.5, 1.0), 1: (1.0, 0.5)}
        stub_scores(monkeypatch, lambda c: scores[int(c[0])])
        models = np.repeat(state.cluster_models, 2, axis=0)
        models[:, 0] = [0, 1]
        assignment = ClusterAssignment(np.array([0, 0, 0, 1]), 2)
        # shares: cluster 0 -> 100/200, cluster 1 -> 100/200  =>  0.5 * 0.5 + 0.5 * 1.0
        acc, loss, per_cluster = evaluate(
            models, state.quantum, assignment, np.array([25, 25, 50, 100]), context.dataset,
            context.test_indices, config.classes,
        )
        assert acc == pytest.approx(0.75, abs=1e-12)
        assert loss == pytest.approx(0.75, abs=1e-12)
        assert per_cluster == (0.5, 1.0)

    def test_several_models_are_not_summed_without_weights(self, monkeypatch):
        # two models scoring 0.0625 each must not report an aggregate of 0.125
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        stub_scores(monkeypatch, lambda c: (0.0625, 1.0))
        models = np.repeat(state.cluster_models, 2, axis=0)
        assignment = ClusterAssignment(np.array([0, 0, 1, 1]), 2)
        for labels, counts in ((None, None), (None, np.array([5, 5, 5, 5])), (assignment, None)):
            with pytest.raises(ParameterError):
                evaluate(
                    models, state.quantum, labels, counts,
                    context.dataset, context.test_indices, config.classes,
                )

    def test_every_cluster_needs_its_model(self, monkeypatch):
        # one model scoring 0.25 under a two-cluster assignment must not report 0.125
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        stub_scores(monkeypatch, lambda c: (0.25, 1.0))
        assignment = ClusterAssignment(np.array([0, 0, 1, 1]), 2)
        for models in (state.cluster_models, np.repeat(state.cluster_models, 3, axis=0)):
            for counts in (np.array([5, 5, 5, 5]), None):
                with pytest.raises(ParameterError):
                    evaluate(
                        models, state.quantum, assignment, counts,
                        context.dataset, context.test_indices, config.classes,
                    )

    def test_counts_must_match_the_assignment(self):
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        models = np.repeat(state.cluster_models, 2, axis=0)
        assignment = ClusterAssignment(np.array([0, 0, 1, 1]), 2)
        with pytest.raises(ParameterError):
            evaluate(
                models, state.quantum, assignment, np.array([5, 5, 5]),
                context.dataset, context.test_indices, config.classes,
            )

    def test_single_model_reduces_to_plain_score(self, monkeypatch):
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        stub_scores(monkeypatch, lambda c: (0.625, 0.9))
        acc, loss, per_cluster = evaluate(
            state.cluster_models, state.quantum, None, None,
            context.dataset, context.test_indices, config.classes,
        )
        assert acc == 0.625
        assert per_cluster == (0.625,)

    def test_perfect_stub_classifier_scores_one(self, monkeypatch):
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        stub_scores(monkeypatch, lambda c: (1.0, 0.0))
        acc, _, _ = evaluate(
            state.cluster_models, state.quantum, None, None,
            context.dataset, context.test_indices, config.classes,
        )
        assert acc == 1.0

    def test_real_scores_live_in_unit_interval(self):
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        acc, loss, _ = evaluate(
            state.cluster_models, state.quantum, None, None,
            context.dataset, context.test_indices, config.classes,
        )
        assert 0.0 <= acc <= 1.0
        assert loss > 0.0

    @pytest.mark.parametrize("qubits,layers,classes", [(2, 1, 2), (4, 2, 4), (5, 3, 3)])
    def test_stacked_pass_matches_per_model_loop_byte_for_byte(self, qubits, layers, classes):
        config = small_config(qubits=qubits, layers=layers, classes=classes, n_clients=6)
        context = build_context(config)
        layout = layout_of(config, context)
        rng = np.random.default_rng(qubits)
        for m in range(1, 5):
            models = np.stack([init_params(layout, seed)[:layout.n_classical] for seed in range(m)])
            models += rng.normal(0.0, 0.3, models.shape)
            quantum = rng.uniform(-math.pi, math.pi, (layers, qubits))
            labels = np.arange(6) % m
            counts = rng.integers(1, 50, 6)
            shares = AggregationWeights.from_counts(np.bincount(labels, weights=counts, minlength=m)).weights.tolist()
            for rows in (1, 2, len(context.test_indices)):
                test = context.test_indices[:rows]
                xs, ys = context.dataset.features[test], context.dataset.labels[test]
                stacked = evaluate(
                    models, quantum, ClusterAssignment(labels, m), counts, context.dataset, test, classes,
                )
                reference = reference_evaluate(models, quantum, shares, xs, ys, classes)
                assert np.array(stacked[:2]).tobytes() == np.array(reference[:2]).tobytes(), (m, rows)
                assert np.array(stacked[2]).tobytes() == np.array(reference[2]).tobytes(), (m, rows)

    def test_empty_test_set_rejected(self):
        config = small_config()
        context = build_context(config)
        state = init_state(config, context)
        with pytest.raises(ParameterError):
            evaluate(
                state.cluster_models, state.quantum, None, None,
                context.dataset, np.array([], dtype=np.int64), config.classes,
            )


class TestAbortAtomicity:
    def test_failed_round_leaves_state_untouched(self, monkeypatch):
        config = small_config(rounds=1)
        context = build_context(config)
        state = init_state(config, context)
        classical_before = state.cluster_models[0].copy()
        quantum_before = state.quantum.copy()
        t_before = state.opt_state.t

        def explode(*args, **kwargs):
            raise RuntimeError("client crashed")

        monkeypatch.setattr(orch, "local_train", explode)
        with pytest.raises(RuntimeError):
            run_round(state, config, context)
        np.testing.assert_array_equal(state.cluster_models[0], classical_before)
        np.testing.assert_array_equal(state.quantum, quantum_before)
        assert state.opt_state.t == t_before


class TestServerStateShapes:
    def test_cluster_models_are_classical_vectors_and_angles_are_layers_by_qubits(self):
        config = small_config(rounds=1, layers=2)
        context = build_context(config)
        layout = layout_of(config, context)
        state = init_state(config, context)
        assert state.cluster_models.shape == (1, layout.n_classical)
        assert state.quantum.shape == (2, 4)
        new_state, _ = run_round(state, config, context)
        assert new_state.cluster_models.shape == (1, layout.n_classical)
        assert new_state.quantum.shape == (2, 4)


class TestDivergence:
    def test_non_finite_training_names_round_and_client(self):
        config = small_config(rounds=1, local_lr=1e308)
        context = build_context(config)
        state = init_state(config, context)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"round 1, client \d+"):
            run_round(state, config, context)
