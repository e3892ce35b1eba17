import dataclasses
import hashlib
import math
import sys

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

    @pytest.mark.parametrize("field", ["alpha", "local_lr", "server_lr", "lambda1", "lambda2", "prox_mu", "spread"])
    def test_nan_float_fields_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: math.nan})


class TestDerivedSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derived_seed(42, 4, 1, 3) == derived_seed(42, 4, 1, 3)
        assert derived_seed(42, 4, 1, 3) != derived_seed(42, 4, 3, 1)
        assert derived_seed(42, 4, 1, 3) != derived_seed(43, 4, 1, 3)


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
    def test_clustered_context_holds_round_one_clustering(self, strategy):
        config = small_config(strategy=strategy, n_clients=6, clusters=3, lambda1=0.5, lambda2=2.0)
        context = build_context(config)
        record = context.clustering
        assert (record.lambda1, record.lambda2, record.clusters, record.seed) == (0.5, 2.0, 3, config.seed)
        assert record.built_from(config)
        counts = context.class_counts
        sim = similarity_matrix(counts / counts.sum(axis=1)[:, None], counts.sum(axis=1), 0.5, 2.0)
        expected = spectral_cluster(sim, 3, derived_seed(config.seed, 5, 1))
        np.testing.assert_array_equal(record.assignment.labels, expected.labels)
        values, gaps = laplacian_eigengaps(sim)
        np.testing.assert_array_equal(record.eigenvalues, values)
        assert record.eigengaps == tuple(gaps.tolist())

    def test_rounds_reuse_the_context_clustering(self, monkeypatch):
        config = small_config(strategy="fedcompass", clusters=2, rounds=3)
        context = build_context(config)
        forbid_clustering(monkeypatch)
        state, rows = run_rounds(config, context)
        assert state.assignment is context.clustering.assignment
        assert [row.eigengaps for row in rows] == [context.clustering.eigengaps] * 3

    @pytest.mark.parametrize("change", [dict(clusters=3), dict(lambda1=0.25), dict(lambda2=4.0)])
    def test_a_clustering_built_from_other_inputs_is_not_reused(self, change):
        built = small_config(strategy="fedcompass", clusters=2, rounds=2)
        config = dataclasses.replace(built, **change).validate()
        shared = build_context(built)
        assert not shared.clustering.built_from(config)
        state, rows = run_rounds(config, shared)
        expected_state, expected_rows = run_rounds(config, build_context(config))
        assert metrics_rows(rows) == metrics_rows(expected_rows)
        assert [r.eigengaps for r in rows] == [r.eigengaps for r in expected_rows]
        assert (rows[-1].cluster_sizes, rows[-1].eigengaps) != (
            tuple(shared.clustering.assignment.cluster_sizes().tolist()), shared.clustering.eigengaps,
        )
        np.testing.assert_array_equal(state.assignment.labels, expected_state.assignment.labels)
        np.testing.assert_array_equal(state.cluster_models, expected_state.cluster_models)
        np.testing.assert_array_equal(state.quantum, expected_state.quantum)

    def test_an_unclustered_context_clusters_a_clustered_config(self):
        # the shape of criterion 10: a fedavg context run with a clustered config
        avg = small_config(strategy="fedavg")
        config = dataclasses.replace(avg, strategy="fedcompass", clusters=2)
        context = build_context(avg)
        assert context.clustering is None
        _, row = run_round(init_state(config, context), config, context)
        expected = cluster_clients(context.class_counts, config)
        assert row.eigengaps == expected.eigengaps
        assert row.cluster_sizes == tuple(expected.assignment.cluster_sizes().tolist())

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "fedcompass_no_clustering"])
    def test_unclustered_strategies_pay_no_clustering(self, monkeypatch, strategy):
        config = small_config(strategy=strategy, clusters=2)
        forbid_clustering(monkeypatch)
        context = build_context(config)
        assert context.clustering is None
        run_round(init_state(config, context), config, context)


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
