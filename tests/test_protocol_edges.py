"""The protocol's edges, end to end through `fedsim run`.

Small configs are drawn over every strategy, with tiny and huge alpha,
size-1 clusters, too-small data, divergent local steps and global angles
at or next to +-pi. Every run either succeeds with finite metrics, wrapped
angles and complete cluster sizes, reproducing its metrics rows byte for
byte on a rerun, or fails with the exit code that names its cause. Two
edges that random draws reach only by chance get strategies of their own:
a degenerate Laplacian spectrum and a collapsed circular resultant.
"""

import itertools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fedsim.cli as cli
import fedsim.orchestrator as orch
from fedsim.aggregation import wrap_angles
from fedsim.errors import ConfigError, PartitionError

# global angles at and next to both ends of (-pi, pi]
EDGE_ANGLES = [math.pi, -math.pi + 1e-12, math.pi - 1e-12, np.nextafter(-math.pi, 0.0)]
DIVERGENT_LR = 1e308


@st.composite
def edge_runs(draw):
    n_clients = draw(st.integers(1, 6))
    fields = dict(
        strategy=draw(st.sampled_from(list(orch.STRATEGIES))),
        n_clients=n_clients,
        alpha=draw(st.sampled_from([1e-6, 0.05, 1.0, 1e6])),
        rounds=draw(st.integers(0, 2)),
        local_epochs=1,
        batch_size=draw(st.integers(1, 6)),
        local_lr=draw(st.sampled_from([0.05, 0.5, DIVERGENT_LR])),
        server_lr=draw(st.sampled_from([0.05, 3.0])),
        clusters=draw(st.integers(1, n_clients)),  # clusters == n_clients forces size-1 clusters
        prox_mu=0.1,
        features=3,
        hidden=2,
        qubits=2,
        layers=1,
        classes=2,
        # below 3 the test split is empty (a config error); at 3, 4 train samples cannot feed 5 clients
        per_class=draw(st.sampled_from([3, 10, 1, 2, 4])),
        spread=0.3,
        seed=draw(st.integers(0, 1000)),
    )
    return orch.ExperimentConfig(**fields), draw(st.booleans())


@st.composite
def even_split_runs(draw, n_clients, strategies):
    """Configs whose clients all hold the same class counts, hence equal distributions and weights.

    Alpha 1e308 overflows every class's gamma sum, so the partition splits
    each class evenly (its alpha -> inf limit), and per_class leaves each
    class a test share of at least one sample and a train share of
    per_client * n_clients samples.
    """
    per_client = draw(st.integers(1, 2))
    per_class = next(
        p for p in itertools.count(1)
        if round(orch.TEST_FRACTION * p) >= 1 and p - round(orch.TEST_FRACTION * p) == per_client * n_clients
    )
    fields = dict(
        strategy=draw(st.sampled_from(strategies)),
        n_clients=n_clients,
        alpha=1e308,
        rounds=draw(st.integers(1, 2)),
        local_epochs=1,
        batch_size=draw(st.integers(1, 4)),
        local_lr=draw(st.sampled_from([0.05, 0.5])),
        server_lr=draw(st.sampled_from([0.05, 3.0])),
        clusters=draw(st.integers(1, n_clients)),
        prox_mu=0.1,
        features=3,
        hidden=2,
        qubits=2,
        layers=1,
        classes=2,
        per_class=per_class,
        spread=0.3,
        seed=draw(st.integers(0, 1000)),
    )
    return orch.ExperimentConfig(**fields), draw(st.booleans())


def run_cli(config, edge_angles, antipodal=False):
    """Exit code, stderr, metrics and every server state of one `fedsim run`.

    With antipodal set, client 1 uploads the angles of client 0 turned by
    pi.
    """
    states, runs = [], []
    real_init_state, real_run_round, real_run_experiment = orch.init_state, orch.run_round, cli.run_experiment
    real_local_train = orch.local_train

    def init_state(config, context):
        state = real_init_state(config, context)
        if edge_angles:
            state.quantum = np.resize(EDGE_ANGLES, state.quantum.shape)
        states.append(state)
        return state

    def run_round(state, config, context):
        next_state, row = real_run_round(state, config, context)
        states.append(next_state)
        return next_state, row

    def run_experiment(config):
        runs.append(real_run_experiment(config))
        return runs[-1]

    def local_train(clients, dataset, init, layout, *args):
        uploads, losses = real_local_train(clients, dataset, init, layout, *args)
        if antipodal:
            angles = layout.angles(uploads)
            angles[1] = wrap_angles(angles[0] + math.pi)
        return uploads, losses

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(orch, "init_state", init_state), \
            mock.patch.object(orch, "run_round", run_round), \
            mock.patch.object(orch, "local_train", local_train), \
            mock.patch.object(cli, "run_experiment", run_experiment), \
            mock.patch("sys.stderr") as stderr, \
            mock.patch("sys.stdout"), \
            np.errstate(all="ignore"):
        config_path = Path(out) / "edge.cfg"
        config_path.write_text(cli.serialize_config(config))
        code = cli.main(["run", "--config", str(config_path), "--out", out])
        err = "".join(call.args[0] for call in stderr.write.call_args_list)
    return code, err, (runs[0] if runs else None), states


def expected_codes(config):
    try:
        config.validate()
    except ConfigError:
        return {cli.EXIT_CONFIG}
    try:
        orch.build_context(config)
    except PartitionError:
        return {cli.EXIT_DATA}
    if config.local_lr == DIVERGENT_LR and config.rounds > 0:
        return {cli.EXIT_OK, cli.EXIT_NUMERIC}
    return {cli.EXIT_OK}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(edge_runs())
def test_edge_configs_run_clean_or_fail_with_their_cause(drawn):
    config, edge_angles = drawn
    code, err, metrics, states = run_cli(config, edge_angles)
    event(f"exit {code}")
    assert code in expected_codes(config), err
    if code != cli.EXIT_OK:
        prefix = {cli.EXIT_CONFIG: "config error", cli.EXIT_DATA: "data error", cli.EXIT_NUMERIC: "numeric error"}
        assert err.startswith(prefix[code]), err
        if code == cli.EXIT_NUMERIC:
            assert "round" in err and "client" in err
        return
    assert_clean_run(config, edge_angles, metrics, states)


def assert_clean_run(config, edge_angles, metrics, states, antipodal=False):
    """Finite metrics, complete clusters and wrapped angles, reproduced byte for byte on a rerun."""
    assert [m.round_index for m in metrics] == list(range(config.rounds + 1))
    for m in metrics:
        values = [m.accuracy, m.loss, *m.per_cluster_accuracy, *(m.eigengaps or ())]
        if m.round_index > 0:
            values.append(m.mean_train_loss)
        assert all(math.isfinite(v) for v in values), m
        assert 0.0 <= m.accuracy <= 1.0
        assert sum(m.cluster_sizes) == config.n_clients
        assert min(m.cluster_sizes) >= 1
    assert len(states) == config.rounds + 1
    for state in states:
        assert np.all(state.quantum > -math.pi) and np.all(state.quantum <= math.pi)
        assert np.all(np.isfinite(state.cluster_models))

    rerun_code, _, rerun, _ = run_cli(config, edge_angles, antipodal)
    assert rerun_code == cli.EXIT_OK
    assert cli.metrics_rows(rerun) == cli.metrics_rows(metrics)


CLUSTERED = [name for name, switches in orch.STRATEGIES.items() if switches.clustered]


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.integers(3, 5).flatmap(lambda n: even_split_runs(n, CLUSTERED)))
def test_degenerate_laplacian_spectrum_clusters_clean(drawn):
    # equal distributions and counts make every similarity 1: the normalized Laplacian
    # I - J/n has eigenvalue 0 once and 1 repeated n - 1 times, so all gaps after the first are 0
    config, edge_angles = drawn
    context = orch.build_context(config.validate())
    assert len({tuple(row) for row in context.class_counts}) == 1
    code, err, metrics, states = run_cli(config, edge_angles)
    assert code == cli.EXIT_OK, err
    for m in metrics[1:]:
        assert m.eigengaps[0] > 1.0 - 1e-9
        assert max(abs(g) for g in m.eigengaps[1:]) < 1e-9
    assert_clean_run(config, edge_angles, metrics, states)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(even_split_runs(2, list(orch.STRATEGIES)))
def test_collapsed_circular_resultant_keeps_the_global_angles(drawn):
    # two equal-weight clients upload antipodal angles, so every dimension's resultant collapses
    config, edge_angles = drawn
    code, err, metrics, states = run_cli(config, edge_angles, antipodal=True)
    assert code == cli.EXIT_OK, err
    if orch.STRATEGIES[config.strategy].circular:
        n_angles = config.qubits * config.layers
        assert [m.degeneracies for m in metrics[1:]] == [n_angles] * config.rounds
        # the degenerate aggregate keeps the previous angles, so the server step's gap is 0
        for state in states[1:]:
            np.testing.assert_array_equal(state.quantum, states[0].quantum)
    assert_clean_run(config, edge_angles, metrics, states, antipodal=True)
