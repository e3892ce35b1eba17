"""The protocol's edges, end to end through `fedsim run`.

Small configs are drawn over every strategy, with tiny and huge alpha,
size-1 clusters, too-small data, divergent local steps and global angles
at or next to +-pi. Every run either succeeds with finite metrics, wrapped
angles and complete cluster sizes, reproducing its metrics rows byte for
byte on a rerun, or fails with the exit code that names its cause.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fedsim.cli as cli
import fedsim.orchestrator as orch
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


def run_cli(config, edge_angles):
    """Exit code, stderr, metrics and every server state of one `fedsim run`."""
    states, runs = [], []
    real_init_state, real_run_round, real_run_experiment = orch.init_state, orch.run_round, cli.run_experiment

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

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(orch, "init_state", init_state), \
            mock.patch.object(orch, "run_round", run_round), \
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
        assert all(np.all(np.isfinite(model)) for model in state.cluster_models.values())

    rerun_code, _, rerun, _ = run_cli(config, edge_angles)
    assert rerun_code == cli.EXIT_OK
    assert cli.metrics_rows(rerun) == cli.metrics_rows(metrics)
