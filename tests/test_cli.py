import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.cli as cli
from fedsim import clustering
from fedsim.cli import (
    CSV_HEADER,
    main,
    metrics_rows,
    parse_config,
    run_compare,
    serialize_config,
    write_metrics,
)
from fedsim.clustering import laplacian_eigengaps
from fedsim.errors import ConfigError, FedsimError, NumericError
from fedsim.orchestrator import (
    STRATEGIES,
    ExperimentConfig,
    RoundMetrics,
    Strategy,
    build_context,
    client_similarity,
    init_state,
)

from conftest import write_idx_pair

FAST_FLAGS = [
    "--clients", "3", "--rounds", "1", "--epochs", "1", "--batch", "8",
    "--lr", "0.05", "--classes", "4", "--seed", "3",
]
FAST_FILE = """
n_clients = 3
rounds = 1
local_epochs = 1
batch_size = 8
local_lr = 0.05
per_class = 12
features = 4
hidden = 4
seed = 3
"""


def fast_overrides(**extra):
    base = dict(n_clients=3, rounds=1, local_epochs=1, batch_size=8,
                local_lr=0.05, per_class=12, features=4, hidden=4, seed=3)
    base.update(extra)
    return base


def make_metrics(rounds=2):
    rows = [
        RoundMetrics(0, "fedavg", 3, 0.3, 0.25, 1.386, math.nan, (0.25,), (3,), None, 0, 12.5)
    ]
    for r in range(1, rounds + 1):
        rows.append(
            RoundMetrics(r, "fedavg", 3, 0.3, 0.25 + 0.1 * r, 1.3 - 0.1 * r, 1.2, (0.3,), (3,), None, 0, 99.0)
        )
    return rows


class TestParseConfig:
    def test_documented_defaults(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        config = parse_config(empty, {})
        assert config.n_clients == 10
        assert config.alpha == 0.3
        assert config.rounds == 5
        assert config.local_epochs == 5
        assert config.batch_size == 32
        assert config.local_lr == 0.001

    def test_flag_beats_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alpha = 0.3\n")
        assert parse_config(path, {"alpha": "0.7"}).alpha == 0.7

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("alfa = 0.3\n")
        with pytest.raises(ConfigError, match="alfa"):
            parse_config(path, {})

    def test_type_mismatch_named_in_error(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(None, {"rounds": "many"})

    @pytest.mark.parametrize("raw", ["1,x", "0.5,1", "3;4"])
    def test_non_integer_keep_classes_named_in_error(self, raw):
        with pytest.raises(ConfigError, match=f"key 'keep_classes' expects a comma-separated list of integers, got '{raw}'"):
            parse_config(None, {"keep_classes": raw})

    def test_values_coerced_to_field_types(self):
        config = parse_config(None, {"per_class": "7", "spread": "0.5", "idx_images": "a.idx"})
        assert config.per_class == 7 and isinstance(config.per_class, int)
        assert config.spread == 0.5 and isinstance(config.spread, float)
        assert config.idx_images == "a.idx"

    def test_float_mismatch_named_in_error(self):
        with pytest.raises(ConfigError, match="'spread' expects a number"):
            parse_config(None, {"spread": "wide"})

    def test_invalid_combination(self):
        with pytest.raises(ConfigError, match="classes"):
            parse_config(None, {"classes": "5", "qubits": "4"})

    def test_keep_classes_drives_class_count(self):
        config = parse_config(None, {"keep_classes": "3,1,7,4", "dataset": "idx",
                                     "idx_images": "x", "idx_labels": "y"})
        assert config.keep_classes == (3, 1, 7, 4)
        assert config.classes == 4

    def test_flagged_class_count_must_match_the_files_labels(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("dataset = idx\nidx_images = x\nidx_labels = y\nkeep_classes = 1,2,3\n")
        with pytest.raises(ConfigError, match=r"classes \(4\).*\(3\)"):
            parse_config(path, {"classes": "4"})
        assert parse_config(path, {"classes": "3"}).classes == 3
        # a comma list sets the count from its own labels, over the file's
        path.write_text("dataset = idx\nidx_images = x\nidx_labels = y\nclasses = 3\n")
        assert parse_config(path, {"keep_classes": "1,2"}).classes == 2

    def test_repeated_key_is_named_with_both_lines(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed = 1\n# again\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"a\.cfg:3: key 'seed' is already set on line 1"):
            parse_config(path, {})

    def test_round_trip_identity(self, tmp_path):
        config = parse_config(None, fast_overrides(alpha=0.45, strategy="fedprox", prox_mu=0.02))
        path = tmp_path / "round.cfg"
        path.write_text(serialize_config(config))
        assert parse_config(path, {}) == config

    def test_line_without_equals_sign_is_named_with_its_line_number(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed = 1\nalpha 0.3\n")
        with pytest.raises(ConfigError, match=r"a\.cfg:2: expected 'key = value', got 'alpha 0\.3'"):
            parse_config(path, {})

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# heterogeneity\n\nalpha = 0.9\n")
        assert parse_config(path, {}).alpha == 0.9


class TestWriteMetrics:
    def test_header_and_row_count(self, tmp_path):
        config = ExperimentConfig(**fast_overrides())
        path = write_metrics(make_metrics(rounds=5), tmp_path / "m.csv", config)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 6  # header + rounds 0..5

    def test_six_decimal_floats(self, tmp_path):
        config = ExperimentConfig(**fast_overrides())
        path = write_metrics(make_metrics(1), tmp_path / "m.csv", config)
        row = path.read_text().splitlines()[2].split(",")
        assert row[4] == "0.350000"
        assert row[3] == "0.300000"

    def test_round_trip_by_independent_reader(self, tmp_path):
        import csv

        config = ExperimentConfig(**fast_overrides())
        metrics = make_metrics(2)
        path = write_metrics(metrics, tmp_path / "m.csv", config)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(metrics)
        for row, m in zip(rows, metrics):
            assert int(row["round"]) == m.round_index
            assert row["strategy"] == m.strategy
            assert float(row["alpha"]) == pytest.approx(m.alpha, abs=1e-6)
            assert float(row["accuracy"]) == pytest.approx(m.accuracy, abs=1e-6)
            assert float(row["loss"]) == pytest.approx(m.loss, abs=1e-6)
            if math.isnan(m.mean_train_loss):
                assert math.isnan(float(row["mean_train_loss"]))
            else:
                assert float(row["mean_train_loss"]) == pytest.approx(m.mean_train_loss, abs=1e-6)
            assert row["cluster_sizes"] == "|".join(str(s) for s in m.cluster_sizes)

    def test_manifest_written_next_to_csv(self, tmp_path):
        config = ExperimentConfig(**fast_overrides())
        path = write_metrics(make_metrics(1), tmp_path / "m.csv", config)
        manifest_path = path.with_suffix(".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["artifact_version"]
        assert manifest["config"]["n_clients"] == 3
        assert manifest["outputs"]["metrics_csv"].endswith("m.csv")

    def test_infinite_alpha_manifest_is_strict_json_that_parse_config_reads_back(self, tmp_path):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        config = ExperimentConfig(**fast_overrides(alpha=math.inf, keep_classes=(2, 0, 1, 3)))
        path = write_metrics(make_metrics(1), tmp_path / "m.csv", config)
        manifest = json.loads(path.with_suffix(".manifest.json").read_text(), parse_constant=reject)
        assert manifest["config"]["alpha"] == "inf"
        assert manifest["config"]["keep_classes"] == [2, 0, 1, 3]
        assert parse_config(None, {"alpha": manifest["config"]["alpha"]}).alpha == math.inf

    @settings(max_examples=30, deadline=None)
    @given(
        accuracy=st.floats(min_value=0.0, max_value=1.0),
        rounds=st.integers(min_value=0, max_value=6),
    )
    def test_schema_stable_for_any_metrics(self, accuracy, rounds):
        metrics = [
            RoundMetrics(r, "fedcompass", 1, 0.3, accuracy, 1.0, 0.5, (accuracy,), (2, 1), (0.1, 0.2), 1, 5.0)
            for r in range(rounds + 1)
        ]
        rows = metrics_rows(metrics)
        assert all(len(row.split(",")) == len(CSV_HEADER.split(",")) for row in rows)


class TestRunCommand:
    def test_run_writes_csv_and_returns_zero(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path)] + FAST_FLAGS + ["--hidden", "4"])
        assert code == 0
        csvs = list(tmp_path.glob("*.csv"))
        assert len(csvs) == 1
        lines = csvs[0].read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # round 0 and round 1
        assert "wrote" in capsys.readouterr().out

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSIM_OUT_DIR", str(tmp_path / "envout"))
        code = main(["run"] + FAST_FLAGS + ["--hidden", "4"])
        assert code == 0
        assert list((tmp_path / "envout").glob("*.csv"))

    def test_config_file_plus_flags(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST_FILE)
        code = main(["run", "--config", str(cfg), "--alpha", "0.9", "--out", str(tmp_path)])
        assert code == 0


class TestCompareCommand:
    def test_single_strategy_table(self, tmp_path):
        config = parse_config(None, fast_overrides())
        table, ablations = run_compare(["fedavg"], [0.3], config, tmp_path)
        assert table[0] == ["strategy", "alpha_0.3"]
        assert table[1][0] == "fedavg"
        metrics_csv = tmp_path / "metrics_fedavg_alpha0.3_seed3.csv"
        final_accuracy = float(metrics_csv.read_text().splitlines()[-1].split(",")[4])
        assert float(table[1][1]) == pytest.approx(final_accuracy, abs=1e-6)
        assert ablations == {}

    def test_fedprox_mu_zero_column_matches_fedavg(self, tmp_path):
        config = parse_config(None, fast_overrides(prox_mu=0.0))
        table, _ = run_compare(["fedavg", "fedprox"], [0.3], config, tmp_path)
        assert table[1][1:] == table[2][1:]

    def test_ablation_table_structure(self, tmp_path):
        config = parse_config(None, fast_overrides())
        strategies = ["fedcompass", "fedcompass_no_clustering", "fedcompass_no_circular"]
        table, ablations = run_compare(strategies, [0.3], config, tmp_path)
        rows = ablations[0.3]
        assert rows[0] == ["round"] + strategies
        assert len(rows) == 1 + 2  # header + rounds 0..1
        assert all(len(r) == 4 for r in rows)

    def test_ablation_family_follows_the_strategy_table(self, tmp_path):
        config = parse_config(None, fast_overrides())
        _, ablations = run_compare(list(STRATEGIES), [0.3], config, tmp_path)
        assert ablations[0.3][0] == ["round", "fedcompass", "fedcompass_no_clustering", "fedcompass_no_circular"]
        _, ablations = run_compare(["fedavg", "fedprox", "fedcompass"], [0.3], config, tmp_path)
        assert ablations == {}

    def test_added_strategy_is_placed_by_its_switches(self, tmp_path, monkeypatch):
        # the ablation tables go by server_step, clustered and circular, not by name
        monkeypatch.setitem(STRATEGIES, "compass_prox", Strategy(
            clustered=True, circular=False, server_step=True, proximal=True))
        monkeypatch.setitem(STRATEGIES, "fedcompass_plain", Strategy(
            clustered=False, circular=False, server_step=False, proximal=False))
        config = parse_config(None, fast_overrides())
        _, ablations = run_compare(["fedavg", "fedcompass", "compass_prox"], [0.3], config, tmp_path)
        rows = ablations[0.3]
        assert rows[0] == ["round", "fedcompass", "compass_prox"]
        assert len(rows) == 1 + 2 and all(len(r) == 3 for r in rows)
        _, ablations = run_compare(["fedcompass_no_clustering", "fedcompass_plain"], [0.3], config, tmp_path)
        assert ablations[0.3][0] == ["round", "fedcompass_no_clustering"]
        _, ablations = run_compare(["fedcompass", "fedcompass_plain"], [0.3], config, tmp_path)
        assert ablations == {}

    def test_compare_command_end_to_end(self, tmp_path, capsys):
        code = main([
            "compare", "--strategy", "fedavg,fedprox", "--alpha", "0.3,0.7",
            "--out", str(tmp_path), "--clients", "3", "--rounds", "1",
            "--epochs", "1", "--batch", "8", "--seed", "3",
        ])
        assert code == 0
        assert (tmp_path / "comparison.csv").exists()
        table = (tmp_path / "comparison.csv").read_text().splitlines()
        assert table[0] == "strategy,alpha_0.3,alpha_0.7"
        assert len(table) == 3

    def test_compare_command_writes_and_prints_each_ablation_table(self, tmp_path, capsys):
        strategies = ["fedcompass", "fedcompass_no_clustering"]
        config = parse_config(None, dict(n_clients=3, rounds=1, local_epochs=1, batch_size=8, local_lr=0.05,
                                         classes=4, seed=3))
        _, ablations = run_compare(strategies, [0.3, 1.0], config, tmp_path / "library")
        capsys.readouterr()
        out = tmp_path / "cli"
        assert main(["compare", "--strategy", ",".join(strategies), "--alpha", "0.3,1", "--out", str(out)]
                    + FAST_FLAGS) == 0
        printed = capsys.readouterr().out
        for alpha, name in ((0.3, "0.3"), (1.0, "1")):
            rows = ablations[alpha]
            assert rows[0] == ["round"] + strategies and len(rows) == 1 + 2
            assert (out / f"ablation_alpha{name}.csv").read_text() == "".join(",".join(row) + "\n" for row in rows)
            block = printed.split(f"\nper-round accuracy, alpha={name}:\n")[1].split("\n\n")[0]
            assert [line.split() for line in block.splitlines()] == rows

    @pytest.mark.parametrize("flags, named", [
        (["--strategy", "fedavg", "--alpha", "0.3,-1"], "alpha must be > 0"),
        (["--strategy", "fedavg,bogus"], "unknown strategy 'bogus'"),
    ])
    def test_every_config_checked_before_the_first_run(self, tmp_path, capsys, flags, named):
        code = main(["compare", "--out", str(tmp_path)] + flags + FAST_FLAGS)
        assert code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, named", [
        (["--strategy", "fedavg", "--alpha", ","], "no alpha given"),
        (["--strategy", ","], "no strategy given"),
        (["--strategy", "fedavg,fedavg"], "strategy list 'fedavg,fedavg' repeats a value"),
        (["--strategy", "fedavg", "--alpha", "0.3,0.3"], "repeats a value"),
        (["--strategy", "fedavg", "--alpha", "0.3,0.30"], "repeats a value"),
        (["--strategy", "fedavg", "--alpha", "0.3,0.3000001"], "print as ['0.3', '0.3']"),
    ])
    def test_empty_or_repeated_lists_are_config_errors(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        assert main(["compare", "--out", str(out)] + flags + FAST_FLAGS) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_flagged_alphas_win_over_the_file(self, tmp_path):
        cfg = tmp_path / "compare.cfg"
        cfg.write_text("alpha = 0\n")
        code = main(["compare", "--config", str(cfg), "--strategy", "fedavg", "--alpha", "0.7,0.9",
                     "--out", str(tmp_path)] + FAST_FLAGS)
        assert code == 0
        assert (tmp_path / "comparison.csv").read_text().splitlines()[0] == "strategy,alpha_0.7,alpha_0.9"

    def test_the_file_strategy_is_run_unless_flagged(self, tmp_path):
        cfg = tmp_path / "compare.cfg"
        cfg.write_text("strategy = fedprox\n")
        file_only, flagged = tmp_path / "file_only", tmp_path / "flagged"
        assert main(["compare", "--config", str(cfg), "--out", str(file_only)] + FAST_FLAGS) == 0
        assert [row.split(",")[0] for row in (file_only / "comparison.csv").read_text().splitlines()] == [
            "strategy", "fedprox",
        ]
        assert main(["compare", "--config", str(cfg), "--strategy", "fedavg,fedcompass",
                     "--out", str(flagged)] + FAST_FLAGS) == 0
        assert [row.split(",")[0] for row in (flagged / "comparison.csv").read_text().splitlines()] == [
            "strategy", "fedavg", "fedcompass",
        ]


class TestEigengapCommand:
    def test_report_printed(self, capsys):
        code = main(["eigengap", "--clients", "4", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eigenvalue" in out
        assert len(out.splitlines()) >= 6

    @pytest.mark.parametrize(
        "strategy", ["fedavg", "fedprox", "fedcompass_no_clustering", "fedcompass", "fedcompass_no_circular"],
    )
    def test_an_unclustered_strategy_runs_no_kmeans(self, monkeypatch, capsys, strategy):
        def no_kmeans(*args, **kwargs):
            raise AssertionError("k-means run")

        config = parse_config(None, dict(strategy=strategy, n_clients=6, seed=3, lambda1=0.5))
        values, gaps = laplacian_eigengaps(client_similarity(build_context(config).class_counts, config))
        monkeypatch.setattr(clustering, "kmeans", no_kmeans)
        code = main(["eigengap", "--strategy", strategy, "--clients", "6", "--seed", "3", "--lambda1", "0.5"])
        assert code == 0
        gap_cells = [f"{gap:.6f}" for gap in gaps] + [""]
        assert capsys.readouterr().out.splitlines()[2:] == [
            f"{k:>3}  {value:>12.6f}  {gap:>12}" for k, (value, gap) in enumerate(zip(values, gap_cells))
        ]

    def test_a_clustered_strategy_reports_its_runs_spectrum(self, capsys):
        config = parse_config(None, dict(strategy="fedcompass", n_clients=6, seed=3, lambda1=0.5))
        clustering_ = init_state(config, build_context(config)).clustering
        assert main(["eigengap", "--strategy", "fedcompass", "--clients", "6", "--seed", "3", "--lambda1", "0.5"]) == 0
        gap_cells = [f"{gap:.6f}" for gap in clustering_.eigengaps] + [""]
        assert capsys.readouterr().out.splitlines()[2:] == [
            f"{k:>3}  {value:>12.6f}  {gap:>12}"
            for k, (value, gap) in enumerate(zip(clustering_.eigenvalues, gap_cells))
        ]

    def test_eigensolver_failure_exits_4(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["eigengap", "--clients", "4", "--seed", "3"]) == 4
        assert "numeric error" in capsys.readouterr().err


class TestExitCodes:
    def test_config_error(self, capsys):
        assert main(["run", "--alpha", "abc"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_empty_synthetic_test_split_is_a_config_error(self, tmp_path, capsys):
        # 20% of 2 samples per class rounds to an empty test split
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("per_class = 2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "per_class" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["alpha", "local_lr", "server_lr", "lambda1", "lambda2", "prox_mu", "spread"])
    def test_nan_float_field_is_a_config_error_that_writes_nothing(self, tmp_path, capsys, field):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in fast_overrides(**{field: "nan"}).items()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_nan_alpha_compare_is_a_config_error_that_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["compare", "--strategy", "fedavg", "--alpha", "nan", "--out", str(out)] + FAST_FLAGS)
        assert code == cli.EXIT_CONFIG
        assert "alpha must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alfa = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "alfa" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("# caf\u00e9\nseed = 3\n".encode("latin-1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "latin1.cfg" in err and "UTF-8" in err

    def test_data_error_for_malformed_idx(self, tmp_path, capsys):
        images_path, labels_path = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8)
        )
        code = main([
            "run", "--dataset", "idx", "--idx-images", str(labels_path),
            "--idx-labels", str(labels_path), "--classes", "0,1",
            "--out", str(tmp_path),
        ])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_idx_pair_without_images_is_a_data_error_naming_the_image_file(self, tmp_path, capsys):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((0, 28, 28)), np.zeros(0))
        out = tmp_path / "out"
        code = main(["run", "--dataset", "idx", "--idx-images", str(images_path), "--idx-labels", str(labels_path),
                     "--classes", "0,1", "--out", str(out)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error:") and "images.idx" in err
        assert not out.exists()

    def test_images_without_pixels_are_a_data_error_naming_the_image_file(self, tmp_path, capsys):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((3, 0, 0)), np.array([0, 1, 0]))
        out = tmp_path / "out"
        code = main(["run", "--dataset", "idx", "--idx-images", str(images_path), "--idx-labels", str(labels_path),
                     "--classes", "0,1", "--out", str(out)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error:")
        assert "images.idx: images of 0 x 0 pixels are empty" in err
        assert not out.exists()

    def test_a_kept_label_without_samples_is_a_data_error_naming_the_labels_file(self, tmp_path, capsys):
        images_path, labels_path = write_idx_pair(tmp_path, np.zeros((4, 2, 2)), np.array([0, 1, 1, 0]))
        out = tmp_path / "out"
        code = main(["run", "--dataset", "idx", "--idx-images", str(images_path), "--idx-labels", str(labels_path),
                     "--classes", "0,1,5", "--out", str(out)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error:")
        assert "labels.idx: no sample carries the kept label(s) 5" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lambda1", "--lambda2"])
    def test_underflowing_similarity_is_a_numeric_error(self, capsys, flag):
        assert main(["eigengap", "--clients", "10", flag, "2000"]) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numeric error: similarity underflows to 0")
        assert "lambda1=" in err and "lambda2=" in err

    def test_numeric_error(self, monkeypatch, tmp_path, capsys):
        def explode(config):
            raise NumericError("did not converge")

        monkeypatch.setattr(cli, "run_experiment", explode)
        assert main(["run", "--out", str(tmp_path)] + FAST_FLAGS) == 4
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--server-lr", "inf"], "server_lr"),
        (["--lr", "inf"], "local_lr"),
        (["--prox-mu", "inf", "--strategy", "fedprox"], "prox_mu"),
    ])
    def test_infinite_flag_is_a_config_error_that_writes_nothing(self, tmp_path, capsys, flags, field):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out)] + FAST_FLAGS + flags) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not out.exists()

    def test_infinite_spread_in_a_config_file_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in fast_overrides(spread="inf").items()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "spread" in err
        assert not out.exists()

    def test_repeated_kept_class_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--dataset", "idx", "--idx-images", str(tmp_path / "images.idx"),
                     "--idx-labels", str(tmp_path / "labels.idx"), "--classes", "3,3", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "keep_classes" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_training_is_a_numeric_error(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            code = main(["run", "--clients", "2", "--rounds", "1", "--epochs", "1", "--lr", "1e308",
                         "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "numeric error" in err
        assert "round 1" in err and "client 0" in err

    def test_divergent_training_exits_4_with_one_line_and_no_warning(self, tmp_path, capsys):
        # no errstate here: with warnings as errors, a numpy overflow warning would fail the run
        code = main(["run", "--clients", "2", "--rounds", "1", "--epochs", "3", "--lr", "1e308",
                     "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numeric error:")

    def test_io_error_for_missing_idx_file(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", "idx", "--idx-images", str(tmp_path / "nope.idx"),
            "--idx-labels", str(tmp_path / "nope2.idx"), "--classes", "0,1",
            "--out", str(tmp_path),
        ])
        assert code == 5
        assert "i/o error" in capsys.readouterr().err


def error_categories(base=FedsimError):
    for category in base.__subclasses__():
        yield category
        yield from error_categories(category)


class TestExitCodeContract:
    @pytest.mark.parametrize("category", list(error_categories()), ids=lambda c: c.__name__)
    def test_every_error_category_exits_with_one_line(self, monkeypatch, tmp_path, capsys, category):
        def fail(config):
            raise category("stub failure")

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert 2 <= main(["run", "--out", str(tmp_path)] + FAST_FLAGS) <= 5
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestParser:
    def test_every_flag_dest_is_a_config_field(self):
        fields = set(ExperimentConfig.__dataclass_fields__)
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            action.dest
            for sub in subparsers.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        assert dests - {"config", "out", "command", "func"} <= fields
        assert {"n_clients", "local_epochs", "batch_size", "local_lr", "classes"} <= dests

    def test_every_command_has_the_pinned_flags_each_set_on_its_field(self):
        field_flags = {
            "--strategy": "strategy", "--dataset": "dataset", "--idx-images": "idx_images",
            "--idx-labels": "idx_labels", "--classes": "classes", "--alpha": "alpha", "--clients": "n_clients",
            "--rounds": "rounds", "--epochs": "local_epochs", "--batch": "batch_size", "--lr": "local_lr",
            "--server-lr": "server_lr", "--clusters": "clusters", "--lambda1": "lambda1", "--lambda2": "lambda2",
            "--prox-mu": "prox_mu", "--qubits": "qubits", "--layers": "layers", "--hidden": "hidden",
            "--seed": "seed",
        }
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {"run", "compare", "eigengap"}
        for sub in subparsers.choices.values():
            options = {flag: action.dest for action in sub._actions for flag in action.option_strings}
            assert set(options) == set(field_flags) | {"--config", "--out", "-h", "--help"}
            assert {flag: options[flag] for flag in field_flags} == field_flags
        # the README's flag list names exactly the same flags
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Flags:"):].split("\n\n")[0]
        assert set(re.findall(r"`(--[a-z0-9-]+)[^`]*`", paragraph)) == set(field_flags) | {"--config", "--out"}

    def test_flags_land_on_their_fields(self):
        args = cli.build_parser().parse_args(
            ["run", "--clients", "3", "--epochs", "2", "--batch", "8", "--lr", "0.05", "--classes", "3"]
        )
        assert cli._flag_overrides(args) == {
            "n_clients": "3", "local_epochs": "2", "batch_size": "8", "local_lr": "0.05", "classes": "3",
        }

    def test_comma_classes_select_labels(self):
        args = cli.build_parser().parse_args(["run", "--classes", "0,1"])
        assert cli._flag_overrides(args) == {"keep_classes": "0,1"}
