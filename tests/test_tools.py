import hashlib
import importlib.util
import json
import shutil
import statistics
from pathlib import Path

import pytest

from fedsim.cli import metrics_rows
from fedsim.orchestrator import ExperimentConfig, run_experiment

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("count_code_lines", TOOLS / "count_code_lines.py")
count_code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts as its code line


def f():
    """Function docstring."""

    text = """not a docstring,
over two lines"""
    return text


class C:
    \'\'\'Class docstring.\'\'\'

    x = 1
'''


class TestCountCodeLines:
    def test_skips_docstrings_comments_and_blanks_but_counts_other_strings(self):
        # import, def, the two lines of text, return, class, x = 1
        assert count_code_lines.code_lines(SNIPPET) == 7

    def test_prints_one_row_per_module_and_their_total(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(SNIPPET)
        (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
        (tmp_path / "notes.txt").write_text("not a module\n")
        assert count_code_lines.main([str(tmp_path)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["a.py", "7"], ["b.py", "1"], ["total", "8"]]


spec = importlib.util.spec_from_file_location("paired_rounds", TOOLS / "paired_rounds.py")
paired_rounds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_rounds)
ROOT = TOOLS.parent


class TestPairedRounds:
    @pytest.fixture(autouse=True)
    def restore_thread_settings(self, monkeypatch):
        for var in paired_rounds.THREAD_VARS:
            monkeypatch.setenv(var, "1")

    def test_the_tree_against_itself(self, tmp_path, capsys):
        out = tmp_path / "pairs.json"
        args = [str(ROOT), str(ROOT), "--workload", "converge", "--smoke", "--seed", "7", "--pairs", "2"]
        assert paired_rounds.main(args + ["--json", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "workload converge (smoke), seed 7, 2 pairs, 2 paired rounds"
        assert lines[3].startswith("change/base round_s ratio median ")
        assert lines[3].endswith(" of 2 paired rounds")
        result = json.loads(out.read_text())
        assert len(result["base_round_s"]) == len(result["change_round_s"]) == 2
        # the digest is perfbench's: every run's metrics rows, round 0 included
        config = ExperimentConfig(**paired_rounds.workload_configs("converge", 7, True)[0])
        rows = "\n".join(metrics_rows(run_experiment(config)))
        assert result["metrics_rows_sha256"] == hashlib.sha256(rows.encode()).hexdigest()
        assert lines[4].endswith(result["metrics_rows_sha256"])

    def test_prints_and_records_each_trees_minor_page_faults(self, tmp_path, capsys):
        out = tmp_path / "pairs.json"
        args = [str(ROOT), str(ROOT), "--workload", "wide", "--smoke", "--seed", "7", "--pairs", "3"]
        assert paired_rounds.main(args + ["--json", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(out.read_text())
        for line, name in zip(lines[1:3], paired_rounds.TREES):
            faults = result[f"{name}_minflt"]
            # one count per paired round, from getrusage around the run_round call
            assert len(faults) == 3 and all(isinstance(f, int) and f >= 0 for f in faults)
            assert line.startswith(f"{name:<7} round_s median ")
            assert line.endswith(f"; minor page faults per round median {statistics.median(faults):g}")

    def test_sweep_runs_every_strategy_and_alpha(self):
        configs = paired_rounds.workload_configs("sweep", 3, True)
        assert [(c["strategy"], c["alpha"]) for c in configs] == [
            (s, a) for a in (0.3, 1.0) for s in ("fedavg", "fedprox", "fedcompass_no_clustering")
        ]
        assert {c["seed"] for c in configs} == {3}

    def test_trees_that_disagree_fail(self, tmp_path, capsys):
        changed = tmp_path / "changed"
        shutil.copytree(ROOT / "src" / "fedsim", changed / "src" / "fedsim")
        with open(changed / "src" / "fedsim" / "orchestrator.py", "a") as fh:
            fh.write(
                "\n\n_run_round = run_round\n\n\n"
                "def run_round(state, config, context):\n"
                "    state, metrics = _run_round(state, config, context)\n"
                "    metrics.accuracy = -1.0\n"
                "    return state, metrics\n"
            )
        args = [str(ROOT), str(changed), "--workload", "converge", "--smoke", "--pairs", "1"]
        assert paired_rounds.main(args) == 1
        assert "metrics rows differ" in capsys.readouterr().err
