"""Time two source trees' rounds against each other, alternately, in one process.

    python tools/paired_rounds.py BASE_TREE CHANGE_TREE --workload converge --pairs 10 [--seed 42]

Each tree's src/fedsim is copied under its own package name (fedsim_base
and fedsim_change; the package imports itself relatively, so a copy runs
as it is) and both are imported side by side. The workload's configs come
from perfbench/workloads.py: one run for converge and wide, the sweep's
strategy x alpha runs for sweep. A pair runs every config once in each
tree, in lockstep: both trees' round r run back to back, the tree that
goes first alternating from round to round and from pair to pair. Each
run_round call is timed, as perfbench times it, and the minor page faults
the process takes in it are counted (getrusage's ru_minflt): fresh pages
are a cost that follows allocation, not arithmetic. Set-up is neither
timed nor counted. Both trees must give equal metrics rows (round 0, the
untrained baseline, from a run of no rounds), or the tool exits 1; their
sha256 is perfbench's metrics_rows digest. It prints, per tree, the
median round_s with its quartiles and the median minor page faults per
round, and the change/base ratio of each paired round: median, quartiles
and how many rounds the change won. The two rounds of a pair run under
nearly the same host load, which is what makes their ratio tighter than
separate benchmark runs. BLAS is pinned to one thread, as perfbench pins it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TREES = ("base", "change")


def load_tree(tree: Path, name: str, workdir: Path):
    """Import tree's src/fedsim as package `name`; returns (orchestrator, cli) of the copy."""
    source = tree / "src" / "fedsim"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"paired_rounds: no fedsim sources under {tree / 'src'}")
    shutil.copytree(source, workdir / name)
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]  # a copy imported by an earlier call
    importlib.invalidate_caches()
    return importlib.import_module(f"{name}.orchestrator"), importlib.import_module(f"{name}.cli")


def workload_configs(workload_name: str, seed: int, smoke: bool) -> list[dict]:
    """The ExperimentConfig fields of every run one call of the workload makes, in call order."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # workloads.py imports fedsim
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(workloads)

    workload = workloads.WORKLOADS[workload_name]
    fields = workload.config_fields(seed, smoke)
    if not workload.uses_cli:
        return [fields]
    return [{**fields, "strategy": s, "alpha": a} for a in workloads.SWEEP_ALPHAS for s in workloads.SWEEP_STRATEGIES]


def baseline_rows(orchestrator, cli, fields: dict) -> list[str]:
    """The metrics row of the run's round 0 (the untrained baseline), from a run of no rounds."""
    return cli.metrics_rows(orchestrator.run_experiment(orchestrator.ExperimentConfig(**{**fields, "rounds": 0})))


def paired_run(trees: dict, fields: dict, first: int) -> tuple[dict, dict, dict]:
    """One run of the config in every tree, round by round in lockstep; each tree's round walls, minor faults and rows.

    At round r the tree TREES[(first + r) % 2] runs first.
    """
    runs = {}
    for name, (orchestrator, _) in trees.items():
        config = orchestrator.ExperimentConfig(**fields).validate()
        context = orchestrator.build_context(config)
        runs[name] = [config, context, orchestrator.init_state(config, context)]
    walls = {name: [] for name in trees}
    faults = {name: [] for name in trees}
    metrics = {name: [] for name in trees}
    for r in range(fields["rounds"]):
        for name in TREES if (first + r) % 2 == 0 else TREES[::-1]:
            config, context, state = runs[name]
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            runs[name][2], row = trees[name][0].run_round(state, config, context)
            walls[name].append(time.perf_counter() - start)
            faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
            metrics[name].append(row)
    return walls, faults, {name: trees[name][1].metrics_rows(metrics[name]) for name in trees}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the base source tree")
    parser.add_argument("change", type=Path, help="root of the changed source tree")
    parser.add_argument("--workload", default="converge", choices=("converge", "wide", "sweep"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true", help="the workload's shrunken shape")
    parser.add_argument("--json", type=Path, help="also write every paired round's times here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"

    configs = workload_configs(args.workload, args.seed, args.smoke)
    with tempfile.TemporaryDirectory() as workdir:
        sys.path.insert(0, workdir)
        try:
            trees = {name: load_tree(path.resolve(), f"fedsim_{name}", Path(workdir))
                     for name, path in zip(TREES, (args.base, args.change))}
        finally:
            sys.path.remove(workdir)
        rows = {name: [] for name in TREES}
        for fields in configs:
            for name in TREES:
                rows[name].append(baseline_rows(*trees[name], fields))
        walls = {name: [] for name in TREES}
        faults = {name: [] for name in TREES}
        for pair in range(args.pairs):
            for index, fields in enumerate(configs):
                run_walls, run_faults, run_rows = paired_run(trees, fields, pair + index)
                for name in TREES:
                    walls[name].extend(run_walls[name])
                    faults[name].extend(run_faults[name])
                    if pair == 0:
                        rows[name][index] += run_rows[name]
                    elif run_rows[name] != rows[name][index][1:]:
                        print(f"paired_rounds: pair {pair}: {name}'s metrics rows changed", file=sys.stderr)
                        return 1
        if rows["base"] != rows["change"]:
            print("paired_rounds: the trees' metrics rows differ", file=sys.stderr)
            return 1
        digest = hashlib.sha256("\n".join(line for run in rows["base"] for line in run).encode()).hexdigest()

    ratios = [c / b for b, c in zip(walls["base"], walls["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"workload {args.workload}{' (smoke)' if args.smoke else ''}, seed {args.seed}, "
          f"{args.pairs} pairs, {len(ratios)} paired rounds")
    for name in TREES:
        q1, q2, q3 = quartiles(walls[name])
        print(f"{name:<7} round_s median {q2:.4f} s [{q1:.4f}, {q3:.4f}]; "
              f"minor page faults per round median {statistics.median(faults[name]):g}")
    q1, q2, q3 = quartiles(ratios)
    print(f"change/base round_s ratio median {q2:.3f} [{q1:.3f}, {q3:.3f}]; "
          f"change faster in {wins} of {len(ratios)} paired rounds")
    print(f"metrics_rows sha256 (equal in both trees): {digest}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "pairs": args.pairs,
            "base_round_s": walls["base"], "change_round_s": walls["change"],
            "base_minflt": faults["base"], "change_minflt": faults["change"],
            "ratio_median": q2, "ratio_quartiles": [q1, q3], "change_wins": wins,
            "metrics_rows_sha256": digest,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
