"""fedsim benchmark: one workload, one seed, one process, a closed loop.

    python3 perfbench/run.py --workload converge --seed 42 --seconds 25 --trace 0

Run from the root of a checkout; fedsim is imported from its ``src``. The
loop makes the workload's user-facing call (see workloads.py), waits for it,
and starts the next until ``--seconds`` have passed (at least one call).
Every round's output is checked. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs the same untraced loop, then a traced one, and
reports per-layer metrics, each per round of the traced loop. ``--smoke``
runs a shrunken shape of the workload, for the benchmark's own tests.

Stdout ends with one JSON line: correct, attempted and failed rounds, and
the metrics. A human-readable table with sample counts, the environment
and the full result (raw samples, spans) go to stdout above it and to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
# fresh-process set-up probes, half before and half after the loop of calls
SETUP_PROBES = 8
SMOKE_SETUP_PROBES = 2

# (name, unit); the order is the print order
END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("round_cpu_s", "s"),
    ("run_s", "s"),
    ("train_samples_per_s", "sample-epochs/s"),
    ("peak_rss_mb", "MB"),
)
# printed and stored with every result, but not emitted on the last line:
# accuracy spreads across seeds by far more than any usable bound, and the
# error rate is 0 when nothing fails (it is carried by attempted/failed)
REPORTED_ONLY = (
    ("final_accuracy", "fraction"),
    ("error_rate", "fraction"),
)
# every per-layer value is per round of the traced loop, except eig_n
PER_LAYER = (
    ("data.build_context_s", "s"),
    ("data.dirichlet_partition_s", "s"),
    ("model.local_train_s", "s"),
    ("model.local_train_calls", "count"),
    ("model.hybrid_loss_and_grads_s", "s"),
    ("model.batches", "count"),
    ("model.train_samples", "count"),
    ("model.param_shift_grad_s", "s"),
    ("model.circuit_forward_s", "s"),
    ("model.mlp_s", "s"),
    ("model.adam_local_step_s", "s"),
    ("model.circuit_evals", "count"),
    ("clustering.similarity_matrix_s", "s"),
    ("clustering.symmetric_eig_s", "s"),
    ("clustering.symmetric_eig_calls", "count"),
    ("clustering.eig_n", "count"),
    ("clustering.spectral_cluster_s", "s"),
    ("clustering.laplacian_eigengaps_s", "s"),
    ("clustering.kmeans_s", "s"),
    ("aggregation.cluster_weighted_average_s", "s"),
    ("aggregation.aggregate_quantum_s", "s"),
    ("aggregation.arithmetic_mean_quantum_s", "s"),
    ("aggregation.fedadam_update_s", "s"),
    ("aggregation.degeneracies", "count"),
    ("orchestrator.run_round_s", "s"),
    ("orchestrator.run_round_self_s", "s"),
    ("orchestrator.evaluate_s", "s"),
    ("orchestrator.eval_samples", "count"),
    ("cli.write_metrics_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("data.self_s", "s"),
    ("model.self_s", "s"),
    ("clustering.self_s", "s"),
    ("aggregation.self_s", "s"),
    ("orchestrator.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclasses.dataclass
class Phase:
    """Raw samples of one closed loop of calls."""

    round_wall: list = dataclasses.field(default_factory=list)
    round_cpu: list = dataclasses.field(default_factory=list)
    call_wall: list = dataclasses.field(default_factory=list)
    samples_per_s: list = dataclasses.field(default_factory=list)
    final_accuracy: list = dataclasses.field(default_factory=list)
    baseline_accuracy: list = dataclasses.field(default_factory=list)
    digests: list = dataclasses.field(default_factory=list)
    calls: int = 0
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    problems: list = dataclasses.field(default_factory=list)


def run_phase(workload, seed: int, smoke: bool, seconds: float, run_dir: Path, label: str) -> Phase:
    """Make user-facing calls one after another for about `seconds`.

    Another call starts only if, at the mean call time so far, it would end
    less than half a call past `seconds`; the first call always runs.
    """
    import workloads
    from fedsim import orchestrator

    phase = Phase()
    per_round = []  # (wall, cpu, sample-epochs) of every round, in order
    untimed = orchestrator.run_round

    def timed_round(state, config, context):
        wall, cpu = time.perf_counter(), time.process_time()
        out = untimed(state, config, context)
        per_round.append((time.perf_counter() - wall, time.process_time() - cpu,
                          len(context.train_indices) * config.local_epochs))
        return out

    expected_rounds = workloads.rounds_per_call(workload, smoke)
    orchestrator.run_round = timed_round
    try:
        start = time.perf_counter()
        elapsed = 0.0
        while phase.calls == 0 or elapsed + 0.5 * elapsed / phase.calls < seconds:
            call_dir = run_dir / f"{label}-call{phase.calls}"
            call_dir.mkdir(parents=True)
            phase.calls += 1
            first_round = len(per_round)
            wall = time.perf_counter()
            try:
                result = workloads.call(workload, seed, smoke, call_dir)
                wall = time.perf_counter() - wall
                phase.bytes_written += sum(
                    p.stat().st_size for p in call_dir.iterdir() if p.name != "sweep.cfg"
                )
            except Exception:
                phase.problems.append(f"call {phase.calls} raised:\n{traceback.format_exc()}")
                phase.attempted += expected_rounds
                phase.failed += expected_rounds
                continue
            finally:
                shutil.rmtree(call_dir)
                elapsed = time.perf_counter() - start

            attempted = sum(config.rounds for config, _ in result.runs)
            failed = sum(len(workloads.check_run(config, metrics, workload, seed, smoke))
                         for config, metrics in result.runs)
            if attempted != expected_rounds or result.problems:
                phase.problems.extend(result.problems or [f"call ran {attempted} rounds"])
                failed = max(attempted, expected_rounds)
            phase.attempted += max(attempted, expected_rounds)
            phase.failed += failed
            if failed:
                phase.problems.append(f"call {phase.calls}: {failed} round(s) failed the output check")

            rounds = per_round[first_round:]
            phase.round_wall.extend(r[0] for r in rounds)
            phase.round_cpu.extend(r[1] for r in rounds)
            phase.call_wall.append(wall)
            phase.samples_per_s.append(sum(r[2] for r in rounds) / wall)
            phase.final_accuracy.append(result.final_accuracy)
            phase.baseline_accuracy.append(result.runs[0][1][0].accuracy)
            digest_text = "\n".join(workloads.metrics_digest_lines(result.runs))
            phase.digests.append(hashlib.sha256(digest_text.encode()).hexdigest())
    finally:
        orchestrator.run_round = untimed
    return phase


def probe_setup(fields: dict, count: int, warm_up: bool) -> tuple[list, list, list]:
    """Set-up times and round-0 accuracies of `count` fresh processes.

    A warm-up probe fills the bytecode cache first; it is not timed.
    """
    script = ROOT / "perfbench" / "setup_probe.py"
    times, accuracies, problems = [], [], []
    for index in range(count + 1 if warm_up else count):
        proc = subprocess.run(
            [sys.executable, str(script), json.dumps(fields)],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            problems.append(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(out["fedsim_file"]).resolve().parent != ROOT / "src" / "fedsim":
            problems.append(f"set-up probe imported fedsim from {out['fedsim_file']}")
        if index > 0 or not warm_up:
            times.append(out["setup_s"])
            accuracies.append(out["accuracy"])
    return times, accuracies, problems


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def _stat(values: list) -> dict:
    clean = [v for v in values if v is not None and math.isfinite(v)]
    if not clean:
        return {"value": None, "n": 0}
    return {"value": median(clean), "n": len(clean), "min": min(clean), "max": max(clean)}


def end_to_end(phase: Phase, setup_times: list) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    error_rate = phase.failed / phase.attempted if phase.attempted else None
    return {
        "setup_s": _stat(setup_times),
        "round_s": _stat(phase.round_wall),
        "round_cpu_s": _stat(phase.round_cpu),
        "run_s": _stat(phase.call_wall),
        "train_samples_per_s": _stat(phase.samples_per_s),
        "peak_rss_mb": _stat([rss_mb]),
        "final_accuracy": _stat(phase.final_accuracy),
        "error_rate": {"value": error_rate, "n": phase.attempted},
    }


def per_layer(summary, untraced: Phase, traced: Phase, fields: dict) -> dict:
    import tracing
    from fedsim import orchestrator

    rounds = summary.rounds
    config = orchestrator.ExperimentConfig(**fields)

    def seconds(*names):
        return sum(summary.total(n).seconds for n in names) / rounds

    def calls(name):
        return summary.total(name).calls / rounds

    train_samples = summary.total("model.hybrid_loss_and_grads").count_sum
    eval_samples = summary.total("orchestrator.evaluate").count_sum
    circuits_per_sample = 1 + 2 * (config.qubits * config.layers + config.qubits)
    values = {
        "data.build_context_s": seconds("data.build_context"),
        "data.dirichlet_partition_s": seconds("data.dirichlet_partition"),
        "model.local_train_s": seconds("model.local_train"),
        "model.local_train_calls": calls("model.local_train"),
        "model.hybrid_loss_and_grads_s": seconds("model.hybrid_loss_and_grads"),
        "model.batches": calls("model.hybrid_loss_and_grads"),
        "model.train_samples": train_samples / rounds,
        "model.param_shift_grad_s": seconds("model.param_shift_grad"),
        "model.circuit_forward_s": seconds("model.circuit_forward"),
        "model.mlp_s": seconds("model.mlp"),
        "model.adam_local_step_s": seconds("model.adam_local_step"),
        "model.circuit_evals": (train_samples * circuits_per_sample + eval_samples) / rounds,
        "clustering.similarity_matrix_s": seconds("clustering.similarity_matrix"),
        "clustering.symmetric_eig_s": seconds("clustering.symmetric_eig"),
        "clustering.symmetric_eig_calls": calls("clustering.symmetric_eig"),
        "clustering.eig_n": summary.total("clustering.symmetric_eig").count_max,
        "clustering.spectral_cluster_s": seconds("clustering.spectral_cluster"),
        "clustering.laplacian_eigengaps_s": seconds("clustering.laplacian_eigengaps"),
        "clustering.kmeans_s": seconds("clustering.kmeans"),
        "aggregation.cluster_weighted_average_s": seconds("aggregation.cluster_weighted_average"),
        "aggregation.aggregate_quantum_s": seconds("aggregation.aggregate_quantum"),
        "aggregation.arithmetic_mean_quantum_s": seconds("aggregation.arithmetic_mean_quantum"),
        "aggregation.fedadam_update_s": seconds("aggregation.fedadam_update"),
        "aggregation.degeneracies": summary.total("aggregation.aggregate_quantum").count_sum / rounds,
        "orchestrator.run_round_s": seconds("orchestrator.run_round"),
        "orchestrator.run_round_self_s": summary.total("orchestrator.run_round").self_seconds / rounds,
        "orchestrator.evaluate_s": seconds("orchestrator.evaluate"),
        "orchestrator.eval_samples": eval_samples / rounds,
        "cli.write_metrics_s": seconds("cli.write_metrics"),
        "cli.bytes_written": traced.bytes_written / rounds,
        "trace.overhead_s": median(traced.round_wall) - median(untraced.round_wall),
    }
    for layer in tracing.LAYERS:
        values[f"{layer}.self_s"] = summary.layer_self.get(layer, 0.0) / rounds
    return values


BLOCKING_PATH = (
    ("train", ("model.local_train",)),
    ("cluster", ("clustering.similarity_matrix", "clustering.spectral_cluster",
                 "clustering.laplacian_eigengaps")),
    ("aggregate", ("aggregation.cluster_weighted_average", "aggregation.aggregate_quantum",
                   "aggregation.arithmetic_mean_quantum", "aggregation.fedadam_update")),
    ("evaluate", ("orchestrator.evaluate",)),
)


def blocking_path(summary, overhead: float) -> tuple[dict, float, bool]:
    """Split of the traced round wall time along the blocking path, and its check.

    The parts (train, cluster, aggregate, evaluate, the round's self time)
    must add up to the traced round wall time within the tracing overhead.
    """
    parts = {label: sum(summary.round_children.get(n, 0.0) for n in names)
             for label, names in BLOCKING_PATH}
    parts["round_self"] = summary.total("orchestrator.run_round").self_seconds
    wall = sum(summary.round_walls)
    residual = wall - sum(parts.values())
    return parts, residual, abs(residual) <= abs(overhead) * summary.rounds + 1e-9 * wall


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fedsim benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=("converge", "wide", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken shapes for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"perfbench: no fedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, here and in every probe
        os.environ[var] = PINNED_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import fedsim
    import tracing
    import workloads

    if Path(fedsim.__file__).resolve().parent != ROOT / "src" / "fedsim":
        print(f"perfbench: fedsim was imported from {fedsim.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    run_dir = OUT_ROOT / f"{tag}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    fields = workload.config_fields(args.seed, args.smoke)
    problems = []

    setup_times, setup_acc = [], []
    probe_fields = workloads.setup_config_fields(workload, args.seed, args.smoke)
    half_probes = (SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES) // 2

    def probe(warm_up):
        times, accuracies, probe_problems = probe_setup(probe_fields, half_probes, warm_up)
        setup_times.extend(times)
        setup_acc.extend(accuracies)
        problems.extend(probe_problems)

    if not args.trace:
        probe(warm_up=True)
    untraced = run_phase(workload, args.seed, args.smoke, args.seconds, run_dir, "untraced")
    if not args.trace:
        probe(warm_up=False)
    phases = [untraced]
    summary = None
    spans = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, args.seed, args.smoke, args.seconds, run_dir, "traced")
        finally:
            tracer.uninstall()
        phases.append(traced)
        spans = tracer.spans
        summary = tracing.summarise(spans)

    for phase in phases:
        problems.extend(phase.problems)
    digests = sorted({d for phase in phases for d in phase.digests})
    if len(digests) > 1:
        problems.append(f"metrics_rows digest differs between repetitions: {digests}")
    baselines = {b for phase in phases for b in phase.baseline_accuracy}
    if any(abs(a - b) > 1e-12 for a in setup_acc for b in baselines):
        problems.append(f"set-up probe round-0 accuracy {setup_acc} != run's {sorted(baselines)}")

    e2e = end_to_end(untraced, setup_times)
    layers, path_parts, residual = {}, {}, None
    if summary is not None:
        if summary.rounds == 0:
            problems.append("traced loop completed no round")
        else:
            layers = per_layer(summary, untraced, phases[1], fields)
            path_parts, residual, path_ok = blocking_path(summary, layers["trace.overhead_s"])
            if not path_ok:
                problems.append(f"blocking-path parts miss the traced round time by {residual:.3g} s")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not problems and failed == 0 and attempted > 0
    env = environment()

    print(f"perfbench {tag}: {untraced.calls} call(s), {len(untraced.round_wall)} round(s) untraced"
          + (f", {len(phases[1].round_wall)} traced" if args.trace else ""))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':<40} {'value':>14} {'unit':<16} {'n':>4} {'min':>12} {'max':>12}")
    for name, unit in END_TO_END + REPORTED_ONLY:
        stat = e2e[name]
        print(f"{name:<40} {_fmt(stat['value']):>14} {unit:<16} {stat['n']:>4} "
              f"{_fmt(stat.get('min')):>12} {_fmt(stat.get('max')):>12}")
    print(f"metrics_rows sha256: {', '.join(digests) or '-'}")
    if layers:
        round_s = layers["orchestrator.run_round_s"]
        print(f"per-layer, per traced round ({summary.rounds} rounds); share of orchestrator.run_round_s:")
        for name, unit in PER_LAYER:
            share = f"{layers[name] / round_s:8.1%}" if unit == "s" and round_s > 0 else ""
            print(f"  {name:<40} {_fmt(layers[name]):>14} {unit:<6} {share}")
        wall = sum(summary.round_walls)
        print("blocking path (traced round wall time "
              f"{wall:.6g} s, residual {residual:.3g} s, tracing overhead per round "
              f"{layers['trace.overhead_s']:.3g} s):")
        for label, secs in path_parts.items():
            print(f"  {label:<12} {secs:12.6g} s {secs / wall:8.1%}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    emitted = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else {k: v["value"] for k, v in e2e.items()}
    metrics = {name: {"value": source.get(name), "unit": unit} for name, unit in emitted}
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "config": fields, "env": env,
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": e2e, "per_layer": layers, "blocking_path": path_parts,
        "metrics_rows_sha256": digests, "setup_s_samples": setup_times,
        "phases": [dataclasses.asdict(p) for p in phases],
        "span_fields": ["name", "start", "end", "parent", "round", "count"], "spans": spans,
    }
    (run_dir / "result.json").write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
