"""Command-line front end: run experiments, compare strategies, report eigengaps.

Configuration is a flat key=value file (same keys as ExperimentConfig
fields) optionally overridden by flags; flags win over the file, the file
wins over defaults. Values are coerced to the field's annotated type, and
each flag's argparse dest is the name of the field it sets. Metrics land
in a fixed-schema CSV next to a JSON run manifest. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import types
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .clustering import laplacian_eigengaps
from .errors import ConfigError, DataFormatError, NumericError, ParameterError, PartitionError
from .orchestrator import (
    STRATEGIES,
    ExperimentConfig,
    RoundMetrics,
    build_context,
    client_similarity,
    run_experiment,
)

CSV_HEADER = "round,strategy,seed,alpha,accuracy,loss,mean_train_loss,cluster_sizes,degeneracies,duration_ms"

OUT_DIR_ENV = "FEDSIM_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _value_type(hint):
    """The type a field's values are coerced to: its annotation, minus None for optionals."""
    if isinstance(hint, types.UnionType):
        (hint,) = [t for t in typing.get_args(hint) if t is not type(None)]
    return hint


_FIELD_TYPES = {name: _value_type(hint) for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_EXPECTS = {int: "an integer", float: "a number"}

# every config field a flag sets: field -> (flag, further argparse options); the flag's dest is its field
FLAGS = {
    "strategy": ("--strategy", {"help": "strategy name (comma-separated list for compare)"}),
    "dataset": ("--dataset", {"choices": ("synthetic", "idx")}),
    "idx_images": ("--idx-images", {}),
    "idx_labels": ("--idx-labels", {}),
    "classes": ("--classes", {"help": "class count, or comma-separated labels to keep from an IDX file"}),
    "alpha": ("--alpha", {"help": "Dirichlet concentration (comma-separated list for compare)"}),
    "n_clients": ("--clients", {}),
    "rounds": ("--rounds", {}),
    "local_epochs": ("--epochs", {}),
    "batch_size": ("--batch", {}),
    "local_lr": ("--lr", {}),
    "server_lr": ("--server-lr", {}),
    "clusters": ("--clusters", {}),
    "lambda1": ("--lambda1", {}),
    "lambda2": ("--lambda2", {}),
    "prox_mu": ("--prox-mu", {}),
    "qubits": ("--qubits", {}),
    "layers": ("--layers", {}),
    "hidden": ("--hidden", {}),
    "seed": ("--seed", {}),
}


def _coerce(key: str, raw) -> object:
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key '{key}'")
    if key == "keep_classes":
        if raw is None or isinstance(raw, tuple):
            return raw
        try:
            return tuple(int(part) for part in str(raw).split(",") if part.strip() != "")
        except ValueError:
            raise ConfigError(f"key 'keep_classes' expects a comma-separated list of integers, got '{raw}'")
    kind = _FIELD_TYPES[key]
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{key}' expects {_EXPECTS[kind]}, got '{raw}'")


def _read_config_file(path) -> dict[str, str]:
    """The file's key = value pairs; a file that is not UTF-8 or that sets a key twice raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})")
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key '{key}' is already set on line {lines[key]}")
        values[key], lines[key] = value.strip(), lineno
    return values


def parse_config(file_path=None, flag_overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a full ExperimentConfig with precedence flags > file > defaults.

    Unknown keys and mistyped values raise ConfigError naming the offending
    key. When keep_classes is given, the class count is derived from it,
    unless a class count is set as well: then the two must agree. A flagged
    keep_classes (a comma-list --classes) sets the count from its own
    labels, over the file's.
    """
    resolved: dict[str, object] = {}
    if file_path is not None:
        for key, value in _read_config_file(file_path).items():
            resolved[key] = _coerce(key, value)
    flags = {key: _coerce(key, value) for key, value in (flag_overrides or {}).items() if value is not None}
    if "keep_classes" in flags:
        resolved.pop("classes", None)
    resolved.update(flags)
    if resolved.get("keep_classes"):
        resolved.setdefault("classes", len(resolved["keep_classes"]))
    return ExperimentConfig(**resolved).validate()


def serialize_config(config: ExperimentConfig) -> str:
    """Flat key = value rendering of a config; parse_config inverts it."""
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        if f.name == "keep_classes":
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _format_float(x: float) -> str:
    return f"{x:.6f}"


def metrics_rows(metrics: list[RoundMetrics]) -> list[str]:
    """CSV data rows for a metrics sequence (deterministic: timing is zeroed).

    Wall-clock durations stay on the in-memory RoundMetrics and in console
    output; the CSV keeps its duration_ms column byte-stable across reruns.
    """
    rows = []
    for m in metrics:
        rows.append(",".join([
            str(m.round_index),
            m.strategy,
            str(m.seed),
            _format_float(m.alpha),
            _format_float(m.accuracy),
            _format_float(m.loss),
            _format_float(m.mean_train_loss),
            "|".join(str(s) for s in m.cluster_sizes),
            str(m.degeneracies),
            _format_float(0.0),
        ]))
    return rows


def _json_value(value):
    """A config value as strict JSON holds it: a non-finite float (alpha = inf) as the string parse_config reads."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_metrics(metrics: list[RoundMetrics], path, config: ExperimentConfig) -> Path:
    """Write the per-round CSV plus a sibling .manifest.json, return the CSV path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + metrics_rows(metrics)
    path.write_text("\n".join(lines) + "\n")
    manifest_path = path.with_suffix(".manifest.json")
    manifest = {
        "artifact_version": __version__,
        "config": {key: _json_value(value) for key, value in dataclasses.asdict(config).items()},
        "outputs": {"metrics_csv": str(path), "manifest": str(manifest_path)},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _print_round_summary(metrics: list[RoundMetrics]) -> None:
    print(f"{'round':>5}  {'accuracy':>8}  {'loss':>8}  {'train_loss':>10}  {'clusters':>10}  {'ms':>8}")
    for m in metrics:
        sizes = "|".join(str(s) for s in m.cluster_sizes)
        print(
            f"{m.round_index:>5}  {m.accuracy:>8.4f}  {m.loss:>8.4f}  "
            f"{m.mean_train_loss:>10.4f}  {sizes:>10}  {m.duration_ms:>8.1f}"
        )


def _out_dir(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(OUT_DIR_ENV)
    return Path(env) if env else Path(".")


def _flag_overrides(args) -> dict:
    """The config fields set by flags; every flag's dest is the field it sets."""
    overrides = {field: getattr(args, field) for field in FLAGS if getattr(args, field) is not None}
    # a comma list selects original labels to keep (IDX path); a bare
    # integer is the synthetic class count
    if "," in overrides.get("classes", ""):
        overrides["keep_classes"] = overrides.pop("classes")
    return overrides


def cmd_run(args) -> int:
    config = parse_config(args.config, _flag_overrides(args))
    metrics = run_experiment(config)
    out = _out_dir(args)
    csv_path = write_metrics(metrics, out / f"metrics_{config.strategy}_seed{config.seed}.csv", config)
    _print_round_summary(metrics)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _parse_list(raw: str, key: str) -> list:
    """A comma-separated flag value as a list of config-field values, each given once."""
    values = [_coerce(key, part.strip()) for part in raw.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"no {key} given")
    if len(set(values)) != len(values):
        raise ConfigError(f"{key} list '{raw}' repeats a value")
    return values


def run_compare(strategies: list[str], alphas: list[float], base_config: ExperimentConfig, out_dir: Path):
    """Run each strategy at each alpha with the shared seed and partition.

    Every (strategy, alpha) config is validated before the first run, so a
    bad one fails the sweep before anything is trained or written; so are
    the alphas' output names, and two alphas that print alike under `:g`
    raise ConfigError, since their files and columns would collide.
    Returns (final-accuracy table rows, {alpha: per-round ablation rows}).
    The ablation tables list, for every round, one accuracy column per
    requested strategy with the server step (the fedcompass family), and
    are produced whenever one of those drops clustering or the circular
    mean.
    """
    names = [f"{a:g}" for a in alphas]
    if len(set(names)) < len(names):
        raise ConfigError(f"alphas {alphas} print as {names}, so their outputs would collide")
    configs = {
        (s, a): dataclasses.replace(base_config, strategy=s, alpha=a).validate() for a in alphas for s in strategies
    }
    per_round: dict[tuple[str, float], list[RoundMetrics]] = {}
    for (strategy, alpha), config in configs.items():
        metrics = run_experiment(config)
        write_metrics(
            metrics,
            out_dir / f"metrics_{strategy}_alpha{alpha:g}_seed{config.seed}.csv",
            config,
        )
        per_round[(strategy, alpha)] = metrics

    comparison_rows = [["strategy"] + [f"alpha_{a:g}" for a in alphas]]
    for strategy in strategies:
        comparison_rows.append(
            [strategy] + [_format_float(per_round[(strategy, a)][-1].accuracy) for a in alphas]
        )

    ablation_tables: dict[float, list[list[str]]] = {}
    family = [s for s in strategies if STRATEGIES[s].server_step]
    if any(not (STRATEGIES[s].clustered and STRATEGIES[s].circular) for s in family):
        for alpha in alphas:
            rows = [["round"] + family]
            n_rounds = len(per_round[(family[0], alpha)])
            for r in range(n_rounds):
                rows.append(
                    [str(r)] + [_format_float(per_round[(s, alpha)][r].accuracy) for s in family]
                )
            ablation_tables[alpha] = rows
    return comparison_rows, ablation_tables


def _write_table(rows: list[list[str]], path: Path) -> None:
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")


def _print_table(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def cmd_compare(args) -> int:
    overrides = _flag_overrides(args)
    # a flagged list wins over the file's one strategy, which wins over every strategy
    in_file = _read_config_file(args.config).get("strategy") if args.config is not None else None
    strategies = _parse_list(overrides.pop("strategy", in_file or ",".join(STRATEGIES)), "strategy")
    alphas = _parse_list(overrides["alpha"], "alpha") if "alpha" in overrides else []
    # the base config takes the first flagged alpha, so flags still win over the file
    base = parse_config(args.config, {**overrides, "alpha": alphas[0] if alphas else None})
    out = _out_dir(args)
    comparison, ablations = run_compare(strategies, alphas or [base.alpha], base, out)
    _write_table(comparison, out / "comparison.csv")
    print("final-round accuracy per strategy and alpha:")
    _print_table(comparison)
    for alpha, rows in ablations.items():
        _write_table(rows, out / f"ablation_alpha{alpha:g}.csv")
        print(f"\nper-round accuracy, alpha={alpha:g}:")
        _print_table(rows)
    print(f"\nwrote tables to {out}")
    return EXIT_OK


def cmd_eigengap(args) -> int:
    config = parse_config(args.config, _flag_overrides(args))
    context = build_context(config)
    values, gaps = laplacian_eigengaps(client_similarity(context.class_counts, config))
    print("normalized-Laplacian spectrum for the partition:")
    print(f"{'k':>3}  {'eigenvalue':>12}  {'gap to next':>12}")
    for k, value in enumerate(values):
        gap = f"{gaps[k]:.6f}" if k < len(gaps) else ""
        print(f"{k:>3}  {value:>12.6f}  {gap:>12}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic hybrid classical-quantum federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
        ("run", cmd_run, "run a single experiment"),
        ("compare", cmd_compare, "run a strategy sweep with a shared seed"),
        ("eigengap", cmd_eigengap, "report the Laplacian spectrum for a partition"),
    ):
        p = sub.add_parser(name, help=desc)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for field, (flag, options) in FLAGS.items():
            p.add_argument(flag, dest=field, default=None, **options)
        p.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or .)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, PartitionError, ParameterError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
