"""Span recording around fedsim's public functions, from outside the package.

Each traced function is rebound, for the length of a traced phase, in every
module namespace that looks it up at call time (``circuit_forward`` is found
both in ``fedsim.model`` and in ``fedsim.orchestrator``). A span is
(name, start, end, parent index, round id, count); all spans stay in memory
and are summarised, and written out, after the phase ends.

Span names are ``<layer>.<function>``; the layer is the part before the dot.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from fedsim import aggregation, cli, clustering, model, orchestrator

ROUND_SPAN = "orchestrator.run_round"
LAYERS = ("data", "model", "clustering", "aggregation", "orchestrator", "cli")


def _batch_size(args, result):
    return len(args[1])


def _eval_samples(args, result):
    cluster_models, test_indices = args[0], args[5]
    return len(test_indices) * len(cluster_models)


def _matrix_order(args, result):
    return args[0].shape[0]


def _degeneracies(args, result):
    return len(result[1])


# (module whose namespace holds the name, attribute, span name, count function)
TRACE_POINTS = (
    (orchestrator, "run_experiment", "orchestrator.run_experiment", None),
    (cli, "run_experiment", "orchestrator.run_experiment", None),
    (orchestrator, "build_context", "data.build_context", None),
    (orchestrator, "dirichlet_partition", "data.dirichlet_partition", None),
    (orchestrator, "run_round", ROUND_SPAN, None),
    (orchestrator, "evaluate", "orchestrator.evaluate", _eval_samples),
    (orchestrator, "local_train", "model.local_train", None),
    (model, "hybrid_loss_and_grads", "model.hybrid_loss_and_grads", _batch_size),
    (model, "param_shift_grad", "model.param_shift_grad", None),
    (model, "circuit_forward", "model.circuit_forward", None),
    (orchestrator, "circuit_forward", "model.circuit_forward", None),
    (model, "mlp_forward", "model.mlp", None),
    (model, "mlp_backward", "model.mlp", None),
    (model, "adam_local_step", "model.adam_local_step", None),
    (orchestrator, "similarity_matrix", "clustering.similarity_matrix", None),
    (orchestrator, "spectral_cluster", "clustering.spectral_cluster", None),
    (orchestrator, "laplacian_eigengaps", "clustering.laplacian_eigengaps", None),
    (clustering, "symmetric_eig", "clustering.symmetric_eig", _matrix_order),
    (clustering, "kmeans", "clustering.kmeans", None),
    (orchestrator, "cluster_weighted_average", "aggregation.cluster_weighted_average", None),
    (orchestrator, "aggregate_quantum", "aggregation.aggregate_quantum", _degeneracies),
    (orchestrator, "arithmetic_mean_quantum", "aggregation.arithmetic_mean_quantum", None),
    (orchestrator, "fedadam_update", "aggregation.fedadam_update", None),
    (cli, "write_metrics", "cli.write_metrics", None),
)


class Tracer:
    """Records spans while installed; install() and uninstall() bracket a phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, round_id, count]
        self._stack: list[int] = []
        self._round = -1
        self._in_round = False
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            opens_round = name == ROUND_SPAN
            if opens_round:
                self._round += 1
                self._in_round = True
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self._round if self._in_round else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if opens_round:
                    self._in_round = False
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in TRACE_POINTS:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


@dataclass
class SpanTotals:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    count_sum: int = 0
    count_max: int = 0


@dataclass
class Summary:
    by_name: dict[str, SpanTotals] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    rounds: int = 0
    round_walls: list[float] = field(default_factory=list)
    # total duration of the direct children of every round span, by name
    round_children: dict[str, float] = field(default_factory=dict)

    def total(self, name: str) -> SpanTotals:
        return self.by_name.get(name, SpanTotals())


def summarise(spans: list[list]) -> Summary:
    """Totals, call counts and self times per span name and per layer.

    A span's self time is its duration minus the durations of its direct
    children; the process is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    out = Summary()
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if spans[parent][0] == ROUND_SPAN:
                out.round_children[name] = out.round_children.get(name, 0.0) + end - start
    for index, (name, start, end, _, _, count) in enumerate(spans):
        totals = out.by_name.setdefault(name, SpanTotals())
        duration = end - start
        own = duration - child_time[index]
        totals.seconds += duration
        totals.self_seconds += own
        totals.calls += 1
        totals.count_sum += count
        totals.count_max = max(totals.count_max, count)
        layer = name.split(".", 1)[0]
        out.layer_self[layer] = out.layer_self.get(layer, 0.0) + own
        if name == ROUND_SPAN:
            out.rounds += 1
            out.round_walls.append(duration)
    return out
