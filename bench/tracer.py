"""Span tracing from outside the program.

`Tracer.installed()` replaces public functions of the `ltreflect` modules
with wrappers that record one span per call, as (name, start_ns, end_ns,
parent_index), and restores the originals on exit. Spans stay in memory
until `write_spans`; `layer_table` turns them into per-function call
counts and self times (span time minus the time covered by child spans).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time

import numpy as np

# "<module>.<attribute path>" under the ltreflect package.
TARGETS = (
    "data.load_dataset",
    "data.augment",
    "nn.forward",
    "nn.backward",
    "nn.sgd_step",
    "losses.ce_loss",
    "losses.bsce_loss",
    "losses.soft_ce",
    "reflect.kr_batch_loss",
    "reflect.cache_update",
    "reflect.FeatureStore.add",
    "reflect.class_centers_median",
    "reflect.build_soft_labels",
    "reflect.per_class_adjacent_kl",
    "reflect.write_class_kl_series",
    "reflect.write_matrix_csv",
    "conflict.conflict_stats",
    "conflict.project_if_conflict",
    "trainer.assemble_batch_losses",
    "trainer.train_epoch",
    "trainer.evaluate",
    "trainer.write_metrics_csv",
    "trainer.write_conflicts_csv",
    "trainer.run_experiment",
    "trainer.run_ablation_grid",
    "cli.main",
    "cli.cmd_train",
    "cli.cmd_ablate",
)


def _count_kept(counters, args, result):
    # kr_batch_loss(cache, indices, cur_logits, tau): rows offered are the
    # batch indices, rows kept are those the correctness filter passes.
    cache, indices = args[0], np.asarray(args[1], dtype=np.intp)
    counters["reflect.kr_batch_loss.offered"] += indices.size
    counters["reflect.kr_batch_loss.kept"] += int(cache.correct_mask[indices].sum())


def _count_projected(counters, args, result):
    counters["conflict.project_if_conflict.projected"] += int(bool(result[1]))


# Probes run after a call's span has closed, so their cost is not in it.
PROBES = {
    "reflect.kr_batch_loss": _count_kept,
    "conflict.project_if_conflict": _count_projected,
}


def _resolve(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"ltreflect.{module}")
    for attr in path[:-1]:
        owner = getattr(owner, attr)
    return owner, path[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counters: dict[str, int] = {
            "reflect.kr_batch_loss.offered": 0,
            "reflect.kr_batch_loss.kept": 0,
            "conflict.project_if_conflict.projected": 0,
        }
        self.missing: list[str] = []
        self._stack = [-1]

    def _wrap(self, name_id, fn, probe):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if probe is not None:
                probe(counters, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; a target the program no longer
        has is listed in `missing` and reports zero calls."""
        saved = []
        try:
            for target in TARGETS:
                try:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    if target not in self.missing:
                        self.missing.append(target)
                    continue
                if target not in self.names:
                    self.names.append(target)
                wrapper = self._wrap(self.names.index(target), original, PROBES.get(target))
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per target: calls, total_ms and self_ms over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = {t: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for t in TARGETS}
        for (name_id, start, end, _), children in zip(self.spans, child_ns):
            row = table[self.names[name_id]]
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - children) / 1e6
        return table

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent"])
            for index, (name_id, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, self.names[name_id], start, end, parent])
