"""Per-layer tracing from outside the program.

Tracer.install wraps streamreid's public functions and methods at the
names their callers bind (trainer imports dbscan by name, so the wrapper
goes on trainer.dbscan) and records CPU time, calls and work counts per
layer. A span's self time is its time minus the wrapped calls made
inside it. Nothing in the program changes; the wrappers live only in the
traced process.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# (metric name, unit, better), in the order the README and BENCHMARK.json use
LAYER_METRICS = [
    ("cli.parse_config_s", "s", "lower"),
    ("cli.build_data_s", "s", "lower"),
    ("data.generate_synthetic_s", "s", "lower"),
    ("data.subset_by_identity_s", "s", "lower"),
    ("data.load_feature_file_s", "s", "lower"),
    ("data.load_feature_file_rows", "count", "lower"),
    ("data.descriptor_matrix_calls", "count", "lower"),
    ("data.descriptor_matrix_rows", "count", "lower"),
    ("data.descriptor_matrix_s", "s", "lower"),
    ("trainer.pretrain_source_s", "s", "lower"),
    ("trainer.adapt_task_s", "s", "lower"),
    ("trainer.adapt_task_self_s", "s", "lower"),
    ("mlp.forward_calls", "count", "lower"),
    ("mlp.forward_rows", "count", "lower"),
    ("mlp.forward_s", "s", "lower"),
    ("mlp.backward_calls", "count", "lower"),
    ("mlp.backward_s", "s", "lower"),
    ("mlp.adam_step_calls", "count", "lower"),
    ("mlp.adam_step_s", "s", "lower"),
    ("pseudo.dbscan_calls", "count", "lower"),
    ("pseudo.dbscan_points", "count", "lower"),
    ("pseudo.dbscan_s", "s", "lower"),
    ("pseudo.clusters_per_call", "count", "higher"),
    ("pseudo.outlier_fraction", "ratio", "lower"),
    ("pseudo.pk_batches_calls", "count", "lower"),
    ("pseudo.pk_batches_drawn", "count", "lower"),
    ("pseudo.pk_batches_s", "s", "lower"),
    ("pseudo.rebuild_memory_calls", "count", "lower"),
    ("pseudo.rebuild_memory_s", "s", "lower"),
    ("pseudo.memory_update_rows", "count", "lower"),
    ("pseudo.memory_update_s", "s", "lower"),
    ("pseudo.contrastive_loss_s", "s", "lower"),
    ("pseudo.triplet_loss_calls", "count", "lower"),
    ("pseudo.triplet_loss_s", "s", "lower"),
    ("pseudo.cross_entropy_loss_s", "s", "lower"),
    ("distill.select_support_s", "s", "lower"),
    ("distill.support_rows", "count", "lower"),
    ("distill.support_matrix_calls", "count", "lower"),
    ("distill.support_matrix_rows", "count", "lower"),
    ("distill.support_matrix_s", "s", "lower"),
    ("distill.support_rows_used_ratio", "ratio", "higher"),
    ("distill.merge_support_s", "s", "lower"),
    ("distill.kd_loss_s", "s", "lower"),
    ("distill.mmd_loss_calls", "count", "lower"),
    ("distill.mmd_loss_s", "s", "lower"),
    ("distill.ema_update_calls", "count", "lower"),
    ("distill.ema_update_s", "s", "lower"),
    ("evaluation.evaluate_calls", "count", "lower"),
    ("evaluation.queries", "count", "lower"),
    ("evaluation.evaluate_s", "s", "lower"),
    ("runlog.save_s", "s", "lower"),
    ("runlog.bytes_written", "B", "lower"),
]


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_seconds = [0.0]    # one accumulator per open span

    def _timed(self, key, call):
        self._child_seconds.append(0.0)
        t0 = time.process_time()
        try:
            return call()
        finally:
            dt = time.process_time() - t0
            children = self._child_seconds.pop()
            self.seconds[key] += dt
            self.self_seconds[key] += dt - children
            self._child_seconds[-1] += dt

    def wrap(self, owner, name, key, on_result=None):
        orig = getattr(owner, name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = self._timed(key, lambda: orig(*args, **kwargs))
            self.counts[key] += 1
            if on_result is not None:
                on_result(args, result)
            return result
        setattr(owner, name, wrapper)

    def wrap_generator(self, owner, name, key):
        """Time the generator's creation and every step it takes."""
        orig = getattr(owner, name)

        def steps(gen):
            while True:
                try:
                    item = self._timed(key, lambda: next(gen))
                except StopIteration:
                    return
                self.counts[f"{key}.drawn"] += 1
                yield item

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            gen = self._timed(key, lambda: orig(*args, **kwargs))
            self.counts[key] += 1
            return steps(gen)
        setattr(owner, name, wrapper)

    def add(self, key, amount):
        self.counts[key] += amount

    def peak(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    def install(self) -> None:
        from streamreid import cli, data, distill, mlp, pseudo, runlog, trainer

        self.wrap(cli, "parse_config", "parse_config")
        self.wrap(cli, "build_data", "build_data")
        self.wrap(cli, "generate_synthetic", "generate_synthetic")
        self.wrap(cli, "load_feature_file", "load_feature_file",
                  lambda a, r: self.add("load_feature_file.rows", len(r)))
        self.wrap(data.Dataset, "subset_by_identity", "subset_by_identity")
        self.wrap(data.Dataset, "descriptor_matrix", "descriptor_matrix",
                  lambda a, r: self.add("descriptor_matrix.rows", r.shape[0]))

        self.wrap(trainer, "pretrain_source", "pretrain_source")
        self.wrap(trainer, "adapt_task", "adapt_task")

        self.wrap(mlp.MLP, "forward", "forward",
                  lambda a, r: self.add("forward.rows", r[0].shape[0]))
        self.wrap(mlp.MLP, "backward", "backward")
        self.wrap(trainer, "adam_step", "adam_step")

        def clustered(args, result):
            self.add("dbscan.points", result.labels.size)
            self.add("dbscan.clusters", result.n_clusters)
            self.add("dbscan.outliers", int((result.labels == pseudo.OUTLIER).sum()))
        self.wrap(trainer, "dbscan", "dbscan", clustered)
        self.wrap_generator(trainer, "pk_batches", "pk_batches")
        self.wrap(trainer, "rebuild_memory", "rebuild_memory")
        self.wrap(pseudo.HybridMemory, "update", "memory_update",
                  lambda a, r: self.add("memory_update.rows", len(a[1])))
        self.wrap(trainer, "contrastive_loss", "contrastive_loss")
        self.wrap(trainer, "triplet_loss", "triplet_loss")
        self.wrap(trainer, "cross_entropy_loss", "cross_entropy_loss")

        self.wrap(trainer, "select_support", "select_support",
                  lambda a, r: self.peak("support.rows", len(r)))
        self.wrap(trainer, "merge_support", "merge_support",
                  lambda a, r: self.peak("support.rows", len(r)))
        self.wrap(distill.SupportSet, "descriptor_matrix", "support_matrix",
                  lambda a, r: self.add("support_matrix.rows", r.shape[0]))
        self.wrap(trainer, "kd_loss_from_features", "kd_loss",
                  lambda a, r: self.add("kd_loss.rows", len(a[1])))
        self.wrap(trainer, "mmd_loss", "mmd_loss")
        self.wrap(trainer, "ema_update", "ema_update")

        self.wrap(trainer, "evaluate", "evaluate",
                  lambda a, r: self.add("evaluate.queries", len(a[0])))

        def saved(args, result):
            for name in (runlog.LOSSES_CSV, runlog.METRICS_CSV, runlog.CLUSTERING_CSV,
                         runlog.CONFIG_TXT, runlog.TIMINGS_TXT):
                self.add("save.bytes", os.path.getsize(os.path.join(args[1], name)))
        self.wrap(runlog.RunLog, "save", "save", saved)

    def metrics(self) -> dict[str, float]:
        s, c = self.seconds, self.counts
        return {
            "cli.parse_config_s": s["parse_config"],
            "cli.build_data_s": s["build_data"],
            "data.generate_synthetic_s": s["generate_synthetic"],
            "data.subset_by_identity_s": s["subset_by_identity"],
            "data.load_feature_file_s": s["load_feature_file"],
            "data.load_feature_file_rows": c["load_feature_file.rows"],
            "data.descriptor_matrix_calls": c["descriptor_matrix"],
            "data.descriptor_matrix_rows": c["descriptor_matrix.rows"],
            "data.descriptor_matrix_s": s["descriptor_matrix"],
            "trainer.pretrain_source_s": s["pretrain_source"],
            "trainer.adapt_task_s": s["adapt_task"],
            "trainer.adapt_task_self_s": self.self_seconds["adapt_task"],
            "mlp.forward_calls": c["forward"],
            "mlp.forward_rows": c["forward.rows"],
            "mlp.forward_s": s["forward"],
            "mlp.backward_calls": c["backward"],
            "mlp.backward_s": s["backward"],
            "mlp.adam_step_calls": c["adam_step"],
            "mlp.adam_step_s": s["adam_step"],
            "pseudo.dbscan_calls": c["dbscan"],
            "pseudo.dbscan_points": c["dbscan.points"],
            "pseudo.dbscan_s": s["dbscan"],
            "pseudo.clusters_per_call": _ratio(c["dbscan.clusters"], c["dbscan"]),
            "pseudo.outlier_fraction": _ratio(c["dbscan.outliers"], c["dbscan.points"]),
            "pseudo.pk_batches_calls": c["pk_batches"],
            "pseudo.pk_batches_drawn": c["pk_batches.drawn"],
            "pseudo.pk_batches_s": s["pk_batches"],
            "pseudo.rebuild_memory_calls": c["rebuild_memory"],
            "pseudo.rebuild_memory_s": s["rebuild_memory"],
            "pseudo.memory_update_rows": c["memory_update.rows"],
            "pseudo.memory_update_s": s["memory_update"],
            "pseudo.contrastive_loss_s": s["contrastive_loss"],
            "pseudo.triplet_loss_calls": c["triplet_loss"],
            "pseudo.triplet_loss_s": s["triplet_loss"],
            "pseudo.cross_entropy_loss_s": s["cross_entropy_loss"],
            "distill.select_support_s": s["select_support"],
            "distill.support_rows": c["support.rows"],
            "distill.support_matrix_calls": c["support_matrix"],
            "distill.support_matrix_rows": c["support_matrix.rows"],
            "distill.support_matrix_s": s["support_matrix"],
            "distill.support_rows_used_ratio": _ratio(c["kd_loss.rows"],
                                                      c["support_matrix.rows"]),
            "distill.merge_support_s": s["merge_support"],
            "distill.kd_loss_s": s["kd_loss"],
            "distill.mmd_loss_calls": c["mmd_loss"],
            "distill.mmd_loss_s": s["mmd_loss"],
            "distill.ema_update_calls": c["ema_update"],
            "distill.ema_update_s": s["ema_update"],
            "evaluation.evaluate_calls": c["evaluate"],
            "evaluation.queries": c["evaluate.queries"],
            "evaluation.evaluate_s": s["evaluate"],
            "runlog.save_s": s["save"],
            "runlog.bytes_written": c["save.bytes"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
