"""Training orchestration: source pre-training and the online task loop.

Per task, each epoch re-clusters the teacher's features of the task
samples, rebuilds the pseudo-label supervision (hybrid memory or
classifier head), and runs identity-balanced batches combining the re-id
loss with the two preservation losses. The teacher follows the student by
EMA, the learning rate decays linearly within the task, and at the task
boundary the support set for the next task is selected and the task's
target data is dropped. Evaluation always uses the teacher.

Privacy contract: after a task finishes, no target sample of that task is
reachable from the run state; audit_no_target_retention walks the state
and raises TargetRetentionError otherwise.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, Domain, Sample, split_stream
from .distill import (SupportMode, SupportSet, TeacherState, ema_update,
                      kd_loss_from_features, merge_support, mmd_loss,
                      select_support)
from .evaluation import evaluate
from .mlp import (AdamState, ClassifierHead, MLP, add_grads, adam_step,
                  save_checkpoint, scale_grads)
from .pseudo import (ClusterAssignment, DbscanParams, HybridMemory, LabelGroups,
                     OUTLIER, contrastive_loss, cross_entropy_loss, dbscan,
                     demote_small_clusters, pk_batches, rebuild_memory,
                     triplet_loss)
from .runlog import ClusterRow, EvalRow, FULL_SCOPE, LossRow, RunLog

log = logging.getLogger(__name__)


class ReidMode(Enum):
    SPCL = "SpCL"
    STRONG_BASELINE = "StrongBaseline"


class TeacherMode(Enum):
    TASK_FROZEN = "TaskFrozen"
    TASK_EMA = "TaskEMA"
    ITER_EMA = "IterEMA"


class DegenerateStreamError(RuntimeError):
    """Clustering produced nothing usable for a task."""


class TargetRetentionError(RuntimeError):
    """Target-domain data is still reachable from the run state."""


@dataclass
class RunConfig:
    n_tasks: int = 5
    epochs_per_task: int = 20
    pretrain_epochs: int = 20
    batch_p: int = 16
    batch_k: int = 4
    lr: float = 3.5e-4
    weight_decay: float = 5e-4
    alpha: float = 0.999
    lambda_kd: float = 1.0
    lambda_mmd: float = 1.0
    enable_kd: bool = True
    enable_mmd: bool = True
    reid_mode: ReidMode = ReidMode.SPCL
    support_mode: SupportMode = SupportMode.IDENTITY_EXPANDED
    teacher_mode: TeacherMode = TeacherMode.ITER_EMA
    accumulate_support: bool = False
    support_cap: int = 0
    shared_batches: bool = False
    triplet_margin: float = 0.3
    memory_momentum: float = 0.2
    memory_temperature: float = 0.05
    dbscan_percentile: float = 2.0
    dbscan_min_pts: int = 4
    min_cluster_size: int = 4
    hidden_dims: tuple[int, ...] = (64, 32)
    seed: int = 0

    @property
    def batch_size(self) -> int:
        return self.batch_p * self.batch_k

    def validate(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if min(self.n_tasks, self.epochs_per_task, self.batch_p, self.batch_k) < 1:
            raise ValueError("n_tasks, epochs_per_task, batch_p, batch_k must be >= 1")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if self.lr <= 0 or self.weight_decay < 0:
            raise ValueError("lr must be positive, weight_decay non-negative")
        if self.lambda_kd < 0 or self.lambda_mmd < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 < self.dbscan_percentile < 100.0:
            raise ValueError("dbscan_percentile must lie in (0, 100)")
        if not 0.0 <= self.memory_momentum < 1.0:
            raise ValueError("memory_momentum must lie in [0, 1)")
        if self.memory_temperature <= 0:
            raise ValueError("memory_temperature must be positive")
        if self.min_cluster_size < 1 or self.dbscan_min_pts < 1:
            raise ValueError("cluster size floors must be >= 1")
        if self.support_cap < 0:
            raise ValueError("support_cap must be >= 0")
        if not self.hidden_dims:
            raise ValueError("need at least one hidden layer dimension")


@dataclass
class RunState:
    student: MLP
    teacher: TeacherState
    head_source: ClassifierHead
    source_class_ids: list[int]
    head_target: ClassifierHead | None = None
    memory: HybridMemory | None = None
    support: SupportSet | None = None
    task_index: int = 0
    iteration: int = 0
    current_task_data: Dataset | None = None


@dataclass
class EvalSuite:
    """Target test set plus its per-task identity slices."""

    query: Dataset
    gallery: Dataset
    slice_ids: list[set[int]]

    def slice(self, task_number: int) -> tuple[Dataset, Dataset]:
        ids = self.slice_ids[task_number - 1]
        return self.query.subset_by_identity(ids), self.gallery.subset_by_identity(ids)


def audit_no_target_retention(state: RunState) -> None:
    """Raise TargetRetentionError if a target-domain sample or dataset is
    reachable from state."""
    violations: list[str] = []
    seen: set[int] = set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Sample):
            if obj.domain is Domain.TARGET:
                violations.append(path)
        elif isinstance(obj, Dataset):
            if obj.samples and obj.domain is Domain.TARGET:
                violations.append(path)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")
        elif isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}[{k!r}]")
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}")

    walk(state, "state")
    if violations:
        shown = ", ".join(violations[:3]) + (", ..." if len(violations) > 3 else "")
        raise TargetRetentionError(f"target samples retained after task end at "
                                   f"{len(violations)} path(s): {shown}")


# ---------------------------------------------------------------------------
# Source pre-training
# ---------------------------------------------------------------------------

def pretrain_source(source: Dataset, cfg: RunConfig,
                    rng: np.random.Generator | None = None) -> RunState:
    """Supervised pre-training (cross-entropy + triplet) on source labels.

    Returns the run state with the teacher initialized to the pre-trained
    student weights. Zero epochs returns the freshly initialized model.
    """
    cfg.validate()
    source.validate()
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    d_in = source.samples[0].descriptor.shape[0]
    student = MLP([d_in, *cfg.hidden_dims], seed=int(rng.integers(2**31)))
    identities = source.identities()
    groups = LabelGroups.of(identities)
    head = ClassifierHead(student.feature_dim, len(groups),
                          seed=int(rng.integers(2**31)))

    descriptors = source.descriptor_matrix()
    labels = np.searchsorted(groups.labels, identities)   # class index per row
    p_eff = min(cfg.batch_p, len(groups))
    if p_eff < 2:
        raise ValueError("source pre-training needs at least 2 identities")
    iters_per_epoch = max(1, math.ceil(len(source) / (p_eff * cfg.batch_k)))
    total_iters = max(1, cfg.pretrain_epochs * iters_per_epoch)

    params = dict(student.params)
    params["head.W"] = head.params["W"]
    params["head.b"] = head.params["b"]
    adam = AdamState(lr_initial=cfg.lr, weight_decay=cfg.weight_decay)

    it = 0
    for _ in range(cfg.pretrain_epochs):
        for idx in pk_batches(groups, p_eff, cfg.batch_k, rng, iters_per_epoch):
            feats, cache = student.forward(descriptors[idx])
            y = labels[idx]
            logits = head.forward(feats)
            l_ce, g_logits = cross_entropy_loss(logits, y)
            head_grads, g_feat_ce = head.backward(feats, g_logits)
            l_tri, g_feat_tri = triplet_loss(feats, y, cfg.triplet_margin)
            grads = student.backward(cache, g_feat_ce + g_feat_tri)
            grads["head.W"] = head_grads["W"]
            grads["head.b"] = head_grads["b"]
            adam_step(params, grads, adam, schedule_position=it / total_iters)
            student.mark_updated()
            it += 1

    teacher = TeacherState.from_student(student, cfg.alpha)
    return RunState(student=student, teacher=teacher, head_source=head,
                    source_class_ids=groups.labels.tolist())


# ---------------------------------------------------------------------------
# Per-task adaptation
# ---------------------------------------------------------------------------

def _cluster_task(state: RunState, task_descriptors: np.ndarray,
                  cfg: RunConfig) -> tuple[ClusterAssignment, np.ndarray]:
    """Cluster the task with the teacher's features; demote small clusters."""
    teacher_feats = state.teacher.model.features(task_descriptors)
    raw = dbscan(teacher_feats, DbscanParams(percentile=cfg.dbscan_percentile,
                                             min_pts=cfg.dbscan_min_pts))
    assignment = demote_small_clusters(raw, cfg.min_cluster_size)
    return assignment, teacher_feats


def _sampler_labels(assignment: ClusterAssignment, reid_mode: ReidMode) -> np.ndarray:
    """Pseudo-labels for the PK sampler. The contrastive mode trains on
    outliers too, as singleton instance classes; the classifier mode never
    samples them."""
    labels = assignment.labels.copy()
    if reid_mode is ReidMode.SPCL:
        outlier_rows = np.flatnonzero(labels == OUTLIER)
        labels[outlier_rows] = assignment.n_clusters + np.arange(outlier_rows.size)
    return labels


def adapt_task(state: RunState, task: Dataset, source: Dataset, cfg: RunConfig,
               rng: np.random.Generator, runlog: RunLog,
               eval_suite: EvalSuite | None = None) -> RunState:
    """Adapt the student to one target task and evaluate at its end."""
    state.task_index += 1
    task_no = state.task_index
    state.current_task_data = task
    tic = time.perf_counter()

    # Task-level teacher refresh happens at task start: during task t the
    # frozen modes distill from (an EMA of) the model fine-tuned through
    # task t-1; per-iteration EMA is handled inside the loop. During task 1
    # every mode keeps the source-pretrained teacher.
    if task_no > 1:
        if cfg.teacher_mode is TeacherMode.TASK_FROZEN:
            state.teacher.model.set_params(state.student.copy_params())
        elif cfg.teacher_mode is TeacherMode.TASK_EMA:
            ema_update(state.teacher, state.student.params)

    # loop invariants: the source set is fixed for the run and the support
    # set for the task, so their matrices and PK groups are built once here
    task_desc = task.descriptor_matrix()
    src_desc = source.descriptor_matrix()
    src_identities = source.identities()
    src_groups = LabelGroups.of(src_identities)
    if src_groups.labels.tolist() != state.source_class_ids:
        raise ValueError("source identities differ from the pre-trained ones")
    src_labels = np.searchsorted(src_groups.labels, src_identities)   # class index
    p_src = min(cfg.batch_p, len(src_groups))
    kd_on = cfg.enable_kd and state.support is not None and len(state.support) > 0
    if kd_on:
        sup_desc = state.support.descriptor_matrix()
        sup_groups = LabelGroups.of(np.array([s.identity for s in state.support.entries]))
        p_kd = min(cfg.batch_p, len(sup_groups))

    iters_per_epoch = max(1, math.ceil(len(task) / cfg.batch_size))
    total_iters = cfg.epochs_per_task * iters_per_epoch
    adam = AdamState(lr_initial=cfg.lr, weight_decay=cfg.weight_decay)
    params = dict(state.student.params)
    if cfg.reid_mode is ReidMode.STRONG_BASELINE:
        params["head_src.W"] = state.head_source.params["W"]
        params["head_src.b"] = state.head_source.params["b"]

    it_in_task = 0
    for epoch in range(cfg.epochs_per_task):
        assignment, teacher_feats = _cluster_task(state, task_desc, cfg)
        if assignment.n_clusters == 0:
            raise DegenerateStreamError(
                f"task {task_no} epoch {epoch}: clustering produced zero clusters "
                f"(eps={assignment.eps_resolved:.4g}, "
                f"outliers={assignment.outlier_fraction():.2%})"
            )
        runlog.cluster_rows.append(ClusterRow(task_no, epoch, assignment.n_clusters,
                                              assignment.outlier_fraction(),
                                              assignment.eps_resolved))
        if cfg.reid_mode is ReidMode.SPCL:
            state.memory = rebuild_memory(state.memory, src_desc, src_groups,
                                          teacher_feats, assignment,
                                          state.teacher.model,
                                          cfg.memory_momentum,
                                          cfg.memory_temperature)
            src_slots = state.memory.source_slots(src_identities)
            task_slots = state.memory.task_slots(assignment.labels)
        else:
            if (state.head_target is None
                    or state.head_target.n_classes != assignment.n_clusters):
                state.head_target = ClassifierHead(
                    state.student.feature_dim, assignment.n_clusters,
                    seed=int(rng.integers(2**31)))
                for stale in ("head_tgt.W", "head_tgt.b"):
                    adam.m.pop(stale, None)
                    adam.v.pop(stale, None)
                log.info("task %d epoch %d: classifier head rebuilt for %d clusters",
                         task_no, epoch, assignment.n_clusters)
            params["head_tgt.W"] = state.head_target.params["W"]
            params["head_tgt.b"] = state.head_target.params["b"]

        tgt_groups = LabelGroups.of(_sampler_labels(assignment, cfg.reid_mode))
        p_tgt = min(cfg.batch_p, len(tgt_groups))
        if cfg.reid_mode is ReidMode.STRONG_BASELINE and p_tgt < 2:
            raise DegenerateStreamError(
                f"task {task_no} epoch {epoch}: only {len(tgt_groups)} usable clusters")

        # the generators draw lazily, so the rng is consumed in the same
        # order as per-iteration sampling: source, target, KD, then MMD
        src_iter = pk_batches(src_groups, p_src, cfg.batch_k, rng, iters_per_epoch)
        tgt_iter = pk_batches(tgt_groups, p_tgt, cfg.batch_k, rng, iters_per_epoch)
        if kd_on:
            kd_iter = pk_batches(sup_groups, p_kd, cfg.batch_k, rng, iters_per_epoch)
        for src_idx, tgt_idx in zip(src_iter, tgt_iter):
            pos = it_in_task / total_iters
            grad_sets = []
            memory_update = None

            # --- re-id loss, jointly over source and target batches
            feats_s, cache_s = state.student.forward(src_desc[src_idx])
            feats_t, cache_t = state.student.forward(task_desc[tgt_idx])
            if cfg.reid_mode is ReidMode.SPCL:
                slots_s = src_slots[src_idx]
                slots_t = task_slots[tgt_idx]
                l_reid_s, gf_s = contrastive_loss(feats_s, slots_s, state.memory)
                l_reid_t, gf_t = contrastive_loss(feats_t, slots_t, state.memory)
                l_reid = l_reid_s + l_reid_t
                grad_sets.append(state.student.backward(cache_s, gf_s))
                grad_sets.append(state.student.backward(cache_t, gf_t))
                unit_s = feats_s / np.linalg.norm(feats_s, axis=1, keepdims=True)
                unit_t = feats_t / np.linalg.norm(feats_t, axis=1, keepdims=True)
                memory_update = (np.concatenate([slots_s, slots_t]),
                                 np.vstack([unit_s, unit_t]))
            else:
                y_s = src_labels[src_idx]
                logits_s = state.head_source.forward(feats_s)
                l_ce_s, gl_s = cross_entropy_loss(logits_s, y_s)
                hg_s, gf_ce_s = state.head_source.backward(feats_s, gl_s)
                l_tri_s, gf_tri_s = triplet_loss(feats_s, y_s, cfg.triplet_margin)
                g_s = state.student.backward(cache_s, gf_ce_s + gf_tri_s)
                g_s["head_src.W"] = hg_s["W"]
                g_s["head_src.b"] = hg_s["b"]

                y_t = assignment.labels[tgt_idx]
                logits_t = state.head_target.forward(feats_t)
                l_ce_t, gl_t = cross_entropy_loss(logits_t, y_t)
                hg_t, gf_ce_t = state.head_target.backward(feats_t, gl_t)
                l_tri_t, gf_tri_t = triplet_loss(feats_t, y_t, cfg.triplet_margin)
                g_t = state.student.backward(cache_t, gf_ce_t + gf_tri_t)
                g_t["head_tgt.W"] = hg_t["W"]
                g_t["head_tgt.b"] = hg_t["b"]
                l_reid = l_ce_s + l_tri_s + l_ce_t + l_tri_t
                grad_sets.extend([g_s, g_t])

            # --- similarity-preservation KD over a support-set minibatch
            l_kd = 0.0
            if kd_on:
                kd_idx = next(kd_iter)
                f_teacher = state.teacher.model.features(sup_desc[kd_idx])
                f_student, cache_kd = state.student.forward(sup_desc[kd_idx])
                l_kd, gf_kd = kd_loss_from_features(f_teacher, f_student)
                grad_sets.append(scale_grads(
                    state.student.backward(cache_kd, gf_kd), cfg.lambda_kd))

            # --- MMD: teacher on source batch, student on target batch
            l_mmd = 0.0
            sigma_mmd = float("nan")
            if cfg.enable_mmd:
                if cfg.shared_batches:
                    n_mmd = min(src_idx.size, tgt_idx.size)
                    mmd_src, mmd_tgt = src_idx[:n_mmd], tgt_idx[:n_mmd]
                else:
                    n_mmd = min(cfg.batch_size, len(source), len(task))
                    mmd_src = rng.choice(len(source), n_mmd, replace=False)
                    mmd_tgt = rng.choice(len(task), n_mmd, replace=False)
                b_teacher = state.teacher.model.features(src_desc[mmd_src])
                b_student, cache_m = state.student.forward(task_desc[mmd_tgt])
                l_mmd, gf_m, sigma_mmd = mmd_loss(b_teacher, b_student)
                grad_sets.append(scale_grads(
                    state.student.backward(cache_m, gf_m), cfg.lambda_mmd))

            total = l_reid + cfg.lambda_kd * l_kd + cfg.lambda_mmd * l_mmd
            adam_step(params, add_grads(*grad_sets), adam, schedule_position=pos)
            state.student.mark_updated()
            if memory_update is not None:
                state.memory.update(*memory_update)
            if cfg.teacher_mode is TeacherMode.ITER_EMA:
                ema_update(state.teacher, state.student.params)

            runlog.loss_rows.append(LossRow(task_no, it_in_task, l_reid, l_kd,
                                            l_mmd, total, cfg.lr * (1.0 - pos),
                                            sigma_mmd))
            it_in_task += 1
            state.iteration += 1

    # --- task boundary
    fresh = select_support(task, source, state.student, cfg.support_mode,
                           built_from_task=task_no)
    if cfg.accumulate_support and state.support is not None:
        state.support = merge_support(state.support, fresh, cfg.support_cap)
    else:
        state.support = fresh

    state.current_task_data = None
    state.memory = None          # rebuilt from scratch next task
    audit_no_target_retention(state)

    if eval_suite is not None:
        _evaluate_into_log(state, eval_suite, task_no, runlog)
    runlog.timings[f"task{task_no}"] = time.perf_counter() - tic
    return state


def _evaluate_into_log(state: RunState, suite: EvalSuite, task_no: int,
                       runlog: RunLog) -> None:
    report = evaluate(suite.query, suite.gallery, state.teacher.model)
    runlog.eval_rows.append(EvalRow(task_no, FULL_SCOPE, report.map_score,
                                    report.rank1, report.cmc_at(5),
                                    report.n_queries, report.n_excluded))
    for k in range(1, min(task_no, len(suite.slice_ids)) + 1):
        q_k, g_k = suite.slice(k)
        rep = evaluate(q_k, g_k, state.teacher.model)
        runlog.eval_rows.append(EvalRow(task_no, f"task{k}", rep.map_score,
                                        rep.rank1, rep.cmc_at(5),
                                        rep.n_queries, rep.n_excluded))


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

@dataclass
class RunData:
    source: Dataset
    target_train: Dataset
    target_query: Dataset
    target_gallery: Dataset


def run(cfg: RunConfig, data: RunData,
        config_snapshot: dict[str, str] | None = None,
        checkpoint_dir: str | None = None) -> RunLog:
    """Pre-train, stream the tasks in order, evaluate after each.

    Task 0 rows are the direct-inference scores of the pre-trained model.
    Past-task target data is never revisited; only the support set
    persists across task boundaries. With checkpoint_dir set, student and
    teacher parameters are snapshotted after every task.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    snapshot = config_snapshot if config_snapshot is not None else {
        f.name: _config_value_to_str(getattr(cfg, f.name))
        for f in dataclasses.fields(RunConfig)
    }
    runlog = RunLog(config=snapshot, seed=cfg.seed)

    tic = time.perf_counter()
    stream = split_stream(data.target_train, cfg.n_tasks,
                          seed=int(rng.integers(2**31)))
    state = pretrain_source(data.source, cfg, rng)
    runlog.timings["pretrain"] = time.perf_counter() - tic

    suite = EvalSuite(data.target_query, data.target_gallery,
                      [t.identity_set() for t in stream.tasks])
    report0 = evaluate(suite.query, suite.gallery, state.teacher.model)
    runlog.eval_rows.append(EvalRow(0, FULL_SCOPE, report0.map_score,
                                    report0.rank1, report0.cmc_at(5),
                                    report0.n_queries, report0.n_excluded))

    for task in stream.tasks:
        adapt_task(state, task, data.source, cfg, rng, runlog, suite)
        if checkpoint_dir is not None:
            k = state.task_index
            save_checkpoint(os.path.join(checkpoint_dir, f"task{k}_student.ckpt"),
                            state.student.params)
            save_checkpoint(os.path.join(checkpoint_dir, f"task{k}_teacher.ckpt"),
                            state.teacher.model.params)
    return runlog


def _config_value_to_str(v) -> str:
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)
