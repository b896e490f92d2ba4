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
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Domain, RunData, split_stream
from .distill import (SupportSet, ema_update, kd_loss_from_features, merge_support,
                      mmd_loss, select_support)
from .evaluation import evaluate
from .mlp import (AdamState, ClassifierHead, MLP, Parameters, adam_step,
                  save_checkpoint)
from .pseudo import (LabelGroups, contrastive_loss, cross_entropy_loss, dbscan,
                     demote_small_clusters, pk_batches, rebuild_memory, triplet_loss,
                     unit_rows)
from .runlog import (ClusterRow, EvalRow, FULL_SCOPE, LossRow, ReidMode, RunConfig,
                     RunLog, TeacherMode, parse_config)


class DegenerateStreamError(RuntimeError):
    """Clustering produced nothing usable for a task."""


class TargetRetentionError(RuntimeError):
    """Target-domain data is still reachable from the run state."""


@dataclass
class RunState:
    student: MLP
    teacher: MLP
    head_source: ClassifierHead
    source: Dataset                  # the run's, with the two below fixed by pretraining
    source_groups: LabelGroups       # source rows by identity, one group per class
    source_labels: np.ndarray        # each source row's class index
    support: SupportSet | None = None
    task_index: int = 0


@dataclass
class EvalSuite:
    """Target test set plus its per-task (query, gallery) identity slices,
    built once."""

    query: Dataset
    gallery: Dataset
    slice_ids: list[set[int]]
    slices: list[tuple[Dataset, Dataset]] = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        self.slices = [(self.query.subset_by_identity(ids),
                        self.gallery.subset_by_identity(ids)) for ids in self.slice_ids]
        for side, split in enumerate((self.query, self.gallery)):
            for k, (ids, pair) in enumerate(zip(self.slice_ids, self.slices), 1):
                if not len(pair[side]):
                    raise ValueError(
                        f"task {k} cannot be evaluated: none of its {len(ids)} "
                        f"identities has a row in the target {split.split.value} set "
                        "(every task needs query and gallery rows of its own identities)")


def audit_no_target_retention(state: RunState) -> None:
    """Raise TargetRetentionError if a target-domain dataset is reachable
    from state."""
    violations: list[str] = []
    seen: set[int] = set()

    def walk(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Dataset):
            if obj.domain is Domain.TARGET:
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


def _adam(model: Parameters, cfg: RunConfig) -> AdamState:
    return AdamState.of(model, lr_initial=cfg.lr, weight_decay=cfg.weight_decay)


def _classifier_step(head: ClassifierHead, adam: AdamState, feats: np.ndarray,
                     labels: np.ndarray, cfg: RunConfig, step: int, pos: float
                     ) -> tuple[float, float, np.ndarray]:
    """Cross-entropy through head plus batch-hard triplet on feats, and one
    Adam step of the head: the two losses and the features' gradient."""
    l_ce, g_logits = cross_entropy_loss(head.forward(feats), labels)
    head_grad, g_ce = head.backward(feats, g_logits)
    l_tri, g_tri = triplet_loss(feats, labels, cfg.triplet_margin)
    adam_step(head, head_grad, adam, step, pos)
    return l_ce, l_tri, g_ce + g_tri


# ---------------------------------------------------------------------------
# Source pre-training
# ---------------------------------------------------------------------------

def pretrain_source(source: Dataset, cfg: RunConfig,
                    rng: np.random.Generator) -> RunState:
    """Supervised pre-training (cross-entropy + triplet) on source labels.

    Returns the run state with the teacher initialized to the pre-trained
    student weights. Zero epochs returns the freshly initialized model.
    """
    source.validate()
    descriptors = source.descriptor_matrix()
    student = MLP([descriptors.shape[1], *cfg.hidden_dims],
                  seed=int(rng.integers(2**31)))
    identities = source.identities()
    groups = LabelGroups.of(identities)
    head = ClassifierHead(student.feature_dim, len(groups),
                          seed=int(rng.integers(2**31)))

    labels = np.searchsorted(groups.labels, identities)   # class index per row
    p_eff = min(cfg.batch_p, len(groups))
    if p_eff < 2:
        raise ValueError("source pre-training needs at least 2 identities")
    iters_per_epoch = max(1, math.ceil(len(source) / (p_eff * cfg.batch_k)))
    total_iters = max(1, cfg.pretrain_epochs * iters_per_epoch)

    adam, adam_head = _adam(student, cfg), _adam(head, cfg)

    # one sampler for every epoch: it draws nothing before its first batch
    batches = pk_batches(groups, p_eff, cfg.batch_k, rng)
    for it, idx in zip(range(cfg.pretrain_epochs * iters_per_epoch), batches):
        feats, cache = student.forward(descriptors[idx])
        pos = it / total_iters
        _, _, g_feat = _classifier_step(head, adam_head, feats, labels[idx], cfg, it + 1, pos)
        adam_step(student, student.backward(cache, g_feat), adam, it + 1, pos)

    teacher = MLP(student.layer_dims)
    teacher.set_params(student.params)
    return RunState(student=student, teacher=teacher, head_source=head,
                    source=source, source_groups=groups, source_labels=labels)


# ---------------------------------------------------------------------------
# Per-task adaptation
# ---------------------------------------------------------------------------

def _row_blocks(matrix: np.ndarray, parts: dict) -> dict[str, np.ndarray]:
    """matrix split into consecutive row blocks, named and sized as parts."""
    blocks, lo = {}, 0
    for name, rows in parts.items():
        blocks[name], lo = matrix[lo:lo + len(rows)], lo + len(rows)
    return blocks


# The re-id method, S2P's pluggable part; adapt_task makes one per task. epoch()
# returns every task row's label for the epoch's clustering, step() the re-id loss
# and the feature gradients of the source rows (labelled by class) and task rows.

class SpCL:
    """SpCL's hybrid memory (Ge et al., NeurIPS 2020), rebuilt every epoch. A
    task row's label is its memory slot, so outliers train as singleton classes."""

    min_clusters = 1

    def __init__(self, state: RunState, cfg: RunConfig):
        self.state, self.cfg = state, cfg

    def epoch(self, assignment, teacher_feats, rng) -> np.ndarray:
        self.memory, slots = rebuild_memory(
            self.state.source.descriptor_matrix(), self.state.source_groups, teacher_feats,
            assignment, self.state.teacher, self.cfg.memory_momentum,
            self.cfg.memory_temperature)
        return slots

    def step(self, f_src, y_src, f_tgt, y_tgt, step, pos) -> tuple[float, np.ndarray, np.ndarray]:
        l_src, g_src = contrastive_loss(f_src, y_src, self.memory)
        l_tgt, g_tgt = contrastive_loss(f_tgt, y_tgt, self.memory)
        self.memory.update(np.concatenate([y_src, y_tgt]), unit_rows(
            np.concatenate([f_src, f_tgt]), "batch feature")[0])
        return l_src + l_tgt, g_src, g_tgt


class Classifier:
    """The re-id strong baseline (Luo et al., CVPRW 2019): cross-entropy through
    a head plus batch-hard triplet, on source classes and on target clusters. A
    task row's label is its cluster or OUTLIER, so outliers are never drawn."""

    min_clusters = 2     # a triplet needs a negative

    def __init__(self, state: RunState, cfg: RunConfig):
        self.state, self.cfg = state, cfg
        self.adam_src = _adam(state.head_source, cfg)

    def epoch(self, assignment, teacher_feats, rng) -> np.ndarray:
        # DBSCAN numbers its clusters afresh every epoch, so the head and its
        # moments start afresh too
        self.head_tgt = ClassifierHead(self.state.student.feature_dim, assignment.n_clusters,
                                       seed=int(rng.integers(2**31)))
        self.adam_tgt = _adam(self.head_tgt, self.cfg)
        return assignment.labels

    def step(self, f_src, y_src, f_tgt, y_tgt, step, pos) -> tuple[float, np.ndarray, np.ndarray]:
        l_ce, l_tri, g_src = _classifier_step(self.state.head_source, self.adam_src,
                                              f_src, y_src, self.cfg, step, pos)
        l_ce_t, l_tri_t, g_tgt = _classifier_step(self.head_tgt, self.adam_tgt,
                                                  f_tgt, y_tgt, self.cfg, step, pos)
        return l_ce + l_tri + l_ce_t + l_tri_t, g_src, g_tgt


def adapt_task(state: RunState, task: Dataset, cfg: RunConfig,
               rng: np.random.Generator, runlog: RunLog,
               eval_suite: EvalSuite) -> RunState:
    """Adapt the student to one target task and evaluate at its end."""
    state.task_index += 1
    task_no = state.task_index
    tic = time.perf_counter()

    # Task-level teacher refresh happens at task start: during task t the
    # frozen modes distill from (an EMA of) the model fine-tuned through
    # task t-1; per-iteration EMA is handled inside the loop. During task 1
    # every mode keeps the source-pretrained teacher.
    if task_no > 1:
        if cfg.teacher_mode is TeacherMode.TASK_FROZEN:
            state.teacher.set_params(state.student.params)
        elif cfg.teacher_mode is TeacherMode.TASK_EMA:
            ema_update(state.teacher, state.student, cfg.alpha)

    # loop invariants: the support set is fixed for the task, so its matrix
    # and PK groups are built once here; the source groups come with the run.
    # The samplers draw lazily, so one per task over each draws from the rng
    # in the same order as per-iteration sampling: source, target, KD, MMD
    source, src_groups, src_labels = state.source, state.source_groups, state.source_labels
    task_desc = task.descriptor_matrix()
    src_desc = source.descriptor_matrix()
    src_iter = pk_batches(src_groups, min(cfg.batch_p, len(src_groups)), cfg.batch_k, rng)
    kd_on = cfg.enable_kd and state.support is not None and len(state.support) > 0
    if kd_on:
        sup_desc = state.support.descriptor_matrix()
        sup_groups = LabelGroups.of(state.support.source.identities()[state.support.rows])
        kd_iter = pk_batches(sup_groups, min(cfg.batch_p, len(sup_groups)), cfg.batch_k, rng)

    iters_per_epoch = max(1, math.ceil(len(task) / cfg.batch_size))
    total_iters = cfg.epochs_per_task * iters_per_epoch
    n_mmd = min(cfg.batch_size, len(source), len(task))
    # Adam moments start at zero every task, for every trained model; the
    # re-id method is a local, so SpCL's memory of target rows and the
    # classifier's target head die with it
    adam = _adam(state.student, cfg)
    reid = SpCL(state, cfg) if cfg.reid_mode is ReidMode.SPCL else Classifier(state, cfg)

    it_in_task = 0
    for epoch in range(cfg.epochs_per_task):
        try:
            teacher_feats = state.teacher.features(task_desc)
            assignment = demote_small_clusters(dbscan(
                teacher_feats, cfg.dbscan_percentile, cfg.dbscan_min_pts), cfg.min_cluster_size)
            if assignment.n_clusters < reid.min_clusters:
                raise DegenerateStreamError(
                    f"task {task_no} epoch {epoch}: only {assignment.n_clusters} usable "
                    f"clusters ({type(reid).__name__} needs {reid.min_clusters}; eps="
                    f"{assignment.eps_resolved:.4g}, "
                    f"outliers={assignment.outlier_fraction():.2%})")
            runlog.cluster_rows.append(ClusterRow(task_no, epoch, assignment.n_clusters,
                                                  assignment.outlier_fraction(),
                                                  assignment.eps_resolved))
            tgt_labels = reid.epoch(assignment, teacher_feats, rng)
            tgt_groups = LabelGroups.of(tgt_labels)
            # the target groups change every epoch, so its sampler does too; the
            # range comes first in zip, so no batch is drawn past the epoch
            tgt_iter = pk_batches(tgt_groups, min(cfg.batch_p, len(tgt_groups)), cfg.batch_k, rng)
            for _, src_idx, tgt_idx in zip(range(iters_per_epoch), src_iter, tgt_iter):
                pos = it_in_task / total_iters
                # the step's batches in the rng's draw order (source, target, KD,
                # MMD): one student pass over all, one teacher pass over KD and MMD
                student_in = {"src": src_desc[src_idx], "tgt": task_desc[tgt_idx]}
                teacher_in = {}
                if kd_on:
                    student_in["kd"] = teacher_in["kd"] = sup_desc[next(kd_iter)]
                if cfg.enable_mmd:
                    mmd_src = rng.choice(len(source), n_mmd, replace=False)
                    mmd_tgt = rng.choice(len(task), n_mmd, replace=False)
                    student_in["mmd"] = task_desc[mmd_tgt]
                    teacher_in["mmd"] = src_desc[mmd_src]
                feats, cache = state.student.forward(np.concatenate(list(student_in.values())))
                f, g = _row_blocks(feats, student_in), {}
                if teacher_in:
                    t = _row_blocks(state.teacher.features(
                        np.concatenate(list(teacher_in.values()))), teacher_in)

                # --- re-id loss, jointly over source and target batches; g holds
                # each block's feature gradient for the one backward pass
                l_reid, g["src"], g["tgt"] = reid.step(f["src"], src_labels[src_idx], f["tgt"],
                                                       tgt_labels[tgt_idx], it_in_task + 1, pos)

                # --- similarity-preservation KD over a support-set minibatch, and
                # MMD between teacher features of source rows and student
                # features of target rows
                l_kd, l_mmd, sigma_mmd = 0.0, 0.0, float("nan")
                if kd_on:
                    l_kd, g_kd = kd_loss_from_features(t["kd"], f["kd"])
                    g["kd"] = cfg.lambda_kd * g_kd
                if cfg.enable_mmd:
                    l_mmd, g_mmd, sigma_mmd = mmd_loss(t["mmd"], f["mmd"])
                    g["mmd"] = cfg.lambda_mmd * g_mmd

                total = l_reid + cfg.lambda_kd * l_kd + cfg.lambda_mmd * l_mmd
                grad = state.student.backward(cache, np.concatenate([g[k] for k in student_in]))
                adam_step(state.student, grad, adam, it_in_task + 1, pos)
                if cfg.teacher_mode is TeacherMode.ITER_EMA:
                    ema_update(state.teacher, state.student, cfg.alpha)

                runlog.loss_rows.append(LossRow(task_no, it_in_task, l_reid, l_kd,
                                                l_mmd, total, cfg.lr * (1.0 - pos),
                                                sigma_mmd))
                it_in_task += 1
        except FloatingPointError as e:
            raise FloatingPointError(f"task {task_no} epoch {epoch}: {e}") from e

    # --- task boundary
    fresh = select_support(task, source, state.student, cfg.support_mode)
    if cfg.accumulate_support and state.support is not None:
        state.support = merge_support(state.support, fresh, cfg.support_cap)
    else:
        state.support = fresh

    audit_no_target_retention(state)

    _evaluate_into_log(state, eval_suite, task_no, runlog)
    runlog.timings[f"task{task_no}"] = time.perf_counter() - tic
    return state


def _evaluate_into_log(state: RunState, suite: EvalSuite, task_no: int,
                       runlog: RunLog) -> None:
    """The full test set's row, then one row per task slice trained so far
    (none at task 0, the pre-trained model)."""
    scopes = [(FULL_SCOPE, (suite.query, suite.gallery))]
    scopes += [(f"task{k}", pair) for k, pair in enumerate(suite.slices[:task_no], 1)]
    for scope, (query, gallery) in scopes:
        rep = evaluate(query, gallery, state.teacher)
        runlog.eval_rows.append(EvalRow(task_no, scope, rep.map_score, rep.rank1,
                                        rep.cmc_at(5), rep.n_queries, rep.n_excluded))


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def run(cfg: RunConfig, data: RunData,
        config_snapshot: dict[str, str] | None = None,
        checkpoint_dir: str | None = None) -> RunLog:
    """Pre-train, stream the tasks in order, evaluate after each.

    Task 0 rows are the direct-inference scores of the pre-trained model.
    Past-task target data is never revisited; only the support set
    persists across task boundaries. With checkpoint_dir set, student and
    teacher parameters are snapshotted after every task; the directory is
    made at the first snapshot, so a run that fails before it leaves none.
    The run log holds cfg, or the config parsed from config_snapshot (a
    wider config's). Overflow, an invalid operation or a division by zero
    anywhere in the run raises FloatingPointError; underflow stays silent,
    since exp of very negative logits underflows by design.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        cfg.validate()
        rng = np.random.default_rng(cfg.seed)
        runlog = RunLog(cfg if config_snapshot is None else parse_config(None, config_snapshot))

        tic = time.perf_counter()
        stream = split_stream(data.target_train, cfg.n_tasks,
                              seed=int(rng.integers(2**31)))
        suite = EvalSuite(data.target_query, data.target_gallery,
                          [t.identity_set() for t in stream])
        try:
            state = pretrain_source(data.source, cfg, rng)
        except FloatingPointError as e:
            raise FloatingPointError(f"pre-training: {e}") from e
        runlog.timings["pretrain"] = time.perf_counter() - tic

        _evaluate_into_log(state, suite, 0, runlog)
        for task in stream:
            adapt_task(state, task, cfg, rng, runlog, suite)
            if checkpoint_dir is not None:
                k = state.task_index
                os.makedirs(checkpoint_dir, exist_ok=True)
                save_checkpoint(os.path.join(checkpoint_dir, f"task{k}_student.ckpt"),
                                state.student.params)
                save_checkpoint(os.path.join(checkpoint_dir, f"task{k}_teacher.ckpt"),
                                state.teacher.params)
        return runlog
