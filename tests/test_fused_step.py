"""The fused adaptation step.

Each step of adapt_task runs the student once over the stacked batches of
all loss terms and the teacher once over its KD and MMD rows. These tests
record what the first step of a task saw and rebuild its gradient term by
term, with a forward and a backward pass per batch; and they replay the
generator draws in the per-term order: source, target, KD, then MMD.
"""

import copy
import math

import numpy as np
import pytest

from streamreid import trainer
from streamreid.data import split_stream
from streamreid.distill import kd_loss_from_features, mmd_loss
from streamreid.mlp import MLP
from streamreid.pseudo import (OUTLIER, contrastive_loss,
                               cross_entropy_loss, dbscan, demote_small_clusters,
                               triplet_loss)
from streamreid.runlog import RunLog
from streamreid.trainer import EvalSuite, ReidMode, adapt_task, pretrain_source
from tests.test_trainer import easy_synth, small_cfg


class _FirstStepTaken(Exception):
    pass


def _after_first_task(cfg, data):
    """State and generator at the start of task 2, so the support set exists,
    and the stream's evaluation suite."""
    rng = np.random.default_rng(cfg.seed)
    stream = split_stream(data.target_train, cfg.n_tasks, seed=int(rng.integers(2**31)))
    suite = EvalSuite(data.target_query, data.target_gallery,
                      [t.identity_set() for t in stream])
    state = pretrain_source(data.source, cfg, rng)
    adapt_task(state, stream[0], cfg, rng, RunLog(cfg), suite)
    return state, stream[1], rng, suite


def _record_first_step(monkeypatch, state, task, cfg, rng, suite):
    """Run adapt_task until the student's first Adam step; return what the
    step saw before any parameter moved."""
    seen = {"batches": [], "teacher_in": [], "labels": [], "heads": []}
    real_pk, real_forward = trainer.pk_batches, MLP.forward
    real_adam = trainer.adam_step
    real_contrastive, real_triplet = trainer.contrastive_loss, trainer.triplet_loss

    def pk_batches(*args):
        for batch in real_pk(*args):
            seen["batches"].append(batch)
            yield batch

    def forward(self, batch):
        if self is state.student:
            seen.setdefault("student_in", np.array(batch))
        elif self is state.teacher:
            seen["teacher_in"].append(np.array(batch))
        else:                   # a classifier head, before its step
            seen["heads"].append(copy.deepcopy(self))
        return real_forward(self, batch)

    def contrastive(feats, slots, memory):
        seen.setdefault("memory", copy.deepcopy(memory))
        seen["labels"].append(slots.copy())
        return real_contrastive(feats, slots, memory)

    def triplet(feats, labels, margin):
        seen["labels"].append(labels.copy())
        return real_triplet(feats, labels, margin)

    def adam_step(model, grad, *args):
        if model is state.student:
            seen["grad"] = grad.copy()
            raise _FirstStepTaken
        return real_adam(model, grad, *args)

    monkeypatch.setattr(trainer, "pk_batches", pk_batches)
    monkeypatch.setattr(MLP, "forward", forward)
    monkeypatch.setattr(trainer, "contrastive_loss", contrastive)
    monkeypatch.setattr(trainer, "triplet_loss", triplet)
    monkeypatch.setattr(trainer, "adam_step", adam_step)
    with pytest.raises(_FirstStepTaken):
        adapt_task(state, task, cfg, rng, RunLog(cfg), suite)
    monkeypatch.undo()
    return seen


def _term_gradient(student, rows, feature_grad):
    """The term's parameter gradient, copied out of the student's one
    gradient vector, which the next backward overwrites."""
    feats, cache = student.forward(rows)
    return student.backward(cache, feature_grad(feats)).copy()


CASES = [(mode, kd, mmd) for mode in (ReidMode.SPCL, ReidMode.STRONG_BASELINE)
         for kd in (False, True) for mmd in (False, True)]


# the ids keep the "-shared0" suffix they carried while a shared-batch MMD
# mode existed, so each case keeps its name across versions
@pytest.mark.parametrize("mode, kd, mmd", CASES,
                         ids=[f"{m.value}-kd{int(k)}-mmd{int(d)}-shared0"
                              for m, k, d in CASES])
def test_fused_gradient_is_sum_of_per_term_passes(monkeypatch, mode, kd, mmd):
    cfg = small_cfg(reid_mode=mode, enable_kd=kd, enable_mmd=mmd,
                    lambda_kd=0.7, lambda_mmd=1.3)
    data = easy_synth()
    state, task, rng, suite = _after_first_task(cfg, data)
    seen = _record_first_step(monkeypatch, state, task, cfg, rng, suite)

    src_desc, task_desc = data.source.descriptor_matrix(), task.descriptor_matrix()
    src_idx, tgt_idx = seen["batches"][:2]
    x = seen["student_in"]
    n_src, n_tgt = src_idx.size, tgt_idx.size
    assert np.array_equal(x[:n_src], src_desc[src_idx])
    assert np.array_equal(x[n_src:n_src + n_tgt], task_desc[tgt_idx])
    rest, n_kd = x[n_src + n_tgt:], 0
    student, teacher = state.student, state.teacher

    # re-id terms: one pass per batch, as the per-term step ran them
    y_src, y_tgt = seen["labels"]
    if mode is ReidMode.SPCL:
        grads = [_term_gradient(student, rows, lambda f, y=y:
                                contrastive_loss(f, y, seen["memory"])[1])
                 for rows, y in ((x[:n_src], y_src), (x[n_src:n_src + n_tgt], y_tgt))]
    else:
        def classifier_grad(head, y):
            def grad(f):
                _, g_logits = cross_entropy_loss(head.features(f), y)
                return (g_logits @ head.params["layer0.W"].T
                        + triplet_loss(f, y, cfg.triplet_margin)[1])
            return grad
        head_src, head_tgt = seen["heads"]
        grads = [_term_gradient(student, x[:n_src], classifier_grad(head_src, y_src)),
                 _term_gradient(student, x[n_src:n_src + n_tgt], classifier_grad(head_tgt, y_tgt))]
    expected = grads[0] + grads[1]

    teacher_in = seen["teacher_in"][-1] if (kd or mmd) else None
    if kd:
        kd_rows = state.support.descriptor_matrix()[seen["batches"][2]]
        n_kd = kd_rows.shape[0]
        assert np.array_equal(rest[:n_kd], kd_rows)
        assert np.array_equal(teacher_in[:n_kd], kd_rows)
        f_teacher = teacher.features(kd_rows)
        expected += cfg.lambda_kd * _term_gradient(
            student, kd_rows, lambda f: kd_loss_from_features(f_teacher, f)[1])
    if mmd:
        mmd_student, mmd_teacher = rest[n_kd:], teacher_in[n_kd:]
        assert mmd_student.shape == mmd_teacher.shape
        b_teacher = teacher.features(mmd_teacher)
        expected += cfg.lambda_mmd * _term_gradient(
            student, mmd_student, lambda f: mmd_loss(b_teacher, f)[1])
    else:
        assert rest.shape[0] == n_kd

    assert np.linalg.norm(seen["grad"] - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("mmd_off", [False, True])
def test_generator_draws_in_per_term_order(monkeypatch, mmd_off):
    cfg = small_cfg(enable_mmd=not mmd_off)
    data = easy_synth()
    state, task, rng, suite = _after_first_task(cfg, data)
    assert len(state.support) > 0
    replay = copy.deepcopy(rng)
    created, drawn = [], []
    real_pk = trainer.pk_batches

    def recorded(batches):
        for batch in batches:
            drawn.append(batch)
            yield batch

    def pk_batches(groups, p, k, gen):
        created.append((groups, p, k))
        return recorded(real_pk(groups, p, k, gen))

    monkeypatch.setattr(trainer, "pk_batches", pk_batches)
    adapt_task(state, task, cfg, rng, RunLog(cfg), suite)
    monkeypatch.undo()

    # per task: source and KD samplers; per epoch: a target sampler; per
    # step: their batches in the order source, target, KD, then the MMD
    # source and target rows
    n_mmd = min(cfg.batch_size, len(data.source), len(task))
    iters_per_epoch = max(1, math.ceil(len(task) / cfg.batch_size))
    replayed = []
    assert len(created) == 2 + cfg.epochs_per_task
    src, kd = (real_pk(g, p, k, replay) for g, p, k in created[:2])
    for g, p, k in created[2:]:
        tgt = real_pk(g, p, k, replay)
        for _ in range(iters_per_epoch):
            replayed += [next(src), next(tgt), next(kd)]
            if not mmd_off:
                replay.choice(len(data.source), n_mmd, replace=False)
                replay.choice(len(task), n_mmd, replace=False)
    assert len(replayed) == len(drawn)
    assert all(np.array_equal(a, b) for a, b in zip(replayed, drawn))
    assert replay.bit_generator.state == rng.bit_generator.state


def test_slot_labels_point_at_their_rows_slots(monkeypatch):
    # the contrastive labels of the first step index the memory bank: a
    # source row its class centroid, a clustered target row its cluster
    # centroid, an outlier row its own teacher feature. The narrow eps
    # leaves 8 of the task's 24 rows as outliers beside 6 clusters.
    cfg = small_cfg(dbscan_percentile=5.0, batch_p=8)
    data = easy_synth()
    state, task, rng, suite = _after_first_task(cfg, data)
    seen = _record_first_step(monkeypatch, state, task, cfg, rng, suite)
    slots = seen["memory"].slots()
    (src_idx, tgt_idx), (y_src, y_tgt) = seen["batches"][:2], seen["labels"]

    def unit(x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    # no parameter has moved yet, so the teacher clusters the task as the
    # step did
    task_feats = state.teacher.features(task.descriptor_matrix())
    assignment = demote_small_clusters(dbscan(
        task_feats, cfg.dbscan_percentile, cfg.dbscan_min_pts), cfg.min_cluster_size)
    task_unit = unit(task_feats)
    src_unit = unit(state.teacher.features(data.source.descriptor_matrix()))
    src_ids = data.source.identities()
    for row, y in zip(src_idx, y_src):
        centroid = unit(src_unit[src_ids == src_ids[row]].mean(axis=0))
        assert np.allclose(slots[y], centroid, rtol=0, atol=1e-12)
    labels = assignment.labels[tgt_idx]
    assert (labels == OUTLIER).any() and (labels != OUTLIER).any()
    for row, label, y in zip(tgt_idx, labels, y_tgt):
        if label == OUTLIER:
            want = task_unit[row]
        else:
            want = unit(task_unit[assignment.labels == label].mean(axis=0))
        assert np.allclose(slots[y], want, rtol=0, atol=1e-12)
