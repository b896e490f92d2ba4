import dataclasses
import gc
import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

import streamreid
from streamreid import trainer
from streamreid.data import Domain, SynthConfig, generate_synthetic, split_stream
from streamreid.distill import SupportMode, select_support
from streamreid.evaluation import evaluate
from streamreid.mlp import MLP, ClassifierHead
from streamreid.pseudo import LabelGroups
from streamreid.runlog import RunLog
from streamreid.trainer import (DegenerateStreamError, EvalSuite, ReidMode,
                                RunConfig, RunState,
                                TargetRetentionError, TeacherMode, adapt_task,
                                audit_no_target_retention, pretrain_source, run)
from tests.conftest import make_dataset


def easy_synth(seed=5, ids=12, d=8):
    cfg = SynthConfig(
        synth_source_ids=ids, synth_target_ids=ids, synth_samples_per_id=6,
        synth_dim=d, synth_intra_std=0.08, synth_shift_kind="identity",
        synth_cameras=2, synth_camera_jitter=0.03, synth_seed=seed,
    )
    return generate_synthetic(cfg)[0]


def small_cfg(**overrides):
    kw = dict(n_tasks=2, epochs_per_task=3, pretrain_epochs=4, batch_p=4,
              batch_k=2, lr=2e-3, dbscan_percentile=20.0, dbscan_min_pts=2,
              min_cluster_size=2, seed=0)
    kw.update(overrides)
    return RunConfig(**kw)


def nearest_centroid_accuracy(dataset):
    """Linear oracle: classify each sample by the nearest class centroid."""
    mat = dataset.descriptor_matrix()
    ids = dataset.identities()
    centroids = {i: mat[ids == i].mean(axis=0) for i in set(ids.tolist())}
    keys = sorted(centroids)
    cents = np.stack([centroids[k] for k in keys])
    hits = 0
    for row, ident in zip(mat, ids):
        pred = keys[int(np.argmin(np.sum((cents - row) ** 2, axis=1)))]
        hits += int(pred == ident)
    return hits / len(ids)


class TestPretrain:
    def test_zero_epochs_returns_initialization(self):
        data = easy_synth()
        cfg = small_cfg(pretrain_epochs=0)
        state = pretrain_source(data.source, cfg, np.random.default_rng(cfg.seed))
        # replicate the seeded initialization path
        rng = np.random.default_rng(0)
        expected = MLP([8, 64, 32], seed=int(rng.integers(2**31)))
        for k in expected.params:
            assert np.array_equal(state.student.params[k], expected.params[k])

    def test_same_seed_identical_checkpoints(self):
        data = easy_synth()
        cfg = small_cfg()
        a = pretrain_source(data.source, cfg, np.random.default_rng(cfg.seed))
        b = pretrain_source(data.source, cfg, np.random.default_rng(cfg.seed))
        for k in a.student.params:
            assert np.array_equal(a.student.params[k], b.student.params[k])
            assert np.array_equal(a.teacher.params[k], b.teacher.params[k])

    def test_separable_source_reaches_high_map(self):
        data = easy_synth()
        # oracle check that the instance really is separable
        assert nearest_centroid_accuracy(data.source) >= 0.99
        cfg = small_cfg(pretrain_epochs=20)
        state = pretrain_source(data.source, cfg, np.random.default_rng(cfg.seed))
        report = evaluate(data.source, data.source, state.teacher)
        assert report.map_score >= 0.95

    def test_teacher_initialized_to_student(self):
        data = easy_synth()
        cfg = small_cfg()
        state = pretrain_source(data.source, cfg, np.random.default_rng(cfg.seed))
        for k in state.student.params:
            assert np.array_equal(state.teacher.params[k],
                                  state.student.params[k])


def run_one(cfg, data):
    return run(cfg, data)


class TestAdaptTask:
    def _manual_run(self, cfg, data, n_tasks=None):
        rng = np.random.default_rng(cfg.seed)
        stream = split_stream(data.target_train, cfg.n_tasks,
                              seed=int(rng.integers(2**31)))
        state = pretrain_source(data.source, cfg, rng)
        suite = EvalSuite(data.target_query, data.target_gallery,
                          [t.identity_set() for t in stream])
        runlog = RunLog(cfg)
        tasks = stream[:n_tasks] if n_tasks else stream
        return state, suite, runlog, tasks, rng

    def test_suite_rejects_a_task_without_gallery_rows(self):
        data = easy_synth()
        stream = split_stream(data.target_train, 2, seed=0)
        ids = [t.identity_set() for t in stream]
        gallery = data.target_gallery.subset_by_identity(ids[0])
        with pytest.raises(ValueError, match="task 2 cannot be evaluated.*target gallery set"):
            EvalSuite(data.target_query, gallery, ids)

    def test_disabled_losses_log_zero(self):
        data = easy_synth()
        log = run_one(small_cfg(enable_kd=False, enable_mmd=False), data)
        assert all(r.l_kd == 0.0 and r.l_mmd == 0.0 for r in log.loss_rows)
        assert all(r.total == r.l_reid for r in log.loss_rows)

    def test_kd_zero_when_teacher_tracks_exactly(self):
        # alpha = 0 makes the teacher a copy of the student after every
        # step, so both similarity matrices coincide and KD vanishes
        data = easy_synth()
        log = run_one(small_cfg(alpha=0.0, enable_mmd=False), data)
        assert all(r.l_kd == 0.0 for r in log.loss_rows)

    def test_kd_skipped_during_first_task(self):
        data = easy_synth()
        log = run_one(small_cfg(), data)
        assert all(r.l_kd == 0.0 for r in log.loss_rows if r.task == 1)
        assert any(r.l_kd > 0.0 for r in log.loss_rows if r.task == 2)

    def test_linear_lr_schedule_with_per_task_reset(self):
        data = easy_synth()
        cfg = small_cfg()
        log = run_one(cfg, data)
        by_task = {}
        for r in log.loss_rows:
            by_task.setdefault(r.task, []).append(r)
        for rows in by_task.values():
            total = len(rows)
            for i, r in enumerate(rows):
                assert r.iteration == i
                assert r.lr == pytest.approx(cfg.lr * (1 - i / total), abs=0)

    def test_loss_accounting_exact(self):
        data = easy_synth()
        cfg = small_cfg(lambda_kd=0.7, lambda_mmd=1.3)
        log = run_one(cfg, data)
        for r in log.loss_rows:
            assert r.total == r.l_reid + 0.7 * r.l_kd + 1.3 * r.l_mmd

    def test_support_set_lifecycle(self):
        data = easy_synth()
        cfg = small_cfg()
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        assert state.support is None
        adapt_task(state, tasks[0], cfg, rng, runlog, suite)
        assert state.support is not None
        first_ids = state.support.identities()
        adapt_task(state, tasks[1], cfg, rng, runlog, suite)
        # without accumulation the support set is the one selected for the
        # task just finished, by the student as it left that task
        fresh = select_support(tasks[1], data.source, state.student, cfg.support_mode)
        assert np.array_equal(state.support.rows, fresh.rows)
        # the support set indexes the run's source rows, nothing else
        assert state.support.source is data.source
        assert state.support.identities() == \
            set(data.source.identities()[state.support.rows].tolist())
        assert first_ids  # sanity: something was selected

    def test_accumulating_support_unions_identities(self):
        data = easy_synth()
        base = small_cfg()
        acc = small_cfg(accumulate_support=True)
        log_plain, log_acc = None, None
        state_b, suite, runlog_b, tasks, rng_b = self._manual_run(base, data)
        for t in tasks:
            adapt_task(state_b, t, base, rng_b, runlog_b, suite)
        state_a, suite_a, runlog_a, tasks_a, rng_a = self._manual_run(acc, data)
        for t in tasks_a:
            adapt_task(state_a, t, acc, rng_a, runlog_a, suite_a)
        assert state_a.support.identities() >= state_b.support.identities()

    def test_privacy_audit_passes_and_detects_violation(self):
        data = easy_synth()
        cfg = small_cfg()
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        adapt_task(state, tasks[0], cfg, rng, runlog, suite)
        audit_no_target_retention(state)  # must not raise
        # a task left inside a list of the support set, one level down
        state.support.identity_order.append(tasks[0])
        with pytest.raises(TargetRetentionError,
                           match=r"target samples retained .*state\.support\.identity_order\[\d+\]"):
            audit_no_target_retention(state)

    def test_privacy_audit_finds_target_data_inside_the_support_set(self):
        data = easy_synth()
        cfg = small_cfg()
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        adapt_task(state, tasks[0], cfg, rng, runlog, suite)
        audit_no_target_retention(state)  # must not raise
        # SupportSet rejects a target source at construction; plant one after
        state.support.source = tasks[0]
        with pytest.raises(TargetRetentionError, match=r"state\.support\.source"):
            audit_no_target_retention(state)

    def test_privacy_audit_holds_under_python_O(self):
        # python -O strips assert statements; the audit must still raise
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from streamreid.data import Dataset, Domain, Split
            from streamreid.mlp import MLP, ClassifierHead
            from streamreid.pseudo import LabelGroups
            from streamreid.trainer import (RunState, TargetRetentionError,
                                            audit_no_target_retention)
            assert False, "asserts are live"
            student = MLP([2, 2], seed=0)
            source = Dataset(np.ones((2, 2)), [0, 1], [0, 0], Domain.SOURCE, Split.TRAIN)
            state = RunState(student, MLP([2, 2], seed=1), ClassifierHead(2, 2),
                             source, LabelGroups.of([0, 1]), np.arange(2))
            state.source = Dataset(
                np.ones((1, 2)), [0], [0], Domain.TARGET, Split.TRAIN)
            try:
                audit_no_target_retention(state)
            except TargetRetentionError as e:
                print("raised:", e)
                sys.exit(0)
            sys.exit(1)
        """)
        src = os.path.dirname(os.path.dirname(streamreid.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "raised: target samples retained" in proc.stdout
        assert "state.source" in proc.stdout

    def test_privacy_audit_reaches_every_run_state_field(self):
        # a target dataset planted in any field, present or future, is found,
        # also as a dict value or inside a tuple or a list
        student = MLP([2, 2], seed=0)
        source = make_dataset(np.ones((2, 2)), [0, 1])
        state = RunState(student, MLP([2, 2], seed=1), ClassifierHead(2, 2),
                         source, LabelGroups.of([0, 1]), np.arange(2))
        audit_no_target_retention(state)  # must not raise
        target = make_dataset(np.ones((1, 2)), [0], domain=Domain.TARGET)
        plants = [(target, ""), ({"kept": target}, r"\['kept'\]"),
                  ((0, target), r"\[1\]"), ([target], r"\[0\]")]
        for f in dataclasses.fields(RunState):
            for plant, suffix in plants:
                planted = dataclasses.replace(state, **{f.name: plant})
                with pytest.raises(TargetRetentionError,
                                   match=rf"path\(s\): state\.{f.name}{suffix}$"):
                    audit_no_target_retention(planted)

    def test_run_audits_the_state_after_every_task(self, monkeypatch):
        # target rows left in the run state during a task stop trainer.run
        # itself; a run that no longer audits would finish
        real_select = trainer.select_support

        def select_support(task, *args):
            support = real_select(task, *args)
            support.source = task   # SupportSet rejects this at construction
            return support

        monkeypatch.setattr(trainer, "select_support", select_support)
        with pytest.raises(TargetRetentionError, match=r"state\.support\.source"):
            run(small_cfg(n_tasks=1), easy_synth())

    def test_no_hybrid_memory_outlives_its_task(self, monkeypatch):
        # the memory holds the task's outlier features, so nothing may keep
        # it once adapt_task returns
        data = easy_synth()
        cfg = small_cfg()
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        memories, real_rebuild = [], trainer.rebuild_memory

        def rebuild_memory(*args):
            memory, slots = real_rebuild(*args)
            memories.append(weakref.ref(memory))
            return memory, slots

        monkeypatch.setattr(trainer, "rebuild_memory", rebuild_memory)
        for task in tasks:
            adapt_task(state, task, cfg, rng, runlog, suite)
            gc.collect()
            assert len(memories) == cfg.epochs_per_task * state.task_index
            assert all(ref() is None for ref in memories)

    def test_no_classifier_head_outlives_its_task(self, monkeypatch):
        # DBSCAN numbers its clusters afresh every epoch, so each epoch
        # trains a target head of its own, and none is kept once
        # adapt_task returns
        data = easy_synth()
        cfg = small_cfg(reid_mode=ReidMode.STRONG_BASELINE)
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        heads, real_head = [], trainer.ClassifierHead

        def classifier_head(*args, **kwargs):
            head = real_head(*args, **kwargs)
            heads.append(weakref.ref(head))
            return head

        monkeypatch.setattr(trainer, "ClassifierHead", classifier_head)
        for task in tasks:
            adapt_task(state, task, cfg, rng, runlog, suite)
            gc.collect()
            assert len(heads) == cfg.epochs_per_task * state.task_index
            assert all(ref() is None for ref in heads)

    def test_teacher_mode_task_frozen_refreshes_at_task_start(self):
        data = easy_synth()
        cfg = small_cfg(teacher_mode=TeacherMode.TASK_FROZEN)
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        pre_params = {k: v.copy() for k, v in state.teacher.params.items()}
        adapt_task(state, tasks[0], cfg, rng, runlog, suite)
        # during and after task 1 the teacher is still the pretrained model
        for k in pre_params:
            assert np.array_equal(state.teacher.params[k], pre_params[k])
        student_after_1 = {k: v.copy() for k, v in state.student.params.items()}
        adapt_task(state, tasks[1], cfg, rng, runlog, suite)
        # task 2 trained against the task-1 snapshot
        for k in student_after_1:
            assert np.array_equal(state.teacher.params[k], student_after_1[k])

    def test_task_frozen_refresh_keeps_parameter_views(self):
        data = easy_synth()
        cfg = small_cfg(teacher_mode=TeacherMode.TASK_FROZEN,
                        reid_mode=ReidMode.STRONG_BASELINE)
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        for task in tasks:      # the second task starts with the refresh
            adapt_task(state, task, cfg, rng, runlog, suite)
        for model in (state.student, state.teacher, state.head_source):
            for name, block in model.params.items():
                assert np.shares_memory(block, model.theta), name

    def test_teacher_mode_task_ema_single_boundary_step(self):
        data = easy_synth()
        cfg = small_cfg(teacher_mode=TeacherMode.TASK_EMA, alpha=0.5)
        state, suite, runlog, tasks, rng = self._manual_run(cfg, data)
        pre = {k: v.copy() for k, v in state.teacher.params.items()}
        adapt_task(state, tasks[0], cfg, rng, runlog, suite)
        student_1 = {k: v.copy() for k, v in state.student.params.items()}
        adapt_task(state, tasks[1], cfg, rng, runlog, suite)
        for k in pre:
            expected = 0.5 * pre[k] + 0.5 * student_1[k]
            assert np.allclose(state.teacher.params[k], expected, atol=1e-12)

    def test_strong_baseline_mode_runs(self):
        data = easy_synth()
        log = run_one(small_cfg(reid_mode=ReidMode.STRONG_BASELINE), data)
        assert log.final_full_row().map_score > 0.0
        assert all(r.l_reid > 0 for r in log.loss_rows)

    def test_zero_clusters_aborts_with_diagnostic(self):
        data = easy_synth()
        cfg = small_cfg(min_cluster_size=1000)
        message = r"^task 1 epoch 0: only 0 usable clusters \(SpCL needs 1; eps="
        with pytest.raises(DegenerateStreamError, match=message):
            run_one(cfg, data)

    def test_support_mode_variants_run(self):
        data = easy_synth()
        for mode in (SupportMode.FULL_SOURCE, SupportMode.RANK1_NN):
            log = run_one(small_cfg(support_mode=mode), data)
            assert any(r.l_kd > 0 for r in log.loss_rows if r.task == 2)


class TestRun:
    def test_single_task_stream_is_offline_uda(self):
        data = easy_synth()
        log = run_one(small_cfg(n_tasks=1), data)
        assert max(r.task for r in log.eval_rows if r.scope == "full") == 1
        assert {r.scope for r in log.eval_rows if r.task == 1} == {"full", "task1"}

    def test_eval_rows_cover_full_and_slices(self):
        data = easy_synth()
        log = run_one(small_cfg(), data)
        scopes = {(r.task, r.scope) for r in log.eval_rows}
        assert (0, "full") in scopes
        assert (1, "full") in scopes and (1, "task1") in scopes
        assert (2, "task1") in scopes and (2, "task2") in scopes
        assert (1, "task2") not in scopes

    def test_deterministic_runlog(self):
        data = easy_synth()
        a = run_one(small_cfg(), data)
        b = run_one(small_cfg(), data)
        assert [r.to_csv() for r in a.loss_rows] == [r.to_csv() for r in b.loss_rows]
        assert [r.to_csv() for r in a.eval_rows] == [r.to_csv() for r in b.eval_rows]
        assert [r.to_csv() for r in a.cluster_rows] == [r.to_csv() for r in b.cluster_rows]

    def test_checkpoints_written_per_task(self, tmp_path):
        from streamreid.mlp import load_checkpoint
        data = easy_synth()
        run(small_cfg(), data, checkpoint_dir=str(tmp_path))
        for k in (1, 2):
            student = load_checkpoint(tmp_path / f"task{k}_student.ckpt")
            teacher = load_checkpoint(tmp_path / f"task{k}_teacher.ckpt")
            assert sorted(student) == sorted(teacher)

    def test_forgetting_computable_from_log(self):
        data = easy_synth()
        log = run_one(small_cfg(), data)
        summary = log.forgetting()
        assert set(summary.per_slice) == {1}

    @pytest.mark.parametrize("kd", [True, False])
    def test_pk_samplers_once_per_run_task_and_epoch_groups(self, monkeypatch, kd):
        # a sampler lives as long as its groups: the source groups' one for
        # pre-training, then per task one over the source groups and one over
        # the support set when KD runs; only the target groups, new every
        # epoch, get a sampler each epoch
        made = []
        real = trainer.pk_batches
        monkeypatch.setattr(trainer, "pk_batches", lambda *a: made.append(a) or real(*a))
        cfg = small_cfg(n_tasks=3, epochs_per_task=2, enable_kd=kd)
        log = run_one(cfg, easy_synth())
        assert log.final_full_row() is not None
        kd_tasks = cfg.n_tasks - 1 if kd else 0
        assert len(made) == 1 + cfg.n_tasks * (1 + cfg.epochs_per_task) + kd_tasks

    def test_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(alpha=1.0).validate()
        with pytest.raises(ValueError, match="lr"):
            RunConfig(lr=0.0).validate()
        with pytest.raises(ValueError, match="percentile"):
            RunConfig(dbscan_percentile=100.0).validate()
        with pytest.raises(ValueError, match="^seed must be >= 0, got -5$"):
            RunConfig(seed=-5).validate()
        RunConfig(seed=0).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["lr", "weight_decay", "lambda_kd", "lambda_mmd",
                                     "triplet_margin", "memory_temperature"])
    def test_non_finite_float_rejected_naming_the_key(self, key, value):
        # a NaN margin would zero the triplet loss without a word
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            RunConfig(**{key: value}).validate()

    def test_batch_p_below_two_rejected_naming_the_key(self):
        for kw in ({}, {"pretrain_epochs": 0}, {"reid_mode": ReidMode.STRONG_BASELINE}):
            with pytest.raises(ValueError, match="batch_p must be >= 2"):
                RunConfig(batch_p=1, **kw).validate()
        RunConfig(batch_p=2).validate()

    @pytest.mark.parametrize("kw", [
        {"pretrain_epochs": 1},
        {"pretrain_epochs": 0, "reid_mode": ReidMode.STRONG_BASELINE}])
    def test_batch_k_below_two_rejected_when_a_triplet_loss_runs(self, kw):
        with pytest.raises(ValueError, match="batch_k must be >= 2"):
            RunConfig(batch_k=1, **kw).validate()

    def test_batch_k_one_runs_without_a_triplet_loss(self):
        # SpCL without pre-training never mines triplets
        log = run_one(small_cfg(batch_k=1, pretrain_epochs=0), easy_synth())
        assert len(log.eval_rows) > 1
        with pytest.raises(ValueError, match="batch_k must be >= 1"):
            RunConfig(batch_k=0, pretrain_epochs=0).validate()
