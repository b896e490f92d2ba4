import copy
import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import streamreid
from streamreid.distill import ema_update
from streamreid.mlp import (AdamState, ClassifierHead, MLP, Parameters,
                            StaleCacheError, adam_step, load_checkpoint,
                            save_checkpoint)
from tests.conftest import CFG, fd_param_gradients, identity_extractor, max_rel_error


def adam_of(model, weight_decay=CFG.weight_decay):
    """Fresh Adam moments for model at the run's learning rate."""
    return AdamState.of(model, lr_initial=CFG.lr, weight_decay=weight_decay)


# ---------------------------------------------------------------------------
# Per-block dict references: backward, Adam and the EMA written block by
# block over dicts of standalone arrays. The flat kernels must match them
# bit for bit.
# ---------------------------------------------------------------------------

def reference_backward(params, n_layers, cache, grad_output):
    g = grad_output
    grads = {}
    for i in range(n_layers - 1, -1, -1):
        a_prev = cache.activations[i]
        grads[f"layer{i}.W"] = a_prev.T @ g
        grads[f"layer{i}.b"] = g.sum(axis=0)
        if i > 0:
            g = (g @ params[f"layer{i}.W"].T) * (1.0 - a_prev**2)
    return grads


def reference_head_backward(params, features, grad_logits):
    grads = {"W": features.T @ grad_logits, "b": grad_logits.sum(axis=0)}
    return grads, grad_logits @ params["W"].T


class ReferenceAdam:
    def __init__(self, lr_initial, weight_decay, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr_initial, self.weight_decay = lr_initial, weight_decay
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.step_count = 0
        self.m, self.v = {}, {}


def reference_adam_step(params, grads, state, schedule_position):
    state.step_count += 1
    t = state.step_count
    lr_eff = state.lr_initial * (1.0 - schedule_position)
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name in sorted(grads):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g**2
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        params[name] -= lr_eff * m_hat / (np.sqrt(v_hat) + state.epsilon)
        if state.weight_decay > 0 and name.endswith("W"):
            params[name] -= state.lr_initial * state.weight_decay * params[name]


def reference_ema_update(teacher_params, student_params, a):
    for name in sorted(teacher_params):
        teacher_params[name] = a * teacher_params[name] + (1.0 - a) * student_params[name]


def flat(blocks, names):
    return np.concatenate([blocks[k].ravel() for k in names])


def assert_bitwise(model, reference, prefix=""):
    for name, block in model.params.items():
        assert np.array_equal(block, reference[prefix + name]), prefix + name


def assert_views(model):
    for name, block in model.params.items():
        assert np.shares_memory(block, model.theta), name


class TestFlatKernelsMatchPerBlockReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_training_sequence_with_head_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        dims = [7, 6, 5, 4]
        student = MLP(dims, seed=seed)
        teacher = MLP(dims)
        teacher.set_params(student.params)
        head = ClassifierHead(4, 3, seed=seed + 100)
        hyper = dict(lr_initial=1e-2, weight_decay=0.05)
        adam, adam_head = AdamState.of(student, **hyper), AdamState.of(head, **hyper)

        # the per-block side: one dict of standalone arrays, heads spliced in
        ref = {k: v.copy() for k, v in student.params.items()}
        ref.update({f"head.{k}": v.copy() for k, v in head.params.items()})
        ref_teacher = {k: v.copy() for k, v in teacher.params.items()}
        ref_adam = ReferenceAdam(**hyper)

        n_steps = 8
        for step in range(1, n_steps + 1):
            if step == 5:          # head rebuilt: fresh moments, step count goes on
                head = ClassifierHead(4, 5, seed=seed + 200)
                adam_head = AdamState.of(head, **hyper)
                for k in ("head.W", "head.b"):
                    ref_adam.m.pop(k)
                    ref_adam.v.pop(k)
                    ref[k] = head.params[k[5:]].copy()
            pos = float(rng.uniform(0.05, 0.95))
            x = rng.standard_normal((9, dims[0]))
            feats, cache = student.forward(x)
            g_logits = rng.standard_normal((9, head.n_classes))
            g_extra = rng.standard_normal(feats.shape)

            head_grad, g_feats = head.backward(feats, g_logits)
            ref_head_grads, ref_g_feats = reference_head_backward(
                {"W": ref["head.W"], "b": ref["head.b"]}, feats, g_logits)
            assert np.array_equal(g_feats, ref_g_feats)
            assert np.array_equal(head_grad, flat(ref_head_grads, ["W", "b"]))

            grad = student.backward(cache, g_feats + g_extra)
            ref_grads = reference_backward(ref, student.n_layers, cache,
                                           ref_g_feats + g_extra)
            assert np.array_equal(grad, flat(ref_grads, student.params))
            # plus a scaled second set, as the trainer adds the KD term
            grad += 0.5 * student.backward(cache, g_extra)
            ref_kd = reference_backward(ref, student.n_layers, cache, g_extra)
            ref_grads = {k: v + 0.5 * ref_kd[k] for k, v in ref_grads.items()}

            adam_step(student, grad, adam, step, pos)
            adam_step(head, head_grad, adam_head, step, pos)
            ref_grads.update({f"head.{k}": v for k, v in ref_head_grads.items()})
            reference_adam_step(ref, ref_grads, ref_adam, pos)
            assert_bitwise(student, ref)
            assert_bitwise(head, ref, "head.")
            assert np.array_equal(adam.m, flat(ref_adam.m, student.params))
            assert np.array_equal(adam_head.v, flat(ref_adam.v, ["head.W", "head.b"]))

            ema_update(teacher, student, 0.9)
            reference_ema_update(ref_teacher, {k: ref[k] for k in ref_teacher}, 0.9)
            assert_bitwise(teacher, ref_teacher)
            assert_views(student)
            assert_views(head)
            assert_views(teacher)


class TestForward:
    def test_zero_parameters_give_zero_features(self):
        m = MLP([4, 3, 2], seed=0)
        m.set_params({k: np.zeros_like(v) for k, v in m.params.items()})
        f = m.features(np.random.default_rng(0).standard_normal((5, 4)))
        assert np.array_equal(f, np.zeros((5, 2)))

    def test_identity_single_layer_passthrough(self):
        m = identity_extractor(3)
        x = np.random.default_rng(1).standard_normal((6, 3))
        assert np.allclose(m.features(x), x, atol=0, rtol=0)

    def test_matches_straight_line_reevaluation(self):
        m = MLP([5, 4, 3], seed=7)
        x = np.random.default_rng(2).standard_normal((8, 5))
        w1, b1 = m.params["layer0.W"], m.params["layer0.b"]
        w2, b2 = m.params["layer1.W"], m.params["layer1.b"]
        expected = np.tanh(x @ w1 + b1) @ w2 + b2
        assert np.allclose(m.features(x), expected, rtol=0, atol=1e-15)

    def test_batch_equivariance(self):
        m = MLP([4, 6, 3], seed=3)
        x = np.random.default_rng(3).standard_normal((7, 4))
        perm = np.random.default_rng(4).permutation(7)
        assert np.array_equal(m.features(x)[perm], m.features(x[perm]))

    def test_shape_mismatch_rejected(self):
        m = MLP([4, 2], seed=0)
        with pytest.raises(ValueError, match="batch shape"):
            m.features(np.zeros((3, 5)))

    def test_input_left_untouched(self):
        m = MLP([32, 64, 32], seed=5)
        x = np.random.default_rng(5).standard_normal((40, 32))
        before = x.tobytes()
        m.forward(x)
        assert x.tobytes() == before

    @pytest.mark.parametrize("rows", [1, 32, 128, 7200])
    def test_bytes_match_plain_layers(self, rows):
        # each layer tanh(h @ W + b) (no tanh on the last), each cached
        # activation included
        m = MLP([32, 64, 48, 32], seed=rows)
        x = np.random.default_rng(rows).standard_normal((rows, 32))
        out, cache = m.forward(x)
        expected = [x]
        for i in range(m.n_layers):
            z = expected[-1] @ m.params[f"layer{i}.W"] + m.params[f"layer{i}.b"]
            expected.append(np.tanh(z) if i < m.n_layers - 1 else z)
        assert out is cache.activations[-1]
        assert len(cache.activations) == len(expected)
        for got, want in zip(cache.activations, expected):
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_one_array_per_layer(self):
        # 7,200 rows, one hidden layer of 64 and 32 outputs: the hidden
        # array (3.5 MiB), which the cache keeps, and the output (1.8 MiB)
        m = MLP([32, 64, 32], seed=0)
        x = np.random.default_rng(0).standard_normal((7200, 32))
        tracemalloc.start()
        try:
            m.features(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 2**20


class TestBackward:
    def test_zero_grad_output_gives_zero_gradients(self):
        m = MLP([3, 4, 2], seed=1)
        f, cache = m.forward(np.random.default_rng(0).standard_normal((5, 3)))
        grad = m.backward(cache, np.zeros_like(f))
        assert grad.shape == m.theta.shape and not grad.any()

    def test_sum_loss_matches_finite_differences(self):
        for seed in range(5):
            m = MLP([4, 6, 3], seed=seed)
            x = np.random.default_rng(seed).standard_normal((6, 4))
            f, cache = m.forward(x)
            analytic = m.backward(cache, np.ones_like(f))
            numeric = fd_param_gradients(m, lambda: float(m.features(x).sum()))
            assert max_rel_error(analytic, numeric) <= 1e-4

    def test_backward_is_linear_in_grad_output(self):
        m = MLP([3, 5, 2], seed=2)
        rng = np.random.default_rng(5)
        _, cache = m.forward(rng.standard_normal((4, 3)))
        ga = rng.standard_normal((4, 2))
        gb = rng.standard_normal((4, 2))
        sum_of = m.backward(cache, ga) + m.backward(cache, gb)
        assert np.allclose(sum_of, m.backward(cache, ga + gb), atol=1e-12)

    def test_stale_cache_rejected(self):
        m = MLP([3, 2], seed=0)
        _, cache = m.forward(np.zeros((2, 3)))
        m.mark_updated()
        with pytest.raises(StaleCacheError):
            m.backward(cache, np.zeros((2, 2)))


class TestAdam:
    def test_zero_gradients_zero_decay_is_fixed_point(self):
        m = MLP([3, 2], seed=4)
        before = m.theta.copy()
        adam_step(m, np.zeros_like(m.theta), adam_of(m, weight_decay=0.0), 1, 0.0)
        assert np.array_equal(m.theta, before)

    def test_schedule_endpoint_leaves_only_weight_decay(self):
        m = MLP([3, 2], seed=5)
        before = {k: v.copy() for k, v in m.params.items()}
        state = AdamState.of(m, lr_initial=1e-2, weight_decay=0.1)
        adam_step(m, np.ones_like(m.theta), state, 1, schedule_position=1.0)
        assert np.allclose(m.params["layer0.W"],
                           before["layer0.W"] * (1.0 - 1e-2 * 0.1), atol=1e-15)
        assert np.array_equal(m.params["layer0.b"], before["layer0.b"])

    def test_decay_mask_covers_weight_matrices_only(self):
        m = MLP([3, 4, 2], seed=0)
        state = adam_of(m)
        for name, s in m.slices.items():
            assert state.decay[s].all() == name.endswith("W")
            assert state.decay[s].any() == name.endswith("W")

    def test_scalar_trajectory_matches_hand_recurrence(self):
        # constant gradient g on a single scalar block, 3 steps, no decay
        g = 0.7
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        model = Parameters({"p": np.array([1.0])})
        state = AdamState.of(model, lr_initial=lr, weight_decay=0.0, beta1=b1,
                             beta2=b2, epsilon=eps)
        theta, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            adam_step(model, np.array([g]), state, t, 0.0)
            assert model.params["p"][0] == pytest.approx(theta, abs=1e-15)

    def test_in_place_moments_match_vector_expression(self):
        # the whole-vector Adam written as fresh-array expressions; the
        # in-place update must round the same way, step after step
        rng = np.random.default_rng(5)
        model = MLP([5, 4, 3], seed=2)
        state = AdamState.of(model, lr_initial=1e-2, weight_decay=0.05)
        ref_theta = model.theta.copy()
        ref_m = np.zeros_like(ref_theta)
        ref_v = np.zeros_like(ref_theta)
        for step in range(1, 9):
            grad = rng.standard_normal(ref_theta.size) * 10.0 ** rng.integers(-6, 2)
            pos = float(rng.uniform(0.0, 1.0))
            adam_step(model, grad, state, step, pos)

            lr_eff = state.lr_initial * (1.0 - pos)
            ref_m = state.beta1 * ref_m + (1.0 - state.beta1) * grad
            ref_v = state.beta2 * ref_v + (1.0 - state.beta2) * grad**2
            m_hat = ref_m / (1.0 - state.beta1**step)
            v_hat = ref_v / (1.0 - state.beta2**step)
            ref_theta -= lr_eff * m_hat / (np.sqrt(v_hat) + state.epsilon)
            np.subtract(ref_theta, state.lr_initial * state.weight_decay * ref_theta,
                        out=ref_theta, where=state.decay)
            assert state.m.tobytes() == ref_m.tobytes()
            assert state.v.tobytes() == ref_v.tobytes()
            assert model.theta.tobytes() == ref_theta.tobytes()

    def test_effective_lr_is_linear_in_schedule(self):
        # one step at position 0.5 moves exactly half as far as at 0
        def one_step(pos):
            model = Parameters({"p": np.array([0.0])})
            adam_step(model, np.array([1.0]),
                      AdamState.of(model, lr_initial=1e-2, weight_decay=0.0), 1, pos)
            return model.params["p"][0]

        assert one_step(0.5) == pytest.approx(0.5 * one_step(0.0), rel=1e-12)

    def test_non_finite_gradient_names_block(self):
        m = MLP([2, 2], seed=0)
        grad = np.zeros_like(m.theta)
        grad[m.slices["layer0.W"]][0] = np.nan
        with pytest.raises(ValueError, match="layer0.W"):
            adam_step(m, grad, adam_of(m), 1, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make, block", [
        (lambda: MLP([3, 4, 2], seed=0), "layer1.b"),      # the last block
        (lambda: ClassifierHead(4, 3, seed=0), "W"),
        (lambda: ClassifierHead(4, 3, seed=0), "b"),
    ], ids=["mlp-last-bias", "head-W", "head-b"])
    def test_non_finite_gradient_names_each_block(self, make, block, bad):
        model = make()
        before = model.theta.copy()
        grad = np.zeros_like(model.theta)
        grad[model.slices[block].stop - 1] = bad
        state = adam_of(model)
        with pytest.raises(ValueError, match=f"block '{block}'"):
            adam_step(model, grad, state, 1, 0.0)
        assert np.array_equal(model.theta, before) and not state.m.any()

    def test_non_finite_check_survives_optimized_mode(self):
        code = textwrap.dedent("""
            import numpy as np
            from streamreid.mlp import AdamState, ClassifierHead, adam_step
            from streamreid.trainer import RunConfig
            cfg = RunConfig()
            head = ClassifierHead(4, 3)
            grad = np.zeros_like(head.theta)
            grad[-1] = np.inf
            try:
                adam_step(head, grad, AdamState.of(head, lr_initial=cfg.lr,
                                                   weight_decay=cfg.weight_decay), 1, 0.0)
            except ValueError as e:
                print("raised:", e)
        """)
        src = os.path.dirname(os.path.dirname(streamreid.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "raised: non-finite gradient in parameter block 'b'" in proc.stdout

    def test_gradient_shape_checked(self):
        m = MLP([2, 2], seed=0)
        with pytest.raises(ValueError, match="gradient shape"):
            adam_step(m, np.zeros(m.theta.size + 1), adam_of(m), 1, 0.0)

    def test_step_counts_from_one(self):
        m = MLP([2, 2], seed=0)
        with pytest.raises(ValueError, match="step counts from 1"):
            adam_step(m, np.zeros_like(m.theta), adam_of(m), 0, 0.0)

    def test_update_independent_of_block_order(self):
        rng = np.random.default_rng(8)
        grads = {"a.W": rng.standard_normal((2, 2)), "z.W": rng.standard_normal((3,))}
        p1 = Parameters({"a.W": np.ones((2, 2)), "z.W": np.ones(3)})
        p2 = Parameters({"z.W": np.ones(3), "a.W": np.ones((2, 2))})
        adam_step(p1, flat(grads, p1.params), adam_of(p1), 1, 0.0)
        adam_step(p2, flat(grads, p2.params), adam_of(p2), 1, 0.0)
        for k in p1.params:
            assert np.array_equal(p1.params[k], p2.params[k])


class TestParameterViews:
    """Every block must stay a view of the model's vector: one rebound block
    would split what forward reads from what Adam and the EMA write."""

    def test_views_after_construction_and_set_params(self):
        m = MLP([4, 3, 2], seed=0)
        assert_views(m)
        m.set_params({k: np.full_like(v, 0.5) for k, v in m.params.items()})
        assert_views(m)
        assert np.array_equal(m.theta, np.full(m.theta.size, 0.5))

    def test_views_after_adam_step(self):
        for model in (MLP([4, 3, 2], seed=0), ClassifierHead(3, 5, seed=0)):
            adam_step(model, np.ones_like(model.theta), adam_of(model), 1, 0.3)
            assert_views(model)

    def test_views_after_from_student_and_ema_update(self):
        student = MLP([4, 3, 2], seed=1)
        teacher = MLP(student.layer_dims)     # the teacher copy pretrain_source makes
        teacher.set_params(student.params)
        assert_views(teacher)
        assert not np.shares_memory(teacher.theta, student.theta)
        ema_update(teacher, student, 0.5)
        assert_views(teacher)

    @pytest.mark.parametrize("clone_of", [copy.deepcopy,
                                          lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_copy_trains_and_leaves_the_original(self, clone_of):
        x = np.random.default_rng(2).standard_normal((5, 4))
        for model, apply in ((MLP([4, 8, 3], seed=0), MLP.features),
                             (ClassifierHead(4, 3, seed=0), ClassifierHead.forward)):
            theta, out = model.theta.copy(), apply(model, x)
            clone = clone_of(model)
            assert_views(clone)
            assert not np.shares_memory(clone.theta, model.theta)
            adam_step(clone, np.ones_like(clone.theta), adam_of(clone), 1, 0.0)
            assert not np.array_equal(apply(clone, x), out)
            assert np.array_equal(model.theta, theta)
            assert np.array_equal(apply(model, x), out)

    def test_layout_follows_block_order(self):
        m = MLP([3, 4, 2], seed=0)
        assert list(m.params) == ["layer0.W", "layer0.b", "layer1.W", "layer1.b"]
        assert np.array_equal(m.theta, flat(m.params, m.params))


class TestClassifierHead:
    def test_logit_shape_and_gradient(self):
        head = ClassifierHead(4, 3, seed=0)
        f = np.random.default_rng(0).standard_normal((5, 4))
        logits = head.forward(f)
        assert logits.shape == (5, 3)
        assert logits.tobytes() == (f @ head.params["W"] + head.params["b"]).tobytes()
        gl = np.random.default_rng(1).standard_normal((5, 3))
        grad, gf = head.backward(f, gl)
        assert grad.shape == (4 * 3 + 3,)
        assert np.array_equal(grad[head.slices["W"]], (f.T @ gl).ravel())
        assert np.array_equal(grad[head.slices["b"]], gl.sum(axis=0))
        assert np.allclose(gf, gl @ head.params["W"].T)


class TestClassifierStepAllocations:
    """A pre-training step at 600 source classes allocates no array the size
    of the model in Adam or the head's backward, and one array of the
    logits' size in the head's forward. Traced peaks of one call at 32 rows,
    in bytes, before and after the step reused its buffers: forward 370,960
    -> 217,232, backward 317,328 -> 8,848, adam_step 497,845 -> 22,357;
    theta is 158,400 and the logits 153,600. Freed every step, such arrays
    let glibc trim the heap after each step unless its malloc thresholds
    were high: with the source file read in 64 KiB blocks rather than one
    1 MiB block, stream-10x pre-training took 133,256 minor page faults
    instead of about 400."""

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def head(self):
        return ClassifierHead(32, 600, seed=0)

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(0)
        return rng.standard_normal((32, 32)), rng.standard_normal((32, 600))

    def test_adam_step_allocates_below_the_model_size(self, head):
        grad = np.random.default_rng(1).standard_normal(head.theta.size)
        state = adam_of(head)
        peak = self.traced_peak(lambda: adam_step(head, grad, state, 1, 0.0))
        assert peak < head.theta.nbytes, peak

    def test_forward_allocates_the_logits_once(self, head, batch):
        features, grad_logits = batch
        peak = self.traced_peak(lambda: head.forward(features))
        assert peak < 1.5 * grad_logits.nbytes, peak

    def test_backward_allocates_only_the_features_gradient(self, head, batch):
        features, _ = batch
        peak = self.traced_peak(lambda: head.backward(*batch))
        assert peak < 2 * features.nbytes, peak
        assert head.backward(*batch)[0] is head.grad


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = MLP([4, 3, 2], seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m.params)
        back = load_checkpoint(path)
        assert sorted(back) == sorted(m.params)
        for k in back:
            assert np.array_equal(back[k], m.params[k])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)
