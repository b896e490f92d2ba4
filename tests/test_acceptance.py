"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The directional criteria (6-8) run the shipped synthetic ablation
benchmark (configs/benchmark.cfg) over seeds 0, 1, 2; the property
criteria (1-5) enforce the exact numeric tolerances on oracle suites.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import os
import time

import numpy as np
import pytest

from streamreid.cli import build_data, cmd_run, parse_config
from streamreid.data import Domain, Split
from streamreid.distill import (ema_update, kd_loss_from_features, mmd_loss,
                                select_support)
from streamreid.evaluation import evaluate
from streamreid.mlp import MLP, ClassifierHead
from streamreid.pseudo import (HybridMemory, contrastive_loss,
                               cross_entropy_loss, dbscan, triplet_loss)
from streamreid.trainer import TeacherMode, run
from tests.conftest import (CFG, fd_param_gradients, identity_extractor,
                            make_dataset, max_rel_error)
from tests.test_distill import brute_force_support_identities
from tests.test_evaluation import oracle_evaluate
from tests.test_pseudo import reference_dbscan

BENCH_CFG = os.path.join(os.path.dirname(__file__), "..", "configs",
                         "benchmark.cfg")
BENCH_SEEDS = (0, 1, 2)


def report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness over >= 20 random instances per loss
# ---------------------------------------------------------------------------

def _smooth_triplet_instance(rng, n, c):
    """Resample until the batch-hard selection sits away from ties and the
    hinge away from zero; finite differences need a smooth neighborhood."""
    while True:
        feats = rng.standard_normal((n, c))
        labels = rng.integers(0, max(2, n // 3), n)
        if len(np.unique(labels)) < 2 or not np.any(np.bincount(labels) >= 2):
            continue
        unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        d = np.sqrt(np.clip(
            np.sum(unit**2, 1)[:, None] + np.sum(unit**2, 1)[None, :]
            - 2 * unit @ unit.T, 0, None))
        smooth = True
        any_anchor = False
        for a in range(n):
            pos = np.flatnonzero((labels == labels[a]) & (np.arange(n) != a))
            neg = np.flatnonzero(labels != labels[a])
            if pos.size == 0 or neg.size == 0:
                continue
            any_anchor = True
            dp = np.sort(d[a, pos])[::-1]
            dn = np.sort(d[a, neg])
            if (dp.size > 1 and dp[0] - dp[1] < 1e-3) or \
               (dn.size > 1 and dn[1] - dn[0] < 1e-3) or \
               abs(dp[0] - dn[0] + 0.3) < 1e-3:
                smooth = False
                break
        if any_anchor and smooth:
            return feats, labels


def test_criterion_1_gradient_correctness():
    tic = time.perf_counter()
    worst = {}
    n_instances = 20
    for loss_name in ("kd", "mmd", "contrastive", "cross_entropy", "triplet",
                      "composition"):
        errs = []
        for i in range(n_instances):
            rng = np.random.default_rng(1000 + i)
            n, d_in, c = 6, 5, 4
            student = MLP([d_in, 8, c], seed=2000 + i)
            x = rng.standard_normal((n, d_in))

            if loss_name == "kd":
                f_teacher = MLP([d_in, 8, c], seed=3000 + i).features(x)

                def value():
                    return kd_loss_from_features(f_teacher, student.features(x))[0]

                feats, cache = student.forward(x)
                _, gf = kd_loss_from_features(f_teacher, feats)
                analytic = student.backward(cache, gf)
            elif loss_name == "mmd":
                bt = MLP([d_in, 8, c], seed=3000 + i).features(
                    rng.standard_normal((n, d_in)))
                sigma = 0.9

                def value():
                    return mmd_loss(bt, student.features(x), sigma=sigma)[0]

                feats, cache = student.forward(x)
                _, gf, _ = mmd_loss(bt, feats, sigma=sigma)
                analytic = student.backward(cache, gf)
            elif loss_name == "contrastive":
                slots = rng.standard_normal((5, c))
                slots /= np.linalg.norm(slots, axis=1, keepdims=True)
                memory = HybridMemory(slots, momentum=0.2, temperature=0.1)
                labels = rng.integers(0, 5, n)

                def value():
                    return contrastive_loss(student.features(x), labels, memory)[0]

                feats, cache = student.forward(x)
                _, gf = contrastive_loss(feats, labels, memory)
                analytic = student.backward(cache, gf)
            elif loss_name == "cross_entropy":
                head = ClassifierHead(c, 3, seed=4000 + i)
                labels = rng.integers(0, 3, n)

                def value():
                    return cross_entropy_loss(head.forward(student.features(x)),
                                              labels)[0]

                feats, cache = student.forward(x)
                _, gl = cross_entropy_loss(head.forward(feats), labels)
                _, gf = head.backward(feats, gl)
                analytic = student.backward(cache, gf)
            elif loss_name == "triplet":
                x, labels = _smooth_triplet_instance(rng, n, d_in)

                def value():
                    return triplet_loss(student.features(x), labels, 0.3)[0]

                feats, cache = student.forward(x)
                _, gf = triplet_loss(feats, labels, 0.3)
                analytic = student.backward(cache, gf)
            else:  # composition: the full per-iteration objective
                x, labels = _smooth_triplet_instance(rng, n, d_in)
                head = ClassifierHead(c, int(labels.max()) + 1, seed=4000 + i)
                f_teacher = MLP([d_in, 8, c], seed=3000 + i).features(x)
                sigma = 1.1

                def value():
                    f = student.features(x)
                    total = cross_entropy_loss(head.forward(f), labels)[0]
                    total += triplet_loss(f, labels, 0.3)[0]
                    total += kd_loss_from_features(f_teacher, f)[0]
                    total += mmd_loss(f_teacher, f, sigma=sigma)[0]
                    return total

                feats, cache = student.forward(x)
                _, gl = cross_entropy_loss(head.forward(feats), labels)
                _, gf_ce = head.backward(feats, gl)
                _, gf_tri = triplet_loss(feats, labels, 0.3)
                _, gf_kd = kd_loss_from_features(f_teacher, feats)
                _, gf_mmd, _ = mmd_loss(f_teacher, feats, sigma=sigma)
                analytic = student.backward(cache, gf_ce + gf_tri + gf_kd + gf_mmd)

            numeric = fd_param_gradients(student, value, step=1e-5)
            errs.append(max_rel_error(analytic, numeric))
        worst[loss_name] = max(errs)

    elapsed = time.perf_counter() - tic
    ok = all(e <= 1e-4 for e in worst.values()) and elapsed < 30.0
    detail = (f"max rel err {max(worst.values()):.2e} over "
              f"{n_instances} instances/loss, {elapsed:.1f}s "
              f"({ {k: f'{v:.1e}' for k, v in worst.items()} })")
    report(1, "gradient correctness", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 2: loss identities, 200 random trials
# ---------------------------------------------------------------------------

def test_criterion_2_loss_identities():
    rng = np.random.default_rng(7)
    worst_kd = 0.0
    worst_mmd_self = 0.0
    min_mmd = np.inf
    for _ in range(200):
        n, c = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        f = rng.standard_normal((n, c))
        worst_kd = max(worst_kd, abs(kd_loss_from_features(f, f)[0]))
        for scale in (0.1, 3.0, 100.0):
            worst_kd = max(worst_kd, abs(kd_loss_from_features(scale * f, f)[0]))
        b = rng.standard_normal((n, c))
        worst_mmd_self = max(worst_mmd_self, abs(mmd_loss(b, b.copy())[0]))
        min_mmd = min(min_mmd, mmd_loss(b, rng.standard_normal((n, c)))[0])
    ok = worst_kd <= 1e-12 and worst_mmd_self <= 1e-12 and min_mmd >= -1e-12
    report(2, "loss identities", ok,
           f"kd self/scale worst {worst_kd:.1e}, mmd self worst "
           f"{worst_mmd_self:.1e}, mmd min {min_mmd:.1e} over 200 trials")


# ---------------------------------------------------------------------------
# Criterion 3: EMA closed form up to t = 1000
# ---------------------------------------------------------------------------

def test_criterion_3_ema_closed_form():
    worst = 0.0
    for alpha in (0.0, 0.5, 0.999):
        teacher = MLP([3, 2], seed=1)
        target = MLP([3, 2], seed=0)
        target.theta[:] = 2.5
        gap0 = teacher.theta - 2.5
        for t in range(1, 1001):
            ema_update(teacher, target, alpha)
            expected = np.abs(gap0) * alpha**t
            actual = np.abs(teacher.theta - 2.5)
            worst = max(worst, float(np.max(np.abs(actual - expected))))
    ok = worst <= 1e-10
    report(3, "EMA closed form", ok,
           f"worst |gap - alpha^t gap0| = {worst:.2e} over t<=1000")


# ---------------------------------------------------------------------------
# Criterion 4: oracle equivalence (support set, dbscan, mAP/CMC)
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence():
    tic = time.perf_counter()

    support_ok = True
    for i in range(100):
        rng = np.random.default_rng(100 + i)
        ext = MLP([5, 6, 4], seed=i)
        source = make_dataset(rng.standard_normal((40, 5)),
                              rng.integers(0, 12, 40))
        target = make_dataset(rng.standard_normal((15, 5)),
                              rng.integers(0, 5, 15), domain=Domain.TARGET)
        got = select_support(target, source, ext, CFG.support_mode).identities()
        want = brute_force_support_identities(source, target, ext)
        support_ok = support_ok and (got == want)

    dbscan_ok = True
    for i in range(100):
        rng = np.random.default_rng(200 + i)
        n = int(rng.integers(50, 201))
        feats = rng.standard_normal((n, 4))
        percentile, min_pts = float(rng.uniform(2, 20)), int(rng.integers(2, 6))
        out = dbscan(feats, percentile, min_pts)
        ref_labels, ref_n = reference_dbscan(feats, out.eps_resolved, min_pts)
        dbscan_ok = dbscan_ok and out.n_clusters == ref_n \
            and np.array_equal(out.labels, ref_labels)

    eval_ok = True
    for i in range(100):
        rng = np.random.default_rng(300 + i)
        nq, ng = int(rng.integers(2, 11)), int(rng.integers(10, 51))
        n_ids = 5
        query = make_dataset(rng.standard_normal((nq, 4)),
                             rng.integers(0, n_ids, nq),
                             cameras=rng.integers(0, 3, nq),
                             domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset(rng.standard_normal((ng, 4)),
                               rng.integers(0, n_ids, ng),
                               cameras=rng.integers(0, 3, ng),
                               domain=Domain.TARGET, split=Split.GALLERY)
        try:
            rep = evaluate(query, gallery, identity_extractor(4))
        except ValueError:
            continue  # no valid query under the protocol; oracle agrees vacuously
        o_map, o_cmc, o_excl = oracle_evaluate(query, gallery, cross_camera=True)
        eval_ok = eval_ok and abs(rep.map_score - o_map) <= 1e-12 \
            and np.allclose(rep.cmc, o_cmc, atol=1e-12) \
            and rep.n_excluded == o_excl

    elapsed = time.perf_counter() - tic
    ok = support_ok and dbscan_ok and eval_ok and elapsed < 60.0
    report(4, "oracle equivalence", ok,
           f"support={support_ok} dbscan={dbscan_ok} eval={eval_ok} "
           f"in {elapsed:.1f}s (100 instances each)")


# ---------------------------------------------------------------------------
# Criterion 5: protocol bench
# ---------------------------------------------------------------------------

def test_criterion_5_protocol_bench():
    query = make_dataset([[1.0, 0.0]], [0], domain=Domain.TARGET,
                         split=Split.QUERY)
    gallery = make_dataset([[0.99, 0.01], [0.5, 0.5]], [1, 0],
                           domain=Domain.TARGET, split=Split.GALLERY)
    rep = evaluate(query, gallery, identity_extractor(2))
    ap_ok = rep.map_score == 0.5 and rep.cmc.tolist() == [0.0, 1.0]

    monotone_ok = True
    for i in range(50):
        rng = np.random.default_rng(400 + i)
        nq, ng = int(rng.integers(2, 9)), int(rng.integers(10, 40))
        query = make_dataset(rng.standard_normal((nq, 4)),
                             rng.integers(0, 4, nq),
                             domain=Domain.TARGET, split=Split.QUERY)
        gallery = make_dataset(rng.standard_normal((ng, 4)),
                               rng.integers(0, 4, ng),
                               domain=Domain.TARGET, split=Split.GALLERY)
        rep = evaluate(query, gallery, identity_extractor(4))
        monotone_ok = monotone_ok and bool(np.all(np.diff(rep.cmc) >= 0))
    ok = ap_ok and monotone_ok
    report(5, "protocol bench", ok,
           f"rank-2-of-2 AP=0.5 {ap_ok}, CMC monotone on 50 instances "
           f"{monotone_ok}")


# ---------------------------------------------------------------------------
# Criteria 6-8: directional benchmark reproductions
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench_results():
    """Run the shipped benchmark grid: 4 loss cells plus 2 extra teacher
    modes, 3 seeds each."""
    tic = time.perf_counter()
    results = {}
    for seed in BENCH_SEEDS:
        cfg = parse_config(BENCH_CFG, {"seed": str(seed),
                                       "synth_seed": str(seed)})
        data = build_data(cfg)
        for kd, mmd in ((False, False), (True, False), (False, True),
                        (True, True)):
            rc = cfg.to_run_config()
            rc.enable_kd, rc.enable_mmd = kd, mmd
            results[("loss", kd, mmd, seed)] = run(rc, data)
        for mode in (TeacherMode.TASK_FROZEN, TeacherMode.TASK_EMA):
            rc = cfg.to_run_config()
            rc.teacher_mode = mode
            results[("teacher", mode.value, seed)] = run(rc, data)
    results["elapsed"] = time.perf_counter() - tic
    return results


def _mean_final(results, kd, mmd):
    return float(np.mean([results[("loss", kd, mmd, s)].final_full_row().map_score
                          for s in BENCH_SEEDS]))


def test_criterion_6_loss_ablation_ordering(bench_results):
    none = _mean_final(bench_results, False, False)
    kd_only = _mean_final(bench_results, True, False)
    mmd_only = _mean_final(bench_results, False, True)
    both = _mean_final(bench_results, True, True)
    elapsed = bench_results["elapsed"]
    ok = (both > kd_only and both > mmd_only and kd_only > none
          and mmd_only > none and elapsed < 600.0)
    report(6, "loss ablation ordering", ok,
           f"both={both:.4f} > kd={kd_only:.4f}, mmd={mmd_only:.4f} > "
           f"none={none:.4f}; grid runtime {elapsed:.0f}s")


def test_criterion_7_teacher_mode_ordering(bench_results):
    iter_ema = _mean_final(bench_results, True, True)
    frozen = float(np.mean([bench_results[("teacher", "TaskFrozen", s)]
                            .final_full_row().map_score for s in BENCH_SEEDS]))
    task_ema = float(np.mean([bench_results[("teacher", "TaskEMA", s)]
                              .final_full_row().map_score for s in BENCH_SEEDS]))
    ok = iter_ema > frozen and iter_ema > task_ema
    report(7, "teacher mode ordering", ok,
           f"IterEMA={iter_ema:.4f} vs TaskFrozen={frozen:.4f}, "
           f"TaskEMA={task_ema:.4f}")


def test_criterion_8_forgetting_mitigation(bench_results):
    fg_on = float(np.mean([bench_results[("loss", True, True, s)]
                           .forgetting().score for s in BENCH_SEEDS]))
    fg_off = float(np.mean([bench_results[("loss", False, False, s)]
                            .forgetting().score for s in BENCH_SEEDS]))
    ok = fg_on >= fg_off
    report(8, "forgetting mitigation", ok,
           f"forgetting(on)={fg_on:+.4f} >= forgetting(off)={fg_off:+.4f}")


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical run logs
# ---------------------------------------------------------------------------

def test_criterion_9_byte_determinism(tmp_path):
    cfg = parse_config(BENCH_CFG, {"seed": "0", "synth_seed": "0",
                                   "label": "det"})
    cmd_run(cfg, str(tmp_path / "a"))
    cmd_run(cfg, str(tmp_path / "b"))
    same = True
    for name in ("losses.csv", "metrics.csv", "clustering.csv", "config.txt"):
        same = same and ((tmp_path / "a" / name).read_bytes()
                         == (tmp_path / "b" / name).read_bytes())
    report(9, "byte determinism", same,
           "two cmd_run invocations produced identical CSV bytes")


# ---------------------------------------------------------------------------
# Criterion 10: privacy audit across a full run
# ---------------------------------------------------------------------------

def test_criterion_10_privacy_audit():
    from streamreid.data import split_stream
    from streamreid.runlog import RunLog
    from streamreid.trainer import (EvalSuite, adapt_task,
                                    audit_no_target_retention, pretrain_source)

    cfg_full = parse_config(BENCH_CFG, {"seed": "0", "synth_seed": "0"})
    data = build_data(cfg_full)
    rc = cfg_full.to_run_config()
    rng = np.random.default_rng(rc.seed)
    stream = split_stream(data.target_train, rc.n_tasks,
                          seed=int(rng.integers(2**31)))
    state = pretrain_source(data.source, rc, rng)
    suite = EvalSuite(data.target_query, data.target_gallery,
                      [t.identity_set() for t in stream])
    runlog = RunLog(rc)
    audited_tasks = 0
    for task in stream:
        adapt_task(state, task, rc, rng, runlog, suite)
        audit_no_target_retention(state)   # adapt_task also asserts internally
        audited_tasks += 1
    ok = audited_tasks == rc.n_tasks
    report(10, "privacy audit", ok,
           f"no target sample retained after any of {audited_tasks} tasks")
