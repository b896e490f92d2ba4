"""Output checks for one completed run, computed apart from the program.

Nothing here calls into streamreid. The checkpoint is read with this
module's own reader of the documented format (a text header of named
tensor shapes, then little-endian float64 data), features come from a
plain tanh-MLP forward pass, and the ranking is a brute-force loop per
query. Row counts follow from the config alone.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

TOLERANCE = 1e-9


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    lines = []
    pos = 0
    while True:
        end = blob.index(b"\n", pos)
        line = blob[pos:end].decode("ascii")
        pos = end + 1
        if line == "data":
            break
        lines.append(line)
    if lines[0] != "STREAMREID-CKPT 1" or not lines[1].startswith("tensors "):
        raise ValueError(f"{path}: not a checkpoint")
    out = {}
    for line in lines[2:2 + int(lines[1].split()[1])]:
        name, dims = line.rsplit(" ", 1)
        shape = tuple(int(d) for d in dims.split(","))
        count = math.prod(shape)
        out[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                  offset=pos).reshape(shape)
        pos += 8 * count
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return out


def mlp_features(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    n_layers = sum(1 for k in params if k.endswith(".W"))
    h = x
    for i in range(n_layers):
        h = h @ params[f"layer{i}.W"] + params[f"layer{i}.b"]
        if i < n_layers - 1:
            h = np.tanh(h)
    return h


def brute_force_map_rank1(query, gallery, params) -> tuple[float, float]:
    """mAP and rank-1 with same-identity same-camera gallery entries struck."""
    q_feats = mlp_features(params, np.array([s.descriptor for s in query.samples]))
    g_feats = mlp_features(params, np.array([s.descriptor for s in gallery.samples]))
    g_unit = [f / np.linalg.norm(f) for f in g_feats]
    g_ids = [s.identity for s in gallery.samples]
    g_cams = [s.camera for s in gallery.samples]
    cameras = {s.camera for s in query.samples} | set(g_cams)
    aps, firsts = [], []
    for q, qf in zip(query.samples, q_feats):
        q_unit = qf / np.linalg.norm(qf)
        sims = [float(q_unit @ g) for g in g_unit]
        order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))
        if len(cameras) > 1:
            order = [j for j in order
                     if not (g_ids[j] == q.identity and g_cams[j] == q.camera)]
        hits = [r for r, j in enumerate(order) if g_ids[j] == q.identity]
        if not hits:
            continue
        aps.append(sum((k + 1) / (r + 1) for k, r in enumerate(hits)) / len(hits))
        firsts.append(hits[0] == 0)
    return sum(aps) / len(aps), sum(firsts) / len(firsts)


def task_sizes(cfg) -> list[int]:
    """Train samples per task: identities dealt out as split_stream does,
    two samples of each identity held out for query and gallery."""
    base, rem = divmod(cfg.synth_target_ids, cfg.n_tasks)
    per_id = cfg.synth_samples_per_id - 2
    return [(base + (k < rem)) * per_id for k in range(cfg.n_tasks)]


def pretrain_steps(cfg) -> int:
    p_eff = min(cfg.batch_p, cfg.synth_source_ids)
    n_source = cfg.synth_source_ids * cfg.synth_samples_per_id
    return cfg.pretrain_epochs * max(1, math.ceil(n_source / (p_eff * cfg.batch_k)))


def adapt_steps(cfg) -> int:
    batch = cfg.batch_p * cfg.batch_k
    return sum(cfg.epochs_per_task * max(1, math.ceil(n / batch))
               for n in task_sizes(cfg))


def _rows(run_dir: str, name: str) -> list[dict[str, str]]:
    with open(os.path.join(run_dir, name), newline="") as f:
        return list(csv.DictReader(f))


def check_run(run_dir: str, cfg, query, gallery) -> list[str]:
    """Problems found in one finished run directory (empty = clean)."""
    problems = []
    losses = _rows(run_dir, "losses.csv")
    metrics = _rows(run_dir, "metrics.csv")
    clustering = _rows(run_dir, "clustering.csv")
    n = cfg.n_tasks
    expected = {"losses.csv": (len(losses), adapt_steps(cfg)),
                "clustering.csv": (len(clustering), n * cfg.epochs_per_task),
                "metrics.csv": (len(metrics), 1 + n + n * (n + 1) // 2)}
    for name, (got, want) in expected.items():
        if got != want:
            problems.append(f"{name}: {got} rows, expected {want}")

    for row in losses:
        want = (float(row["l_reid"]) + cfg.lambda_kd * float(row["l_kd"])
                + cfg.lambda_mmd * float(row["l_mmd"]))
        if abs(float(row["total"]) - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"losses.csv task {row['task']} iteration "
                            f"{row['iteration']}: total {row['total']} != {want!r}")
            break

    full = {int(r["task"]): r for r in metrics if r["scope"] == "full"}
    if sorted(full) != list(range(n + 1)):
        return problems + [f"metrics.csv: full-scope tasks {sorted(full)}"]
    final, direct = full[n], full[0]
    if not float(final["map"]) > float(direct["map"]):
        problems.append(f"final mAP {final['map']} not above task-0 mAP {direct['map']}")

    params = read_checkpoint(os.path.join(run_dir, f"task{n}_teacher.ckpt"))
    m_ap, rank1 = brute_force_map_rank1(query, gallery, params)
    for what, mine, theirs in (("mAP", m_ap, final["map"]),
                               ("rank-1", rank1, final["rank1"])):
        if abs(mine - float(theirs)) > TOLERANCE:
            problems.append(f"final {what} {theirs} != recomputed {mine!r}")
    return problems
