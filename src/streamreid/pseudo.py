"""Pseudo-labeling backend: DBSCAN, hybrid memory, and the re-id losses.

Unlabeled target features are clustered with a deterministic from-scratch
DBSCAN over cosine distances; cluster indices become training labels. The
hybrid memory holds one L2-normalized slot per source class, per target
cluster, and per outlier instance, and drives a unified contrastive loss.
Cross-entropy and batch-hard triplet cover the classifier-based training
mode, and a PK sampler composes identity-balanced batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .mlp import MLP

log = logging.getLogger(__name__)

OUTLIER = -1


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

@dataclass
class DbscanParams:
    """eps None means adaptive: the percentile of pairwise cosine distances."""

    eps: float | None = None
    percentile: float = 2.0
    min_pts: int = 4

    def __post_init__(self):
        if self.eps is not None and self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.eps is None and not 0.0 < self.percentile < 100.0:
            raise ValueError("percentile must lie in (0, 100)")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass
class ClusterAssignment:
    labels: np.ndarray          # per sample: cluster id or OUTLIER
    n_clusters: int
    eps_resolved: float

    def outlier_fraction(self) -> float:
        return float(np.mean(self.labels == OUTLIER))


def cosine_distances(features: np.ndarray) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(f, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm feature row, cosine distance undefined")
    unit = f / norms[:, None]
    return np.clip(1.0 - unit @ unit.T, 0.0, None)


def dbscan(features: np.ndarray, params: DbscanParams) -> ClusterAssignment:
    """Classic DBSCAN over cosine distances, deterministic by index order.

    Core points have at least min_pts neighbors within eps (self included);
    clusters grow from the first unvisited core in index order, so a border
    point reachable from several clusters joins the earliest-created one.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise ValueError("need a non-empty 2-d feature matrix")
    n = f.shape[0]
    dist = cosine_distances(f)
    if params.eps is not None:
        eps = float(params.eps)
    else:
        iu = np.triu_indices(n, k=1)
        eps = float(np.percentile(dist[iu], params.percentile)) if iu[0].size else 0.0

    adjacent = dist <= eps
    core = np.count_nonzero(adjacent, axis=1) >= params.min_pts
    labels = np.full(n, OUTLIER, dtype=np.int64)
    n_clusters = 0
    for start in np.flatnonzero(core):
        if labels[start] != OUTLIER:
            continue
        # breadth-first, one frontier of core points at a time; a cluster's
        # member set does not depend on the order it is expanded in
        labels[start] = n_clusters
        frontier = np.array([start])
        while frontier.size:
            reached = adjacent[frontier].any(axis=0) & (labels == OUTLIER)
            labels[reached] = n_clusters
            frontier = np.flatnonzero(reached & core)
        n_clusters += 1
    return ClusterAssignment(labels, n_clusters, eps)


def demote_small_clusters(assignment: ClusterAssignment, min_size: int
                          ) -> ClusterAssignment:
    """Turn clusters below min_size into outliers and renumber contiguously."""
    labels = assignment.labels
    sizes = np.bincount(labels[labels != OUTLIER], minlength=assignment.n_clusters)
    keep = sizes >= min_size
    n_kept = int(np.count_nonzero(keep))
    # remap[-1] is OUTLIER, so outlier labels index it and stay outliers
    remap = np.full(assignment.n_clusters + 1, OUTLIER, dtype=np.int64)
    remap[:-1][keep] = np.arange(n_kept)
    return ClusterAssignment(remap[labels], n_kept, assignment.eps_resolved)


# ---------------------------------------------------------------------------
# Hybrid memory
# ---------------------------------------------------------------------------

def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm feature row")
    return x / norms[:, None]


@dataclass
class HybridMemory:
    """Slot bank [source classes | target clusters | outlier instances].

    Every slot is kept L2-normalized. Slot indices are stable for the
    lifetime of one clustering round. source_class_ids is ascending and
    outlier_sample_indices lists the task rows of the outlier slots in
    slot order.
    """

    source_centroids: np.ndarray
    cluster_centroids: np.ndarray
    outlier_features: np.ndarray
    source_class_ids: list[int]
    outlier_sample_indices: list[int]
    momentum: float = 0.2
    temperature: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    @property
    def n_slots(self) -> int:
        return (self.source_centroids.shape[0] + self.cluster_centroids.shape[0]
                + self.outlier_features.shape[0])

    def slots(self) -> np.ndarray:
        return np.vstack([self.source_centroids, self.cluster_centroids,
                          self.outlier_features])

    def source_slots(self, identities: np.ndarray) -> np.ndarray:
        """Slot of the class of every source row, given the row identities."""
        ids = np.asarray(identities, dtype=np.int64)
        class_ids = np.asarray(self.source_class_ids, dtype=np.int64)
        slots = np.searchsorted(class_ids, ids)
        unknown = (slots == class_ids.size) | \
            (class_ids[np.minimum(slots, class_ids.size - 1)] != ids)
        if np.any(unknown):
            raise ValueError(f"unresolvable source identity {ids[unknown][0]}")
        return slots

    def task_slots(self, cluster_labels: np.ndarray) -> np.ndarray:
        """Slot of every task row under the assignment the memory was built
        from: its cluster's slot, or its own slot for an OUTLIER row."""
        labels = np.asarray(cluster_labels, dtype=np.int64)
        n_src, n_cl = self.source_centroids.shape[0], self.cluster_centroids.shape[0]
        bad = (labels < OUTLIER) | (labels >= n_cl)
        if np.any(bad):
            raise ValueError(f"unresolvable cluster id {labels[bad][0]}")
        outlier_rows = np.flatnonzero(labels == OUTLIER)
        if outlier_rows.tolist() != self.outlier_sample_indices:
            raise ValueError("unresolvable outlier rows: they differ from the "
                             "memory's outlier instances")
        slots = n_src + labels
        slots[outlier_rows] = n_src + n_cl + np.arange(outlier_rows.size)
        return slots

    def update(self, slot_indices: np.ndarray, unit_features: np.ndarray) -> None:
        """slot <- momentum * slot + (1 - momentum) * feature, renormalized.

        Applied sequentially in batch order after the optimizer step.
        """
        n_src = self.source_centroids.shape[0]
        n_cl = self.cluster_centroids.shape[0]
        for slot, feat in zip(slot_indices, unit_features):
            slot = int(slot)
            if slot < n_src:
                bank, row = self.source_centroids, slot
            elif slot < n_src + n_cl:
                bank, row = self.cluster_centroids, slot - n_src
            else:
                bank, row = self.outlier_features, slot - n_src - n_cl
            mixed = self.momentum * bank[row] + (1.0 - self.momentum) * feat
            norm = np.linalg.norm(mixed)
            if norm > 0:
                bank[row] = mixed / norm


def _mean_slot(unit_feats: np.ndarray, rows: np.ndarray, what: str) -> np.ndarray:
    mean = unit_feats[rows].mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0.0:
        # forced-degenerate case: fall back to the lowest-index member
        log.warning("degenerate %s centroid (zero mean), using member %d", what, rows[0])
        return unit_feats[rows[0]].copy()
    return mean / norm


def rebuild_memory(memory: HybridMemory | None, source_descriptors: np.ndarray,
                   source_groups: LabelGroups, task_features: np.ndarray,
                   assignment: ClusterAssignment, extractor: MLP,
                   momentum: float = 0.2, temperature: float = 0.05) -> HybridMemory:
    """Recompute all slots from the current features and cluster assignment.

    Source class centroids average the extractor's (teacher) features of
    the source rows grouped by identity in source_groups; cluster
    centroids average the provided task features; every outlier keeps its
    own slot. Momentum and temperature carry over from the previous memory
    when one is given.
    """
    if memory is not None:
        momentum, temperature = memory.momentum, memory.temperature
    src_unit = _unit_rows(extractor.features(source_descriptors))
    src_centroids = np.stack([_mean_slot(src_unit, rows, "source-class")
                              for rows in source_groups.members])

    task_unit = _unit_rows(np.asarray(task_features, dtype=np.float64))
    if assignment.labels.shape[0] != task_unit.shape[0]:
        raise ValueError("assignment is not parallel to task_features")
    clusters = LabelGroups.of(assignment.labels)
    if not np.array_equal(clusters.labels, np.arange(assignment.n_clusters)):
        raise ValueError("assignment has empty or out-of-range cluster ids")
    if assignment.n_clusters > 0:
        cluster_centroids = np.stack([_mean_slot(task_unit, rows, "cluster")
                                      for rows in clusters.members])
    else:
        cluster_centroids = np.zeros((0, task_unit.shape[1]))
    outlier_rows = np.flatnonzero(assignment.labels == OUTLIER)
    outliers = task_unit[outlier_rows].copy() if outlier_rows.size else \
        np.zeros((0, task_unit.shape[1]))
    return HybridMemory(src_centroids, cluster_centroids, outliers,
                        source_groups.labels.tolist(), outlier_rows.tolist(),
                        momentum, temperature)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _project_through_normalization(raw: np.ndarray, unit: np.ndarray,
                                   grad_unit: np.ndarray) -> np.ndarray:
    """Chain rule through row-wise L2 normalization."""
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    inner = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - inner * unit) / norms


def contrastive_loss(batch_features: np.ndarray, slot_labels: np.ndarray,
                     memory: HybridMemory) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over cosine similarities to all memory slots.

    slot_labels holds each sample's positive slot index (resolve source
    classes / clusters / outliers through the memory first). Returns the
    loss and its gradient with respect to the raw batch features; slots
    are constants here, their momentum update happens separately.
    """
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(slot_labels, dtype=np.int64)
    if y.shape[0] != f.shape[0]:
        raise ValueError("labels not parallel to batch")
    if np.any(y < 0) or np.any(y >= memory.n_slots):
        bad = y[(y < 0) | (y >= memory.n_slots)][0]
        raise ValueError(f"unresolvable slot label {bad}")
    unit = _unit_rows(f)
    slots = memory.slots()
    logits = unit @ slots.T / memory.temperature
    logp = _log_softmax(logits)
    n = f.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    delta = np.exp(logp)
    delta[np.arange(n), y] -= 1.0
    grad_unit = (delta / n) @ slots / memory.temperature
    return loss, _project_through_normalization(f, unit, grad_unit)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray
                       ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; returns the gradient w.r.t. the logits."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != z.shape[0]:
        raise ValueError("labels not parallel to logits")
    if np.any(y < 0) or np.any(y >= z.shape[1]):
        raise ValueError("label out of range for logit width")
    logp = _log_softmax(z)
    n = z.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    grad = np.exp(logp)
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


def triplet_loss(batch_features: np.ndarray, labels: np.ndarray,
                 margin: float = 0.3) -> tuple[float, np.ndarray]:
    """Batch-hard triplet loss on Euclidean distances of unit features.

    Per anchor: hardest positive is the farthest same-label sample, hardest
    negative the closest other-label sample; hinge at the margin, averaged
    over anchors that have both. Returns the gradient w.r.t. raw features.
    """
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != f.shape[0]:
        raise ValueError("labels not parallel to batch")
    n = f.shape[0]
    unit = _unit_rows(f)
    d2 = np.clip(_sq_dists_sym(unit), 0.0, None)
    dist = np.sqrt(d2)

    same = y[:, None] == y[None, :]
    eye = np.eye(n, dtype=bool)
    pos_mask = same & ~eye
    neg_mask = ~same

    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise ValueError("no anchor with both a positive and a negative in batch")
    anchors = np.flatnonzero(valid)
    # argmax/argmin keep the first extreme, the lowest index among ties
    hardest_pos = np.argmax(np.where(pos_mask, dist, -np.inf), axis=1)[anchors]
    hardest_neg = np.argmin(np.where(neg_mask, dist, np.inf), axis=1)[anchors]
    hinge = dist[anchors, hardest_pos] - dist[anchors, hardest_neg] + margin
    active = hinge > 0
    a, p, m = anchors[active], hardest_pos[active], hardest_neg[active]
    # a running total in anchor order, as cumsum adds
    total = float(np.cumsum(hinge[active])[-1]) if a.size else 0.0

    # per active anchor, in anchor order: pull toward its hardest positive
    # (a += g, p -= g), push from its hardest negative (a -= g, m += g);
    # ufunc.at applies repeated rows one after another in that order
    d_ap, d_am = dist[a, p], dist[a, m]
    g_ap = (unit[a] - unit[p]) / np.where(d_ap > 1e-12, d_ap, 1.0)[:, None]
    g_am = (unit[a] - unit[m]) / np.where(d_am > 1e-12, d_am, 1.0)[:, None]
    rows = np.stack([a, p, a, m], axis=1).ravel()
    steps = np.stack([g_ap, -g_ap, -g_am, g_am], axis=1).reshape(-1, unit.shape[1])
    taken = np.repeat(np.stack([d_ap > 1e-12, d_am > 1e-12], axis=1), 2, axis=1).ravel()
    grad_unit = np.zeros_like(unit)
    np.add.at(grad_unit, rows[taken], steps[taken])
    grad_unit /= n_valid
    return total / n_valid, _project_through_normalization(f, unit, grad_unit)


def _sq_dists_sym(x: np.ndarray) -> np.ndarray:
    sq = np.sum(x * x, axis=1)
    return sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)


# ---------------------------------------------------------------------------
# PK sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelGroups:
    """Row indices grouped by label, with OUTLIER rows left out.

    labels holds the distinct labels in ascending order; members[i] holds
    the rows labelled labels[i], ascending. One stable argsort builds it,
    so a label array fixed for a run, task or epoch is grouped once and
    sampled from many times.
    """

    labels: np.ndarray
    members: list[np.ndarray]

    @classmethod
    def of(cls, labels: np.ndarray) -> "LabelGroups":
        y = np.asarray(labels, dtype=np.int64)
        rows = np.flatnonzero(y != OUTLIER)
        rows = rows[np.argsort(y[rows], kind="stable")]
        if rows.size == 0:
            return cls(np.zeros(0, dtype=np.int64), [])
        cuts = np.flatnonzero(np.diff(y[rows])) + 1
        return cls(y[rows[np.r_[0, cuts]]], np.split(rows, cuts))

    def __len__(self) -> int:
        return len(self.members)


def pk_batches(groups: LabelGroups, p: int, k_per_id: int,
               rng: np.random.Generator, n_batches: int):
    """Yield index batches of p distinct labels with k samples each.

    Outlier rows are never drawn, since groups leaves them out. Labels
    with fewer than k rows are resampled with replacement. The batches
    depend only on groups and the state of rng.
    """
    if len(groups) < p:
        raise ValueError(f"only {len(groups)} distinct labels available, need P={p}")
    for _ in range(n_batches):
        chosen = rng.choice(len(groups), size=p, replace=False)
        batch = []
        for c in chosen:
            g = groups.members[c]
            batch.append(rng.choice(g, size=k_per_id, replace=g.size < k_per_id))
        yield np.concatenate(batch)
