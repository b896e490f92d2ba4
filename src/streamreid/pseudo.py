"""Pseudo-labeling backend: DBSCAN, hybrid memory, and the re-id losses.

Unlabeled target features are clustered by dbscan(features, percentile,
min_pts), a deterministic from-scratch DBSCAN over cosine distances in
two steps: eps_neighbours keeps the pairs within eps, read in row slabs
of the upper triangle so that no n x n float matrix exists, and
expand_clusters grows clusters from those pairs (a k-reciprocal Jaccard
distance would replace the first step alone). Cluster indices become
training labels. The hybrid memory is one bank of L2-normalized slots,
one per source class, per target cluster and per outlier instance, in
that order; rebuild_memory hands out every task row's slot, and the
caller samples and labels its target batches by those slots. The bank
drives a unified contrastive loss. unit_rows is the one row normaliser
of the package. Cross-entropy and batch-hard triplet cover the
classifier-based training mode, and a PK sampler composes
identity-balanced batches. The run's config gives every hyper-parameter.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .mlp import MLP

log = logging.getLogger(__name__)

OUTLIER = -1


# ---------------------------------------------------------------------------
# DBSCAN
# ---------------------------------------------------------------------------

@dataclass
class ClusterAssignment:
    labels: np.ndarray          # per sample: cluster id or OUTLIER
    n_clusters: int
    eps_resolved: float

    def outlier_fraction(self) -> float:
        return float(np.mean(self.labels == OUTLIER))


def unit_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x scaled to unit length, and their norms. A zero-norm
    row raises, naming what the rows are and the row's number."""
    norms = np.linalg.norm(x, axis=1)
    if not norms.all():
        raise ValueError(f"zero-norm {what} row {np.flatnonzero(norms == 0.0)[0]}: "
                         "cosine similarity undefined")
    return x / norms[:, None], norms


def dbscan(features: np.ndarray, percentile: float, min_pts: int) -> ClusterAssignment:
    """Classic DBSCAN over cosine distances, deterministic by index order,
    in two steps: eps_neighbours finds the pairs within eps, the
    percentile of the pairwise distances, and expand_clusters grows the
    clusters of cores with min_pts neighbours from them. Another distance,
    such as a k-reciprocal Jaccard, would replace the neighbour step alone."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise ValueError("need a non-empty 2-d feature matrix")
    eps, self_within, pairs = eps_neighbours(unit_rows(f, "feature")[0], percentile)
    labels, n_clusters = expand_clusters(f.shape[0], pairs, self_within, min_pts)
    return ClusterAssignment(labels, n_clusters, eps)


def eps_neighbours(unit: np.ndarray, percentile: float
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """eps, the percentile of the strict upper triangle's cosine distances
    (0.0 for one point); whether each point is within eps of itself; and
    the flat positions i*n + j (i < j, ascending) of the pairs within eps.
    The distances are read in slabs of the upper triangle, so no n x n
    float matrix exists."""
    n = unit.shape[0]
    m = n * (n - 1) // 2
    # NumPy's linear percentile reads the order statistics k and k+1 at
    # the virtual index pos; the threshold only filters, and a shortfall
    # reads the whole triangle
    pos = (m - 1) * (percentile / 100)
    need = min(math.floor(pos) + 2, m)
    diag, pairs, values = _upper_pairs(unit, _eps_threshold(unit, need))
    if values.size < need:
        diag, pairs, values = _upper_pairs(unit, math.inf)
    eps = _percentile_of_lowest(values, pos) if m else 0.0
    return eps, diag <= eps, pairs[values <= eps]


def expand_clusters(n: int, pairs: np.ndarray, self_within: np.ndarray,
                    min_pts: int) -> tuple[np.ndarray, int]:
    """The labels of n points and their cluster count, from the flat
    positions i*n + j (i < j) of the pairs within eps and whether each
    point is within eps of itself. Core points have at least min_pts
    neighbours within eps (self included); clusters grow from the first
    unvisited core in index order, so a border point reachable from
    several clusters joins the earliest-created one."""
    # the pairs' index arrays go before the breadth-first search
    rows, cols = np.divmod(pairs, n)
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[rows, cols] = True
    adjacent[cols, rows] = True
    np.fill_diagonal(adjacent, self_within)
    del rows, cols

    core = np.count_nonzero(adjacent, axis=1) >= min_pts
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
    return labels, n_clusters


EPS_BLOCK_ROWS = 128    # rows of the distance slabs; slabs start at its multiples
_EPS_SAMPLE = 4096      # matrix entries the candidate threshold is read from
# a slab's leading square right of its diagonal; a slab has at most
# EPS_BLOCK_ROWS + 1 rows
_RIGHT_OF_DIAGONAL = np.triu(np.ones((EPS_BLOCK_ROWS + 1,) * 2, dtype=bool), 1)


def _distance_slabs(unit: np.ndarray):
    """Yield (lo, slab): the cosine distances 1 - u_i.u_j, clipped at 0, of
    the unit rows lo:lo+h against the rows lo:, for lo = 0, EPS_BLOCK_ROWS,
    2*EPS_BLOCK_ROWS, ... Their upper triangles, diagonal included, tile
    the matrix's.

    A one-row tail joins the slab before it: a one-row product goes to
    gemv, whose bits differ from the full product's. With OpenBLAS, slabs
    aligned this way carry the bits of unit @ unit.T when n is a multiple
    of 8; tests/test_pseudo.py pins that at the shipped task sizes.
    """
    n = unit.shape[0]
    lo = 0
    while lo < n:
        hi = lo + EPS_BLOCK_ROWS
        if hi >= n - 1:
            hi = n
        slab = unit[lo:hi] @ unit[lo:].T
        np.subtract(1.0, slab, out=slab)
        yield lo, np.maximum(slab, 0.0, out=slab)
        lo = hi


def _upper_pairs(unit: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over _distance_slabs: the diagonal, and the flat positions
    i*n + j (i < j, row-major) and values of the strict upper triangle's
    distances at or below t. ~(d > t) keeps a NaN too, so a NaN reaches
    the percentile and makes it NaN, as it makes np.percentile's."""
    n = unit.shape[0]
    diag, pairs, values = [], [], []
    for lo, slab in _distance_slabs(unit):
        h = slab.shape[0]
        diag.append(slab.diagonal().copy())
        keep = slab > t
        np.logical_not(keep, out=keep)
        keep[:, :h] &= _RIGHT_OF_DIAGONAL[:h, :h]
        # slab entry at = r*(n-lo) + c is the pair (lo+r, lo+c)
        at = np.flatnonzero(keep)
        values.append(slab.take(at))
        at += (at // (n - lo)) * lo
        at += lo * (n + 1)
        pairs.append(at)
    return np.concatenate(diag), np.concatenate(pairs), np.concatenate(values)


def _eps_threshold(unit: np.ndarray, count: int) -> float:
    """A distance with, most likely, count strict upper triangle values at
    or below it, read from a strided sample of the symmetric n x n
    distance matrix with four standard errors to spare; inf when the
    sample would read most of the matrix anyway."""
    n = unit.shape[0]
    step = n * n // _EPS_SAMPLE
    if step < 2:
        return math.inf
    rows, cols = np.divmod(np.arange(0, n * n, step), n)
    sample = 1.0 - np.einsum("ij,ij->i", unit[rows], unit[cols])
    np.maximum(sample, 0.0, out=sample)
    # the share of all n*n entries (both triangles and the diagonal) that
    # count triangle values make
    share = (2 * count + n) / (n * n)
    r = math.ceil(sample.size * share + 4 * math.sqrt(sample.size * share * (1 - share)))
    if r >= sample.size:
        return math.inf
    sample.partition(r)
    return float(sample[r])


def _percentile_of_lowest(values: np.ndarray, pos: float) -> float:
    """np.percentile's linear method at virtual index pos, bit for bit,
    over a set whose floor(pos)+2 lowest values (all of it, when it has
    fewer) are among values.

    NumPy interpolates between the order statistics k and k+1; both come
    from one partition at k plus the minimum above it, and mix as NumPy's
    _lerp does.
    """
    k = math.floor(pos)
    if k + 1 >= values.size:
        return float(values.max())
    part = np.partition(values, k)
    a, b = part[k], part[k + 1:].min()
    g = pos - k
    return float(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))


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

@dataclass
class HybridMemory:
    """Slot bank [source classes | target clusters | outlier instances],
    laid out by rebuild_memory. Every row of the float64 bank is an
    L2-normalized slot; slots() returns it read-only, update() writes it."""

    bank: np.ndarray
    momentum: float
    temperature: float

    @property
    def n_slots(self) -> int:
        return self.bank.shape[0]

    def slots(self) -> np.ndarray:
        """Every slot as a row: a read-only view of the bank."""
        view = self.bank.view()
        view.flags.writeable = False
        return view

    def update(self, slot_indices: np.ndarray, unit_features: np.ndarray) -> None:
        """slot <- momentum * slot + (1 - momentum) * feature, renormalized.

        Applied once the step's losses are computed, with the result of
        applying the rows one by one in batch order: round r mixes in every
        slot's r-th row at once, so a slot repeated in the batch takes its
        rows in order.
        """
        slots = np.asarray(slot_indices, dtype=np.int64)
        feats = np.asarray(unit_features, dtype=np.float64)
        bad = (slots < 0) | (slots >= self.n_slots)
        if np.any(bad):
            raise ValueError(f"unresolvable slot label {slots[bad][0]}")
        # occurrence rank of every row among the rows of its slot: its
        # distance from the start of its run in the stable slot order
        order = np.argsort(slots, kind="stable")
        ordered = slots[order]
        run_start = np.arange(slots.size)
        run_start[1:][ordered[1:] == ordered[:-1]] = 0
        rank = np.arange(slots.size) - np.maximum.accumulate(run_start)
        for r in range(int(rank.max(initial=-1)) + 1):
            now = order[rank == r]
            rows = slots[now]
            mixed = self.momentum * self.bank[rows] + (1.0 - self.momentum) * feats[now]
            norms = _row_norms(mixed)
            kept = norms > 0
            self.bank[rows[kept]] = mixed[kept] / norms[kept, None]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of every row, each one dot product as np.linalg.norm takes
    it of a single vector (norm(axis=1) sums squares in another order)."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _round_count(sizes: np.ndarray) -> int:
    """Rounds t minimizing t + #(groups of more than t rows): the NumPy
    calls _unit_means makes, one gather per round plus one sum per group
    too large for the rounds."""
    ts = np.concatenate(([0], np.sort(sizes)))
    cost = ts + (sizes.size - np.searchsorted(ts[1:], ts, side="right"))
    return int(ts[np.argmin(cost)])


def _unit_means(unit_feats: np.ndarray, groups: LabelGroups, what: str) -> np.ndarray:
    """Unit-normalized mean of every group's rows.

    Each mean is bit-equal to unit_feats[rows].mean(axis=0), which adds
    the rows one after another from zero: round j adds the j-th member of
    every group at once, and a group of more rows than there are rounds
    is summed by itself. A zero mean falls back to the group's
    lowest-index member.
    """
    sums = np.zeros((len(groups), unit_feats.shape[1]))
    n_rounds = _round_count(groups.sizes)
    for j in range(n_rounds):
        has = np.flatnonzero(groups.sizes > j)
        sums[has] += unit_feats[groups.rows[groups.starts[has] + j]]
    for g in np.flatnonzero(groups.sizes > n_rounds):
        start = groups.starts[g]
        sums[g] = unit_feats[groups.rows[start:start + groups.sizes[g]]].sum(axis=0)
    means = sums / groups.sizes[:, None]
    norms = _row_norms(means)
    degenerate = np.flatnonzero(norms == 0.0)
    for g in degenerate:
        first = groups.rows[groups.starts[g]]
        log.warning("degenerate %s centroid (zero mean), using member %d", what, first)
        means[g] = unit_feats[first]
    norms[degenerate] = 1.0
    return means / norms[:, None]


def rebuild_memory(source_descriptors: np.ndarray, source_groups: LabelGroups,
                   task_features: np.ndarray, assignment: ClusterAssignment,
                   extractor: MLP, momentum: float,
                   temperature: float) -> tuple[HybridMemory, np.ndarray]:
    """Recompute all slots from the current features and cluster
    assignment; returns the memory and every task row's slot.

    With n_src groups in source_groups, group i is slot i, the centroid of
    the extractor's (teacher) features of its source rows; cluster c is
    slot n_src + c, the centroid of its task features; the task's j-th
    outlier row (in row order) is slot n_src + n_clusters + j, its own
    feature.
    """
    src_unit, _ = unit_rows(extractor.features(source_descriptors), "source feature")
    src_centroids = _unit_means(src_unit, source_groups, "source-class")

    task_unit, _ = unit_rows(np.asarray(task_features, dtype=np.float64), "task feature")
    if assignment.labels.shape[0] != task_unit.shape[0]:
        raise ValueError("assignment is not parallel to task_features")
    clusters = LabelGroups.of(assignment.labels)
    if not np.array_equal(clusters.labels, np.arange(assignment.n_clusters)):
        raise ValueError("assignment has empty or out-of-range cluster ids")
    cluster_centroids = _unit_means(task_unit, clusters, "cluster")
    outliers = np.flatnonzero(assignment.labels == OUTLIER)
    slots = len(source_groups) + assignment.labels
    slots[outliers] = len(source_groups) + assignment.n_clusters + np.arange(outliers.size)
    return HybridMemory(np.vstack([src_centroids, cluster_centroids, task_unit[outliers]]),
                        momentum, temperature), slots


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _softmax_cross_entropy(logits: np.ndarray, y: np.ndarray
                           ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the row softmax of logits against labels y,
    and its gradient w.r.t. the logits, computed in one fresh buffer."""
    n = logits.shape[0]
    peak = logits.max(axis=1, keepdims=True)
    # exp(z) is summed in z's buffer and z formed again: one n x K array
    z = logits - peak
    sums = np.exp(z, out=z).sum(axis=1, keepdims=True)
    np.subtract(logits, peak, out=z)
    z -= np.log(sums)                                       # log-softmax
    rows = np.arange(n)
    loss = float(-(z[rows, y].sum() / n))   # the bits of mean()
    np.exp(z, out=z)
    z[rows, y] -= 1.0
    z /= n
    return loss, z


def _through_normalization(grad_unit: np.ndarray, unit: np.ndarray,
                           norms: np.ndarray) -> np.ndarray:
    """Chain rule through unit = raw / norms row by row: the gradient
    w.r.t. raw, computed in grad_unit's buffer."""
    inner = (grad_unit * unit).sum(axis=1, keepdims=True)
    grad_unit -= inner * unit
    grad_unit /= norms[:, None]
    return grad_unit


def contrastive_loss(batch_features: np.ndarray, slot_labels: np.ndarray,
                     memory: HybridMemory) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over cosine similarities to all memory slots.

    slot_labels holds each sample's positive slot index in the bank layout
    HybridMemory documents. Returns the loss and its gradient with respect
    to the raw batch features; slots are constants here, their momentum
    update happens separately.
    """
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(slot_labels, dtype=np.int64)
    if y.shape[0] != f.shape[0]:
        raise ValueError("labels not parallel to batch")
    bad = (y < 0) | (y >= memory.n_slots)
    if bad.any():
        raise ValueError(f"unresolvable slot label {y[bad][0]}")
    unit, norms = unit_rows(f, "batch feature")
    slots = memory.slots()
    logits = unit @ slots.T
    logits /= memory.temperature
    loss, delta = _softmax_cross_entropy(logits, y)
    grad_unit = delta @ slots
    grad_unit /= memory.temperature
    return loss, _through_normalization(grad_unit, unit, norms)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray
                       ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; returns the gradient w.r.t. the logits."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != z.shape[0]:
        raise ValueError("labels not parallel to logits")
    if ((y < 0) | (y >= z.shape[1])).any():
        raise ValueError("label out of range for logit width")
    return _softmax_cross_entropy(z, y)


def triplet_loss(batch_features: np.ndarray, labels: np.ndarray,
                 margin: float) -> tuple[float, np.ndarray]:
    """Batch-hard triplet loss on Euclidean distances of unit features.

    Per anchor: hardest positive is the farthest same-label sample, hardest
    negative the closest other-label sample; hinge at the margin, averaged
    over anchors that have both. Returns the gradient w.r.t. raw features.
    """
    f = np.asarray(batch_features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != f.shape[0]:
        raise ValueError("labels not parallel to batch")
    n, c = f.shape
    unit, norms = unit_rows(f, "batch feature")
    dist = np.sqrt(sq_distances(unit))

    # positives are the other rows of the anchor's label, negatives the rows
    # of other labels; argmax/argmin keep the first extreme, the lowest index
    # among ties, and find only the fill when an anchor has none
    same = y[:, None] == y
    far = np.where(same, dist, -np.inf)
    far.flat[::n + 1] = -np.inf
    near = np.where(same, np.inf, dist)
    every = np.arange(n)
    hardest_pos, hardest_neg = far.argmax(axis=1), near.argmin(axis=1)
    d_pos, d_neg = far[every, hardest_pos], near[every, hardest_neg]
    n_valid = int(np.count_nonzero((d_pos != -np.inf) & (d_neg != np.inf)))
    if n_valid == 0:
        raise ValueError("no anchor with both a positive and a negative in batch")
    hinge = d_pos - d_neg + margin          # -inf for an anchor without both
    a = (hinge > 0).nonzero()[0]
    # a running total in anchor order, as cumsum adds
    total = float(np.add.accumulate(hinge[a])[-1]) if a.size else 0.0

    # four steps per active anchor, in anchor order: pull toward its hardest
    # positive (rows a, p take g_ap, -g_ap), push from its hardest negative
    # (rows a, m take -g_am, g_am), where g_xz = (unit[x] - unit[z]) / d_xz.
    # A step is built as (unit[x] - unit[z]) / d with its pair's ends x, z
    # in the step's order: IEEE negation is exact, so that is -g bit for
    # bit. A pair closer than 1e-12 adds nothing. bincount adds its weights
    # in input order from zero, as np.add.at does, so a repeated row sums
    # its steps in that order.
    p, m = hardest_pos[a], hardest_neg[a]
    ends = np.array([a, p, a, m,            # rows
                     a, p, m, a,            # x
                     p, a, a, m]).reshape(3, 4, -1)   # z
    d_ap, d_am = d_pos[a], d_neg[a]
    d = np.array([d_ap, d_ap, d_am, d_am]).T.ravel()
    taken = d > 1e-12
    rows, x, z = ends.transpose(0, 2, 1).reshape(3, -1)[:, taken]
    d = d[taken]
    steps = (unit[x] - unit[z]) / d[:, None]
    grad_unit = np.bincount((rows[:, None] * c + np.arange(c)).ravel(),
                            weights=steps.ravel(), minlength=n * c)
    # bincount returns integer zeros when it is given no weights
    grad_unit = grad_unit.astype(np.float64, copy=False).reshape(n, c)
    grad_unit /= n_valid
    return total / n_valid, _through_normalization(grad_unit, unit, norms)


def sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x from one Gram matrix,
    summed as (sq_i + sq_j) - 2 G_ij in that order and clipped at 0."""
    sq = (x * x).sum(axis=1)
    gram = x @ x.T
    gram *= 2.0
    d2 = sq[:, None] + sq
    d2 -= gram
    return np.maximum(d2, 0.0, out=d2)


# ---------------------------------------------------------------------------
# PK sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelGroups:
    """Row indices grouped by label, with OUTLIER rows left out.

    labels holds the distinct labels in ascending order; the rows labelled
    labels[i], ascending, are rows[starts[i]:starts[i] + sizes[i]]. One
    stable argsort builds it, so a label array fixed for a run, task or
    epoch is grouped once and sampled from many times.
    """

    labels: np.ndarray
    rows: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, labels: np.ndarray) -> "LabelGroups":
        y = np.asarray(labels, dtype=np.int64)
        rows = np.flatnonzero(y != OUTLIER)
        rows = rows[np.argsort(y[rows], kind="stable")]
        grouped = y[rows]
        # group boundaries: the first row, every label change, the end
        cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [rows.size])) if rows.size else np.zeros(1, np.int64)
        return cls(grouped[bounds[:-1]], rows, np.diff(bounds), bounds[:-1])

    def __len__(self) -> int:
        return self.labels.size


def _tail_shuffled(pop: int, size: int) -> bool:
    """Whether Generator.choice(pop, size, replace=False) shuffles the tail
    of arange(pop) rather than running Floyd's algorithm."""
    return pop > 10000 and size > pop // 50


def _choice_bounds(pop: int, size: int, replace: bool) -> list[int]:
    """The inclusive upper bounds of the bounded-integer draws that
    Generator.choice(pop, size, replace) makes, in the order it makes them.

    With replacement: size draws below pop. Without: Floyd's algorithm
    draws with bounds pop-size .. pop-1, then the Fisher-Yates shuffle of
    the picks draws with bounds size-1 .. 1; the tail shuffle instead
    draws pop-1 down to max(pop-size, 1). A bound of 0 consumes nothing.
    """
    if replace:
        return [pop - 1] * size
    if _tail_shuffled(pop, size):
        return list(range(pop - 1, max(pop - size, 1) - 1, -1))
    return list(range(pop - size, pop)) + list(range(size - 1, 0, -1))


def _choice_from_draws(pop: int, size: int, replace: bool,
                       draws: list[int]) -> list[int]:
    """What Generator.choice(pop, size, replace) returns, rebuilt from the
    draws whose bounds _choice_bounds gives."""
    if replace:
        return draws
    if _tail_shuffled(pop, size):
        moved: dict[int, int] = {}      # the swapped entries of arange(pop)
        for i, j in zip(range(pop - 1, 0, -1), draws):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(pop - size, pop)]
    picks: list[int] = []
    taken: set[int] = set()
    for j, v in zip(range(pop - size, pop), draws):
        if v in taken:                  # Floyd: a value already taken gives j
            v = j
        taken.add(v)
        picks.append(v)
    for i, j in zip(range(size - 1, 0, -1), draws[size:]):
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def pk_batches(groups: LabelGroups, p: int, k_per_id: int,
               rng: np.random.Generator):
    """Yield index batches of p distinct labels with k samples each, until
    the caller stops.

    Outlier rows are never drawn, since groups leaves them out. Labels
    with fewer than k rows are resampled with replacement. The batches
    depend only on groups and the state of rng. The bounds they are drawn
    against are built once, at the first batch, so a caller keeps one
    sampler for as long as its groups live and stops it by step count.

    A batch makes two rng.integers calls, one for the labels and one for
    the members of all p labels. They are the bounded draws that
    rng.choice makes, in its order, and _choice_from_draws rebuilds its
    picks, so the batches and the state of rng afterwards are those of
    rng.choice(len(groups), p, replace=False) followed by one
    rng.choice(members, k, replace=size < k) per picked label.
    """
    n_labels = len(groups)
    if n_labels < p:
        raise ValueError(f"only {n_labels} distinct labels available, need P={p}")
    sizes, starts = groups.sizes, groups.starts
    label_bounds = np.array(_choice_bounds(n_labels, p, False), dtype=np.int64)
    member_bounds = {size: _choice_bounds(size, k_per_id, size < k_per_id)
                     for size in np.unique(sizes).tolist()}
    while True:
        chosen = _choice_from_draws(n_labels, p, False, rng.integers(
            0, label_bounds, endpoint=True).tolist())
        bounds = [b for c in chosen for b in member_bounds[int(sizes[c])]]
        draws = rng.integers(0, np.array(bounds, dtype=np.int64), endpoint=True).tolist()
        picks: list[int] = []
        at = 0
        for c in chosen:
            size, start = int(sizes[c]), int(starts[c])
            end = at + len(member_bounds[size])
            picks += [start + i for i in _choice_from_draws(
                size, k_per_id, size < k_per_id, draws[at:end])]
            at = end
        yield groups.rows[picks]
