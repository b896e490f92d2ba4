"""Support-set selection, EMA teacher, and the two preservation losses.

The support set is the privacy-safe replay memory: for every target sample
in a finished task we pick the source sample with the highest cosine
similarity in feature space and pull in that identity's complete source
image set. It is held as row indices into the run's source dataset plus
the age order of its identities. While the next task trains, a teacher
and the support set anchor the student twice over: a
knowledge-distillation loss on normalized pairwise-similarity matrices,
and a Gaussian-kernel MMD loss that pulls student-target features toward
teacher-source features. The teacher is a plain MLP that ema_update
moves toward the student by the run's alpha.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset, Domain
from .mlp import MLP
from .pseudo import sq_distances, unit_rows

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Support set
# ---------------------------------------------------------------------------

class SupportMode(Enum):
    FULL_SOURCE = "FullSource"
    RANK1_NN = "Rank1NN"
    IDENTITY_EXPANDED = "IdentityExpanded"


@dataclass
class SupportSet:
    """Source rows retained as distillation memory after a task.

    rows index the run's source dataset, which must be source-domain. They
    are closed under source identity in IdentityExpanded mode: if one row
    of an identity is present, all of them are. identity_order tracks
    insertion age (oldest first) for capped accumulation.
    """

    source: Dataset
    rows: np.ndarray
    identity_order: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.source.domain is not Domain.SOURCE:
            raise ValueError("support set rows must index a source-domain dataset, "
                             f"got a {self.source.domain.value} one")
        self.rows = np.asarray(self.rows, dtype=np.int64)

    def __len__(self) -> int:
        return self.rows.size

    def identities(self) -> set[int]:
        return set(self.source.identities()[self.rows].tolist())

    def descriptor_matrix(self) -> np.ndarray:
        return self.source.descriptor_matrix()[self.rows]


SUPPORT_BLOCK_ROWS = 64


def select_support(target_task: Dataset, source: Dataset, extractor: MLP,
                   mode: SupportMode) -> SupportSet:
    """Build the support set for a finished target task.

    For each target sample, the source sample maximizing cosine similarity
    of extractor features is found by exact exhaustive search (ties broken
    by lowest source index). IdentityExpanded returns every source sample
    of the selected identities; Rank1NN keeps just the argmax samples;
    FullSource ignores similarities and keeps the whole source train set.
    """
    if not len(source) or not len(target_task):
        raise ValueError("source and target task must be non-empty")
    if mode is SupportMode.FULL_SOURCE:
        return SupportSet(source, np.arange(len(source)), sorted(source.identity_set()))

    f_src, _ = unit_rows(extractor.features(source.descriptor_matrix()), "source feature")
    f_tgt, _ = unit_rows(extractor.features(target_task.descriptor_matrix()),
                         "target feature")
    # cosine argmax one slab of target rows at a time, so only a
    # (SUPPORT_BLOCK_ROWS, n_source) block of similarities is ever alive;
    # the first max is the lowest source index
    best = np.empty(f_tgt.shape[0], dtype=np.int64)
    for lo in range(0, f_tgt.shape[0], SUPPORT_BLOCK_ROWS):
        best[lo:lo + SUPPORT_BLOCK_ROWS] = np.argmax(
            f_tgt[lo:lo + SUPPORT_BLOCK_ROWS] @ f_src.T, axis=1)

    src_ids = source.identities()
    ids = np.unique(src_ids[best])
    if mode is SupportMode.RANK1_NN:
        rows = np.unique(best)
    else:
        rows = np.flatnonzero(np.isin(src_ids, ids))
    return SupportSet(source, rows, ids.tolist())


def merge_support(old: SupportSet, new: SupportSet, cap_identities: int) -> SupportSet:
    """Union two support sets, evicting the oldest identities beyond the cap.

    Identities re-selected by the new set keep their new age. cap 0 means
    unlimited. Rows are grouped by identity in age order; within an
    identity, old rows come before new ones and a repeated row is kept at
    its first occurrence.
    """
    if old.source is not new.source:
        raise ValueError("cannot merge support sets over different source datasets")
    fresh = new.identities()
    order = [i for i in old.identity_order if i not in fresh]
    order += list(new.identity_order)
    if cap_identities > 0:
        order = order[-cap_identities:]
    rows = np.concatenate([old.rows, new.rows])
    rows = rows[np.sort(np.unique(rows, return_index=True)[1])]   # first occurrences
    ids = new.source.identities()[rows]
    order_ids = np.array(order, dtype=np.int64)
    kept = np.isin(ids, order_ids)
    rows, ids = rows[kept], ids[kept]
    by_id = np.argsort(order_ids)
    age = by_id[np.searchsorted(order_ids, ids, sorter=by_id)]
    rows = rows[np.argsort(age, kind="stable")]   # an identity's rows keep scan order
    return SupportSet(new.source, rows, order)


# ---------------------------------------------------------------------------
# EMA teacher
# ---------------------------------------------------------------------------

def ema_update(teacher: MLP, student: MLP, alpha: float) -> MLP:
    """teacher <- alpha * teacher + (1 - alpha) * student, in place over
    the whole parameter vector."""
    if teacher.layer_dims != student.layer_dims:
        raise ValueError(f"teacher layers {teacher.layer_dims} do not match "
                         f"student layers {student.layer_dims}")
    tp = teacher.theta
    tp[...] = alpha * tp + (1.0 - alpha) * student.theta
    teacher.mark_updated()
    return teacher


# ---------------------------------------------------------------------------
# Similarity-matrix knowledge distillation
# ---------------------------------------------------------------------------

def kd_loss_from_features(f_teacher: np.ndarray, f_student: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Squared Frobenius distance between the norm-scaled Gram matrices
    S = F F^T of two raw feature batches of one row count (at least 2),
    and its exact gradient with respect to the student features; the
    teacher branch is constant. Both-zero Gram matrices give loss 0 by
    convention, one-sided zero is an error."""
    ft = np.asarray(f_teacher, dtype=np.float64)
    fs = np.asarray(f_student, dtype=np.float64)
    if ft.ndim != 2 or fs.ndim != 2 or min(len(ft), len(fs)) < 2:
        raise ValueError("need a 2-d feature matrix with at least 2 rows")
    sb, ss = ft @ ft.T, fs @ fs.T
    if sb.shape != ss.shape:
        raise ValueError("similarity matrices must have equal shape")
    nb, ns = np.linalg.norm(sb), np.linalg.norm(ss)
    if nb == 0.0 and ns == 0.0:
        return 0.0, np.zeros_like(fs)
    if nb == 0.0 or ns == 0.0:
        raise ValueError("one similarity matrix is zero while the other is not")
    a, b = ss / ns, sb / nb
    diff = b - a
    loss = float(np.sum(diff * diff))
    # d loss / d a = 2 (a - b); project through a = S/||S||
    g = 2.0 * (a - b)
    grad_s = g / ns - (np.sum(g * ss) / ns**3) * ss
    # S = F F^T with symmetric grad_s, so dL/dF = 2 * grad_s @ F
    return loss, 2.0 * grad_s @ fs


# ---------------------------------------------------------------------------
# Gaussian-kernel MMD
# ---------------------------------------------------------------------------

SIGMA2_FLOOR = 1e-12


def mmd_bandwidth(batch_a: np.ndarray, batch_b: np.ndarray) -> float:
    """Bandwidth estimate: sigma^2 is the mean over the two batches of the
    per-feature variance summed across dimensions; falls back to 1 for
    (near-)constant batches."""
    sigma2 = 0.5 * (np.var(batch_a, axis=0).sum() + np.var(batch_b, axis=0).sum())
    if sigma2 < SIGMA2_FLOOR:
        log.debug("mmd bandwidth degenerate (%.3e), falling back to 1", sigma2)
        sigma2 = 1.0
    return float(np.sqrt(sigma2))


def mmd_loss(b_teacher_source: np.ndarray, b_student_target: np.ndarray,
             sigma: float | None = None) -> tuple[float, np.ndarray, float]:
    """Biased MMD estimate between equal-sized batches, diagonal included.

    The teacher-source branch is constant; the returned gradient is with
    respect to the student-target features only. sigma None means the
    per-batch estimate from mmd_bandwidth (treated as a constant for the
    gradient). Returns (loss, grad_student, sigma_used).
    """
    bt = np.asarray(b_teacher_source, dtype=np.float64)
    bs = np.asarray(b_student_target, dtype=np.float64)
    if bt.ndim != 2 or bs.ndim != 2 or bt.shape != bs.shape:
        raise ValueError(f"batches must share (n, c) shape, got {bt.shape} and {bs.shape}")
    n = bt.shape[0]
    if sigma is None:
        sigma = mmd_bandwidth(bt, bs)
    elif sigma <= 0:
        raise ValueError("sigma must be positive")
    s2 = sigma * sigma

    # blocks of one (2n, 2n) kernel: teacher-teacher, student-student, cross
    k = np.exp(-sq_distances(np.concatenate([bt, bs])) / (2.0 * s2))
    k_tt, k_ss, k_ts = k[:n, :n], k[n:, n:], k[:n, n:]
    loss = float((k_tt.sum() + k_ss.sum() - 2.0 * k_ts.sum()) / n**2)

    # d/d bs_p of the student-student block: 2/n^2 sum_j K(p,j)(b_j - b_p)/s2;
    # of the cross block: 2/n^2 sum_i K(i,p)(b_p - bt_i)/s2.
    row_ss = k_ss.sum(axis=1)
    col_ts = k_ts.sum(axis=0)
    grad = (k_ss @ bs - row_ss[:, None] * bs) + (col_ts[:, None] * bs - k_ts.T @ bt)
    grad *= 2.0 / (n**2 * s2)
    return loss, grad, float(sigma)
