"""Support-set selection, EMA teacher, and the two preservation losses.

The support set is the privacy-safe replay memory: for every target sample
in a finished task we pick the source sample with the highest cosine
similarity in feature space and pull in that identity's complete source
image set. While the next task trains, a teacher (exponential moving
average of the student) and the support set anchor the student twice over:
a knowledge-distillation loss on normalized pairwise-similarity matrices,
and a Gaussian-kernel MMD loss that pulls student-target features toward
teacher-source features.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset, Domain, Sample, save_feature_file, Split
from .mlp import MLP, ParamDict

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
    """Source samples retained as distillation memory after a task.

    entries are closed under source identity in IdentityExpanded mode: if
    one sample of an identity is present, all of them are. identity_order
    tracks insertion age (oldest first) for capped accumulation.
    """

    entries: list[Sample]
    built_from_task: int
    identity_scores: dict[int, float] = field(default_factory=dict)
    identity_order: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def identities(self) -> set[int]:
        return {s.identity for s in self.entries}

    def descriptor_matrix(self) -> np.ndarray:
        return np.stack([s.descriptor for s in self.entries])

    def as_dataset(self) -> Dataset:
        return Dataset(list(self.entries), Split.TRAIN)

    def validate(self) -> None:
        if any(s.domain is not Domain.SOURCE for s in self.entries):
            raise ValueError("support set contains non-source samples")


def _checked_unit_rows(feats: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(feats, axis=1)
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"zero-norm feature for {what} sample index {bad[0]} "
                         "(cosine similarity undefined)")
    return feats / norms[:, None]


def select_support(target_task: Dataset, source: Dataset, extractor: MLP,
                   mode: SupportMode = SupportMode.IDENTITY_EXPANDED,
                   built_from_task: int = 0) -> SupportSet:
    """Build the support set for a finished target task.

    For each target sample, the source sample maximizing cosine similarity
    of extractor features is found by exact exhaustive search (ties broken
    by lowest source index). IdentityExpanded returns every source sample
    of the selected identities; Rank1NN keeps just the argmax samples;
    FullSource ignores similarities and keeps the whole source train set.
    """
    if not source.samples or not target_task.samples:
        raise ValueError("source and target task must be non-empty")
    if mode is SupportMode.FULL_SOURCE:
        return SupportSet(list(source.samples), built_from_task,
                          identity_order=sorted(source.identity_set()))

    f_src = _checked_unit_rows(extractor.features(source.descriptor_matrix()), "source")
    f_tgt = _checked_unit_rows(extractor.features(target_task.descriptor_matrix()), "target")
    cos = f_tgt @ f_src.T                        # (n_target, n_source)
    best = np.argmax(cos, axis=1)                # first max = lowest source index
    best_scores = cos[np.arange(cos.shape[0]), best]

    # best similarity per selected identity, keyed in order of first selection
    src_ids = source.identities()
    picked_ids = src_ids[best]
    ids, first = np.unique(picked_ids, return_index=True)
    top = np.full(ids.size, -np.inf)
    np.maximum.at(top, np.searchsorted(ids, picked_ids), best_scores)
    by_first = np.argsort(first)
    scores = dict(zip(ids[by_first].tolist(), top[by_first].tolist()))

    if mode is SupportMode.RANK1_NN:
        entries = [source.samples[i] for i in np.unique(best)]
    else:
        entries = [s for s, ident in zip(source.samples, src_ids.tolist())
                   if ident in scores]
    return SupportSet(entries, built_from_task, scores, ids.tolist())


def merge_support(old: SupportSet, new: SupportSet,
                  cap_identities: int = 0) -> SupportSet:
    """Union two support sets, evicting the oldest identities beyond the cap.

    Identities re-selected by the new set keep their new age. cap 0 means
    unlimited.
    """
    fresh = new.identities()
    order = [i for i in old.identity_order if i not in fresh]
    order += list(new.identity_order)
    if cap_identities > 0:
        order = order[-cap_identities:]
    keep = set(order)
    by_id: dict[int, list[Sample]] = {}
    for s in old.entries + new.entries:
        if s.identity in keep:
            group = by_id.setdefault(s.identity, [])
            if all(t is not s for t in group):
                group.append(s)
    entries = [s for i in order for s in by_id.get(i, [])]
    scores = {**{k: v for k, v in old.identity_scores.items() if k in keep},
              **new.identity_scores}
    return SupportSet(entries, new.built_from_task, scores, order)


def save_support_set(path, support: SupportSet) -> None:
    """Write the entries as a feature file plus a sidecar of identities
    and the max similarity that selected each (for audit)."""
    save_feature_file(path, support.as_dataset())
    with open(f"{path}.sidecar", "w", encoding="ascii", newline="\n") as f:
        f.write("identity\tmax_similarity\n")
        for ident in support.identity_order:
            score = support.identity_scores.get(ident, float("nan"))
            f.write(f"{ident}\t{score!r}\n")


# ---------------------------------------------------------------------------
# EMA teacher
# ---------------------------------------------------------------------------

@dataclass
class TeacherState:
    """Shadow copy of the student; the only model used at inference time."""

    model: MLP
    alpha: float = 0.999

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")

    @classmethod
    def from_student(cls, student: MLP, alpha: float = 0.999) -> "TeacherState":
        teacher = MLP(student.layer_dims, seed=0)
        teacher.set_params(student.copy_params())
        return cls(teacher, alpha)


def ema_update(teacher: TeacherState, student_params: ParamDict,
               alpha: float | None = None) -> TeacherState:
    """teacher <- alpha * teacher + (1 - alpha) * student, per block."""
    a = teacher.alpha if alpha is None else alpha
    if not 0.0 <= a < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    tp = teacher.model.params
    if sorted(tp) != sorted(student_params):
        raise ValueError("teacher/student parameter blocks do not match")
    for name in sorted(tp):
        if tp[name].shape != student_params[name].shape:
            raise ValueError(f"shape mismatch on block {name!r}")
        tp[name] = a * tp[name] + (1.0 - a) * student_params[name]
    teacher.model.mark_updated()
    return teacher


# ---------------------------------------------------------------------------
# Similarity-matrix knowledge distillation
# ---------------------------------------------------------------------------

def similarity_matrix(features: np.ndarray) -> np.ndarray:
    """Gram matrix of raw (unnormalized) features: S = F F^T."""
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < 2:
        raise ValueError("need a 2-d feature matrix with at least 2 rows")
    return f @ f.T


def kd_loss(s_teacher: np.ndarray, s_student: np.ndarray
            ) -> tuple[float, np.ndarray]:
    """Squared Frobenius distance between norm-scaled similarity matrices.

    Returns the loss and its gradient with respect to the student
    similarity matrix; the teacher branch is constant. Both-zero matrices
    give loss 0 by convention, one-sided zero is an error.
    """
    sb = np.asarray(s_teacher, dtype=np.float64)
    ss = np.asarray(s_student, dtype=np.float64)
    if sb.shape != ss.shape:
        raise ValueError("similarity matrices must have equal shape")
    nb = np.linalg.norm(sb)
    ns = np.linalg.norm(ss)
    if nb == 0.0 and ns == 0.0:
        return 0.0, np.zeros_like(ss)
    if nb == 0.0 or ns == 0.0:
        raise ValueError("one similarity matrix is zero while the other is not")
    a = ss / ns
    b = sb / nb
    diff = b - a
    loss = float(np.sum(diff * diff))
    # d loss / d a = 2 (a - b); project through a = S/||S||
    g = 2.0 * (a - b)
    grad_s = g / ns - (np.sum(g * ss) / ns**3) * ss
    return loss, grad_s


def kd_loss_from_features(f_teacher: np.ndarray, f_student: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """KD loss on Gram matrices of the two feature batches, with the exact
    gradient with respect to the student features."""
    fs = np.asarray(f_student, dtype=np.float64)
    loss, grad_s = kd_loss(similarity_matrix(f_teacher), similarity_matrix(fs))
    # S = F F^T with symmetric grad_s, so dL/dF = 2 * grad_s @ F
    return loss, 2.0 * grad_s @ fs


# ---------------------------------------------------------------------------
# Gaussian-kernel MMD
# ---------------------------------------------------------------------------

def gaussian_kernel(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """exp(-||a - b||^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("kernel arguments must have equal shape")
    return float(np.exp(-np.sum((a - b) ** 2) / (2.0 * sigma**2)))


SIGMA2_FLOOR = 1e-12


def mmd_bandwidth(batch_a: np.ndarray, batch_b: np.ndarray) -> float:
    """Bandwidth estimate: sigma^2 is the mean over the two batches of the
    per-feature variance summed across dimensions; falls back to 1 for
    (near-)constant batches."""
    var_a = float(np.sum(np.var(batch_a, axis=0)))
    var_b = float(np.sum(np.var(batch_b, axis=0)))
    sigma2 = 0.5 * (var_a + var_b)
    if sigma2 < SIGMA2_FLOOR:
        log.debug("mmd bandwidth degenerate (%.3e), falling back to 1", sigma2)
        sigma2 = 1.0
    return float(np.sqrt(sigma2))


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    d = x[:, None, :] - y[None, :, :]
    return np.sum(d * d, axis=-1)


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

    k_tt = np.exp(-_sq_dists(bt, bt) / (2.0 * s2))   # teacher-teacher
    k_ss = np.exp(-_sq_dists(bs, bs) / (2.0 * s2))   # student-student
    k_ts = np.exp(-_sq_dists(bt, bs) / (2.0 * s2))   # teacher-student cross
    loss = float((k_tt.sum() + k_ss.sum() - 2.0 * k_ts.sum()) / n**2)

    # d/d bs_p of the student-student block: 2/n^2 sum_j K(p,j)(b_j - b_p)/s2;
    # of the cross block: 2/n^2 sum_i K(i,p)(b_p - bt_i)/s2.
    row_ss = k_ss.sum(axis=1)
    col_ts = k_ts.sum(axis=0)
    grad = (k_ss @ bs - row_ss[:, None] * bs) + (col_ts[:, None] * bs - k_ts.T @ bt)
    grad *= 2.0 / (n**2 * s2)
    return loss, grad, float(sigma)
