"""Retrieval evaluation: cosine ranking, mAP, CMC, and forgetting metrics.

Follows the standard cross-camera protocol: gallery entries sharing both
identity and camera with the query are struck from its ranking; a query
left without any true match is excluded and counted. Average precision is
the mean of the precision values at each true-positive position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .mlp import MLP


@dataclass
class EvalReport:
    map_score: float
    cmc: np.ndarray            # cmc[r-1] = fraction of queries with a match at rank <= r
    n_queries: int             # queries actually evaluated
    n_excluded: int            # queries dropped for having no valid match

    @property
    def rank1(self) -> float:
        return float(self.cmc[0])

    def cmc_at(self, rank: int) -> float:
        return float(self.cmc[min(rank, len(self.cmc)) - 1])


def rank_gallery(query_features: np.ndarray, gallery_features: np.ndarray
                 ) -> np.ndarray:
    """Per-query gallery indices by descending cosine similarity.

    Exhaustive and exact; equal similarities rank the lower gallery index
    first (stable sort on the negated similarity).
    """
    q = np.asarray(query_features, dtype=np.float64)
    g = np.asarray(gallery_features, dtype=np.float64)
    if q.shape[1] != g.shape[1]:
        raise ValueError("query and gallery feature dimensions differ")
    qn = np.linalg.norm(q, axis=1)
    gn = np.linalg.norm(g, axis=1)
    if np.any(qn == 0.0) or np.any(gn == 0.0):
        raise ValueError("zero-norm feature vector, cosine ranking undefined")
    sims = (q / qn[:, None]) @ (g / gn[:, None]).T
    return np.argsort(-sims, axis=1, kind="stable")


def _average_precision(match_flags: np.ndarray) -> float:
    """AP = mean of precision at each true-match position (1-based ranks)."""
    hits = np.flatnonzero(match_flags)
    precisions = (np.arange(hits.size) + 1.0) / (hits + 1.0)
    return float(precisions.mean())


def evaluate(query: Dataset, gallery: Dataset, extractor: MLP) -> EvalReport:
    """Full retrieval evaluation of query against gallery.

    Same-identity same-camera gallery entries are excluded per query; the
    exclusion is disabled automatically when the data carries a single
    camera (nothing would survive it). Queries with no remaining true
    match are excluded from the averages and reported in n_excluded.
    """
    q_feats = extractor.features(query.descriptor_matrix())
    g_feats = extractor.features(gallery.descriptor_matrix())
    q_ids, q_cams = query.identities(), query.cameras()
    g_ids, g_cams = gallery.identities(), gallery.cameras()

    all_cams = set(q_cams.tolist()) | set(g_cams.tolist())
    cross_camera = len(all_cams) > 1

    order = rank_gallery(q_feats, g_feats)
    n_gallery = len(gallery)
    aps = []
    first_match_ranks = []
    n_excluded = 0
    for qi in range(len(query)):
        ranked = order[qi]
        if cross_camera:
            junk = (g_ids[ranked] == q_ids[qi]) & (g_cams[ranked] == q_cams[qi])
            ranked = ranked[~junk]
        matches = g_ids[ranked] == q_ids[qi]
        if not matches.any():
            n_excluded += 1
            continue
        aps.append(_average_precision(matches))
        first_match_ranks.append(int(np.flatnonzero(matches)[0]) + 1)
    if not aps:
        raise ValueError("no query has a valid gallery match under the protocol")

    return EvalReport(float(np.mean(aps)), cmc_curve(first_match_ranks, n_gallery),
                      len(aps), n_excluded)


def cmc_curve(first_match_ranks: Sequence[int], n_gallery: int) -> np.ndarray:
    """cmc[r-1] = share of queries whose first true match is at rank <= r.

    Ranks are 1-based and at most n_gallery.
    """
    ranks = np.asarray(first_match_ranks, dtype=np.int64)
    return np.cumsum(np.bincount(ranks, minlength=n_gallery + 1)[1:]) / ranks.size


# ---------------------------------------------------------------------------
# Forgetting across the task stream
# ---------------------------------------------------------------------------

@dataclass
class ForgettingSummary:
    per_slice: dict[int, float]   # task slice -> final minus immediate mAP
    score: float                  # mean contribution; negative = forgetting


def forgetting_metrics(slice_histories: Mapping[int, Sequence[tuple[int, float]]]
                       ) -> ForgettingSummary:
    """Backward-transfer summary over per-task test slices.

    slice_histories[k] lists (task_index, map) pairs for slice k, starting
    with the measurement taken right after task k was learned. Each earlier
    slice contributes final-mAP minus immediate-mAP; the score is their
    mean.
    """
    if len(slice_histories) < 2:
        raise ValueError("need at least 2 evaluated tasks to measure forgetting")
    final_task = max(hist[-1][0] for hist in slice_histories.values())
    per_slice: dict[int, float] = {}
    for k, hist in sorted(slice_histories.items()):
        if not hist:
            raise ValueError(f"missing history entries for task slice {k}")
        if hist[0][0] != k:
            raise ValueError(f"slice {k} history must start right after task {k}")
        if k == final_task:
            continue
        if hist[-1][0] != final_task:
            raise ValueError(f"slice {k} history is missing the final measurement")
        per_slice[k] = hist[-1][1] - hist[0][1]
    score = float(np.mean(list(per_slice.values()))) if per_slice else 0.0
    return ForgettingSummary(per_slice, score)
