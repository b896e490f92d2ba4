"""Retrieval evaluation: cosine ranking, mAP, CMC, and forgetting metrics.

Follows the standard cross-camera protocol: gallery entries sharing both
identity and camera with the query are struck from its ranking; a query
left without any true match is excluded and counted. Average precision is
the mean of the precision values at each true-positive position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .mlp import MLP
from .pseudo import unit_rows


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
    sims = unit_rows(q, "query feature")[0] @ unit_rows(g, "gallery feature")[0].T
    return np.argsort(-sims, axis=1, kind="stable")


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

    # every query at once, in ranked order: kept marks the entries that
    # survive the junk rule, and an entry's rank is its 1-based position
    # among the kept ones
    order = rank_gallery(q_feats, g_feats)
    same_id = g_ids[order] == q_ids[:, None]
    kept = ~(same_id & (g_cams[order] == q_cams[:, None])) if cross_camera \
        else np.ones_like(same_id)
    matches = same_id & kept
    valid = matches.any(axis=1)
    if not valid.any():
        raise ValueError("no query has a valid gallery match under the protocol")
    matches = matches[valid]
    rank = np.cumsum(kept[valid], axis=1)
    # AP = mean over a query's true matches of (matches so far) / rank;
    # precision lists each query's values in rank order, query after
    # query. Queries with the same match count share one row-wise mean,
    # which sums each row as the mean of that row alone would.
    precision = np.cumsum(matches, axis=1)[matches] / rank[matches]
    n_hits = matches.sum(axis=1)
    owner = np.repeat(np.arange(n_hits.size), n_hits)
    aps = np.empty(n_hits.size)
    for h in np.unique(n_hits):
        rows = n_hits == h
        aps[rows] = precision[rows[owner]].reshape(-1, h).mean(axis=1)
    first_match_ranks = rank[np.arange(rank.shape[0]), np.argmax(matches, axis=1)]

    return EvalReport(float(np.mean(aps)), cmc_curve(first_match_ranks, len(gallery)),
                      aps.size, int(valid.size - aps.size))


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
    mean, and NaN (undefined) with fewer than two evaluated slices.
    """
    if not slice_histories:
        return ForgettingSummary({}, math.nan)
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
    score = float(np.mean(list(per_slice.values()))) if per_slice else math.nan
    return ForgettingSummary(per_slice, score)
