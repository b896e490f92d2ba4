"""Retrieval evaluation: mAP, CMC, and forgetting metrics.

Follows the standard cross-camera protocol: gallery entries sharing both
identity and camera with the query are struck from its ranking; a query
left without any true match is excluded and counted. Average precision is
the mean of the precision values at each true-positive position. Only the
true matches' ranks are computed, from each query's row sorted by value.
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


def evaluate(query: Dataset, gallery: Dataset, extractor: MLP) -> EvalReport:
    """Full retrieval evaluation of query against gallery.

    Same-identity same-camera gallery entries are excluded per query; the
    exclusion is disabled automatically when the data carries a single
    camera (nothing would survive it). Queries with no remaining true
    match are excluded from the averages and reported in n_excluded.
    Gallery entries rank by descending cosine similarity, equal
    similarities by ascending gallery index.
    """
    q_feats = extractor.features(query.descriptor_matrix())
    g_feats = extractor.features(gallery.descriptor_matrix())
    q_ids, q_cams = query.identities(), query.cameras()
    g_ids, g_cams = gallery.identities(), gallery.cameras()
    n_g = g_ids.size
    sims = unit_rows(q_feats, "query feature")[0] @ unit_rows(g_feats, "gallery feature")[0].T
    # a NaN similarity (from a non-finite feature) becomes -2, below every
    # cosine, as the stable sort ranks NaN last
    np.fmax(sims, -2.0, out=sims)

    same_id = q_ids[:, None] == g_ids
    matches = same_id
    if len(set(q_cams.tolist()) | set(g_cams.tolist())) > 1:
        junk = same_id & (q_cams[:, None] == g_cams)
        matches = same_id & ~junk
        sims[junk] = -np.inf        # below every kept entry
    n_hits = np.count_nonzero(matches, axis=1)
    valid = n_hits > 0
    if not valid.any():
        raise ValueError("no query has a valid gallery match under the protocol")
    n_hits = n_hits[valid]

    # a true match's rank: 1, plus the entries above it (all kept), plus
    # the equal ones at a lower gallery index, counted only where the
    # sorted row holds its value twice
    row, col = np.divmod(np.flatnonzero(matches), n_g)
    value = sims[row, col]
    ordered = np.sort(sims, axis=1)
    at_most = _count_at_most(ordered, row, value)
    rank = n_g + 1 - at_most
    repeats = np.flatnonzero(ordered[row, at_most - 2] == value)
    rank[repeats] += np.count_nonzero(
        (sims[row[repeats]] == value[repeats, None])
        & (np.arange(n_g) < col[repeats, None]), axis=1)

    # each query's ranks ascending, query after query: the k-th gives the
    # precision k / rank. AP = mean of a query's precisions; queries with
    # the same match count share one row-wise mean, which sums each row
    # as the mean of that row alone would.
    rank = np.sort(row * (n_g + 1) + rank) % (n_g + 1)
    first = np.cumsum(n_hits) - n_hits
    precision = (np.arange(1, rank.size + 1) - np.repeat(first, n_hits)) / rank
    owner = np.repeat(np.arange(n_hits.size), n_hits)
    aps = np.empty(n_hits.size)
    for h in np.unique(n_hits):
        rows = n_hits == h
        aps[rows] = precision[rows[owner]].reshape(-1, h).mean(axis=1)

    return EvalReport(float(np.mean(aps)), cmc_curve(rank[first], n_g),
                      aps.size, int(valid.size - aps.size))


def _count_at_most(ordered: np.ndarray, rows: np.ndarray, values: np.ndarray
                   ) -> np.ndarray:
    """How many entries of ordered[rows[i]], an ascending row, are <= values[i]:
    one branchless binary search for every i at once."""
    base = np.zeros(values.size, dtype=np.int64)
    size = ordered.shape[1]
    while size > 1:
        half = size // 2
        base += half * (ordered[rows, base + half] <= values)
        size -= half
    return base + (ordered[rows, base] <= values)


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
