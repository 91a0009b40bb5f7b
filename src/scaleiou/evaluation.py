"""Criterion-thresholded detection evaluation: greedy matching, AP, mAP.

Any criterion of the family can gate a match, so the same machinery covers
plain IoU thresholds and scale-adaptive SIoU thresholds. Size buckets follow
the ignore-region convention: with a size filter active, out-of-bucket ground
truths neither count as false negatives nor turn their detections into false
positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .criteria import FLOAT_MAX, POSITIVE, CriterionId, CriterionParams, DEFAULT_PARAMS, elementwise
from .criteria import check_count, check_range
from .geometry import Box, InvalidRow, SizeClass, box_rule_probes, check_rows, size_indices


@dataclass(frozen=True, eq=False)
class BoxTable:
    """The boxes of one section of a boxes file as numpy columns, one row per
    entry: image_id and category are (N,) arrays of str keys, box is
    center-form (N, 4) float, and score is (N,) float for detections and
    None for ground truths. Each box follows the Box rule and each score is
    finite; a row that breaks a rule is an InvalidRow naming the first.
    """

    image_id: np.ndarray
    category: np.ndarray
    box: np.ndarray
    score: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.box.ndim != 2 or self.box.shape[1] != 4:
            raise ValueError(f"boxes must have shape (N, 4), got {self.box.shape}")
        scores = [] if self.score is None else [self.score]
        if {len(self.image_id), len(self.category), *map(len, scores)} != {len(self)}:
            raise ValueError("the columns of a BoxTable differ in length")
        check_rows(len(self), box_rule_probes(self.box) + scores, self._check_row)

    def _check_row(self, i: int) -> None:
        try:
            Box(*self.box[i].tolist())
            if self.score is not None:
                check_range("score", self.score[i].item(), -FLOAT_MAX, FLOAT_MAX)
        except ValueError as exc:
            raise InvalidRow(i, exc) from exc

    def __len__(self) -> int:
        return len(self.box)


class MatchLabel(Enum):
    TP = "tp"
    FP = "fp"
    IGNORED = "ignored"


@dataclass(frozen=True)
class EvalConfig:
    criterion: CriterionId = CriterionId.IOU
    params: CriterionParams = field(default=DEFAULT_PARAMS)
    thresholds: tuple[float, ...] = (0.5,)
    size_filter: Optional[SizeClass] = None

    def __post_init__(self):
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")
        if list(self.thresholds) != sorted(self.thresholds):
            raise ValueError("thresholds must be sorted ascending")
        if len(set(self.thresholds)) != len(self.thresholds):
            raise ValueError(f"thresholds must be distinct, got {self.thresholds}")
        for t in self.thresholds:
            check_range("threshold", t, POSITIVE, 1.0)


def _ranks(*columns) -> tuple[list[str], list[np.ndarray]]:
    """The sorted distinct keys of the columns, and each column's keys as
    positions in them."""
    keys = sorted(set().union(*(column.tolist() for column in columns)))
    position = {key: i for i, key in enumerate(keys)}
    return keys, [np.array([position[key] for key in column.tolist()], dtype=int) for column in columns]


_SIZE_INDEX = {size: i for i, size in enumerate(SizeClass)}


class _ScoredGroups:
    """The criterion between every detection and every ground truth of its
    (image, category) group, scored as one flat array of pairs in one call.

    order lists the detection rows in match order, ranked by (-score,
    image_id, box), with np.lexsort on the key ranks and the box columns.
    candidates[i] lists (ground-truth row, criterion value) for detection i,
    sorted once by descending value and stable over the box order, so the
    smaller box comes first on equal values. size[j] is the position in
    SizeClass of ground truth j's size class. categories holds the sorted
    category keys, and det_category and gt_category each row's position in it.
    """

    def __init__(self, dets: BoxTable, gts: BoxTable, criterion: CriterionId, params: CriterionParams):
        _, (det_image, gt_image) = _ranks(dets.image_id, gts.image_id)
        self.categories, (self.det_category, self.gt_category) = _ranks(dets.category, gts.category)
        det_group = det_image * len(self.categories) + self.det_category
        gt_group = gt_image * len(self.categories) + self.gt_category
        self.order = np.lexsort((*dets.box.T[::-1], det_image, -dets.score)).tolist()
        # each group's ground truths in box order, one contiguous run per group
        gt_order = np.lexsort((*gts.box.T[::-1], gt_group))
        grouped = gt_group[gt_order]
        first = np.searchsorted(grouped, det_group)
        n_pairs = np.searchsorted(grouped, det_group, side="right") - first
        det_of_pair = np.repeat(np.arange(len(dets)), n_pairs)
        ends = np.cumsum(n_pairs)
        gt_of_pair = gt_order[np.arange(n_pairs.sum()) + np.repeat(first - (ends - n_pairs), n_pairs)]
        values = elementwise(criterion, dets.box[det_of_pair], gts.box[gt_of_pair], params)
        by_value = np.lexsort((-values, det_of_pair))
        pairs = list(zip(gt_of_pair[by_value].tolist(), values[by_value].tolist()))
        ends = ends.tolist()
        self.candidates = [pairs[start:end] for start, end in zip([0] + ends, ends)]
        self.size = size_indices(gts.box)

    def rank(self, size_filter: Optional[SizeClass]) -> tuple[list[list[tuple[int, float]]], list[bool]]:
        """Each detection's candidates in the order it tries them, and whether
        each ground truth is in the bucket. The order is a stable partition of
        the value order, in-bucket candidates first: a stable sort of the
        box-ordered candidates by descending key (in bucket, value)."""
        if size_filter is None:
            return self.candidates, [True] * len(self.size)
        in_bucket = (self.size == _SIZE_INDEX[size_filter]).tolist()
        ranked = [cands if len(cands) < 2 else [c for c in cands if in_bucket[c[0]]] + [c for c in cands if not in_bucket[c[0]]]
                  for cands in self.candidates]
        return ranked, in_bucket

    @staticmethod
    def match(ranking, live: Iterable[tuple[int, int]], threshold: float) -> tuple[list[int], list[int]]:
        """Greedy matching of the detections `live`, (position in match order,
        detection index) pairs in that order: each takes the first candidate
        of its ranking (see `rank`) that clears the threshold and is still
        unmatched, the choice match_detections states. Every other detection,
        in `live` or not, is an FP. Returns the TP ranks among the counted
        (TP and FP) labels and the position of each Ignored label."""
        ranked, in_bucket = ranking
        matched, tp_ranks, ignored = set(), [], []
        for position, i in live:
            for j, value in ranked[i]:
                if value >= threshold and j not in matched:
                    matched.add(j)
                    if in_bucket[j]:
                        tp_ranks.append(position + 1 - len(ignored))
                    else:
                        ignored.append(position)
                    break
        return tp_ranks, ignored


def match_detections(dets: BoxTable, gts: BoxTable, config: EvalConfig, threshold: float) -> list[tuple[int, MatchLabel]]:
    """Greedy matching within each (image, category) group.

    Each detection, in rank order, takes the unmatched same-group ground
    truth whose criterion value clears the threshold and whose key
    (in bucket, value) is largest, the smaller box on a tie: it is
    labeled TP if that ground truth is in the bucket, Ignored if not, and FP
    if none clears. Without a size filter every ground truth is in the
    bucket; with one, out-of-bucket ground truths act as ignore regions.

    Returns (detection row, label) pairs in rank order: by descending score,
    then image id, then box. Boxes compare as (x, y, w, h) tuples, and equal
    boxes are interchangeable, so the row order changes no label.
    """
    check_range("threshold", threshold, POSITIVE, 1.0)
    groups = _ScoredGroups(dets, gts, config.criterion, config.params)
    tp_ranks, ignored = groups.match(groups.rank(config.size_filter), enumerate(groups.order), threshold)
    labels = [MatchLabel.FP] * len(groups.order)
    for position in ignored:
        labels[position] = MatchLabel.IGNORED
    counted = [position for position, label in enumerate(labels) if label is MatchLabel.FP]
    for rank in tp_ranks:
        labels[counted[rank - 1]] = MatchLabel.TP
    return list(zip(groups.order, labels))


def count_ground_truths(gts: BoxTable, size_filter: Optional[SizeClass] = None) -> int:
    """Number of ground truths counted against recall (in-bucket only)."""
    if size_filter is None:
        return len(gts)
    return int(np.count_nonzero(size_indices(gts.box) == _SIZE_INDEX[size_filter]))


def average_precision(
    labels: Sequence[MatchLabel], n_ground_truth: int
) -> Optional[float]:
    """All-point interpolated AP from rank-ordered labels.

    Ignored labels are dropped. Returns None when there is nothing to
    evaluate (no ground truths and no counted detections); 0.0 when
    detections exist but no ground truth does. Otherwise AP is the exact
    rational (1/n_ground_truth) * sum over k of max_{j>=k} j/rank_j, where
    rank_j is the rank of the j-th true positive among the counted labels
    (`map_report` takes these ranks straight from the matcher), summed as
    integers one run of equal envelope values at a time and rounded once.
    """
    check_count("n_ground_truth", n_ground_truth, 0)
    counted = [label for label in labels if label is not MatchLabel.IGNORED]
    tp_ranks = [rank for rank, label in enumerate(counted, 1) if label is MatchLabel.TP]
    return _ap_from_ranks(tp_ranks, len(counted), n_ground_truth)


def _ap_from_ranks(tp_ranks: Sequence[int], n_counted: int, n_ground_truth: int) -> Optional[float]:
    """average_precision from the ascending TP ranks among n_counted labels."""
    if n_ground_truth == 0:
        return None if not n_counted else 0.0
    # Precision rises only at a true positive, so the monotone envelope at
    # the k-th TP is the best k'/rank over it and the later TPs, and each TP
    # adds 1/n_ground_truth of recall. Walking back from the last TP, the
    # envelope steps up at each record k/rank_k (compared by cross-
    # multiplication) and holds down to the next record. The runs are summed
    # over the lcm of the record ranks; int true division is correctly rounded.
    records, best_k, best_rank = [], 0, 1
    for k, rank_k in zip(range(len(tp_ranks), 0, -1), reversed(tp_ranks)):
        if k * best_rank > best_k * rank_k:
            best_k, best_rank = k, rank_k
            records.append((k, rank_k))
    den = math.lcm(*(rank for _, rank in records))
    num = sum((k - below) * k * (den // rank) for (k, rank), (below, _) in zip(records, records[1:] + [(0, 1)]))
    return num / (den * n_ground_truth)


_BUCKETS: tuple[tuple[str, Optional[SizeClass]], ...] = (
    ("all", None),
    ("small", SizeClass.SMALL),
    ("medium", SizeClass.MEDIUM),
    ("large", SizeClass.LARGE),
)


def _mean(aps: Sequence[Optional[float]]) -> Optional[float]:
    """Mean of the defined APs, summed in order; None if none is defined."""
    defined = [ap for ap in aps if ap is not None]
    return sum(defined) / len(defined) if defined else None


def _row(category: str, bucket: str, threshold: float | str, ap: Optional[float]) -> dict:
    return {"category": category, "bucket": bucket, "threshold": threshold, "ap": ap}


def map_report(dets: BoxTable, gts: BoxTable, config: EvalConfig) -> list[dict]:
    """AP per (category, size bucket, threshold) plus mAP aggregates, from
    the detection and ground-truth tables of a boxes file.

    mAP is the unweighted mean over categories, skipping categories whose AP
    is undefined for the bucket. Aggregate rows use category "mAP"; the
    threshold-averaged aggregate uses threshold "mean".
    """
    buckets = _BUCKETS if config.size_filter is None else tuple(
        (name, sc) for name, sc in _BUCKETS if sc is config.size_filter
    )
    groups = _ScoredGroups(dets, gts, config.criterion, config.params)
    categories = groups.categories
    order_by_category = [[] for _ in categories]  # each category's detection rows in match order
    det_category = groups.det_category.tolist()
    for i in groups.order:
        order_by_category[det_category[i]].append(i)
    # a detection whose best value misses a threshold is an FP at it and at every higher one
    best = [cands[0][1] if cands else -math.inf for cands in groups.candidates]
    rows = []
    for bucket_name, bucket in buckets:
        # one ranking per bucket, shared by every category and threshold
        ranking = groups.rank(bucket)
        in_bucket = np.array(ranking[1], dtype=bool)
        n_gt = np.bincount(groups.gt_category[in_bucket], minlength=len(categories)).tolist()
        aps_by_threshold: dict[float, list[Optional[float]]] = {t: [] for t in config.thresholds}
        for category, category_order, category_n_gt in zip(categories, order_by_category, n_gt):
            live = list(enumerate(category_order))
            for threshold in config.thresholds:
                live = [entry for entry in live if best[entry[1]] >= threshold]
                tp_ranks, ignored = groups.match(ranking, live, threshold)
                ap = _ap_from_ranks(tp_ranks, len(category_order) - len(ignored), category_n_gt)
                rows.append(_row(category, bucket_name, threshold, ap))
                aps_by_threshold[threshold].append(ap)
        mean_aps = [_mean(aps_by_threshold[t]) for t in config.thresholds]
        rows += [_row("mAP", bucket_name, t, m) for t, m in zip(config.thresholds, mean_aps)]
        if len(config.thresholds) > 1:
            rows.append(_row("mAP", bucket_name, "mean", _mean(mean_aps)))
        del ranking  # free this bucket's ranking before the next is built
    return rows
