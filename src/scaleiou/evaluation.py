"""Criterion-thresholded detection evaluation: greedy matching, AP, mAP.

Any criterion of the family can gate a match, so the same machinery covers
plain IoU thresholds and scale-adaptive SIoU thresholds. Size buckets follow
the ignore-region convention: with a size filter active, out-of-bucket ground
truths neither count as false negatives nor turn their detections into false
positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Optional, Sequence

from .criteria import POSITIVE, CriterionId, CriterionParams, DEFAULT_PARAMS, boxes_array, check_range, elementwise
from .geometry import Box, SizeClass, size_class


@dataclass(frozen=True)
class GroundTruthRecord:
    image_id: str
    category: str
    box: Box


@dataclass(frozen=True)
class DetectionRecord:
    image_id: str
    category: str
    box: Box
    score: float


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


class _ScoredGroups:
    """The criterion between every detection and every ground truth of its
    (image, category) group, scored as one flat list of pairs in one call.

    order lists the detection indices in match order, ranked by (-score,
    image_id, input index); on equal (in bucket, value) match keys the first
    ground truth in input order wins. candidates[i] lists (ground-truth index,
    criterion value) for detection i, in ground-truth input order; size[j] is
    the size class of ground truth j.
    """

    def __init__(self, dets, gts, criterion: CriterionId, params: CriterionParams):
        self.order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, i))
        groups: dict[tuple[str, str], list[int]] = {}
        for j, gt in enumerate(gts):
            groups.setdefault((gt.image_id, gt.category), []).append(j)
        gt_index = [groups.get((det.image_id, det.category), []) for det in dets]
        det_boxes = boxes_array(det.box for det, js in zip(dets, gt_index) for _ in js)
        gt_boxes = boxes_array(gts[j].box for js in gt_index for j in js)
        values = iter(elementwise(criterion, det_boxes, gt_boxes, params).tolist())
        self.candidates = [list(zip(js, islice(values, len(js)))) for js in gt_index]
        self.size = [size_class(gt.box) for gt in gts]

    def match(self, order: Sequence[int], size_filter: Optional[SizeClass], threshold: float):
        """Greedy labels of the detections `order`, in that order (see match_detections)."""
        matched: set[int] = set()
        labels = []
        for i in order:
            # strict >: on equal keys the first ground truth in input order wins
            best, best_key = None, (False, -float("inf"))
            for j, value in self.candidates[i]:
                if value >= threshold and j not in matched:
                    key = (size_filter is None or self.size[j] is size_filter, value)
                    if key > best_key:
                        best, best_key = j, key
            if best is None:
                labels.append(MatchLabel.FP)
            else:
                matched.add(best)
                labels.append(MatchLabel.TP if best_key[0] else MatchLabel.IGNORED)
        return labels


def match_detections(
    dets: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    config: EvalConfig,
    threshold: float,
) -> list[tuple[DetectionRecord, MatchLabel]]:
    """Greedy matching within each (image, category) group.

    Each detection, in rank order, takes the unmatched same-group ground
    truth whose criterion value clears the threshold and whose key
    (in bucket, value) is largest, the first in input order on a tie: it is
    labeled TP if that ground truth is in the bucket, Ignored if not, and FP
    if none clears. Without a size filter every ground truth is in the
    bucket; with one, out-of-bucket ground truths act as ignore regions.

    Returns (detection, label) pairs in rank order.
    """
    check_range("threshold", threshold, POSITIVE, 1.0)
    groups = _ScoredGroups(dets, gts, config.criterion, config.params)
    labels = groups.match(groups.order, config.size_filter, threshold)
    return [(dets[i], label) for i, label in zip(groups.order, labels)]


def count_ground_truths(
    gts: Sequence[GroundTruthRecord], size_filter: Optional[SizeClass] = None
) -> int:
    """Number of ground truths counted against recall (in-bucket only)."""
    if size_filter is None:
        return len(gts)
    return sum(1 for g in gts if size_class(g.box) is size_filter)


def average_precision(
    labels: Sequence[MatchLabel], n_ground_truth: int
) -> Optional[float]:
    """All-point interpolated AP from rank-ordered labels.

    Ignored labels are dropped. Returns None when there is nothing to
    evaluate (no ground truths and no counted detections); 0.0 when
    detections exist but no ground truth does.
    """
    check_range("n_ground_truth", n_ground_truth, 0)
    rank = 0
    tp_ranks = []  # rank of each true positive among the counted labels
    for lab in labels:
        if lab is not MatchLabel.IGNORED:
            rank += 1
            if lab is MatchLabel.TP:
                tp_ranks.append(rank)
    if n_ground_truth == 0:
        return None if rank == 0 else 0.0
    # Precision rises only at a true positive, so the monotone envelope at
    # the k-th TP is the best k'/rank over it and the later TPs, and each TP
    # adds 1/n_ground_truth of recall. The sum is exact, rounded once.
    total = best = Fraction(0)
    for k in range(len(tp_ranks), 0, -1):
        best = max(best, Fraction(k, tp_ranks[k - 1]))
        total += best
    return float(total / n_ground_truth)


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


def map_report(
    dets: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    config: EvalConfig,
) -> list[dict]:
    """AP per (category, size bucket, threshold) plus mAP aggregates.

    mAP is the unweighted mean over categories, skipping categories whose AP
    is undefined for the bucket. Aggregate rows use category "mAP"; the
    threshold-averaged aggregate uses threshold "mean".
    """
    categories = sorted({g.category for g in gts} | {d.category for d in dets})
    buckets = _BUCKETS if config.size_filter is None else tuple(
        (name, sc) for name, sc in _BUCKETS if sc is config.size_filter
    )
    groups = _ScoredGroups(dets, gts, config.criterion, config.params)
    order_by_category = {c: [i for i in groups.order if dets[i].category == c] for c in categories}
    gts_by_category = {c: [g for g in gts if g.category == c] for c in categories}
    rows = []
    for bucket_name, bucket in buckets:
        aps_by_threshold: dict[float, list[Optional[float]]] = {t: [] for t in config.thresholds}
        for category in categories:
            n_gt = count_ground_truths(gts_by_category[category], bucket)
            for threshold in config.thresholds:
                ap = average_precision(groups.match(order_by_category[category], bucket, threshold), n_gt)
                rows.append(_row(category, bucket_name, threshold, ap))
                aps_by_threshold[threshold].append(ap)
        mean_aps = [_mean(aps_by_threshold[t]) for t in config.thresholds]
        rows += [_row("mAP", bucket_name, t, m) for t, m in zip(config.thresholds, mean_aps)]
        if len(config.thresholds) > 1:
            rows.append(_row("mAP", bucket_name, "mean", _mean(mean_aps)))
    return rows
