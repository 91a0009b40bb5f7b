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
from typing import Optional, Sequence

from .criteria import POSITIVE, CriterionId, CriterionParams, DEFAULT_PARAMS, boxes_array, check_range, pairwise
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


def _ranked(dets: Sequence[DetectionRecord]) -> list[int]:
    """Indices of the detections in match order: descending score, ties
    broken by (image_id, input index) so results are input-order independent."""
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, i))


class _ScoredGroups:
    """The criterion between every detection and every ground truth of its
    (image, category) group, computed once with one pairwise matrix per group.

    candidates[i] lists (ground-truth index, criterion value) for detection i,
    in ground-truth input order; size[j] is the size class of ground truth j.
    """

    def __init__(self, dets, gts, criterion: CriterionId, params: CriterionParams):
        groups: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
        for i, det in enumerate(dets):
            groups.setdefault((det.image_id, det.category), ([], []))[0].append(i)
        for j, gt in enumerate(gts):
            groups.setdefault((gt.image_id, gt.category), ([], []))[1].append(j)
        self.candidates: list[list[tuple[int, float]]] = [[] for _ in dets]
        for det_index, gt_index in groups.values():
            if det_index and gt_index:
                values = pairwise(
                    criterion,
                    boxes_array(dets[i].box for i in det_index),
                    boxes_array(gts[j].box for j in gt_index),
                    params,
                )
                for i, row in zip(det_index, values.tolist()):
                    self.candidates[i] = list(zip(gt_index, row))
        self.size = [size_class(gt.box) for gt in gts]

    def match(self, order: Sequence[int], size_filter: Optional[SizeClass], threshold: float):
        """Greedy labels of the detections `order`, in that order (see match_detections)."""
        matched: set[int] = set()
        labels = []
        for i in order:
            label = MatchLabel.FP
            for want_in_bucket, bucket_label in ((True, MatchLabel.TP), (False, MatchLabel.IGNORED)):
                best, best_value = None, -float("inf")
                for j, value in self.candidates[i]:
                    in_bucket = size_filter is None or self.size[j] is size_filter
                    if j not in matched and in_bucket is want_in_bucket and value > best_value:
                        best, best_value = j, value
                if best is not None and best_value >= threshold:
                    matched.add(best)
                    label = bucket_label
                    break
            labels.append(label)
        return labels


def match_detections(
    dets: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    config: EvalConfig,
    threshold: float,
) -> list[tuple[DetectionRecord, MatchLabel]]:
    """Greedy matching within each (image, category) group.

    Each detection, in rank order, takes the unmatched same-group ground
    truth with the highest criterion value, provided it clears the threshold.
    With a size filter, out-of-bucket ground truths act as ignore regions:
    a detection falls back to them only if no in-bucket match clears the
    threshold, and it is then labeled Ignored.

    Returns (detection, label) pairs in rank order.
    """
    order = _ranked(dets)
    groups = _ScoredGroups(dets, gts, config.criterion, config.params)
    labels = groups.match(order, config.size_filter, threshold)
    return [(dets[i], label) for i, label in zip(order, labels)]


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
    ranked = _ranked(dets)
    order_by_category = {c: [i for i in ranked if dets[i].category == c] for c in categories}
    rows = []
    for bucket_name, bucket in buckets:
        ap_by_threshold: dict[float, list[float]] = {t: [] for t in config.thresholds}
        for category in categories:
            n_gt = count_ground_truths([g for g in gts if g.category == category], bucket)
            for threshold in config.thresholds:
                labels = groups.match(order_by_category[category], bucket, threshold)
                ap = average_precision(labels, n_gt)
                rows.append(
                    {
                        "category": category,
                        "bucket": bucket_name,
                        "threshold": threshold,
                        "ap": ap,
                    }
                )
                if ap is not None:
                    ap_by_threshold[threshold].append(ap)
        mean_aps = []
        for threshold in config.thresholds:
            aps = ap_by_threshold[threshold]
            mean_ap = sum(aps) / len(aps) if aps else None
            rows.append(
                {
                    "category": "mAP",
                    "bucket": bucket_name,
                    "threshold": threshold,
                    "ap": mean_ap,
                }
            )
            if mean_ap is not None:
                mean_aps.append(mean_ap)
        if len(config.thresholds) > 1:
            rows.append(
                {
                    "category": "mAP",
                    "bucket": bucket_name,
                    "threshold": "mean",
                    "ap": sum(mean_aps) / len(mean_aps) if mean_aps else None,
                }
            )
    return rows
