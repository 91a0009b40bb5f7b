"""Reference computations the workload outputs are checked against.

Everything here is written from the definitions in the project README and
the paper's formulas, with numpy and scipy, and imports nothing from
`scaleiou`:

    IoU   = |A ∩ B| / |A ∪ B|
    GIoU  = IoU − (|hull| − |A ∪ B|) / |hull|
    p     = 1 − γ · exp(−√(w₁h₁ + w₂h₂) / (√2·κ))
    SIoU  = IoU^p,   GSIoU = sign(GIoU) · |GIoU|^p

Boxes are centre form (x, y, w, h); files hold corner form
(x_min, y_min, w, h), converted as x = x_min + w/2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

SMALL_MAX, MEDIUM_MAX = 32.0, 96.0  # COCO sqrt-area bucket edges
BUCKETS = ("all", "small", "medium", "large")


def corner_to_center(bbox):
    x, y, w, h = (float(v) for v in bbox)
    return (x + w / 2, y + h / 2, w, h)


def size_bucket(w: float, h: float) -> str:
    s = math.sqrt(w * h)
    return "small" if s <= SMALL_MAX else "medium" if s <= MEDIUM_MAX else "large"


def criterion(cid: str, b1: np.ndarray, b2: np.ndarray, gamma: float, kappa: float) -> np.ndarray:
    """Criterion between centre-form box arrays of shape (..., 4); b1 and b2
    broadcast against each other, so (N, 1, 4) against (1, M, 4) gives the
    N × M pairwise matrix."""
    x1, y1, w1, h1 = np.moveaxis(b1, -1, 0)
    x2, y2, w2, h2 = np.moveaxis(b2, -1, 0)
    iw = np.minimum(x1 + w1 / 2, x2 + w2 / 2) - np.maximum(x1 - w1 / 2, x2 - w2 / 2)
    ih = np.minimum(y1 + h1 / 2, y2 + h2 / 2) - np.maximum(y1 - h1 / 2, y2 - h2 / 2)
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    union = w1 * h1 + w2 * h2 - inter
    iou = inter / union
    if cid == "iou":
        return iou
    hull = (
        (np.maximum(x1 + w1 / 2, x2 + w2 / 2) - np.minimum(x1 - w1 / 2, x2 - w2 / 2))
        * (np.maximum(y1 + h1 / 2, y2 + h2 / 2) - np.minimum(y1 - h1 / 2, y2 - h2 / 2))
    )
    giou = iou - (hull - union) / hull
    if cid == "giou":
        return giou
    p = 1.0 - gamma * np.exp(-np.sqrt(w1 * h1 + w2 * h2) / (math.sqrt(2.0) * kappa))
    if cid == "siou":
        return iou**p
    if cid == "gsiou":
        return np.sign(giou) * np.abs(giou) ** p
    raise ValueError(f"no reference for criterion {cid!r}")


def relative_close(a, b, rel: float, floor: float = 1e-15) -> bool:
    """|a − b| ≤ rel · max(|a|, |b|) + floor, elementwise, all true."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + floor))


# ---------------------------------------------------------------- eval-coco

def all_point_ap(labels: list[str], n_gt: int):
    """All-point interpolated AP of rank-ordered 'tp'/'fp'/'ignored' labels."""
    counted = [lab for lab in labels if lab != "ignored"]
    if n_gt == 0:
        return None if not counted else 0.0
    if not counted:
        return 0.0
    tp = np.cumsum([lab == "tp" for lab in counted])
    ranks = np.arange(1, len(counted) + 1)
    recall = tp / n_gt
    precision = tp / ranks
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    steps = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(steps * envelope))


def map_table(data: dict, thresholds: list[float], gamma: float, kappa: float) -> dict:
    """AP per (category, bucket, threshold) and the mAP rows, from greedy
    criterion-thresholded matching with SIoU.

    Detections are ranked by descending score, ties by (image id, input
    position). In rank order, each detection takes the unmatched
    same-image, same-category GT of highest SIoU if that value clears the
    threshold (first GT in input order on equal values). With a size bucket,
    GTs outside it are ignore regions: a detection with no in-bucket match
    falls back to them and is then ignored rather than counted.

    Returns {(category, bucket, threshold text): AP or None}.
    """
    gts: dict[tuple, list] = {}
    for entry in data["annotations"]:
        gts.setdefault((str(entry["category"]), str(entry["image_id"])), []).append(
            corner_to_center(entry["bbox"]))
    dets: dict[str, list] = {}
    for index, entry in enumerate(data["detections"]):
        dets.setdefault(str(entry["category"]), []).append(
            (-float(entry["score"]), str(entry["image_id"]), index, corner_to_center(entry["bbox"])))
    categories = sorted({c for c, _ in gts} | set(dets))

    # one SIoU row per detection against the GTs of its (image, category)
    rows, gt_buckets = {}, {}
    for key, boxes in gts.items():
        gt_buckets[key] = [size_bucket(b[2], b[3]) for b in boxes]
    for category, entries in dets.items():
        entries.sort(key=lambda e: e[:3])
        by_image: dict[str, list] = {}
        for e in entries:
            by_image.setdefault(e[1], []).append(e)
        for image_id, group in by_image.items():
            gt_boxes = gts.get((category, image_id))
            if not gt_boxes:
                continue
            matrix = criterion(
                "siou", np.array([e[3] for e in group])[:, None, :],
                np.array(gt_boxes)[None, :, :], gamma, kappa)
            for e, row in zip(group, matrix.tolist()):
                rows[e[2]] = row

    table = {}
    for bucket in BUCKETS:
        ap_by_threshold = {t: [] for t in thresholds}
        for category in categories:
            ranked = dets.get(category, [])
            n_gt = sum(
                1 for (c, _), sizes in gt_buckets.items() if c == category
                for s in sizes if bucket in ("all", s))
            for t in thresholds:
                matched = {}
                labels = []
                for _, image_id, index, _ in ranked:
                    key = (category, image_id)
                    row = rows.get(index, [])
                    sizes = gt_buckets.get(key, [])
                    taken = matched.setdefault(key, [False] * len(row))
                    label = "fp"
                    for in_bucket, hit in ((True, "tp"), (False, "ignored")):
                        best, best_value = -1, -math.inf
                        for j, value in enumerate(row):
                            if taken[j] or ((bucket in ("all", sizes[j])) != in_bucket):
                                continue
                            if value > best_value:
                                best, best_value = j, value
                        if best >= 0 and best_value >= t:
                            taken[best] = True
                            label = hit
                            break
                    labels.append(label)
                ap = all_point_ap(labels, n_gt)
                table[(category, bucket, format(t, ".9g"))] = ap
                if ap is not None:
                    ap_by_threshold[t].append(ap)
        means = []
        for t in thresholds:
            aps = ap_by_threshold[t]
            mean = sum(aps) / len(aps) if aps else None
            table[("mAP", bucket, format(t, ".9g"))] = mean
            if mean is not None:
                means.append(mean)
        if len(thresholds) > 1:
            table[("mAP", bucket, "mean")] = sum(means) / len(means) if means else None
    return table


# --------------------------------------------------------------- mc-moments

def shifted_square_moment(cid: str, order: int, omega: float, sigma: float,
                          gamma: float, kappa: float) -> float:
    """E[C(X)^order] for two omega-wide squares, the prediction shifted
    horizontally by X ~ N(0, sigma²).

    For a shift x the overlap is (omega − |x|)·omega and the union and hull
    are (omega + |x|)·omega, so IoU = max(0, g) and GIoU = g with
    g = (omega − |x|)/(omega + |x|); the exponent uses w₁h₁ + w₂h₂ = 2·omega².
    """
    p = 1.0 - gamma * math.exp(-math.sqrt(2.0 * omega * omega) / (math.sqrt(2.0) * kappa))

    def value(x):
        g = (omega - x) / (omega + x)
        if cid == "iou":
            return max(g, 0.0)
        if cid == "giou":
            return g
        if cid == "siou":
            return max(g, 0.0) ** p
        if cid == "gsiou":
            return math.copysign(abs(g) ** p, g)
        raise ValueError(cid)

    def integrand(x):
        return value(x) ** order * math.exp(-0.5 * (x / sigma) ** 2) / (math.sqrt(2 * math.pi) * sigma)

    inner, _ = integrate.quad(integrand, 0.0, omega, epsabs=1e-13, epsrel=1e-13, limit=200)
    outer = 0.0
    if cid in ("giou", "gsiou"):
        outer, _ = integrate.quad(integrand, omega, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * (inner + outer)


# --------------------------------------------------------------- pair-score

def central_difference_gradient(cid: str, pred, gt, gamma: float, kappa: float,
                                step: float = 1e-5) -> np.ndarray:
    """Gradient of 1 − C with respect to each centre-form prediction; pred
    and gt have shape (N, 4), the result too."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    offsets = np.zeros((8, 4))
    for k in range(4):
        offsets[2 * k, k] = step
        offsets[2 * k + 1, k] = -step
    loss = 1.0 - criterion(cid, pred[:, None, :] + offsets[None], gt[:, None, :], gamma, kappa)
    return (loss[:, 0::2] - loss[:, 1::2]) / (2 * step)
