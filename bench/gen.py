"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as its only source of randomness and writes
plain files that the program reads through its public loaders. The shape of
each input (how many images, boxes, records and pairs) is fixed and does not
depend on the seed, so the work per operation and the memory it needs stay
comparable across seeds; the seed moves coordinates, sizes and scores.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# eval-coco: a COCO-shaped detection file
N_IMAGES = 64
IMAGE_W, IMAGE_H = 640.0, 480.0
REGULAR_CATEGORIES = ("car", "person", "sign", "bird")
EXACT_CATEGORY = "exact"  # detections are exact copies of the GTs
DISTRACTOR_CATEGORY = "distractor"  # detections only, no GTs
GTS_PER_IMAGE_CYCLE = (1, 2, 3, 2)  # GTs per (image, regular category)
DISTRACTORS_PER_GROUP = 2
DUPLICATE_EVERY = 3  # every 3rd GT gets a second, lower-scored detection
MISSED_EVERY = 7  # every 7th GT gets no detection
EXACT_PER_IMAGE = 2
DISTRACTOR_ONLY_PER_IMAGE = 2
# sqrt-area ranges of the three COCO size classes, cycled over the GTs
SIZE_RANGES = ((8.0, 30.0), (34.0, 90.0), (100.0, 220.0))

# pair-score: rating CSV and loss pairs
N_RATINGS = 8000
N_LOSS_PAIRS = 2000
KINK_EVERY = 50  # every 50th loss pair shares an edge and is non-differentiable
EDGE_GAP_MIN = 1e-3  # other pairs keep every edge this far from the other box's edges


def _box_of_size(rng, side_range, cx_range=(0.0, IMAGE_W), cy_range=(0.0, IMAGE_H)):
    """Corner-form box with sqrt-area drawn in side_range, aspect in [0.5, 2]."""
    side = rng.uniform(*side_range)
    aspect = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    w, h = side * math.sqrt(aspect), side / math.sqrt(aspect)
    cx, cy = rng.uniform(*cx_range), rng.uniform(*cy_range)
    return [cx - w / 2, cy - h / 2, w, h]


def _jitter(rng, bbox, rel):
    x, y, w, h = bbox
    cx, cy = x + w / 2, y + h / 2
    side = math.sqrt(w * h)
    cx += rng.normal(0.0, rel * side)
    cy += rng.normal(0.0, rel * side)
    w *= math.exp(rng.normal(0.0, rel))
    h *= math.exp(rng.normal(0.0, rel))
    return [cx - w / 2, cy - h / 2, w, h]


def detection_set(seed: int) -> dict:
    """Synthetic detection/GT set in the program's JSON schema.

    Regular categories get jittered true positives, duplicates, missed GTs
    and score-ranked distractors over all three size classes. The `exact`
    category's detections are bit-identical copies of its GTs with distinct
    scores, laid out on a grid so no two of its boxes overlap. The
    `distractor` category has detections and no GTs.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    images = [f"img{i:04d}" for i in range(N_IMAGES)]
    annotations, detections = [], []
    gt_index = 0
    for i, image_id in enumerate(images):
        for c, category in enumerate(REGULAR_CATEGORIES):
            n_gt = GTS_PER_IMAGE_CYCLE[(i + c) % len(GTS_PER_IMAGE_CYCLE)]
            for _ in range(n_gt):
                bbox = _box_of_size(rng, SIZE_RANGES[gt_index % 3])
                annotations.append({"image_id": image_id, "category": category, "bbox": bbox})
                if gt_index % MISSED_EVERY != MISSED_EVERY - 1:
                    detections.append({
                        "image_id": image_id, "category": category,
                        "bbox": _jitter(rng, bbox, 0.08), "score": rng.uniform(0.5, 1.0),
                    })
                if gt_index % DUPLICATE_EVERY == 0:
                    detections.append({
                        "image_id": image_id, "category": category,
                        "bbox": _jitter(rng, bbox, 0.2), "score": rng.uniform(0.2, 0.8),
                    })
                gt_index += 1
            for k in range(DISTRACTORS_PER_GROUP):
                detections.append({
                    "image_id": image_id, "category": category,
                    "bbox": _box_of_size(rng, SIZE_RANGES[(i + k) % 3]),
                    "score": rng.uniform(0.0, 0.7),
                })
        # exact copies: the two boxes of an image are centred in adjacent
        # 320-px-wide cells and are at most 311 px wide (sqrt-area <= 220,
        # aspect <= 2), so they cannot overlap or match each other
        for k in range(EXACT_PER_IMAGE):
            cell_x, cell_y = (k % 2) * 320.0, (i % 2) * 240.0
            bbox = _box_of_size(
                rng, SIZE_RANGES[(i + k) % 3],
                (cell_x + 160.0 - 1.0, cell_x + 160.0 + 1.0),
                (cell_y + 120.0 - 1.0, cell_y + 120.0 + 1.0),
            )
            annotations.append({"image_id": image_id, "category": EXACT_CATEGORY, "bbox": bbox})
            rank = i * EXACT_PER_IMAGE + k + 1
            detections.append({
                "image_id": image_id, "category": EXACT_CATEGORY, "bbox": list(bbox),
                "score": 0.5 + 0.5 * rank / (N_IMAGES * EXACT_PER_IMAGE + 1),
            })
        for k in range(DISTRACTOR_ONLY_PER_IMAGE):
            detections.append({
                "image_id": image_id, "category": DISTRACTOR_CATEGORY,
                "bbox": _box_of_size(rng, SIZE_RANGES[(i + k) % 3]),
                "score": rng.uniform(0.0, 1.0),
            })
    return {"images": [{"id": image_id} for image_id in images],
            "annotations": annotations, "detections": detections}


def rating_rows(seed: int) -> list[dict]:
    """Rating records: a GT box, a jittered proposal and a 1..5 rating.

    The rating follows the proposal's IoU plus noise. The first 15 records
    are planted so every (size class, rating) cell is populated, which the
    relative-gap analysis requires.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    rows = []
    for i in range(N_RATINGS):
        gt = _box_of_size(rng, SIZE_RANGES[i % 3], (100.0, 540.0), (100.0, 380.0))
        proposal = _jitter(rng, gt, rng.uniform(0.02, 0.4))
        if i < 15:
            rating = i // 3 + 1
        else:
            rating = int(np.clip(round(1 + 4 * _iou_corner(gt, proposal) + rng.normal(0, 0.7)), 1, 5))
        rows.append({
            "rating": rating,
            "gt_x": gt[0], "gt_y": gt[1], "gt_w": gt[2], "gt_h": gt[3],
            "px": proposal[0], "py": proposal[1], "pw": proposal[2], "ph": proposal[3],
            "context": int(rng.integers(0, 2)), "expertise": int(rng.integers(0, 2)),
            "age": int(rng.integers(12, 65)),
        })
    return rows


def _iou_corner(a, b):
    iw = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    ih = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    inter = max(iw, 0.0) * max(ih, 0.0)
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def _edges_apart(pred, gt, gap):
    """True when every edge of the centre-form pred box is at least gap away
    from every parallel edge of gt, so finite differences see no kink."""
    for axis in (0, 1):
        e1 = (pred[axis] - pred[axis + 2] / 2, pred[axis] + pred[axis + 2] / 2)
        e2 = (gt[axis] - gt[axis + 2] / 2, gt[axis] + gt[axis + 2] / 2)
        if min(abs(a - b) for a in e1 for b in e2) < gap:
            return False
    return True


def loss_pairs(seed: int) -> list[dict]:
    """Centre-form (pred, gt) pairs for loss_gradient.

    Every KINK_EVERY-th pair has integer coordinates with coincident left
    edges, a point where the loss is not differentiable; the program must
    raise NonDifferentiablePoint there. All other pairs keep their edges at
    least EDGE_GAP_MIN apart.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    pairs = []
    while len(pairs) < N_LOSS_PAIRS:
        k = len(pairs)
        if k % KINK_EVERY == KINK_EVERY - 1:
            w = float(rng.integers(8, 120)) * 2
            gt = [200.0 + w / 2, 200.0, w, float(rng.integers(8, 120)) * 2]
            pw = w + 2 * float(rng.integers(1, 20))
            pairs.append({"pred": [200.0 + pw / 2, 205.0, pw, gt[3]], "gt": gt, "kink": True})
            continue
        x, y, w, h = _box_of_size(rng, SIZE_RANGES[k % 3], (100.0, 540.0), (100.0, 380.0))
        gt = [x + w / 2, y + h / 2, w, h]
        px, py, pw, ph = _jitter(rng, [x, y, w, h], rng.uniform(0.05, 0.5))
        pred = [px + pw / 2, py + ph / 2, pw, ph]
        if _edges_apart(pred, gt, EDGE_GAP_MIN):
            pairs.append({"pred": pred, "gt": gt, "kink": False})
    return pairs


def write_eval_inputs(seed: int, directory) -> dict:
    path = directory / "boxes.json"
    path.write_text(json.dumps(detection_set(seed)))
    return {"boxes": str(path)}


def write_pair_inputs(seed: int, directory) -> dict:
    ratings = directory / "ratings.csv"
    rows = rating_rows(seed)
    with open(ratings, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    pairs = directory / "loss_pairs.json"
    pairs.write_text(json.dumps(loss_pairs(seed)))
    return {"ratings": str(ratings), "loss_pairs": str(pairs)}
