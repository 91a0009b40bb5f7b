import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    DetectionRecord,
    EvalConfig,
    GroundTruthRecord,
    MatchLabel,
    SizeClass,
    average_precision,
    count_ground_truths,
    evaluate,
    map_report,
    match_detections,
    size_class,
)


def oracle_match(dets, gts, cid, params, threshold, size_filter=None):
    """Brute-force greedy matcher: flat loops, no grouping structures."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, i))
    taken = [False] * len(gts)
    labels = []
    for i in order:
        det = dets[i]

        def best(want_in_bucket):
            best_j, best_v = -1, -float("inf")
            for j, gt in enumerate(gts):
                if taken[j] or gt.image_id != det.image_id or gt.category != det.category:
                    continue
                in_bucket = size_filter is None or size_class(gt.box) is size_filter
                if in_bucket != want_in_bucket:
                    continue
                v = evaluate(cid, det.box, gt.box, params)
                if v > best_v:
                    best_j, best_v = j, v
            return (best_j, best_v) if best_j >= 0 and best_v >= threshold else (-1, 0.0)

        j, _ = best(True)
        if j >= 0:
            taken[j] = True
            labels.append(MatchLabel.TP)
            continue
        if size_filter is not None:
            j, _ = best(False)
            if j >= 0:
                taken[j] = True
                labels.append(MatchLabel.IGNORED)
                continue
        labels.append(MatchLabel.FP)
    return labels


def oracle_ap(labels, n_gt):
    """All-point AP computed rank by rank with an explicit max-scan."""
    counted = [lab for lab in labels if lab is not MatchLabel.IGNORED]
    if n_gt == 0:
        return None if not counted else 0.0
    tp = fp = 0
    recalls, precisions = [], []
    for lab in counted:
        tp += lab is MatchLabel.TP
        fp += lab is MatchLabel.FP
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    ap, prev = 0.0, 0.0
    for k in range(len(recalls)):
        if k == 0 or recalls[k] > recalls[k - 1]:
            ap += (recalls[k] - prev) * max(precisions[k:])
            prev = recalls[k]
    return ap


def random_instance(rnd):
    images = ["a", "b"][: rnd.randint(1, 2)]
    cats = ["cat", "dog"][: rnd.randint(1, 2)]
    gts = []
    for _ in range(rnd.randint(1, 4)):
        w, h = rnd.uniform(5, 120), rnd.uniform(5, 120)
        gts.append(
            GroundTruthRecord(
                rnd.choice(images), rnd.choice(cats),
                Box(rnd.uniform(0, 100), rnd.uniform(0, 100), w, h),
            )
        )
    dets = []
    for _ in range(rnd.randint(0, 5)):
        base = rnd.choice(gts).box
        dets.append(
            DetectionRecord(
                rnd.choice(images), rnd.choice(cats),
                Box(
                    base.x + rnd.uniform(-15, 15), base.y + rnd.uniform(-15, 15),
                    base.w * rnd.uniform(0.7, 1.4), base.h * rnd.uniform(0.7, 1.4),
                ),
                rnd.random(),
            )
        )
    return dets, gts


class TestAgainstOracle:
    @pytest.mark.parametrize("size_filter", [None, SizeClass.SMALL, SizeClass.MEDIUM])
    def test_random_instances(self, size_filter):
        rnd = random.Random(99)
        for _ in range(200):
            dets, gts = random_instance(rnd)
            threshold = rnd.choice([0.2, 0.4, 0.5])
            cid = rnd.choice([CriterionId.IOU, CriterionId.SIOU])
            config = EvalConfig(criterion=cid, thresholds=(threshold,), size_filter=size_filter)
            got = [lab for _, lab in match_detections(dets, gts, config, threshold)]
            want = oracle_match(dets, gts, cid, config.params, threshold, size_filter)
            assert got == want
            n_gt = count_ground_truths(gts, size_filter)
            ap = average_precision(got, n_gt)
            expected = oracle_ap(want, n_gt)
            if expected is None:
                assert ap is None
            else:
                assert ap == pytest.approx(expected, abs=1e-12)


class TestAveragePrecision:
    def test_tp_fp_tp_two_gts(self):
        labels = [MatchLabel.TP, MatchLabel.FP, MatchLabel.TP]
        assert average_precision(labels, 2) == pytest.approx(5 / 6, abs=1e-15)

    def test_perfect(self):
        assert average_precision([MatchLabel.TP, MatchLabel.TP], 2) == 1.0

    def test_no_gt_no_detections(self):
        assert average_precision([], 0) is None
        assert average_precision([MatchLabel.IGNORED], 0) is None

    def test_no_gt_with_detections(self):
        assert average_precision([MatchLabel.FP], 0) == 0.0

    def test_missed_gt_caps_recall(self):
        assert average_precision([MatchLabel.TP], 2) == pytest.approx(0.5)

    def test_rejects_negative_gt(self):
        with pytest.raises(ValueError):
            average_precision([], -1)


def reference_ap(labels, n_ground_truth):
    """Exact AP rank by rank: a (recall, precision) Fraction pair per counted
    label, then a reversed pass over the precision envelope. The former
    implementation of average_precision, kept as the reference."""
    counted = [lab for lab in labels if lab is not MatchLabel.IGNORED]
    if n_ground_truth == 0:
        return None if not counted else 0.0
    tp = 0
    fp = 0
    points = []
    for lab in counted:
        if lab is MatchLabel.TP:
            tp += 1
        else:
            fp += 1
        points.append((Fraction(tp, n_ground_truth), Fraction(tp, tp + fp)))
    ap = Fraction(0)
    best_precision = Fraction(0)
    prev_recall = points[-1][0] if points else Fraction(0)
    for recall, precision in reversed(points):
        best_precision = max(best_precision, precision)
        ap += (prev_recall - recall) * best_precision
        prev_recall = recall
    ap += prev_recall * best_precision
    return float(ap)


@settings(max_examples=2000, deadline=None)
@given(data=st.data())
def test_average_precision_equals_rank_by_rank_reference(data):
    labels = data.draw(st.lists(st.sampled_from(list(MatchLabel)), max_size=300))
    n_ground_truth = data.draw(st.integers(0, labels.count(MatchLabel.TP) + 5))
    got = average_precision(labels, n_ground_truth)
    want = reference_ap(labels, n_ground_truth)
    assert got == want
    assert type(got) is type(want)


class TestMatching:
    GT = [GroundTruthRecord("a", "cat", Box(50, 50, 20, 20))]

    def test_best_overlap_wins(self):
        gts = self.GT + [GroundTruthRecord("a", "cat", Box(80, 50, 20, 20))]
        det = DetectionRecord("a", "cat", Box(52, 50, 20, 20), 0.9)
        config = EvalConfig(thresholds=(0.5,))
        results = match_detections([det], gts, config, 0.5)
        assert results == [(det, MatchLabel.TP)]

    def test_double_detection_second_is_fp(self):
        d1 = DetectionRecord("a", "cat", Box(50, 50, 20, 20), 0.9)
        d2 = DetectionRecord("a", "cat", Box(51, 50, 20, 20), 0.8)
        results = match_detections([d1, d2], self.GT, EvalConfig(), 0.5)
        assert [lab for _, lab in results] == [MatchLabel.TP, MatchLabel.FP]

    def test_wrong_category_is_fp(self):
        det = DetectionRecord("a", "dog", Box(50, 50, 20, 20), 0.9)
        results = match_detections([det], self.GT, EvalConfig(), 0.5)
        assert results[0][1] is MatchLabel.FP

    def test_out_of_bucket_match_is_ignored(self):
        # Under a small-size filter a detection on a large ground truth is
        # dropped from the ranking rather than punished as a false positive.
        large_gt = GroundTruthRecord("a", "cat", Box(0, 0, 200, 200))
        det = DetectionRecord("a", "cat", Box(0, 0, 200, 200), 0.9)
        config = EvalConfig(size_filter=SizeClass.SMALL)
        results = match_detections([det], [large_gt], config, 0.5)
        assert results[0][1] is MatchLabel.IGNORED
        assert count_ground_truths([large_gt], SizeClass.SMALL) == 0

    @pytest.mark.parametrize("threshold", [float("nan"), -5.0, 0.0, 1.5])
    def test_rejects_out_of_range_threshold(self, threshold):
        det = DetectionRecord("a", "cat", Box(50, 50, 20, 20), 0.9)
        with pytest.raises(ValueError, match="^threshold out of range"):
            match_detections([det], self.GT, EvalConfig(), threshold)

    def test_threshold_one_matches_an_exact_copy(self):
        det = DetectionRecord("a", "cat", Box(50, 50, 20, 20), 0.9)
        assert match_detections([det], self.GT, EvalConfig(), 1.0) == [(det, MatchLabel.TP)]

    def test_input_order_independent(self):
        rnd = random.Random(5)
        dets, gts = random_instance(rnd)
        config = EvalConfig(thresholds=(0.3,))
        baseline = {d: lab for d, lab in match_detections(dets, gts, config, 0.3)}
        shuffled = list(dets)
        rnd.shuffle(shuffled)
        assert {d: lab for d, lab in match_detections(shuffled, gts, config, 0.3)} == baseline


class TestMapReport:
    def small_world(self):
        gts = [
            GroundTruthRecord("a", "cat", Box(10, 10, 16, 16)),
            GroundTruthRecord("a", "dog", Box(60, 60, 120, 120)),
        ]
        dets = [
            DetectionRecord("a", "cat", Box(11, 10, 16, 16), 0.9),
            DetectionRecord("a", "dog", Box(60, 62, 120, 120), 0.8),
            DetectionRecord("a", "dog", Box(300, 300, 50, 50), 0.7),
        ]
        return dets, gts

    def test_structure_and_aggregates(self):
        dets, gts = self.small_world()
        config = EvalConfig(thresholds=(0.5, 0.75))
        rows = map_report(dets, gts, config)
        buckets = {r["bucket"] for r in rows}
        assert buckets == {"all", "small", "medium", "large"}
        mean_rows = [r for r in rows if r["threshold"] == "mean"]
        assert {r["category"] for r in mean_rows} == {"mAP"}
        all_map = {r["threshold"]: r["ap"] for r in rows
                   if r["category"] == "mAP" and r["bucket"] == "all"}
        assert all_map["mean"] == pytest.approx((all_map[0.5] + all_map[0.75]) / 2)

    def test_siou_gamma_zero_identity(self):
        dets, gts = self.small_world()
        iou_rows = map_report(dets, gts, EvalConfig(criterion=CriterionId.IOU))
        siou_rows = map_report(
            dets, gts,
            EvalConfig(criterion=CriterionId.SIOU, params=CriterionParams(gamma=0.0)),
        )
        assert iou_rows == siou_rows

    def test_lenient_siou_recovers_small_boxes(self):
        # A small-box detection whose IoU sits just below threshold clears it
        # under the lenient evaluation setting (gamma > 0 shrinks the exponent
        # for small objects, raising the criterion value).
        gt = [GroundTruthRecord("a", "cat", Box(10, 10, 10, 10))]
        det = [DetectionRecord("a", "cat", Box(12.4, 10, 10, 10), 0.9)]
        iou_value = evaluate(CriterionId.IOU, det[0].box, gt[0].box)
        params = CriterionParams(gamma=0.5, kappa=64)
        siou_value = evaluate(CriterionId.SIOU, det[0].box, gt[0].box, params)
        assert iou_value < 0.65 < siou_value
        iou_ap = [r for r in map_report(det, gt, EvalConfig(thresholds=(0.65,)))
                  if r["category"] == "mAP" and r["bucket"] == "all"][0]["ap"]
        siou_ap = [r for r in map_report(
            det, gt,
            EvalConfig(criterion=CriterionId.SIOU, params=params, thresholds=(0.65,)))
            if r["category"] == "mAP" and r["bucket"] == "all"][0]["ap"]
        assert iou_ap == 0.0
        assert siou_ap == 1.0

    def test_empty_detections(self):
        _, gts = self.small_world()
        rows = map_report([], gts, EvalConfig())
        all_rows = [r for r in rows if r["bucket"] == "all" and r["category"] != "mAP"]
        assert all(r["ap"] == 0.0 for r in all_rows)


class TestEvalConfig:
    def test_rejects_empty_thresholds(self):
        with pytest.raises(ValueError):
            EvalConfig(thresholds=())

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(0.75, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(0.0,))
        with pytest.raises(ValueError):
            EvalConfig(thresholds=(1.5,))
