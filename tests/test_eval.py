import contextlib
import io
import json
import math
import random
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    EvalConfig,
    MatchLabel,
    SizeClass,
    average_precision,
    count_ground_truths,
    evaluate,
    map_report,
    match_detections,
    size_class,
)
from scaleiou.cli import main
from scaleiou.evaluation import _ScoredGroups
from scaleiou.io import corner_box
from tests.conftest import Detection, GroundTruth, ground_truth_table, tables


def oracle_match(dets, gts, cid, params, threshold, size_filter=None):
    """Brute-force greedy matcher: flat loops, no grouping structures. Ties
    go to the detection, then the ground truth, with the smaller box."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, dets[i].box.components()))
    gt_order = sorted(range(len(gts)), key=lambda j: gts[j].box.components())
    taken = [False] * len(gts)
    labels = []
    for i in order:
        det = dets[i]

        def best(want_in_bucket):
            best_j, best_v = -1, -float("inf")
            for j in gt_order:
                gt = gts[j]
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
            GroundTruth(
                rnd.choice(images), rnd.choice(cats),
                Box(rnd.uniform(0, 100), rnd.uniform(0, 100), w, h),
            )
        )
    dets = []
    for _ in range(rnd.randint(0, 5)):
        base = rnd.choice(gts).box
        dets.append(
            Detection(
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
            got = [lab for _, lab in match_detections(*tables(dets, gts), config, threshold)]
            want = oracle_match(dets, gts, cid, config.params, threshold, size_filter)
            assert got == want
            n_gt = count_ground_truths(ground_truth_table(gts), size_filter)
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


@st.composite
def label_blocks(draw):
    """Rank-ordered labels made of blocks of one repeated label, so the
    precision envelope has long runs of one value as well as short ones."""
    blocks = draw(st.lists(st.tuples(st.sampled_from(list(MatchLabel)), st.integers(1, 60)), max_size=12))
    return [label for label, length in blocks for _ in range(length)]


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_average_precision_over_long_runs_equals_reference(data):
    labels = data.draw(label_blocks())
    n_ground_truth = data.draw(st.integers(1, labels.count(MatchLabel.TP) + 5))
    got = average_precision(labels, n_ground_truth)
    assert got == reference_ap(labels, n_ground_truth)
    assert type(got) is float


class TestAveragePrecisionRuns:
    def test_all_true_positives_first_is_one_run(self):
        labels = [MatchLabel.TP] * 7 + [MatchLabel.IGNORED] + [MatchLabel.FP] * 5
        for n_gt in (7, 9, 12):
            got = average_precision(labels, n_gt)
            assert got == reference_ap(labels, n_gt) == float(Fraction(7, n_gt))

    def test_each_true_positive_its_own_run(self):
        # the k-th TP follows k - 1 FPs, at rank k(k+1)/2, so precision at the
        # TPs falls (1, 2/3, 1/2, 2/5, ...) and each TP is the envelope's
        # maximum from it onwards
        labels = []
        for k in range(1, 9):
            labels += [MatchLabel.FP] * (k - 1) + [MatchLabel.TP]
        exact = sum(Fraction(2, k + 1) for k in range(1, 9))
        for n_gt in (8, 11):
            got = average_precision(labels, n_gt)
            assert got == reference_ap(labels, n_gt) == float(exact / n_gt)


PRIMES = [p for p in range(2, 600) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def labels_at_ranks(tp_ranks, ignored_before):
    """Rank-ordered labels with a TP at each counted rank in tp_ranks, an FP
    at every other counted rank up to the last TP, and an Ignored label
    before each counted rank in ignored_before."""
    labels = []
    for rank in range(1, tp_ranks[-1] + 1):
        labels += [MatchLabel.IGNORED] * (rank in ignored_before)
        labels.append(MatchLabel.TP if rank in tp_ranks else MatchLabel.FP)
    return labels


class TestAveragePrecisionLargeDenominators:
    """TPs at distinct prime ranks: each envelope value k/rank_k is in lowest
    terms, so the common denominator of the runs is the product of the
    primes at which the envelope steps."""

    def test_the_common_denominator_has_hundreds_of_bits(self):
        envelope = [max(Fraction(j, p) for j, p in enumerate(PRIMES[k:], k + 1)) for k in range(len(PRIMES))]
        assert math.lcm(*(value.denominator for value in envelope)).bit_length() > 300

    @pytest.mark.parametrize("n_ground_truth", [len(PRIMES), 1000, 999_983, 10**6])
    def test_all_primes_below_600(self, n_ground_truth):
        labels = labels_at_ranks(PRIMES, {2, 50, 599})
        assert average_precision(labels, n_ground_truth) == reference_ap(labels, n_ground_truth)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_prime_ranks(self, data):
        tp_ranks = sorted(data.draw(st.sets(st.sampled_from(PRIMES), min_size=1)))
        ignored_before = data.draw(st.sets(st.integers(1, tp_ranks[-1]), max_size=8))
        n_ground_truth = data.draw(st.integers(len(tp_ranks), 10**6))
        labels = labels_at_ranks(tp_ranks, ignored_before)
        assert average_precision(labels, n_ground_truth) == reference_ap(labels, n_ground_truth)


class TestMatching:
    GT = [GroundTruth("a", "cat", Box(50, 50, 20, 20))]

    def test_best_overlap_wins(self):
        gts = self.GT + [GroundTruth("a", "cat", Box(80, 50, 20, 20))]
        det = Detection("a", "cat", Box(52, 50, 20, 20), 0.9)
        config = EvalConfig(thresholds=(0.5,))
        results = match_detections(*tables([det], gts), config, 0.5)
        assert results == [(0, MatchLabel.TP)]

    def test_double_detection_second_is_fp(self):
        d1 = Detection("a", "cat", Box(50, 50, 20, 20), 0.9)
        d2 = Detection("a", "cat", Box(51, 50, 20, 20), 0.8)
        results = match_detections(*tables([d1, d2], self.GT), EvalConfig(), 0.5)
        assert [lab for _, lab in results] == [MatchLabel.TP, MatchLabel.FP]

    def test_wrong_category_is_fp(self):
        det = Detection("a", "dog", Box(50, 50, 20, 20), 0.9)
        results = match_detections(*tables([det], self.GT), EvalConfig(), 0.5)
        assert results[0][1] is MatchLabel.FP

    def test_out_of_bucket_match_is_ignored(self):
        # Under a small-size filter a detection on a large ground truth is
        # dropped from the ranking rather than punished as a false positive.
        large_gt = GroundTruth("a", "cat", Box(0, 0, 200, 200))
        det = Detection("a", "cat", Box(0, 0, 200, 200), 0.9)
        config = EvalConfig(size_filter=SizeClass.SMALL)
        results = match_detections(*tables([det], [large_gt]), config, 0.5)
        assert results[0][1] is MatchLabel.IGNORED
        assert count_ground_truths(ground_truth_table([large_gt]), SizeClass.SMALL) == 0

    @pytest.mark.parametrize("threshold", [float("nan"), -5.0, 0.0, 1.5])
    def test_rejects_out_of_range_threshold(self, threshold):
        det = Detection("a", "cat", Box(50, 50, 20, 20), 0.9)
        with pytest.raises(ValueError, match="^threshold out of range"):
            match_detections(*tables([det], self.GT), EvalConfig(), threshold)

    def test_threshold_one_matches_an_exact_copy(self):
        det = Detection("a", "cat", Box(50, 50, 20, 20), 0.9)
        assert match_detections(*tables([det], self.GT), EvalConfig(), 1.0) == [(0, MatchLabel.TP)]

    def test_input_order_independent(self):
        rnd = random.Random(5)
        dets, gts = random_instance(rnd)
        config = EvalConfig(thresholds=(0.3,))
        baseline = {dets[i]: lab for i, lab in match_detections(*tables(dets, gts), config, 0.3)}
        shuffled = list(dets)
        rnd.shuffle(shuffled)
        assert {shuffled[i]: lab for i, lab in match_detections(*tables(shuffled, gts), config, 0.3)} == baseline


class TestMapReport:
    def small_world(self):
        gts = [
            GroundTruth("a", "cat", Box(10, 10, 16, 16)),
            GroundTruth("a", "dog", Box(60, 60, 120, 120)),
        ]
        dets = [
            Detection("a", "cat", Box(11, 10, 16, 16), 0.9),
            Detection("a", "dog", Box(60, 62, 120, 120), 0.8),
            Detection("a", "dog", Box(300, 300, 50, 50), 0.7),
        ]
        return dets, gts

    def test_structure_and_aggregates(self):
        dets, gts = self.small_world()
        config = EvalConfig(thresholds=(0.5, 0.75))
        rows = map_report(*tables(dets, gts), config)
        buckets = {r["bucket"] for r in rows}
        assert buckets == {"all", "small", "medium", "large"}
        mean_rows = [r for r in rows if r["threshold"] == "mean"]
        assert {r["category"] for r in mean_rows} == {"mAP"}
        all_map = {r["threshold"]: r["ap"] for r in rows
                   if r["category"] == "mAP" and r["bucket"] == "all"}
        assert all_map["mean"] == pytest.approx((all_map[0.5] + all_map[0.75]) / 2)

    def test_siou_gamma_zero_identity(self):
        dets, gts = self.small_world()
        iou_rows = map_report(*tables(dets, gts), EvalConfig(criterion=CriterionId.IOU))
        siou_rows = map_report(
            *tables(dets, gts),
            EvalConfig(criterion=CriterionId.SIOU, params=CriterionParams(gamma=0.0)),
        )
        assert iou_rows == siou_rows

    def test_lenient_siou_recovers_small_boxes(self):
        # A small-box detection whose IoU sits just below threshold clears it
        # under the lenient evaluation setting (gamma > 0 shrinks the exponent
        # for small objects, raising the criterion value).
        gt = [GroundTruth("a", "cat", Box(10, 10, 10, 10))]
        det = [Detection("a", "cat", Box(12.4, 10, 10, 10), 0.9)]
        iou_value = evaluate(CriterionId.IOU, det[0].box, gt[0].box)
        params = CriterionParams(gamma=0.5, kappa=64)
        siou_value = evaluate(CriterionId.SIOU, det[0].box, gt[0].box, params)
        assert iou_value < 0.65 < siou_value
        iou_ap = [r for r in map_report(*tables(det, gt), EvalConfig(thresholds=(0.65,)))
                  if r["category"] == "mAP" and r["bucket"] == "all"][0]["ap"]
        siou_ap = [r for r in map_report(
            *tables(det, gt),
            EvalConfig(criterion=CriterionId.SIOU, params=params, thresholds=(0.65,)))
            if r["category"] == "mAP" and r["bucket"] == "all"][0]["ap"]
        assert iou_ap == 0.0
        assert siou_ap == 1.0

    def test_empty_detections(self):
        _, gts = self.small_world()
        rows = map_report(*tables([], gts), EvalConfig())
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


def eval_stdout(path, doc, *flags):
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--boxes", str(path), *flags]) == 0
    return out.getvalue()


def one_image(gts, dets):
    """A boxes document of image "i", category "c": corner-form ground-truth
    boxes and (corner-form box, score) detections."""
    return {"images": [{"id": "i"}],
            "annotations": [{"image_id": "i", "category": "c", "bbox": b} for b in gts],
            "detections": [{"image_id": "i", "category": "c", "bbox": b, "score": s} for b, s in dets]}


@pytest.mark.parametrize("gts, dets", [
    # two detections with equal scores, each the better match of one ground truth
    ([[0, 0, 10, 10], [4, 0, 10, 10]], [([1, 0, 10, 10], 0.9), ([-2, 0, 10, 10], 0.9)]),
    # a detection with equal values on two ground truths, one of which the next detection needs
    ([[-3, 0, 10, 10], [3, 0, 10, 10]], [([0, 0, 10, 10], 0.9), ([-4, 0, 10, 10], 0.8)]),
])
def test_tied_entries_give_one_report_in_either_order(tmp_path, gts, dets):
    path = tmp_path / "boxes.json"
    reports = {eval_stdout(path, one_image(g, d), "--thresholds", "0.5")
               for g in (gts, gts[::-1]) for d in (dets, dets[::-1])}
    assert len(reports) == 1


@st.composite
def tied_document(draw, images=("a", "b")):
    """Boxes on a coarse grid with two scores, so exact score ties, equal
    criterion values (a detection midway between two ground truths) and
    duplicate boxes are common; small and medium sizes both occur. Fewer
    images put more boxes in each (image, category) group."""
    def entry():
        side = draw(st.sampled_from([10, 40]))
        return {"image_id": draw(st.sampled_from(images)), "category": draw(st.sampled_from(["cat", "dog"])),
                "bbox": [draw(st.sampled_from([-4, -3, -2, 0, 1, 3, 4])), draw(st.sampled_from([0, 2])), side, side]}

    annotations = [entry() for _ in range(draw(st.integers(1, 5)))]
    detections = [{**entry(), "score": draw(st.sampled_from([0.5, 0.9]))} for _ in range(draw(st.integers(1, 6)))]
    return {"images": [{"id": i} for i in images], "annotations": annotations, "detections": detections}


@pytest.mark.parametrize("cid", [c.value for c in CriterionId])
def test_eval_output_ignores_entry_order(tmp_path_factory, cid):
    """Permuting the annotations and the detections of a boxes file leaves
    every byte of the eval report as it was."""
    path = tmp_path_factory.mktemp("permuted") / "boxes.json"
    flags = ("--id", cid, "--thresholds", "0.3,0.5,0.7")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        doc = data.draw(tied_document())
        permuted = {**doc, "annotations": data.draw(st.permutations(doc["annotations"])),
                    "detections": data.draw(st.permutations(doc["detections"]))}
        assert eval_stdout(path, permuted, *flags) == eval_stdout(path, doc, *flags)

    check()


BUCKET_FILTERS = {"all": None, "small": SizeClass.SMALL, "medium": SizeClass.MEDIUM, "large": SizeClass.LARGE}


@pytest.mark.parametrize("cid", list(CriterionId), ids=[c.value for c in CriterionId])
def test_report_cells_equal_the_oracle_on_ties(cid):
    """Every non-mAP cell of map_report, in each of the four buckets and at
    each threshold, is the AP of the brute-force matcher's labels for that
    category, bucket and threshold, on documents full of score and value ties
    and duplicate boxes: the ranking shared by a bucket's cells puts the
    smaller box first on equal keys, as the oracle does."""
    config = EvalConfig(criterion=cid, thresholds=(0.3, 0.5, 0.7))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=tied_document(images=("a",)))
    # the first detection has equal values on both ground truths; the second
    # clears a threshold only on the smaller box, so the tie rule decides it
    # (at 0.3 to 0.7 for the overlap criteria; NWD needs the wider spacing)
    @example(doc=one_image([[-1, 0, 10, 10], [1, 0, 10, 10]], [([0, 0, 10, 10], 0.9), ([-2, 0, 10, 10], 0.5)]))
    @example(doc=one_image([[-6, 0, 10, 10], [6, 0, 10, 10]], [([0, 0, 10, 10], 0.9), ([-8, 0, 10, 10], 0.5)]))
    def check(doc):
        gts = [GroundTruth(a["image_id"], a["category"], corner_box(a["bbox"])) for a in doc["annotations"]]
        dets = [Detection(d["image_id"], d["category"], corner_box(d["bbox"]), d["score"])
                for d in doc["detections"]]
        cells = [row for row in map_report(*tables(dets, gts), config) if row["category"] != "mAP"]
        assert {(row["bucket"], row["threshold"]) for row in cells} == {
            (bucket, t) for bucket in BUCKET_FILTERS for t in config.thresholds}
        for row in cells:
            size_filter = BUCKET_FILTERS[row["bucket"]]
            cat_dets = [d for d in dets if d.category == row["category"]]
            cat_gts = [g for g in gts if g.category == row["category"]]
            labels = oracle_match(cat_dets, cat_gts, cid, config.params, row["threshold"], size_filter)
            assert row["ap"] == reference_ap(labels, count_ground_truths(ground_truth_table(cat_gts), size_filter)), row

    check()


COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))


def tied_instance(rnd):
    """random_instance plus ties: repeated detections (equal boxes and
    scores), two equal-sized ground truths either side of two detections of
    one score (equal values on distinct boxes), of a size drawn from all
    three classes, and a category with detections but no ground truth."""
    dets, gts = random_instance(rnd)
    dets += [det for det in dets if rnd.random() < 0.3]
    image, category = rnd.choice(gts).image_id, rnd.choice(gts).category
    x, y, side, gap = rnd.randint(0, 80), rnd.randint(0, 80), rnd.choice([12, 40, 100]), rnd.randint(1, 4)
    gts += [GroundTruth(image, category, Box(x + dx, y, side, side)) for dx in (-gap, gap)]
    dets += [Detection(image, category, Box(x, y, side, side), 0.5) for _ in range(2)]
    dets.append(Detection(image, "kite", Box(x, y, side, side), rnd.random()))
    return dets, gts


@pytest.mark.parametrize("cid", [CriterionId.IOU, CriterionId.SIOU], ids=["iou", "siou"])
def test_report_cells_equal_the_public_per_cell_path(cid):
    """Every non-mAP cell of map_report, over the four buckets and the ten
    COCO thresholds, equals average_precision of match_detections' labels for
    that category, bucket and threshold, with ==."""
    rnd = random.Random(27)
    config = EvalConfig(criterion=cid, thresholds=COCO_THRESHOLDS)
    for _ in range(60):
        dets, gts = tied_instance(rnd)
        cells = [row for row in map_report(*tables(dets, gts), config) if row["category"] != "mAP"]
        categories = {d.category for d in dets} | {g.category for g in gts}
        assert len(cells) == len(categories) * len(BUCKET_FILTERS) * len(COCO_THRESHOLDS)
        for row in cells:
            size_filter = BUCKET_FILTERS[row["bucket"]]
            cat_dets = [d for d in dets if d.category == row["category"]]
            cat_gts = [g for g in gts if g.category == row["category"]]
            cell_config = EvalConfig(criterion=cid, size_filter=size_filter)
            labels = [label for _, label in match_detections(*tables(cat_dets, cat_gts), cell_config, row["threshold"])]
            assert row["ap"] == average_precision(labels, count_ground_truths(ground_truth_table(cat_gts), size_filter)), row


@pytest.mark.parametrize("cid", list(CriterionId), ids=[c.value for c in CriterionId])
def test_scored_groups_equal_the_per_detection_sorts(cid):
    """The match order, from one np.lexsort over the columns, is a stable
    sort of the rows by (-score, image id, box); and each detection's
    candidates, from one np.lexsort over all pairs, are its same-group
    ground truths in box order, stably sorted by descending value."""
    rnd = random.Random(74)
    params = CriterionParams(gamma=0.5, kappa=32.0)
    for _ in range(40):
        dets, gts = tied_instance(rnd)
        dets += [Detection(d.image_id, d.category, d.box, -0.0) for d in dets if rnd.random() < 0.2]
        dets.append(Detection(dets[0].image_id, dets[0].category, dets[0].box, 0.0))
        groups = _ScoredGroups(*tables(dets, gts), cid, params)
        assert groups.order == sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id,
                                                                       dets[i].box.components()))
        box_order = sorted(range(len(gts)), key=lambda j: gts[j].box.components())
        for det, candidates in zip(dets, groups.candidates):
            same = [j for j in box_order if (gts[j].image_id, gts[j].category) == (det.image_id, det.category)]
            want = sorted(((j, evaluate(cid, det.box, gts[j].box, params)) for j in same),
                          key=itemgetter(1), reverse=True)
            assert candidates == want
