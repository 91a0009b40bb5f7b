"""The criteria kernel: every entry point gives the same bits, and the
evaluation, I/O and sampling paths built on it reject bad input by name."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    EvalConfig,
    MatchLabel,
    ParseError,
    SizeClass,
    average_precision,
    evaluate,
    exponent_p,
    map_report,
    match_detections,
    size_class,
)
import scaleiou.criteria as criteria
import scaleiou.stats as stats
from scaleiou.cli import main
from scaleiou.criteria import areas, boxes_array, elementwise, from_areas, kernel, pairwise
from scaleiou.geometry import MAX_COORDINATE, intersection_area
from scaleiou.io import load_boxes, load_ratings
from scaleiou.stats import CHUNK_SIZE, ShiftModel, criterion_on_shifts, sample_shifts
from tests.conftest import Detection, GroundTruth, SerialPool, tables

ALL_IDS = list(CriterionId)

coordinate = st.floats(-300.0, 300.0, allow_nan=False)
extent = st.floats(0.5, 256.0, allow_nan=False)
boxes = st.builds(Box, coordinate, coordinate, extent, extent)
params_st = st.builds(
    CriterionParams,
    gamma=st.floats(-5.0, 1.0),
    kappa=st.floats(1e-3, 1e3),
    alpha=st.floats(0.1, 8.0),
    nwd_constant=st.floats(1.0, 100.0),
)


@st.composite
def box_pairs(draw):
    """A random, disjoint, identical or shifted-square pair."""
    kind = draw(st.sampled_from(["random", "disjoint", "identical", "shifted-square"]))
    b1 = draw(boxes)
    if kind == "random":
        return b1, draw(boxes)
    if kind == "identical":
        return b1, b1
    if kind == "disjoint":
        gap = draw(st.floats(0.0, 50.0))
        return b1, Box(b1.x + b1.w / 2 + gap + 5.0, b1.y, 10.0, b1.h)
    omega = draw(extent)
    return Box(draw(coordinate), 0.0, omega, omega), Box(0.0, 0.0, omega, omega)


@pytest.mark.parametrize("cid", ALL_IDS)
@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(box_pairs(), min_size=1, max_size=6), params=params_st)
def test_scalar_elementwise_pairwise_bit_equal(cid, pairs, params):
    firsts, seconds = [p[0] for p in pairs], [p[1] for p in pairs]
    a, b = boxes_array(firsts), boxes_array(seconds)
    scalar = [evaluate(cid, b1, b2, params) for b1, b2 in pairs]
    assert elementwise(cid, a, b, params).tolist() == scalar
    assert pairwise(cid, a, b, params).tolist() == [
        [evaluate(cid, b1, b2, params) for b2 in seconds] for b1 in firsts
    ]
    assert [exponent_p(b1, b2, params) for b1, b2 in pairs] == criteria.exponent(a.T, b.T, params).tolist()
    assert [intersection_area(b1, b2) for b1, b2 in pairs] == areas(a.T, b.T)[0].tolist()


@pytest.mark.parametrize("cid", ALL_IDS)
@settings(max_examples=60, deadline=None)
@given(
    omega=extent,
    ratio=st.floats(0.25, 4.0),
    shifts=st.lists(st.tuples(st.floats(-300, 300), st.floats(-300, 300)), min_size=1, max_size=8),
    params=params_st,
)
def test_criterion_on_shifts_bit_equal_to_scalar(cid, omega, ratio, shifts, params):
    dx = np.array([s[0] for s in shifts])
    dy = np.array([s[1] for s in shifts])
    batched = criterion_on_shifts(cid, omega, dx, dy, ratio, params)
    gt = Box(0.0, 0.0, ratio * omega, ratio * omega)
    scalar = [evaluate(cid, Box(x, y, omega, omega), gt, params) for x, y in shifts]
    assert batched.tolist() == scalar
    # horizontal shifts: a scalar dy broadcasts to the same bits as zeros
    horizontal = criterion_on_shifts(cid, omega, dx, np.zeros_like(dx), ratio, params)
    assert criterion_on_shifts(cid, omega, dx, 0.0, ratio, params).tolist() == horizontal.tolist()


@pytest.mark.parametrize("cid", [cid for cid in ALL_IDS if cid is not CriterionId.NWD])
@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(box_pairs(), min_size=1, max_size=6), params=params_st)
def test_from_areas_with_the_hull_bit_equal_to_kernel(cid, pairs, params):
    # one areas call with the hull serves every criterion: the hull never leaks into IoU
    a = boxes_array([p[0] for p in pairs]).T
    b = boxes_array([p[1] for p in pairs]).T
    shared = from_areas(cid, areas(a, b, hull=True), a, b, params)
    assert shared.tobytes() == kernel(cid, a, b, params).tobytes()


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(box_pairs(), min_size=1, max_size=6), kappa=st.floats(1e-3, 1e3))
def test_gamma_zero_collapses_bit_for_bit(pairs, kappa):
    params = CriterionParams(gamma=0.0, kappa=kappa)
    a, b = boxes_array([p[0] for p in pairs]), boxes_array([p[1] for p in pairs])
    for adaptive, plain in ((CriterionId.SIOU, CriterionId.IOU), (CriterionId.GSIOU, CriterionId.GIOU)):
        assert elementwise(adaptive, a, b, params).tolist() == elementwise(plain, a, b, params).tolist()
        for b1, b2 in pairs:
            assert evaluate(adaptive, b1, b2, params) == evaluate(plain, b1, b2, params)


def test_shape_errors():
    with pytest.raises(ValueError):
        elementwise(CriterionId.IOU, np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pairwise(CriterionId.IOU, np.zeros((2, 2, 4)), np.zeros((2, 4)))


# --- greedy matching against a plain scalar matcher


def scalar_greedy(dets, gts, cid, params, threshold, size_filter):
    """Labels in rank order from flat loops and one scalar criterion call per
    pair; ties go to the detection, then the ground truth, with the smaller box."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].image_id, dets[i].box.components()))
    gt_order = sorted(range(len(gts)), key=lambda j: gts[j].box.components())
    taken = set()
    labels = []
    for i in order:
        det = dets[i]
        label = MatchLabel.FP
        for want_in_bucket, candidate_label in ((True, MatchLabel.TP), (False, MatchLabel.IGNORED)):
            best_j, best_v = None, -float("inf")
            for j in gt_order:
                gt = gts[j]
                if j in taken or (gt.image_id, gt.category) != (det.image_id, det.category):
                    continue
                in_bucket = size_filter is None or size_class(gt.box) is size_filter
                if in_bucket is not want_in_bucket:
                    continue
                v = evaluate(cid, det.box, gt.box, params)
                if v > best_v:
                    best_j, best_v = j, v
            if best_j is not None and best_v >= threshold:
                taken.add(best_j)
                label = candidate_label
                break
        labels.append(label)
    return labels


def random_detection_set(seed):
    rnd = random.Random(seed)
    gts, dets = [], []
    for image in ("a", "b", "c"):
        for category in ("x", "y"):
            for _ in range(rnd.randint(0, 4)):
                s = rnd.choice([8.0, 20.0, 31.0, 40.0, 90.0, 150.0])
                box = Box(rnd.uniform(0, 200), rnd.uniform(0, 200), s * rnd.uniform(0.7, 1.3), s)
                gts.append(GroundTruth(image, category, box))
                for _ in range(rnd.randint(0, 2)):
                    moved = Box(box.x + rnd.uniform(-6, 6), box.y + rnd.uniform(-6, 6),
                                box.w * rnd.uniform(0.8, 1.2), box.h * rnd.uniform(0.8, 1.2))
                    dets.append(Detection(image, category, moved, rnd.choice([0.3, 0.5, 0.9])))
            for _ in range(rnd.randint(0, 2)):
                box = Box(rnd.uniform(0, 200), rnd.uniform(0, 200), rnd.uniform(5, 120), rnd.uniform(5, 120))
                dets.append(Detection(image, category, box, rnd.choice([0.3, 0.5, 0.9])))
    rnd.shuffle(dets)
    return dets, gts


@pytest.mark.parametrize("size_filter", [None, SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE])
@pytest.mark.parametrize("cid", [CriterionId.IOU, CriterionId.SIOU, CriterionId.GSIOU, CriterionId.NWD])
def test_match_detections_equals_scalar_greedy(cid, size_filter):
    params = CriterionParams(gamma=-1.5, kappa=24.0)
    for seed in range(15):
        dets, gts = random_detection_set(seed)
        for threshold in (0.3, 0.5, 0.75):
            config = EvalConfig(criterion=cid, params=params, thresholds=(threshold,),
                                size_filter=size_filter)
            got = match_detections(*tables(dets, gts), config, threshold)
            expected = scalar_greedy(dets, gts, cid, params, threshold, size_filter)
            assert [label for _, label in got] == expected


def test_match_tie_goes_to_the_first_ground_truth():
    """A detection equidistant from two ground truths takes the first in box
    order (x, y, w, h), here listed second, which leaves the other one for
    the next detection."""
    gts = [GroundTruth("i", "c", Box(10, 0, 20, 20)), GroundTruth("i", "c", Box(0, 0, 20, 20))]
    dets = [Detection("i", "c", Box(5, 0, 20, 20), 0.9), Detection("i", "c", Box(0, 0, 20, 20), 0.8)]
    config = EvalConfig(criterion=CriterionId.IOU)
    labels = [label for _, label in match_detections(*tables(dets, gts), config, 0.5)]
    assert labels == scalar_greedy(dets, gts, CriterionId.IOU, config.params, 0.5, None)
    assert labels == [MatchLabel.TP, MatchLabel.FP]


def test_map_report_equals_match_per_cell():
    """The report scores each group once, yet every cell equals a fresh
    match_detections + average_precision on that category and bucket."""
    params = CriterionParams(gamma=0.5, kappa=32.0)
    thresholds = (0.3, 0.5, 0.7)
    buckets = {"all": None, "small": SizeClass.SMALL, "medium": SizeClass.MEDIUM,
               "large": SizeClass.LARGE}
    for seed in range(5):
        dets, gts = random_detection_set(seed)
        config = EvalConfig(criterion=CriterionId.SIOU, params=params, thresholds=thresholds)
        for row in map_report(*tables(dets, gts), config):
            if row["category"] == "mAP":
                continue
            bucket = buckets[row["bucket"]]
            cat_dets = [d for d in dets if d.category == row["category"]]
            cat_gts = [g for g in gts if g.category == row["category"]]
            cell = EvalConfig(criterion=CriterionId.SIOU, params=params,
                              thresholds=thresholds, size_filter=bucket)
            labels = [lab for _, lab in match_detections(*tables(cat_dets, cat_gts), cell, row["threshold"])]
            n_gt = sum(1 for g in cat_gts if bucket is None or size_class(g.box) is bucket)
            assert row["ap"] == average_precision(labels, n_gt)


def test_one_kernel_call_per_scoring(monkeypatch):
    """map_report and match_detections each score all their same-group pairs
    in one kernel call, however many images and categories there are."""
    calls = []

    def counting_kernel(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(criteria, "kernel", counting_kernel)
    dets, gts = random_detection_set(0)
    assert len({(d.image_id, d.category) for d in dets}) > 2
    config = EvalConfig(criterion=CriterionId.SIOU, thresholds=(0.3, 0.5, 0.7))
    map_report(*tables(dets, gts), config)
    assert calls == [CriterionId.SIOU]
    match_detections(*tables(dets, gts), config, 0.5)
    assert calls == [CriterionId.SIOU] * 2


# --- rejected input


def write_boxes(tmp_path, data):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(data))
    return str(path)


def one_pair(det_bbox=(0, 0, 10, 10), gt_bbox=(0, 0, 10, 10), score=0.9, images=("i",)):
    return {
        "images": list(images),
        "annotations": [{"image_id": "i", "category": "c", "bbox": list(gt_bbox)}],
        "detections": [{"image_id": "i", "category": "c", "bbox": list(det_bbox), "score": score}],
    }


def eval_exit(path, *extra):
    return main(["eval", "--boxes", path, *extra])


@pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_score_is_a_parse_error(tmp_path, capsys, score):
    path = write_boxes(tmp_path, one_pair(score=score))
    with pytest.raises(ParseError, match="score"):
        load_boxes(path)
    assert eval_exit(path) == 2


@pytest.mark.parametrize("bbox", [(0, 0, 1e308, 1e308), (0, 0, 1e200, 1e200), (1e300, 0, 5, 5),
                                  (0, 0, 1e-200, 1e-200), (1.7e308, 0, 1e308, 5)])
def test_overflowing_box_is_a_parse_error(tmp_path, capsys, bbox):
    path = write_boxes(tmp_path, one_pair(det_bbox=bbox, gt_bbox=bbox))
    with pytest.raises(ParseError, match="out of range"):
        load_boxes(path)
    assert eval_exit(path) == 2


# the bboxes of test_overflowing_box_is_a_parse_error, for the other loaders; the last
# one's center overflows to inf, with no RuntimeWarning
OVERFLOWING_BBOXES = [(0, 0, 1e308, 1e308), (0, 0, 1e200, 1e200), (1e300, 0, 5, 5),
                      (0, 0, 1e-200, 1e-200), (1.7e308, 0, 1e308, 5)]


@pytest.mark.parametrize("bbox", OVERFLOWING_BBOXES)
def test_overflowing_rating_box_is_a_parse_error(tmp_path, capsys, bbox):
    corner = ",".join(str(v) for v in bbox)
    path = tmp_path / "ratings.csv"
    path.write_text(f"rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph\n3,{corner},{corner}\n")
    with pytest.raises(ParseError, match="line 2: .*out of range"):
        load_ratings(str(path))
    for analysis in ("correlation", "groups"):
        assert main(["rating", "--ratings", str(path), "--analysis", analysis]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bbox", OVERFLOWING_BBOXES)
def test_overflowing_criterion_box_is_a_usage_error(capsys, bbox):
    corner = ",".join(str(v) for v in bbox)
    assert main(["criterion", "--id", "siou", "--a", corner, "--b", "0,0,10,10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of range" in captured.err


def test_box_range_rule():
    edge = MAX_COORDINATE
    Box(edge, -edge, edge, edge)
    for fields in ((2 * edge, 0, 1, 1), (0, 0, 1, 2 * edge), (float("nan"), 0, 1, 1),
                   (0, 0, float("inf"), 1), (0, float("-inf"), 1, 1), (0, 0, 1e-200, 1e-200),
                   (0, 0, -1, -1), (0, 0, 0, 1)):
        with pytest.raises(ValueError):
            Box(*fields)


def test_image_without_id_is_a_parse_error(tmp_path, capsys):
    path = write_boxes(tmp_path, one_pair(images=({"file": "a.jpg"},)))
    with pytest.raises(ParseError, match=r"images\[0\]: missing field 'id'"):
        load_boxes(path)
    assert eval_exit(path) == 2


def test_duplicate_thresholds_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="distinct"):
        EvalConfig(thresholds=(0.5, 0.5))
    path = write_boxes(tmp_path, one_pair())
    assert eval_exit(path, "--thresholds", "0.5,0.5") == 1
    assert capsys.readouterr().out == ""


def test_config_file_read_once_per_command(tmp_path, capsys, monkeypatch):
    import scaleiou.cli as cli

    config = tmp_path / "c.cfg"
    config.write_text("threshold=0.6\ngamma=0.1\n")
    reads = []
    original = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path, keys: reads.append(path) or original(path, keys))
    assert eval_exit(write_boxes(tmp_path, one_pair()), "--config", str(config)) == 0
    assert reads == [str(config)]
    assert "c,all,0.6,1\n" in capsys.readouterr().out


# --- the thread pool of the shift sampler


@pytest.mark.parametrize(
    "n_chunks, n_threads, cpus, expected",
    [(2, 100_000, 4, [2]), (8, 100_000, 3, [3]), (8, 2, 64, [2]), (8, 100_000, 1, []),
     (1, 8, 8, []), (8, 1, 8, []),
     (2, None, 4, [2]), (8, None, 3, [3]), (8, None, 1, []), (1, None, 8, [])],
)
def test_sample_shifts_caps_its_pool(monkeypatch, n_chunks, n_threads, cpus, expected):
    """One thread per usable CPU by default, capped by the chunk count and by
    an explicit n_threads; serial for one chunk or one CPU."""
    monkeypatch.setattr(stats, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: cpus)
    model = ShiftModel(sigma_base=4.0)
    n = n_chunks * CHUNK_SIZE
    samples = sample_shifts(8.0, model, n, seed=3, n_threads=n_threads)
    assert SerialPool.requested == expected
    assert np.array_equal(samples, sample_shifts(8.0, model, n, seed=3, n_threads=1))


@pytest.mark.parametrize("cpus", [2, 8])
def test_a_huge_thread_count_is_capped_by_the_chunks_and_the_cpus(monkeypatch, cpus):
    """n_threads=10**9 on a 3-chunk draw asks the pool for min(3, usable CPUs) workers."""
    monkeypatch.setattr(stats, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: cpus)
    sample_shifts(8.0, ShiftModel(sigma_base=4.0), 3 * CHUNK_SIZE, seed=3, n_threads=10**9)
    assert SerialPool.requested == [min(3, cpus)]


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    """The pool is sized by the CPUs the process may run on (so taskset limits
    it), or by the CPU count where the platform has no affinity mask."""
    monkeypatch.setattr(stats.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 64)
    assert stats._usable_cpus() == 3
    monkeypatch.delattr(stats.os, "sched_getaffinity")
    assert stats._usable_cpus() == 64
    monkeypatch.setattr(stats.os, "cpu_count", lambda: None)
    assert stats._usable_cpus() == 1
