"""Acceptance suite: one test per top-level acceptance criterion.

Each test states its tolerance inline and is independent of the unit suites.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    MatchLabel,
    PdfMethod,
    ShiftModel,
    SizeClass,
    TheorySetup,
    average_precision,
    count_ground_truths,
    empirical_pdf,
    finite_difference_gradient,
    giou_pdf,
    iou,
    kendall_tau,
    loss_gradient,
    map_report,
    match_detections,
    moment_curve,
    one_way_anova,
    order_preservation_counts,
    reweight_gradient_ratio,
    reweight_loss_ratio,
    shift_curve,
    simulate_criterion,
    siou,
    theoretical_moment,
)
import scaleiou.stats as stats
from scaleiou.cli import main
from scaleiou.evaluation import EvalConfig
from scaleiou.rating import relative_gap_from_means
from tests.conftest import ground_truth_table, random_box, random_smooth_pair, tables
from tests.test_eval import oracle_ap, oracle_match, random_instance


def test_01_property_1_suite():
    """SIoU agrees with IoU at the endpoints and in the kappa->0 and
    scale->infinity limits, over 1000 random pairs and parameter draws."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        b1, b2 = random_box(rng), random_box(rng)
        params = CriterionParams(
            gamma=float(rng.uniform(-5, 1)), kappa=float(rng.uniform(1, 256))
        )
        u = iou(b1, b2)
        s = siou(b1, b2, params)
        assert (s == 0) == (u == 0)
        assert (s == 1) == (u == 1)
        big1, big2 = b1.scaled(1e6), b2.scaled(1e6)
        assert abs(siou(big1, big2, params) - u) < 1e-4
        tight = CriterionParams(gamma=params.gamma, kappa=1e-9)
        assert abs(siou(b1, b2, tight) - u) < 1e-6


def test_02_property_2_limits():
    """Both reweighting ratios tend to p as u -> 1 and are monotone in u."""
    u = 1 - 1e-8
    for p in (0.5, 1.0, 2.0, 4.0):
        assert abs(reweight_loss_ratio(u, p) - p) < 1e-5
        assert abs(reweight_gradient_ratio(u, p) - p) < 1e-6
    grid = np.linspace(0.01, 0.99, 99)
    for p in (0.5, 2.0):
        for ratio in (reweight_loss_ratio, reweight_gradient_ratio):
            values = [ratio(float(v), p) for v in grid]
            diffs = np.diff(values)
            if p > 1:
                assert np.all(diffs > 0)
            else:
                assert np.all(diffs < 0)


def test_03_gradient_oracle():
    """Analytic loss gradients match central finite differences (step 1e-4)
    within 1e-5 relative error over 1000 random differentiable configs."""
    rng = np.random.default_rng(77)
    cases = [
        (CriterionId.IOU, False),
        (CriterionId.GIOU, False),
        (CriterionId.SIOU, False),
        (CriterionId.SIOU, True),
        (CriterionId.GSIOU, False),
        (CriterionId.GSIOU, True),
    ]
    pairs = [random_smooth_pair(rng) for _ in range(1000)]
    params = CriterionParams(gamma=-3.0, kappa=16)
    for cid, detach in cases:
        worst = 0.0
        for b1, b2 in pairs:
            analytic = loss_gradient(cid, b1, b2, params, detach_p=detach)
            fd = finite_difference_gradient(cid, b1, b2, params, detach_p=detach)
            a = np.array(analytic.as_tuple())
            f = np.array(fd.as_tuple())
            scale = max(np.max(np.abs(a)), np.max(np.abs(f)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - f)) / scale))
        assert worst < 1e-5, f"{cid} detach={detach}: worst {worst:.2e}"


def test_04_giou_pdf_consistency():
    """The closed-form GIoU density normalizes to 1 and matches Monte Carlo
    moments (|z| <= 4 at n = 1e7) and the sample histogram (gap < 0.01)."""
    n = 10_000_000
    for omega in (16.0, 64.0, 128.0):
        setup = TheorySetup(omega, 16.0)
        total, _ = quad(giou_pdf, -1, 1, args=(setup,), points=[0.0], limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)
        samples = simulate_criterion(
            CriterionId.GIOU, omega, ShiftModel(sigma_base=16.0), n, 4242, n_threads=4
        )
        for order in (1, 2):
            powered = samples if order == 1 else samples * samples
            mc = float(np.mean(powered))
            se = float(np.std(powered, ddof=1)) / math.sqrt(n)
            theory = theoretical_moment(CriterionId.GIOU, order, setup)
            assert abs(mc - theory) <= 4 * se
        if omega == 16.0:
            pdf = empirical_pdf(samples, PdfMethod.HISTOGRAM, bounds=(-1.0, 1.0), bins=64)
            gap = max(abs(d - giou_pdf(z, setup)) for z, d in pdf)
            assert gap < 0.01


def test_05_moment_collapse_and_coupling():
    """gamma = 0 collapses SIoU/GSIoU moments onto IoU/GIoU; IoU/GIoU moments
    depend only on sigma/omega while SIoU's do not."""
    zero = CriterionParams(gamma=0.0, kappa=64)
    for omega, sigma in ((16, 16), (64, 16)):
        for order in (1, 2):
            setup = TheorySetup(omega, sigma, zero)
            assert theoretical_moment(CriterionId.SIOU, order, setup) == pytest.approx(
                theoretical_moment(CriterionId.IOU, order, setup), abs=1e-8
            )
            assert theoretical_moment(CriterionId.GSIOU, order, setup) == pytest.approx(
                theoretical_moment(CriterionId.GIOU, order, setup), abs=1e-8
            )
    for cid in (CriterionId.IOU, CriterionId.GIOU):
        assert theoretical_moment(cid, 1, TheorySetup(16, 16)) == pytest.approx(
            theoretical_moment(cid, 1, TheorySetup(32, 32)), abs=1e-8
        )
    loss = CriterionParams(gamma=-3.0, kappa=16)
    m_16 = theoretical_moment(CriterionId.SIOU, 1, TheorySetup(16, 16, loss))
    m_32 = theoretical_moment(CriterionId.SIOU, 1, TheorySetup(32, 32, loss))
    assert abs(m_16 - m_32) > 1e-4


def test_06_figure_shapes():
    """Shift curves and Monte Carlo mean curves reproduce the qualitative
    shapes: monotone decay in shift, growth in size, NWD size-invariance,
    and the 1/r^2 peak bound for mismatched sizes."""
    shifts = [0.25 * i for i in range(0, 33)]  # 0 .. 8
    lenient = CriterionParams(gamma=0.5, kappa=64)
    for cid in CriterionId:
        for omega in (4.0, 128.0):
            values = [v for _, v in shift_curve(cid, omega, shifts)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    iou_4 = dict(shift_curve(CriterionId.IOU, 4.0, shifts))
    iou_128 = dict(shift_curve(CriterionId.IOU, 128.0, shifts))
    assert iou_4[2.0] < iou_128[2.0]
    siou_4 = dict(shift_curve(CriterionId.SIOU, 4.0, shifts, params=lenient))
    siou_128 = dict(shift_curve(CriterionId.SIOU, 128.0, shifts, params=lenient))
    for eps in shifts:
        assert siou_4[eps] >= iou_4[eps] - 1e-12
        assert siou_128[eps] >= iou_128[eps] - 1e-12
    assert siou_4[2.0] - iou_4[2.0] > siou_128[2.0] - iou_128[2.0]

    omegas = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
    model = ShiftModel(sigma_base=16.0)
    for cid in CriterionId:
        curve = moment_curve(cid, omegas, model, 100_000, 321)
        if cid is CriterionId.NWD:
            level = curve[0].mean
            for point in curve[1:]:
                margin = 3 * math.hypot(curve[0].std_error, point.std_error)
                assert abs(point.mean - level) <= margin
        else:
            for a, b in zip(curve, curve[1:]):
                margin = 5 * math.hypot(a.std_error, b.std_error)
                assert b.mean - a.mean > margin

    r = 1.25
    peak = max(
        v for _, v in shift_curve(CriterionId.IOU, 16.0, shifts, size_ratio=r)
    )
    assert peak == pytest.approx(1 / r**2, abs=1e-9)


def test_07_order_preservation():
    """Order preservation over 1e5 unconstrained random triples, kappa = 64.

    For gamma in {-2, 0}, every aligned triple (its smaller-IoU pair has the
    smaller-or-equal average area) keeps its IoU order exactly, and aligned
    triples are the majority. Gamma = 0 preserves every triple. Gamma = -2
    does not: outside the aligned subset the order can flip, so the
    unconditional rate stays below 1. Gamma = 0.9 also violates at least once.
    """
    for gamma in (-2.0, 0.0):
        counts = order_preservation_counts(
            CriterionParams(gamma=gamma, kappa=64), 100_000, 2718
        )
        assert counts.n_aligned > counts.n_triples // 2, f"gamma={gamma}: {counts}"
        assert counts.aligned_preserved == counts.n_aligned, f"gamma={gamma}: {counts}"
        if gamma == 0.0:
            assert counts.preserved == counts.n_triples, f"gamma={gamma}: {counts}"
        else:
            assert counts.preserved < counts.n_triples, f"gamma={gamma}: {counts}"
    counts = order_preservation_counts(CriterionParams(gamma=0.9, kappa=64), 100_000, 2718)
    assert counts.preserved < counts.n_triples


def test_08_evaluation_oracle():
    """Greedy matching and AP agree with a brute-force evaluator on random
    small instances; the [TP, FP, TP] / 2-GT AP is exactly 5/6; SIoU at
    gamma = 0 reproduces the IoU report."""
    import random as _random

    rnd = _random.Random(888)
    for _ in range(300):
        dets, gts = random_instance(rnd)
        dets = dets[:5]
        for size_filter in (None, SizeClass.SMALL):
            config = EvalConfig(thresholds=(0.4,), size_filter=size_filter)
            got = [lab for _, lab in match_detections(*tables(dets, gts), config, 0.4)]
            want = oracle_match(dets, gts, config.criterion, config.params, 0.4, size_filter)
            assert got == want
            n_gt = count_ground_truths(ground_truth_table(gts), size_filter)
            expected = oracle_ap(want, n_gt)
            actual = average_precision(got, n_gt)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, abs=1e-12)

    assert average_precision([MatchLabel.TP, MatchLabel.FP, MatchLabel.TP], 2) == 5 / 6

    rnd = _random.Random(13)
    dets, gts = random_instance(rnd)
    iou_report = map_report(*tables(dets, gts), EvalConfig(criterion=CriterionId.IOU))
    siou_report = map_report(
        *tables(dets, gts),
        EvalConfig(criterion=CriterionId.SIOU, params=CriterionParams(gamma=0.0)),
    )
    assert iou_report == siou_report


def test_09_rating_statistics():
    """Hand-computed Kendall tau, ANOVA F, and relative-gap identities."""
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3, abs=1e-12)
    f_stat, _ = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
    assert f_stat == pytest.approx(3.0, abs=1e-9)
    means = {
        (SizeClass.SMALL, 1): 0.214,
        (SizeClass.MEDIUM, 1): 0.223,
        (SizeClass.LARGE, 1): 0.245,
    }
    gaps = relative_gap_from_means(means)
    assert sum(gaps.values()) == pytest.approx(0.0, abs=1e-12)
    assert gaps[(SizeClass.SMALL, 1)] < 0 < gaps[(SizeClass.LARGE, 1)]


def test_10_cli_determinism(capsys, monkeypatch, tmp_path):
    """Every stochastic subcommand is byte-identical across reruns and
    between a one-CPU (serial) and a four-CPU (threaded) run. The Monte Carlo
    commands draw 70000 samples, two CHUNK_SIZE chunks, so four CPUs draw
    them on two threads."""
    commands = [
        ["simulate", "--id", "gsiou", "--omega", "16", "--sigma", "16",
         "--n", "70000", "--seed", "5"],
        ["simulate", "--id", "iou", "--omega", "16", "--sigma", "16",
         "--n", "70000", "--seed", "5", "--pdf", "kde"],
        ["moments", "--id", "iou,siou", "--omega", "8,32", "--sigma", "16",
         "--n", "70000", "--seed", "5"],
        ["theory", "--id", "giou", "--omega", "16", "--sigma", "16",
         "--check-mc", "--n", "70000", "--seed", "5"],
        ["order-check", "--n", "20000", "--seed", "5"],
    ]
    for argv in commands:
        outputs = {}
        for threads in (1, 4):
            monkeypatch.setattr(stats, "_usable_cpus", lambda: threads)
            runs = []
            for _ in range(2):
                assert main(argv) == 0
                runs.append(capsys.readouterr().out)
            assert runs[0] == runs[1], argv
            outputs[threads] = runs[0]
        assert outputs[1] == outputs[4], argv
