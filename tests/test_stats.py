import contextlib
import io
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scaleiou.stats as stats
from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    InsufficientSamples,
    OrderPreservationCounts,
    PdfMethod,
    ShiftDirection,
    ShiftModel,
    empirical_pdf,
    evaluate,
    moment_curve,
    moment_curves,
    order_preservation_counts,
    order_preservation_rate,
    shift_curve,
    simulate_criteria,
    simulate_criterion,
    summarize,
    value_range,
)
from scaleiou import iou, siou
from scaleiou.cli import main
from scaleiou.stats import CHUNK_SIZE, criterion_on_shifts, gaussian_kde, sample_shifts, silverman_bandwidth
from tests.conftest import SerialFuture, SerialPool, random_box, traced_peak

DEFAULT = CriterionParams()


class TestShiftCurve:
    def test_zero_shift_same_size(self):
        for cid in (CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU, CriterionId.NWD):
            curve = shift_curve(cid, 16.0, [0.0], params=DEFAULT)
            assert curve[0] == (0.0, pytest.approx(1.0, abs=1e-12))

    def test_peak_bound_with_size_ratio(self):
        curve = shift_curve(CriterionId.IOU, 16.0, [0.0], size_ratio=1.25)
        assert curve[0][1] == pytest.approx(0.64, abs=1e-12)

    def test_known_horizontal_value(self):
        curve = shift_curve(CriterionId.IOU, 10.0, [5.0])
        assert curve[0][1] == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_scalar_box_path(self, rng):
        # vectorized shifted-square kernel against the scalar Box API
        params = CriterionParams(gamma=0.5, kappa=64)
        for cid in CriterionId:
            for direction in ShiftDirection:
                omega = float(rng.uniform(4, 100))
                ratio = float(rng.uniform(0.5, 2.0))
                shifts = rng.uniform(0, 2 * omega, 10)
                curve = shift_curve(cid, omega, shifts, direction, ratio, params)
                gt = Box(0, 0, ratio * omega, ratio * omega)
                for shift, value in curve:
                    dy = shift if direction is ShiftDirection.DIAGONAL else 0.0
                    pred = Box(shift, dy, omega, omega)
                    assert value == pytest.approx(
                        evaluate(cid, pred, gt, params), rel=1e-12, abs=1e-12
                    )

    def test_monotone_decreasing(self):
        shifts = np.linspace(0, 40, 81)
        for cid in CriterionId:
            curve = shift_curve(cid, 16.0, shifts, params=DEFAULT)
            values = [v for _, v in curve]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            shift_curve(CriterionId.IOU, -1.0, [0.0])
        with pytest.raises(ValueError):
            shift_curve(CriterionId.IOU, 16.0, [-1.0])


class TestSimulate:
    def test_deterministic(self):
        model = ShiftModel(sigma_base=16.0)
        a = simulate_criterion(CriterionId.GIOU, 32, model, 10_000, 7)
        b = simulate_criterion(CriterionId.GIOU, 32, model, 10_000, 7)
        assert np.array_equal(a, b)

    def test_parallel_matches_serial(self):
        model = ShiftModel(sigma_base=16.0)
        serial = simulate_criterion(CriterionId.IOU, 32, model, 200_000, 3, n_threads=1)
        parallel = simulate_criterion(CriterionId.IOU, 32, model, 200_000, 3, n_threads=4)
        assert np.array_equal(serial, parallel)

    def test_shift_sequence_shared_across_criteria(self):
        # same (seed, model, n, omega) => identical shifts, so SIoU with
        # gamma=0 reproduces IoU samples exactly
        model = ShiftModel(sigma_base=16.0)
        u = simulate_criterion(CriterionId.IOU, 16, model, 50_000, 11)
        s = simulate_criterion(CriterionId.SIOU, 16, model, 50_000, 11, CriterionParams(gamma=0.0))
        assert np.array_equal(u, s)

    def test_no_noise_limit(self):
        model = ShiftModel(sigma_base=1e-12)
        samples = simulate_criterion(CriterionId.IOU, 32, model, 1000, 5)
        assert np.all(samples > 1 - 1e-9)

    def test_small_objects_score_lower(self):
        model = ShiftModel(sigma_base=16.0)
        lo = simulate_criterion(CriterionId.IOU, 16, model, 100_000, 21)
        hi = simulate_criterion(CriterionId.IOU, 128, model, 100_000, 22)
        se = math.sqrt(lo.var() / lo.size + hi.var() / hi.size)
        assert hi.mean() - lo.mean() > 5 * se

    def test_diagonal_means_not_higher(self):
        n = 100_000
        h = simulate_criterion(CriterionId.IOU, 32, ShiftModel(direction=ShiftDirection.HORIZONTAL), n, 9)
        d = simulate_criterion(CriterionId.IOU, 32, ShiftModel(direction=ShiftDirection.DIAGONAL), n, 9)
        assert d.mean() <= h.mean()

    def test_size_ratio_peak_bound(self):
        model = ShiftModel(sigma_base=8.0, size_ratio=1.25)
        samples = simulate_criterion(CriterionId.IOU, 32, model, 100_000, 13)
        assert samples.max() <= 1 / 1.25**2 + 1e-9

    def test_affine_sigma(self):
        model = ShiftModel(sigma_base=16.0, sigma_slope=0.25)
        assert model.sigma(64) == 32.0
        shifts = sample_shifts(64, model, 200_000, 17)
        assert np.std(shifts) == pytest.approx(32.0, rel=0.02)


class TestSummarize:
    def test_constant(self):
        s = summarize(np.ones(4))
        assert s.mean == 1.0 and s.std_dev == 0.0 and s.n_samples == 4

    def test_two_point(self):
        s = summarize(np.array([0.0, 1.0]))
        assert s.mean == 0.5
        assert s.std_dev == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert s.std_error == pytest.approx(s.std_dev / math.sqrt(2), rel=1e-12)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            summarize(np.array([1.0]))


class TestEmpiricalPdf:
    def test_uniform_histogram(self, rng):
        samples = rng.uniform(0, 1, 1_000_000)
        pdf = empirical_pdf(samples, PdfMethod.HISTOGRAM, bounds=(0.0, 1.0), bins=10)
        for _, density in pdf:
            assert density == pytest.approx(1.0, abs=0.05)

    def test_point_mass_top_bin(self):
        samples = np.full(1000, 0.999)
        pdf = empirical_pdf(samples, PdfMethod.HISTOGRAM, bounds=(0.0, 1.0), bins=10)
        assert pdf[-1][1] == pytest.approx(10.0, rel=1e-9)
        assert all(d == 0 for _, d in pdf[:-1])

    @pytest.mark.parametrize("method", list(PdfMethod))
    def test_normalization(self, method, rng):
        samples = np.clip(rng.normal(0.5, 0.2, 100_000), 0, 1)
        pdf = empirical_pdf(samples, method, bounds=(0.0, 1.0))
        zs = np.array([z for z, _ in pdf])
        ds = np.array([d for _, d in pdf])
        assert np.trapezoid(ds, zs) == pytest.approx(1.0, abs=1e-2)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            empirical_pdf(np.arange(5.0))

    def test_kde_on_constant_samples_is_a_data_error(self, capsys):
        # sigma 1e-300 shifts a 16-wide box by far less than an ulp: every IoU is 1
        code = main(["simulate", "--id", "iou", "--omega", "16", "--sigma", "1e-300", "--n", "100", "--seed", "1",
                     "--pdf", "kde"])
        assert (code, *capsys.readouterr()) == (2, "", "error: KDE needs non-constant samples\n")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^unknown pdf method 'kde'$"):
            empirical_pdf(np.arange(20.0), "kde")


# empirical_pdf's KDE against scipy.stats.gaussian_kde: relative, with an
# absolute floor for the densities that underflow. The largest distance on
# the samples below is 3.4e-14.
KDE_REL = 1e-13


@pytest.mark.parametrize("n", [5_000, 100_000])
@pytest.mark.parametrize("cid", [CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU, CriterionId.GSIOU])
def test_kde_matches_scipys_gaussian_kde(cid, n):
    from scipy.stats import gaussian_kde as scipy_kde

    samples = simulate_criterion(cid, 16.0, ShiftModel(sigma_base=4.0), n, 1)
    grid, density = np.array(empirical_pdf(samples, PdfMethod.GAUSSIAN_KDE, bounds=value_range(cid))).T
    reference = scipy_kde(samples, bw_method=silverman_bandwidth(samples) / np.std(samples))(grid)
    assert grid.size == 256
    assert np.all(np.abs(density - reference) <= KDE_REL * np.maximum(density, reference) + 1e-300)


def test_kde_memory_is_one_array_of_n_floats_per_point():
    """At n = 1e5, evaluating all 256 grid points at once would hold 205 MB;
    one point at a time, the peak is the one reused array of n kernel values,
    and three arrays of n (the scaled samples, and the percentile and
    covariance copies before it). A first call on few samples takes the
    one-time import of numpy.ma, about 1.2 MB, out of the measurement."""
    n = 100_000
    samples = simulate_criterion(CriterionId.SIOU, 16.0, ShiftModel(sigma_base=4.0), n, 1)
    empirical_pdf(samples[:1000], PdfMethod.GAUSSIAN_KDE, bounds=(0.0, 1.0))
    peak = traced_peak(lambda: empirical_pdf(samples, PdfMethod.GAUSSIAN_KDE, bounds=(0.0, 1.0)))
    assert peak <= 4 * n * 8


def test_kde_grid_length_does_not_change_the_density():
    """Each point's density is its own sum over the samples, so how many
    points the grid holds, and where a point stands in it, leaves its bits
    alone."""
    samples = np.random.default_rng(3).normal(size=1000)
    points = np.linspace(-4.0, 4.0, 11)
    whole = gaussian_kde(samples, points, 0.3)
    one_by_one = np.concatenate([gaussian_kde(samples, points[i:i + 1], 0.3) for i in range(points.size)])
    assert whole.tobytes() == one_by_one.tobytes()


def test_kde_bandwidth_below_the_float_range_is_a_data_error():
    """Quartiles one subnormal apart: Silverman's bandwidth underflows to 0."""
    samples = np.r_[np.zeros(50), np.full(50, 5e-324), 1.0]
    with pytest.raises(InsufficientSamples, match="^KDE bandwidth is below the float range$"):
        empirical_pdf(samples, PdfMethod.GAUSSIAN_KDE)


class TestMomentCurve:
    OMEGAS = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]

    def test_iou_means_increase(self):
        curve = moment_curve(CriterionId.IOU, self.OMEGAS, ShiftModel(sigma_base=16.0), 100_000, 31)
        for a, b in zip(curve, curve[1:]):
            margin = 5 * math.hypot(a.std_error, b.std_error)
            assert b.mean - a.mean > margin

    def test_siou_positive_gamma_above_iou_for_small(self):
        model = ShiftModel(sigma_base=16.0)
        params = CriterionParams(gamma=0.5, kappa=64)
        iou_c = moment_curve(CriterionId.IOU, [8.0], model, 100_000, 41)
        siou_c = moment_curve(CriterionId.SIOU, [8.0], model, 100_000, 41, params)
        assert siou_c[0].mean > iou_c[0].mean

    def test_siou_negative_gamma_below_iou_for_small(self):
        model = ShiftModel(sigma_base=16.0)
        params = CriterionParams(gamma=-3.0, kappa=16)
        iou_c = moment_curve(CriterionId.IOU, [8.0], model, 100_000, 41)
        siou_c = moment_curve(CriterionId.SIOU, [8.0], model, 100_000, 41, params)
        assert siou_c[0].mean < iou_c[0].mean

    def test_nwd_mean_constant_in_omega(self):
        curve = moment_curve(CriterionId.NWD, self.OMEGAS, ShiftModel(sigma_base=16.0), 100_000, 51)
        means = [s.mean for s in curve]
        for a, b in zip(curve, curve[1:]):
            assert abs(b.mean - a.mean) < 3 * math.hypot(a.std_error, b.std_error)
        assert max(means) - min(means) < 0.01

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            moment_curve(CriterionId.IOU, [], ShiftModel(), 10, 0)


class TestOrderPreservation:
    def test_gamma_zero_preserves_exactly(self):
        rate = order_preservation_rate(CriterionParams(gamma=0.0, kappa=64), 20_000, 61)
        assert rate == 1.0

    def test_gamma_negative_preserves_when_areas_aligned(self, rng):
        # For gamma <= 0 the order is guaranteed whenever the pair with the
        # smaller IoU also has the smaller (or equal) average area, so that
        # its exponent p is the larger one.  Checked through the scalar Box
        # API as an independent route from the vectorized sampler.
        params = CriterionParams(gamma=-2.0, kappa=64)
        checked = 0
        while checked < 500:
            b1, b2, b3 = (random_box(rng, lo=0, hi=512) for _ in range(3))
            u12, u13 = iou(b1, b2), iou(b1, b3)
            if u12 == 0 and u13 == 0:
                continue
            if u12 > u13:
                b2, b3 = b3, b2
                u12, u13 = u13, u12
            tau12 = (b1.w * b1.h + b2.w * b2.h) / 2
            tau13 = (b1.w * b1.h + b3.w * b3.h) / 2
            if tau12 > tau13:
                continue
            assert siou(b1, b2, params) <= siou(b1, b3, params) + 1e-12
            checked += 1

    def test_gamma_negative_counterexample_when_areas_opposed(self):
        # When the smaller-IoU pair has the *larger* average area its exponent
        # is smaller for gamma < 0, and the order can flip: the preservation
        # guarantee for gamma <= 0 is conditional, not universal.
        params = CriterionParams(gamma=-2.0, kappa=64)
        b1 = Box(0, 0, 8, 8)
        b2 = Box(102, 0, 200, 200)
        b3 = Box(112, 0, 220, 220)
        assert iou(b1, b3) < iou(b1, b2)
        assert siou(b1, b3, params) > siou(b1, b2, params)

    def test_gamma_negative_rate_below_one(self):
        rate = order_preservation_rate(CriterionParams(gamma=-2.0, kappa=64), 20_000, 61)
        assert 0.98 < rate < 1.0

    @pytest.mark.parametrize("gamma", [-5.0, -0.5])
    def test_gamma_negative_aligned_subset_preserved(self, gamma):
        params = CriterionParams(gamma=gamma, kappa=64)
        counts = order_preservation_counts(params, 20_000, 61)
        assert counts.n_triples == 20_000
        assert 0 < counts.n_aligned < counts.n_triples
        assert counts.aligned_preserved == counts.n_aligned
        assert counts.preserved < counts.n_triples

    def test_gamma_large_positive_violates(self):
        rate = order_preservation_rate(CriterionParams(gamma=0.9, kappa=64), 100_000, 61)
        assert rate < 1.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            order_preservation_rate(DEFAULT, 0, 0)


# (gamma, kappa, n_triples, seed, preserved, n_aligned, aligned_preserved):
# counts of the chunked sampler. About 13 % of drawn triples have a nonzero
# IoU, so n_triples = 20000 is counted from the first three chunks.
PINNED_COUNTS = [
    (-3.0, 4.0, 1, 0, 1, 0, 0),
    (-3.0, 4.0, 1, 2718, 1, 1, 1),
    (-3.0, 4.0, 7, 0, 7, 4, 4),
    (-3.0, 4.0, 7, 2718, 7, 4, 4),
    (-3.0, 4.0, 20000, 0, 19999, 14571, 14571),
    (-3.0, 4.0, 20000, 2718, 20000, 14647, 14647),
    (-3.0, 64.0, 1, 0, 1, 0, 0),
    (-3.0, 64.0, 1, 2718, 1, 1, 1),
    (-3.0, 64.0, 7, 0, 7, 4, 4),
    (-3.0, 64.0, 7, 2718, 7, 4, 4),
    (-3.0, 64.0, 20000, 0, 19909, 14571, 14571),
    (-3.0, 64.0, 20000, 2718, 19895, 14647, 14647),
    (-2.0, 4.0, 1, 0, 1, 0, 0),
    (-2.0, 4.0, 1, 2718, 1, 1, 1),
    (-2.0, 4.0, 7, 0, 7, 4, 4),
    (-2.0, 4.0, 7, 2718, 7, 4, 4),
    (-2.0, 4.0, 20000, 0, 20000, 14571, 14571),
    (-2.0, 4.0, 20000, 2718, 20000, 14647, 14647),
    (-2.0, 64.0, 1, 0, 1, 0, 0),
    (-2.0, 64.0, 1, 2718, 1, 1, 1),
    (-2.0, 64.0, 7, 0, 7, 4, 4),
    (-2.0, 64.0, 7, 2718, 7, 4, 4),
    (-2.0, 64.0, 20000, 0, 19933, 14571, 14571),
    (-2.0, 64.0, 20000, 2718, 19921, 14647, 14647),
    (0.0, 4.0, 1, 0, 1, 0, 0),
    (0.0, 4.0, 1, 2718, 1, 1, 1),
    (0.0, 4.0, 7, 0, 7, 4, 4),
    (0.0, 4.0, 7, 2718, 7, 4, 4),
    (0.0, 4.0, 20000, 0, 20000, 14571, 14571),
    (0.0, 4.0, 20000, 2718, 20000, 14647, 14647),
    (0.0, 64.0, 1, 0, 1, 0, 0),
    (0.0, 64.0, 1, 2718, 1, 1, 1),
    (0.0, 64.0, 7, 0, 7, 4, 4),
    (0.0, 64.0, 7, 2718, 7, 4, 4),
    (0.0, 64.0, 20000, 0, 20000, 14571, 14571),
    (0.0, 64.0, 20000, 2718, 20000, 14647, 14647),
    (0.9, 4.0, 1, 0, 1, 0, 0),
    (0.9, 4.0, 1, 2718, 1, 1, 1),
    (0.9, 4.0, 7, 0, 7, 4, 4),
    (0.9, 4.0, 7, 2718, 7, 4, 4),
    (0.9, 4.0, 20000, 0, 20000, 14571, 14571),
    (0.9, 4.0, 20000, 2718, 20000, 14647, 14647),
    (0.9, 64.0, 1, 0, 1, 0, 0),
    (0.9, 64.0, 1, 2718, 1, 1, 1),
    (0.9, 64.0, 7, 0, 7, 4, 4),
    (0.9, 64.0, 7, 2718, 7, 4, 4),
    (0.9, 64.0, 20000, 0, 19976, 14571, 14547),
    (0.9, 64.0, 20000, 2718, 19964, 14647, 14611),
]


@pytest.mark.parametrize("gamma, kappa, n, seed, preserved, n_aligned, aligned_preserved", PINNED_COUNTS)
def test_order_preservation_counts_pinned(gamma, kappa, n, seed, preserved, n_aligned, aligned_preserved):
    counts = order_preservation_counts(CriterionParams(gamma=gamma, kappa=kappa), n, seed)
    assert counts == OrderPreservationCounts(n, preserved, n_aligned, aligned_preserved)


def test_order_counts_do_not_depend_on_the_thread_count(monkeypatch):
    """150000 triples need about 18 chunks. One usable CPU draws them serially,
    four draw them on a pool; both count the first 150000 triples with a
    nonzero IoU of the chunks drawn in order."""
    params = CriterionParams(gamma=-2.0, kappa=64)
    n = 150_000
    runs = {}
    for cpus in (1, 4):
        monkeypatch.setattr(stats, "_usable_cpus", lambda: cpus)
        runs[cpus] = order_preservation_counts(params, n, 3)
    score = stats._order_chunk(params)
    chunks = [(np.random.SeedSequence([3, i]), CHUNK_SIZE) for i in range(19)]
    ok, aligned = (np.concatenate(flags)[:n] for flags in zip(*map(score, chunks)))
    assert ok.size == n
    want = OrderPreservationCounts(n, int(ok.sum()), int(aligned.sum()), int((ok & aligned).sum()))
    assert runs[1] == runs[4] == want


def test_order_counts_stop_after_the_chunk_that_completes_them(monkeypatch):
    """One triple is counted from chunk 0: that chunk alone is scored, and every
    other chunk the driver submitted ahead is cancelled."""
    monkeypatch.setattr(stats, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 4)
    scored, real_chunk = [], stats._order_chunk

    def counting_chunk(params):
        score = real_chunk(params)
        return lambda item: scored.append(item[0].entropy) or score(item)

    monkeypatch.setattr(stats, "_order_chunk", counting_chunk)
    monkeypatch.setattr(SerialPool, "requested", [])
    monkeypatch.setattr(SerialPool, "futures", [])
    counts = order_preservation_counts(CriterionParams(gamma=-2.0, kappa=64), 1, 2718)
    assert counts == OrderPreservationCounts(1, 1, 1, 1)
    assert scored == [[2718, 0]]
    assert SerialPool.requested == [4]
    assert len(SerialPool.futures) > 1
    assert [f.cancelled() for f in SerialPool.futures] == [False] + [True] * (len(SerialPool.futures) - 1)


def test_an_open_stream_scores_one_chunk_per_worker_ahead(monkeypatch):
    """A stand-in pool whose workers run every queued chunk while the caller
    waits for a result, as idle threads do. One triple on 2 workers: the
    chunks submitted before the first result, one per worker, are scored, and
    the 7 that top the queue up to 4 per worker after it are cancelled.
    Starting with 4 per worker would score 8."""

    class BusyFuture(SerialFuture):
        def result(self, timeout=None):
            for future in SerialPool.futures:
                future.run()
            return super().result(timeout)

    class BusyPool(SerialPool):
        future_type = BusyFuture

    monkeypatch.setattr(stats, "ThreadPoolExecutor", BusyPool)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 2)
    scored, real_chunk = [], stats._order_chunk

    def counting_chunk(params):
        score = real_chunk(params)
        return lambda item: scored.append(item[0].entropy) or score(item)

    monkeypatch.setattr(stats, "_order_chunk", counting_chunk)
    monkeypatch.setattr(SerialPool, "futures", [])
    counts = order_preservation_counts(CriterionParams(gamma=-2.0, kappa=64), 1, 2718)
    assert counts == OrderPreservationCounts(1, 1, 1, 1)
    assert scored == [[2718, 0], [2718, 1]]
    assert SerialPool.requested == [2]
    assert [f.cancelled() for f in SerialPool.futures] == [False, False] + [True] * 7


def test_chunks_are_yielded_in_chunk_order_whatever_order_they_finish_in(monkeypatch):
    """A stand-in pool that finishes every submitted chunk, the last first,
    when the first result is asked for."""
    finished = []

    class LastFirstFuture(SerialFuture):
        def result(self, timeout=None):
            for future in reversed(SerialPool.futures):
                future.run()
            return super().result(timeout)

    class LastFirstPool(SerialPool):
        future_type = LastFirstFuture

    monkeypatch.setattr(stats, "ThreadPoolExecutor", LastFirstPool)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(SerialPool, "futures", [])

    def index(item):
        finished.append(item[0].entropy[1])
        return item[0].entropy[1], item[1]

    got = list(stats._map_chunks(index, 5 * CHUNK_SIZE + 1, 9))
    assert finished == [5, 4, 3, 2, 1, 0]
    assert got == [(0, CHUNK_SIZE), (1, CHUNK_SIZE), (2, CHUNK_SIZE), (3, CHUNK_SIZE), (4, CHUNK_SIZE), (5, 1)]


def test_order_check_leaves_no_pool_thread_alive(monkeypatch):
    """Real threads: the pool of a stopped stream is shut down before
    order-check returns."""
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 4)
    before = threading.active_count()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["order-check", "--n", "7", "--seed", "1", "--gamma=-2"]) == 0
    assert threading.active_count() == before


def test_order_counts_memory_is_one_chunk_per_thread(monkeypatch):
    """200000 triples take about 1.6M draws. Drawn in batches of up to 2**20
    triples on one stream they peaked at 96 MB; one CHUNK_SIZE chunk of
    triples and its scores take about 8 MB per thread."""
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 2)
    peak = traced_peak(lambda: order_preservation_counts(CriterionParams(gamma=-2.0, kappa=64), 200_000, 1))
    assert peak < 40e6


ALL_IDS = list(CriterionId)


@settings(max_examples=40, deadline=None)
@given(
    cids=st.lists(st.sampled_from(ALL_IDS), min_size=1, max_size=8),
    direction=st.sampled_from(list(ShiftDirection)),
    omega=st.floats(0.5, 256.0),
    ratio=st.floats(0.25, 4.0),
    sigma=st.floats(0.5, 64.0),
    seed=st.integers(0, 2**32),
)
@example(cids=ALL_IDS + ALL_IDS[::-1], direction=ShiftDirection.HORIZONTAL, omega=8.0, ratio=2.5, sigma=6.0, seed=1)
@example(cids=ALL_IDS + ALL_IDS[::-1], direction=ShiftDirection.DIAGONAL, omega=8.0, ratio=0.5, sigma=6.0, seed=1)
def test_simulate_criteria_bit_equal_to_criterion_on_shifts(cids, direction, omega, ratio, sigma, seed):
    model = ShiftModel(direction, sigma_base=sigma, size_ratio=ratio)
    params = CriterionParams(gamma=-2.0, kappa=16.0)
    samples = list(simulate_criteria(cids, omega, model, 300, seed, params))
    shifts = sample_shifts(omega, model, 300, seed)
    dy = shifts if direction is ShiftDirection.DIAGONAL else 0.0
    assert len(samples) == len(cids)
    for cid, got in zip(cids, samples):
        assert got.tobytes() == criterion_on_shifts(cid, omega, shifts, dy, ratio, params).tobytes()


@pytest.mark.parametrize("argv, draws", [
    (["moments", "--id", "iou,giou,siou,gsiou", "--omega", "8,32,128", "--sigma", "8", "--n", "1000",
      "--seed", "1"], 3),
    (["theory", "--id", "iou,giou,siou,gsiou", "--omega", "16,64", "--sigma", "8", "--check-mc",
      "--n", "1000", "--seed", "1"], 2),
])
def test_one_shift_draw_per_omega(monkeypatch, argv, draws):
    """One pass of the chunk driver per omega serves every criterion, and with
    n below CHUNK_SIZE that pass is one chunk with one `areas` call."""
    passes, area_calls = [], []
    real_map, real_areas = stats._map_chunks, stats.areas

    def counting_map(fn, n, seed, n_threads=None):
        passes.append(n)
        return real_map(fn, n, seed, n_threads)

    def counting_areas(*args, **kwargs):
        area_calls.append(1)
        return real_areas(*args, **kwargs)

    monkeypatch.setattr(stats, "_map_chunks", counting_map)
    monkeypatch.setattr(stats, "areas", counting_areas)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert passes == [1000] * draws
    assert len(area_calls) == draws


# --- the streamed reductions: per-chunk moments and counts, merged in chunk order


@st.composite
def chunked(draw, n_parts):
    """Random partition of a non-empty float array into n_parts non-empty chunks."""
    values = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n_parts, max_size=400)))
    cuts = sorted(draw(st.lists(st.integers(1, values.size - 1), min_size=n_parts - 1,
                                max_size=n_parts - 1, unique=True))) if n_parts > 1 else []
    return np.split(values, cuts)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merged_summary_of_one_chunk_is_summarize(data):
    values = np.asarray(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=400)))
    merged = stats._merged_summary([stats._moments(values)], 3.0)
    assert merged == summarize(values, omega=3.0)
    assert merged.mean == float(np.mean(values))
    assert merged.std_dev == float(np.std(values, ddof=1))


def exact_mean_and_std(values):
    """The exact mean of values, and their unbiased standard deviation to
    within 2**-1200, both as Fractions."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    bits = 1200
    return mean, Fraction(math.isqrt(var.numerator * 4**bits // var.denominator), 2**bits)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(chunked))
@example([np.array([2.140455361198828e-156]), np.array([0.0, 0.0, 0.0])])
def test_merged_summary_of_chunks_matches_the_concatenation(parts):
    values = np.concatenate(parts)
    merged = stats._merged_summary([stats._moments(p) for p in parts], 0.0)
    assert merged.n_samples == values.size
    mean, std = exact_mean_and_std(values.tolist())
    scale = float(np.max(np.abs(values)))
    # the mean and the standard deviation of values in [-1, 1], to a few ulps of their scale. Squared
    # deviations below 2**-1022 are subnormal: each rounds to a multiple of 2**-1074, which can put about
    # n * 2**-1074 into the variance, and so at most the square root of that into the standard deviation
    subnormal_squares = math.sqrt(values.size * 2.0**-1074)
    assert abs(Fraction(merged.mean) - mean) <= 8 * np.spacing(scale)
    assert abs(Fraction(merged.std_dev) - std) <= 8 * np.spacing(max(scale, merged.std_dev)) + subnormal_squares


def test_merged_summary_needs_two_samples():
    with pytest.raises(InsufficientSamples, match="need at least 2 samples, got 1"):
        stats._merged_summary([stats._moments(np.array([0.5]))], 0.0)


HISTOGRAM_CASES = [
    (CriterionId.GSIOU, ShiftDirection.HORIZONTAL, 16.0, 6.0, 12),
    (CriterionId.IOU, ShiftDirection.DIAGONAL, 8.0, 4.0, 64),
    (CriterionId.NWD, ShiftDirection.HORIZONTAL, 32.0, 8.0, 7),
]


@pytest.mark.parametrize("cid, direction, omega, sigma, bins", HISTOGRAM_CASES)
def test_streamed_histogram_counts_equal_the_whole_draw(cid, direction, omega, sigma, bins):
    """Per-chunk counts on fixed edges add up to np.histogram of every sample,
    so the density equals `empirical_pdf` of the concatenated draw bit for bit."""
    model = ShiftModel(direction, sigma_base=sigma)
    n = 3 * CHUNK_SIZE + 17
    samples = simulate_criterion(cid, omega, model, n, 5)
    counts, edges = np.histogram(samples, bins=bins, range=value_range(cid))
    streamed = stats.simulate_histogram(cid, omega, model, n, 5, bins=bins)
    density = [d for _, d in streamed]
    assert [round(d * n * float(w)) for d, w in zip(density, np.diff(edges))] == counts.tolist()
    assert streamed == empirical_pdf(samples, PdfMethod.HISTOGRAM, bounds=value_range(cid), bins=bins)


def test_streamed_histogram_needs_ten_samples():
    with pytest.raises(InsufficientSamples, match="need at least 10 samples, got 9"):
        stats.simulate_histogram(CriterionId.IOU, 16.0, ShiftModel(), 9, 1)


def test_streamed_reductions_do_not_depend_on_the_thread_count(monkeypatch):
    """Chunk results come back in chunk order and merge left to right, for
    serial runs and for a (stand-in) pool of 4 workers alike."""
    monkeypatch.setattr(stats, "ThreadPoolExecutor", SerialPool)
    model = ShiftModel(ShiftDirection.DIAGONAL, sigma_base=8.0)
    n = 5 * CHUNK_SIZE + 3
    cids = [CriterionId.IOU, CriterionId.GSIOU, CriterionId.NWD]
    runs = {}
    for cpus in (1, 4):
        monkeypatch.setattr(stats, "_usable_cpus", lambda: cpus)
        SerialPool.requested = []
        runs[cpus] = (
            stats.summarize_criteria(cids, 16.0, model, n, 9, orders=(1, 2)),
            stats.simulate_histogram(CriterionId.GSIOU, 16.0, model, n, 9, bins=32),
        )
        assert SerialPool.requested == ([] if cpus == 1 else [4, 4])
    assert runs[1] == runs[4]


def test_summarize_criteria_merges_per_chunk_moments():
    """Orders 1 and 2 are the summaries of the values and of their squares, to
    a few ulps of the whole-draw reduction."""
    model = ShiftModel(sigma_base=8.0)
    n = 3 * CHUNK_SIZE + 5
    cids = [CriterionId.SIOU, CriterionId.GIOU]
    streamed = stats.summarize_criteria(cids, 16.0, model, n, 2, orders=(1, 2))
    for cid, (first, second) in zip(cids, streamed):
        values = simulate_criterion(cid, 16.0, model, n, 2)
        for got, want in ((first, summarize(values, 16.0)), (second, summarize(values * values, 16.0))):
            assert got.n_samples == want.n_samples == n
            assert got.mean == pytest.approx(want.mean, rel=1e-14, abs=1e-15)
            assert got.std_dev == pytest.approx(want.std_dev, rel=1e-12)


def test_summarize_criteria_rejects_an_order_above_two():
    with pytest.raises(ValueError, match=r"^order out of range: must be an integer in \[1, 2\], got 3$"):
        stats.summarize_criteria([CriterionId.IOU], 16.0, ShiftModel(), 100, 1, orders=(1, 3))


@pytest.mark.parametrize("pooled", [False, True])
def test_moment_curves_memory_does_not_grow_with_n(monkeypatch, pooled):
    """The serial path and the pool path (run by the stand-in, so the peak does
    not depend on how real threads happen to overlap)."""
    monkeypatch.setattr(stats, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 2 if pooled else 1)
    model = ShiftModel(sigma_base=8.0)
    cids = [CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU, CriterionId.GSIOU]

    def peak(n):
        return traced_peak(lambda: moment_curves(cids, [8.0, 32.0], model, n, 1))

    assert peak(16 * CHUNK_SIZE) <= 1.5 * peak(4 * CHUNK_SIZE)
