import math

import numpy as np
import pytest
from scipy.integrate import quad

import scaleiou.theory as theory_mod
from scaleiou import (
    CriterionId,
    CriterionParams,
    EVALUATION_PRESET,
    LOSS_PRESET,
    PdfMethod,
    QuadratureNonConvergence,
    ShiftModel,
    TheorySetup,
    empirical_pdf,
    giou_pdf,
    moment_consistency_report,
    simulate_criterion,
    theoretical_moment,
)
from scaleiou.cli import main
from scaleiou.criteria import kernel
from tests.conftest import traced_peak

GAMMA0 = CriterionParams(gamma=0.0, kappa=64)
LOSS = CriterionParams(gamma=-3.0, kappa=16)
MOMENT_CRITERIA = (CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU, CriterionId.GSIOU)


def tight_quad_moment(cid, order, setup):
    """E[C(X)^order] by scipy's QUADPACK at an absolute tolerance of 1e-13, on
    the integrand, range and break point theoretical_moment uses, the kernel
    called on one scalar shift at a time."""
    omega, sigma = setup.omega, setup.sigma
    square = (0.0, 0.0, omega, omega)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def integrand(x):
        value = float(kernel(cid, (x, 0.0, omega, omega), square, setup.params))
        return value**order * norm * math.exp(-0.5 * (x / sigma) ** 2)

    if cid in (CriterionId.IOU, CriterionId.SIOU):
        hi, points = min(omega, 12 * sigma), None
    else:
        hi = 12 * sigma
        points = [omega] if omega < hi else None
    value, _ = quad(integrand, 0.0, hi, points=points, epsabs=1e-13, epsrel=0.0, limit=5000)
    return 2.0 * value


class TestGiouPdf:
    @pytest.mark.parametrize("omega,sigma", [(16, 16), (64, 16), (16, 4), (128, 40)])
    def test_normalizes_to_one(self, omega, sigma):
        setup = TheorySetup(omega, sigma)
        total, _ = quad(giou_pdf, -1, 1, args=(setup,), points=[0.0], limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("z", [-1.0, 1.0, -1.5, 2.0])
    def test_rejects_out_of_domain(self, z):
        with pytest.raises(ValueError):
            giou_pdf(z, TheorySetup(16, 16))

    def test_mean_from_pdf_matches_moment(self):
        # Independent route: E[GIoU] as the first moment of the density must
        # equal the quadrature of the shift profile against the Gaussian.
        setup = TheorySetup(16, 16)
        m1_pdf, _ = quad(
            lambda z: z * giou_pdf(z, setup), -1, 1, points=[0.0], limit=400
        )
        assert m1_pdf == pytest.approx(theoretical_moment(CriterionId.GIOU, 1, setup), abs=1e-8)

    def test_matches_monte_carlo_histogram(self):
        setup = TheorySetup(16, 16)
        samples = simulate_criterion(
            CriterionId.GIOU, 16.0, ShiftModel(sigma_base=16.0), 500_000, 7
        )
        pdf = empirical_pdf(samples, PdfMethod.HISTOGRAM, bounds=(-1.0, 1.0), bins=64)
        gap = max(abs(d - giou_pdf(z, setup)) for z, d in pdf)
        assert gap < 0.02

    def test_concentrates_near_one_for_small_noise(self):
        setup = TheorySetup(64, 0.5)
        mass_top, _ = quad(giou_pdf, 0.9, 1 - 1e-12, args=(setup,), limit=400)
        assert mass_top > 0.999


class TestTheoreticalMoment:
    @pytest.mark.parametrize("params", [EVALUATION_PRESET, LOSS_PRESET], ids=["evaluation", "loss"])
    def test_matches_trapezoid_oracle(self, params):
        # Dense trapezoid integration of the closed-form profiles, written
        # here, as an independent numerical route.
        omega = sigma = 16
        setup = TheorySetup(omega, sigma, params)
        xs = np.linspace(0, 12 * sigma, 400_001)
        g = (omega - xs) / (omega + xs)
        p = 1 - params.gamma * math.exp(-omega / params.kappa)
        profiles = {
            CriterionId.IOU: np.maximum(0.0, g),
            CriterionId.GIOU: g,
            CriterionId.SIOU: np.maximum(0.0, g) ** p,
            CriterionId.GSIOU: np.sign(g) * np.abs(g) ** p,
        }
        dens = np.exp(-0.5 * (xs / sigma) ** 2) / (math.sqrt(2 * math.pi) * sigma)
        for cid, prof in profiles.items():
            for order in (1, 2):
                oracle = 2 * np.trapezoid(prof**order * dens, xs)
                assert theoretical_moment(cid, order, setup) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("params", [EVALUATION_PRESET, LOSS_PRESET], ids=["evaluation", "loss"])
    @pytest.mark.parametrize("cid", MOMENT_CRITERIA, ids=lambda c: c.value)
    def test_matches_tight_scipy_quadrature(self, cid, params):
        for omega in (4, 16, 64, 256):
            for sigma in (2, 8, 32):
                setup = TheorySetup(omega, sigma, params)
                for order in (1, 2):
                    oracle = tight_quad_moment(cid, order, setup)
                    assert abs(theoretical_moment(cid, order, setup) - oracle) <= 2 * theory_mod.QUAD_ABS_TOL

    @pytest.mark.parametrize("cid,omega,sigma,order", [
        (CriterionId.SIOU, 1, 0.5, 1), (CriterionId.GSIOU, 2, 4, 2), (CriterionId.GSIOU, 4, 128, 1),
    ])
    def test_converges_at_a_steep_singularity(self, monkeypatch, cid, omega, sigma, order):
        """With gamma = 0.9 the exponent p of 1- to 4-wide squares is 0.2 to 0.45,
        so the integrand has a steep (omega - x)**p cusp at x = omega. Rounding
        noise there keeps tiny intervals above their share of the tolerance;
        the partition is still accepted on its summed error estimate. An interval
        too narrow to bisect is accepted as it stands, so the rounds stay near
        the 61 halvings that take [4, 1536] down to one ulp of 4."""
        rounds = []
        kronrod15 = theory_mod._kronrod15
        monkeypatch.setattr(theory_mod, "_kronrod15", lambda f, a, b: rounds.append(a.size) or kronrod15(f, a, b))
        setup = TheorySetup(omega, sigma, CriterionParams(gamma=0.9, kappa=8))
        oracle = tight_quad_moment(cid, order, setup)
        assert abs(theoretical_moment(cid, order, setup) - oracle) <= 2 * theory_mod.QUAD_ABS_TOL
        assert len(rounds) <= 70

    def test_no_noise_limit_is_one(self):
        setup = TheorySetup(64, 0.01)
        for cid in (CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU):
            assert theoretical_moment(cid, 1, setup) == pytest.approx(1.0, abs=1e-3)

    def test_gamma_zero_collapses_to_iou(self):
        for omega, sigma in [(16, 16), (64, 16)]:
            setup = TheorySetup(omega, sigma, GAMMA0)
            for order in (1, 2):
                assert theoretical_moment(CriterionId.SIOU, order, setup) == pytest.approx(
                    theoretical_moment(CriterionId.IOU, order, setup), abs=1e-8
                )
                assert theoretical_moment(CriterionId.GSIOU, order, setup) == pytest.approx(
                    theoretical_moment(CriterionId.GIOU, order, setup), abs=1e-8
                )

    def test_iou_giou_depend_only_on_noise_ratio(self):
        for cid in (CriterionId.IOU, CriterionId.GIOU):
            m_small = theoretical_moment(cid, 1, TheorySetup(16, 16))
            m_large = theoretical_moment(cid, 1, TheorySetup(32, 32))
            assert m_small == pytest.approx(m_large, abs=1e-8)

    def test_siou_breaks_noise_ratio_coupling(self):
        m_small = theoretical_moment(CriterionId.SIOU, 1, TheorySetup(16, 16, LOSS))
        m_large = theoretical_moment(CriterionId.SIOU, 1, TheorySetup(32, 32, LOSS))
        assert abs(m_small - m_large) > 1e-4

    def test_mean_decreases_with_noise(self):
        means = [
            theoretical_moment(CriterionId.IOU, 1, TheorySetup(32, s))
            for s in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            theoretical_moment(CriterionId.IOU, 3, TheorySetup(16, 16))

    def test_rejects_unsupported_criterion(self):
        with pytest.raises(ValueError):
            theoretical_moment(CriterionId.NWD, 1, TheorySetup(16, 16))


class TestQuadrature:
    def test_smooth_and_endpoint_singular_integrals(self):
        assert theory_mod._quad(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=theory_mod.QUAD_ABS_TOL)
        assert theory_mod._quad(np.sqrt, 0.0, 1.0) == pytest.approx(2 / 3, abs=theory_mod.QUAD_ABS_TOL)
        kink = theory_mod._quad(lambda x: np.abs(x - 0.3), 0.0, 1.0, points=(0.3,))
        assert kink == pytest.approx(0.29, abs=theory_mod.QUAD_ABS_TOL)

    def test_one_call_per_round_on_every_open_interval(self):
        """Each round evaluates the 15 nodes of every open interval in one call:
        the first round sees the two intervals around the break point, and each
        later one the halves of the intervals bisected before it."""
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.sqrt(np.abs(x - 0.3))

        theory_mod._quad(f, 0.0, 1.0, points=(0.3,))
        assert shapes[0] == (2, 15)
        assert len(shapes) > 1
        assert all(len(shape) == 2 and shape[0] % 2 == 0 and shape[1] == 15 for shape in shapes)

    def test_interval_cap_raises(self, monkeypatch):
        monkeypatch.setattr(theory_mod, "QUAD_LIMIT", 1)
        with pytest.raises(QuadratureNonConvergence, match=r"on \[0, 192\] .* error estimate"):
            theoretical_moment(CriterionId.GIOU, 1, TheorySetup(16, 16))

    def test_error_above_the_largest_accepted_raises(self, monkeypatch):
        monkeypatch.setattr(theory_mod, "QUAD_MAX_ERROR", 0.0)
        with pytest.raises(QuadratureNonConvergence, match=r"error estimate .* above tolerance on \[0, 16\]"):
            theoretical_moment(CriterionId.IOU, 1, TheorySetup(16, 16))

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureNonConvergence, match="error estimate nan"):
            theory_mod._quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_cli_exits_with_the_numerical_error_code(self, monkeypatch, capsys):
        monkeypatch.setattr(theory_mod, "QUAD_LIMIT", 1)
        assert main(["theory", "--id", "siou", "--omega", "16", "--sigma", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: quadrature on [0, 16]")


class TestConsistencyReport:
    def test_unflagged_on_consistent_pairs(self):
        rows = moment_consistency_report(
            [TheorySetup(16, 16)], criteria=[CriterionId.IOU, CriterionId.GIOU],
            n=200_000, seed=3,
        )
        assert len(rows) == 4
        for row in rows:
            assert abs(row["z_score"]) <= 4
            assert not row["flagged"]
            assert row["mc"] == pytest.approx(row["theory"], abs=5 * row["std_error"])

    def test_flags_injected_bias(self, monkeypatch):
        original = theory_mod.theoretical_moment
        monkeypatch.setattr(
            theory_mod, "theoretical_moment",
            lambda cid, order, setup: original(cid, order, setup) + 0.05,
        )
        rows = moment_consistency_report(
            [TheorySetup(16, 16)], criteria=[CriterionId.IOU], n=100_000, seed=3
        )
        assert all(row["flagged"] for row in rows)

    def test_empty_grid(self):
        assert moment_consistency_report([]) == []

    def test_each_omega_draws_its_own_shifts(self, monkeypatch):
        """Setup i draws from the sub-seed derive_seed(seed, i), as `moments`
        does per omega, so two omegas of one report score different shifts."""
        from scaleiou.stats import derive_seed, summarize_criteria

        seeds = []

        def recording(cids, omega, model, n, seed, *args, **kwargs):
            seeds.append(seed)
            return summarize_criteria(cids, omega, model, n, seed, *args, **kwargs)

        monkeypatch.setattr(theory_mod, "summarize_criteria", recording)
        moment_consistency_report([TheorySetup(16, 8), TheorySetup(64, 8)], [CriterionId.IOU], n=1000, seed=3)
        assert seeds == [derive_seed(3, 0), derive_seed(3, 1)]
        assert seeds[0] != seeds[1]

    def test_equal_setups_draw_different_samples(self):
        """Rows come per setup, orders 1 and 2: the first setup's are those of
        a report of it alone, and the second, equal setup's differ."""
        setup = TheorySetup(16, 8)
        means = [row["mc"] for row in moment_consistency_report([setup, setup], [CriterionId.IOU], n=5000, seed=3)]
        alone = [row["mc"] for row in moment_consistency_report([setup], [CriterionId.IOU], n=5000, seed=3)]
        assert means[:2] == alone
        assert means[2] != means[0] and means[3] != means[1]

    def test_memory_does_not_grow_with_n(self, monkeypatch):
        """The Monte Carlo side is reduced chunk by chunk: no criterion's samples,
        and no draw, are held whole. The quadrature is stubbed out of the trace, and
        one thread draws, so the peak does not depend on how threads overlap."""
        from scaleiou import stats
        from scaleiou.stats import CHUNK_SIZE

        monkeypatch.setattr(theory_mod, "theoretical_moment", lambda cid, order, setup: 0.5)
        monkeypatch.setattr(stats, "_usable_cpus", lambda: 1)
        criteria = [CriterionId.IOU, CriterionId.GIOU, CriterionId.SIOU, CriterionId.GSIOU]

        def peak(n):
            setups = [TheorySetup(16, 16)]
            return traced_peak(lambda: moment_consistency_report(setups, criteria, n=n, seed=1))

        assert peak(16 * CHUNK_SIZE) <= 1.5 * peak(4 * CHUNK_SIZE)


class TestSetupValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TheorySetup(0, 16)
        with pytest.raises(ValueError):
            TheorySetup(16, -1)

    def test_exponent_property(self):
        setup = TheorySetup(64, 16, CriterionParams(gamma=-3.0, kappa=16))
        assert setup.p == pytest.approx(1 + 3 * math.exp(-4.0), abs=1e-12)
        assert setup.a == pytest.approx(0.25)
