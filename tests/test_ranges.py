"""The range rules: every number a model takes is checked by
criteria.check_range, and every integer (a count, a seed, a moment order, a
rating) by criteria.check_count.

A pinned table of inputs that once gave NaN rows, zeros or tracebacks, the
z-score convention of `theory --check-mc`, and a property over the CLI
boundary that feeds all eight subcommands malformed and extreme numbers.
"""

import contextlib
import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleiou.stats as stats
import scaleiou.theory as theory
from scaleiou import (
    Box,
    CriterionId,
    CriterionParams,
    DEFAULT_PARAMS,
    MatchLabel,
    ShiftModel,
    TheorySetup,
    average_precision,
    finite_difference_gradient,
    loss_gradient,
    reweight_gradient_ratio,
    reweight_loss_ratio,
)
from scaleiou.cli import main
from scaleiou.criteria import FLOAT_MAX, POSITIVE, check_range
from scaleiou.stats import MAX_GRID, MAX_SAMPLES, criterion_on_shifts, sample_shifts, shift_curve

NAN, INF = float("nan"), float("inf")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# --- pinned rows: (argv, the parameter the message starts with)

MOMENTS = ["moments", "--id", "siou", "--n", "1000", "--seed", "1"]

CLI_ROWS = [
    (MOMENTS + ["--omega", "8", "--sigma", "nan"], "sigma_base"),
    (MOMENTS + ["--omega", "nan", "--sigma", "4"], "sigma(omega) at omega=nan"),
    (MOMENTS + ["--omega", "8", "--sigma", "4", "--sigma-slope", "nan"], "sigma_slope"),
    (MOMENTS + ["--omega", "8", "--sigma", "4", "--size-ratio", "nan"], "size_ratio"),
    (MOMENTS + ["--omega", "1e300", "--sigma", "4"], "omega"),
    (MOMENTS + ["--omega", "1e-200", "--sigma", "4"], "omega (area)"),
    (["shift-curve", "--id", "siou", "--omega", "8", "--max-shift", "nan", "--steps", "3"], "--max-shift"),
    (["shift-curve", "--id", "siou", "--omega", "inf", "--max-shift", "4", "--steps", "3"], "omega"),
    (["shift-curve", "--id", "giou", "--omega", "1e-200", "--max-shift", "1", "--steps", "2"], "omega (area)"),
    (["shift-curve", "--id", "iou", "--omega", "8", "--max-shift", "4", "--steps", "3",
      "--size-ratio", "inf"], "size_ratio * omega"),
    (["simulate", "--id", "iou", "--omega", "8", "--sigma", "inf", "--n", "100", "--seed", "1"], "sigma_base"),
    (["simulate", "--id", "iou", "--omega", "8", "--sigma", "1", "--sigma-slope", "inf", "--n", "100",
      "--seed", "1"], "sigma_slope"),
    (["theory", "--id", "giou", "--omega", "8", "--sigma", "nan"], "sigma"),
    (["theory", "--id", "iou", "--omega", "inf", "--sigma", "1"], "omega"),
    (["theory", "--id", "siou", "--omega", "1e-200", "--sigma", "1e-200"], "omega (area)"),
    (["theory", "--id", "iou", "--omega", "1e-200", "--sigma", "1e-200"], "omega (area)"),
    (["theory", "--id", "iou", "--omega", "8", "--sigma", "1e300"], "sigma"),
    (["simulate", "--id", "iou", "--omega", "16", "--sigma", "4", "--n", "100", "--seed", "1",
      "--pdf", "histogram", "--bins", "1000000000000"], "bins"),
    (["shift-curve", "--id", "iou", "--omega", "8", "--max-shift", "4", "--steps", "1000000000"], "--steps"),
    (["simulate", "--id", "iou", "--omega", "16", "--sigma", "4", "--n", "1000000000000", "--seed", "1"], "n"),
    (MOMENTS[:3] + ["--omega", "8", "--sigma", "4", "--n", "1000000000000", "--seed", "1"], "n"),
    (["order-check", "--n", "1000000000000", "--seed", "1"], "n_triples"),
    # one past each named count bound, MAX_SAMPLES and MAX_GRID: rejected before anything is allocated
    (["simulate", "--id", "iou", "--omega", "16", "--sigma", "4", "--n", str(MAX_SAMPLES + 1), "--seed", "1"], "n"),
    (MOMENTS[:3] + ["--omega", "8", "--sigma", "4", "--n", str(MAX_SAMPLES + 1), "--seed", "1"], "n"),
    (["theory", "--id", "iou", "--omega", "8", "--sigma", "1", "--check-mc", "--n", str(MAX_SAMPLES + 1),
      "--seed", "1"], "n"),
    (["order-check", "--n", str(MAX_SAMPLES + 1), "--seed", "1"], "n_triples"),
    (["shift-curve", "--id", "iou", "--omega", "8", "--max-shift", "4", "--steps", str(MAX_GRID + 1)], "--steps"),
    (["simulate", "--id", "iou", "--omega", "16", "--sigma", "4", "--n", "100", "--seed", "1",
      "--pdf", "histogram", "--bins", str(MAX_GRID + 1)], "bins"),
    # a negative seed, on every command that takes one
    (["simulate", "--id", "iou", "--omega", "16", "--sigma", "4", "--n", "100", "--seed", "-1"], "seed"),
    (MOMENTS[:5] + ["--omega", "8", "--sigma", "4", "--seed", "-1"], "seed"),
    (["theory", "--id", "iou", "--omega", "8", "--sigma", "1", "--check-mc", "--n", "100", "--seed", "-1"], "seed"),
    (["order-check", "--n", "10", "--seed", "-1"], "seed"),
]


@pytest.mark.parametrize("argv, name", CLI_ROWS, ids=[" ".join(a) for a, _ in CLI_ROWS])
def test_out_of_range_cli_input_is_a_usage_error(argv, name):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {name} out of range")


# --- pinned rows: (argv, stdout) of runs at a tiny kappa, where s / (sqrt(2) kappa)
# overflows to inf; exp(-inf) = 0 is the exact kappa -> 0 limit, p = 1, and the
# run writes nothing to stderr

TINY_KAPPA_ROWS = [
    (["criterion", "--id", "siou", "--a", "0,0,4,4", "--b", "1,0,4,4", "--kappa", "1e-308"], "0.600000\n"),
    (["order-check", "--n", "1000", "--seed", "0", "--kappa", "1e-308"],
     "gamma,kappa,n_triples,preservation_rate\n0.2,1e-308,1000,1\n"),
    (MOMENTS + ["--omega", "1e140", "--sigma", "1", "--kappa", "1e-300"],
     "criterion,omega,mean,std_dev,std_error,n\nsiou,1e+140,1,0,0,1000\n"),
    (["simulate", "--id", "siou", "--omega", "1e140", "--sigma", "1", "--n", "1000", "--seed", "1",
      "--kappa", "1e-300"], "criterion,omega,sigma,n,mean,std_dev,std_error\nsiou,1e+140,1,1000,1,0,0\n"),
    (["theory", "--id", "siou", "--omega", "1e140", "--sigma", "1", "--kappa", "1e-300"],
     "criterion,omega,sigma,a,order,value\nsiou,1e+140,1,1e-140,1,1\nsiou,1e+140,1,1e-140,2,1\n"),
    (["shift-curve", "--id", "siou", "--omega", "1e140", "--max-shift", "1", "--steps", "2", "--kappa", "1e-300"],
     "criterion,omega,shift,value\nsiou,1e+140,0,1\nsiou,1e+140,1,1\n"),
]


@pytest.mark.parametrize("argv, want", TINY_KAPPA_ROWS, ids=[" ".join(a) for a, _ in TINY_KAPPA_ROWS])
def test_a_tiny_kappa_takes_the_exact_limit_quietly(argv, want):
    assert run_cli(argv) == (0, want, "")


def test_loss_gradient_at_a_tiny_kappa_is_the_limit_gradient():
    """(1 - p) / (sqrt(2) kappa) is 0 once p rounds to 1, so the gradient is
    the one of every kappa small enough, not NaN."""
    b1, b2 = Box(0.5, 0.3, 4, 4), Box(1, 0, 4.2, 4)
    tiny, small = (loss_gradient(CriterionId.SIOU, b1, b2, CriterionParams(kappa=k)) for k in (1e-308, 1e-300))
    assert tiny == small
    assert all(np.isfinite([tiny.d_x, tiny.d_y, tiny.d_w, tiny.d_h]))


LIBRARY_ROWS = [
    (lambda: reweight_loss_ratio(0.5, NAN), "p"),
    (lambda: reweight_gradient_ratio(0.5, NAN), "p"),
    (lambda: reweight_loss_ratio(NAN, 2.0), "iou_value"),
    (lambda: TheorySetup(8, NAN), "sigma"),
    (lambda: TheorySetup(NAN, 1.0), "omega"),
    (lambda: ShiftModel(sigma_base=NAN), "sigma_base"),
    (lambda: ShiftModel(sigma_slope=INF), "sigma_slope"),
    (lambda: ShiftModel(size_ratio=NAN), "size_ratio"),
    (lambda: sample_shifts(1e200, ShiftModel(sigma_slope=1e200), 10, seed=1), "sigma(omega) at omega=1e+200"),
    (lambda: criterion_on_shifts(CriterionId.IOU, NAN, np.zeros(2), np.zeros(2)), "omega"),
    (lambda: shift_curve(CriterionId.IOU, 8.0, [0.0, NAN]), "shifts"),
    (lambda: shift_curve(CriterionId.IOU, 8.0, [-1.0]), "shifts"),
    (lambda: CriterionParams(gamma=NAN), "gamma"),
    (lambda: CriterionParams(kappa=0.0), "kappa"),
    (lambda: Box(0, 0, 1, 1).scaled(NAN), "scale factor"),
    (lambda: Box(0, NAN, 1, 1), "box field 'y'"),
    (lambda: finite_difference_gradient(CriterionId.IOU, Box(0, 0, 4, 4), Box(1, 0, 4, 4),
                                        DEFAULT_PARAMS, step=NAN), "step"),
    (lambda: Box(0, 0, 1e-200, 1e-200), "box size (area)"),
    (lambda: Box(0, 0, INF, 1), "box size"),
    (lambda: sample_shifts(8.0, ShiftModel(), 10, seed=-1), "seed"),
    (lambda: stats.derive_seed(-1, 0), "seed"),
    (lambda: stats.moment_curve(CriterionId.IOU, [8.0], ShiftModel(), 10, seed=-1), "seed"),
    (lambda: stats.order_preservation_counts(DEFAULT_PARAMS, 10, seed=-1), "seed"),
    # a seed is an integer, as numpy's SeedSequence requires
    (lambda: sample_shifts(8.0, ShiftModel(), 10, seed=1.5), "seed"),
    (lambda: stats.derive_seed(INF, 0), "seed"),
    (lambda: stats.order_preservation_counts(DEFAULT_PARAMS, 10, NAN), "seed"),
]


@pytest.mark.parametrize("call, name", LIBRARY_ROWS, ids=[n for _, n in LIBRARY_ROWS])
def test_out_of_range_library_input_raises_value_error(call, name):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name} out of range")


# the library entry points of each integer rule, as (call with the integer, its name,
# its bounds lo and hi, a value in them)
COUNT_ENTRY_POINTS = [
    (lambda n: sample_shifts(8.0, ShiftModel(), n, 1), "n", 1, MAX_SAMPLES, 20),
    (lambda n: stats.simulate_criterion(CriterionId.SIOU, 16.0, ShiftModel(), n, 1), "n", 1, MAX_SAMPLES, 20),
    (lambda n: stats.moment_curve(CriterionId.IOU, [8.0], ShiftModel(), n, 1), "n", 1, MAX_SAMPLES, 20),
    (lambda n: theory.moment_consistency_report([TheorySetup(16, 8)], [CriterionId.IOU], n=n, seed=1),
     "n", 1, MAX_SAMPLES, 20),
    (lambda n: stats.simulate_histogram(CriterionId.IOU, 16.0, ShiftModel(), n, 1), "n", 1, MAX_SAMPLES, 20),
    (lambda bins: stats.simulate_histogram(CriterionId.IOU, 16.0, ShiftModel(), 100, 1, bins=bins),
     "bins", 1, MAX_GRID, 20),
    (lambda bins: stats.empirical_pdf(np.linspace(0.0, 1.0, 20), bins=bins), "bins", 1, MAX_GRID, 20),
    (lambda n: stats.order_preservation_counts(DEFAULT_PARAMS, n, 1), "n_triples", 1, MAX_SAMPLES, 20),
    (lambda seed: sample_shifts(8.0, ShiftModel(), 20, seed), "seed", 0, INF, 7),
    (lambda seed: stats.summarize_criteria([CriterionId.IOU], 8.0, ShiftModel(), 20, seed), "seed", 0, INF, 7),
    (lambda seed: stats.order_preservation_counts(DEFAULT_PARAMS, 20, seed), "seed", 0, INF, 7),
    (lambda seed: stats.derive_seed(seed, 3), "seed", 0, INF, 7),
    (lambda index: stats.derive_seed(1, index), "index", 0, INF, 7),
    (lambda order: theory.theoretical_moment(CriterionId.GIOU, order, TheorySetup(16, 8)), "order", 1, 2, 2),
    (lambda order: stats.summarize_criteria([CriterionId.IOU], 8.0, ShiftModel(), 20, 1, orders=(1, order)),
     "order", 1, 2, 2),
    (lambda n: average_precision([MatchLabel.TP, MatchLabel.FP, MatchLabel.TP], n), "n_ground_truth", 0, INF, 3),
    (lambda n: stats.summarize_criteria([CriterionId.IOU], 8.0, ShiftModel(), n, 1), "n", 1, MAX_SAMPLES, 20),
    (lambda t: stats.simulate_criteria([CriterionId.IOU, CriterionId.SIOU], 16.0, ShiftModel(), 20, 1, n_threads=t),
     "n_threads", 1, INF, 2),
    (lambda t: stats.simulate_criterion(CriterionId.SIOU, 16.0, ShiftModel(), 20, 1, n_threads=t),
     "n_threads", 1, INF, 2),
    (lambda n: stats.simulate_criteria([CriterionId.IOU, CriterionId.SIOU], 16.0, ShiftModel(), n, 1),
     "n", 1, MAX_SAMPLES, 20),
    (lambda n: stats.moment_curves([CriterionId.IOU], [8.0, 16.0], ShiftModel(), n, 1), "n", 1, MAX_SAMPLES, 20),
    (lambda seed: stats.simulate_criteria([CriterionId.IOU, CriterionId.SIOU], 16.0, ShiftModel(), 20, seed),
     "seed", 0, INF, 7),
    (lambda seed: stats.simulate_criterion(CriterionId.SIOU, 16.0, ShiftModel(), 20, seed), "seed", 0, INF, 7),
    (lambda seed: stats.simulate_histogram(CriterionId.IOU, 16.0, ShiftModel(), 20, seed), "seed", 0, INF, 7),
    (lambda seed: stats.moment_curves([CriterionId.IOU], [8.0, 16.0], ShiftModel(), 20, seed), "seed", 0, INF, 7),
    (lambda seed: stats.moment_curve(CriterionId.IOU, [8.0], ShiftModel(), 20, seed), "seed", 0, INF, 7),
    (lambda seed: theory.moment_consistency_report([TheorySetup(16, 8)], [CriterionId.IOU], n=20, seed=seed),
     "seed", 0, INF, 7),
]
COUNT_IDS = [f"{i}-{entry[1]}" for i, entry in enumerate(COUNT_ENTRY_POINTS)]


@pytest.mark.parametrize("count", [5.0, True, np.float64(5.0), np.bool_(True), 1.0, 2.5], ids=repr)
@pytest.mark.parametrize("call, name, lo, hi, valid", COUNT_ENTRY_POINTS, ids=COUNT_IDS)
def test_a_count_that_is_not_an_integer_is_rejected(call, name, lo, hi, valid, count):
    # a numpy value prints as its Python value: 5.0, not np.float64(5.0)
    message = rf"^{name} out of range: must be an integer in \[{lo}, {hi}\], got {re.escape(str(count))}$"
    with pytest.raises(ValueError, match=message):
        call(count)


@pytest.mark.parametrize("call, name, lo, hi, valid", COUNT_ENTRY_POINTS, ids=COUNT_IDS)
def test_a_numpy_integer_count_equals_the_int(call, name, lo, hi, valid):
    np.testing.assert_equal(call(np.int64(valid)), call(valid))


@pytest.mark.parametrize("seed", [1.5, INF, NAN, -1])
def test_seed_message_asks_for_a_non_negative_integer(seed):
    message = rf"^seed out of range: must be an integer in \[0, inf\], got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        stats.derive_seed(seed, 0)


def test_histogram_bins_are_checked_before_sampling(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("shifts were sampled before --bins was checked")

    monkeypatch.setattr(stats, "_map_chunks", never)
    code, out, err = run_cli(["simulate", "--id", "iou", "--omega", "16", "--sigma", "4", "--n", "100",
                              "--seed", "1", "--pdf", "histogram", "--bins", str(MAX_GRID + 1)])
    assert (code, out) == (1, "")
    assert err.startswith("error: bins out of range")


def test_moment_criteria_are_checked_before_sampling(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("shifts were sampled or moments integrated before the criteria were checked")

    monkeypatch.setattr(stats, "_map_chunks", never)
    monkeypatch.setattr(theory, "theoretical_moment", never)
    with pytest.raises(ValueError, match="^no theoretical moment for criterion 'alpha-iou'$"):
        theory.moment_consistency_report([TheorySetup(16, 16)], [CriterionId.IOU, CriterionId.ALPHA_IOU])
    code, out, err = run_cli(["theory", "--id", "iou,giou,siou,nwd", "--omega", "16,64", "--sigma", "8",
                              "--check-mc", "--n", "5000000", "--seed", "1"])
    assert (code, out, err) == (1, "", "error: no theoretical moment for criterion 'nwd'\n")


def test_every_non_negative_integer_seed_is_accepted():
    for seed in (0, np.int64(7), 2**64, 10**400):
        assert sample_shifts(8.0, ShiftModel(), 2, seed).shape == (2,)
        assert stats.derive_seed(seed, 0) >= 0
        assert stats.order_preservation_counts(DEFAULT_PARAMS, 1, seed).n_triples == 1


def test_moments_criteria_are_parsed_before_sampling(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("shifts were sampled before every criterion id was parsed")

    monkeypatch.setattr(stats, "_map_chunks", never)
    code, out, err = run_cli(["moments", "--id", "iou,bogus", "--omega", "8,32", "--sigma", "8",
                              "--n", "3000000", "--seed", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown criterion 'bogus'")


EMPTY_OMEGA_GRID = [
    ["shift-curve", "--id", "iou", "--omega", ",", "--max-shift", "4"],
    MOMENTS + ["--omega", ",", "--sigma", "4"],
    ["theory", "--id", "iou", "--omega", ",", "--sigma", "4"],
    ["theory", "--id", "iou", "--omega", ",", "--sigma", "nan"],
    ["theory", "--id", "iou", "--omega", ",", "--sigma", "4", "--check-mc", "--n", "100", "--seed", "1"],
]


@pytest.mark.parametrize("argv", EMPTY_OMEGA_GRID, ids=[" ".join(a) for a in EMPTY_OMEGA_GRID])
def test_empty_omega_grid_is_a_usage_error(argv):
    assert run_cli(argv) == (1, "", "error: omega grid must be non-empty\n")


def test_omega_that_is_not_a_number_is_a_usage_error():
    argv = ["moments", "--id", "iou", "--omega", "8,x", "--sigma", "1", "--n", "10", "--seed", "1"]
    assert run_cli(argv) == (1, "", "error: invalid number list '8,x'\n")


def test_check_range_is_a_closed_interval_test():
    assert check_range("v", 1e150) == 1e150
    assert check_range("v", -1e150) == -1e150
    assert check_range("v", 0.0, 0.0) == 0.0
    assert check_range("v", np.int64(3), POSITIVE) == 3
    assert check_range("v", FLOAT_MAX, POSITIVE, FLOAT_MAX) == FLOAT_MAX
    for value, lo in ((NAN, -1.0), (INF, -1.0), (-INF, -1.0), (0.0, POSITIVE), (-0.0, POSITIVE),
                      (2e150, -1.0), ("1", -1.0), (None, -1.0), (np.array([1.0]), -1.0)):
        with pytest.raises(ValueError, match="v out of range"):
            check_range("v", value, lo)


@pytest.mark.parametrize("call, name", [
    (lambda: check_range("v", True, -1.0), "v"),
    (lambda: Box(True, 0, 1, 1), "box field 'x'"),
    (lambda: Box(0, 0, 1, True), "box size"),
    (lambda: CriterionParams(gamma=True), "gamma"),
    (lambda: ShiftModel(sigma_base=True), "sigma_base"),
    (lambda: TheorySetup(16, True), "sigma"),
], ids=["check_range", "box-x", "box-h", "gamma", "sigma_base", "theory-sigma"])
def test_a_boolean_is_not_a_number(call, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} out of range: must be a number in .*, got True$"):
        call()


# --- the z-score of theory --check-mc when every sample is equal


def test_check_mc_z_score_is_zero_on_exact_agreement():
    code, out, _ = run_cli(["theory", "--id", "iou,giou", "--omega", "8", "--sigma", "1e-300",
                            "--check-mc", "--n", "2", "--seed", "1"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    for row in rows:
        assert (row["theory"], row["mc"], row["std_error"]) == ("1", "1", "0")
        assert (row["z_score"], row["flagged"]) == ("0", "False")


def test_check_mc_z_score_is_inf_when_constant_samples_disagree(monkeypatch):
    # every chunk scores 0.5 for each criterion, through the real streamed summary
    monkeypatch.setattr(stats, "_scorer", lambda cids, *args: lambda chunk: (np.full(chunk[1], 0.5) for _ in cids))
    rows = theory.moment_consistency_report([TheorySetup(8, 1e-300)], [CriterionId.IOU], n=4, seed=1)
    assert [(r["std_error"], r["z_score"], r["flagged"]) for r in rows] == [(0.0, INF, True)] * 2


# --- the CLI boundary

MALFORMED = ["", "abc", "1,2", "0x10", "--", "1e", "nan(1)", "٣"]
SPECIAL = ["inf", "-inf", "Infinity", "nan", "NaN", "0", "-0", "-1", "1e300", "-1e300", "1e-300",
           "-1e-300", "1e150", "1.5e-162"]


def numbers():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-1e4, 1e4).map(repr),
        st.sampled_from(SPECIAL + MALFORMED),
    )


def counts():
    """--n, --steps and --bins: at most 1e3, so one example stays cheap."""
    return st.one_of(st.integers(-3, 1000).map(str), st.sampled_from(MALFORMED + ["1e3", "nan"]))


def number_lists():
    return st.lists(numbers(), min_size=1, max_size=3).map(",".join)


def seeds():
    return st.one_of(st.integers(-2, 2**32).map(str), st.sampled_from(MALFORMED))


IDS = [c.value for c in CriterionId]


@st.composite
def flags(draw, spec):
    """argv pieces for a {flag: strategy} spec; each flag is present or not."""
    argv = []
    for flag, strategy in spec.items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(strategy)}")
    return argv


SIOU_PARAMS = {"--gamma": numbers(), "--kappa": numbers()}
PARAMS = {**SIOU_PARAMS, "--alpha": numbers(), "--nwd-constant": numbers()}
FORMAT = {"--format": st.sampled_from(["csv", "json"])}
MODEL = {"--sigma-slope": numbers(), "--size-ratio": numbers(),
         "--direction": st.sampled_from(["horizontal", "diagonal"])}


def json_values():
    floats = st.floats(allow_nan=True, allow_infinity=True)
    return st.one_of(floats, st.sampled_from([0, -1, 1e300, 1e-300, 5, 20]), st.text(max_size=3),
                     st.none(), st.booleans())


def any_json():
    """Any JSON value: a scalar, or an array or object of a few values."""
    def nest(inner):
        return st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3))

    return st.recursive(json_values(), nest, max_leaves=5)


@st.composite
def boxes_json(draw):
    def box():
        return draw(st.one_of(st.lists(json_values(), min_size=4, max_size=4),
                              st.lists(st.one_of(st.sampled_from([0, 1, 10]), st.booleans()), min_size=4, max_size=4),
                              st.just([1.0, 2.0, 10.0, 12.0]), json_values()))

    def section(entries):
        """The entries as an array, one in five of them replaced by any JSON
        value; or, one time in five, any JSON value in place of the array."""
        def other():
            return draw(st.integers(0, 4)) == 0

        return draw(any_json()) if other() else [draw(any_json()) if other() else e for e in entries]

    images = draw(st.sampled_from([["a"], [{"id": "a"}, "b"], [{"file": "x"}], [], [3], [3, "3"], [3.0]]))
    annotations = [{"image_id": draw(st.sampled_from(["a", "b", 3, "3", True])),
                    "category": draw(st.sampled_from(["c", 1])), "bbox": box()}
                   for _ in range(draw(st.integers(0, 3)))]
    detections = [{"image_id": draw(st.sampled_from(["a", 3, [3]])),
                   "category": draw(st.sampled_from(["c", "d", "1", 1.0])), "bbox": box(),
                   "score": draw(st.one_of(st.booleans(), st.just(0.5), json_values()))}
                  for _ in range(draw(st.integers(0, 3)))]
    return json.dumps({"images": section(images), "annotations": section(annotations),
                       "detections": section(detections)})


@st.composite
def ratings_csv(draw):
    header = "rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context,expertise,age"
    cell = st.one_of(numbers(), st.sampled_from(["5", "10", "20"]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        rating = draw(st.one_of(st.integers(0, 6).map(str), numbers()))
        box = [draw(cell) for _ in range(8)]
        extra = [draw(st.sampled_from(["1", "0", "", "yes", "x"])) for _ in range(2)]
        age = draw(st.one_of(st.sampled_from(["", "30", "abc"]), st.integers(-5, 90).map(str)))
        rows.append(",".join([rating, *box, *extra, age]))
    return "\n".join([header, *rows]) + "\n"


def command(name, path):
    """Strategy for one argv of subcommand `name`; files are written to path."""
    ident = st.one_of(st.sampled_from(IDS), st.just("bogus"))
    if name == "criterion":
        corner = st.lists(numbers(), min_size=4, max_size=4).map(",".join)
        return st.tuples(st.just(["criterion"]), flags({"--id": ident, "--a": corner, "--b": corner, **PARAMS}))
    if name == "shift-curve":
        return st.tuples(st.just(["shift-curve", "--steps=3"]),
                         flags({"--id": ident, "--omega": number_lists(), "--max-shift": numbers(),
                                "--steps": counts(), **MODEL, **PARAMS, **FORMAT}))
    if name == "simulate":
        return st.tuples(st.just(["simulate", "--n=100", "--seed=1"]),
                         flags({"--id": ident, "--omega": numbers(), "--sigma": numbers(), "--n": counts(),
                                "--seed": seeds(), "--pdf": st.sampled_from(["histogram", "kde"]),
                                "--bins": counts(), **MODEL, **PARAMS, **FORMAT}))
    if name == "moments":
        return st.tuples(st.just(["moments", "--n=100", "--seed=1"]),
                         flags({"--id": st.lists(ident, min_size=1, max_size=2).map(",".join),
                                "--omega": number_lists(), "--sigma": numbers(), "--n": counts(),
                                "--seed": seeds(), **MODEL, **PARAMS, **FORMAT}))
    if name == "theory":
        theory_ids = st.lists(st.sampled_from(["iou", "giou", "siou", "gsiou"]), min_size=1, max_size=2)
        return st.tuples(st.just(["theory", "--n=100"]),
                         flags({"--id": theory_ids.map(",".join), "--omega": number_lists(),
                                "--sigma": numbers(), "--check-mc": st.just(""), "--n": counts(),
                                "--seed": seeds(), **SIOU_PARAMS, **FORMAT}).map(
                             lambda argv: ["--check-mc" if a == "--check-mc=" else a for a in argv]))
    if name == "eval":
        thresholds = st.lists(numbers(), min_size=1, max_size=3).map(",".join)
        return st.tuples(st.just(["eval", f"--boxes={path}"]),
                         boxes_json().map(lambda text: write(path, text)),
                         flags({"--id": ident, "--thresholds": thresholds,
                                "--size": st.sampled_from(["all", "small", "medium", "large"]),
                                **PARAMS, **FORMAT}))
    if name == "rating":
        return st.tuples(st.just(["rating", f"--ratings={path}"]),
                         ratings_csv().map(lambda text: write(path, text)),
                         flags({"--id": ident,
                                "--analysis": st.sampled_from(["correlation", "groups", "gaps", "anova"]),
                                "--grouping": st.sampled_from(["size", "context", "expertise", "age"]),
                                **PARAMS, **FORMAT}))
    assert name == "order-check"
    return st.tuples(st.just(["order-check", "--n=100", "--seed=1"]),
                     flags({"--n": counts(), "--seed": seeds(), **SIOU_PARAMS, **FORMAT}))


def write(path, text):
    path.write_text(text)
    return []


def mistyped(text):
    """The values of a boxes document that eval reads by the wrong JSON type:
    a boolean in a bbox or a score, an id or category that is not a string
    or an integer, and the text of one that also comes as the other type."""
    doc = json.loads(text)
    entries = doc.get("annotations", []) + doc.get("detections", [])
    numbers = [v for e in entries for v in [*e["bbox"], e.get("score")] if isinstance(v, bool)]
    ids = [i["id"] if isinstance(i, dict) else i for i in doc.get("images", [])] + [e["image_id"] for e in entries]
    categories = [e["category"] for e in entries]
    keys = [v for values in (ids, categories) for v in values
            if type(v) not in (str, int) or type(v) is int and str(v) in values]
    return numbers + keys


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def undocumented_non_finite(argv, out):
    """Non-finite tokens on stdout, leaving out the one documented case: the
    z_score of `theory --check-mc` is inf when every sample is equal and the
    Monte Carlo mean misses the quadrature value."""
    if argv[0] == "theory" and "--check-mc" in argv:
        if "--format=json" in argv:
            rows = json.loads(out)
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            row.pop("z_score")
        out = json.dumps(rows)
    return NON_FINITE.findall(out)


SUBCOMMANDS = ["criterion", "shift-curve", "simulate", "moments", "theory", "eval", "rating", "order-check"]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_cli_boundary(name, tmp_path_factory):
    path = tmp_path_factory.mktemp(name) / "input"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(command(name, path))
    def check(parts):
        argv = [a for part in parts for a in part]
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            assert err == "", (argv, err)
            assert not undocumented_non_finite(argv, out), (argv, out)
            if name == "eval":
                assert not mistyped(path.read_text()), (argv, path.read_text())
        else:
            assert out == ""

    check()
