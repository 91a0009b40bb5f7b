"""Command-line interface.

Subcommands: criterion, shift-curve, simulate, moments, theory, eval, rating,
order-check. Every stochastic subcommand takes an explicit --seed and is
byte-reproducible. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical-convergence error.

Parameter precedence: command-line flags > config file (key=value lines,
via --config) > built-in defaults (gamma=0.2, kappa=64, alpha=3, C=32,
threshold=0.5). Monte Carlo and order-check draws run on one thread per usable
CPU (limit them with taskset); the output does not depend on the count.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from typing import Optional, Sequence

from . import stats, theory
from .criteria import POSITIVE, CriterionId, CriterionParams, DEFAULT_PARAMS, check_count, check_range, evaluate, value_range
from .errors import QuadratureNonConvergence, ScaleIoUError
from .evaluation import EvalConfig, map_report
from .geometry import SizeClass
from .io import corner_box, load_boxes, load_config, load_ratings, read_number, write_table, write_text
from .rating import criterion_values, group_means, group_records, kendall_tau, one_way_anova, relative_gap
from .stats import PdfMethod, ShiftDirection, ShiftModel

# config-file keys: the criterion parameters and the single eval threshold
_PARAM_NAMES = tuple(f.name for f in fields(CriterionParams))
_CONFIG_KEYS = (*_PARAM_NAMES, "threshold")
_SIOU_PARAMS = ("gamma", "kappa")  # theory and order-check read no other parameter

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):
        # before Python 3.12, argparse turns the option value "--" (--n=--) into []
        if action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def _flag_type(kind: type):
    """The argparse type that reads a flag value with read_number; named as kind,
    so a bad value reads "invalid float value: '1_0'"."""

    def parse(text: str):
        return read_number(text, kind)

    parse.__name__ = kind.__name__
    return parse


_FLOAT, _INT = _flag_type(float), _flag_type(int)


def _parse_floats(text: str) -> list[float]:
    try:
        return [read_number(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValueError(f"invalid number list {text!r}") from exc


def _parse_omegas(text: str) -> list[float]:
    omegas = _parse_floats(text)
    if not omegas:
        raise ValueError("omega grid must be non-empty")
    return omegas


def _criterion_id(text: str) -> CriterionId:
    for cid in CriterionId:
        if cid.value == text.lower():
            return cid
    raise ValueError(f"unknown criterion {text!r}; choose from "
                     + ", ".join(c.value for c in CriterionId))


def _resolve_params(args, config: dict) -> CriterionParams:
    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return config.get(name, getattr(DEFAULT_PARAMS, name))

    return CriterionParams(**{name: pick(name) for name in _PARAM_NAMES})


def _resolve_thresholds(args, config: dict) -> tuple[float, ...]:
    raw = getattr(args, "thresholds", None)
    if raw is not None:
        return tuple(_parse_floats(raw))
    if "threshold" in config:
        return (config["threshold"],)
    return EvalConfig().thresholds


def _add_common(sub, params=_PARAM_NAMES, table=True, seed_required=False):
    sub.add_argument("--config", help="optional key=value config file")
    for name in params:
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=_FLOAT, default=None)
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if seed_required:
        sub.add_argument("--seed", type=_INT, required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="scaleiou", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("criterion", help="evaluate one criterion on a box pair")
    sub.add_argument("--a", required=True, help="corner-form box x_min,y_min,w,h")
    sub.add_argument("--b", required=True, help="corner-form box x_min,y_min,w,h")
    sub.add_argument("--id", required=True, help="criterion id")
    _add_common(sub, table=False)

    sub = subs.add_parser("shift-curve", help="deterministic shift-response curve")
    sub.add_argument("--id", required=True)
    sub.add_argument("--omega", required=True, help="comma list of box widths")
    sub.add_argument("--max-shift", type=_FLOAT, required=True)
    sub.add_argument("--steps", type=_INT, default=81)
    sub.add_argument("--direction", choices=("horizontal", "diagonal"), default="horizontal")
    sub.add_argument("--size-ratio", type=_FLOAT, default=1.0)
    _add_common(sub)

    sub = subs.add_parser("simulate", help="Monte Carlo criterion distribution at one omega")
    sub.add_argument("--id", required=True)
    sub.add_argument("--omega", type=_FLOAT, required=True)
    _add_shift_model(sub)
    sub.add_argument("--n", type=_INT, required=True)
    sub.add_argument("--pdf", choices=("histogram", "kde"), default=None)
    sub.add_argument("--bins", type=_INT, default=64)
    _add_common(sub, seed_required=True)

    sub = subs.add_parser("moments", help="Monte Carlo moment curve over an omega grid")
    sub.add_argument("--id", required=True, help="comma list of criterion ids")
    sub.add_argument("--omega", required=True, help="comma list of box widths")
    _add_shift_model(sub)
    sub.add_argument("--n", type=_INT, required=True)
    _add_common(sub, seed_required=True)

    sub = subs.add_parser("theory", help="quadrature moments and MC consistency report")
    sub.add_argument("--id", required=True, help="comma list of iou,giou,siou,gsiou")
    sub.add_argument("--omega", required=True, help="comma list of box widths")
    sub.add_argument("--sigma", type=_FLOAT, required=True)
    sub.add_argument("--check-mc", action="store_true", help="add Monte Carlo z-scores")
    sub.add_argument("--n", type=_INT, default=1_000_000)
    sub.add_argument("--seed", type=_INT, default=None)
    _add_common(sub, params=_SIOU_PARAMS)

    sub = subs.add_parser("eval", help="criterion-thresholded mAP report")
    sub.add_argument("--boxes", required=True, help="detection/ground-truth JSON file")
    sub.add_argument("--id", default="iou")
    sub.add_argument("--thresholds", default=None, help="comma list in (0, 1]")
    sub.add_argument("--size", choices=("all", "small", "medium", "large"), default="all")
    _add_common(sub)

    sub = subs.add_parser("rating", help="rating-data statistics")
    sub.add_argument("--ratings", required=True, help="rating CSV file")
    sub.add_argument("--id", default="iou", help="criterion id; anova reads neither it nor the parameters")
    sub.add_argument(
        "--analysis",
        choices=("correlation", "groups", "gaps", "anova"),
        default="correlation",
    )
    sub.add_argument("--grouping", choices=("size", "context", "expertise", "age"), default="size",
                     help="groups and anova only")
    _add_common(sub)

    sub = subs.add_parser("order-check", help="order-preservation rate over random triples")
    sub.add_argument("--n", type=_INT, required=True)
    _add_common(sub, params=_SIOU_PARAMS, seed_required=True)

    return parser


def _in_order(rows: Sequence[dict], columns: Sequence[str]) -> list[tuple]:
    """A library function's dict rows as value rows in column order."""
    return [tuple(row[c] for c in columns) for row in rows]


def _cmd_criterion(args, params, config):
    value = evaluate(_criterion_id(args.id), corner_box(args.a.split(",")), corner_box(args.b.split(",")), params)
    return f"{value:.6f}\n"


def _cmd_shift_curve(args, params, config):
    cid = _criterion_id(args.id)
    direction = ShiftDirection(args.direction)
    check_count("--steps", args.steps, 2, stats.MAX_GRID)
    check_range("--max-shift", args.max_shift, POSITIVE)
    shifts = [args.max_shift * i / (args.steps - 1) for i in range(args.steps)]
    rows = [
        (cid.value, omega, shift, value)
        for omega in _parse_omegas(args.omega)
        for shift, value in stats.shift_curve(cid, omega, shifts, direction, args.size_ratio, params)
    ]
    return rows, ("criterion", "omega", "shift", "value")


def _add_shift_model(sub) -> None:
    """The flags that _shift_model reads."""
    sub.add_argument("--sigma", type=_FLOAT, required=True)
    sub.add_argument("--sigma-slope", type=_FLOAT, default=0.0)
    sub.add_argument("--direction", choices=("horizontal", "diagonal"), default="horizontal")
    sub.add_argument("--size-ratio", type=_FLOAT, default=1.0)


def _shift_model(args) -> ShiftModel:
    return ShiftModel(
        direction=ShiftDirection(args.direction),
        sigma_base=args.sigma,
        sigma_slope=args.sigma_slope,
        size_ratio=args.size_ratio,
    )


def _cmd_simulate(args, params, config):
    cid = _criterion_id(args.id)
    model = _shift_model(args)
    if args.pdf is not None:
        if PdfMethod(args.pdf) is PdfMethod.HISTOGRAM:
            pdf = stats.simulate_histogram(cid, args.omega, model, args.n, args.seed, params, args.bins)
        else:  # the KDE is the one Monte Carlo output that keeps every sample
            samples = stats.simulate_criterion(cid, args.omega, model, args.n, args.seed, params)
            pdf = stats.empirical_pdf(samples, PdfMethod.GAUSSIAN_KDE, bounds=value_range(cid))
        return [(cid.value, args.omega, z, d) for z, d in pdf], ("criterion", "omega", "z", "density")
    ((s,),) = stats.summarize_criteria([cid], args.omega, model, args.n, args.seed, params)
    row = (cid.value, s.omega, model.sigma(args.omega), s.n_samples, s.mean, s.std_dev, s.std_error)
    return [row], ("criterion", "omega", "sigma", "n", "mean", "std_dev", "std_error")


def _cmd_moments(args, params, config):
    model = _shift_model(args)
    omegas = _parse_omegas(args.omega)
    criteria = [_criterion_id(raw) for raw in args.id.split(",")]
    curves = stats.moment_curves(criteria, omegas, model, args.n, args.seed, params)
    rows = [
        (cid.value, s.omega, s.mean, s.std_dev, s.std_error, s.n_samples)
        for cid, curve in zip(criteria, curves)
        for s in curve
    ]
    return rows, ("criterion", "omega", "mean", "std_dev", "std_error", "n")


def _cmd_theory(args, params, config):
    criteria = [_criterion_id(raw) for raw in args.id.split(",")]
    setups = [theory.TheorySetup(omega, args.sigma, params) for omega in _parse_omegas(args.omega)]
    if args.check_mc:
        if args.seed is None:
            raise ValueError("--seed is required with --check-mc")
        report = theory.moment_consistency_report(setups, criteria, n=args.n, seed=args.seed)
        columns = ("criterion", "omega", "sigma", "a", "order", "theory", "mc", "std_error", "z_score", "flagged")
        return _in_order(report, columns), columns
    rows = [
        (cid.value, setup.omega, setup.sigma, setup.a, order, theory.theoretical_moment(cid, order, setup))
        for setup in setups
        for cid in criteria
        for order in (1, 2)
    ]
    return rows, ("criterion", "omega", "sigma", "a", "order", "value")


def _cmd_eval(args, params, config):
    detections, ground_truths = load_boxes(args.boxes)
    eval_config = EvalConfig(
        criterion=_criterion_id(args.id),
        params=params,
        thresholds=tuple(sorted(_resolve_thresholds(args, config))),
        size_filter=None if args.size == "all" else SizeClass(args.size),
    )
    columns = ("category", "bucket", "threshold", "ap")
    report = _in_order(map_report(detections, ground_truths, eval_config), columns)
    return [(*cell, "" if ap is None else ap) for *cell, ap in report], columns  # an undefined AP prints empty


def _cmd_rating(args, params, config):
    cid = _criterion_id(args.id)
    table = load_ratings(args.ratings)
    if args.analysis == "correlation":
        tau = kendall_tau(criterion_values(table, cid, params), table.rating)
        return [(cid.value, tau, len(table))], ("criterion", "kendall_tau", "n")
    if args.analysis == "groups":
        columns = ("criterion", "group", "n", "mean_rating", "mean_criterion")
        means = _in_order(group_means(table, args.grouping, cid, params), columns[1:])
        return [(cid.value, *row) for row in means], columns
    if args.analysis == "gaps":
        gaps = sorted(relative_gap(table, cid, params).items(), key=lambda kv: (kv[0][1], kv[0][0].value))
        return [(cid.value, s.value, r, c) for (s, r), c in gaps], ("criterion", "size", "rating", "relative_gap")
    # anova on ratings grouped by the grouping variable
    groups = group_records(table, args.grouping)
    f_stat, p_value = one_way_anova([table.rating[index] for index in groups.values()])
    return [(args.grouping, len(groups), f_stat, p_value)], ("grouping", "n_groups", "f_statistic", "p_value")


def _cmd_order_check(args, params, config):
    rate = stats.order_preservation_rate(params, args.n, args.seed)
    return [(params.gamma, params.kappa, args.n, rate)], ("gamma", "kappa", "n_triples", "preservation_rate")


_COMMANDS = {
    "criterion": _cmd_criterion,
    "shift-curve": _cmd_shift_curve,
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "theory": _cmd_theory,
    "eval": _cmd_eval,
    "rating": _cmd_rating,
    "order-check": _cmd_order_check,
}


@functools.cache
def _parser() -> _Parser:
    """The parser, built on the first call: it keeps no state between parses."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = {} if args.config is None else load_config(args.config, _CONFIG_KEYS)
        output = _COMMANDS[args.command](args, _resolve_params(args, config), config)
        if isinstance(output, str):  # criterion prints one value, not a table
            write_text(output, args.out)
        else:
            rows, columns = output
            write_table(rows, args.out, args.format, columns)
        return EXIT_OK
    except (ValueError, ScaleIoUError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValueError):
            return EXIT_USAGE
        return EXIT_NUMERICAL if isinstance(exc, QuadratureNonConvergence) else EXIT_DATA


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
