"""Command-line interface.

Subcommands: criterion, shift-curve, simulate, moments, theory, eval, rating,
order-check. Every stochastic subcommand takes an explicit --seed and is
byte-reproducible. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical-convergence error.

Parameter precedence: command-line flags > config file (key=value lines,
via --config) > built-in defaults (gamma=0.2, kappa=64, alpha=3, C=32,
threshold=0.5). SCALEIOU_THREADS sets the simulation thread count (1 forces
serial execution; parallel output is identical by construction).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Optional, Sequence

from . import stats, theory
from .criteria import POSITIVE, CriterionId, CriterionParams, DEFAULT_PARAMS, check_range, evaluate, value_range
from .errors import ParseError, QuadratureNonConvergence, ScaleIoUError
from .evaluation import EvalConfig, map_report
from .geometry import Box, SizeClass
from .io import load_boxes, load_ratings, write_table, write_text
from .rating import criterion_values, group_means, group_records, kendall_tau, one_way_anova, relative_gap
from .stats import PdfMethod, ShiftDirection, ShiftModel

# config-file keys: the criterion parameters and the single eval threshold
_PARAM_NAMES = tuple(f.name for f in fields(CriterionParams))
_CONFIG_KEYS = (*_PARAM_NAMES, "threshold")

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


def _parse_corner_box(text: str) -> Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"box must be x_min,y_min,w,h, got {text!r}")
    try:
        return Box.from_corner(*(float(v) for v in parts))
    except ValueError as exc:
        raise ValueError(f"invalid box {text!r}: {exc}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ValueError(f"invalid number list {text!r}") from exc


def _criterion_id(text: str) -> CriterionId:
    for cid in CriterionId:
        if cid.value == text.lower():
            return cid
    raise ValueError(f"unknown criterion {text!r}; choose from "
                     + ", ".join(c.value for c in CriterionId))


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path}: not UTF-8: {exc}") from exc
    values = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {line_no}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"{path}: line {line_no}: unknown key {key!r}")
        try:
            values[key] = float(raw.strip())
        except ValueError as exc:
            raise ParseError(f"{path}: line {line_no}: invalid value {raw!r}") from exc
    return values


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


def _n_threads() -> int:
    raw = os.environ.get("SCALEIOU_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SCALEIOU_THREADS must be an integer, got {raw!r}")
    return check_range("SCALEIOU_THREADS", n, 1)


def _add_common(sub, seed_required=False):
    sub.add_argument("--config", help="optional key=value config file")
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--kappa", type=float, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--nwd-constant", dest="nwd_constant", type=float, default=None)
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if seed_required:
        sub.add_argument("--seed", type=int, required=True)


def build_parser() -> _Parser:
    parser = _Parser(prog="scaleiou", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("criterion", help="evaluate one criterion on a box pair")
    sub.add_argument("--a", required=True, help="corner-form box x_min,y_min,w,h")
    sub.add_argument("--b", required=True, help="corner-form box x_min,y_min,w,h")
    sub.add_argument("--id", required=True, help="criterion id")
    _add_common(sub)

    sub = subs.add_parser("shift-curve", help="deterministic shift-response curve")
    sub.add_argument("--id", required=True)
    sub.add_argument("--omega", required=True, help="comma list of box widths")
    sub.add_argument("--max-shift", type=float, required=True)
    sub.add_argument("--steps", type=int, default=81)
    sub.add_argument("--direction", choices=("horizontal", "diagonal"), default="horizontal")
    sub.add_argument("--size-ratio", type=float, default=1.0)
    _add_common(sub)

    sub = subs.add_parser("simulate", help="Monte Carlo criterion distribution at one omega")
    sub.add_argument("--id", required=True)
    sub.add_argument("--omega", type=float, required=True)
    sub.add_argument("--sigma", type=float, required=True)
    sub.add_argument("--sigma-slope", type=float, default=0.0)
    sub.add_argument("--direction", choices=("horizontal", "diagonal"), default="horizontal")
    sub.add_argument("--size-ratio", type=float, default=1.0)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--pdf", choices=("histogram", "kde"), default=None)
    sub.add_argument("--bins", type=int, default=64)
    _add_common(sub, seed_required=True)

    sub = subs.add_parser("moments", help="Monte Carlo moment curve over an omega grid")
    sub.add_argument("--id", required=True, help="comma list of criterion ids")
    sub.add_argument("--omega", required=True, help="comma list of box widths")
    sub.add_argument("--sigma", type=float, required=True)
    sub.add_argument("--sigma-slope", type=float, default=0.0)
    sub.add_argument("--direction", choices=("horizontal", "diagonal"), default="horizontal")
    sub.add_argument("--size-ratio", type=float, default=1.0)
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub, seed_required=True)

    sub = subs.add_parser("theory", help="quadrature moments and MC consistency report")
    sub.add_argument("--id", required=True, help="comma list of iou,giou,siou,gsiou")
    sub.add_argument("--omega", required=True, help="comma list of box widths")
    sub.add_argument("--sigma", type=float, required=True)
    sub.add_argument("--check-mc", action="store_true", help="add Monte Carlo z-scores")
    sub.add_argument("--n", type=int, default=1_000_000)
    sub.add_argument("--seed", type=int, default=None)
    _add_common(sub)

    sub = subs.add_parser("eval", help="criterion-thresholded mAP report")
    sub.add_argument("--boxes", required=True, help="detection/ground-truth JSON file")
    sub.add_argument("--id", default="iou")
    sub.add_argument("--thresholds", default=None, help="comma list in (0, 1]")
    sub.add_argument("--size", choices=("all", "small", "medium", "large"), default="all")
    _add_common(sub)

    sub = subs.add_parser("rating", help="rating-data statistics")
    sub.add_argument("--ratings", required=True, help="rating CSV file")
    sub.add_argument("--id", default="iou")
    sub.add_argument(
        "--analysis",
        choices=("correlation", "groups", "gaps", "anova"),
        default="correlation",
    )
    sub.add_argument("--grouping", choices=("size", "context", "expertise", "age"), default="size")
    _add_common(sub)

    sub = subs.add_parser("order-check", help="order-preservation rate over random triples")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub, seed_required=True)

    return parser


def _cmd_criterion(args, params, config):
    value = evaluate(_criterion_id(args.id), _parse_corner_box(args.a), _parse_corner_box(args.b), params)
    return f"{value:.6f}\n"


def _cmd_shift_curve(args, params, config):
    cid = _criterion_id(args.id)
    direction = ShiftDirection(args.direction)
    check_range("--steps", args.steps, 2, stats.MAX_GRID)
    check_range("--max-shift", args.max_shift, POSITIVE)
    shifts = [args.max_shift * i / (args.steps - 1) for i in range(args.steps)]
    rows = []
    for omega in _parse_floats(args.omega):
        for shift, value in stats.shift_curve(cid, omega, shifts, direction, args.size_ratio, params):
            rows.append({"criterion": cid.value, "omega": omega, "shift": shift, "value": value})
    return rows, ("criterion", "omega", "shift", "value")


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
    if args.pdf == "histogram":  # a usage error before any sample is drawn
        check_range("bins", args.bins, 1, stats.MAX_GRID)
    samples = stats.simulate_criterion(cid, args.omega, model, args.n, args.seed, params, _n_threads())
    summary = stats.summarize(samples, omega=args.omega)
    rows = [
        {
            "criterion": cid.value,
            "omega": summary.omega,
            "sigma": model.sigma(args.omega),
            "n": summary.n_samples,
            "mean": summary.mean,
            "std_dev": summary.std_dev,
            "std_error": summary.std_error,
        }
    ]
    columns = ("criterion", "omega", "sigma", "n", "mean", "std_dev", "std_error")
    if args.pdf is not None:
        pdf = stats.empirical_pdf(samples, PdfMethod(args.pdf), bounds=value_range(cid), bins=args.bins)
        rows = [
            {"criterion": cid.value, "omega": args.omega, "z": z, "density": d}
            for z, d in pdf
        ]
        columns = ("criterion", "omega", "z", "density")
    return rows, columns


def _cmd_moments(args, params, config):
    model = _shift_model(args)
    omegas = _parse_floats(args.omega)
    rows = []
    for raw in args.id.split(","):
        cid = _criterion_id(raw)
        for summary in stats.moment_curve(cid, omegas, model, args.n, args.seed, params, _n_threads()):
            rows.append(
                {
                    "criterion": cid.value,
                    "omega": summary.omega,
                    "mean": summary.mean,
                    "std_dev": summary.std_dev,
                    "std_error": summary.std_error,
                    "n": summary.n_samples,
                }
            )
    return rows, ("criterion", "omega", "mean", "std_dev", "std_error", "n")


def _cmd_theory(args, params, config):
    criteria = [_criterion_id(raw) for raw in args.id.split(",")]
    setups = [theory.TheorySetup(omega, args.sigma, params) for omega in _parse_floats(args.omega)]
    if args.check_mc:
        if args.seed is None:
            raise ValueError("--seed is required with --check-mc")
        rows = theory.moment_consistency_report(
            setups, criteria, n=args.n, seed=args.seed, n_threads=_n_threads()
        )
        columns = ("criterion", "omega", "sigma", "a", "order", "theory", "mc", "std_error", "z_score", "flagged")
    else:
        rows = []
        for setup in setups:
            for cid in criteria:
                for order in (1, 2):
                    rows.append(
                        {
                            "criterion": cid.value,
                            "omega": setup.omega,
                            "sigma": setup.sigma,
                            "a": setup.a,
                            "order": order,
                            "value": theory.theoretical_moment(cid, order, setup),
                        }
                    )
        columns = ("criterion", "omega", "sigma", "a", "order", "value")
    return rows, columns


def _cmd_eval(args, params, config):
    detections, ground_truths = load_boxes(args.boxes)
    eval_config = EvalConfig(
        criterion=_criterion_id(args.id),
        params=params,
        thresholds=tuple(sorted(_resolve_thresholds(args, config))),
        size_filter=None if args.size == "all" else SizeClass(args.size),
    )
    rows = map_report(detections, ground_truths, eval_config)
    for row in rows:
        if row["ap"] is None:
            row["ap"] = ""
    return rows, ("category", "bucket", "threshold", "ap")


def _cmd_rating(args, params, config):
    cid = _criterion_id(args.id)
    table = load_ratings(args.ratings)
    if args.analysis == "correlation":
        tau = kendall_tau(criterion_values(table, cid, params), table.rating)
        rows = [{"criterion": cid.value, "kendall_tau": tau, "n": len(table)}]
        columns = ("criterion", "kendall_tau", "n")
    elif args.analysis == "groups":
        rows = group_means(table, args.grouping, cid, params)
        for row in rows:
            row["criterion"] = cid.value
        columns = ("criterion", "group", "n", "mean_rating", "mean_criterion")
    elif args.analysis == "gaps":
        gaps = relative_gap(table, cid, params)
        rows = [
            {"criterion": cid.value, "size": s.value, "rating": r, "relative_gap": c}
            for (s, r), c in sorted(gaps.items(), key=lambda kv: (kv[0][1], kv[0][0].value))
        ]
        columns = ("criterion", "size", "rating", "relative_gap")
    else:  # anova on ratings grouped by the grouping variable
        groups = group_records(table, args.grouping)
        f_stat, p_value = one_way_anova([table.rating[index] for index in groups.values()])
        rows = [
            {
                "grouping": args.grouping,
                "n_groups": len(groups),
                "f_statistic": f_stat,
                "p_value": p_value,
            }
        ]
        columns = ("grouping", "n_groups", "f_statistic", "p_value")
    return rows, columns


def _cmd_order_check(args, params, config):
    rate = stats.order_preservation_rate(params, args.n, args.seed)
    rows = [
        {
            "gamma": params.gamma,
            "kappa": params.kappa,
            "n_triples": args.n,
            "preservation_rate": rate,
        }
    ]
    return rows, ("gamma", "kappa", "n_triples", "preservation_rate")


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        output = _COMMANDS[args.command](args, _resolve_params(args, config), config)
        if isinstance(output, str):  # criterion's one value, in every --format
            write_text(output, args.out)
        else:
            rows, columns = output
            write_table(rows, args.out, args.format, columns=columns)
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
