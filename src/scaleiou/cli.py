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
from typing import Optional, Sequence

from . import stats, theory
from .criteria import CriterionId, CriterionParams, evaluate, value_range
from .errors import ParseError, QuadratureNonConvergence, ScaleIoUError
from .evaluation import EvalConfig, map_report
from .geometry import Box, SizeClass
from .io import load_boxes, load_ratings, write_table
from .rating import criterion_rating_correlation, group_means, group_records, one_way_anova, relative_gap
from .stats import PdfMethod, ShiftDirection, ShiftModel

DEFAULTS = {
    "gamma": 0.2,
    "kappa": 64.0,
    "alpha": 3.0,
    "nwd_constant": 32.0,
    "threshold": 0.5,
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_corner_box(text: str) -> Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"box must be x_min,y_min,w,h, got {text!r}")
    try:
        return Box.from_corner(*(float(v) for v in parts))
    except ValueError as exc:
        raise UsageError(f"invalid box {text!r}: {exc}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"invalid number list {text!r}") from exc


def _criterion_id(text: str) -> CriterionId:
    for cid in CriterionId:
        if cid.value == text.lower():
            return cid
    raise UsageError(f"unknown criterion {text!r}; choose from "
                     + ", ".join(c.value for c in CriterionId))


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    values = {}
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
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
        return config.get(name, DEFAULTS[name])

    return CriterionParams(
        gamma=pick("gamma"),
        kappa=pick("kappa"),
        alpha=pick("alpha"),
        nwd_constant=pick("nwd_constant"),
    )


def _resolve_thresholds(args, config: dict) -> tuple[float, ...]:
    raw = getattr(args, "thresholds", None)
    if raw is not None:
        return tuple(_parse_floats(raw))
    return (config.get("threshold", DEFAULTS["threshold"]),)


def _n_threads() -> int:
    raw = os.environ.get("SCALEIOU_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"SCALEIOU_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"SCALEIOU_THREADS must be >= 1, got {n}")
    return n


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


def _cmd_criterion(args, config) -> int:
    params = _resolve_params(args, config)
    value = evaluate(_criterion_id(args.id), _parse_corner_box(args.a), _parse_corner_box(args.b), params)
    print(f"{value:.6f}")
    return EXIT_OK


def _cmd_shift_curve(args, config) -> int:
    params = _resolve_params(args, config)
    cid = _criterion_id(args.id)
    direction = ShiftDirection(args.direction)
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    if args.max_shift <= 0:
        raise UsageError("--max-shift must be positive")
    shifts = [args.max_shift * i / (args.steps - 1) for i in range(args.steps)]
    rows = []
    for omega in _parse_floats(args.omega):
        for shift, value in stats.shift_curve(cid, omega, shifts, direction, args.size_ratio, params):
            rows.append({"criterion": cid.value, "omega": omega, "shift": shift, "value": value})
    write_table(rows, args.out, args.format, columns=("criterion", "omega", "shift", "value"))
    return EXIT_OK


def _shift_model(args) -> ShiftModel:
    return ShiftModel(
        direction=ShiftDirection(args.direction),
        sigma_base=args.sigma,
        sigma_slope=args.sigma_slope,
        size_ratio=args.size_ratio,
    )


def _cmd_simulate(args, config) -> int:
    params = _resolve_params(args, config)
    cid = _criterion_id(args.id)
    model = _shift_model(args)
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
    write_table(rows, args.out, args.format, columns=columns)
    return EXIT_OK


def _cmd_moments(args, config) -> int:
    params = _resolve_params(args, config)
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
    write_table(
        rows, args.out, args.format,
        columns=("criterion", "omega", "mean", "std_dev", "std_error", "n"),
    )
    return EXIT_OK


def _cmd_theory(args, config) -> int:
    params = _resolve_params(args, config)
    criteria = [_criterion_id(raw) for raw in args.id.split(",")]
    setups = [theory.TheorySetup(omega, args.sigma, params) for omega in _parse_floats(args.omega)]
    if args.check_mc:
        if args.seed is None:
            raise UsageError("--seed is required with --check-mc")
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
    write_table(rows, args.out, args.format, columns=columns)
    return EXIT_OK


def _cmd_eval(args, config) -> int:
    params = _resolve_params(args, config)
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
    write_table(rows, args.out, args.format, columns=("category", "bucket", "threshold", "ap"))
    return EXIT_OK


def _cmd_rating(args, config) -> int:
    params = _resolve_params(args, config)
    cid = _criterion_id(args.id)
    records = load_ratings(args.ratings)
    if args.analysis == "correlation":
        tau = criterion_rating_correlation(records, cid, params)
        rows = [{"criterion": cid.value, "kendall_tau": tau, "n": len(records)}]
        columns = ("criterion", "kendall_tau", "n")
    elif args.analysis == "groups":
        rows = group_means(records, args.grouping, cid, params)
        for row in rows:
            row["criterion"] = cid.value
        columns = ("criterion", "group", "n", "mean_rating", "mean_criterion")
    elif args.analysis == "gaps":
        gaps = relative_gap(records, cid, params)
        rows = [
            {"criterion": cid.value, "size": s.value, "rating": r, "relative_gap": c}
            for (s, r), c in sorted(gaps.items(), key=lambda kv: (kv[0][1], kv[0][0].value))
        ]
        columns = ("criterion", "size", "rating", "relative_gap")
    else:  # anova on ratings grouped by the grouping variable
        groups = group_records(records, args.grouping)
        f_stat, p_value = one_way_anova(
            [[records[i].rating for i in index] for index in groups.values()]
        )
        rows = [
            {
                "grouping": args.grouping,
                "n_groups": len(groups),
                "f_statistic": f_stat,
                "p_value": p_value,
            }
        ]
        columns = ("grouping", "n_groups", "f_statistic", "p_value")
    write_table(rows, args.out, args.format, columns=columns)
    return EXIT_OK


def _cmd_order_check(args, config) -> int:
    params = _resolve_params(args, config)
    rate = stats.order_preservation_rate(params, args.n, args.seed)
    rows = [
        {
            "gamma": params.gamma,
            "kappa": params.kappa,
            "n_triples": args.n,
            "preservation_rate": rate,
        }
    ]
    write_table(rows, args.out, args.format,
                columns=("gamma", "kappa", "n_triples", "preservation_rate"))
    return EXIT_OK


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
        return _COMMANDS[args.command](args, _load_config(args.config))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureNonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ScaleIoUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    sys.exit(main())
