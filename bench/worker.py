"""One workload in its own process: rounds of operations, their timing, the
checks on their outputs and, with --trace 1, the per-layer figures.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Prints
one JSON object as its last line of standard output.

An operation is the workload's fixed round of commands, run in process
through `scaleiou.cli.main` (and, for pair-score, library calls) with the
output captured in memory. The first round is the warm-up; its output is
checked against the reference computations, and every later round must
reproduce it byte for byte. A round that raises, exits non-zero, or differs
counts as failed; if the warm-up round fails its checks, every round that
reproduces it fails too.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import scaleiou.cli
import scaleiou.criteria
import scaleiou.loss
import scaleiou.stats
from scaleiou.criteria import CriterionId, CriterionParams, LOSS_PRESET
from scaleiou.errors import NonDifferentiablePoint
from scaleiou.geometry import Box

THRESHOLDS = [round(0.5 + 0.05 * i, 2) for i in range(10)]
CRITERIA = ("iou", "giou", "siou", "gsiou")
# CLI defaults, which every command below runs with unless it says otherwise
DEFAULT_GAMMA, DEFAULT_KAPPA = 0.2, 64.0

MC_SIGMA = 8.0
MC_MOMENT_OMEGAS = (8.0, 32.0, 128.0)
MC_MOMENT_N = 1_000_000
MC_THEORY_OMEGAS = (16.0, 64.0)
MC_THEORY_N = 500_000
MC_PDF_OMEGA = 16.0
MC_PDF_N = 1_000_000
MC_PDF_BINS = 64
ORDER_GAMMA = -2.0
ORDER_N = 200_000


class OpFailed(Exception):
    pass


def run_cli(argv: list[str]) -> str:
    """Run one CLI command in process; its standard output, or OpFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = scaleiou.cli.main(argv)
    if code != 0:
        raise OpFailed(f"`scaleiou {' '.join(argv)}` exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ------------------------------------------------------------------ workloads

class EvalCoco:
    """`scaleiou eval --id siou`, thresholds 0.50:0.05:0.95, all four size
    buckets, on the seeded detection file."""

    name = "eval-coco"

    def __init__(self, inputs: dict, seed: int):
        self.boxes = inputs["boxes"]
        self.argv = ["eval", "--boxes", self.boxes, "--id", "siou",
                     "--thresholds", ",".join(format(t, "g") for t in THRESHOLDS)]

    def op(self):
        return run_cli(self.argv)

    def check(self, output: str) -> list[str]:
        import reference

        problems: list[str] = []
        with open(self.boxes) as fh:
            data = json.load(fh)
        expected = reference.map_table(data, THRESHOLDS, DEFAULT_GAMMA, DEFAULT_KAPPA)
        got = {}
        for row in parse_csv(output):
            key = (row["category"], row["bucket"], row["threshold"])
            _require(problems, key not in got, f"eval: duplicate row {key}")
            got[key] = None if row["ap"] == "" else float(row["ap"])
        _require(problems, set(got) == set(expected),
                 f"eval: rows {sorted(set(got) ^ set(expected))[:5]} differ from the reference")
        for key in sorted(set(got) & set(expected)):
            a, b = got[key], expected[key]
            if (a is None) != (b is None) or (a is not None and abs(a - b) > 1e-9):
                problems.append(f"eval: AP {key} = {a}, reference {b}")
        import gen

        exact_buckets = {"all"} | {
            reference.size_bucket(*entry["bbox"][2:]) for entry in data["annotations"]
            if entry["category"] == gen.EXACT_CATEGORY}
        for (category, bucket, threshold), ap in got.items():
            if category == gen.DISTRACTOR_CATEGORY:
                _require(problems, ap == 0.0, f"eval: distractor-only AP {bucket}@{threshold} = {ap}")
            if category == gen.EXACT_CATEGORY and bucket in exact_buckets:
                _require(problems, ap == 1.0, f"eval: exact-copy AP {bucket}@{threshold} = {ap}")
        n_exact = sum(1 for k in got if k[0] == gen.EXACT_CATEGORY and k[1] in exact_buckets)
        _require(problems, n_exact == len(exact_buckets) * len(THRESHOLDS),
                 f"eval: {n_exact} exact-copy AP rows")
        # gamma = 0 collapses SIoU to IoU, bit for bit
        at_zero = run_cli(self.argv + ["--gamma", "0"])
        plain = run_cli([a if a != "siou" else "iou" for a in self.argv])
        _require(problems, at_zero == plain, "eval: --id siou --gamma 0 differs from --id iou")
        return problems

    def distinct_pairs(self) -> int:
        """Same-image, same-category (detection, GT) pairs in the input."""
        with open(self.boxes) as fh:
            data = json.load(fh)
        n_gt: dict = {}
        for entry in data["annotations"]:
            key = (str(entry["image_id"]), str(entry["category"]))
            n_gt[key] = n_gt.get(key, 0) + 1
        return sum(n_gt.get((str(d["image_id"]), str(d["category"])), 0) for d in data["detections"])


class McMoments:
    """`moments` for four criteria over an omega grid, `theory --check-mc`
    and `simulate --pdf histogram`, with SCALEIOU_THREADS from run.py."""

    name = "mc-moments"

    def __init__(self, inputs: dict, seed: int):
        ids = ",".join(CRITERIA)
        common = ["--sigma", format(MC_SIGMA, "g"), "--seed", str(seed)]
        self.commands = [
            ["moments", "--id", ids, "--omega", ",".join(format(w, "g") for w in MC_MOMENT_OMEGAS),
             "--n", str(MC_MOMENT_N)] + common,
            ["theory", "--id", ids, "--omega", ",".join(format(w, "g") for w in MC_THEORY_OMEGAS),
             "--check-mc", "--n", str(MC_THEORY_N)] + common,
            ["simulate", "--id", "gsiou", "--omega", format(MC_PDF_OMEGA, "g"), "--n", str(MC_PDF_N),
             "--pdf", "histogram", "--bins", str(MC_PDF_BINS)] + common,
        ]
        self.seed = seed

    def op(self):
        return [run_cli(argv) for argv in self.commands]

    def check(self, output: list[str]) -> list[str]:
        import reference

        problems: list[str] = []
        moments, theory, histogram = (parse_csv(text) for text in output)
        quad = {}

        def oracle(cid, order, omega):
            key = (cid, order, omega)
            if key not in quad:
                quad[key] = reference.shifted_square_moment(
                    cid, order, omega, MC_SIGMA, DEFAULT_GAMMA, DEFAULT_KAPPA)
            return quad[key]

        _require(problems, len(moments) == len(CRITERIA) * len(MC_MOMENT_OMEGAS),
                 f"moments: {len(moments)} rows")
        for row in moments:
            cid, omega = row["criterion"], float(row["omega"])
            mean, sd, se, n = (float(row[k]) for k in ("mean", "std_dev", "std_error", "n"))
            ref = oracle(cid, 1, omega)
            _require(problems, abs(mean - ref) <= 5 * se,
                     f"moments: {cid} omega={omega} mean {mean} is {abs(mean - ref) / se:.1f} SE from {ref}")
            _require(problems, n == MC_MOMENT_N, f"moments: n = {n}")
            _require(problems, reference.relative_close(se * math.sqrt(n), sd, 2e-8),
                     f"moments: {cid} omega={omega} std_error*sqrt(n) != std_dev")
        _require(problems, len(theory) == 2 * len(CRITERIA) * len(MC_THEORY_OMEGAS),
                 f"theory: {len(theory)} rows")
        for row in theory:
            cid, omega, order = row["criterion"], float(row["omega"]), int(row["order"])
            ref = oracle(cid, order, omega)
            _require(problems, row["flagged"] == "False",
                     f"theory: {cid} omega={omega} order={order} flagged")
            _require(problems, abs(float(row["theory"]) - ref) <= 1e-8,
                     f"theory: {cid} omega={omega} order={order} quadrature {row['theory']} vs {ref}")
            _require(problems, abs(float(row["mc"]) - ref) <= 5 * float(row["std_error"]),
                     f"theory: {cid} omega={omega} order={order} MC {row['mc']} more than 5 SE from {ref}")
        centers = [float(r["z"]) for r in histogram]
        density = [float(r["density"]) for r in histogram]
        width = 2.0 / MC_PDF_BINS  # GSIoU histogram over its range [-1, 1]
        _require(problems, len(density) == MC_PDF_BINS, f"simulate: {len(density)} bins")
        _require(problems, abs(sum(density) * width - 1.0) <= 1e-6,
                 f"simulate: histogram integrates to {sum(density) * width}")
        _require(problems, all(-1.0 < z < 1.0 for z in centers), "simulate: bin centre outside [-1, 1]")
        return problems


class PairScore:
    """`rating` (correlation, groups, gaps, anova), `loss_gradient` for four
    criteria over seeded box pairs, and `order-check --gamma -2`."""

    name = "pair-score"

    def __init__(self, inputs: dict, seed: int):
        self.ratings = inputs["ratings"]
        with open(inputs["loss_pairs"]) as fh:
            self.raw_pairs = json.load(fh)
        self.pairs = [(Box(*p["pred"]), Box(*p["gt"])) for p in self.raw_pairs]
        self.seed = seed
        self.rating_commands = [
            ["rating", "--ratings", self.ratings, "--id", "siou", "--analysis", analysis]
            for analysis in ("correlation", "groups", "gaps", "anova")
        ]
        self.order_command = ["order-check", "--n", str(ORDER_N), "--seed", str(seed),
                              f"--gamma={ORDER_GAMMA:g}"]

    def op(self):
        texts = [run_cli(argv) for argv in self.rating_commands]
        gradients = []
        for cid in CRITERIA:
            criterion = CriterionId(cid)
            for pred, gt in self.pairs:
                try:
                    gradients.append(scaleiou.loss.loss_gradient(criterion, pred, gt, LOSS_PRESET).as_tuple())
                except NonDifferentiablePoint:
                    gradients.append(None)
        texts.append(run_cli(self.order_command))
        return texts, gradients

    def check(self, output) -> list[str]:
        import numpy as np
        from scipy import stats as sp_stats

        import reference
        import scaleiou.io
        import scaleiou.rating

        problems: list[str] = []
        texts, gradients = output
        correlation, groups, gaps, anova, order = (parse_csv(t) for t in texts)

        with open(self.ratings, newline="") as fh:
            rows = list(csv.DictReader(fh))
        gt = np.array([
            reference.corner_to_center([r["gt_x"], r["gt_y"], r["gt_w"], r["gt_h"]]) for r in rows])
        proposal = np.array([
            reference.corner_to_center([r["px"], r["py"], r["pw"], r["ph"]]) for r in rows])
        rating = np.array([int(r["rating"]) for r in rows])
        size = [reference.size_bucket(w, h) for w, h in gt[:, 2:]]
        values = reference.criterion("siou", proposal, gt, DEFAULT_GAMMA, DEFAULT_KAPPA)

        # criterion values: the library against the formulas
        records = scaleiou.io.load_ratings(self.ratings)
        library = scaleiou.rating.criterion_values(records, CriterionId.SIOU, CriterionParams())
        _require(problems, reference.relative_close(library, values, 1e-12),
                 "rating: criterion values differ from the formulas by more than 1e-12")
        pred_arr = np.array([p["pred"] for p in self.raw_pairs])
        gt_arr = np.array([p["gt"] for p in self.raw_pairs])
        for cid in CRITERIA:
            lib = [scaleiou.criteria.evaluate(CriterionId(cid), a, b, LOSS_PRESET) for a, b in self.pairs]
            ref = reference.criterion(cid, pred_arr, gt_arr, LOSS_PRESET.gamma, LOSS_PRESET.kappa)
            _require(problems, reference.relative_close(lib, ref, 1e-12),
                     f"loss pairs: {cid} values differ from the formulas by more than 1e-12")

        # Kendall tau-b
        tau = sp_stats.kendalltau(values, rating, variant="b").statistic
        _require(problems, reference.relative_close(float(correlation[0]["kendall_tau"]), tau, 1e-8, 1e-12),
                 f"rating correlation: tau {correlation[0]['kendall_tau']} vs scipy {tau}")
        _require(problems, int(correlation[0]["n"]) == len(rows), "rating correlation: n")

        # per-size means
        by_size = {s: [i for i, v in enumerate(size) if v == s] for s in sorted(set(size))}
        _require(problems, [g["group"] for g in groups] == list(by_size), "rating groups: group names")
        for g in groups:
            idx = by_size.get(g["group"], [])
            _require(problems, int(g["n"]) == len(idx), f"rating groups: n of {g['group']}")
            if idx:
                _require(problems, reference.relative_close(float(g["mean_rating"]), rating[idx].mean(), 1e-8)
                         and reference.relative_close(float(g["mean_criterion"]), values[idx].mean(), 1e-8),
                         f"rating groups: means of {g['group']}")

        # relative gaps: against the cross-size mean at each rating, summing to 0
        cell = {}
        for s in by_size:
            for r in range(1, 6):
                mask = (np.array(size) == s) & (rating == r)
                cell[(s, r)] = values[mask].mean()
        sums: dict[int, float] = {}
        for g in gaps:
            s, r, gap = g["size"], int(g["rating"]), float(g["relative_gap"])
            level = sum(cell[(t, r)] for t in by_size) / len(by_size)
            _require(problems, reference.relative_close(gap, (cell[(s, r)] - level) / level, 1e-8, 1e-12),
                     f"rating gaps: ({s}, {r}) = {gap}")
            sums[r] = sums.get(r, 0.0) + gap
        _require(problems, len(gaps) == 15, f"rating gaps: {len(gaps)} rows")
        _require(problems, all(abs(v) <= 1e-8 for v in sums.values()), f"rating gaps: sums {sums}")

        # one-way ANOVA of ratings grouped by size
        samples = [rating[idx].astype(float) for idx in by_size.values()]
        f_ref, p_ref = sp_stats.f_oneway(*samples)
        f_lib, p_lib = scaleiou.rating.one_way_anova(samples)
        _require(problems, reference.relative_close([f_lib, p_lib], [f_ref, p_ref], 1e-9, 1e-300),
                 f"rating anova: library ({f_lib}, {p_lib}) vs scipy ({f_ref}, {p_ref})")
        _require(problems, reference.relative_close(
            [float(anova[0]["f_statistic"]), float(anova[0]["p_value"])], [f_ref, p_ref], 1e-8, 1e-300),
            f"rating anova: printed ({anova[0]['f_statistic']}, {anova[0]['p_value']}) vs scipy")

        # loss gradients against central differences; kinks must raise
        kink = np.array([p["kink"] for p in self.raw_pairs])
        n = len(self.pairs)
        for k, cid in enumerate(CRITERIA):
            got = gradients[k * n:(k + 1) * n]
            raised = np.array([g is None for g in got])
            _require(problems, np.array_equal(raised, kink),
                     f"loss_gradient {cid}: raised NonDifferentiablePoint on {int(raised.sum())} pairs, "
                     f"expected the {int(kink.sum())} planted kinks")
            smooth = ~kink & ~raised
            analytic = np.array([g for g, ok in zip(got, smooth) if ok])
            fd = reference.central_difference_gradient(
                cid, pred_arr[smooth], gt_arr[smooth], LOSS_PRESET.gamma, LOSS_PRESET.kappa)
            err = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            worst = float(err.max()) if err.size else math.inf
            _require(problems, worst <= 1e-6,
                     f"loss_gradient {cid}: off central differences by {worst}")

        # order preservation at gamma = -2
        counts = scaleiou.stats.order_preservation_counts(
            CriterionParams(gamma=ORDER_GAMMA, kappa=DEFAULT_KAPPA), ORDER_N, self.seed)
        _require(problems, counts.aligned_preserved == counts.n_aligned > 0,
                 f"order-check: {counts.aligned_preserved} of {counts.n_aligned} aligned triples preserved")
        _require(problems, order[0]["preservation_rate"] == format(counts.preserved / ORDER_N, ".9g"),
                 f"order-check: rate {order[0]['preservation_rate']} vs {counts.preserved}/{ORDER_N}")
        return problems


WORKLOADS = {w.name: w for w in (EvalCoco, McMoments, PairScore)}


# ------------------------------------------------------------- per-layer map

# metric -> (layer, figure, unit); figures: dur (summed span time), self
# (summed self time), calls, work, work_rate (work / dur), call_rate
# (calls / dur), or raised.<exception type>
LAYER_METRICS = {
    "eval-coco": {
        "cli.main.self_s": ("cli.main", "self", "s"),
        "io.load_boxes.s": ("io.load_boxes", "dur", "s"),
        "io.load_boxes.records_per_s": ("io.load_boxes", "work_rate", "records/s"),
        "io.write_table.s": ("io.write_table", "dur", "s"),
        "io.write_table.rows": ("io.write_table", "work", "rows"),
        "geometry.size_class.calls": ("geometry.size_class", "calls", "calls"),
        "criteria.evaluate.calls": ("criteria.evaluate", "calls", "calls"),
        "criteria.evaluate.self_s": ("criteria.evaluate", "self", "s"),
        "criteria.evaluate.pairs_per_s": ("criteria.evaluate", "call_rate", "pairs/s"),
        "evaluation.match_detections.calls": ("evaluation.match_detections", "calls", "calls"),
        "evaluation.match_detections.self_s": ("evaluation.match_detections", "self", "s"),
        "evaluation.average_precision.s": ("evaluation.average_precision", "dur", "s"),
        "evaluation.average_precision.labels": ("evaluation.average_precision", "work", "labels"),
        "evaluation.map_report.self_s": ("evaluation.map_report", "self", "s"),
    },
    "mc-moments": {
        "stats.sample_shifts.samples_per_s": ("stats.sample_shifts", "work_rate", "samples/s"),
        "stats.criterion_on_shifts.samples_per_s": ("stats.criterion_on_shifts", "work_rate", "samples/s"),
        "stats.summarize.s": ("stats.summarize", "dur", "s"),
        "stats.empirical_pdf.s": ("stats.empirical_pdf", "dur", "s"),
        "theory.theoretical_moment.calls": ("theory.theoretical_moment", "calls", "calls"),
        "theory.theoretical_moment.s": ("theory.theoretical_moment", "dur", "s"),
    },
    "pair-score": {
        "io.load_ratings.s": ("io.load_ratings", "dur", "s"),
        "stats.order_preservation_counts.triples_per_s": (
            "stats.order_preservation_counts", "work_rate", "triples/s"),
        "loss.loss_gradient.calls_per_s": ("loss.loss_gradient", "call_rate", "calls/s"),
        "loss.loss_gradient.non_differentiable": (
            "loss.loss_gradient", "raised.NonDifferentiablePoint", "raises"),
        "rating.criterion_values.s": ("rating.criterion_values", "dur", "s"),
        "rating.kendall_tau.s": ("rating.kendall_tau", "dur", "s"),
        "rating.group_means.s": ("rating.group_means", "dur", "s"),
        "rating.relative_gap.s": ("rating.relative_gap", "dur", "s"),
        "rating.one_way_anova.s": ("rating.one_way_anova", "dur", "s"),
        "pair-score.criteria.evaluate.calls": ("criteria.evaluate", "calls", "calls"),
        "pair-score.criteria.evaluate.pairs_per_s": ("criteria.evaluate", "call_rate", "pairs/s"),
    },
}
# figures that count work; they must repeat exactly from round to round
COUNT_FIGURES = ("calls", "work", "raised.NonDifferentiablePoint")


def figure(totals: dict, layer: str, kind: str) -> float:
    entry = totals.get(layer, {})
    if kind == "work_rate":
        return entry.get("work", 0) / entry["dur"] if entry.get("dur") else 0.0
    if kind == "call_rate":
        return entry.get("calls", 0) / entry["dur"] if entry.get("dur") else 0.0
    return entry.get(kind, 0)


def peak_bytes_per_sample(n_threads: int, seed: int) -> float:
    """tracemalloc peak over one simulate_criterion call, per sample."""
    import tracemalloc

    from scaleiou.stats import ShiftModel

    tracemalloc.start()
    try:
        scaleiou.stats.simulate_criterion(
            CriterionId.GSIOU, MC_PDF_OMEGA, ShiftModel(sigma_base=MC_SIGMA), MC_PDF_N, seed,
            CriterionParams(), n_threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MC_PDF_N


# ----------------------------------------------------------------- the loop

class OpError(str):
    """Traceback of an operation that raised; such a round counts as failed."""


def timed(op):
    gc.collect()
    start = time.perf_counter()
    try:
        output = op()
    except Exception:  # a crashing operation is a failed one; keep measuring
        output = OpError(traceback.format_exc(limit=3))
    return time.perf_counter() - start, output


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, help="JSON object of generated input paths")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--min-rounds", type=int, default=3)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](json.loads(args.inputs), args.seed)
    _, reference_output = timed(workload.op)  # warm-up, checked below
    digests = [digest(reference_output)]
    result = {"workload": workload.name}

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        plain_s, traced_s, rounds = [], [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(rounds) < args.min_rounds:
            seconds, output = timed(workload.op)
            plain_s.append(seconds)
            digests.append(digest(output))
            tracer.install()
            tracer.start_round()
            try:
                seconds, output = timed(workload.op)
            finally:
                tracer.uninstall()
            traced_s.append(seconds)
            digests.append(digest(output))
            rounds.append(tracer.round_totals())
        table = LAYER_METRICS[workload.name]
        layers = {
            metric: [statistics.median(figure(r, layer, kind) for r in rounds), unit]
            for metric, (layer, kind, unit) in table.items()
        }
        result["count_drift"] = sorted(
            metric for metric, (layer, kind, _) in table.items()
            if kind in COUNT_FIGURES and len({figure(r, layer, kind) for r in rounds}) > 1)
        layers[f"trace.overhead.{workload.name}"] = [
            statistics.median(traced_s) / statistics.median(plain_s), "ratio"]
        if workload.name == "eval-coco":
            layers["evaluation.evals_per_distinct_pair"] = [
                layers["criteria.evaluate.calls"][0] / workload.distinct_pairs(), "ratio"]
        if workload.name == "mc-moments":
            layers["stats.simulate_criterion.peak_bytes_per_sample"] = [
                peak_bytes_per_sample(int(os.environ.get("SCALEIOU_THREADS", "1")), args.seed), "B"]
        if args.spans:
            result["spans_written"] = tracer.write_spans(args.spans)
        result["layers"] = layers
        result["traced_rounds"] = len(rounds)
    else:
        op_s = []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(op_s) < args.min_rounds:
            seconds, output = timed(workload.op)
            op_s.append(seconds)
            digests.append(digest(output))
        result["op_s"] = op_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside every timed region
    if isinstance(reference_output, OpError):
        problems = [f"{workload.name}: warm-up round raised:\n{reference_output}"]
    else:
        try:
            problems = workload.check(reference_output)
        except Exception:
            problems = [f"{workload.name}: check raised:\n{traceback.format_exc(limit=5)}"]
    failed = len(digests) if problems else sum(1 for d in digests if d != digests[0])
    result.update(
        attempted=len(digests),
        failed=failed,
        correct=not problems and failed == 0,
        problems=problems[:20],
    )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
