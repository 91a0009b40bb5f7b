"""Benchmark of the scaleiou library and CLI: one workload per invocation.

    python3 bench/run.py --workload eval-coco --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is used from source (src/),
nothing is installed. The run

1. generates the workload's inputs from --seed into .bench_work/;
2. with --trace 0, measures set-up time: a fresh interpreter importing
   `scaleiou.cli`, SETUP_REPEATS times, reporting the median; then runs the
   workload in its own process (worker.py) for --seconds, reporting the
   median operation time and the process's peak resident set;
3. with --trace 1, reads the import split from `python -X importtime`, then
   runs every workload once more in its own process with the public
   functions of each module wrapped in spans (tracer.py), and reports the
   per-layer figures of BENCHMARK.json;
4. checks the outputs of every operation (worker.py) and prints, as its
   last line, one JSON object: correct, attempted, failed and metrics.

Exits non-zero without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("eval-coco", "mc-moments", "pair-score")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150


def environment() -> dict:
    """Environment of every child: the program from src/, one BLAS/OpenMP
    thread (no workload uses BLAS; this stops idle pools from starting), and
    SCALEIOU_THREADS at no more than the CPUs available, at most 2."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["SCALEIOU_THREADS"] = str(max(1, min(2, os.cpu_count() or 1)))
    return env


def generate(workload: str, seed: int) -> dict:
    if workload == "mc-moments":
        return {}  # it draws its samples from --seed inside the program
    directory = WORK / f"{workload}-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "eval-coco":
        return gen.write_eval_inputs(seed, directory)
    return gen.write_pair_inputs(seed, directory)


def setup_seconds(env: dict) -> float:
    command = [sys.executable, "-c", "import scaleiou.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True)  # writes the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_split(env: dict) -> dict:
    """Import time of scaleiou.cli, and the part of it spent in scipy.stats,
    from `python -X importtime` in fresh interpreters (medians).

    scipy loads `scipy.stats` lazily on attribute access, and importtime then
    prints no line for the package itself, only for its submodules; the
    scipy.stats share is the cumulative time of every scipy.stats module
    not nested inside another one.
    """
    cli_s, stats_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import scaleiou.cli"],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        rows = []
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].rstrip()
                depth = (len(name) - len(name.lstrip()) - 1) // 2
                rows.append((int(fields[1]) / 1e6, depth, name.strip()))
        cli_s.append(next(cum for cum, _, name in rows if name == "scaleiou.cli"))
        # importtime prints children before their parent: walk it backwards
        total, ancestors = 0.0, []  # (depth, inside scipy.stats)
        for cum, depth, name in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = bool(ancestors) and ancestors[-1][1]
            is_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
            if is_stats and not inside:
                total += cum
            ancestors.append((depth, inside or is_stats))
        stats_s.append(total)
    return {"cli.import_s": statistics.median(cli_s),
            "cli.import_scipy_stats_s": statistics.median(stats_s)}


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    inputs = generate(workload, seed)
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--inputs", json.dumps(inputs), "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans", str(WORK / f"spans-{workload}.csv"), "--min-rounds", "1"]
    proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "scaleiou" / "cli.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'scaleiou'}", file=sys.stderr)
        return 2
    env = environment()

    if args.trace:
        metrics = {name: (value, "s") for name, value in import_split(env).items()}
        results = [run_worker(w, args.seed, args.seconds / len(WORKLOADS), 1, env) for w in WORKLOADS]
        for r in results:
            metrics.update((name, tuple(figure)) for name, figure in r["layers"].items())
            if r["count_drift"]:
                print(f"{r['workload']}: counts differ between traced rounds: {r['count_drift']}",
                      file=sys.stderr)
    else:
        setup_s = setup_seconds(env)
        r = run_worker(args.workload, args.seed, args.seconds, 0, env)
        results = [r]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s": (statistics.median(r["op_s"]), "s"),
            "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        }

    for r in results:
        for problem in r["problems"]:
            print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for r in results:
        print(f"{r['workload']}: attempted {r['attempted']} failed {r['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
