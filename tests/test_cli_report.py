"""The output of the commands that tests/data/eval_report.json and
tests/data/mc_report.json leave out, byte for byte.

`rating --analysis correlation|groups|gaps` (groups under size, age and
expertise) and `rating --analysis anova` (under all four groupings) read the
seeded rating CSV tests/data/cli_ratings.csv, whose rows fill every (size,
rating) cell; `simulate --pdf kde` draws 2000 seeded samples; `order-check`
runs at two (seed, gamma) settings and `criterion` on one box pair for every
criterion. Each stdout, in both output formats where the command has them,
must equal the text under "bytes" in tests/data/cli_report.json.

The ANOVA p-value and the KDE densities are the package's own (`f_tail`,
`stats.gaussian_kde`), so they are pinned by bytes like the rest; when scipy
computed them, their bits followed the scipy release and only their shape
was pinned.

Regenerate the rating CSV and the expected text (only for an intended output
change) with

    PYTHONPATH=src python tests/test_cli_report.py
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from scaleiou import CriterionId
from scaleiou.cli import main
from scaleiou.geometry import SizeClass
from scaleiou.io import load_ratings
from scaleiou.rating import relative_gap

DATA = Path(__file__).parent / "data"
EXPECTED = DATA / "cli_report.json"
RATINGS = DATA / "cli_ratings.csv"
FORMATS = ("csv", "json")


def ratings_csv(seed=7) -> str:
    """90 answers, six in each (size, rating) cell: a small, medium or large
    ground truth, and a proposal shifted and scaled more the lower the
    rating, with noise; context, expertise and age are sometimes blank."""
    rnd = random.Random(seed)
    lines = ["rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context,expertise,age"]
    for i in range(90):
        side = rnd.uniform(*((6, 30), (36, 90), (100, 240))[i % 3])
        rating = 1 + (i // 3) % 5
        w, h = side * rnd.uniform(0.8, 1.25), side * rnd.uniform(0.8, 1.25)
        x, y = rnd.uniform(0, 400), rnd.uniform(0, 400)
        miss = (5 - rating) * 0.12 + rnd.uniform(0, 0.15)
        px, py = x + rnd.choice((-1, 1)) * miss * w, y + rnd.uniform(-0.5, 0.5) * miss * h
        pw, ph = w * rnd.uniform(1 - miss / 2, 1 + miss), h * rnd.uniform(1 - miss / 2, 1 + miss)
        context, expertise = (rnd.choice(("1", "0", "true", "no", "")) for _ in range(2))
        age = rnd.choice(("", str(rnd.randint(12, 64))))
        cells = [f"{v:.2f}" for v in (x, y, w, h, px, py, pw, ph)]
        lines.append(",".join([str(rating), *cells, context, expertise, age]))
    return "\n".join(lines) + "\n"


def commands():
    ratings = ["--ratings", str(RATINGS)]
    out = []
    for fmt in FORMATS:
        for cid in ("iou", "siou"):
            out.append(["rating", *ratings, "--id", cid, "--analysis", "correlation", "--format", fmt])
            out.append(["rating", *ratings, "--id", cid, "--analysis", "gaps", "--format", fmt])
            for grouping in ("size", "age", "expertise"):
                out.append(["rating", *ratings, "--id", cid, "--analysis", "groups", "--grouping", grouping,
                            "--format", fmt])
        out.append(["rating", *ratings, "--id", "gsiou", "--analysis", "gaps", "--gamma", "-3", "--kappa", "16",
                    "--format", fmt])
        for seed, gamma in (("1", "0.9"), ("3", "-2")):
            out.append(["order-check", "--n", "20000", "--seed", seed, f"--gamma={gamma}", "--format", fmt])
        for grouping in ("size", "age", "expertise", "context"):
            out.append(["rating", *ratings, "--analysis", "anova", "--grouping", grouping, "--format", fmt])
        out.append(["simulate", "--id", "siou", "--omega", "16", "--sigma", "4", "--n", "2000", "--seed", "1",
                    "--pdf", "kde", "--format", fmt])
    for cid in ("iou", "giou", "alpha-iou", "nwd", "siou", "gsiou"):
        out.append(["criterion", "--id", cid, "--a", "0,0,10,10", "--b", "2,3,10,12"])
    out.append(["criterion", "--id", "siou", "--a", "0,0,4,4", "--b", "1,1,4,5", "--gamma", "-3", "--kappa", "16"])
    return out


COMMANDS = commands()


def key(argv):
    """The command line with the rating CSV's path relative to tests/data."""
    return " ".join(argv).replace(str(RATINGS), RATINGS.name)


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_document_covers_the_commands(expected):
    assert set(expected) == {"bytes"}
    assert set(expected["bytes"]) == {key(argv) for argv in COMMANDS}


def test_ratings_file_is_the_seeded_one_and_fills_every_cell():
    assert RATINGS.read_text(encoding="utf-8") == ratings_csv()
    gaps = relative_gap(load_ratings(str(RATINGS)), CriterionId.IOU)
    assert set(gaps) == {(s, r) for s in SizeClass for r in range(1, 6)}


@pytest.mark.parametrize("argv", COMMANDS, ids=[key(a).replace(" ", "-") for a in COMMANDS])
def test_cli_report_bytes(capsys, expected, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected["bytes"][key(argv)]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    RATINGS.write_text(ratings_csv(), encoding="utf-8")
    record = {"bytes": {key(argv): run(argv) for argv in COMMANDS}}
    EXPECTED.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['bytes'])} reports to {EXPECTED}")
