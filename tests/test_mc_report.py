"""The Monte Carlo and theory commands' output, byte for byte.

`moments`, `simulate` (summary and `--pdf histogram`), `shift-curve` and
`theory` (with and without `--check-mc`) run through `main([...])` over both
shift directions, a size ratio other than 1, a positive sigma slope, both
criterion presets and both output formats, and with a criterion listed twice;
each stdout must equal the text in tests/data/mc_report.json. Sample counts
stay at n <= 2e4, so a command takes milliseconds, except for one run of
three CHUNK_SIZE chunks of each Monte Carlo reduction (`moments`,
`theory --check-mc`, `simulate` and `simulate --pdf histogram`), pinned with
the CPU count the sampler measures set to 1 and to 2, so the threaded path is
pinned too.

Regenerate the expected text (only for an intended output change) with

    PYTHONPATH=src python tests/test_mc_report.py
"""

import json
from pathlib import Path

import pytest

import scaleiou.stats as stats
from scaleiou.cli import main

EXPECTED = Path(__file__).parent / "data" / "mc_report.json"
CRITERIA = ("iou", "giou", "alpha-iou", "nwd", "siou", "gsiou")
MOMENT_CRITERIA = "iou,giou,siou,gsiou"
# (direction, size ratio, sigma slope)
MODELS = (
    ("horizontal", "1", "0"),
    ("horizontal", "2", "0.25"),
    ("diagonal", "1", "0"),
    ("diagonal", "0.5", "0.1"),
)
# flags of the evaluation preset (the default) and the loss preset
PRESETS = ([], ["--gamma", "-3", "--kappa", "16"])
FORMATS = ("csv", "json")


def commands():
    out = []
    for direction, ratio, slope in MODELS:
        shape = ["--direction", direction, "--size-ratio", ratio]
        for flags in PRESETS:
            for fmt in FORMATS:
                out.append(["moments", "--id", ",".join(CRITERIA), "--omega", "8,32,128", "--sigma", "8",
                            "--sigma-slope", slope, "--n", "20000", "--seed", "1", *shape, *flags,
                            "--format", fmt])
            for i, cid in enumerate(CRITERIA):
                fmt, other = FORMATS[i % 2], FORMATS[1 - i % 2]
                out.append(["shift-curve", "--id", cid, "--omega", "8,32", "--max-shift", "40", "--steps", "9",
                            *shape, *flags, "--format", fmt])
                simulate = ["simulate", "--id", cid, "--omega", "16", "--sigma", "6", "--sigma-slope", slope,
                            "--n", "20000", "--seed", "7", *shape, *flags]
                out.append(simulate + ["--format", fmt])
                out.append(simulate + ["--pdf", "histogram", "--bins", "12", "--format", other])
    for sigma in ("4", "16"):
        for flags in PRESETS:
            for fmt in FORMATS:
                theory = ["theory", "--id", MOMENT_CRITERIA, "--omega", "8,16,64", "--sigma", sigma,
                          *flags, "--format", fmt]
                out.append(theory)
                out.append(theory + ["--check-mc", "--n", "20000", "--seed", "3"])
    # a criterion listed twice keeps its place and prints its rows twice
    for direction in ("horizontal", "diagonal"):
        out.append(["moments", "--id", "iou,nwd,iou,alpha-iou", "--omega", "8,32", "--sigma", "8",
                    "--n", "20000", "--seed", "2", "--direction", direction])
    out.append(["theory", "--id", "siou,siou", "--omega", "8,32", "--sigma", "4",
                "--check-mc", "--n", "20000", "--seed", "3"])
    return out


COMMANDS = commands()
# every Monte Carlo reduction on 150000 samples, which span three CHUNK_SIZE chunks
MULTI_CHUNK = [
    ["moments", "--id", ",".join(CRITERIA), "--omega", "8,32,128", "--sigma", "8",
     "--n", "150000", "--seed", "1", "--direction", "diagonal"],
    ["theory", "--id", MOMENT_CRITERIA, "--omega", "16,64", "--sigma", "8", "--check-mc",
     "--n", "150000", "--seed", "1"],
    ["simulate", "--id", "gsiou", "--omega", "16", "--sigma", "8", "--n", "150000", "--seed", "1"],
    ["simulate", "--id", "gsiou", "--omega", "16", "--sigma", "8", "--n", "150000", "--seed", "1",
     "--pdf", "histogram"],
]
# (usable CPUs, argv)
THREADED = [(cpus, argv) for argv in MULTI_CHUNK for cpus in (1, 2)]


def key(argv, cpus=None):
    return " ".join(argv) if cpus is None else f"cpus={cpus} " + " ".join(argv)


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_document_covers_the_commands(expected):
    keys = [key(argv) for argv in COMMANDS] + [key(argv, cpus) for cpus, argv in THREADED]
    assert set(expected) == set(keys)
    assert len(expected) == len(keys)


@pytest.mark.parametrize("argv", COMMANDS, ids=[key(a).replace(" ", "-") for a in COMMANDS])
def test_mc_report_bytes(capsys, expected, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected[key(argv)]


@pytest.mark.parametrize("cpus, argv", THREADED, ids=[key(a, c).replace(" ", "-") for c, a in THREADED])
def test_mc_report_bytes_threaded(capsys, monkeypatch, expected, cpus, argv):
    monkeypatch.setattr(stats, "_usable_cpus", lambda: cpus)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected[key(argv, cpus)]


@pytest.mark.parametrize("argv", MULTI_CHUNK, ids=[key(a).replace(" ", "-") for a in MULTI_CHUNK])
def test_threaded_runs_print_the_serial_text(expected, argv):
    assert expected[key(argv, 1)] == expected[key(argv, 2)]


if __name__ == "__main__":
    import contextlib
    import io

    record = {}
    for cpus, argv in [(None, argv) for argv in COMMANDS] + THREADED:
        stats._usable_cpus = lambda: cpus or 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        record[key(argv, cpus)] = out.getvalue()
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} reports to {EXPECTED}")
