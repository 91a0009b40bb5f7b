"""That no command loads scipy, and that the CLI loads no fractions.

Every command runs in a fresh interpreter through scaleiou.cli.main, which
then reports the scipy entries of sys.modules. The ANOVA tail (rating
--analysis anova), the KDE (simulate --pdf kde) and the quadrature of theory
are numpy and pure Python; scipy is only the tests' oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scaleiou

PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import scaleiou
    code = 0
else:
    from scaleiou.cli import main
    code = main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

BOXES = {
    "images": ["a"],
    "annotations": [{"image_id": "a", "category": "cat", "bbox": [10, 10, 16, 16]}],
    "detections": [{"image_id": "a", "category": "cat", "bbox": [11, 10, 16, 16], "score": 0.9}],
}


def ratings_csv() -> str:
    """Every (size, rating) cell filled, and ratings that vary within each size."""
    rows = ["rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph"]
    for side in (16, 64, 128):
        for rating in range(1, 6):
            rows.append(f"{rating},0,0,{side},{side},{(5 - rating) * side / 8},0,{side},{side}")
    return "\n".join(rows) + "\n"


SIM = ["simulate", "--id", "siou", "--omega", "16", "--sigma", "4", "--n", "200", "--seed", "1"]
RATING = ["rating", "--ratings", "{ratings}", "--id", "siou", "--analysis"]

# None is `import scaleiou`
COMMANDS = {
    "import": None,
    "eval": ["eval", "--boxes", "{boxes}", "--id", "siou"],
    "criterion": ["criterion", "--id", "gsiou", "--a", "0,0,10,10", "--b", "2,3,10,12"],
    "shift-curve": ["shift-curve", "--id", "siou", "--omega", "8", "--max-shift", "4", "--steps", "5"],
    "moments": ["moments", "--id", "iou,gsiou", "--omega", "8,32", "--sigma", "4", "--n", "200", "--seed", "1"],
    "order-check": ["order-check", "--n", "200", "--seed", "1"],
    "simulate-histogram": SIM + ["--pdf", "histogram"],
    "rating-correlation": RATING + ["correlation"],
    "rating-groups": RATING + ["groups"],
    "rating-gaps": RATING + ["gaps"],
    "rating-anova": RATING + ["anova"],
    "theory": ["theory", "--id", "iou,gsiou", "--omega", "16", "--sigma", "4"],
    "theory-check-mc": ["theory", "--id", "iou,giou,siou,gsiou", "--omega", "16,64", "--sigma", "8",
                        "--check-mc", "--n", "200", "--seed", "1"],
    "simulate-kde": SIM + ["--pdf", "kde"],
}


def loaded_scipy(argv, tmp_path):
    """The exit code of argv and the scipy modules loaded by its end."""
    boxes, ratings = tmp_path / "boxes.json", tmp_path / "ratings.csv"
    boxes.write_text(json.dumps(BOXES))
    ratings.write_text(ratings_csv())
    if argv is not None:
        argv = [a.format(boxes=boxes, ratings=ratings) for a in argv] + ["--out", str(tmp_path / "out")]
    src = str(Path(scaleiou.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", COMMANDS)
def test_scipy_footprint(name, tmp_path):
    assert loaded_scipy(COMMANDS[name], tmp_path) == [0, []]


def test_the_probe_sees_a_scipy_import(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "PROBE", "import scipy.special\n" + PROBE)
    assert "scipy.special" in loaded_scipy(None, tmp_path)[1]


def test_the_cli_loads_no_fractions():
    """AP is an exact integer sum, so importing the CLI loads no fractions
    module, nor the decimal module that fractions imports."""
    src = str(Path(scaleiou.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import json, sys, scaleiou.cli; print(json.dumps(sorted(m for m in sys.modules if m in ('fractions', 'decimal'))))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
