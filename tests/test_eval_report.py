"""The full `eval` report, byte for byte.

A seeded boxes file goes through `main(["eval", ...])` for every criterion,
size bucket, threshold list and output format; each stdout must equal the
text in tests/data/eval_report.json. The file holds all three size classes,
a detections-only category (AP 0) and a category whose only detections match
out-of-bucket ground truths exactly, so its small and medium cells are empty.

Regenerate the expected text (only for an intended output change) with

    PYTHONPATH=src python tests/test_eval_report.py
"""

import json
import random
from pathlib import Path

import pytest

from scaleiou.cli import main

EXPECTED = Path(__file__).parent / "data" / "eval_report.json"
CRITERIA = ("iou", "giou", "alpha-iou", "nwd", "siou", "gsiou")
SIZES = ("all", "small", "medium", "large")
THRESHOLDS = ("0.5", ",".join(f"{0.5 + 0.05 * k:.2f}" for k in range(10)))
FORMATS = ("csv", "json")
COMMANDS = [
    (cid, size, thresholds, fmt)
    for cid in CRITERIA for size in SIZES for thresholds in THRESHOLDS for fmt in FORMATS
]


def boxes_document(seed=2023):
    """Images with cat ground truths of every size, jittered and spurious cat
    detections, dog detections equal to large dog ground truths, and kite
    detections with no ground truth; plus hand-made ties and a detection
    whose best ground truth is out of bucket while an in-bucket one clears."""
    rnd = random.Random(seed)
    images, annotations, detections = [], [], []

    def box(x, y, w, h):
        return [round(x, 2), round(y, 2), round(w, 2), round(h, 2)]

    for k in range(12):
        image = f"img{k:02d}"
        images.append({"id": image})
        for _ in range(rnd.randint(1, 4)):
            side = rnd.choice((rnd.uniform(6, 30), rnd.uniform(34, 90), rnd.uniform(100, 200)))
            x, y = rnd.uniform(0, 400), rnd.uniform(0, 400)
            w, h = side * rnd.uniform(0.8, 1.25), side * rnd.uniform(0.8, 1.25)
            annotations.append({"image_id": image, "category": "cat", "bbox": box(x, y, w, h)})
            for _ in range(rnd.randint(0, 2)):
                jitter = rnd.uniform(0.0, 0.3) * side
                detections.append({
                    "image_id": image, "category": "cat",
                    "bbox": box(x + rnd.uniform(-jitter, jitter), y + rnd.uniform(-jitter, jitter),
                                w * rnd.uniform(0.85, 1.15), h * rnd.uniform(0.85, 1.15)),
                    "score": round(rnd.random(), 2),
                })
        if rnd.random() < 0.5:
            detections.append({"image_id": image, "category": "cat",
                               "bbox": box(rnd.uniform(0, 400), rnd.uniform(0, 400), 20, 20),
                               "score": round(rnd.random(), 2)})
        if k % 4 == 0:
            dog = box(rnd.uniform(0, 300), rnd.uniform(0, 300), rnd.uniform(110, 180), rnd.uniform(110, 180))
            annotations.append({"image_id": image, "category": "dog", "bbox": dog})
            detections.append({"image_id": image, "category": "dog", "bbox": dog, "score": 0.9})
        if k % 3 == 0:
            detections.append({"image_id": image, "category": "kite",
                               "bbox": box(rnd.uniform(0, 400), rnd.uniform(0, 400), 40, 30),
                               "score": round(rnd.random(), 2)})

    images.append({"id": "ties"})
    annotations += [
        {"image_id": "ties", "category": "cat", "bbox": [0, 0, 20, 20]},
        {"image_id": "ties", "category": "cat", "bbox": [10, 0, 20, 20]},
        {"image_id": "ties", "category": "cat", "bbox": [200, 200, 30, 30]},
        {"image_id": "ties", "category": "cat", "bbox": [199, 200, 34, 34]},
    ]
    detections += [
        {"image_id": "ties", "category": "cat", "bbox": [5, 0, 20, 20], "score": 0.5},
        {"image_id": "ties", "category": "cat", "bbox": [0, 0, 20, 20], "score": 0.5},
        {"image_id": "ties", "category": "cat", "bbox": [199.5, 200, 33, 33], "score": 0.5},
    ]
    return {"images": images, "annotations": annotations, "detections": detections}


def eval_argv(boxes_path, cid, size, thresholds, fmt):
    return ["eval", "--boxes", str(boxes_path), "--id", cid, "--size", size,
            "--thresholds", thresholds, "--format", fmt]


def key(cid, size, thresholds, fmt):
    return " ".join((cid, size, thresholds, fmt))


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def boxes_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("eval_report") / "boxes.json"
    path.write_text(json.dumps(boxes_document()), encoding="utf-8")
    return path


def test_document_covers_the_report_cases(expected):
    assert set(expected) == {key(*command) for command in COMMANDS}
    text = expected[key("iou", "all", THRESHOLDS[1], "csv")]
    assert ",small,0.5," in text and ",medium,0.5," in text and ",large,0.5," in text
    assert "kite,all,0.5,0\n" in text
    assert "dog,small,0.5,\n" in text and "dog,medium,0.5,\n" in text


@pytest.mark.parametrize("command", COMMANDS, ids=[key(*c).replace(" ", "-") for c in COMMANDS])
def test_eval_report_bytes(boxes_path, capsys, expected, command):
    assert main(eval_argv(boxes_path, *command)) == 0
    assert capsys.readouterr().out == expected[key(*command)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "boxes.json"
        path.write_text(json.dumps(boxes_document()), encoding="utf-8")
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(eval_argv(path, *command)) == 0, command
            record[key(*command)] = out.getvalue()
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record)} reports to {EXPECTED}")
