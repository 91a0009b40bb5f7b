import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scaleiou
import scaleiou.stats as stats
from scaleiou import ParseError
from scaleiou.cli import build_parser, main
from scaleiou.io import load_boxes, load_ratings, render_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BOXES = {
    "images": [{"id": "a"}],
    "annotations": [
        {"image_id": "a", "category": "cat", "bbox": [10, 10, 16, 16]},
        {"image_id": "a", "category": "dog", "bbox": [60, 60, 120, 120]},
    ],
    "detections": [
        {"image_id": "a", "category": "cat", "bbox": [11, 10, 16, 16], "score": 0.9},
        {"image_id": "a", "category": "dog", "bbox": [300, 300, 50, 50], "score": 0.85},
        {"image_id": "a", "category": "dog", "bbox": [60, 62, 120, 120], "score": 0.8},
    ],
}


def gt(**fields):
    """A ground-truth entry of image "a", category "c", with fields replaced."""
    return {"image_id": "a", "category": "c", "bbox": [0, 0, 10, 10], **fields}


def det(**fields):
    """A detection entry like gt, scored 0.9 unless fields say otherwise."""
    return {"score": 0.9, **gt(**fields)}


RATING_CSV = "\n".join(
    ["rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context,expertise,age"]
    + [
        "5,0,0,20,20,0,0,20,20,1,0,22",
        "4,0,0,20,20,2,0,20,20,0,1,35",
        "2,0,0,20,20,8,0,20,20,1,1,50",
        "1,0,0,20,20,15,0,20,20,0,0,",
    ]
) + "\n"


@pytest.fixture
def boxes_file(tmp_path):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(BOXES))
    return str(path)


@pytest.fixture
def ratings_file(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(RATING_CSV)
    return str(path)


class TestCriterionCommand:
    def test_iou_value(self, capsys):
        code, out, _ = run(capsys, "criterion", "--id", "iou",
                           "--a", "0,0,10,10", "--b", "5,0,10,10")
        assert code == 0
        assert out == "0.333333\n"

    def test_unknown_criterion_is_usage_error(self, capsys):
        code, _, err = run(capsys, "criterion", "--id", "diou",
                           "--a", "0,0,10,10", "--b", "5,0,10,10")
        assert code == 1
        assert "error:" in err

    def test_malformed_box_is_usage_error(self, capsys):
        code, _, err = run(capsys, "criterion", "--id", "iou",
                           "--a", "0,0,10", "--b", "5,0,10,10")
        assert code == 1
        assert "error:" in err

    def test_bad_box_message_is_the_boxes_file_one(self, capsys):
        code, out, err = run(capsys, "criterion", "--id", "iou", "--a", "0,0,10", "--b", "5,0,10,10")
        assert (code, out, err) == (1, "", "error: box must be [x_min, y_min, w, h], got ['0', '0', '10']\n")

    def test_siou_gamma_zero_matches_iou(self, capsys):
        args = ("--a", "0,0,10,10", "--b", "3,2,12,9")
        _, out_iou, _ = run(capsys, "criterion", "--id", "iou", *args)
        _, out_siou, _ = run(capsys, "criterion", "--id", "siou", "--gamma", "0", *args)
        assert out_siou == out_iou


class TestConfigPrecedence:
    ARGS = ("criterion", "--id", "siou", "--a", "0,0,10,10", "--b", "5,0,10,10")

    def test_config_file_overrides_default(self, capsys, tmp_path):
        config = tmp_path / "sio.cfg"
        config.write_text("gamma = 0\n# comment\n")
        _, out_cfg, _ = run(capsys, *self.ARGS, "--config", str(config))
        _, out_iou, _ = run(capsys, "criterion", "--id", "iou",
                            "--a", "0,0,10,10", "--b", "5,0,10,10")
        assert out_cfg == out_iou

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "sio.cfg"
        config.write_text("gamma=0\n")
        _, out_flag, _ = run(capsys, *self.ARGS, "--config", str(config), "--gamma", "0.2")
        _, out_default, _ = run(capsys, *self.ARGS)
        assert out_flag == out_default

    def test_bad_config_is_data_error(self, capsys, tmp_path):
        config = tmp_path / "sio.cfg"
        config.write_text("gamma: 0.2\n")
        code, _, err = run(capsys, *self.ARGS, "--config", str(config))
        assert code == 2
        assert "error:" in err

    def test_unknown_key_is_data_error(self, capsys, tmp_path):
        config = tmp_path / "sio.cfg"
        config.write_text("power=2\n")
        code, _, _ = run(capsys, *self.ARGS, "--config", str(config))
        assert code == 2

    def test_value_that_is_not_a_number_is_data_error(self, capsys, tmp_path):
        config = tmp_path / "sio.cfg"
        config.write_text("# gamma\ngamma = abc\n")
        code, out, err = run(capsys, *self.ARGS, "--config", str(config))
        assert (code, out, err) == (2, "", f"error: {config}: line 2: invalid value ' abc'\n")


THEORY = ("theory", "--id", "iou,siou", "--omega", "16", "--sigma", "4")
ORDER_CHECK = ("order-check", "--n", "50", "--seed", "1")


@pytest.mark.parametrize("argv, flag", [
    (("criterion", "--id", "iou", "--a", "0,0,10,10", "--b", "5,0,10,10"), ("--format", "json")),
    (THEORY, ("--alpha", "2")), (THEORY, ("--nwd-constant", "8")),
    (ORDER_CHECK, ("--alpha", "2")), (ORDER_CHECK, ("--nwd-constant", "8")),
])
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv, *flag)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("argv", [THEORY, ORDER_CHECK])
def test_config_keys_are_shared_by_every_command(capsys, tmp_path, argv):
    config = tmp_path / "all.cfg"
    config.write_text("alpha=2\nnwd_constant=8\n")
    _, plain, _ = run(capsys, *argv)
    code, configured, _ = run(capsys, *argv, "--config", str(config))
    assert (code, configured) == (0, plain)


class TestDeterminism:
    SIM = ("simulate", "--id", "siou", "--omega", "16", "--sigma", "16",
           "--n", "20000", "--seed", "9")

    def test_same_seed_byte_identical(self, capsys):
        _, first, _ = run(capsys, *self.SIM)
        _, second, _ = run(capsys, *self.SIM)
        assert first == second
        assert first != ""

    def test_different_seed_differs(self, capsys):
        _, first, _ = run(capsys, *self.SIM)
        _, other, _ = run(capsys, "simulate", "--id", "siou", "--omega", "16",
                          "--sigma", "16", "--n", "20000", "--seed", "10")
        assert first != other

    def test_serial_equals_parallel(self, capsys, monkeypatch):
        # 150000 samples span three CHUNK_SIZE chunks, so four CPUs draw them on three threads
        sim = ("simulate", "--id", "siou", "--omega", "16", "--sigma", "16", "--n", "150000", "--seed", "9")
        monkeypatch.setattr(stats, "_usable_cpus", lambda: 1)
        _, serial, _ = run(capsys, *sim)
        monkeypatch.setattr(stats, "_usable_cpus", lambda: 4)
        _, parallel, _ = run(capsys, *sim)
        assert serial == parallel

    def test_siou_gamma_zero_equals_iou_simulation(self, capsys):
        _, siou_out, _ = run(capsys, *self.SIM, "--gamma", "0")
        _, iou_out, _ = run(capsys, "simulate", "--id", "iou", "--omega", "16",
                            "--sigma", "16", "--n", "20000", "--seed", "9")
        assert siou_out.replace("siou", "iou") == iou_out

    def test_order_check_deterministic(self, capsys):
        args = ("order-check", "--n", "2000", "--seed", "3", "--gamma", "0.9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestTables:
    def test_shift_curve_csv(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "shift-curve", "--id", "iou", "--omega", "16,32",
                         "--max-shift", "8", "--steps", "5", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert rows[0] == {"criterion": "iou", "omega": "16", "shift": "0", "value": "1"}

    def test_json_format_parses(self, capsys):
        code, out, _ = run(capsys, "shift-curve", "--id", "giou", "--omega", "16",
                           "--max-shift", "8", "--steps", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert rows[0]["value"] == 1

    def test_theory_command(self, capsys):
        code, out, _ = run(capsys, "theory", "--id", "iou,giou", "--omega", "16",
                           "--sigma", "16")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 4
        assert {r["order"] for r in rows} == {"1", "2"}

    def test_theory_check_mc_requires_seed(self, capsys):
        code, _, err = run(capsys, "theory", "--id", "iou", "--omega", "16",
                           "--sigma", "16", "--check-mc")
        assert code == 1
        assert "seed" in err

    def test_usage_error_leaves_no_partial_output(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "shift-curve", "--id", "iou", "--omega", "16",
                         "--max-shift", "8", "--steps", "1", "--out", str(out))
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_are_values_in_column_order(self, fmt):
        text = render_table([("iou", 0.1 + 0.2, 3, True, "")], fmt, ("criterion", "value", "n", "flagged", "ap"))
        expected = {"csv": "criterion,value,n,flagged,ap\niou,0.3,3,True,\n",
                    "json": '[\n  {\n    "criterion": "iou",\n    "value": 0.3,\n    "n": 3,\n'
                            '    "flagged": true,\n    "ap": ""\n  }\n]\n'}
        assert text == expected[fmt]

    def test_unknown_format_is_an_error(self):
        with pytest.raises(ValueError, match="^unknown output format 'xml'$"):
            render_table([("giou", 0.5)], "xml", ("criterion", "value"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("row", [("iou",), ("iou", 1.0, 2)])
    def test_a_row_of_another_length_is_an_error(self, fmt, row):
        with pytest.raises(ValueError, match="a table row has .* values for the 2 columns"):
            render_table([("giou", 0.5), row], fmt, ("criterion", "value"))


class TestEvalCommand:
    def test_report(self, capsys, boxes_file):
        code, out, _ = run(capsys, "eval", "--boxes", boxes_file)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        by_key = {(r["category"], r["bucket"]): r["ap"] for r in rows}
        assert by_key[("cat", "all")] == "1"
        assert by_key[("dog", "all")] == "0.5"
        assert by_key[("mAP", "all")] == "0.75"

    def test_siou_gamma_zero_identity(self, capsys, boxes_file):
        _, iou_out, _ = run(capsys, "eval", "--boxes", boxes_file, "--id", "iou")
        _, siou_out, _ = run(capsys, "eval", "--boxes", boxes_file,
                             "--id", "siou", "--gamma", "0")
        assert iou_out == siou_out

    def test_size_filter(self, capsys, boxes_file):
        code, out, _ = run(capsys, "eval", "--boxes", boxes_file, "--size", "small")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert {r["bucket"] for r in rows} == {"small"}

    def test_invalid_json_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "eval", "--boxes", str(path))
        assert code == 2

    @pytest.mark.parametrize("document, key", [('{"detections": 5}', "detections"),
                                               ('{"annotations": null}', "annotations"),
                                               ('{"images": "ab"}', "images")])
    def test_section_that_is_not_an_array_is_a_data_error(self, capsys, tmp_path, document, key):
        path = tmp_path / "boxes.json"
        path.write_text(document)
        code, out, err = run(capsys, "eval", "--boxes", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: '{key}' must be an array\n"

    @pytest.mark.parametrize("document, reason", [("[" * 100_000, "maximum recursion depth exceeded"),
                                                  ('{"images": [' + "1" * 5000 + "]}", "Exceeds the limit")])
    def test_json_python_cannot_hold_is_a_data_error(self, capsys, tmp_path, document, reason):
        path = tmp_path / "boxes.json"
        path.write_text(document)
        code, out, err = run(capsys, "eval", "--boxes", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: invalid JSON: {reason}")

    @pytest.mark.parametrize("document, message", [
        ([gt()], "top level must be a JSON object"),
        ({"annotations": [5]}, "annotations[0]: must be an object, got 5"),
        ({"annotations": [{"image_id": "a", "category": "c"}]}, "annotations[0]: missing field 'bbox'"),
        ({"images": ["a"], "detections": [gt()]}, "detections[0]: missing field 'score'"),
    ], ids=["top-level", "entry", "field", "score"])
    def test_malformed_structure_is_a_data_error(self, capsys, tmp_path, document, message):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(document))
        assert run(capsys, "eval", "--boxes", str(path)) == (2, "", f"error: {path}: {message}\n")

    def test_bad_box_names_the_entry(self, capsys, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({**BOXES, "detections": [{**BOXES["detections"][0], "bbox": [1, 2, 3]}]}))
        code, out, err = run(capsys, "eval", "--boxes", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: detections[0]: box must be [x_min, y_min, w, h], got [1, 2, 3]\n"

    @pytest.mark.parametrize("bbox, score, message", [
        ([0, 0, True, 10], True, "invalid box [0, 0, True, 10]: True is a boolean, not a number"),
        ([0, 0, 10, 10], True, "invalid score True: True is a boolean, not a number"),
        ([0, 0, 10, False], 0.9, "invalid box [0, 0, 10, False]: False is a boolean, not a number"),
    ])
    def test_boolean_is_not_a_number(self, capsys, tmp_path, bbox, score, message):
        path = tmp_path / "boxes.json"
        detection = det(bbox=bbox, score=score)
        path.write_text(json.dumps({"images": ["a"], "annotations": [gt()], "detections": [detection]}))
        code, out, err = run(capsys, "eval", "--boxes", str(path), "--thresholds", "0.1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: detections[0]: {message}\n"

    @pytest.mark.parametrize("bbox, score, message", [
        ([0, 0, 10**400, 10], 0.9, f"invalid box [0, 0, {10**400}, 10]: int too large to convert to float"),
        ([0, 0, 10, 10], -10**400, f"invalid score {-10**400}: int too large to convert to float"),
    ], ids=["bbox", "score"])
    def test_integer_too_large_for_a_float_is_a_data_error(self, capsys, tmp_path, bbox, score, message):
        path = tmp_path / "boxes.json"
        detection = det(bbox=bbox, score=score)
        path.write_text(json.dumps({"images": ["a"], "annotations": [gt()], "detections": [detection]}))
        assert run(capsys, "eval", "--boxes", str(path)) == (2, "", f"error: {path}: detections[0]: {message}\n")

    @pytest.mark.parametrize("document, message", [
        # the same text as an integer and as a string: one image or category before
        ({"images": [3], "annotations": [gt(image_id=3)], "detections": [det(image_id="3")]},
         "detections[0]: image_id '3' has the text of the integer 3 in images[0]"),
        ({"annotations": [gt(image_id=3)], "detections": [det(image_id="3")]},
         "detections[0]: image_id '3' has the text of the integer 3 in annotations[0]"),
        ({"images": [3, "3"], "annotations": [gt(image_id=3)]},
         "images[1]: id '3' has the text of the integer 3 in images[0]"),
        ({"images": ["3"], "annotations": [gt(image_id=3)]},
         "annotations[0]: image_id 3 has the text of the string '3' in images[0]"),
        ({"annotations": [gt(category=1)], "detections": [det(category="1")]},
         "detections[0]: category '1' has the text of the integer 1 in annotations[0]"),
        # neither a string nor an integer: before, the text of the Python value
        ({"images": ["[1, 2]"], "annotations": [gt(image_id="[1, 2]")], "detections": [det(image_id=[1, 2])]},
         "detections[0]: invalid image_id [1, 2]: must be a string or an integer"),
        ({"images": [{"id": 3.0}]}, "images[0]: invalid id 3.0: must be a string or an integer"),
        ({"images": [True]}, "images[0]: invalid id True: must be a string or an integer"),
        ({"annotations": [gt(image_id={"a": 1})]},
         "annotations[0]: invalid image_id {'a': 1}: must be a string or an integer"),
        ({"annotations": [gt(category=False)]},
         "annotations[0]: invalid category False: must be a string or an integer"),
    ])
    def test_ids_and_categories_by_json_type(self, capsys, tmp_path, document, message):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "eval", "--boxes", str(path), "--thresholds", "0.1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    def test_integer_ids_and_categories_keep_their_text(self, capsys, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({"images": [{"id": 7}], "annotations": [gt(image_id=7, category=1)],
                                    "detections": [det(image_id=7, category=1)]}))
        code, out, _ = run(capsys, "eval", "--boxes", str(path), "--thresholds", "0.1", "--size", "small")
        assert code == 0
        assert out == "category,bucket,threshold,ap\n1,small,0.1,1\nmAP,small,0.1,1\n"


class TestRatingCommand:
    def test_correlation(self, capsys, ratings_file):
        code, out, _ = run(capsys, "rating", "--ratings", ratings_file)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["criterion"] == "iou"
        assert float(rows[0]["kendall_tau"]) == 1.0

    def test_groups(self, capsys, ratings_file):
        code, out, _ = run(capsys, "rating", "--ratings", ratings_file,
                           "--analysis", "groups", "--grouping", "expertise")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert {r["group"] for r in rows} == {"expert", "inexperienced"}

    def test_gaps_missing_cells_is_data_error(self, capsys, ratings_file):
        # all ground truths are small, so medium/large cells are empty
        code, _, err = run(capsys, "rating", "--ratings", ratings_file,
                           "--analysis", "gaps")
        assert code == 2
        assert "error:" in err

    def test_anova_degenerate_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(
            "rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context\n"
            + "3,0,0,20,20,0,0,20,20,1\n" * 2
            + "3,0,0,20,20,0,0,20,20,0\n" * 2
        )
        code, _, _ = run(capsys, "rating", "--ratings", str(path),
                         "--analysis", "anova", "--grouping", "context")
        assert code == 2

    @pytest.mark.parametrize("rows, analysis, message", [
        (["3,0,0,20,20,0,0,20,20"], ["--analysis", "correlation"], "need at least 2 pairs, got 1"),
        (["3,0,0,20,20,0,0,20,20", "4,0,0,24,24,0,0,20,20"], ["--analysis", "anova", "--grouping", "size"],
         "need at least 2 groups, got 1"),
        (["3,0,0,20,20,0,0,20,20,,30", "4,0,0,20,20,0,0,20,20, ,30", "5,0,0,20,20,0,0,20,20,,30"],
         ["--analysis", "groups", "--grouping", "context"], "no row falls in any context group"),
        # ages outside every (lo, hi] bucket
        (["3,0,0,20,20,0,0,20,20,1,5", "4,0,0,20,20,0,0,20,20,1,70", "5,0,0,20,20,0,0,20,20,0,-4"],
         ["--analysis", "groups", "--grouping", "age"], "no row falls in any age group"),
    ])
    def test_too_few_rows_for_the_analysis_is_data_error(self, capsys, tmp_path, rows, analysis, message):
        path = tmp_path / "few.csv"
        path.write_text("rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context,age\n" + "".join(row + "\n" for row in rows))
        assert run(capsys, "rating", "--ratings", str(path), *analysis) == (2, "", f"error: {message}\n")

    def test_missing_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("rating,gt_x\n3,0\n")
        code, _, _ = run(capsys, "rating", "--ratings", str(path))
        assert code == 2


class TestLoaders:
    def test_load_boxes_corner_to_center(self, boxes_file):
        detections, ground_truths = load_boxes(boxes_file)
        assert len(detections) == 3 and len(ground_truths) == 2
        assert ground_truths.box[0].tolist() == [18, 18, 16, 16]

    def test_load_boxes_unknown_image(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({
            "images": ["a"],
            "annotations": [{"image_id": "b", "category": "cat", "bbox": [0, 0, 5, 5]}],
        }))
        from scaleiou import ParseError

        with pytest.raises(ParseError):
            load_boxes(str(path))

    def test_load_ratings_fields(self, ratings_file):
        table = load_ratings(ratings_file)
        assert table.rating.tolist() == [5, 4, 2, 1]
        assert table.context[0] == 1.0 and table.expertise[0] == 0.0
        assert np.isnan(table.age[3])
        assert table.gt[0, 0] == 10  # corner (0,0,20,20) -> center 10


RATING_HEADER = "rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context,expertise,age\n"


# each input reader: its argv for a path, and bytes of its format that are not UTF-8
READERS = {
    "boxes": (lambda path: ["eval", "--boxes", path], b'{"images": ["a\xff"]}'),
    "ratings": (lambda path: ["rating", "--ratings", path],
                RATING_HEADER.encode() + b"3,0,0,20,20,0,0,20,\xff\n"),
    "config": (lambda path: [*TestConfigPrecedence.ARGS, "--config", path], b"\xff=1\n"),
}


@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("reader", READERS)
def test_unreadable_input_is_a_data_error(capsys, tmp_path, reader, fault):
    argv, not_utf8 = READERS[reader]
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        path.write_bytes(not_utf8)
    code, out, err = run(capsys, *argv(str(path)))
    assert (code, out) == (2, "")
    prefix = f"error: {path}: not UTF-8: " if fault == "not-utf8" else f"error: cannot read {path}: "
    assert err.startswith(prefix) and "Traceback" not in err


def write_ratings(tmp_path, *rows):
    path = tmp_path / "ratings.csv"
    path.write_text(RATING_HEADER + "".join(row + "\n" for row in rows))
    return str(path)


class TestRatingCsvRules:
    def test_error_names_the_file_line(self, tmp_path):
        # two blank lines before the bad row: it is physical line 5, the third record
        path = write_ratings(tmp_path, "5,0,0,20,20,0,0,20,20,1,0,22", "", "", "3,0,0,20,20,0,0,-1,20,1,0,22")
        with pytest.raises(ParseError, match=r"line 5: box size out of range"):
            load_ratings(path)

    def test_conversion_error_names_the_file_line(self, tmp_path):
        path = write_ratings(tmp_path, "", "5,0,0,20,20,0,0,20,x,1,0,22")
        with pytest.raises(ParseError, match=r"line 3: could not convert"):
            load_ratings(path)

    def test_rule_broken_on_an_earlier_row_is_reported_first(self, tmp_path):
        path = write_ratings(tmp_path, "9,0,0,20,20,0,0,20,20,1,0,22", "3,0,0,20,20,0,0,20,x,1,0,22")
        with pytest.raises(ParseError, match=r"line 2: rating out of range"):
            load_ratings(path)

    def test_rule_broken_on_an_earlier_row_comes_before_an_oversized_field(self, tmp_path):
        """The row loop checks each row's rules as it reads it, so a broken box
        is reported before csv.reader meets a field over its limit on a later row."""
        oversized = "1" * (csv.field_size_limit() + 1)
        path = write_ratings(tmp_path, "3,0,0,-1,20,0,0,20,20,1,0,22", f"3,{oversized},0,20,20,0,0,20,20,1,0,22")
        with pytest.raises(ParseError, match=r"line 2: box size out of range"):
            load_ratings(path)

    @pytest.mark.parametrize("rating", [10**30, -10**30])
    def test_rating_too_large_for_int64_names_the_file_line(self, tmp_path, capsys, rating):
        path = write_ratings(tmp_path, "5,0,0,20,20,0,0,20,20,1,0,22", "", f"{rating},0,0,20,20,0,0,20,20,1,0,22")
        message = f"line 4: rating out of range: must be an integer in [1, 5], got {rating}"
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            load_ratings(path)
        assert run(capsys, "rating", "--ratings", path) == (2, "", f"error: {path}: {message}\n")

    def test_empty_file_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text("")
        assert run(capsys, "rating", "--ratings", str(path)) == (2, "", f"error: {path}: missing CSV header\n")

    def test_quoted_newline_counts_its_lines(self, tmp_path):
        path = write_ratings(tmp_path, '5,0,0,20,20,0,0,20,20,"\n1",0,22', "3,0,0,20,20,0,0,20,20,1,0,abc")
        with pytest.raises(ParseError, match=r"line 4: invalid age"):
            load_ratings(path)

    def test_flag_spellings(self, tmp_path):
        spellings = ["1", "0", "true", "FALSE", " Yes ", "no", "True", " 0"]
        path = write_ratings(tmp_path, *(f"3,0,0,20,20,0,0,20,20,{s},{s},30" for s in spellings))
        table = load_ratings(path)
        expected = [1, 0, 1, 0, 1, 0, 1, 0]
        assert table.context.tolist() == expected and table.expertise.tolist() == expected

    @pytest.mark.parametrize("column, cells", [("context", "banana,1,30"), ("context", "2,1,30"),
                                               ("expertise", "1,-1,30"), ("expertise", "1,y,30"),
                                               ("age", "1,1,thirty"), ("age", "1,1,30.5")])
    def test_unknown_value_names_line_and_column(self, tmp_path, capsys, column, cells):
        path = write_ratings(tmp_path, "5,0,0,20,20,0,0,20,20,1,1,30", f"5,0,0,20,20,0,0,20,20,{cells}")
        with pytest.raises(ParseError, match=rf"line 3: invalid {column} "):
            load_ratings(path)
        assert main(["rating", "--ratings", path]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("grouping, names", [("context", ["with-context", "without-context"]),
                                                 ("expertise", ["expert", "inexperienced"]),
                                                 ("age", ["(10, 25]", "(25, 40]"])])
    def test_absent_values_are_skipped(self, tmp_path, capsys, grouping, names):
        path = write_ratings(tmp_path, "5,0,0,20,20,0,0,20,20,1,1,20", "4,0,0,20,20,2,0,20,20,0,0,30",
                             "2,0,0,20,20,8,0,20,20,,,", "1,0,0,20,20,15,0,20,20, , , ")
        code, out, _ = run(capsys, "rating", "--ratings", path, "--analysis", "groups", "--grouping", grouping)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["group"] for r in rows] == names
        assert [r["n"] for r in rows] == ["1", "1"]
        assert [r["mean_rating"] for r in rows] in (["5", "4"], ["4", "5"])

    def test_oversized_field_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_bytes(RATING_HEADER.encode() + b"3," + b"1" * 200_000 + b",0,20,20,0,0,20,20\n")
        with pytest.raises(ParseError):
            load_ratings(str(path))
        assert main(["rating", "--ratings", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    def test_bytes_that_are_not_utf8_come_before_a_row_error(self, tmp_path):
        # the bad row is line 2; the byte 0xff sits past the first 8 KB of the file
        path = tmp_path / "ratings.csv"
        rows = "x5,0,0,20,20,0,0,20,20\n" + "5,0,0,20,20,0,0,20,20\n" * 1000
        path.write_bytes(RATING_HEADER.encode() + rows.encode() + b"5,0,0,20,20,0,0,20,20,\xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_ratings(str(path))

    def test_missing_optional_columns_are_absent(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph\n5,0,0,20,20,0,0,20,20\n")
        table = load_ratings(str(path))
        assert np.isnan(table.context).all() and np.isnan(table.expertise).all() and np.isnan(table.age).all()


class TestParserReuse:
    """main builds its parser on the first call and reuses it; a parse leaves
    nothing behind for the next one."""

    GOOD = ["order-check", "--n", "300", "--seed", "2", "--gamma=-1", "--format", "json"]

    def test_an_error_between_two_calls_leaves_the_output_alone(self, capsys):
        first = run(capsys, *self.GOOD)
        assert first[0] == 0 and first[1]
        assert run(capsys, "order-check", "--n", "1_0", "--seed", "2")[0] == 1  # a bad flag value
        assert run(capsys, "order-check", "--seed", "2", "--gamma=-3")[0] == 1  # a missing flag
        assert run(capsys, "simulate", "--bogus")[0] == 1
        assert run(capsys, *self.GOOD) == first


def run_module(*argv):
    """Run `python -m scaleiou.cli` in a fresh interpreter on this checkout."""
    src = str(Path(scaleiou.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "scaleiou.cli", *argv],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntry:
    def test_criterion_prints_value(self):
        proc = run_module("criterion", "--id", "iou", "--a", "0,0,10,10", "--b", "2,3,10,12")
        assert (proc.returncode, proc.stdout) == (0, "0.341463\n")

    def test_unknown_criterion_exits_1(self):
        proc = run_module("criterion", "--id", "bogus", "--a", "0,0,10,10", "--b", "2,3,10,12")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "unknown criterion" in proc.stderr

    def test_nwd_overflow_to_zero_warns_nothing(self, monkeypatch):
        # a tiny NWD constant sends W2 / C to inf, and exp(-inf) = 0 is the exact value
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        proc = run_module("moments", "--id", "nwd", "--omega", "1", "--sigma", "59501836",
                          "--nwd-constant", "1e-300", "--n", "100", "--seed", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "criterion,omega,mean,std_dev,std_error,n\nnwd,1,0,0,0,100\n", "")


def test_criterion_out_writes_the_file(capsys, tmp_path):
    out = tmp_path / "value.txt"
    code, stdout, _ = run(capsys, "criterion", "--id", "iou", "--a", "0,0,10,10", "--b", "2,3,10,12",
                          "--out", str(out))
    assert (code, stdout, out.read_bytes()) == (0, "", b"0.341463\n")


UNWRITABLE_OUT = {"missing-directory": lambda tmp: tmp / "missing" / "out.csv", "directory": lambda tmp: tmp}
OUT_COMMANDS = {
    "table": ["order-check", "--n", "10", "--seed", "1"],
    "criterion": ["criterion", "--id", "iou", "--a", "0,0,10,10", "--b", "2,3,10,12"],
}


@pytest.mark.parametrize("where", UNWRITABLE_OUT)
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_path_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, command, where):
    out = UNWRITABLE_OUT[where](tmp_path)
    code, stdout, err = run(capsys, *OUT_COMMANDS[command], "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_simulate_pdf_computes_no_summary(capsys, monkeypatch):
    import scaleiou.stats as stats

    def no_summary(*args, **kwargs):
        raise AssertionError("summarize called on the --pdf path")

    monkeypatch.setattr(stats, "summarize", no_summary)
    code, out, _ = run(capsys, "simulate", "--id", "siou", "--omega", "16", "--sigma", "4",
                       "--n", "100", "--seed", "1", "--pdf", "histogram", "--bins", "4")
    assert code == 0 and out.startswith("criterion,omega,z,density\n")


@pytest.mark.parametrize("pdf", ["histogram", "kde"])
def test_simulate_pdf_single_sample_names_the_pdf_minimum(capsys, pdf):
    code, out, err = run(capsys, "simulate", "--id", "siou", "--omega", "16", "--sigma", "4",
                         "--n", "1", "--seed", "1", "--pdf", pdf)
    assert (code, out, err) == (2, "", "error: need at least 10 samples, got 1\n")


def test_theory_check_mc_single_sample_is_data_error(capsys):
    code, out, err = run(capsys, "theory", "--id", "iou", "--omega", "8", "--sigma", "8",
                         "--check-mc", "--n", "1", "--seed", "1")
    assert (code, out) == (2, "")
    assert "at least 2 samples" in err


# --- a number read from text is ASCII with no '_': float() and int() read '1_0' as 10 and '٣' as 3

NUMBER_ARGV = {
    "criterion": ["--a", "0,0,10,10", "--b", "0,0,10,10", "--id", "iou"],
    "shift-curve": ["--id", "iou", "--omega", "8", "--max-shift", "4"],
    "simulate": ["--id", "iou", "--omega", "8", "--sigma", "4", "--n", "100", "--seed", "1"],
    "moments": ["--id", "iou", "--omega", "8", "--sigma", "4", "--n", "100", "--seed", "1"],
    "theory": ["--id", "iou", "--omega", "8", "--sigma", "4"],
    "eval": ["--boxes", "boxes.json"],
    "rating": ["--ratings", "ratings.csv"],
    "order-check": ["--n", "10", "--seed", "1"],
}


def number_flags():
    """(command, option, type name) of every flag that argparse reads as a float or an int."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0], action.type.__name__)
            for command, sub in commands.choices.items() for action in sub._actions
            if getattr(action.type, "__name__", None) in ("float", "int")]


NUMBER_FLAGS = number_flags()


def test_every_command_has_number_flags():
    assert {command for command, _, _ in NUMBER_FLAGS} == set(NUMBER_ARGV)


@pytest.mark.parametrize("text", ["1_0", "٣"])  # the Arabic-Indic digit three
@pytest.mark.parametrize("command, option, kind", NUMBER_FLAGS, ids=[" ".join(f[:2]) for f in NUMBER_FLAGS])
def test_a_number_flag_is_ascii_without_underscores(capsys, command, option, kind, text):
    code, out, err = run(capsys, command, *NUMBER_ARGV[command], option, text)
    assert (code, out, err) == (1, "", f"error: scaleiou {command}: argument {option}: invalid {kind} value: {text!r}\n")


def test_a_number_list_flag_is_ascii_without_underscores(capsys, boxes_file):
    argv = ["moments", "--id", "iou", "--omega", "8,1_6", "--sigma", "4", "--n", "10", "--seed", "1"]
    assert run(capsys, *argv) == (1, "", "error: invalid number list '8,1_6'\n")
    assert run(capsys, "eval", "--boxes", boxes_file, "--thresholds", "0.5,0٧") == (
        1, "", "error: invalid number list '0.5,0٧'\n")


def test_a_box_flag_is_ascii_without_underscores(capsys):
    assert run(capsys, "criterion", "--a", "0,0,1_0,10", "--b", "0,0,10,10", "--id", "iou") == (
        1, "", "error: invalid box ['0', '0', '1_0', '10']: could not convert string to float: '1_0'\n")


@pytest.mark.parametrize("line", ["kappa=1_6", "gamma=0_5", "kappa=١٦", "kappa=\u200316", "kappa = 16_"])
def test_a_config_value_is_ascii_without_underscores(capsys, tmp_path, line):
    config = tmp_path / "scaleiou.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    raw = line.partition("=")[2]
    assert run(capsys, "order-check", "--n", "10", "--seed", "1", "--config", str(config)) == (
        2, "", f"error: {config}: line 1: invalid value {raw!r}\n")


@pytest.mark.parametrize("field, value, message", [
    ("bbox", ["0", "0", "1_0", "10"], "invalid box ['0', '0', '1_0', '10']: could not convert string to float: '1_0'"),
    ("score", "0_9", "invalid score '0_9': could not convert string to float: '0_9'"),
])
def test_a_boxes_file_number_string_is_ascii_without_underscores(capsys, tmp_path, field, value, message):
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps({"detections": [det(**{field: value})], "annotations": [gt()]}))
    assert run(capsys, "eval", "--boxes", str(path)) == (2, "", f"error: {path}: detections[0]: {message}\n")


@pytest.mark.parametrize("row, message", [
    ("٣,0,0,20,20,0,0,20,20,1,0,22", "invalid literal for int() with base 10: '٣'"),
    ("3_0,0,0,20,20,0,0,20,20,1,0,22", "invalid literal for int() with base 10: '3_0'"),
    ("3,0,0,2_0,20,0,0,20,20,1,0,22", "could not convert string to float: '2_0'"),
    ("3,0,0,٢٠,20,0,0,20,20,1,0,22", "could not convert string to float: '٢٠'"),
    ("3,0,0,20,20,0,0,20,20,1,0,2_2", "invalid age '2_2'"),
    ("3,0,0,20,20,0,0,20,20,1,0,٢٢", "invalid age '٢٢'"),
    ("3,0,0,20,20,0,0,20,20,1,0,\u200322", r"invalid age '\u200322'"),
])
def test_a_rating_csv_number_is_ascii_without_underscores(capsys, tmp_path, row, message):
    path = tmp_path / "ratings.csv"
    path.write_text(RATING_HEADER + row + "\n", encoding="utf-8")
    assert run(capsys, "rating", "--ratings", str(path), "--analysis", "groups") == (
        2, "", f"error: {path}: line 2: {message}\n")
