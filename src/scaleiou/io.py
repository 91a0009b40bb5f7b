"""File I/O for the CLI: detection/GT JSON, rating CSV, and table output.

External box coordinates are corner form (x_min, y_min, w, h) and converted
to the internal center form at this boundary. Tables are written with a fixed
column order and 9-significant-digit number formatting so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import sys
from array import array
from typing import Optional, Sequence

import numpy as np

from .criteria import FLOAT_MAX, check_range
from .errors import ParseError
from .evaluation import DetectionRecord, GroundTruthRecord
from .geometry import Box
from .rating import InvalidRow, RatingTable


def format_number(value) -> str:
    """9 significant digits, stable across platforms."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return format(value, ".9g")


def _corner_box(bbox, where: str) -> Box:
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ParseError(f"{where}: bbox must be [x_min, y_min, w, h], got {bbox!r}")
    try:
        return Box.from_corner(*(float(v) for v in bbox))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: invalid bbox {bbox!r}: {exc}") from exc


def load_boxes(path: str) -> tuple[list[DetectionRecord], list[GroundTruthRecord]]:
    """Load a detection/ground-truth JSON file.

    Schema: an object with arrays "images" (ids or {"id": ...} objects),
    "annotations" ({image_id, category, bbox}), and "detections" (same plus
    "score"); bbox is corner form [x_min, y_min, w, h].
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")

    image_ids = set()
    for i, image in enumerate(data.get("images", [])):
        if isinstance(image, dict) and "id" not in image:
            raise ParseError(f"{path}: images[{i}]: missing field 'id'")
        image_ids.add(str(image["id"]) if isinstance(image, dict) else str(image))

    def common_fields(entry, where):
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object, got {entry!r}")
        for key in ("image_id", "category", "bbox"):
            if key not in entry:
                raise ParseError(f"{where}: missing field {key!r}")
        image_id = str(entry["image_id"])
        if image_ids and image_id not in image_ids:
            raise ParseError(f"{where}: unknown image_id {image_id!r}")
        return image_id, str(entry["category"]), _corner_box(entry["bbox"], where)

    ground_truths = []
    for i, entry in enumerate(data.get("annotations", [])):
        where = f"{path}: annotations[{i}]"
        image_id, category, box = common_fields(entry, where)
        ground_truths.append(GroundTruthRecord(image_id, category, box))

    detections = []
    for i, entry in enumerate(data.get("detections", [])):
        where = f"{path}: detections[{i}]"
        image_id, category, box = common_fields(entry, where)
        if "score" not in entry:
            raise ParseError(f"{where}: missing field 'score'")
        try:
            score = check_range("score", float(entry["score"]), -FLOAT_MAX, FLOAT_MAX)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: invalid score {entry['score']!r}: {exc}") from exc
        detections.append(DetectionRecord(image_id, category, box, score))

    return detections, ground_truths


_RATING_REQUIRED = ("rating", "gt_x", "gt_y", "gt_w", "gt_h", "px", "py", "pw", "ph")
_RATING_OPTIONAL = ("context", "expertise", "age")
_FLAGS = {"1": 1.0, "true": 1.0, "yes": 1.0, "0": 0.0, "false": 0.0, "no": 0.0, "": math.nan}


def _optional_cell(name: str, raw: str) -> float:
    """A flag as 1.0 or 0.0, or an age; NaN when the cell is blank."""
    text = raw.strip().lower()
    try:
        return float(int(text)) if name == "age" and text else _FLAGS[text]
    except (KeyError, ValueError, OverflowError):
        raise ValueError(f"invalid {name} {raw!r}") from None


def load_ratings(path: str) -> RatingTable:
    """Load a rating CSV with columns rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph
    and optional context,expertise,age. Box columns are corner form. A flag
    is 1/0, true/false or yes/no in any case; an empty cell is absent. Errors
    name the file line of the offending row."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: missing CSV header")
            column = {name: i for i, name in enumerate(header)}  # a repeated name means its last column
            for col in _RATING_REQUIRED:
                if col not in column:
                    raise ParseError(f"{path}: missing column {col!r}")
            numbers = [column[c] for c in _RATING_REQUIRED[1:]]
            optional = [(name, column.get(name)) for name in _RATING_OPTIONAL]
            # per row: 8 corner-form box fields, then the 3 optionals
            lines, ratings, values = [], [], array("d")
            for row in reader:
                if not row:
                    continue  # a blank line
                row += [""] * (len(header) - len(row))
                try:
                    rating = int(row[column["rating"]])
                    fields = [float(row[i]) for i in numbers]
                    fields += [math.nan if i is None else _optional_cell(name, row[i]) for name, i in optional]
                except ValueError as exc:
                    _rating_table(path, lines, ratings, values)  # a rule broken on an earlier row comes first
                    raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
                lines.append(reader.line_num)
                ratings.append(rating)
                values.extend(fields)
        except (csv.Error, UnicodeDecodeError) as exc:  # an oversized field, or bytes that are not UTF-8
            raise ParseError(f"{path}: {exc}") from exc
    return _rating_table(path, lines, ratings, values)


def _rating_table(path: str, lines: list[int], ratings: list[int], values: array) -> RatingTable:
    """The table of the parsed rows; a row that breaks a rule is a ParseError naming its line."""
    values = np.array(values, dtype=float).reshape(-1, 11)
    corner = values[:, :8].reshape(-1, 2, 4)
    # to center form, as Box.from_corner: x_min + w / 2, y_min + h / 2
    center = np.concatenate([corner[:, :, :2] + corner[:, :, 2:] / 2, corner[:, :, 2:]], axis=2)
    try:
        rating = np.array(ratings, dtype=int)
    except OverflowError:
        rating = np.array(ratings, dtype=object)  # exact, for the rating rule to reject
    try:
        return RatingTable(rating, center[:, 0], center[:, 1], *values[:, 8:].T)
    except InvalidRow as exc:
        raise ParseError(f"{path}: line {lines[exc.row]}: {exc.reason}") from exc


def render_table(rows: Sequence[dict], fmt: str, columns: Sequence[str]) -> str:
    """Render rows as CSV or JSON text with deterministic formatting."""
    if fmt == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_number(row.get(c, "")) for c in columns])
        return buf.getvalue()
    if fmt == "json":
        payload = []
        for row in rows:
            out = {}
            for c in columns:
                v = row.get(c)
                if isinstance(v, float):
                    v = float(format_number(v))
                out[c] = v
            payload.append(out)
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def write_table(rows: Sequence[dict], path: Optional[str], fmt: str, columns: Sequence[str]) -> None:
    """Write a table to path, or stdout when path is None. The text is fully
    rendered before any file is opened, so failures leave no partial output."""
    write_text(render_table(rows, fmt, columns), path)


def write_text(text: str, path: Optional[str]) -> None:
    """Write text to path, or stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
