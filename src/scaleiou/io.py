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
from typing import Optional, Sequence

from .errors import ParseError
from .evaluation import DetectionRecord, GroundTruthRecord
from .geometry import Box
from .rating import RatingRecord


def format_number(value) -> str:
    """9 significant digits, stable across platforms."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return format(value, ".9g")


# Largest coordinate magnitude accepted from a boxes file: the union and hull
# areas of any two such boxes stay finite, so no criterion overflows.
MAX_COORDINATE = 1e150


def _corner_box(bbox, where: str) -> Box:
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ParseError(f"{where}: bbox must be [x_min, y_min, w, h], got {bbox!r}")
    try:
        x_min, y_min, w, h = (float(v) for v in bbox)
        box = Box.from_corner(x_min, y_min, w, h)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: invalid bbox {bbox!r}: {exc}") from exc
    if not (max(abs(x_min), abs(y_min), w, h) <= MAX_COORDINATE and w * h > 0):
        raise ParseError(f"{where}: bbox {bbox!r} out of range: beyond +-{MAX_COORDINATE:g} or area 0")
    return box


def load_boxes(path: str) -> tuple[list[DetectionRecord], list[GroundTruthRecord]]:
    """Load a detection/ground-truth JSON file.

    Schema: an object with arrays "images" (ids or {"id": ...} objects),
    "annotations" ({image_id, category, bbox}), and "detections" (same plus
    "score"); bbox is corner form [x_min, y_min, w, h].
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
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
            score = float(entry["score"])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}: invalid score {entry['score']!r}") from exc
        if not math.isfinite(score):
            raise ParseError(f"{where}: score must be finite, got {entry['score']!r}")
        detections.append(DetectionRecord(image_id, category, box, score))

    return detections, ground_truths


_RATING_REQUIRED = ("rating", "gt_x", "gt_y", "gt_w", "gt_h", "px", "py", "pw", "ph")
_RATING_OPTIONAL = ("context", "expertise", "age")


def load_ratings(path: str) -> list[RatingRecord]:
    """Load a rating CSV with columns rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph
    and optional context,expertise,age. Box columns are corner form."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: missing CSV header")
        for col in _RATING_REQUIRED:
            if col not in reader.fieldnames:
                raise ParseError(f"{path}: missing column {col!r}")
        records = []
        for line_no, row in enumerate(reader, start=2):
            where = f"{path}: line {line_no}"
            try:
                rating = int(row["rating"])
                gt = Box.from_corner(
                    float(row["gt_x"]), float(row["gt_y"]),
                    float(row["gt_w"]), float(row["gt_h"]),
                )
                proposal = Box.from_corner(
                    float(row["px"]), float(row["py"]),
                    float(row["pw"]), float(row["ph"]),
                )
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{where}: {exc}") from exc

            def optional(name, convert):
                raw = row.get(name)
                if raw is None or raw == "":
                    return None
                try:
                    return convert(raw)
                except ValueError as exc:
                    raise ParseError(f"{where}: invalid {name} {raw!r}") from exc

            try:
                record = RatingRecord(
                    rating=rating,
                    gt_box=gt,
                    proposal_box=proposal,
                    context=optional("context", lambda v: v.strip().lower() in ("1", "true", "yes")),
                    expertise=optional("expertise", lambda v: v.strip().lower() in ("1", "true", "yes")),
                    age=optional("age", int),
                )
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from exc
            records.append(record)
    return records


def render_table(rows: Sequence[dict], fmt: str = "csv", columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV or JSON text with deterministic formatting."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
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


def write_table(
    rows: Sequence[dict],
    path: Optional[str],
    fmt: str = "csv",
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Write a table to path, or stdout when path is None. The text is fully
    rendered before any file is opened, so failures leave no partial output."""
    text = render_table(rows, fmt, columns)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
