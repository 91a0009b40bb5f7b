"""File I/O for the CLI: detection/GT JSON, rating CSV, config file, and
table output.

Every input file is read whole as UTF-8 by `_read_text`. External box
coordinates are corner form (x_min, y_min, w, h) and converted to the
internal center form at this boundary. A table is a list of rows and a
tuple of column names; each row holds its values in column order, one per
column, and a row of another length is an error, not a padded cell. Tables
are written with that column order and 9-significant-digit number
formatting so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import io as _io
import json
import math
import sys
from array import array
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .criteria import FLOAT_MAX, check_range
from .errors import ParseError
from .evaluation import BoxTable
from .geometry import Box, InvalidRow, corner_to_center
from .rating import RatingTable, check_rating_row


def format_number(value) -> str:
    """A float to 9 significant digits, stable across platforms; any other value as str()."""
    return format(value, ".9g") if isinstance(value, float) else str(value)


def _read_text(path: str, newline: Optional[str] = None) -> str:
    """The whole file at path, decoded as UTF-8 with open()'s newline mode;
    a file that cannot be read or decoded is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc


_UNREADABLE = {float: "could not convert string to float: {!r}", int: "invalid literal for int() with base 10: {!r}"}


def read_number(text: str, kind: type = float):
    """kind(text) for kind float or int, where text is ASCII and holds no '_':
    Python's float() and int() also read digit-group underscores and non-ASCII
    digits and spaces. Other text raises the ValueError that kind raises."""
    if not text.isascii() or "_" in text:
        raise ValueError(_UNREADABLE[kind].format(text))
    return kind(text)


def load_config(path: str, keys: Sequence[str]) -> dict:
    """The key=value lines of a config file as {key: float}, for the given
    keys. Blank lines and lines starting with # are skipped; an error names
    the line."""
    values = {}
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {line_no}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ParseError(f"{path}: line {line_no}: unknown key {key!r}")
        try:
            values[key] = read_number(raw)
        except ValueError as exc:
            raise ParseError(f"{path}: line {line_no}: invalid value {raw!r}") from exc
    return values


def _number(value) -> float:
    """float(value) for a number, read_number(value) for a number string; a
    boolean is not a number."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not a number")
    return read_number(value) if isinstance(value, str) else float(value)


def _corner(bbox) -> list[float]:
    """The numbers of a corner-form box [x_min, y_min, w, h]: a list of four
    numbers, or of four number strings, that follows the Box rule. A
    ValueError names the box."""
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ValueError(f"box must be [x_min, y_min, w, h], got {bbox!r}")
    try:
        corner = [_number(v) for v in bbox]
        Box.from_corner(*corner)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        raise ValueError(f"invalid box {bbox!r}: {exc}") from exc
    return corner


def corner_box(bbox) -> Box:
    """A Box from corner form [x_min, y_min, w, h], as _corner reads it, for
    the boxes of `criterion --a/--b`. A ValueError names the box."""
    return Box.from_corner(*_corner(bbox))


def load_boxes(path: str) -> tuple[BoxTable, BoxTable]:
    """Load a detection/ground-truth JSON file as (detections, ground
    truths), one BoxTable per section, its rows in file order.

    Schema: an object with arrays "images" (ids or {"id": ...} objects),
    "annotations" ({image_id, category, bbox}), and "detections" (same plus
    "score"); bbox is corner form [x_min, y_min, w, h]. Each array may be
    left out, and is then empty. An id or category is a string or an
    integer, keyed by its text: one text may not come as both. An error
    names the first entry, in file order, that breaks a rule.

    Each section is read by column first (_box_columns: types checked on
    whole columns, each distinct key once by _key), and entry by entry only
    where that gives no table. The entry loop is the definition of the
    format: the column path returns its table bit for bit or nothing, so
    every error comes from the entry loop, which checks each entry's every
    rule, the Box rule too, before it reads the next.
    """
    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # beyond JSONDecodeError: a too long integer, too deep nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    sections = {key: data.get(key, []) for key in ("images", "annotations", "detections")}
    for key, section in sections.items():
        if not isinstance(section, list):
            raise ParseError(f"{path}: {key!r} must be an array")

    image_ids, categories = {}, {}  # key -> (value, entry) of its first use
    for i, image in enumerate(sections["images"]):
        where = f"images[{i}]"
        try:
            if isinstance(image, dict):
                if "id" not in image:
                    raise ValueError("missing field 'id'")
                image = image["id"]
            _key("id", image, image_ids, where)
        except ValueError as exc:
            raise ParseError(f"{path}: {where}: {exc}") from exc

    listed = bool(image_ids)
    tables = {}
    for key in ("annotations", "detections"):
        table = _box_columns(key, sections[key], image_ids, listed, categories)
        tables[key] = _box_entries(path, key, sections[key], image_ids, listed, categories) if table is None else table
    return tables["detections"], tables["annotations"]


def _box_columns(key: str, entries: list, image_ids: dict, listed: bool, categories: dict) -> Optional[BoxTable]:
    """The table of section key read by column, bit for bit the one
    _box_entries reads, or None where the entry loop must read it. The key
    maps gain the section's new keys only with its table. None on any doubt:
    - an entry that is not a dict, or that lacks a field;
    - a bbox that is not a list of 4;
    - a coordinate or score that is not a float or an int (a bool, None or
      a number string), or an int too large for a float;
    - a key that is not a string or an int, or that breaks _key's rule;
    - a row that breaks a BoxTable rule: a box that breaks the Box rule, or
      a non-finite score.
    """
    fields = ("image_id", "category", "bbox", "score")[:4 if key == "detections" else 3]
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        ids, cats, bboxes, *scores = ([entry[field] for entry in entries] for field in fields)
    except KeyError:
        return None
    if not set(map(type, bboxes)) <= {list} or not set(map(len, bboxes)) <= {4}:
        return None
    corners = list(chain(*bboxes))
    if not set(map(type, chain(corners, *scores))) <= {float, int}:
        return None
    if not set(map(type, chain(ids, cats))) <= _KEY_TYPES.keys():
        return None  # True == 1 would share the first entry of 1 in _column_keys
    new_ids, new_categories = dict(image_ids), dict(categories)
    try:
        keys = _column_keys("image_id", key, ids, new_ids, listed), _column_keys("category", key, cats, new_categories)
        table = _table(*keys, array("d", corners), *(array("d", column) for column in scores))
    except (OverflowError, ValueError):  # ValueError: _key's, or InvalidRow
        return None
    image_ids.update(new_ids)
    categories.update(new_categories)
    return table


def _column_keys(name: str, key: str, values: list, first: dict, listed: bool = False) -> list:
    """The keys of column name of section key, each a string or an integer:
    _key keys each distinct value once, at its first entry, so first gains
    what the entry loop adds, and raises where it raises on an entry."""
    for value, i in dict(zip(reversed(values), range(len(values) - 1, -1, -1))).items():  # first index of each
        _key(name, value, first, f"{key}[{i}]", listed)
    return values if set(map(type, values)) <= {str} else list(map(str, values))


def _box_entries(path: str, key: str, entries: list, image_ids: dict, listed: bool, categories: dict) -> BoxTable:
    """The table of section key read entry by entry, the definition of the
    format. Each entry is checked against every rule as it is read, so the
    first error raised names the first entry, in file order, that breaks one."""
    images, cats, corners = [], [], array("d")
    scores = array("d") if key == "detections" else None
    for i, entry in enumerate(entries):
        try:
            image, category, corner = _entry(entry, f"{key}[{i}]", image_ids, listed, categories)
            images.append(image)
            cats.append(category)
            corners.extend(corner)
            if scores is not None:
                scores.append(_score(entry))
        except ValueError as exc:
            raise ParseError(f"{path}: {key}[{i}]: {exc}") from exc
    return _table(images, cats, corners, scores)


def _table(image_ids: list, categories: list, corners: array, scores: Optional[array] = None) -> BoxTable:
    """The BoxTable of a section's keys, corner numbers and scores; InvalidRow names a row that breaks a rule."""
    return BoxTable(np.array(image_ids, dtype=object), np.array(categories, dtype=object),
                    corner_to_center(np.frombuffer(corners, dtype=float).reshape(-1, 4)),
                    None if scores is None else np.frombuffer(scores, dtype=float))


_KEY_TYPES = {str: "string", int: "integer"}


def _key(name: str, value, first: dict, where: str, listed: bool = False) -> str:
    """The key of an image id or a category: the text of value, which must be
    a JSON string or integer. first maps each key seen to its value and entry;
    a new key joins it, or with listed set is unknown. The text of an earlier
    value of the other type is a ValueError that names that entry."""
    if type(value) not in _KEY_TYPES:
        raise ValueError(f"invalid {name} {value!r}: must be a string or an integer")
    key = str(value)
    found = first.get(key)
    if found is None:
        if listed:
            raise ValueError(f"unknown {name} {key!r}")
        first[key] = (value, where)
    elif found[0] != value:
        earlier, earlier_where = found
        raise ValueError(f"{name} {value!r} has the text of the {_KEY_TYPES[type(earlier)]} "
                         f"{earlier!r} in {earlier_where}")
    return key


def _entry(entry, where: str, image_ids: dict, listed: bool, categories: dict) -> tuple[str, str, list[float]]:
    """The image key, category key and corner numbers of a boxes-file entry:
    its image id and category keyed by _key (listed when the file lists its
    images), its bbox read by _corner. A ValueError says what is wrong with
    it; the score is _score's."""
    if not isinstance(entry, dict):
        raise ValueError(f"must be an object, got {entry!r}")
    for key in ("image_id", "category", "bbox"):
        if key not in entry:
            raise ValueError(f"missing field {key!r}")
    image = _key("image_id", entry["image_id"], image_ids, where, listed)
    category = _key("category", entry["category"], categories, where)
    return image, category, _corner(entry["bbox"])


def _score(entry: dict) -> float:
    """The score of a detection entry, a finite number; a ValueError says what is wrong with it."""
    if "score" not in entry:
        raise ValueError("missing field 'score'")
    try:
        return check_range("score", _number(entry["score"]), -FLOAT_MAX, FLOAT_MAX)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid score {entry['score']!r}: {exc}") from exc


_RATING_REQUIRED = ("rating", "gt_x", "gt_y", "gt_w", "gt_h", "px", "py", "pw", "ph")
_RATING_OPTIONAL = ("context", "expertise", "age")
_FLAGS = {"1": 1.0, "true": 1.0, "yes": 1.0, "0": 0.0, "false": 0.0, "no": 0.0, "": math.nan}


def _optional_cell(name: str, raw: str) -> float:
    """A flag as 1.0 or 0.0, or an age; NaN when the cell is blank."""
    text = raw.strip().lower()
    try:
        return float(read_number(raw, int)) if name == "age" and text else _FLAGS[text]
    except (KeyError, ValueError, OverflowError):
        raise ValueError(f"invalid {name} {raw!r}") from None


def load_ratings(path: str) -> RatingTable:
    """Load a rating CSV with columns rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph
    and optional context,expertise,age. Box columns are corner form. A flag
    is 1/0, true/false or yes/no in any case; an empty cell is absent. Errors
    name the file line of the offending row.

    The file is read by column first (_rating_columns: one np.loadtxt call),
    and row by row (_rating_rows) only where that gives no table. The row
    loop is the definition of the format: the column path returns its table
    bit for bit or nothing, so every error comes from the row loop, which
    checks each row's every rule, the Box rule too, before it reads the next.
    """
    text = _read_text(path, newline="")
    table = _rating_columns(text)
    return _rating_rows(path, text) if table is None else table


# characters the column path leaves to the row loop, anywhere in the file:
# the csv quote; NUL, which csv.reader rejects before Python 3.11; and the
# separators \x1c-\x1f, which np.loadtxt strips around a number and float() does not
_ROW_LOOP_CHARS = ('"', "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _exact_rating(text: str) -> float:
    """A rating cell as the row loop reads it, as a float; one too large for
    a float to hold exactly is a ValueError, left to the row loop."""
    rating = read_number(text, int)
    if abs(rating) > 2**53:
        raise ValueError(f"rating {text!r} is left to the row loop")
    return float(rating)


def _rating_columns(text: str) -> Optional[RatingTable]:
    """The table of a rating CSV's text read by column, bit for bit the one
    _rating_rows reads, or None where the row loop must read it.

    np.loadtxt's C parser reads the box numbers: on ASCII text it reads a
    number as read_number does, and rejects one with a '_'. The rating, flag
    and age cells go through the row loop's own rules, each distinct text
    once. None on any doubt:
    - text the two readers could split or read apart: non-ASCII text (around
      a number np.loadtxt strips Unicode spaces), one of _ROW_LOOP_CHARS, a
      carriage return not before a newline (np.loadtxt rejects one inside a
      line), a line as long as csv.field_size_limit();
    - a missing column, or any np.loadtxt error: a cell that breaks a rule,
      a short row;
    - a row count other than the non-blank lines below the header;
    - a row that breaks a RatingTable rule.
    """
    head, _, body = text.partition("\n")
    header = head.removesuffix("\r")
    if not text.isascii() or "\r" in header or any(c in text for c in _ROW_LOOP_CHARS):
        return None
    column = {name: i for i, name in enumerate(header.split(","))}  # a repeated name means its last column
    if any(name not in column for name in _RATING_REQUIRED):
        return None
    lines = body.split("\n")
    rows = len(lines) - lines.count("") - lines.count("\r")  # csv.reader skips blank lines, as np.loadtxt does
    if not rows or max(len(head), *map(len, lines)) >= csv.field_size_limit():
        return None
    optional = [name for name in _RATING_OPTIONAL if name in column]
    readers = {"rating": _exact_rating, **{name: functools.partial(_optional_cell, name) for name in optional}}
    try:
        cells = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                           usecols=[column[name] for name in (*_RATING_REQUIRED, *optional)],
                           converters={column[name]: functools.cache(read) for name, read in readers.items()})
    except ValueError:
        return None
    if len(cells) != rows:
        return None
    values = np.full((rows, 11), math.nan)  # as _rating_rows lays them out, NaN for an absent column
    values[:, [*range(8), *(8 + _RATING_OPTIONAL.index(name) for name in optional)]] = cells[:, 1:]
    try:
        return _rating_table(cells[:, 0].astype(int), values)
    except InvalidRow:
        return None


def _rating_rows(path: str, text: str) -> RatingTable:
    """The table of a rating CSV's text read row by row with csv.reader, the
    definition of the format. Each row is checked against every rule as it
    is read: its cells parse, then check_rating_row, so the first error
    raised names the first broken rule, in file order, and its file line."""
    reader = csv.reader(_io.StringIO(text, newline=""))
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
        ratings, values = [], array("d")
        for row in reader:
            if not row:
                continue  # a blank line
            row += [""] * (len(header) - len(row))
            try:
                rating = read_number(row[column["rating"]], int)
                fields = [read_number(row[i]) for i in numbers]
                fields += [math.nan if i is None else _optional_cell(name, row[i]) for name, i in optional]
                check_rating_row(Box.from_corner, rating, fields[:4], fields[4:8])
            except ValueError as exc:
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
            ratings.append(rating)
            values.extend(fields)
    except csv.Error as exc:  # an oversized field
        raise ParseError(f"{path}: {exc}") from exc
    return _rating_table(np.array(ratings, dtype=int), np.array(values, dtype=float).reshape(-1, 11))


def _rating_table(rating: np.ndarray, values: np.ndarray) -> RatingTable:
    """The RatingTable of the ratings and the (N, 11) rows of 8 corner-form
    box fields and the 3 optionals; InvalidRow names a row that breaks a rule."""
    center = corner_to_center(values[:, :8].reshape(-1, 2, 4))
    return RatingTable(rating, center[:, 0], center[:, 1], *values[:, 8:].T)


def render_table(rows: Sequence[Sequence], fmt: str, columns: Sequence[str]) -> str:
    """Render rows as CSV or JSON text with deterministic formatting. Each
    row holds its values in column order; a row of another length than
    columns is a ValueError, in either format."""
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"a table row has {len(row)} values for the {len(columns)} columns {tuple(columns)}")
    if fmt == "csv":
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_number(v) for v in row] for row in rows)
        return buf.getvalue()
    if fmt == "json":
        payload = [
            {c: float(format_number(v)) if isinstance(v, float) else v for c, v in zip(columns, row)} for row in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def write_table(rows: Sequence[Sequence], path: Optional[str], fmt: str, columns: Sequence[str]) -> None:
    """Write a table of value rows (see render_table) to path, or stdout when
    path is None. The text is fully rendered before any file is opened, so
    failures leave no partial output."""
    write_text(render_table(rows, fmt, columns), path)


def write_text(text: str, path: Optional[str]) -> None:
    """Write text to path, or stdout when path is None. A path that cannot be
    written (a missing directory, a directory, no permission) is a
    ValueError naming it, since the path is a flag value."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
