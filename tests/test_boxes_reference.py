"""io.load_boxes against a frozen copy of its earlier, record-based code.

The reference below built one record, with one Box, per entry of a boxes
file. load_boxes now reads each section into one BoxTable, converts all the
corner-form boxes in one array operation and checks the Box rule on the
columns. It reads a section by column first (io._box_columns) and entry by
entry only where that gives no table. On valid documents the two must read
the same image and category keys and the same center boxes and scores, bit
for bit. On documents with one to three broken entries, anywhere in any
section, they must raise the same ParseError text: the first broken rule in
file order wins. Named cases pin which path reads each section, and a
document of JSON numbers and string or integer keys only must take the
column path exactly where the reference reads it.
"""

import importlib.util
import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleiou import Box, ParseError
from scaleiou import io as scaleiou_io
from scaleiou.criteria import FLOAT_MAX, check_range
from scaleiou.io import _read_text, load_boxes, read_number
from tests.test_eval_report import boxes_document


# --- reference: the earlier record-based loader ---

@dataclass(frozen=True)
class _RefRecord:
    image_id: str
    category: str
    box: Box
    score: Optional[float] = None


def _ref_number(value):
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not a number")
    return read_number(value) if isinstance(value, str) else float(value)


def _ref_corner_box(bbox):
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise ValueError(f"box must be [x_min, y_min, w, h], got {bbox!r}")
    try:
        return Box.from_corner(*(_ref_number(v) for v in bbox))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid box {bbox!r}: {exc}") from exc


_REF_KEY_TYPES = {str: "string", int: "integer"}


def _ref_key(name, value, first, where, listed=False):
    if type(value) not in _REF_KEY_TYPES:
        raise ValueError(f"invalid {name} {value!r}: must be a string or an integer")
    key = str(value)
    found = first.get(key)
    if found is None:
        if listed:
            raise ValueError(f"unknown {name} {key!r}")
        first[key] = (value, where)
    elif found[0] != value:
        earlier, earlier_where = found
        raise ValueError(f"{name} {value!r} has the text of the {_REF_KEY_TYPES[type(earlier)]} "
                         f"{earlier!r} in {earlier_where}")
    return key


def _ref_record(entry, where, image_ids, listed, categories, scored):
    if not isinstance(entry, dict):
        raise ValueError(f"must be an object, got {entry!r}")
    for key in ("image_id", "category", "bbox"):
        if key not in entry:
            raise ValueError(f"missing field {key!r}")
    fields = (_ref_key("image_id", entry["image_id"], image_ids, where, listed),
              _ref_key("category", entry["category"], categories, where), _ref_corner_box(entry["bbox"]))
    if not scored:
        return _RefRecord(*fields)
    if "score" not in entry:
        raise ValueError("missing field 'score'")
    try:
        score = check_range("score", _ref_number(entry["score"]), -FLOAT_MAX, FLOAT_MAX)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid score {entry['score']!r}: {exc}") from exc
    return _RefRecord(*fields, score)


def _ref_load_boxes(path):
    try:
        data = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    sections = {key: data.get(key, []) for key in ("images", "annotations", "detections")}
    for key, section in sections.items():
        if not isinstance(section, list):
            raise ParseError(f"{path}: {key!r} must be an array")
    image_ids, categories = {}, {}
    for i, image in enumerate(sections["images"]):
        where = f"images[{i}]"
        try:
            if isinstance(image, dict):
                if "id" not in image:
                    raise ValueError("missing field 'id'")
                image = image["id"]
            _ref_key("id", image, image_ids, where)
        except ValueError as exc:
            raise ParseError(f"{path}: {where}: {exc}") from exc
    listed = bool(image_ids)
    records = {"annotations": [], "detections": []}
    for key, found in records.items():
        for i, entry in enumerate(sections[key]):
            where = f"{key}[{i}]"
            try:
                found.append(_ref_record(entry, where, image_ids, listed, categories, scored=key == "detections"))
            except ValueError as exc:
                raise ParseError(f"{path}: {where}: {exc}") from exc
    return records["detections"], records["annotations"]


# --- documents ---

# each key text comes with one type only, so a valid document has no clash
IMAGE_IDS = ["a", "b", "img 7", "", "été", "a\u0000", 1, 2, 30, -4]
CATEGORIES = ["cat", "dog", "traffic light", 5, 60]


def as_text(number):
    """A number string that read_number reads as the number."""
    return repr(float(number)) if isinstance(number, float) else str(number)


def number(values, integers):
    """A float from values or an int from integers, either as is or as text."""
    return st.one_of(values, values.map(as_text), integers, integers.map(str))


coordinate = number(st.floats(-1e6, 1e6, allow_nan=False), st.integers(-1000, 1000))
side = st.one_of(number(st.floats(1e-3, 1e6), st.integers(1, 1000)), st.floats(1e-60, 1e60), st.just(1e150))
score = number(st.floats(-1e300, 1e300, allow_nan=False), st.integers(-10 ** 30, 10 ** 30))


@st.composite
def entries(draw, scored):
    images = draw(st.lists(st.sampled_from(IMAGE_IDS), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(n):
        row = {"image_id": draw(st.sampled_from(images)), "category": draw(st.sampled_from(CATEGORIES)),
               "bbox": [draw(coordinate), draw(coordinate), draw(side), draw(side)]}
        if scored:
            row["score"] = draw(score)
        rows.append(row)
    return rows


@st.composite
def valid_documents(draw):
    annotations, detections = draw(entries(False)), draw(entries(True))
    used = {e["image_id"] for e in annotations + detections}
    doc = {"annotations": annotations, "detections": detections}
    if draw(st.booleans()):  # list the images: every used id and maybe more
        ids = sorted(used | set(draw(st.lists(st.sampled_from(IMAGE_IDS)))), key=str)
        doc["images"] = [draw(st.sampled_from([i, {"id": i}])) for i in ids]
    for key in ("images", "annotations", "detections"):
        if key in doc and not doc[key] and draw(st.booleans()):
            del doc[key]  # a missing section reads as an empty one
    return doc


# broken entry kinds: a function of (entry, scored, order) -> broken entry,
# where order grows with the entry's position in the file
BREAKS = {
    "not an object": lambda e, scored, k: [3, "x", None, [1, 2]][k % 4],
    "missing image_id": lambda e, scored, k: {f: v for f, v in e.items() if f != "image_id"},
    "missing bbox": lambda e, scored, k: {f: v for f, v in e.items() if f != "bbox"},
    "missing score": lambda e, scored, k: {f: v for f, v in e.items() if f != "score"},
    "id type": lambda e, scored, k: {**e, "image_id": [1.5, None, True, [1]][k % 4]},
    "category type": lambda e, scored, k: {**e, "category": [2.0, False, {"c": 1}][k % 3]},
    "id text clash": lambda e, scored, k: {**e, "image_id": "1"},
    "category text clash": lambda e, scored, k: {**e, "category": "5"},
    "unknown image": lambda e, scored, k: {**e, "image_id": "not listed"},
    "bbox shape": lambda e, scored, k: {**e, "bbox": [[1, 2, 3], "0,0,1,1", {"x": 1}, []][k % 4]},
    "bbox component": lambda e, scored, k: {**e, "bbox": e["bbox"][:1] + [[True, "1_0", "x", None, 10 ** 400][k % 5]]
                                            + e["bbox"][2:]},
    # box rule: each break grows with the position, so the row of an earlier
    # break is not the extreme of its column when a later one breaks the same way
    "x out of range": lambda e, scored, k: {**e, "bbox": [2e150 * (k + 1)] + e["bbox"][1:]},
    "y out of range": lambda e, scored, k: {**e, "bbox": e["bbox"][:1] + [-3e150 * (k + 1)] + e["bbox"][2:]},
    "w not positive": lambda e, scored, k: {**e, "bbox": e["bbox"][:2] + [-k, e["bbox"][3]]},
    "h too large": lambda e, scored, k: {**e, "bbox": e["bbox"][:3] + [1e151 * (k + 1)]},
    "area rounds to 0": lambda e, scored, k: {**e, "bbox": e["bbox"][:2] + [1e-170 / (k + 1), 1e-170]},
    "center overflows": lambda e, scored, k: {**e, "bbox": [1.7e308, 0, 1e308, 1]},
    "score": lambda e, scored, k: {**e, "score": ["nan", "-inf", True, "abc", 10 ** 400, 1e309][k % 6]},
}
BOX_RULE_BREAKS = ["x out of range", "y out of range", "w not positive", "h too large", "area rounds to 0",
                   "center overflows"]
IMAGE_BREAKS = {
    "missing id": lambda image, k: {"file": "a.jpg"},
    "id type": lambda image, k: [1.5, None, False][k % 3],
    "id text clash": lambda image, k: "1",
}


@st.composite
def broken_documents(draw):
    """A valid document with 1 to 3 entries broken, each in a way that is an
    error wherever it stands. The first annotation, and the first image of a
    listed document, hold the integers 1 and 5 that the text clashes clash
    with, and are not broken."""
    doc = {"images": [], "annotations": [], "detections": [], **draw(valid_documents())}
    listed = bool(doc["images"])
    if listed:
        doc["images"] = [1] + doc["images"]
    doc["annotations"] = [{"image_id": 1, "category": 5, "bbox": [0, 0, 10, 10]}] + doc["annotations"]
    doc["detections"] = doc["detections"] or [{"image_id": 1, "category": 5, "bbox": [0, 0, 10, 10], "score": 1}]
    positions = [(key, i) for key in ("images", "annotations", "detections") for i in range(len(doc[key]))
                 if i or key == "detections"]
    # half the breaks repeat one box-rule kind, so that a later break of the
    # same column, not the first, is often that column's extreme
    repeated = draw(st.sampled_from(BOX_RULE_BREAKS))
    for order, (key, i) in enumerate(sorted(draw(st.lists(st.sampled_from(positions), min_size=1, max_size=3,
                                                          unique=True)), key=positions.index)):
        if key == "images":
            doc[key][i] = IMAGE_BREAKS[draw(st.sampled_from(sorted(IMAGE_BREAKS)))](doc[key][i], order)
        else:
            scored = key == "detections"
            kinds = [kind for kind in BREAKS if (scored or "score" not in kind) and (listed or "unknown" not in kind)]
            kind = repeated if draw(st.booleans()) else draw(st.sampled_from(kinds))
            doc[key][i] = BREAKS[kind](doc[key][i], scored, order)
    return doc


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boxes") / "boxes.json"


@settings(max_examples=400, deadline=None)
@given(doc=valid_documents())
def test_valid_documents_read_as_the_reference_reads_them(doc_path, doc):
    path = write(doc_path, doc)
    detections, ground_truths = load_boxes(path)
    ref_detections, ref_ground_truths = _ref_load_boxes(path)
    for table, records in ((detections, ref_detections), (ground_truths, ref_ground_truths)):
        assert len(table) == len(records)
        assert table.image_id.tolist() == [r.image_id for r in records]
        assert table.category.tolist() == [r.category for r in records]
        assert table.box.shape == (len(records), 4)
        assert bits(table.box.ravel().tolist()) == bits(v for r in records for v in r.box.components())
    assert ground_truths.score is None
    assert bits(detections.score.tolist()) == bits(r.score for r in ref_detections)


def reference_error(path):
    with pytest.raises(ParseError) as info:
        _ref_load_boxes(path)
    return str(info.value)


@settings(max_examples=600, deadline=None)
@given(doc=broken_documents())
# a box-rule break before an entry that breaks another rule: the box comes first
@example(doc={"annotations": [{"image_id": "a", "category": "c", "bbox": [0, 0, 5, 5]},
                              {"image_id": "a", "category": "c", "bbox": [0, 0, -1, 5]},
                              {"image_id": "a", "category": "c", "bbox": [0, 0, 5, 5]},
                              {"image_id": 1.5, "category": "c", "bbox": [0, 0, 5, 5]}]})
# an earlier box-rule break that is not its column's extreme
@example(doc={"annotations": [{"image_id": "a", "category": "c", "bbox": [0, 0, 5, 5]},
                              {"image_id": "a", "category": "c", "bbox": [2e150, 0, 5, 5]},
                              {"image_id": "a", "category": "c", "bbox": [4e150, 0, 5, 5]}]})
# a box-rule break before an entry of the next section that breaks another rule
@example(doc={"annotations": [{"image_id": "a", "category": "c", "bbox": [2e150, 0, 5, 5]}],
              "detections": [{"image_id": "a", "category": "c", "bbox": [0, 0, 5, 5]}]})
@example(doc={"annotations": [{"image_id": "a", "category": "c", "bbox": [0, 0, 5, 5]}],
              "detections": [{"image_id": "a", "category": "c", "bbox": [0, 0, 5, 1e-170], "score": 1},
                             {"image_id": "a", "category": "c", "bbox": [0, 0, 5, 5], "score": "x"}]})
# an entry's own box breaks the rule and its score is missing: the box comes first
@example(doc={"detections": [{"image_id": "a", "category": "c", "bbox": [0, 0, 0, 5]}]})
def test_broken_documents_raise_the_reference_error(doc_path, doc):
    path = write(doc_path, doc)
    want = reference_error(path)
    with pytest.raises(ParseError) as info:
        load_boxes(path)
    assert str(info.value) == want


# --- the column path ---

def columns(table):
    """A BoxTable's keys and, as bits, its center boxes and scores."""
    score = None if table.score is None else bits(table.score.tolist())
    return table.image_id.tolist(), table.category.tolist(), bits(table.box.ravel().tolist()), score


def record_columns(records, scored):
    """The columns of the reference's records, as columns() gives them."""
    score = bits(r.score for r in records) if scored else None
    return ([r.image_id for r in records], [r.category for r in records],
            bits(v for r in records for v in r.box.components()), score)


def outcome(path):
    """What load_boxes reads from path: the columns of both tables, or the error text."""
    try:
        detections, ground_truths = load_boxes(path)
    except ParseError as exc:
        return "error", str(exc)
    return "tables", columns(detections), columns(ground_truths)


def reference_outcome(path):
    """What the reference reads from path, as outcome() gives it."""
    try:
        detections, ground_truths = _ref_load_boxes(path)
    except ParseError as exc:
        return "error", str(exc)
    return "tables", record_columns(detections, True), record_columns(ground_truths, False)


@contextmanager
def paths_taken():
    """The sections read while it is open, in order, each with the path that
    gave its table: "columns" (io._box_columns) or "entries" (the entry loop)."""
    taken, read_columns = [], scaleiou_io._box_columns

    def spy(key, *args):
        table = read_columns(key, *args)
        taken.append((key, "entries" if table is None else "columns"))
        return table

    with mock.patch.object(scaleiou_io, "_box_columns", spy):
        yield taken


BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def bench_boxes(directory):
    spec = importlib.util.spec_from_file_location("gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write_eval_inputs(1, directory)["boxes"]


@pytest.mark.parametrize("source", ["bench", "eval report"])
def test_the_column_path_reads_the_bench_and_report_documents(tmp_path, source):
    """The bench file lists its images as {"id": ...} objects, with string
    ids and float corners; the eval report document holds integer corners."""
    path = bench_boxes(tmp_path) if source == "bench" else write(tmp_path / "boxes.json", boxes_document())
    want = reference_outcome(path)
    assert want[0] == "tables"

    def no_entry_loop(*args):
        raise AssertionError(f"{path} was read entry by entry")

    with mock.patch.object(scaleiou_io, "_entry", no_entry_loop):
        assert outcome(path) == want


def entry(image_id="a", category="c", bbox=(0, 0, 10, 10), score=None, drop=()):
    """An annotation, or a detection when score is given, without the fields in drop."""
    row = {"image_id": image_id, "category": category, "bbox": list(bbox) if isinstance(bbox, tuple) else bbox}
    if score is not None:
        row["score"] = score
    return {f: v for f, v in row.items() if f not in drop}


# name -> (document, the path that reads each section read, in order)
NAMED = {
    "bool coordinate": ({"annotations": [entry(), entry(bbox=(0, 0, True, 10))]}, ["entries"]),
    "bool score": ({"annotations": [entry()], "detections": [entry(score=0.5), entry(score=True)]},
                   ["columns", "entries"]),
    "number-string coordinate": ({"annotations": [entry(bbox=(0, "12", 10, 10))], "detections": [entry(score=1)]},
                                 ["entries", "columns"]),
    "number-string score": ({"detections": [entry(score="0.5")]}, ["columns", "entries"]),
    "digit-group underscore": ({"annotations": [entry(bbox=(0, "1_0", 10, 10))]}, ["entries"]),
    "null coordinate": ({"annotations": [entry(bbox=(0, None, 10, 10))]}, ["entries"]),
    "id text clash within a section": ({"detections": [entry(image_id="1", score=1), entry(image_id=1, score=1),
                                                       entry(image_id="1", score=1)]}, ["columns", "entries"]),
    "id text clash across sections": ({"annotations": [entry(image_id=1)],
                                       "detections": [entry(image_id="1", score=1)]}, ["columns", "entries"]),
    "category text clash across sections": ({"annotations": [entry(category=5), entry(category=5)],
                                             "detections": [entry(category="5", score=1)]}, ["columns", "entries"]),
    "id clash with a listed image": ({"images": [{"id": 7}], "annotations": [entry(image_id="7")]}, ["entries"]),
    "unknown image in a listed file": ({"images": ["a", "b"], "annotations": [entry(), entry(image_id="z")]},
                                       ["entries"]),
    "float id": ({"annotations": [entry(image_id=1.0)]}, ["entries"]),
    # True == 1, so a column keyed by value alone would read true as the key of 1
    "true id after 1": ({"annotations": [entry(image_id=1), entry(image_id=True)]}, ["entries"]),
    "true id before 1": ({"annotations": [entry(image_id=True), entry(image_id=1)]}, ["entries"]),
    "true category after 5": ({"annotations": [entry(category=5), entry(category=True)]}, ["entries"]),
    "listed integer ids": ({"images": [1, {"id": 2}], "annotations": [entry(image_id=2), entry(image_id=1)],
                            "detections": [entry(image_id=1, category=3, score=-2)]}, ["columns", "columns"]),
    "non-object entry": ({"annotations": [entry(), [0, 0, 10, 10]]}, ["entries"]),
    "missing category": ({"annotations": [entry(), entry(drop=("category",))]}, ["entries"]),
    "missing score": ({"detections": [entry(score=1), entry()]}, ["columns", "entries"]),
    "3-element bbox": ({"annotations": [entry(bbox=(0, 0, 10))]}, ["entries"]),
    "bbox as an object": ({"annotations": [entry(bbox={"x": 0})]}, ["entries"]),
    "integer beyond the float range": ({"annotations": [entry(bbox=(0, 0, 10 ** 400, 10))]}, ["entries"]),
    "integer score beyond the float range": ({"detections": [entry(score=10 ** 400)]}, ["columns", "entries"]),
    "largest integer a float holds": ({"detections": [entry(score=2 ** 1024 - 2 ** 970 - 1)]}, ["columns", "columns"]),
    "infinite score": ({"detections": [entry(score=1), entry(score=float("inf"))]}, ["columns", "entries"]),
    "NaN score": ({"detections": [entry(score=float("nan"))]}, ["columns", "entries"]),
    "infinite coordinate": ({"annotations": [entry(bbox=(float("-inf"), 0, 10, 10))]}, ["entries"]),
    "broken Box rule": ({"annotations": [entry(), entry(bbox=(0, 0, -1, 10)), entry(bbox=(0, 0, 10, 0))]},
                        ["entries"]),
    "center overflows": ({"detections": [entry(bbox=(1.7e308, 0, 1e308, 1), score=1)]}, ["columns", "entries"]),
    "Box-rule break, then a later entry's parse error": (
        {"annotations": [entry(), entry(bbox=(0, 0, -1, 10)), entry(image_id=1.5)]}, ["entries"]),
    "Box-rule break and a true score on one detection": (
        {"detections": [entry(bbox=(0, 0, 0, 5), score=True)]}, ["columns", "entries"]),
    "empty sections": ({"images": [], "annotations": [], "detections": []}, ["columns", "columns"]),
    "sections left out": ({}, ["columns", "columns"]),
    "a section left out": ({"detections": [entry(score=0.25)]}, ["columns", "columns"]),
    # the entry loop reads annotations after a failed column attempt, which
    # leaves the key maps as it found them; the detections clash then names
    # the first annotation of the integer 1
    "failed column attempt, then a detections error": (
        {"annotations": [entry(image_id="a", bbox=(0, 0, "12", 10)), entry(image_id=1), entry(image_id=1)],
         "detections": [entry(image_id=1, score=1), entry(image_id="1", score=1)]}, ["entries", "entries"]),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_documents_read_as_the_reference_reads_them(doc_path, name):
    doc, want_paths = NAMED[name]
    path = write(doc_path, doc)
    with paths_taken() as taken:
        got = outcome(path)
    assert got == reference_outcome(path)
    assert taken == list(zip(("annotations", "detections"), want_paths))


# numbers that break a rule in some field (a side of 0 or -1, a number out of
# range, a non-finite one, an int too large for a float) or lie at its edge
ODD_NUMBERS = [0, -1, 1e-170, 1e151, 1.7e308, float("inf"), float("-inf"), float("nan"), 10 ** 400,
               2 ** 1024 - 2 ** 970 - 1]
# "1" and "5" clash with the keys 1 and 5; 3 is unknown where images are listed
ODD_KEYS = ["1", "5", 3]


@st.composite
def numeric_documents(draw):
    """Documents of JSON numbers and str or int keys only: each entry has
    every field and each bbox four numbers. Half of them have one number
    replaced by one of ODD_NUMBERS, or one key by one of ODD_KEYS."""
    doc = {key: [entry(image_id=draw(st.sampled_from(["a", "b", 1])), category=draw(st.sampled_from(["c", 5])),
                       bbox=[draw(st.one_of(st.floats(-1e6, 1e6), st.integers(-1000, 1000))) for _ in range(2)]
                       + [draw(st.one_of(st.floats(1e-3, 1e6), st.integers(1, 1000))) for _ in range(2)],
                       score=draw(st.one_of(st.floats(-1e300, 1e300), st.integers(-10 ** 30, 10 ** 30)))
                       if key == "detections" else None)
                 for _ in range(draw(st.integers(0, 4)))]
           for key in ("annotations", "detections")}
    if draw(st.booleans()):
        doc["images"] = [1, {"id": "a"}, "b"]
    spots = [(key, i) for key in ("annotations", "detections") for i in range(len(doc[key]))]
    if spots and draw(st.booleans()):
        key, i = draw(st.sampled_from(spots))
        found = doc[key][i]
        field = draw(st.sampled_from(sorted(found)))
        if field == "bbox":
            found["bbox"][draw(st.integers(0, 3))] = draw(st.sampled_from(ODD_NUMBERS))
        else:
            found[field] = draw(st.sampled_from(ODD_NUMBERS if field == "score" else ODD_KEYS))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=numeric_documents())
@example(doc={"annotations": [entry()], "detections": [entry(score=0)]})
def test_numeric_documents_take_the_column_path_when_the_reference_reads_them(doc_path, doc):
    path = write(doc_path, doc)
    want = reference_outcome(path)
    with paths_taken() as taken:
        assert outcome(path) == want
    assert ([way for _, way in taken] == ["columns", "columns"]) == (want[0] == "tables")
