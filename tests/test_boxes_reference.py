"""io.load_boxes against a frozen copy of its earlier, record-based code.

The reference below built one record, with one Box, per entry of a boxes
file. load_boxes now reads each section into one BoxTable, converts all the
corner-form boxes in one array operation and checks the Box rule on the
columns. On valid documents the two must read the same image and category
keys and the same center boxes and scores, bit for bit. On documents with
one to three broken entries, anywhere in any section, they must raise the
same ParseError text: the first broken rule in file order wins.
"""

import json
import struct
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleiou import Box, ParseError
from scaleiou.criteria import FLOAT_MAX, check_range
from scaleiou.io import _read_text, load_boxes, read_number


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
