"""io.load_ratings against a frozen copy of its earlier, row-by-row code.

The reference below read a rating CSV with csv.reader, one row at a time,
and is still the definition of the format: load_ratings now reads the
columns with np.loadtxt first and falls back on that row loop wherever the
two could differ. On valid CSVs the two must read the same table, bit for
bit: values, dtypes and shapes. On CSVs with one to three broken cells or
lines they must raise the same ParseError text: the first broken rule in
file order, with its file line. Named cases cover the inputs where numpy's
reader and csv.reader with float() read text differently.
"""

import csv
import importlib.util
import io
import math
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scaleiou import ParseError
from scaleiou import io as scaleiou_io
from scaleiou.geometry import InvalidRow, corner_to_center
from scaleiou.io import _rating_columns, _read_text, load_ratings, read_number
from scaleiou.rating import RatingTable

# --- reference: the earlier row-by-row loader ---

_REF_REQUIRED = ("rating", "gt_x", "gt_y", "gt_w", "gt_h", "px", "py", "pw", "ph")
_REF_OPTIONAL = ("context", "expertise", "age")
_REF_FLAGS = {"1": 1.0, "true": 1.0, "yes": 1.0, "0": 0.0, "false": 0.0, "no": 0.0, "": math.nan}


def _ref_optional_cell(name, raw):
    text = raw.strip().lower()
    try:
        return float(read_number(raw, int)) if name == "age" and text else _REF_FLAGS[text]
    except (KeyError, ValueError, OverflowError):
        raise ValueError(f"invalid {name} {raw!r}") from None


def _ref_load_ratings(path):
    reader = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: missing CSV header")
        column = {name: i for i, name in enumerate(header)}
        for col in _REF_REQUIRED:
            if col not in column:
                raise ParseError(f"{path}: missing column {col!r}")
        numbers = [column[c] for c in _REF_REQUIRED[1:]]
        optional = [(name, column.get(name)) for name in _REF_OPTIONAL]
        lines, ratings, values = [], [], array("d")
        for row in reader:
            if not row:
                continue
            row += [""] * (len(header) - len(row))
            try:
                rating = read_number(row[column["rating"]], int)
                fields = [read_number(row[i]) for i in numbers]
                fields += [math.nan if i is None else _ref_optional_cell(name, row[i]) for name, i in optional]
            except ValueError as exc:
                _ref_rating_table(path, lines, ratings, values)
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
            lines.append(reader.line_num)
            ratings.append(rating)
            values.extend(fields)
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return _ref_rating_table(path, lines, ratings, values)


def _ref_rating_table(path, lines, ratings, values):
    values = np.array(values, dtype=float).reshape(-1, 11)
    center = corner_to_center(values[:, :8].reshape(-1, 2, 4))
    try:
        rating = np.array(ratings, dtype=int)
    except OverflowError:
        rating = np.array(ratings, dtype=object)
    try:
        return RatingTable(rating, center[:, 0], center[:, 1], *values[:, 8:].T)
    except InvalidRow as exc:
        raise ParseError(f"{path}: line {lines[exc.row]}: {exc.reason}") from exc


# --- comparison ---

COLUMNS = ("rating", "gt", "proposal", "context", "expertise", "age")


def outcome(load, path):
    """("table", dtype, shape and bytes of each column) or ("error", its text)."""
    try:
        table = load(path)
    except ParseError as exc:
        return "error", str(exc)
    return "table", [(getattr(table, c).dtype.str, getattr(table, c).shape, getattr(table, c).tobytes())
                     for c in COLUMNS]


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ratings") / "ratings.csv"


# --- CSV texts ---

# texts of a number that read_number reads as that number; the integer forms
# only for a whole number
FORMATS = (repr, "{:.17g}".format, "{:e}".format, "{:E}".format, lambda v: str(int(v)), lambda v: f"{int(v):+d}")
# spaces or tabs around a cell, which float() and int() strip
PADS = st.tuples(st.sampled_from(["", " ", "  ", "\t"]), st.sampled_from(["", " ", "\t "]))


def number_texts(values):
    return st.builds(lambda v, f, pad: pad[0] + FORMATS[f if f < 4 or v == int(v) else 0](v) + pad[1],
                     values, st.integers(0, len(FORMATS) - 1), PADS)


coordinate = number_texts(st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.integers(-1000, 1000).map(float),
                                    st.just(-0.0)))
side = number_texts(st.one_of(st.floats(1e-3, 1e6), st.integers(1, 1000).map(float)))
rating = st.builds(lambda text, pad: pad[0] + text + pad[1], st.sampled_from(["1", "2", "3", "4", "5", "+3", "03"]),
                   PADS)
FLAG_TEXTS = ["1", "0", "true", "false", "yes", "no", "TRUE", "False", "yEs", "NO", "", " 1 ", "\ttrue", " "]
flag = st.sampled_from(FLAG_TEXTS)
age = st.one_of(st.integers(-5, 1000).map(str), st.sampled_from(["", " 30 ", "+41", "030", " "]))
CELLS = {"rating": rating, "gt_x": coordinate, "gt_y": coordinate, "gt_w": side, "gt_h": side,
         "px": coordinate, "py": coordinate, "pw": side, "ph": side, "context": flag, "expertise": flag, "age": age}
EXTRA = st.sampled_from(["", "x", "note 1", "id-7"])


@st.composite
def layouts(draw):
    """A header: the required columns, some optional ones and extras in any
    order, maybe one repeated name whose earlier column holds junk."""
    names = list(_REF_REQUIRED) + [n for n in _REF_OPTIONAL if draw(st.booleans())]
    names += draw(st.lists(st.sampled_from(["note", "id"]), max_size=2, unique=True))
    names = draw(st.permutations(names))
    if draw(st.booleans()):
        repeated = draw(st.sampled_from(names))
        names.insert(draw(st.integers(0, names.index(repeated))), repeated)
    return names


@st.composite
def valid_csvs(draw):
    """(header, rows of cells, line end, blank line positions, final line
    end) of a CSV whose every row reads."""
    header = draw(layouts())
    last = {name: i for i, name in enumerate(header)}
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = [draw(CELLS[name]) if last[name] == i and name in CELLS else draw(EXTRA)
               for i, name in enumerate(header)]
        shape = draw(st.sampled_from(["full"] * 8 + ["short", "long", "long", "quoted"]))
        while shape == "short" and header[len(row) - 1] not in _REF_REQUIRED and draw(st.booleans()):
            row.pop()  # a short row: its missing cells are empty
        if draw(st.integers(0, 15)) == 0:
            i = draw(st.integers(0, len(row) - 1))
            row[i] = '"' + row[i] + '"'  # a quoted cell reads as its text
        if shape == "long":
            row.append(draw(EXTRA))  # an extra trailing cell
        if shape == "quoted":
            row.append('"a,b\nc ""d"""')  # a quoted cell holding a comma, a newline and a quote
        rows.append(row)
    return (header, rows, draw(st.sampled_from(["\n", "\r\n"])), draw(st.lists(st.integers(0, len(rows)), max_size=3)),
            draw(st.booleans()))


def csv_text(header, rows, end="\n", blanks=(), final=True):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines += [""] * list(blanks).count(i) + [",".join(row)]
    lines += [""] * list(blanks).count(len(rows))
    return end.join(lines) + (end if final else "")


# broken cells of a column kind: each is an error wherever it stands
BROKEN_NUMBERS = ["x", "1_0", "_1", "1_", "1e1_0", "nan_", "\u0663", "\u00a020\u00a0", "", "1e", "0x10", "nan", "inf",
                  "-inf", "1e400", "\x1c5", "2\x00"]
BROKEN_SIDES = ["-1", "0"]
BROKEN_RATINGS = ["3.0", "6", "0", str(10**30), str(-10**30), "", "x", "\u0663", "1_0", "inf"]
BROKEN_FLAGS = ["maybe", "true    x", "2", "TRUE1", "1_0", "\u0661"]
BROKEN_AGES = ["30.5", "thirty", str(10**400), "1_0", "\u0663\u0663", "inf"]
BROKEN_LINES = ["   ", "\t", ",", "3\r,0,0,20,20,0,0,20,20", '"3', "3,0,0,20"]


@st.composite
def broken_csvs(draw):
    """A valid CSV with 1 to 3 cells or lines broken."""
    header, rows, end, blanks, final = draw(valid_csvs())
    last = {name: i for i, name in enumerate(header)}
    lines = set()  # rows broken as a whole line
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        row = rows[r]
        kind = draw(st.sampled_from(["number", "side", "rating", "flag", "age", "line"]))
        names = {"number": ["gt_x", "gt_y", "px", "py"], "side": ["gt_w", "gt_h", "pw", "ph"], "rating": ["rating"],
                 "flag": [n for n in ("context", "expertise") if n in last], "age": ["age"] if "age" in last else []}
        if kind == "line" or not names[kind]:
            rows[r] = [draw(st.sampled_from(BROKEN_LINES))]
            lines.add(r)
            continue
        i = last[draw(st.sampled_from(names[kind]))]
        cells = {"number": BROKEN_NUMBERS, "side": BROKEN_NUMBERS + BROKEN_SIDES, "rating": BROKEN_RATINGS,
                 "flag": BROKEN_FLAGS, "age": BROKEN_AGES}[kind]
        cell = draw(st.sampled_from(cells))
        if r in lines and i == 0 and cell == "":
            continue  # an empty cell over a broken line's one cell leaves a blank line, which reads as no row
        row += [""] * (i + 1 - len(row))
        row[i] = cell
    return csv_text(header, rows, end, blanks, final)


BENCH_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def bench_ratings(tmp_path):
    spec = importlib.util.spec_from_file_location("gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write_pair_inputs(1, tmp_path)["ratings"]


# --- tests ---

@settings(max_examples=300, deadline=None)
@given(csv_parts=valid_csvs())
@example(csv_parts=(list(_REF_REQUIRED) + ["context", "expertise", "age"],
                    [["3", "0", "0", "20", "20", "0", "0", "20", "20", "no", "1", ""]], "\n", [], True))
@example(csv_parts=(list(_REF_REQUIRED) + ["age"], [["3", "0", "0", "20", "20", "0", "0", "20", "20", "30"]],
                    "\r\n", [0, 1, 1], False))
def test_valid_csvs_read_as_the_reference_reads_them(csv_path, csv_parts):
    path = write(csv_path, csv_text(*csv_parts))
    want = outcome(_ref_load_ratings, path)
    assert want[0] == "table", want
    assert outcome(load_ratings, path) == want


@settings(max_examples=400, deadline=None)
@given(text=broken_csvs())
# a box rule broken on an earlier row comes before a parse error on a later one
@example(text="rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph\n3,0,0,-1,20,0,0,20,20\n3,0,0,20,20,0,0,20,x\n")
@example(text="rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph\r\n3,0,0,20,20,0,0,20,20\r\n\r\n9,0,0,20,20,0,0,20,20\r\n")
def test_broken_csvs_raise_the_reference_error(csv_path, text):
    path = write(csv_path, text)
    want = outcome(_ref_load_ratings, path)
    assert want[0] == "error", text
    assert outcome(load_ratings, path) == want


HEADER = "rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,context,expertise,age"
ROW = "3,0,0,20,20,0,0,20,20,1,0,30"
FIELD_LIMIT = csv.field_size_limit()

# name -> CSV text: inputs where np.loadtxt, or float() and csv.reader, could go apart
NAMED = {
    "crlf line ends": f"{HEADER}\r\n{ROW}\r\n{ROW}\r\n",
    "quoted field with a comma": f'{HEADER},note\n{ROW},"a, b"\n',
    "quoted field with a newline": f'{HEADER},note\n{ROW},"a\nb"\n{ROW},x\n',
    "quoted number": f'{HEADER}\n"3","0","0","20","20","0","0","20","20","1","0","30"\n',
    "utf-8 bom": f"\ufeff{HEADER}\n{ROW}\n",
    "bom before a later column": "gt_x,\ufeffrating,gt_y,gt_w,gt_h,px,py,pw,ph\n0,3,0,20,20,0,0,20,20\n",
    "leading spaces": f"{HEADER}\n 3, 0, 0, 20, 20, 0, 0, 20, 20, 1, 0, 30\n",
    "number spellings": f"{HEADER}\n3,\x0b1.\x0c,+1e-3,20.,2e1,-0,1e-400,\t20 ,20,1,0,30\n",
    "whitespace-only line": f"{HEADER}\n{ROW}\n   \n{ROW}\n",
    "tab-only line": f"{HEADER}\n{ROW}\n\t\n",
    "blank lines": f"{HEADER}\n\n{ROW}\n\n\n{ROW}\n\n",
    "blank crlf lines": f"{HEADER}\r\n\r\n{ROW}\r\n\r\n",
    "no final newline": f"{HEADER}\n{ROW}",
    "bare carriage return": f"{HEADER}\r{ROW}\r{ROW}\r",
    "bare carriage return in a row": f"{HEADER}\n3,0,0,20,20\r0,0,20,20\n",
    "carriage return at the end": f"{HEADER}\n{ROW}\r",
    "number padded with no-break spaces": f"{HEADER}\n3,0,0,\u00a020\u00a0,20,0,0,20,20,1,0,30\n",
    "digit-group underscore": f"{HEADER}\n3,0,0,1_0,20,0,0,20,20,1,0,30\n",
    "arabic-indic digit": f"{HEADER}\n3,0,0,\u0663,20,0,0,20,20,1,0,30\n",
    "information separator around a number": f"{HEADER}\n3,0,0,\x1c20\x1f,20,0,0,20,20,1,0,30\n",
    "nul in a number": f"{HEADER}\n3,0,0,20\x00,20,0,0,20,20,1,0,30\n",
    "nul in an unread column": f"{HEADER},note\n{ROW},\x00\n",
    "field over the size limit": f"{HEADER}\n3,{'1' * (FIELD_LIMIT + 1)},0,20,20,0,0,20,20\n",
    "line over the size limit": f"{HEADER},note\n{ROW},{'x' * (FIELD_LIMIT // 2)},{'y' * (FIELD_LIMIT // 2)}\n",
    "extra trailing cells": f"{HEADER}\n{ROW},x,y,\n{ROW},,\n",
    "short rows": f"{HEADER}\n3,0,0,20,20,0,0,20,20\n{ROW}\n3,0,0,20,20,0,0,20,20,1\n",
    "short row missing a box cell": f"{HEADER}\n{ROW}\n3,0,0,20,20,0,0,20\n",
    "repeated header name": "rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph,gt_x\n3,junk,0,20,20,0,0,20,20,0\n",
    "repeated header name, its last column broken": "gt_x,rating,gt_x,gt_y,gt_w,gt_h,px,py,pw,ph\n"
                                                    "0,3,junk,0,20,20,0,0,20,20\n",
    "mixed-case flags": f"{HEADER}\n3,0,0,20,20,0,0,20,20,TrUe,fAlSe,30\n3,0,0,20,20,0,0,20,20,YES,No,\n",
    "long flag cell": f"{HEADER}\n3,0,0,20,20,0,0,20,20,true    x,0,30\n",
    "long flag cell after a good row": f"{HEADER}\n{ROW}\n3,0,0,20,20,0,0,20,20,1,{'n' * 40}o,30\n",
    "rating 3.0": f"{HEADER}\n3.0,0,0,20,20,0,0,20,20,1,0,30\n",
    "rating 10**30": f"{HEADER}\n{ROW}\n{10**30},0,0,20,20,0,0,20,20,1,0,30\n",
    "rating -2**63": f"{HEADER}\n{-2**63},0,0,20,20,0,0,20,20,1,0,30\n",
    "rating 2**53 + 1": f"{HEADER}\n{2**53 + 1},0,0,20,20,0,0,20,20,1,0,30\n",
    "rating 7": f"{HEADER}\n{ROW}\n7,0,0,20,20,0,0,20,20,1,0,30\n",
    "bad gt box and rating 7 on one row": f"{HEADER}\n7,0,0,-1,20,0,0,20,20,1,0,30\n",
    "negative gt_w, then an unreadable cell on a later line": f"{HEADER}\n3,0,0,-1,20,0,0,20,20,1,0,30\n"
                                                              f"3,0,0,20,20,0,0,20,x,1,0,30\n",
    "inf": f"{HEADER}\n3,inf,0,20,20,0,0,20,20,1,0,30\n",
    "nan": f"{HEADER}\n3,0,0,20,20,0,0,nan,20,1,0,30\n",
    "infinite age": f"{HEADER}\n3,0,0,20,20,0,0,20,20,1,0,inf\n",
    "header only": f"{HEADER}\n",
    "empty file": "",
    "missing column": "rating,gt_x,gt_y,gt_w,gt_h,px,py,pw\n3,0,0,20,20,0,0,20\n",
    "underscore in the header": f"{HEADER},my_note\n{ROW},x\n",
    "underscore in an unread column": f"{HEADER},note\n{ROW},a_b\n",
}
# the named inputs the column path reads itself; every other one falls back to the row loop
COLUMN_PATH = {"crlf line ends", "leading spaces", "number spellings", "blank lines", "blank crlf lines",
               "no final newline", "carriage return at the end", "extra trailing cells", "repeated header name",
               "mixed-case flags", "underscore in the header", "underscore in an unread column"}


@pytest.mark.parametrize("name", NAMED)
def test_named_csvs_read_as_the_reference_reads_them(csv_path, name):
    path = write(csv_path, NAMED[name])
    assert outcome(load_ratings, path) == outcome(_ref_load_ratings, path)


@pytest.mark.parametrize("name", NAMED)
def test_the_column_path_reads_only_what_it_reads_as_the_row_loop(name):
    assert (_rating_columns(NAMED[name]) is not None) == (name in COLUMN_PATH)


@pytest.mark.parametrize("source", ["tests/data/cli_ratings.csv", "bench"])
def test_the_column_path_reads_the_pinned_and_bench_csvs(tmp_path, monkeypatch, source):
    """cli_ratings.csv has \\n line ends, no/1 flags and empty cells; the
    bench CSV, written by csv.DictWriter, \\r\\n line ends."""
    path = bench_ratings(tmp_path) if source == "bench" else str(Path(__file__).resolve().parents[1] / source)
    want = outcome(_ref_load_ratings, path)

    def row_loop(path, text):
        raise AssertionError(f"{path} was read by the row loop")

    monkeypatch.setattr(scaleiou_io, "_rating_rows", row_loop)
    assert outcome(load_ratings, path) == want
