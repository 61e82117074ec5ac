"""The column-wise surface reader against a per-cell reference.

reference_surface_from_csv and reference_points are the readers as they
were before columns were parsed and checked whole: every cell parsed alone
and every value checked alone against sweep._VALID.  The readers in
qfrelay.sweep must give the same points, field for field in type and repr,
or raise the same ValueError.
"""
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrelay.sweep import (
    _COLUMNS,
    _CSV_BOOLEANS,
    _VALID,
    CSV_HEADER,
    Surface,
    SurfacePoint,
    _as_float,
    _csv_number,
    _points,
    surface_from_csv,
    surface_from_json,
    surface_to_csv,
)


def reference_points(columns: list, where: str, qs=None) -> list:
    raw = list(columns) or [()] * len(_COLUMNS)
    columns = [col if {*map(type, col)} <= {float} else list(map(_as_float, col))
               for col in raw[:6]] + raw[6:]
    bad = [next(k for k, v in enumerate(col) if not valid(v))
           for col, valid in zip(columns, _VALID) if not all(map(valid, col))]
    if bad:
        k = min(bad)
        raise ValueError(f"{where} {k}: multipliers must be finite numbers > 0, rates finite "
                         f"numbers >= 0, iterations and seed integers >= 0 and converged "
                         f"a boolean, got {dict(zip(_COLUMNS, (col[k] for col in raw)))}")
    return list(map(SurfacePoint, *columns, qs or [None] * len(columns[0])))


def reference_surface_from_csv(path) -> Surface:
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in map(str.strip, f) if ln]
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not valid UTF-8 ({e})") from None
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: expected header {CSV_HEADER!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if {*map(len, rows)} - {len(_COLUMNS)}:
        k = next(k for k, cells in enumerate(rows) if len(cells) != len(_COLUMNS))
        raise ValueError(f"{path}: row {k}: malformed row {lines[k + 1]!r}")
    columns = list(zip(*rows))
    numbers = [list(map(_csv_number, col)) for col in columns[:6]]
    tail = [[_csv_number(c, int) if c.isdecimal() else _CSV_BOOLEANS.get(c, c) for c in col]
            for col in columns[6:]]
    return Surface(points=tuple(reference_points(numbers + tail, f"{path}: row")),
                   channel_fingerprint="", num_levels=0)


def outcome(read, *args):
    """(type, repr) of every field of every point `read` gives, or the
    ValueError it raises as (type, message)."""
    try:
        points = read(*args)
    except ValueError as e:
        return ValueError, str(e)
    if isinstance(points, Surface):
        assert (points.channel_fingerprint, points.num_levels, points.warnings) == ("", 0, ())
        points = points.points
    return [(type(p), [(type(v), repr(v)) for v in p]) for p in points]


# Cells that a solve writes in each column, then cells no solve writes:
# ones float() or int() read in their own way, and ones neither reads.
FLOATS = st.floats(0.0, 1e300, allow_subnormal=True).map(repr)
COUNTS = st.integers(0, 2 ** 64).map(str)
FLAGS = st.sampled_from(["true", "false"])
WRITTEN = (FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, FLOATS, COUNTS, FLAGS, COUNTS)
ODD = st.sampled_from(["nan", "inf", "-inf", "-0.0", "0.0", "1e400", "1_0", " 0.5", "٣", "-3",
                       "+3", "true", "True", "false", "", "x", "9" * 5000, "0", "1.5"])
ANY_CELL = st.one_of(ODD, FLOATS, COUNTS)


def tables(written, anything):
    """Nine columns of equal length: up to three hold values drawn from
    `anything`, the others only what a solve writes there (`written`), so
    that tables which pass every check come up often."""
    @st.composite
    def draw_table(draw):
        n, odd = draw(st.integers(0, 6)), draw(st.sets(st.integers(0, 8), max_size=3))
        return [draw(st.lists(anything if j in odd else cells, min_size=n, max_size=n))
                for j, cells in enumerate(written)]
    return draw_table()


@settings(max_examples=400, deadline=None)
@given(columns=tables(WRITTEN, ANY_CELL))
def test_csv_reader_matches_the_per_cell_reference(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "surface.csv"
    path.write_text("\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n",
                    encoding="utf-8")
    assert outcome(surface_from_csv, path) == outcome(reference_surface_from_csv, path)


# Values as JSON gives them, then what a solve writes in each column.
JSON_VALUES = st.one_of(
    st.floats(0.0, 1e300), st.integers(0, 2 ** 64), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -1.5, -3, 0, 10 ** 400, "0.5", "true",
                     "", None]),
    st.text(max_size=3))
JSON_WRITTEN = (st.floats(1e-300, 1e300),) * 2 + (st.floats(0.0, 1e300),) * 4 + (
    st.integers(0, 2 ** 64), st.booleans(), st.one_of(st.integers(0, 2 ** 64),
                                                      st.just(10 ** 400)))


@settings(max_examples=400, deadline=None)
@given(columns=tables(JSON_WRITTEN, JSON_VALUES), with_q=st.booleans())
def test_points_match_the_per_value_reference(columns, with_q):
    qs = [f"q{k}" for k in range(len(columns[0]))] if with_q else None
    assert outcome(_points, columns, "point", qs) == outcome(reference_points, columns, "point", qs)


GOOD = SurfacePoint(0.1, 0.2, 0.3, 0.4, 0.5, 0.0, 5, True, 7)


def test_huge_seed_goes_from_json_through_csv_unchanged(tmp_path):
    seed = 10 ** 400
    json_path, csv_path = tmp_path / "surface.json", tmp_path / "surface.csv"
    json_path.write_text(json.dumps({"points": [dict(zip(_COLUMNS, GOOD._replace(seed=seed)))]}))
    surface_to_csv(surface_from_json(json_path), csv_path)
    [back] = surface_from_csv(csv_path).points
    assert type(back.seed) is int and back.seed == seed


@pytest.mark.parametrize("row, field, value", [
    (0, "c1", math.nan), (0, "lam1", math.inf), (2, "h_scalar", -math.inf), (2, "i_rd", math.nan),
    (2, "seed", math.nan), (1, "iterations", math.inf)])
@pytest.mark.parametrize("huge", [False, True])
def test_csv_writer_refuses_nonfinite_anywhere(tmp_path, row, field, value, huge):
    """NaN or infinity in the first row, the last, or a column that starts
    with an int (a huge one too) is refused before the file is opened."""
    points = [GOOD._replace(seed=10 ** 400 if huge else 7)] * 3
    points[row] = points[row]._replace(**{field: value})
    path = tmp_path / "surface.csv"
    with pytest.raises(FloatingPointError, match=re.escape(str(path))):
        surface_to_csv(Surface(points=tuple(points), channel_fingerprint="", num_levels=2), path)
    assert not path.exists()
