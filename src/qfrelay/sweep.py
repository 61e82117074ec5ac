"""Trace the rate-distortion tradeoff surface by sweeping the multipliers.

Each (lam1, lam2) grid point is solved independently (best of several seeded
restarts) and recorded with its ACHIEVED description rates, so the surface is
a point cloud, not a lattice of targets.  Queries against the cloud use the
monotone lower envelope: the best swept point dominated by the target pair.
Every answer is therefore achievable by a concrete stored quantizer.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from qfrelay.channel import ChannelModel, _readonly
from qfrelay.infotheory import QuantizerPmf
from qfrelay.optimizer import _seed, _solve_points


@dataclass(frozen=True)
class LambdaGrid:
    """Multiplier values per axis; both axes finite and strictly positive."""

    axis1: np.ndarray
    axis2: np.ndarray

    def __post_init__(self):
        # copies: freezing them must not freeze or alias the caller's arrays
        a1 = np.array(self.axis1, dtype=float)
        a2 = np.array(self.axis2, dtype=float)
        if a1.ndim != 1 or a2.ndim != 1 or a1.size == 0 or a2.size == 0:
            raise ValueError("lambda axes must be non-empty 1-D arrays")
        if not (np.isfinite(a1).all() and np.isfinite(a2).all()
                and a1.min() > 0 and a2.min() > 0):
            raise ValueError("lambda values must be finite and strictly positive "
                             "(the update divides by lam1 + lam2)")
        object.__setattr__(self, "axis1", _readonly(a1))
        object.__setattr__(self, "axis2", _readonly(a2))

    @classmethod
    def log_spaced(cls, lam_min: float = 1e-3, lam_max: float = 10.0,
                   count: int = 12) -> "LambdaGrid":
        if not (lam_min > 0):
            raise ValueError(
                "lambda grid min must be > 0 (the update divides by lam1 + lam2)"
            )
        if not (lam_min <= lam_max < np.inf):
            raise ValueError("lambda grid max must be finite and >= min")
        if count < 1:
            raise ValueError("lambda grid count must be at least 1")
        axis = np.logspace(np.log10(lam_min), np.log10(lam_max), count)
        return cls(axis1=axis, axis2=axis)


class SurfacePoint(NamedTuple):
    """One solved multiplier pair: achieved rates plus provenance.

    The first nine fields are the CSV_HEADER columns in order, so p[:-1] is
    the point's file row.  q is the winning quantizer when the point was
    produced in-process; points reloaded from CSV carry q=None (the CSV
    stores only the scalar columns).
    """

    lam1: float
    lam2: float
    c1: float
    c2: float
    i_rd: float
    h_scalar: float
    iterations: int
    converged: bool
    seed: int
    q: QuantizerPmf | None = None


@dataclass(frozen=True)
class Surface:
    points: tuple
    channel_fingerprint: str
    num_levels: int
    warnings: tuple = ()


def sweep_grid(ch: ChannelModel, num_levels: int, grid: LambdaGrid | None = None,
               restarts: int = 4, init: str = "perturbed-uniform", eps: float = 1e-8,
               max_iter: int = 5000, seed: int = 0, workers: int | None = None) -> Surface:
    """Solve every multiplier pair on the grid and collect the point cloud.

    Per-point seeds derive deterministically from (seed, grid row, grid col).
    optimizer._solve_points runs every restart of every point, serially
    (workers None or 1) or across worker processes, with the same surface.
    Non-converged points are kept but flagged; if more than half fail to
    converge the surface carries a quality warning.
    """
    if grid is None:
        grid = LambdaGrid.log_spaced()
    seeded = [(lam1, lam2, _seed(seed, gi, gj))
              for gi, lam1 in enumerate(grid.axis1.tolist())
              for gj, lam2 in enumerate(grid.axis2.tolist())]
    points = []
    for (lam1, lam2, _), res in zip(seeded, _solve_points(ch, num_levels, seeded, restarts, init,
                                                          eps, max_iter, workers)):
        rep = res.report
        points.append(SurfacePoint(
            lam1=float(lam1),
            lam2=float(lam2),
            c1=rep.c1_achieved,
            c2=rep.c2_achieved,
            i_rd=rep.j_value,
            h_scalar=rep.h_yhat_given_y,
            iterations=res.iterations,
            converged=res.converged,
            seed=res.seed,
            q=res.q_final,
        ))

    bad = sum(1 for p in points if not p.converged)
    warnings = ((f"sweep quality: {bad} of {len(points)} grid points did not converge",)
                if bad > len(points) / 2 else ())
    return Surface(points=tuple(points), channel_fingerprint=ch.fingerprint(),
                   num_levels=int(num_levels), warnings=warnings)


def query_lower_envelope(s: Surface, c1_target: float, c2_target: float) -> float:
    """Best swept objective among points dominated by the target rates.

    This is an achievability bound on the true tradeoff at the targets: it
    only uses quantizers whose achieved description rates fit under them, and
    it tightens as the sweep grid densifies.  With no qualifying point the
    answer is 0, which the single-level quantizer always achieves.
    """
    p = envelope_point(s, c1_target, c2_target)
    return 0.0 if p is None else max(0.0, p.i_rd)


def envelope_point(s: Surface, c1_target: float, c2_target: float) -> SurfacePoint | None:
    """The best swept point dominated by the target rates (the first of equal
    maxima), or None when no point fits under them."""
    if not (c1_target >= 0 and c2_target >= 0):
        raise ValueError("rate targets must be nonnegative")
    # Index reads (c1, c2, i_rd are fields 2, 3, 4): Python reads a NamedTuple
    # field by name more slowly than by index.
    best, top = None, -math.inf
    for p in s.points:
        if p[2] <= c1_target and p[3] <= c2_target and p[4] > top:
            best, top = p, p[4]
    return best


def scalar_diagnostic(s: Surface) -> list:
    """(h_scalar, i_rd) pairs sorted by i_rd descending, ready for plotting.

    Near the top of the objective range the randomized-quantizer entropy
    H(Yhat|Yr) collapses toward zero, i.e. the best quantizers are scalar.
    """
    if not s.points:
        raise ValueError("surface has no points")
    pairs = [(p.h_scalar, p.i_rd) for p in s.points]
    pairs.sort(key=lambda t: -t[1])
    return pairs


def round_to_scalar(q: QuantizerPmf) -> QuantizerPmf:
    """Deterministic quantizer with each column one-hot at its argmax.

    Ties break toward the lower level index; the result has H(Yhat|Yr) = 0 by
    construction.
    """
    hard = np.zeros_like(q.q)
    hard[np.argmax(q.q, axis=0), np.arange(q.num_bins)] = 1.0
    return QuantizerPmf(hard)


CSV_HEADER = "lambda1,lambda2,c1_bits,c2_bits,i_rd_bits,h_scalar_bits,iterations,converged,seed"
_COLUMNS = CSV_HEADER.split(",")
_CSV_BOOLEANS = {"true": True, "false": False}


def _read_json(path):
    """The value the JSON file at `path` holds; bytes that do not decode as
    UTF-8 JSON are a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError, int-digit limit
        raise ValueError(f"{path}: not valid JSON ({e})") from None


def _write_json(doc, path, context: str):
    """Write `doc` as indented JSON to `path` (stdout when there is none);
    NaN or infinity anywhere in it is refused, naming `context`."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise FloatingPointError(f"non-finite value in {context}") from None
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header: str, rows, context: str):
    """A header line, then one line per row: booleans as true/false, the rest
    as str; NaN or infinity is refused before opening, naming `context`."""
    rows = list(rows)
    if not all(all(map(math.isfinite, [v for v in col if type(v) is not int]))
               for col in zip(*rows)):  # an int is finite, even one no float can hold
        raise FloatingPointError(f"non-finite value in {context}")
    lines = [header] + [",".join([("true" if v else "false") if type(v) is bool else str(v)
                                  for v in row]) for row in rows]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _multiplier(v) -> bool:
    return type(v) is float and 0 < v < math.inf


def _rate(v) -> bool:
    return type(v) is float and 0 <= v < math.inf


def _count(v) -> bool:
    return type(v) is int and v >= 0


def _flag(v) -> bool:
    return type(v) is bool


# What a solve can produce in each CSV_HEADER column, as a test of one value.
# Each admits one type from a lower bound up, a float only when finite, so
# _all_valid tests a column whole by its type, finiteness and least value.
_VALID = (_multiplier, _multiplier, _rate, _rate, _rate, _rate, _count, _flag, _count)


def _all_valid(col, valid) -> bool:
    """Whether every value of a column passes `valid`, a rule of _VALID."""
    return not col or ({*map(type, col)} == {type(col[0])} and valid(col[0]) and valid(min(col))
                       and (type(col[0]) is not float or all(map(math.isfinite, col))))


def _as_float(v):
    """An int as a float, through str so that a huge int parses as inf; any
    other value as it is."""
    return float(str(v)) if type(v) is int else v


def _points(columns: list, where: str, qs=None) -> tuple:
    """The points of a surface file's rows, given as its columns in
    CSV_HEADER order with each value as JSON gives it, and qs the rows'
    quantizers (None: no quantizers).  Refuses what no solve produces:
    other than int or float in the numeric columns, non-finite numbers,
    multipliers <= 0, negative rates, iterations or seed that are not
    integers >= 0 and a non-boolean converged flag.  Each column is checked
    whole; a refusal names the first row that breaks a rule, as `{where} {k}`."""
    raw = list(columns) or [()] * len(_COLUMNS)
    columns, bad = list(raw), []
    for j, valid in enumerate(_VALID):
        if not _all_valid(columns[j], valid):
            if j < 6:  # an int in a number column stands for its float
                columns[j] = list(map(_as_float, columns[j]))
            bad += [k for k, v in enumerate(columns[j]) if not valid(v)][:1]
    if bad:
        k = min(bad)
        raise ValueError(f"{where} {k}: multipliers must be finite numbers > 0, rates finite "
                         f"numbers >= 0, iterations and seed integers >= 0 and converged "
                         f"a boolean, got {dict(zip(_COLUMNS, (col[k] for col in raw)))}")
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple(map(tuple.__new__, repeat(SurfacePoint), zip(*columns, qs or repeat(None))))


def _csv_number(cell: str, parse=float):
    """The number `parse` reads in a CSV cell, or the cell itself when it reads none."""
    try:
        return parse(cell)
    except ValueError:
        return cell


def _csv_column(col, parse=float) -> list:
    """_csv_number of each cell of a CSV column, in one call unless a cell reads none."""
    try:
        return list(map(parse, col))
    except ValueError:
        return [_csv_number(c, parse) for c in col]


def _csv_counts_or_flags(col) -> list:
    """_csv_number(c, int) of each decimal cell c, else its _CSV_BOOLEANS value or c."""
    decimal = {*map(str.isdecimal, col)}
    if True not in decimal:
        return list(map(_CSV_BOOLEANS.get, col, col))
    if False not in decimal:
        return _csv_column(col, int)
    return [_csv_number(c, int) if c.isdecimal() else _CSV_BOOLEANS.get(c, c) for c in col]


def surface_to_csv(s: Surface, path) -> None:
    """One row per point; floats use shortest round-trip repr for bytewise
    reproducibility across runs."""
    _write_csv(path, CSV_HEADER, [p[:-1] for p in s.points], f"surface file {path}")


def surface_from_csv(path) -> Surface:
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
    cells = [*map(_csv_column, columns[:6]), *map(_csv_counts_or_flags, columns[6:])]
    return Surface(points=_points(cells, f"{path}: row"), channel_fingerprint="", num_levels=0)


def surface_to_json(s: Surface, path, include_q: bool = False) -> None:
    points = [dict(zip(_COLUMNS, p)) for p in s.points]
    for p, point in zip(s.points, points):
        if include_q and p.q is not None:
            point["q"] = p.q.q.tolist()
    doc = {
        "channel_fingerprint": s.channel_fingerprint,
        "num_levels": s.num_levels,
        "warnings": list(s.warnings),
        "points": points,
    }
    _write_json(doc, path, f"surface file {path}")


# A JSON surface's other keys: (key, default, rule, check).  JSON holds no
# int subclass but bool, so `type(v) is int` refuses true and false.
_JSON_HEADER = (
    ("channel_fingerprint", "", "a string", lambda v: type(v) is str),
    ("num_levels", 0, "an integer >= 0", lambda v: type(v) is int and v >= 0),
    ("warnings", [], "a list of strings",
     lambda v: type(v) is list and all(type(w) is str for w in v)),
)


# A JSON point's CSV_HEADER columns, as one tuple.
_JSON_ROW = itemgetter(*_COLUMNS)


def _missing(row) -> list:
    """The CSV_HEADER columns a JSON point lacks; all of them if it is no object."""
    return [c for c in _COLUMNS if c not in row] if isinstance(row, dict) else _COLUMNS


def surface_from_json(path) -> Surface:
    d = _read_json(path)
    if not isinstance(d, dict) or not isinstance(d.get("points"), list):
        raise ValueError(f"{path}: expected a JSON object with a 'points' list")
    rows = d["points"]
    try:  # KeyError: a point lacks a column; TypeError: a point is no object
        cells, whole = list(map(_JSON_ROW, rows)), len(rows)
    except (KeyError, TypeError):
        whole = next(k for k, row in enumerate(rows) if _missing(row))
    # a bad q before the first point that lacks a column is refused first
    qs = None
    if any(map(dict.__contains__, rows[:whole], repeat("q"))):
        qs = []
        for k, row in enumerate(rows[:whole]):
            try:
                qs.append(QuantizerPmf(np.asarray(row["q"], dtype=float)) if "q" in row else None)
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: point {k}: q is not a quantizer pmf ({e})") from None
    if whole < len(rows):
        raise ValueError(f"{path}: point {whole} lacks the columns {_missing(rows[whole])}")
    header = {}
    for key, default, rule, valid in _JSON_HEADER:
        header[key] = d.get(key, default)
        if not valid(header[key]):
            raise ValueError(f"{path}: '{key}' must be {rule}, got {header[key]!r}")
    points = _points(list(zip(*cells)), f"{path}: point", qs)
    return Surface(points=points, channel_fingerprint=header["channel_fingerprint"],
                   num_levels=header["num_levels"], warnings=tuple(header["warnings"]))
