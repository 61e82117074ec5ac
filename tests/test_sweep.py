import json
import math
import re

import numpy as np
import pytest

from qfrelay import (
    LambdaGrid,
    QuantizerPmf,
    Surface,
    SurfacePoint,
    envelope_point,
    optimize,
    query_lower_envelope,
    rate_report,
    round_to_scalar,
    scalar_diagnostic,
    sweep_grid,
    uplink_sum_rate_bound,
    yr_conditional_entropies,
)
from qfrelay.sweep import (
    CSV_HEADER,
    surface_from_csv,
    surface_from_json,
    surface_to_csv,
    surface_to_json,
)


def test_lambda_grid_log_spaced():
    g = LambdaGrid.log_spaced(1e-3, 10.0, 12)
    assert len(g.axis1) == 12 and len(g.axis2) == 12
    assert g.axis1[0] == pytest.approx(1e-3)
    assert g.axis1[-1] == pytest.approx(10.0)
    assert np.all(np.diff(np.log(g.axis1)) > 0)


def test_lambda_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        LambdaGrid(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LambdaGrid.log_spaced(0.0, 10.0, 4)


def test_lambda_grid_rejects_nonfinite():
    for axis in ([math.nan, 1.0], [math.inf], [1.0, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            LambdaGrid(np.array(axis), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            LambdaGrid(np.array([1.0]), np.array(axis))
    with pytest.raises(ValueError, match="finite"):
        LambdaGrid.log_spaced(1e-3, math.inf, 4)


def test_lambda_grid_copies_the_callers_arrays():
    """A grid freezes copies: the caller's array stays writeable, and writing
    to it changes neither axis."""
    a = np.array([0.1, 1.0])
    g = LambdaGrid(a, a)
    assert a.flags.writeable and g.axis1 is not a and g.axis2 is not a
    a[0] = 7.0
    assert g.axis1[0] == g.axis2[0] == 0.1
    with pytest.raises(ValueError, match="read-only"):
        g.axis1[0] = 7.0


def test_sweep_heavy_penalty_degenerates(fx):
    g = LambdaGrid(np.array([10.0]), np.array([10.0]))
    s = sweep_grid(fx, 2, grid=g, restarts=2, seed=0)
    (p,) = s.points
    assert p.c1 < 1e-3 and p.c2 < 1e-3 and p.i_rd < 1e-3


def test_sweep_points_match_penalized_oracle(fx, fx_table_l2):
    g = LambdaGrid.log_spaced(0.05, 2.0, 3)
    s = sweep_grid(fx, 2, grid=g, restarts=4, seed=0)
    assert len(s.points) == 9
    for p in s.points:
        want, _ = fx_table_l2.best_penalized(p.lam1, p.lam2)
        got = p.i_rd - p.lam1 * p.c1 - p.lam2 * p.c2
        assert abs(got - want) <= 1e-2


def test_surface_point_invariants(fx, fx_surface_dense):
    ents = yr_conditional_entropies(fx)
    bound = uplink_sum_rate_bound(fx)
    for p in fx_surface_dense.points:
        assert -1e-12 <= p.c1 <= ents["h_yr_given_x1"] + 1e-9
        assert -1e-12 <= p.c2 <= ents["h_yr_given_x2"] + 1e-9
        assert p.i_rd <= bound + 1e-9
        assert p.lam1 > 0 and p.lam2 > 0


def test_surface_monotone_consistency(fx_surface_dense):
    pts = fx_surface_dense.points
    c1 = np.array([p.c1 for p in pts])
    c2 = np.array([p.c2 for p in pts])
    ird = np.array([p.i_rd for p in pts])
    dominated = (c1[:, None] <= c1[None, :]) & (c2[:, None] <= c2[None, :])
    np.fill_diagonal(dominated, False)
    comparable = dominated.sum()
    bad = (dominated & (ird[:, None] > ird[None, :] + 5e-3)).sum()
    assert comparable > 0
    assert bad / comparable <= 0.05


def test_sweep_fingerprint_and_levels(fx, fx_surface_dense):
    assert fx_surface_dense.channel_fingerprint == fx.fingerprint()
    assert fx_surface_dense.num_levels == 2


def test_sweep_deterministic_per_seed(fx):
    g = LambdaGrid.log_spaced(0.1, 1.0, 2)
    a = sweep_grid(fx, 2, grid=g, restarts=2, seed=9)
    b = sweep_grid(fx, 2, grid=g, restarts=2, seed=9)
    for pa, pb in zip(a.points, b.points):
        assert pa == pb or (
            pa.lam1 == pb.lam1 and pa.i_rd == pb.i_rd and pa.seed == pb.seed
            and np.array_equal(pa.q.q, pb.q.q)
        )


def test_sweep_point_seeds_derive_from_the_grid_position(fx):
    """Point (i, j) of a sweep of seed s runs its restarts from the word p of
    SeedSequence((s, i, j)), as optimize_restarts(seed=p) would: its seed is
    one of the words of SeedSequence((p, r)), and optimize() alone with that
    seed gives its rates bit for bit."""
    def word(key):
        return int(np.random.SeedSequence(key).generate_state(1)[0])

    grid = LambdaGrid([0.05, 0.5], [0.1, 0.4, 2.0])
    surface = sweep_grid(fx, 2, grid=grid, restarts=3, seed=5)
    positions = [(i, j) for i in range(2) for j in range(3)]
    for (i, j), point in zip(positions, surface.points, strict=True):
        assert (point.lam1, point.lam2) == (grid.axis1[i], grid.axis2[j])
        p = word((5, i, j))
        assert point.seed in [word((p, r)) for r in range(3)]
        rep = optimize(fx, point.lam1, point.lam2, 2, seed=point.seed).report
        assert (rep.c1_achieved, rep.c2_achieved, rep.j_value) == (point.c1, point.c2, point.i_rd)
    again = sweep_grid(fx, 2, grid=grid, restarts=3, seed=5)
    assert [p.seed for p in again.points] == [p.seed for p in surface.points]


def test_sweep_serial_and_parallel_write_identical_csv(fx, tmp_path):
    g = LambdaGrid.log_spaced(1e-2, 5.0, 4)
    serial = sweep_grid(fx, 2, grid=g, restarts=2, seed=3, workers=None)
    parallel = sweep_grid(fx, 2, grid=g, restarts=2, seed=3, workers=2)
    surface_to_csv(serial, tmp_path / "serial.csv")
    surface_to_csv(parallel, tmp_path / "parallel.csv")
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()


def test_sweep_nonconvergence_warning(fx):
    g = LambdaGrid.log_spaced(0.1, 1.0, 2)
    s = sweep_grid(fx, 2, grid=g, restarts=1, seed=0, eps=1e-15, max_iter=1)
    assert any(not p.converged for p in s.points)
    assert s.warnings
    assert "did not converge" in " ".join(s.warnings)


def test_envelope_saturated_targets_give_surface_max(fx, fx_surface_dense):
    ents = yr_conditional_entropies(fx)
    got = query_lower_envelope(fx_surface_dense, ents["h_yr_given_x1"],
                               ents["h_yr_given_x2"])
    assert got == max(p.i_rd for p in fx_surface_dense.points)


def test_envelope_zero_targets(fx_surface_dense):
    assert query_lower_envelope(fx_surface_dense, 0.0, 0.0) <= 1e-9


def test_envelope_matches_constrained_oracle(fx, fx_surface_dense, fx_table_l2):
    for t1, t2 in ((0.2, 0.2), (0.5, 0.5), (0.8, 0.8), (0.3, 0.6), (0.6, 0.3)):
        want, _ = fx_table_l2.best_constrained(t1, t2)
        got = query_lower_envelope(fx_surface_dense, t1, t2)
        # both sides are achievability bounds; they can straddle each other
        # by their respective resolution errors but must sit close
        assert abs(want - got) <= 1e-2


def test_envelope_monotone_in_targets(fx_surface_dense, rng):
    for _ in range(50):
        t1, t2 = rng.uniform(0, 1.4, size=2)
        d1, d2 = rng.uniform(0, 0.3, size=2)
        lo = query_lower_envelope(fx_surface_dense, t1, t2)
        hi = query_lower_envelope(fx_surface_dense, t1 + d1, t2 + d2)
        assert hi >= lo


def test_envelope_rejects_negative_targets(fx_surface_dense):
    with pytest.raises(ValueError):
        query_lower_envelope(fx_surface_dense, -0.1, 0.5)
    with pytest.raises(ValueError):
        query_lower_envelope(fx_surface_dense, math.nan, 0.5)


def test_envelope_point_consistency(fx_surface_dense):
    p = envelope_point(fx_surface_dense, 0.5, 0.5)
    assert p is not None
    assert p.c1 <= 0.5 and p.c2 <= 0.5
    assert p.i_rd == query_lower_envelope(fx_surface_dense, 0.5, 0.5)


def test_envelope_point_takes_the_first_of_equal_maxima():
    """Among dominated points of equal i_rd the first in surface order wins;
    points above either target never do, however large their i_rd."""
    pts = [SurfacePoint(0.1, 0.1, c1, c2, i_rd, 0.0, 5, True, k)
           for k, (c1, c2, i_rd) in enumerate([(0.6, 0.1, 2.0), (0.2, 0.3, 1.0), (0.1, 0.1, 1.5),
                                               (0.3, 0.2, 1.5), (0.0, 0.0, 1.5), (0.1, 0.7, 3.0)])]
    s = Surface(points=tuple(pts), channel_fingerprint="", num_levels=2)
    assert envelope_point(s, 0.5, 0.5) is pts[2]
    assert envelope_point(s, 0.05, 0.05) is pts[4]
    assert envelope_point(s, 1.0, 1.0) is pts[5]
    assert envelope_point(Surface(points=(pts[1], pts[2]), channel_fingerprint="",
                                  num_levels=2), 0.0, 0.5) is None


def test_scalar_diagnostic_sorted_and_consistent(fx, fx_surface_dense):
    pairs = scalar_diagnostic(fx_surface_dense)
    assert len(pairs) == len(fx_surface_dense.points)
    irds = [i for _, i in pairs]
    assert irds == sorted(irds, reverse=True)
    by_ird = {p.i_rd: p for p in fx_surface_dense.points}
    for h, i in pairs[:10]:
        rep = rate_report(fx, by_ird[i].q)
        assert rep.h_yhat_given_y == pytest.approx(h, abs=1e-12)
        assert rep.j_value == pytest.approx(i, abs=1e-12)


def test_scalar_diagnostic_rejects_empty():
    s = Surface(points=(), channel_fingerprint="x", num_levels=2)
    with pytest.raises(ValueError):
        scalar_diagnostic(s)


def test_round_to_scalar_one_hot_unchanged():
    q = QuantizerPmf(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(round_to_scalar(q).q, q.q)


def test_round_to_scalar_tie_goes_to_lowest_level():
    q = QuantizerPmf(np.full((3, 2), 1.0 / 3.0))
    r = round_to_scalar(q)
    assert np.array_equal(r.q, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))


def test_round_to_scalar_kills_soft_entropy(fx, rng):
    q = QuantizerPmf(rng.dirichlet(np.ones(3), size=3).T)
    r = round_to_scalar(q)
    assert rate_report(fx, r).h_yhat_given_y == 0.0


def test_csv_round_trip(tmp_path, fx_surface_dense):
    path = tmp_path / "surface.csv"
    surface_to_csv(fx_surface_dense, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 1 + len(fx_surface_dense.points)
    back = surface_from_csv(path)
    for pa, pb in zip(fx_surface_dense.points, back.points):
        assert (pa.lam1, pa.lam2, pa.c1, pa.c2, pa.i_rd, pa.h_scalar) == \
            (pb.lam1, pb.lam2, pb.c1, pb.c2, pb.i_rd, pb.h_scalar)
        assert (pa.iterations, pa.converged, pa.seed) == \
            (pb.iterations, pb.converged, pb.seed)
        assert pb.q is None


def test_json_round_trip_with_q(tmp_path, fx_surface_dense):
    path = tmp_path / "surface.json"
    surface_to_json(fx_surface_dense, path, include_q=True)
    back = surface_from_json(path)
    assert back.channel_fingerprint == fx_surface_dense.channel_fingerprint
    assert back.num_levels == fx_surface_dense.num_levels
    for pa, pb in zip(fx_surface_dense.points, back.points):
        assert pa.i_rd == pb.i_rd
        # reconstruction renormalizes columns: equal up to 1 ulp
        assert np.allclose(pa.q.q, pb.q.q, rtol=0, atol=1e-15)


GOOD_ROW = {"lambda1": 0.1, "lambda2": 0.1, "c1_bits": 0.2, "c2_bits": 0.2,
            "i_rd_bits": 0.3, "h_scalar_bits": 0.0, "iterations": 5,
            "converged": True, "seed": 7}
IMPOSSIBLE = [("c1_bits", math.nan), ("c1_bits", -0.5), ("c2_bits", math.inf),
              ("i_rd_bits", -1e-3), ("h_scalar_bits", -0.1), ("lambda1", 0.0),
              ("lambda2", -math.inf)]


@pytest.mark.parametrize("column, value", IMPOSSIBLE + [
    ("converged", "True"), ("converged", "yes"), ("converged", 1),
    ("iterations", -3), ("iterations", "five"),
    pytest.param("seed", "9" * 5000, id="seed-5000-digits")])
def test_csv_reader_refuses_impossible_values(tmp_path, column, value):
    path = tmp_path / "surface.csv"
    rows = [GOOD_ROW, dict(GOOD_ROW, **{column: value})]
    path.write_text("\n".join([CSV_HEADER] + [
        ",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in r.values())
        for r in rows]) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: row 1: .*{column}"):
        surface_from_csv(path)


@pytest.mark.parametrize("column, value", IMPOSSIBLE + [
    ("c1_bits", None), ("c2_bits", "x"), ("c1_bits", True), ("iterations", "five"),
    ("lambda1", "0.5"), ("c1_bits", "1e-1"),
    pytest.param("lambda2", 10 ** 400, id="lambda2-int-beyond-float-range"),
    ("iterations", 2.5), ("iterations", -3), ("seed", None), ("seed", False),
    ("converged", "true"), ("converged", 1),
    pytest.param("q", ["a"], id="q-strings"), pytest.param("q", [[0.5, 0.5], [0.5]], id="q-ragged"),
    pytest.param("q", [[1.0, 0.0]], id="q-dead-column"), ("q", "x"),
    pytest.param("q", {"a": 1}, id="q-object")])
def test_json_reader_refuses_impossible_values(tmp_path, column, value):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"points": [GOOD_ROW, dict(GOOD_ROW, **{column: value})]}))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: point 1: "):
        surface_from_json(path)


@pytest.mark.parametrize("key, value", [
    ("warnings", 5), ("warnings", "late"), ("warnings", ["ok", 3]),
    ("num_levels", "x"), ("num_levels", True), ("num_levels", -1), ("num_levels", 2.0),
    ("channel_fingerprint", 7), ("channel_fingerprint", None)])
def test_json_reader_refuses_bad_header_fields(tmp_path, key, value):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"points": [GOOD_ROW], key: value}))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: '{key}' must be "):
        surface_from_json(path)


@pytest.mark.parametrize("write", [surface_to_csv, surface_to_json])
def test_surface_writers_refuse_nonfinite(tmp_path, write):
    bad = SurfacePoint(0.1, 0.1, math.nan, 0.2, 0.3, 0.0, 5, True, 7)
    path = tmp_path / "surface.out"
    with pytest.raises(FloatingPointError, match=re.escape(str(path))):
        write(Surface(points=(bad,), channel_fingerprint="", num_levels=2), path)
    assert not path.exists()


def test_surface_point_fields_are_the_csv_columns_then_q():
    columns = CSV_HEADER.split(",")
    assert len(SurfacePoint._fields) == len(columns) + 1
    assert SurfacePoint._fields[-1] == "q"
    p = SurfacePoint(lam1=0.25, lam2=4.0, c1=0.5, c2=0.75, i_rd=1.125, h_scalar=0.0625,
                     iterations=17, converged=True, seed=99)
    assert dict(zip(columns, p)) == {
        "lambda1": p.lam1, "lambda2": p.lam2, "c1_bits": p.c1, "c2_bits": p.c2,
        "i_rd_bits": p.i_rd, "h_scalar_bits": p.h_scalar, "iterations": p.iterations,
        "converged": p.converged, "seed": p.seed}
    assert p[:-1] == (0.25, 4.0, 0.5, 0.75, 1.125, 0.0625, 17, True, 99)


def test_csv_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        surface_from_csv(path)


def _write_csv_rows(path, rows):
    path.write_text("\n".join([CSV_HEADER] + [
        ",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in r.values())
        for r in rows]) + "\n")


@pytest.mark.parametrize("column, value", IMPOSSIBLE)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reader_names_the_first_bad_row_by_its_index(tmp_path, fmt, column, value):
    """The columns are checked whole, yet the refusal names the first bad
    row, not the first row nor a later bad one."""
    rows = [dict(GOOD_ROW, lambda1=0.1 + k, iterations=k) for k in range(45)]
    rows[37] = rows[40] = dict(GOOD_ROW, **{column: value})
    path = tmp_path / f"surface.{fmt}"
    if fmt == "csv":
        _write_csv_rows(path, rows)
        read, where = surface_from_csv, "row"
    else:
        path.write_text(json.dumps({"points": rows}))
        read, where = surface_from_json, "point"
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {where} 37: .*{column}"):
        read(path)


def test_csv_reader_names_a_short_row_by_its_index(tmp_path):
    rows = [GOOD_ROW] * 45
    rows[37] = {k: v for k, v in GOOD_ROW.items() if k != "seed"}
    path = tmp_path / "surface.csv"
    _write_csv_rows(path, rows)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: row 37: malformed row"):
        surface_from_csv(path)


@pytest.mark.parametrize("write, read", [(surface_to_csv, surface_from_csv),
                                         (surface_to_json, surface_from_json)])
def test_surface_file_round_trip_is_bitwise(tmp_path, write, read):
    points = (SurfacePoint(0.001, 10.0, 0.7530348300875424, 0.0, 0.40633433942036395,
                           1e-237, 0, False, 2 ** 32 - 1),
              SurfacePoint(0.1, 0.30000000000000004, 5e-324, 2.5, 1.7976931348623157e308,
                           1.2983545326488541e-166, 5000, True, 0))
    path = tmp_path / "surface.out"
    write(Surface(points=points, channel_fingerprint="", num_levels=2), path)

    def bits(p):
        return [(type(v), repr(v)) for v in tuple(p)]

    assert list(map(bits, read(path).points)) == list(map(bits, points))


@pytest.mark.parametrize("workers", [2, 3])
def test_workers_write_the_serial_surface_byte_for_byte(fx, tmp_path, workers):
    """Worker processes get smaller lockstep batches than a serial sweep
    (one per worker at least), yet write the serial CSV byte for byte."""
    grid = LambdaGrid.log_spaced(0.01, 2.0, 3)
    paths = []
    for w in (None, workers):
        path = tmp_path / f"surface-{w}.csv"
        surface_to_csv(sweep_grid(fx, 3, grid=grid, restarts=2, seed=5, workers=w), path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
