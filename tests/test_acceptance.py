"""Acceptance suite: ten criteria, one test (one pass/fail line) each.

Every tolerance is stated inline next to its assertion.  Criterion 7's first
clause is known not to hold for this solver family; see the package README
for the analysis.  The test asserts the stated threshold anyway and fails
honestly rather than loosening it.
"""
import itertools
import json
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from qfrelay import (
    LambdaGrid,
    envelope_point,
    optimize,
    optimize_alpha,
    optimize_restarts,
    query_lower_envelope,
    rate_report,
    round_to_scalar,
    sweep_grid,
    uplink_sum_rate_bound,
    QuantizerPmf,
)
from qfrelay.cli import main, run_repro


@pytest.fixture(scope="session")
def fx_surface_l5(fx):
    return sweep_grid(fx, 5, restarts=4, seed=0)


@pytest.fixture(scope="session")
def fx_surface_l6(fx):
    return sweep_grid(fx, 6, restarts=4, seed=0)


def test_criterion_01_monotone_convergence(bpsk):
    """20 random multiplier/seed triples on the BPSK setup, L=32: every trace
    non-decreasing within 1e-10 relative slack, converged at eps=1e-6 within
    500 iterations, under 60 s total."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_iter = 0
    for _ in range(20):
        lam1, lam2 = 10.0 ** rng.uniform(-3, 1, size=2)
        seed = int(rng.integers(0, 2 ** 31))
        res = optimize(bpsk, lam1, lam2, 32, eps=1e-6, max_iter=500, seed=seed)
        assert res.converged, (
            f"run lam=({lam1:.4g},{lam2:.4g}) seed={seed} hit max_iter")
        worst_iter = max(worst_iter, res.iterations)
        trace = np.asarray(res.lagrangian_trace)
        slack = 1e-10 * np.maximum(1.0, np.abs(trace[:-1]))
        drops = np.diff(trace) + slack
        assert drops.min() >= 0, (
            f"trace decreased by {-drops.min():.3e} at lam=({lam1:.4g},{lam2:.4g})")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    assert worst_iter <= 500


def test_criterion_02_upper_bound_saturation(bpsk, bpsk_surface):
    """Near-zero multipliers saturate the uplink bound within 5e-3 bits and
    no swept point ever exceeds the bound by more than 1e-9."""
    bound = uplink_sum_rate_bound(bpsk)
    res = optimize_restarts(bpsk, 1e-3, 1e-3, 32, restarts=4, seed=0)
    gap = bound - res.report.j_value
    assert abs(gap) <= 5e-3, f"saturation gap {gap:.3e} bits exceeds 5e-3"
    assert res.report.j_value <= bound + 1e-9
    worst = max(p.i_rd for p in bpsk_surface.points)
    assert worst <= bound + 1e-9, f"sweep exceeds bound by {worst - bound:.3e}"


def test_criterion_03_oracle_equivalence(fx, fx_table_l2, fx_surface_dense):
    """Fixture channel, L=2: best-of-8-restarts Lagrangian within 1e-2 bits of
    the step-0.02 brute-force maximum at 5 multiplier points; envelope queries
    within 1e-2 bits of constrained brute force; under 5 minutes."""
    start = time.perf_counter()
    for lam1, lam2 in ((0.05, 0.05), (0.1, 0.2), (0.2, 0.1), (0.3, 0.3), (0.15, 0.4)):
        want, _ = fx_table_l2.best_penalized(lam1, lam2)
        res = optimize_restarts(fx, lam1, lam2, 2, restarts=8, seed=0)
        got = res.lagrangian_trace[-1]
        assert abs(got - want) <= 1e-2, (
            f"lam=({lam1},{lam2}): optimizer {got:.6f} vs oracle {want:.6f}")
    for t1, t2 in ((0.2, 0.2), (0.5, 0.5), (0.8, 0.8), (0.3, 0.6), (0.6, 0.3)):
        want, _ = fx_table_l2.best_constrained(t1, t2)
        got = query_lower_envelope(fx_surface_dense, t1, t2)
        assert abs(got - want) <= 1e-2, (
            f"targets ({t1},{t2}): envelope {got:.6f} vs oracle {want:.6f}")
    assert time.perf_counter() - start < 300.0


def test_criterion_04_surface_monotonicity(bpsk_surface):
    """On the 12x12 reproduction sweep, dominated-point violations beyond
    5e-3 bits occur in at most 5% of comparable pairs."""
    pts = bpsk_surface.points
    c1 = np.array([p.c1 for p in pts])
    c2 = np.array([p.c2 for p in pts])
    ird = np.array([p.i_rd for p in pts])
    dominated = (c1[:, None] <= c1[None, :]) & (c2[:, None] <= c2[None, :])
    np.fill_diagonal(dominated, False)
    comparable = int(dominated.sum())
    bad = int((dominated & (ird[:, None] > ird[None, :] + 5e-3)).sum())
    assert comparable > 0
    frac = bad / comparable
    assert frac <= 0.05, f"{bad}/{comparable} = {frac:.2%} monotonicity violations"


def _concave_envelope_deficits(points):
    """Per-point gap to the upper concave envelope of the (c1, c2, i_rd)
    cloud, via a small LP at each point's own coordinates.  The coordinate
    match is relaxed by 1e-9 so the point itself is always feasible, and
    presolve is off because it misreports these near-equality rows as
    infeasible."""
    c = np.array([[p.c1, p.c2] for p in points])
    v = np.array([p.i_rd for p in points])
    n = len(points)
    deficits = []
    for k in range(n):
        a_ub = np.vstack([c.T, -c.T])
        b_ub = np.concatenate([c[k] + 1e-9, -c[k] + 1e-9])
        res = linprog(-v, A_ub=a_ub, b_ub=b_ub,
                      A_eq=np.ones((1, n)), b_eq=[1.0],
                      bounds=[(0, None)] * n, method="highs",
                      options={"presolve": False})
        assert res.status == 0, f"envelope LP failed at point {k}: {res.message}"
        deficits.append(-res.fun - v[k])
    return np.array(deficits)


def test_criterion_05_concavity(bpsk_surface, fx, fx_table_l3):
    """(a) at most 10% of swept points sit more than 2e-2 bits below the
    cloud's upper concave envelope; (b) oracle midpoint concavity on a 5x5
    fixture target grid holds within 1e-2 bits for axis-aligned and diagonal
    pairs."""
    deficits = _concave_envelope_deficits(bpsk_surface.points)
    frac = float((deficits > 2e-2).mean())
    assert frac <= 0.10, (
        f"{frac:.2%} of points below concave envelope by more than 2e-2 "
        f"(worst {deficits.max():.3e})")

    targets = np.linspace(0.15, 1.2, 5)
    cache = {}

    def ird(t1, t2):
        key = (round(t1, 12), round(t2, 12))
        if key not in cache:
            val, _ = fx_table_l3.best_constrained(t1, t2)
            cache[key] = val
        return cache[key]

    nodes = list(itertools.product(range(5), repeat=2))
    worst = 0.0
    for (i1, j1), (i2, j2) in itertools.combinations(nodes, 2):
        di, dj = i2 - i1, j2 - j1
        axis_aligned = di == 0 or dj == 0
        diagonal = abs(di) == abs(dj)
        if not (axis_aligned or diagonal):
            continue
        a = (targets[i1], targets[j1])
        b = (targets[i2], targets[j2])
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        deficit = (ird(*a) + ird(*b)) / 2 - ird(*mid)
        worst = max(worst, deficit)
    assert worst <= 1e-2, f"worst midpoint concavity deficit {worst:.3e} bits"


def test_criterion_06_cardinality_bound(fx_surface_l5, fx_surface_l6):
    """Fixture surface maxima with L = |Yr|+2 = 5 and L = 2|Yr| = 6 agree
    within 5e-3 bits."""
    m5 = max(p.i_rd for p in fx_surface_l5.points)
    m6 = max(p.i_rd for p in fx_surface_l6.points)
    assert abs(m5 - m6) <= 5e-3, f"L=5 max {m5:.6f} vs L=6 max {m6:.6f}"


def test_criterion_07_scalar_quantizer_sufficiency(bpsk, bpsk_surface):
    """Top-decile-by-i_rd sweep points: h_scalar <= 0.05 bits each, and
    rounding their quantizers to scalar ones loses <= 0.02 bits of J.

    The first clause fails for this solver family: the multiplier-weighted
    update strictly prefers soft column splits (splitting a level in two
    preserves J and lowers both description rates), so best-by-Lagrangian
    winners keep H(Yhat|Yr) far above 0.05 bits.  Kept at the stated
    threshold; see README for the analysis.
    """
    pts = sorted(bpsk_surface.points, key=lambda p: p.i_rd, reverse=True)
    top = pts[:max(1, len(pts) // 10)]
    worst_h = max(p.h_scalar for p in top)
    worst_loss = 0.0
    for p in top:
        rounded = rate_report(bpsk, round_to_scalar(p.q))
        worst_loss = max(worst_loss, p.i_rd - rounded.j_value)
    assert worst_loss <= 0.02 and worst_h <= 0.05, (
        f"top-decile h_scalar max {worst_h:.3f} bits (threshold 0.05); "
        f"rounding loss max {worst_loss:.3e} bits (threshold 0.02)")


def test_criterion_08_sum_rate_optimizer(fx, fx_surface_dense, fx_table_l2):
    """optimize_alpha matches exhaustive dense-alpha x oracle maximization
    within 2e-2 bits, and the returned rate is re-verified achievable from
    the stored argmax quantizer."""
    i1, i2 = 0.35, 0.6
    res = optimize_alpha(fx_surface_dense, i1, i2)

    best = 0.0
    for alpha in np.linspace(0.002, 0.998, 400):
        t = (1 - alpha) / alpha
        val, _ = fx_table_l2.best_constrained(t * i1, t * i2)
        best = max(best, alpha * val)
    assert abs(res.sum_rate - best) <= 2e-2, (
        f"optimize_alpha {res.sum_rate:.6f} vs exhaustive oracle {best:.6f}")

    point = envelope_point(fx_surface_dense, res.c1_at_star, res.c2_at_star)
    assert point is not None and point.q is not None
    rep = rate_report(fx, point.q)
    assert rep.j_value >= res.i_rd_at_star - 1e-12
    assert rep.c1_achieved <= res.c1_at_star + 1e-12
    assert rep.c2_achieved <= res.c2_at_star + 1e-12
    assert res.sum_rate == pytest.approx(res.alpha_star * res.i_rd_at_star, abs=1e-12)


def test_criterion_09_permutation_symmetry(fx, rng):
    """100 random (Q, permutation) pairs give field-identical reports to 1e-12."""
    fields = ("j_value", "c1_achieved", "c2_achieved", "h_yhat_given_y", "r1", "r2")
    for _ in range(100):
        L = int(rng.integers(2, 7))
        q = rng.dirichlet(np.ones(L), size=3).T
        perm = rng.permutation(L)
        ra = rate_report(fx, QuantizerPmf(q))
        rb = rate_report(fx, QuantizerPmf(q[perm]))
        for f in fields:
            diff = abs(getattr(ra, f) - getattr(rb, f))
            assert diff <= 1e-12, f"{f} differs by {diff:.3e} under row permutation"


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed give byte-identical CSV outputs."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "channel": {
            "p_x1": [0.5, 0.5],
            "p_x2": [0.65, 0.35],
            "p_yr_given_x1x2": [
                [[0.80, 0.15, 0.05], [0.10, 0.70, 0.20]],
                [[0.15, 0.70, 0.15], [0.05, 0.20, 0.75]],
            ],
        },
        "quantizer": {"levels": 2, "seed": 7},
        "solver": {"lambda_grid": {"min": 0.05, "max": 5.0, "count": 4}},
    }))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1], "sweep CSVs differ between identical runs"

    for d in ("r1", "r2"):
        run_repro("fig3", outdir=str(tmp_path / d), seed=0)
    t1 = (tmp_path / "r1" / "fig3_trace.csv").read_bytes()
    t2 = (tmp_path / "r2" / "fig3_trace.csv").read_bytes()
    assert t1 == t2, "fig3 trace CSVs differ between identical runs"
