"""Lockstep batches (optimizer._lockstep) against optimize() alone.

Every solve runs in a lockstep batch; optimize() is a batch of one.
A batch must give each solve what that solve gives alone, bit for bit,
whatever the other solves of the batch and however the solves are grouped.
"""

import math
import sys

import numpy as np
import pytest
from conftest import tiny_channels
from hypothesis import given, settings
from hypothesis import strategies as st

from qfrelay import LambdaGrid, build_bpsk_mac, initial_quantizer, optimize, sweep_grid
from qfrelay import optimizer
from qfrelay.cli import DEFAULTS
from qfrelay.infotheory import QuantizerPmf, _plogp, _rate_reports
from qfrelay.optimizer import OptimizerResult

# The benchmark's solve sets (perfbench/workloads.py): fixture_timeshare's 16
# grid rows of 16 points on the fixture at L=2, one restart and seed = row;
# oracle_tables' spot check, 8 restarts at each of these pairs with seed 0;
# fig4_sweep's 12 diagonal points of the default grid, one restart and
# seed = index.
FIXTURE_GRID = (1e-3, 10.0, 16)
SPOT_PAIRS = ((0.05, 0.05), (0.1, 0.2), (0.2, 0.1), (0.3, 0.3), (0.15, 0.4))
TRACE_SLACK = 1e-10


def _fields(res):
    """Every field of an OptimizerResult, the quantizer as its bytes."""
    q = res.q_final.q
    return (q.shape, q.tobytes(), res.report, list(res.lagrangian_trace), res.iterations,
            res.converged, res.seed, res.extrapolations_tried, res.extrapolations_accepted,
            res.gap_estimate)


def _recorded_batches(monkeypatch):
    """A list that collects (ch, num_levels, solves, eps, max_iter, results)
    of every batch run while the patch holds."""
    batches, lockstep = [], optimizer._lockstep

    def recorded(ch, num_levels, solves, eps, max_iter):
        results = lockstep(ch, num_levels, solves, eps, max_iter)
        batches.append((ch, num_levels, solves, eps, max_iter, results))
        return results

    monkeypatch.setattr(optimizer, "_lockstep", recorded)
    return batches


def _run_workload(name, fx, bpsk):
    if name == "fixture":
        axis = LambdaGrid.log_spaced(*FIXTURE_GRID).axis1
        for i in range(len(axis)):
            sweep_grid(fx, 2, grid=LambdaGrid([axis[i]], axis), restarts=1, seed=i)
    elif name == "oracle":
        for lam1, lam2 in SPOT_PAIRS:
            optimizer.optimize_restarts(fx, lam1, lam2, 2, restarts=8, seed=0)
    else:
        d = DEFAULTS
        axis = LambdaGrid.log_spaced(d["lambda_min"], d["lambda_max"], d["lambda_count"]).axis1
        for k, lam in enumerate(axis):
            sweep_grid(bpsk, d["levels"], grid=LambdaGrid([lam], [lam]), restarts=1,
                       eps=d["eps"], max_iter=d["max_iter"], seed=k)


@pytest.mark.parametrize("workload, n_batches, n_solves",
                         [("fixture", 16, 256), ("oracle", 5, 40), ("fig4", 12, 12)])
def test_benchmark_solves_converge_climb_and_match_optimize(workload, n_batches, n_solves, fx,
                                                            bpsk, monkeypatch):
    """Each benchmark workload's solves, as its calls batch them: every one
    converges, its trace never falls by more than TRACE_SLACK max(1, |L|),
    and it is optimize() with its seed, bit for bit."""
    recorded = _recorded_batches(monkeypatch)
    _run_workload(workload, fx, bpsk)
    monkeypatch.undo()
    assert len(recorded) == n_batches
    assert sum(len(b[2]) for b in recorded) == n_solves
    for ch, num_levels, batch, eps, max_iter, results in recorded:
        for (lam1, lam2, init, seed), res in zip(batch, results, strict=True):
            assert res.converged
            trace = res.lagrangian_trace
            assert all(b - a + TRACE_SLACK * max(1.0, abs(a)) >= 0
                       for a, b in zip(trace, trace[1:]))
            alone = optimize(ch, lam1, lam2, num_levels, init=init, eps=eps,
                             max_iter=max_iter, seed=seed)
            assert _fields(res) == _fields(alone)


def _rebind_everywhere(monkeypatch, fn, wrapper):
    """Point every qfrelay module attribute bound to fn at wrapper, as a
    tracer wrapping a public function from outside the package does."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qfrelay" or name.startswith("qfrelay.")):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)


@pytest.mark.parametrize("workload, n_points, n_solves",
                         [("fixture", 256, 256), ("oracle", 5, 40), ("fig4", 12, 12)])
def test_every_solve_comes_back_through_optimize(workload, n_points, n_solves, fx, bpsk,
                                                 monkeypatch):
    """However its solves were batched, each comes back, as the very result
    its batch computed, from one call to optimize(), and each point from one
    call to optimize_restarts(): wrappers of the public functions see them
    all."""
    recorded = _recorded_batches(monkeypatch)
    seen = {"optimize": [], "optimize_restarts": []}
    for fn in (optimizer.optimize, optimizer.optimize_restarts):
        def logged(*args, fn=fn, **kwargs):
            res = fn(*args, **kwargs)
            seen[fn.__name__].append(res)
            return res
        _rebind_everywhere(monkeypatch, fn, logged)
    _run_workload(workload, fx, bpsk)
    batched = [res for batch in recorded for res in batch[5]]
    assert len(seen["optimize"]) == len(batched) == n_solves
    assert all(a is b for a, b in zip(seen["optimize"], batched))
    assert len(seen["optimize_restarts"]) == n_points


def test_handed_results_are_not_solved_again(fx, monkeypatch):
    """A result passed as _solved is returned as it is, and optimize_restarts
    returns each passed result through a call to optimize(), the first of
    equal maxima winning, without running a batch."""
    r0, r1 = list(optimizer._solve_batch(fx, 2, [(0.3, 0.7, "perturbed-uniform", 1)] * 2))
    assert r0 is not r1 and r0.lagrangian_trace[-1] == r1.lagrangian_trace[-1]

    def refused(*args):
        raise AssertionError("a handed-out result was solved again")

    monkeypatch.setattr(optimizer, "_lockstep", refused)
    assert optimize(fx, 0.3, 0.7, 2, seed=1, _solved=r0) is r0
    calls = []

    def logged(*args, fn=optimizer.optimize, **kwargs):
        calls.append(kwargs["_solved"])
        return fn(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize", logged)
    assert optimizer.optimize_restarts(fx, 0.3, 0.7, 2, restarts=2, _solved=[r0, r1]) is r0
    assert len(calls) == 2 and calls[0] is r0 and calls[1] is r1


@st.composite
def batches(draw):
    """(channel, levels, solves, eps, max_iter, cap) with 1-6 solves that mix
    multipliers, seeds and inits; identity starts on fewer bins than levels
    leave dead levels, and max_iter may stop solves before they converge."""
    ch = draw(tiny_channels())
    levels = draw(st.integers(1, 5))
    inits = ["perturbed-uniform", "random"] + (["identity"] if levels >= ch.num_bins else [])
    lams = st.floats(1e-3, 10.0)
    solves = draw(st.lists(st.tuples(lams, lams, st.sampled_from(inits),
                                     st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=6))
    eps = draw(st.sampled_from([1e-8, 1e-12]))
    max_iter = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 21, 5000]))
    cap = draw(st.sampled_from([1, 2, 3, optimizer.MAX_BATCH]))
    return ch, levels, solves, eps, max_iter, cap


@settings(max_examples=150, deadline=None)
@given(case=batches())
def test_batch_results_do_not_depend_on_the_batch(case):
    """A solve in any batch, under any MAX_BATCH, is the solve alone: q,
    trace, iterations, converged, extrapolations and gap estimate alike."""
    ch, levels, solves, eps, max_iter, cap = case
    saved = optimizer.MAX_BATCH
    optimizer.MAX_BATCH = cap
    try:
        results = list(optimizer._solve_batch(ch, levels, solves, eps, max_iter))
    finally:
        optimizer.MAX_BATCH = saved
    for (lam1, lam2, init, seed), res in zip(solves, results, strict=True):
        alone = optimize(ch, lam1, lam2, levels, init=init, eps=eps, max_iter=max_iter,
                         seed=seed)
        assert _fields(res) == _fields(alone)


def test_batch_mixes_converged_capped_and_dead_level_solves(fx):
    """One batch whose solves end at different ticks, for different reasons:
    one converges, one is stopped by max_iter, and one identity start keeps
    its dead level."""
    solves = [(0.3, 0.7, "perturbed-uniform", 1), (0.001, 0.001, "random", 2),
              (0.5, 0.1, "identity", 0)]
    results = list(optimizer._solve_batch(fx, 4, solves, 1e-12, 20))
    assert len({res.iterations for res in results}) > 1
    assert [res.converged for res in results] == [False, True, False]
    assert results[0].extrapolations_tried > 0
    assert results[2].q_final.q[3].max() < 1e-250
    for (lam1, lam2, init, seed), res in zip(solves, results):
        alone = optimize(fx, lam1, lam2, 4, init=init, eps=1e-12, max_iter=20, seed=seed)
        assert _fields(res) == _fields(alone)


def test_first_failing_solve_in_order_raises(fx):
    """Multipliers near the smallest float give a non-finite K: the batch
    raises the FloatingPointError of its first failing solve in order, as
    that solve alone raises it, whatever the solves around it."""
    ok, bad, worse = (0.3, 0.7), (1e-308, 1e-308), (5e-324, 5e-324)
    messages = {}
    for lams in (bad, worse):
        with pytest.raises(FloatingPointError) as alone:
            optimize(fx, *lams, 2, init="random", seed=1)
        messages[lams] = str(alone.value)
    assert messages[bad] != messages[worse]
    for second, third in ((bad, ok), (bad, worse), (worse, bad)):
        solves = [(*ok, "random", 0), (*second, "random", 1), (*third, "random", 2)]
        with pytest.raises(FloatingPointError) as batch:
            list(optimizer._solve_batch(fx, 2, solves))
        assert str(batch.value) == messages[second]


@pytest.mark.parametrize("refuse_all", [False, True])
def test_refused_extrapolations_end_their_cycles_alone(refuse_all, monkeypatch):
    """Where softmax refuses some slices of a batch's extrapolations, each
    slice is jumped alone, and a refused one ends its cycle at q2 without a
    map evaluation or a try: the batch still gives every solve its result
    alone.  Slices are refused by their own values, so a solve meets the
    same refusals in any batch.  Refusing them all makes every solve end at
    a refused cycle, while others of its batch go on."""
    squarem, advance = optimizer._squarem_exponents, optimizer._FusedStep.advance
    extrapolated, refused, evaluated = [], [], []

    def refusing(s0, s1, s2, q2, p_yr, caps):
        x, lengths = squarem(s0, s1, s2, q2, p_yr, caps)
        extrapolated.extend(caps)
        for k in range(len(x)):
            if refuse_all or math.floor(float(s2[k].sum()) * 1e3) % 3 == 0:
                x[k, 0, 0] = np.nan
                refused.append(k)
        return x, lengths

    def counted(self, log_t):
        evaluated.append(len(log_t))
        return advance(self, log_t)

    monkeypatch.setattr(optimizer, "_squarem_exponents", refusing)
    monkeypatch.setattr(optimizer._FusedStep, "advance", counted)
    ch = build_bpsk_mac(1.5, 4.5, 32)
    solves = [(0.0123, 0.0123, "perturbed-uniform", s) for s in range(3)]
    solves += [(0.05, 0.2, "random", 7)]
    results = list(optimizer._solve_batch(ch, 8, solves))
    assert 0 < len(refused) <= len(extrapolated)
    assert (len(refused) == len(extrapolated)) == refuse_all
    for (lam1, lam2, init, seed), res in zip(solves, results):
        for log in (extrapolated, refused, evaluated):
            log.clear()
        alone = optimize(ch, lam1, lam2, 8, init=init, seed=seed)
        assert _fields(res) == _fields(alone)
        assert sum(evaluated) == alone.iterations
        assert alone.extrapolations_tried == len(extrapolated) - len(refused)


def _refusing(refused):
    """_squarem_exponents, except that each slice whose s2 sums to v with
    floor(1e3 v) % 3 == 0 gets a NaN, which softmax refuses, and is logged in
    refused.  Slices are refused by their own values, so a solve meets the
    same refusals in any batch."""
    squarem = optimizer._squarem_exponents

    def refusing(s0, s1, s2, q2, p_yr, caps):
        x, lengths = squarem(s0, s1, s2, q2, p_yr, caps)
        for k in range(len(x)):
            if math.floor(float(s2[k].sum()) * 1e3) % 3 == 0:
                x[k, 0, 0] = np.nan
                refused.append(k)
        return x, lengths

    return refusing


def _driven_alone(ch, levels, solve, eps, max_iter):
    """(result, last message) of one solve under the plainest driver of
    _solve: batch-of-one kernel calls, its own chain of the last three
    exponents and its own q2 to go back to; no compaction, no subset gathers
    and no reverts in place.  The last message is what the solve was sent
    before it returned."""
    lam1, lam2, init, seed = solve
    q = initial_quantizer(levels, ch.num_bins, init, np.random.default_rng(seed)).q.copy()[None]
    step = optimizer._FusedStep(ch, [lam1], [lam2])
    lt, [value] = step.evaluate(q, np.vecdot(ch.p_yr, -_plogp(q).sum(axis=-2)).tolist())
    run, chain = optimizer._solve(value, eps, max_iter), []
    ask = next(run)
    try:
        while True:
            if ask is optimizer.PLAIN:
                q, e, lt, [msg], _ = step.advance(lt)
                chain = chain[-2:] + [e]
            elif ask is optimizer.REVERT:
                q, chain[-1], lt = q2
                msg = None
            else:  # an extrapolation capped at ask
                q2 = q, chain[-1], lt
                x, [length] = optimizer._squarem_exponents(*chain, q, ch.p_yr, [ask])
                lt_x, refused = step.jump(x)
                msg = length, None
                if not refused:
                    q, e, lt, [value], _ = step.advance(lt_x)
                    chain = chain[-2:] + [e]
                    msg = length, value
            ask = run.send(msg)
    except StopIteration as end:
        trace, iterations, converged, tried, accepted, gap = end.value
    q_final = QuantizerPmf(q[0])
    return OptimizerResult(q_final, _rate_reports(ch, q_final.q[None])[0], trace, iterations,
                           converged, seed, tried, accepted,
                           float(gap) if math.isfinite(gap) else None), msg


@pytest.mark.parametrize("case", ["fixture", "bpsk"])
def test_batch_of_all_three_inits_matches_the_plainest_driver(case, fx):
    """One _lockstep batch mixing perturbed-uniform, random and identity
    starts (identity needs at least as many levels as bins) gives each solve
    what _driven_alone gives it, field for field: on the fixture at L = 4,
    with a dead level, and on 32-bin BPSK at L = 32."""
    ch, levels = (fx, 4) if case == "fixture" else (build_bpsk_mac(1.5, 4.5, 32), 32)
    solves = [(0.3, 0.7, "identity", 0), (0.05, 0.2, "random", 4),
              (0.02, 0.02, "perturbed-uniform", 1), (0.5, 0.1, "identity", 3),
              (0.01, 0.5, "random", 2), (0.2, 0.5, "perturbed-uniform", 5)]
    batch = optimizer._lockstep(ch, levels, solves, 1e-8, 5000)
    alone = [_driven_alone(ch, levels, solve, 1e-8, 5000)[0] for solve in solves]
    assert [_fields(res) for res in batch] == [_fields(res) for res in alone]


@pytest.mark.parametrize("case", ["fixture", "bpsk"])
def test_batch_results_own_their_quantizers(case, fx, bpsk):
    """Every q_final of a many-solve batch is an array of its own, not a view
    that would keep the batch's stack alive: C-contiguous, read-only and
    column-stochastic within 1e-15."""
    ch, levels = (fx, 2) if case == "fixture" else (bpsk, 32)
    solves = [(lam, 2 * lam, init, seed) for lam in (0.05, 0.3)
              for init, seed in (("perturbed-uniform", 1), ("random", 2))]
    results = list(optimizer._solve_batch(ch, levels, solves))
    assert len(results) == 4
    for res in results:
        q = res.q_final.q
        assert q.base is None and q.flags.c_contiguous and not q.flags.writeable
        assert np.max(np.abs(q.sum(axis=0) - 1.0)) <= 1e-15


# One batch on the fixture at L=2 whose solves end at different ticks, for
# different reasons.  At max_iter 5 and 13 most are capped and two converge.
# At 5000 all converge: two right after a rejected candidate, and two after
# more cycles from a rejected candidate's q2, the first while the last still
# runs beside it.  Under test_batch_matches_the_plainest_driver's refusals,
# some end at a refused extrapolation instead.
MIXED = [(0.001, 0.001, "random", 1), (0.02, 0.02, "perturbed-uniform", 1),
         (0.02, 0.02, "perturbed-uniform", 4), (0.05, 0.2, "perturbed-uniform", 4),
         (0.05, 0.2, "random", 4), (0.01, 0.5, "perturbed-uniform", 1), (0.3, 0.7, "random", 1),
         (0.2, 0.5, "perturbed-uniform", 1), (0.5, 0.2, "perturbed-uniform", 2)]


# Three of fig4_sweep's diagonal solves: BPSK at L = 32 with the default eps
# and max_iter.  numpy sums fewer than 8 entries in plain order whatever
# their memory layout, but a contiguous run of 32 in eight interleaved
# partial sums, so only a case of 8 levels or more shows the layout of the
# batch's start stack in the bits.
FIG4_DIAGONAL = (1, 5, 9)


# ids False and True are the fixture's mixed batch, without or with refusals
@pytest.mark.parametrize("case, refuse", [
    pytest.param("fixture", False, id="False"), pytest.param("fixture", True, id="True"),
    pytest.param("bpsk", False, id="bpsk-False"), pytest.param("bpsk", True, id="bpsk-True")])
def test_batch_matches_the_plainest_driver(case, refuse, fx, bpsk, monkeypatch):
    """_lockstep under MAX_BATCH 1 and 16 gives each solve of a batch what
    _driven_alone gives it, bit for bit.  On the fixture's mixed batch:
    converged and capped solves, rejected candidates, solves that end right
    after going back to q2, and with refusals, extrapolations that softmax
    refuses.  On BPSK: solves at 32 levels."""
    refused = []
    if refuse:
        monkeypatch.setattr(optimizer, "_squarem_exponents", _refusing(refused))
    if case == "fixture":
        ch, levels, solves, runs = fx, 2, MIXED, [(1e-8, max_iter) for max_iter in (5, 13, 5000)]
    else:
        d = DEFAULTS
        axis = LambdaGrid.log_spaced(d["lambda_min"], d["lambda_max"], d["lambda_count"]).axis1
        ch, levels, runs = bpsk, d["levels"], [(d["eps"], d["max_iter"])]
        solves = [(axis[k], axis[k], "perturbed-uniform", k) for k in FIG4_DIAGONAL]
    lasts, results = [], []
    for eps, max_iter in runs:
        alone = [_driven_alone(ch, levels, solve, eps, max_iter) for solve in solves]
        lasts += [last for _, last in alone]
        results += [res for res, _ in alone]
        for cap in (1, optimizer.MAX_BATCH):
            monkeypatch.setattr(optimizer, "MAX_BATCH", cap)
            batch = list(optimizer._solve_batch(ch, levels, solves, eps, max_iter))
            assert [_fields(res) for res in batch] == [_fields(res) for res, _ in alone]
    if case == "bpsk":
        assert all(res.converged for res in results) and bool(refused) == refuse
        return
    assert {res.converged for res in results} == {True, False}
    # solves that end where the batch must put their slice back at q2: right
    # after a rejected candidate, or at a refused extrapolation
    if refuse:
        assert any(isinstance(msg, tuple) and msg[1] is None for msg in lasts)
    else:
        assert not refused and None in lasts
        assert any(res.extrapolations_tried > res.extrapolations_accepted for res in results)


@settings(max_examples=150, deadline=None)
@given(case=batches())
def test_batch_results_under_refusals_do_not_depend_on_the_batch(case):
    """test_batch_results_do_not_depend_on_the_batch under _refusing's
    extrapolations, the batch and every lone run alike: random batches meet
    refusals beside compaction, rejected candidates and max_iter caps, and
    each solve is still the solve alone, field for field.  Extrapolation
    engages from the second plain step on: at the default gate, these tiny
    channels converge before it engages in all but about 1 % of batches."""
    ch, levels, solves, eps, max_iter, cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "SQUAREM_MIN_STEPS", 2)
        mp.setattr(optimizer, "SQUAREM_GATE_RATIO", 0.0)
        mp.setattr(optimizer, "_squarem_exponents", _refusing([]))
        mp.setattr(optimizer, "MAX_BATCH", cap)
        results = list(optimizer._solve_batch(ch, levels, solves, eps, max_iter))
        alone = [optimize(ch, lam1, lam2, levels, init=init, eps=eps, max_iter=max_iter,
                          seed=seed) for lam1, lam2, init, seed in solves]
    assert [_fields(res) for res in results] == [_fields(res) for res in alone]


@pytest.mark.parametrize("refuse", [False, True])
def test_advance_rows_are_the_batch_map_evaluations(refuse, fx, monkeypatch):
    """advance computes a row for each map evaluation of a batch's solves,
    plus at most one for each solve that ends at a refused extrapolation
    while others of its tick go on: that tick still advances the slice,
    and only a tick in which every solve so ends skips advance.  On MIXED
    under MAX_BATCH 1 and 16 at max_iter 5, 13 and 5000, the extra rows are
    none but two, under refusals, at 16 and 5000: no map step is added."""
    if refuse:
        monkeypatch.setattr(optimizer, "_squarem_exponents", _refusing([]))
    # how many solves of MIXED end at a refused extrapolation, per max_iter
    at_refusal = {max_iter: sum(isinstance(msg, tuple) and msg[1] is None for _, msg in
                                (_driven_alone(fx, 2, solve, 1e-8, max_iter) for solve in MIXED))
                  for max_iter in (5, 13, 5000)}
    advance, rows, extra = optimizer._FusedStep.advance, [], {}

    def counted(self, log_t):
        rows.append(len(log_t))
        return advance(self, log_t)

    monkeypatch.setattr(optimizer._FusedStep, "advance", counted)
    for max_iter, cap in [(m, c) for m in at_refusal for c in (1, 16)]:
        monkeypatch.setattr(optimizer, "MAX_BATCH", cap)
        rows.clear()
        results = list(optimizer._solve_batch(fx, 2, MIXED, 1e-8, max_iter))
        extra[max_iter, cap] = sum(rows) - sum(res.iterations for res in results)
        assert 0 <= extra[max_iter, cap] <= (at_refusal[max_iter] if cap > 1 else 0)
    assert {key: n for key, n in extra.items() if n} == ({(5000, 16): 2} if refuse else {})
    assert at_refusal[5000] >= 2 if refuse else not any(at_refusal.values())
