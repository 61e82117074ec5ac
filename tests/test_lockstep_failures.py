"""A solve that fails mid-run in a lockstep batch (optimizer._lockstep)
fails as it fails alone, and leaves the solves batched with it as they are
alone."""

import math

import numpy as np
import pytest
from test_lockstep import _fields

from qfrelay import build_bpsk_mac, optimize
from qfrelay import optimizer

# Five solves on BPSK with 32 bins and 8 levels: the 2nd, 4th and 5th meet
# the poison of test_a_delta_that_turns_nonfinite_mid_run_fails_its_solve_alone
# after extrapolation has engaged, each at its own entry, and the 4th fails
# first; the 1st and 3rd converge before they meet it.
SOLVES = [(0.0123, 0.0123, "perturbed-uniform", 2), (0.02, 0.02, "perturbed-uniform", 0),
          (0.05, 0.05, "perturbed-uniform", 2), (0.05, 0.05, "perturbed-uniform", 4),
          (0.0123, 0.0123, "perturbed-uniform", 0)]


def test_a_delta_that_turns_nonfinite_mid_run_fails_its_solve_alone(monkeypatch):
    """advance's input turns NaN where a predicate on the slice's own values
    holds, at an entry that depends on those values, so a solve meets the
    same poison at the same evaluation in any batch.  The poison goes into a
    copy of the input, so advance must name the entry from its own input.
    Under any MAX_BATCH a batch raises the FloatingPointError of its first
    failing solve in order, as that solve raises it alone, even where a later
    one fails sooner, and every batch that ran to its end gave its solves
    their results alone."""
    advance, squarem = optimizer._FusedStep.advance, optimizer._squarem_exponents
    evaluations, extrapolations = [], []

    def poisoned(self, log_t):
        log_t = log_t.copy()
        for k in range(len(log_t)):
            key = math.floor(float(log_t[k].sum()) * 1e6)
            if key % 97 == 0:
                log_t[k, 0, key // 97 % log_t.shape[-1]] = np.nan
        evaluations.append(len(log_t))
        return advance(self, log_t)

    def counted(*args):
        extrapolations.append(1)
        return squarem(*args)

    monkeypatch.setattr(optimizer._FusedStep, "advance", poisoned)
    monkeypatch.setattr(optimizer, "_squarem_exponents", counted)
    ch = build_bpsk_mac(1.5, 4.5, 32)
    alone, failed_at = [], {}
    for i, (lam1, lam2, init, seed) in enumerate(SOLVES):
        evaluations.clear()
        extrapolations.clear()
        try:
            alone.append(optimize(ch, lam1, lam2, 8, init=init, seed=seed))
        except FloatingPointError as err:
            assert extrapolations  # the failure comes after engagement
            alone.append(str(err))
            failed_at[i] = len(evaluations)
    assert list(failed_at) == [1, 3, 4]
    assert len({alone[i] for i in failed_at}) == 3
    assert failed_at[3] < failed_at[1]

    lockstep, finished = optimizer._lockstep, []

    def recorded(ch, num_levels, solves, eps, max_iter):
        results = lockstep(ch, num_levels, solves, eps, max_iter)
        finished.extend(zip(solves, results))
        return results

    monkeypatch.setattr(optimizer, "_lockstep", recorded)
    for cap in (1, 2, 3, optimizer.MAX_BATCH):
        monkeypatch.setattr(optimizer, "MAX_BATCH", cap)
        for solves, first in ((SOLVES, 1), (SOLVES[2:], 3), (SOLVES[4:] + SOLVES[3:4], 4)):
            with pytest.raises(FloatingPointError) as batch:
                list(optimizer._solve_batch(ch, 8, solves))
            assert str(batch.value) == alone[first]
        assert list(optimizer._solve_batch(ch, 8, SOLVES[0:3:2]))
    assert len(finished) >= 8
    for solve, res in finished:
        assert _fields(res) == _fields(alone[SOLVES.index(solve)])
