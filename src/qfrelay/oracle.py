"""Brute-force reference implementations at tiny scale.

Everything here is computed from entries of the explicit four-way joint table
p(x1, x2, y_r, yhat_r) = p(x1, x2, y_r) * q(yhat_r | y_r), with no Markov-chain
shortcuts such as H(Yhat|Yr), so it certifies the factored formulas used by
the fast path.  The enumeration walks every column-stochastic Q whose columns
live on a uniform simplex grid; instances beyond the cell budget are refused,
not attempted.  RateTable forms each relay bin's slice of the joint once per
grid column rather than once per candidate (see its docstring).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import xlogy

from qfrelay.channel import ChannelModel, from_pmfs
from qfrelay.infotheory import LN2, QuantizerPmf, yr_conditional_entropies

DEFAULT_MAX_CELLS = 2_000_000
# Most candidates per vectorized run of the table build; a run is never
# shorter than one relay bin's grid columns, however many those are.
RUN_CELLS = 1 << 14


class OracleBudgetError(Exception):
    """Raised when an enumeration would exceed the configured cell budget."""


def _grid_size(grid_step: float, num_levels: int, n_cols: int, max_cells: float) -> tuple:
    """(n, candidates) for num_levels x n_cols matrices on the step-1/n grid.

    The step must be 1/n for a whole n; anything else is refused rather than
    rounded.  More candidates than max_cells raises OracleBudgetError.
    """
    if num_levels < 1:
        raise ValueError("num_levels must be at least 1")
    if not (0 < grid_step <= 1):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step!r}")
    n = round(1.0 / grid_step)
    if abs(n * grid_step - 1.0) > 1e-9:
        raise ValueError(f"grid_step must be 1/n for a whole n, got {grid_step!r}")
    total = math.comb(n + num_levels - 1, num_levels - 1) ** n_cols
    if total > max_cells:
        raise OracleBudgetError(
            f"enumeration needs {total} candidate matrices "
            f"(columns on the step-{grid_step} simplex grid, {n_cols} columns), "
            f"budget is {max_cells}"
        )
    return n, total


def fixture_channel() -> ChannelModel:
    """Small asymmetric 2x2x3 noisy-sum channel used throughout the tests.

    The priors and the output law are deliberately not symmetric in the two
    users so index swaps between user 1 and user 2 change every rate quantity.
    """
    w = np.array([
        [[0.80, 0.15, 0.05], [0.10, 0.70, 0.20]],
        [[0.15, 0.70, 0.15], [0.05, 0.20, 0.75]],
    ])
    return from_pmfs(p_x1=[0.5, 0.5], p_x2=[0.65, 0.35], p_yr_given_x1x2=w)


def _simplex_columns(num_levels: int, n: int) -> np.ndarray:
    """All pmfs on num_levels points with masses that are multiples of 1/n.

    Compositions of n into num_levels parts via bar placements; returned as a
    (count, num_levels) float array in a fixed deterministic order.
    """
    bars = list(itertools.combinations(range(n + num_levels - 1), num_levels - 1))
    bars = np.array(bars, dtype=float).reshape(len(bars), num_levels - 1)
    return (np.diff(bars, axis=1, prepend=-1, append=n + num_levels - 1) - 1) / n


def enumerate_q(L: int, n_cols: int, grid_step: float,
                max_cells: int = DEFAULT_MAX_CELLS):
    """Yield every column-stochastic L x n_cols matrix on the simplex grid.

    Column order follows the mixed-radix flat index used by RateTable, so the
    k-th yielded matrix is exactly RateTable candidate k.
    """
    n, _ = _grid_size(grid_step, L, n_cols, max_cells)
    cols = _simplex_columns(L, n)
    for combo in itertools.product(cols, repeat=n_cols):
        yield QuantizerPmf(np.stack(combo, axis=1))


def _marginal_entropies_nats(joint3: np.ndarray) -> list:
    """H(X1,X2), H(X1,Yr), H(X2,Yr), H(X1) and H(X2) of the fixed joint, in nats."""
    p_ab = joint3.sum(axis=2)
    parts = (p_ab, joint3.sum(axis=1), joint3.sum(axis=0), p_ab.sum(axis=1), p_ab.sum(axis=0))
    return [float(-xlogy(p, p).sum()) for p in parts]


def _digit_sums(tables: np.ndarray) -> np.ndarray:
    """Row k is the sum over digits j of tables[j, d_j] for the k-th digit
    tuple (d_0, ..., d_last) in C order; one zero row for no digits."""
    out = np.zeros((1, tables.shape[2]))
    for t in tables:
        out = (out[:, None, :] + t[None, :, :]).reshape(-1, tables.shape[2])
    return out


class RateTable:
    """Exhaustive (j, c1, c2) evaluation over every grid quantizer.

    Candidate k gives relay bin j the grid column d_j, the j-th mixed-radix
    digit of k, so bin j's slice p(x1, x2, y_j, yhat) of the joint depends on
    d_j alone.  Per (bin, column) the build forms that block once, with its
    marginals p(x1, y_j, yhat) and p(x2, y_j, yhat) and their sums of p log p.
    It then walks runs of candidates that share their leading digits: the
    leading digits' block sum plus a table of trailing-digit block sums gives
    each candidate's [p(x1,x2,yhat) | p(x1,yhat) | p(x2,yhat)], and one
    p log p over those gives H(X1,X2,Yhat), H(X1,Yhat) and H(X2,Yhat);
    H(X1,Yr,Yhat) and H(X2,Yr,Yhat) are sums of per-bin terms.  So every
    entropy is still a sum of p log p over entries of the explicit joint, only
    grouped by bin; p log p is taken as p * log(p + (p == 0)), which is
    0 * log 1 = 0 at p = 0.

    Constrained maxima, penalized maxima, and boundary checks are then array
    reductions over the cached columns, so one table serves many targets and
    multiplier pairs.
    """

    def __init__(self, ch: ChannelModel, num_levels: int, grid_step: float,
                 max_cells: int = DEFAULT_MAX_CELLS):
        n_cols = ch.num_bins
        n, total = _grid_size(grid_step, num_levels, n_cols, max_cells)
        self.channel = ch
        self.num_levels = int(num_levels)
        self.grid_step = float(grid_step)
        self.columns = _simplex_columns(num_levels, n)
        self.num_candidates = total
        m = self.columns.shape[0]
        self._shape = (m,) * n_cols

        # per (bin, column): the block, its sums over x2 and over x1, and the
        # xlogy sums of those two marginals
        blocks = np.einsum("abj,ci->jcabi", ch.p_x1x2_yr, self.columns)
        flat = [x.reshape(n_cols, m, -1) for x in (blocks, blocks.sum(3), blocks.sum(2))]
        marginals = np.concatenate(flat, axis=2)
        segments = np.cumsum([0] + [x.shape[2] for x in flat[:-1]])
        bin_sums = np.stack([(x * np.log(x + (x == 0))).sum(axis=2) for x in flat[1:]], axis=2)

        # trailing digits per run: as many as fit in RUN_CELLS, at least one
        tail = 1
        while tail < n_cols and m ** (tail + 1) <= RUN_CELLS:
            tail += 1
        run_marg, run_sums = _digit_sums(marginals[-tail:]), _digit_sums(bin_sums[-tail:])
        lead_marg, lead_sums = _digit_sums(marginals[:-tail]), _digit_sums(bin_sums[:-tail])
        run = run_marg.shape[0]

        h_ab, h_aj, h_bj, h_a, h_b = _marginal_entropies_nats(ch.p_x1x2_yr)
        self.j_bits, self.c1_bits, self.c2_bits = rates = np.empty((3, total))
        for r in range(lead_marg.shape[0]):
            p = run_marg + lead_marg[r]
            h_abi, h_ai, h_bi = -np.add.reduceat(p * np.log(p + (p == 0)), segments, axis=1).T
            h_aji, h_bji = -(run_sums + lead_sums[r]).T
            r1 = h_ab + h_bi - h_b - h_abi
            r2 = h_ab + h_ai - h_a - h_abi
            c1 = h_aj + h_ai - h_a - h_aji
            c2 = h_bj + h_bi - h_b - h_bji
            rates[:, r * run:(r + 1) * run] = np.maximum(0.0, [r1 + r2, c1, c2]) / LN2

    def __len__(self) -> int:
        return self.num_candidates

    def quantizer_at(self, index: int) -> QuantizerPmf:
        digits = np.unravel_index(int(index), self._shape)
        return QuantizerPmf(np.stack([self.columns[d] for d in digits], axis=1))

    def best_constrained(self, c1_max: float, c2_max: float):
        """(max j, argmax index) over candidates meeting both rate targets."""
        if not (c1_max >= 0 and c2_max >= 0):
            raise ValueError("rate targets must be nonnegative")
        feas = (self.c1_bits <= c1_max + 1e-12) & (self.c2_bits <= c2_max + 1e-12)
        if not feas.any():
            raise RuntimeError("no feasible candidate")
        masked = np.where(feas, self.j_bits, -np.inf)
        k = int(np.argmax(masked))
        return float(self.j_bits[k]), k

    def best_penalized(self, lam1: float, lam2: float):
        """(max j - lam1*c1 - lam2*c2, argmax index) over all candidates."""
        if lam1 < 0 or lam2 < 0:
            raise ValueError("multipliers must be nonnegative")
        vals = self.j_bits - lam1 * self.c1_bits - lam2 * self.c2_bits
        k = int(np.argmax(vals))
        return float(vals[k]), k


def check_boundary_optimality(ch: ChannelModel, L: int, grid_step: float,
                              c1_max: float, c2_max: float,
                              table: RateTable | None = None) -> bool:
    """True iff the constrained grid optimum sits within 0.05 bits (the grid
    slack) of a rate constraint.

    Targets must be strictly below the unconstrained description rates
    H(Yr|X1) and H(Yr|X2) so the constraints can bind at all.  A channel whose
    objective is identically zero satisfies the claim vacuously.
    """
    ents = yr_conditional_entropies(ch)
    if c1_max >= ents["h_yr_given_x1"] or c2_max >= ents["h_yr_given_x2"]:
        raise ValueError("targets must be strictly below H(Yr|X1) and H(Yr|X2)")
    if table is None:
        table = RateTable(ch, L, grid_step)
    if table.j_bits.max() <= 1e-12:
        return True
    _, k = table.best_constrained(c1_max, c2_max)
    return table.c1_bits[k] >= c1_max - 0.05 or table.c2_bits[k] >= c2_max - 0.05
