"""Brute-force reference implementations at tiny scale.

Everything here is computed straight from the explicit four-way joint table
p(x1, x2, y_r, yhat_r) = p(x1, x2, y_r) * q(yhat_r | y_r) with no Markov-chain
shortcuts, so it certifies the factored formulas used by the fast path.  The
enumeration walks every column-stochastic Q whose columns live on a uniform
simplex grid; instances beyond the cell budget are refused, not attempted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from qfrelay.channel import ChannelModel, from_pmfs
from qfrelay.infotheory import LN2, QuantizerPmf

DEFAULT_MAX_CELLS = 2_000_000


class OracleBudgetError(Exception):
    """Raised when an enumeration would exceed the configured cell budget."""


@dataclass(frozen=True)
class OracleConfig:
    """Enumeration resolution and size cap for the brute-force oracle."""

    grid_step: float = 0.05
    max_cells: int = DEFAULT_MAX_CELLS

    def __post_init__(self):
        if not (0 < self.grid_step <= 1):
            raise ValueError(f"grid_step must be in (0, 1], got {self.grid_step!r}")
        if self.max_cells < 1:
            raise ValueError("max_cells must be positive")

    def num_candidates(self, num_levels: int, n_cols: int) -> int:
        m = _num_columns(num_levels, self.grid_step)
        return m ** n_cols

    def check_budget(self, num_levels: int, n_cols: int) -> int:
        n = self.num_candidates(num_levels, n_cols)
        if n > self.max_cells:
            raise OracleBudgetError(
                f"enumeration needs {n} candidate matrices "
                f"(columns on the step-{self.grid_step} simplex grid, {n_cols} columns), "
                f"budget is {self.max_cells}"
            )
        return n


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


def _num_columns(num_levels: int, grid_step: float) -> int:
    """Number of grid points on the (num_levels-1)-simplex at this step."""
    if num_levels < 1:
        raise ValueError("num_levels must be at least 1")
    if not (0 < grid_step <= 1):
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step!r}")
    n = int(round(1.0 / grid_step))
    return math.comb(n + num_levels - 1, num_levels - 1)


def _simplex_columns(num_levels: int, grid_step: float) -> np.ndarray:
    """All pmfs on num_levels points with masses that are multiples of 1/n.

    Compositions of n into num_levels parts via bar placements; returned as a
    (count, num_levels) float array in a fixed deterministic order.
    """
    n = int(round(1.0 / grid_step))
    cols = []
    for bars in itertools.combinations(range(n + num_levels - 1), num_levels - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(n + num_levels - 2 - prev)
        cols.append(parts)
    return np.asarray(cols, dtype=float) / n


def enumerate_q(L: int, n_cols: int, grid_step: float,
                max_cells: int = DEFAULT_MAX_CELLS):
    """Yield every column-stochastic L x n_cols matrix on the simplex grid.

    Column order follows the mixed-radix flat index used by RateTable, so the
    k-th yielded matrix is exactly RateTable candidate k.
    """
    total = _num_columns(L, grid_step) ** n_cols
    if total > max_cells:
        raise OracleBudgetError(
            f"enumeration needs {total} candidate matrices, budget is {max_cells}"
        )
    cols = _simplex_columns(L, grid_step)
    for combo in itertools.product(cols, repeat=n_cols):
        yield QuantizerPmf(np.stack(combo, axis=1))


def _marginal_entropies_nats(joint3: np.ndarray) -> dict:
    """Entropies of the fixed (x1, x2, y_r) joint and its marginals, in nats."""
    def h(p):
        return float(-xlogy(p, p).sum())

    p_ab = joint3.sum(axis=2)
    p_aj = joint3.sum(axis=1)
    p_bj = joint3.sum(axis=0)
    return {
        "h_ab": h(p_ab),
        "h_aj": h(p_aj),
        "h_bj": h(p_bj),
        "h_a": h(p_ab.sum(axis=1)),
        "h_b": h(p_ab.sum(axis=0)),
    }


class RateTable:
    """Exhaustive (j, c1, c2) evaluation over every grid quantizer.

    Building the table is the expensive step; constrained maxima, penalized
    maxima, and boundary checks are then array reductions over the cached
    columns, so one table serves many targets and multiplier pairs.
    """

    def __init__(self, ch: ChannelModel, num_levels: int, grid_step: float,
                 max_cells: int = DEFAULT_MAX_CELLS, chunk: int = 20000):
        total = _num_columns(num_levels, grid_step) ** ch.num_bins
        if total > max_cells:
            raise OracleBudgetError(
                f"enumeration needs {total} candidate matrices, budget is {max_cells}"
            )
        self.channel = ch
        self.num_levels = int(num_levels)
        self.grid_step = float(grid_step)
        self.columns = _simplex_columns(num_levels, grid_step)
        self.num_candidates = total

        joint3 = ch.p_x1x2_yr
        base = _marginal_entropies_nats(joint3)
        m = self.columns.shape[0]
        n_cols = ch.num_bins
        shape = (m,) * n_cols

        j_bits = np.empty(total)
        c1_bits = np.empty(total)
        c2_bits = np.empty(total)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))
            digits = np.stack(np.unravel_index(idx, shape), axis=0)  # (n_cols, k)
            qs = np.transpose(self.columns[digits], (1, 2, 0))  # (k, L, n_cols)

            g = np.einsum("abj,nij->nabji", joint3, qs)
            p_abi = g.sum(axis=3)
            p_aji = g.sum(axis=2)
            p_bji = g.sum(axis=1)
            p_ai = p_abi.sum(axis=2)
            p_bi = p_abi.sum(axis=1)

            def h(p):
                return -xlogy(p, p).reshape(p.shape[0], -1).sum(axis=1)

            h_abi = h(p_abi)
            h_aji = h(p_aji)
            h_bji = h(p_bji)
            h_ai = h(p_ai)
            h_bi = h(p_bi)

            r1 = base["h_ab"] + h_bi - base["h_b"] - h_abi
            r2 = base["h_ab"] + h_ai - base["h_a"] - h_abi
            c1 = base["h_aj"] + h_ai - base["h_a"] - h_aji
            c2 = base["h_bj"] + h_bi - base["h_b"] - h_bji

            j_bits[idx] = np.maximum(0.0, r1 + r2) / LN2
            c1_bits[idx] = np.maximum(0.0, c1) / LN2
            c2_bits[idx] = np.maximum(0.0, c2) / LN2

        self.j_bits = j_bits
        self.c1_bits = c1_bits
        self.c2_bits = c2_bits
        self._shape = shape

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


def brute_force_ird(ch: ChannelModel, L: int, grid_step: float,
                    c1_max: float, c2_max: float,
                    max_cells: int = DEFAULT_MAX_CELLS,
                    table: RateTable | None = None):
    """Grid-exhaustive constrained maximum of J, with the achieving quantizer.

    Returns (bits, QuantizerPmf).  Pass a prebuilt RateTable to amortize the
    enumeration across many target pairs.
    """
    if table is None:
        table = RateTable(ch, L, grid_step, max_cells=max_cells)
    best, k = table.best_constrained(c1_max, c2_max)
    return best, table.quantizer_at(k)


def brute_force_lagrangian(ch: ChannelModel, L: int, grid_step: float,
                           lam1: float, lam2: float,
                           max_cells: int = DEFAULT_MAX_CELLS,
                           table: RateTable | None = None):
    """Grid-exhaustive maximum of the penalized objective, in bits."""
    if table is None:
        table = RateTable(ch, L, grid_step, max_cells=max_cells)
    best, k = table.best_penalized(lam1, lam2)
    return best, table.quantizer_at(k)


def check_boundary_optimality(ch: ChannelModel, L: int, grid_step: float,
                              c1_max: float, c2_max: float,
                              grid_slack: float = 0.05,
                              max_cells: int = DEFAULT_MAX_CELLS,
                              table: RateTable | None = None) -> bool:
    """True iff the constrained grid optimum sits on a rate constraint.

    Targets must be strictly below the unconstrained description rates
    H(Yr|X1) and H(Yr|X2) so the constraints can bind at all.  A channel whose
    objective is identically zero satisfies the claim vacuously.
    """
    from qfrelay.infotheory import yr_conditional_entropies

    ents = yr_conditional_entropies(ch)
    if c1_max >= ents["h_yr_given_x1"] or c2_max >= ents["h_yr_given_x2"]:
        raise ValueError("targets must be strictly below H(Yr|X1) and H(Yr|X2)")
    if table is None:
        table = RateTable(ch, L, grid_step, max_cells=max_cells)
    if table.j_bits.max() <= 1e-12:
        return True
    _, k = table.best_constrained(c1_max, c2_max)
    return (table.c1_bits[k] >= c1_max - grid_slack
            or table.c2_bits[k] >= c2_max - grid_slack)
