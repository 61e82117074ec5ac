"""Brute-force reference implementations at tiny scale.

Everything here is computed from entries of the explicit four-way joint table
p(x1, x2, y_r, yhat_r) = p(x1, x2, y_r) * q(yhat_r | y_r), with no Markov-chain
shortcuts such as H(Yhat|Yr), so it certifies the factored formulas used by
the fast path.  The enumeration walks every column-stochastic Q whose columns
live on a uniform simplex grid; instances beyond the cell budget are refused,
not attempted.  RateTable groups the joint's entries by quantizer level: each
level's entries depend only on that row of Q, so it forms every possible row's
entries once rather than every candidate's joint (see its docstring).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from qfrelay.channel import ChannelModel, _readonly, from_pmfs
from qfrelay.infotheory import LN2, QuantizerPmf, _plogp, yr_conditional_entropies

DEFAULT_MAX_CELLS = 2_000_000
# Most rows or candidates per vectorized run of the table build and each query;
# a build run is never shorter than one relay bin's grid values or columns,
# however many those are.
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
    if not max_cells >= 1:
        raise ValueError(f"max_cells must be at least 1, got {max_cells}")
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
    return [float(-_plogp(p).sum()) for p in parts]


def _digit_sums(tables: np.ndarray) -> np.ndarray:
    """Row k is the sum over digits j of tables[j, d_j] for the k-th digit
    tuple (d_0, ..., d_last) in C order; one zero row for no digits."""
    out = np.zeros((1, tables.shape[2]))
    for t in tables:
        out = (out[:, None, :] + t[None, :, :]).reshape(-1, tables.shape[2])
    return out


def _tail_digits(radix: int, digits: int) -> int:
    """How many trailing digits one run of the build covers: as many as keep
    it within RUN_CELLS, and at least one."""
    tail = 1
    while tail < digits and radix ** (tail + 1) <= RUN_CELLS:
        tail += 1
    return tail


def _flat_rows(codes: np.ndarray, digits: int, n_vals: int) -> np.ndarray:
    """Entry k is the flat row-table index, over `digits` axes of n_vals grid
    values, of the k-th digit tuple in C order (digit d names codes[d])."""
    out = np.zeros(1, dtype=np.intp)
    for _ in range(digits):
        out = (out[:, None] * n_vals + codes).reshape(-1)
    return out


def _row_table(p_abj: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each possible quantizer row's share of the entropy differences, in
    nats, laid out (3, V, ..., V) with one axis of grid values per relay bin.

    Row w (w_j = q(yhat = i | y_j)) makes the joint's entries with yhat = i,
    p(a, b, i) = sum_j P[a, b, j] w_j, and its shares are [H(X1,Yhat) +
    H(X2,Yhat) - 2 H(X1,X2,Yhat), H(X1,Yhat) - H(X1,Yr,Yhat), H(X2,Yhat) -
    H(X2,Yr,Yhat)] over those entries alone.  V is the number of grid values
    that occur, so there are never more rows than candidates.  Built in runs
    of rows that share their leading values.
    """
    n_cols, n_vals = p_abj.shape[2], len(values)
    # per (bin, value): the bin's slice of the joint at that value, its sums
    # over x2 and over x1, and the p log p sums of those two marginals
    blocks = np.einsum("abj,v->jvab", p_abj, values)
    flat = [x.reshape(n_cols, n_vals, -1) for x in (blocks, blocks.sum(3), blocks.sum(2))]
    marginals = np.concatenate(flat, axis=2)
    bin_sums = np.stack([_plogp(x).sum(axis=2) for x in flat[1:]], axis=2)
    # each entry's weights on the p log p of [p(x1,x2,yhat) | p(x1,yhat) | p(x2,yhat)]
    weights = np.repeat([[2.0, -1.0, -1.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
                        [x.shape[2] for x in flat], axis=1)

    tail = _tail_digits(n_vals, n_cols)
    # in C order, so that each lead's adds below run along a run's candidates
    run_marg, run_sums = (np.ascontiguousarray(_digit_sums(x[-tail:]).T)
                          for x in (marginals, bin_sums))
    lead_marg, lead_sums = _digit_sums(marginals[:-tail]), _digit_sums(bin_sums[:-tail])
    run = run_marg.shape[1]
    rows = np.empty((3, n_vals ** n_cols))
    for r in range(lead_marg.shape[0]):
        p = run_marg + lead_marg[r][:, None]
        out = rows[:, r * run:(r + 1) * run]
        np.matmul(weights, _plogp(p), out=out)
        out[1:] += run_sums + lead_sums[r][:, None]
    return rows.reshape((3,) + (n_vals,) * n_cols)


class RateTable:
    """Exhaustive (j, c1, c2) evaluation over every grid quantizer.

    Candidate k gives relay bin j the grid column d_j, the j-th mixed-radix
    digit of k.  The joint's entries with yhat = i depend only on row i of Q,
    so the build tabulates each possible row's share of the entropies once
    (_row_table), then gives each candidate the channel's own entropies plus
    its L rows' shares, adding one level at a time over the whole table.
    Within a level, the candidates that share their leading digits form a
    run, whose shares are one row-table row gathered over the trailing
    digits; runs that put the same row at that level share one np.take.
    Every entropy is still a sum of p log p over entries of the explicit
    joint, only grouped by level, each p log p taken by infotheory._plogp.

    `rates` is one read-only (3, N) block with rows j_bits, c1_bits and
    c2_bits.  The queries are array reductions over it, so one table serves
    many targets and multiplier pairs.  They stream it in runs of RUN_CELLS
    candidates, so a table's memory is that block alone.
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

        # codes[i, d]: which grid value column d puts at level i
        values, codes = np.unique(self.columns, return_inverse=True)
        codes = codes.reshape(self.columns.shape).T
        # The table before its scratch row table.  Once glibc frees an mmapped
        # block it raises its mmap threshold to that block's size, so from the
        # second table on both come from the heap, where a live table above
        # the freed row table would keep a hole under it that a larger next
        # table cannot reuse.
        rates = np.empty((3, total))
        rows = _row_table(ch.p_x1x2_yr, values)

        h_ab, h_aj, h_bj, h_a, h_b = _marginal_entropies_nats(ch.p_x1x2_yr)
        const = np.array([2 * h_ab - h_a - h_b, h_aj - h_a, h_bj - h_b])[:, None]
        tail, n_vals = _tail_digits(m, n_cols), len(values)
        runs = rates.reshape(3, -1, m ** tail)
        rows = rows.reshape(3, -1, n_vals ** tail)
        rates[:] = const
        for c in codes:
            # runs by this level's row; np.unique here read 0.3 MB more peak RSS
            groups = {}
            for r, row in enumerate(_flat_rows(c, n_cols - tail, n_vals).tolist()):
                groups.setdefault(row, []).append(r)
            tail_rows = _flat_rows(c, tail, n_vals)
            for row, leads in groups.items():
                g = rows[:, row].take(tail_rows, axis=1)
                for r in leads:
                    runs[:, r] += g
        np.maximum(rates, 0.0, out=rates)
        rates /= LN2
        self.rates = _readonly(rates)
        self.j_bits, self.c1_bits, self.c2_bits = self.rates
        self._last_constrained = (None, None)

    def __len__(self) -> int:
        return self.num_candidates

    def quantizer_at(self, index: int) -> QuantizerPmf:
        digits = np.unravel_index(int(index), self._shape)
        return QuantizerPmf(np.stack([self.columns[d] for d in digits], axis=1))

    @cached_property
    def j_max(self) -> float:
        """The largest j over all candidates."""
        return float(self.j_bits.max())

    def best_constrained(self, c1_max: float, c2_max: float):
        """(max j, argmax index) over candidates meeting both rate targets.

        The table is immutable, so it keeps its last answer, which
        check_boundary_optimality asks for again after its caller."""
        if not (c1_max >= 0 and c2_max >= 0):
            raise ValueError("rate targets must be nonnegative")
        if self._last_constrained[0] == (c1_max, c2_max):
            return self._last_constrained[1]
        a, b = c1_max + 1e-12, c2_max + 1e-12
        best, k = -np.inf, -1
        for lo in range(0, self.num_candidates, RUN_CELLS):
            j, c1, c2 = self.rates[:, lo:lo + RUN_CELLS]
            feas = c1 <= a
            feas &= c2 <= b
            if not feas.any():
                continue
            masked = np.where(feas, j, -np.inf)
            i = int(np.argmax(masked))
            if masked[i] > best:  # a tie keeps the first maximum
                best, k = masked[i], lo + i
        if k < 0:
            raise RuntimeError("no feasible candidate")
        answer = float(best), k
        self._last_constrained = (c1_max, c2_max), answer
        return answer

    def best_penalized(self, lam1: float, lam2: float):
        """(max j - lam1*c1 - lam2*c2, argmax index) over all candidates."""
        if not (0 <= lam1 < math.inf and 0 <= lam2 < math.inf):
            raise ValueError("multipliers must be finite and nonnegative")
        weights = np.array([1.0, -lam1, -lam2])
        best, k = -np.inf, 0
        # Runs start at multiples of RUN_CELLS, a power of two, so each value
        # takes the BLAS kernel path it takes in one whole-table product; runs
        # of other lengths can move values by an ulp.  Multipliers near the
        # largest float overflow a product to -inf.
        with np.errstate(over="ignore"):
            for lo in range(0, self.num_candidates, RUN_CELLS):
                vals = weights @ self.rates[:, lo:lo + RUN_CELLS]
                i = int(np.argmax(vals))
                if vals[i] > best:  # a tie keeps the first maximum
                    best, k = vals[i], lo + i
        return float(best), k


def check_boundary_optimality(ch: ChannelModel, L: int, grid_step: float,
                              c1_max: float, c2_max: float,
                              table: RateTable | None = None) -> bool:
    """True iff the constrained grid optimum sits within 0.05 bits (the grid
    slack) of a rate constraint.

    Targets must be strictly below the unconstrained description rates
    H(Yr|X1) and H(Yr|X2) so the constraints can bind at all.  A channel whose
    objective is identically zero satisfies the claim vacuously.
    A given table must be one built for ch, L and grid_step.
    """
    ents = yr_conditional_entropies(ch)
    if c1_max >= ents["h_yr_given_x1"] or c2_max >= ents["h_yr_given_x2"]:
        raise ValueError("targets must be strictly below H(Yr|X1) and H(Yr|X2)")
    if table is None:
        table = RateTable(ch, L, grid_step)
    elif ((table.channel is not ch and table.channel.fingerprint() != ch.fingerprint())
          or (table.num_levels, table.grid_step) != (L, grid_step)):
        raise ValueError(f"table was built for channel {table.channel.fingerprint()[:12]}, "
                         f"L={table.num_levels}, grid_step={table.grid_step!r}; asked for "
                         f"channel {ch.fingerprint()[:12]}, L={L}, grid_step={grid_step!r}")
    if table.j_max <= 1e-12:
        return True
    _, k = table.best_constrained(c1_max, c2_max)
    return table.c1_bits[k] >= c1_max - 0.05 or table.c2_bits[k] >= c2_max - 0.05
