"""Shared fixtures. The expensive sweeps and oracle tables are session-scoped
so the unit tests and the acceptance suite reuse the same objects."""
import numpy as np
import pytest
from hypothesis import strategies as st

from qfrelay import (
    LambdaGrid,
    RateTable,
    build_bpsk_mac,
    fixture_channel,
    from_pmfs,
    sweep_grid,
)

# Small integer weights, so exact zeros come up in the priors and the law.
WEIGHTS = st.integers(0, 3)


@st.composite
def tiny_channels(draw):
    """from_pmfs channels with 1-3 inputs per user and 1-4 relay bins; bin 0
    may carry no mass at all."""
    n1, n2, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def pmf(n):
        w = np.array(draw(st.lists(WEIGHTS, min_size=n, max_size=n)), dtype=float)
        w[draw(st.integers(0, n - 1))] += 1.0
        return w / w.sum()

    dead = int(nb > 1 and draw(st.booleans()))
    w = np.zeros((n1 * n2, nb))
    w[:, dead:] = [pmf(nb - dead) for _ in range(n1 * n2)]
    return from_pmfs(pmf(n1), pmf(n2), w.reshape(n1, n2, nb))


@pytest.fixture(scope="session")
def fx():
    """Tiny 2x2x3 noisy-sum channel used by the oracle suite."""
    return fixture_channel()


@pytest.fixture(scope="session")
def bpsk():
    """BPSK two-user MAC at uplink SNRs 1.5 / 4.5 dB, 128 bins."""
    return build_bpsk_mac(1.5, 4.5)


@pytest.fixture(scope="session")
def bpsk_surface(bpsk):
    """Default 12x12 lambda sweep of the BPSK channel at L=32."""
    return sweep_grid(bpsk, 32, restarts=4, seed=0)


@pytest.fixture(scope="session")
def fx_surface_dense(fx):
    """Dense 40x40 lambda sweep of the fixture at L=2.

    The default 12-point axis leaves visible envelope gaps on this tiny
    channel (achieved (c1, c2) jumps between adjacent lambdas), so the
    envelope-vs-oracle comparisons use a denser grid.
    """
    grid = LambdaGrid.log_spaced(1e-3, 10.0, 40)
    return sweep_grid(fx, 2, grid=grid, restarts=4, seed=0)


@pytest.fixture(scope="session")
def fx_table_l2(fx):
    """Brute-force rate table, L=2, step 0.02 (51 columns per bin -> 51^3 = 132,651 cells)."""
    return RateTable(fx, 2, grid_step=0.02)


@pytest.fixture(scope="session")
def fx_table_l2_coarse(fx):
    return RateTable(fx, 2, grid_step=0.05)


@pytest.fixture(scope="session")
def fx_table_l3(fx):
    """L=3 table at step 1/14: 120^3 = 1.728e6 cells, still under budget."""
    return RateTable(fx, 3, grid_step=1.0 / 14.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260817)
