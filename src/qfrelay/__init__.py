"""Quantizer distributions and sum-rate optimization for Quantize-and-Forward two-way relaying.

The relay observes a noisy superposition of two users' symbols, quantizes it
to L levels with a (possibly random) quantizer, and forwards the index over
rate-limited downlinks.  This package computes the tradeoff between the two
quantization-rate budgets and the achievable uplink sum rate, optimizes the
quantizer pmf with a fixed-point iteration, and cross-checks the results
against brute-force enumeration at small scale.
"""

from qfrelay.channel import ChannelModel, build_bpsk_mac, from_pmfs
from qfrelay.infotheory import (
    QuantizerPmf,
    RateReport,
    entropy,
    rate_report,
    uplink_sum_rate_bound,
    yr_conditional_entropies,
)
from qfrelay.optimizer import (
    OptimizerResult,
    initial_quantizer,
    optimize,
    optimize_restarts,
)
from qfrelay.oracle import (
    OracleBudgetError,
    RateTable,
    check_boundary_optimality,
    enumerate_q,
    fixture_channel,
)
from qfrelay.sweep import (
    LambdaGrid,
    Surface,
    SurfacePoint,
    envelope_point,
    query_lower_envelope,
    round_to_scalar,
    scalar_diagnostic,
    surface_from_csv,
    surface_to_csv,
    sweep_grid,
)
from qfrelay.sumrate import (
    SumRateResult,
    alpha_objective_curve,
    downlink_rate,
    optimize_alpha,
)

__all__ = [
    "ChannelModel",
    "LambdaGrid",
    "OptimizerResult",
    "OracleBudgetError",
    "QuantizerPmf",
    "RateReport",
    "RateTable",
    "SumRateResult",
    "Surface",
    "SurfacePoint",
    "alpha_objective_curve",
    "build_bpsk_mac",
    "check_boundary_optimality",
    "downlink_rate",
    "entropy",
    "enumerate_q",
    "envelope_point",
    "fixture_channel",
    "from_pmfs",
    "initial_quantizer",
    "optimize",
    "optimize_alpha",
    "optimize_restarts",
    "query_lower_envelope",
    "rate_report",
    "round_to_scalar",
    "scalar_diagnostic",
    "surface_from_csv",
    "surface_to_csv",
    "sweep_grid",
    "uplink_sum_rate_bound",
    "yr_conditional_entropies",
]

__version__ = "0.1.0"
