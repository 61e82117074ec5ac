"""Cross-check the iterative solver against brute-force enumeration.

At small scale (2 quantizer levels, 3 relay bins) every column-stochastic
quantizer on a simplex grid can be evaluated directly.  That gives ground
truth for both the penalized objective and the constrained maximum, which
the fixed-point solver and the sweep envelope should reproduce.
"""
import numpy as np

from qfrelay import (
    check_boundary_optimality,
    enumerate_q,
    fixture_channel,
    optimize_restarts,
    query_lower_envelope,
    sweep_grid,
    uplink_sum_rate_bound,
    LambdaGrid,
    RateTable,
)

fx = fixture_channel()
table = RateTable(fx, 2, grid_step=0.05)

print("candidate quantizers:", table.j_bits.size)
print("unconstrained max J = %.9f bits" % table.j_bits.max())
print("uplink bound        = %.9f bits" % uplink_sum_rate_bound(fx))

# penalized ground truth vs best-of-restarts solver
print("\npenalized objective, oracle vs solver:")
print("  lam1  lam2   oracle       solver       gap")
for lam1, lam2 in ((0.05, 0.05), (0.1, 0.2), (0.3, 0.3)):
    want, _ = table.best_penalized(lam1, lam2)
    res = optimize_restarts(fx, lam1, lam2, 2, restarts=8, seed=0)
    got = res.lagrangian_trace[-1]
    print("  %-4.2f  %-4.2f   %.9f  %.9f  %+.2e" % (lam1, lam2, want, got, got - want))

# constrained ground truth vs the sweep envelope
surface = sweep_grid(fx, 2, grid=LambdaGrid.log_spaced(1e-3, 10.0, 40),
                     restarts=4, seed=0)
print("\nconstrained I_RD, oracle vs sweep envelope:")
print("  C1max  C2max  oracle     envelope   gap")
for t1, t2 in ((0.2, 0.2), (0.5, 0.5), (0.3, 0.6)):
    want, _ = table.best_constrained(t1, t2)
    got = query_lower_envelope(surface, t1, t2)
    print("  %-5.2f  %-5.2f  %.6f   %.6f   %+.2e" % (t1, t2, want, got, got - want))

# with tight, non-saturating budgets the optimum spends the whole budget
print("\nbudget saturation at the constrained optimum:")
for t in (0.2, 0.4):
    on_boundary = check_boundary_optimality(fx, 2, 0.05, t, t, table=table)
    print("  C1max = C2max = %.1f: boundary optimal = %s" % (t, on_boundary))

# enumeration is explicit and ordered, so any table row can be inspected
mats = list(enumerate_q(2, 3, 0.5))
print("\nstep-0.5 enumeration of 2x3 quantizers: %d matrices" % len(mats))
print("first:", mats[0].q.tolist())
print("last: ", mats[-1].q.tolist())
