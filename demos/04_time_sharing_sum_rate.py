"""Split the frame between uplink and downlink and maximize the sum rate.

A fraction alpha of the frame is the multiple-access (uplink) phase; the
remaining 1 - alpha carries the quantization index over downlinks of
capacity I1 and I2 per use.  The index must fit, so the description rates
are budgeted at (1-alpha)/alpha * I, and the end-to-end sum rate is
alpha * I_RD((1-alpha)/alpha * I1, (1-alpha)/alpha * I2).  A swept point p
fits the budgets exactly when alpha <= alpha_p = min(I1/(c1_p+I1),
I2/(c2_p+I2)), so the best split is the alpha_p of the point with the
largest alpha_p * i_rd_p: one pass over the surface, no search.
"""
import numpy as np

from qfrelay import (
    alpha_objective_curve,
    downlink_rate,
    fixture_channel,
    optimize_alpha,
    sweep_grid,
    LambdaGrid,
)
from qfrelay.sumrate import unimodality_report

for snr in (-10.0, 0.0, 4.77, 10.0):
    print("downlink rate at %+6.2f dB: %.6f bits/use" % (snr, downlink_rate(snr)))

fx = fixture_channel()
surface = sweep_grid(fx, 2, grid=LambdaGrid.log_spaced(1e-3, 10.0, 40),
                     restarts=4, seed=0)

I1, I2 = 0.35, 0.6
res = optimize_alpha(surface, I1, I2)
print("\ndownlink capacities I1 = %.2f, I2 = %.2f bits/use" % (I1, I2))
print("alpha* = %.6f" % res.alpha_star)
print("sum rate = %.6f bits/frame-use" % res.sum_rate)
print("budgets at alpha*: C1 <= %.6f, C2 <= %.6f" % (res.c1_at_star, res.c2_at_star))
print("I_RD at alpha* = %.6f" % res.i_rd_at_star)

# the curve is a product of a growing linear factor and a shrinking envelope
curve = alpha_objective_curve(surface, I1, I2, num=11)
print("\nalpha -> sum rate:")
for a, v in curve:
    bar = "#" * int(round(60 * v / res.sum_rate))
    print("  %.3f  %.6f  %s" % (a, v, bar))

rep = unimodality_report(surface, I1, I2, num_alphas=1001, tol=5e-3)
print("\nunimodality check at tol 5e-3: ok =", rep["ok"],
      "(strict maxima: %d)" % rep["num_strict_maxima"])

# stronger downlinks loosen the description budgets at any split, so the
# optimum hands more of the frame to the uplink and alpha* climbs
print("\ndownlink strength vs optimal split:")
for scale in (0.5, 1.0, 2.0, 4.0):
    r = optimize_alpha(surface, scale * I1, scale * I2)
    print("  I = (%.3f, %.3f): alpha* = %.4f, sum rate = %.6f"
          % (scale * I1, scale * I2, r.alpha_star, r.sum_rate))
