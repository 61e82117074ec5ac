"""Map the uplink rate tradeoff by sweeping the multiplier grid.

Each multiplier pair is one solved point (C1, C2, I_RD).  The cloud of
points is the achievable tradeoff surface; querying its monotone lower
envelope answers "what I_RD is achievable within these description budgets".
"""
import os
import tempfile

import numpy as np

from qfrelay import (
    fixture_channel,
    query_lower_envelope,
    scalar_diagnostic,
    surface_to_csv,
    sweep_grid,
    LambdaGrid,
)

fx = fixture_channel()
grid = LambdaGrid.log_spaced(1e-3, 10.0, 12)
surface = sweep_grid(fx, num_levels=2, grid=grid, restarts=4, seed=0)

print("points:", len(surface.points), " levels:", surface.num_levels)
print("warnings:", surface.warnings or "none")

pts = surface.points
order = np.argsort([p.i_rd for p in pts])[::-1]
print("\ntop of the surface:")
print("  lam1      lam2      C1        C2        I_RD")
for k in order[:6]:
    p = pts[k]
    print("  %-8.4f  %-8.4f  %-8.6f  %-8.6f  %-8.6f"
          % (p.lam1, p.lam2, p.c1, p.c2, p.i_rd))

print("\nenvelope queries (C1 budget, C2 budget -> best I_RD at/below budget):")
for t in (0.1, 0.2, 0.3, 0.5, 1.0):
    print("  (%.2f, %.2f) -> %.6f" % (t, t, query_lower_envelope(surface, t, t)))

# asymmetric budgets move along the other axis of the surface
print("  (0.50, 0.10) -> %.6f" % query_lower_envelope(surface, 0.5, 0.1))
print("  (0.10, 0.50) -> %.6f" % query_lower_envelope(surface, 0.1, 0.5))

# how close are the swept quantizers to deterministic bin->level maps?
# pairs come back as (h_scalar, i_rd) sorted by i_rd descending
diag = scalar_diagnostic(surface)
print("\nscalar diagnostic, five best-objective points:")
for h, ird in diag[:5]:
    print("  i_rd = %.6f: h_scalar = %.4f bits" % (ird, h))

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "surface.csv")
    surface_to_csv(surface, out)
    lines = open(out).read().splitlines()
print("\nCSV header:", lines[0])
print("CSV rows:", len(lines) - 1)
