#!/usr/bin/env python3
"""How much of the inequality constants a concrete scenario uses.

The strong-type constant is (p/(p-1))^2 and the weak-type constant is
p/(p-1); the ratios below show how far a well-behaved scenario sits
from saturating them.
"""
import numpy as np

from ergolab import (
    Filtration,
    GOLDEN,
    VectorNorm,
    circle_space,
    dominant_ineq_me,
    maximal_ineq_me,
    me_process,
    pointwise_norm,
    rotation_flow,
    sawtooth,
)

f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
flow = rotation_flow(GOLDEN)
filt = Filtration(circle_space(), "decreasing", max_level=5)
vnorm = VectorNorm("euclidean", 2)
t_grid = np.array([1.32 ** k for k in range(16)])
s_grid = np.arange(16.0)
# one grid of conditioned averages serves every bound below
grid = me_process(f, flow, filt, t_grid, s_grid)

print("strong type: sup-of-grid L_p vs (p/(p-1))^2 ||f||_p")
print(f"{'p':>4}  {'lhs':>10}  {'bound':>10}  {'used':>6}")
for p in (1.5, 2.0, 3.0):
    rep = dominant_ineq_me(grid, p, vnorm)
    print(f"{p:4.1f}  {rep.lhs:10.5f}  {rep.bound:10.5f}"
          f"  {100 * rep.ratio:5.1f}%")

print()
print("weak type: measure of {sup >= eps} vs (p/(p-1)) ||f||_p / eps")
p = 2.0
# thresholds chosen inside the range of the sup field, so the
# exceedance set is neither empty nor everything
print(f"{'eps':>5}  {'exceedance':>10}  {'bound':>8}")
for eps in (0.05, 0.10, 0.15, 0.25):
    rep = maximal_ineq_me(grid, p, eps, vnorm)
    print(f"{eps:5.2f}  {rep.exceedance:10.6f}  {rep.bound:8.4f}")

# the p = 2 strong-type coefficient is exactly 4
assert (2.0 / (2.0 - 1.0)) ** 2 == 4.0
print("\np = 2 coefficient:", (2.0 / 1.0) ** 2)
print("||f||_2 =", pointwise_norm(f, vnorm).lp(2.0))
