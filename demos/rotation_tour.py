#!/usr/bin/env python3
"""Tour of exact time averages under an irrational rotation.

Everything printed here is computed in closed form: the average of a
piecewise polynomial under a rotation flow is again piecewise
polynomial, so there is no time discretization anywhere.
"""
from ergolab import (
    GOLDEN,
    VectorNorm,
    cesaro_average,
    ergodic_envelope_check,
    ergodic_envelope_constant,
    pointwise_norm,
    rotation_flow,
    sawtooth,
)
from ergolab.tolerances import TOLERANCES

flow = rotation_flow(GOLDEN)
f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
vnorm = VectorNorm("euclidean", 2)

print("flow:", flow)
print("input:", f, "mean =", f.mean())
print()

# Fibonacci times: along them frac(t * theta) decays like theta^k, so
# the averages settle as fast as this angle allows
times = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0]
print(f"{'t':>6}  {'pieces':>6}  {'sup ||A_t f||':>14}")
averages = {}
for t in times:
    averages[t] = avg = cesaro_average(flow, t, f)
    sup = pointwise_norm(avg, vnorm).sup()
    print(f"{t:6.0f}  {avg.npieces:6d}  {sup:14.6e}")

print()
C = ergodic_envelope_constant(flow, f, vnorm)
print(f"envelope constant C = {C:.6f} (from the exact antiderivative)")
report = ergodic_envelope_check(flow, f, averages, vnorm, C)
tol = TOLERANCES["ergodic_envelope"]
held = all(err <= bound + tol for _, err, bound in report.rows)
print(f"sup-error <= C/t on the whole grid: {held}")
for t, err, bound in report.rows[-3:]:
    print(f"  t = {t:5.0f}: error {err:.3e} vs bound {bound:.3e}")
