#!/usr/bin/env python3
"""The two composed processes side by side.

One grid conditions a time average, the other averages a conditioning.
On a generic pair of flow and filtration they differ at finite
parameters but share their limit; on a commuting pair they coincide
entry by entry.
"""
import numpy as np

from ergolab import (
    AtomFunction,
    Filtration,
    GOLDEN,
    VectorNorm,
    circle_space,
    convergence_table,
    em_process,
    limits,
    me_process,
    product_space,
    rotation_flow,
    sawtooth,
    step_flow,
)

# generic pair: golden rotation with a coarsening dyadic filtration
f = sawtooth(d=1)
flow = rotation_flow(GOLDEN)
filt = Filtration(circle_space(), "decreasing", max_level=5)
t_grid = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0])
s_grid = np.arange(6.0)

me = me_process(f, flow, filt, t_grid, s_grid)
em = em_process(f, flow, filt, t_grid, s_grid)
lim = limits(f, flow, filt, t_max=2 * t_grid[-1])
vnorm = VectorNorm("euclidean", 1)

print("rotation scenario, diagonal sup errors toward each limit:")
print(f"{'t':>5} {'s':>3}  {'ME error':>12}  {'EM error':>12}")
rep_me = convergence_table(me, lim.me_limit, 2.0, vnorm)
rep_em = convergence_table(em, lim.em_limit, 2.0, vnorm)
for (t, s, _, me_sup), (_, _, _, em_sup) in zip(rep_me.diagonal,
                                                rep_em.diagonal):
    print(f"{t:5.0f} {s:3.0f}  {me_sup:12.4e}  {em_sup:12.4e}")

x = 0.3
print(f"\nsample disagreement at x = {x}: ME(3,2) - EM(3,2) =",
      float(me.entry(3.0, 2.0)(x)[0] - em.entry(3.0, 2.0)(x)[0]))

# commuting pair: shift on the cyclic factor, conditioning on the other
sp = product_space(8, np.array([0.6, 0.4]))
rng = np.random.default_rng(0)
g = AtomFunction(sp, rng.normal(size=(16, 2)))
pflow = step_flow(sp, sp.shift_perm(), h=1.0)
pfilt = Filtration(sp, "decreasing", max_level=1)
pme = me_process(g, pflow, pfilt, t_grid, np.arange(2.0))
pem = em_process(g, pflow, pfilt, t_grid, np.arange(2.0))
worst = max(float(np.max(np.abs(a.values - pem.entry(t, s).values)))
            for (t, s), a in pme.items())
print(f"\nproduct scenario, worst entrywise ME/EM gap: {worst:.3e}")
