#!/usr/bin/env python3
"""Pointwise suprema of submartingale families stay submartingales.

A family is generated from martingale increments plus nonnegative
adapted bumps, so each member satisfies the defining inequality
exactly; the check then certifies the index-sup inherits it and that
the terminal slice equals the sup of terminal slices with no defect.
"""
import numpy as np

from ergolab import (
    Filtration,
    circle_space,
    random_submartingale_family,
    submartingale_sup_check,
)
from ergolab.tolerances import TOLERANCES

rng = np.random.default_rng(2)
filt = Filtration(circle_space(), "increasing", max_level=5)
s_grid = np.arange(6.0)

family = random_submartingale_family(filt, s_grid, n_indices=4, rng=rng)
print(f"family: {family.n_indices} indices on {len(s_grid)} grid times,")
print(f"        filtration refines to 2^{filt.max_level} cells")

# a few values of the running sup along one orbit of cells
x = 0.37
print("\nsup slice at x = 0.37 over time:")
for k, s in enumerate(s_grid):
    print(f"  s = {s:.0f}: {float(family.sup_slice(k)(x)[0]):+.4f}")

tol = TOLERANCES["submartingale_sup"]


def passes(report):
    """The runner's verdict: every conditional drop within the tolerance
    and an exact terminal exchange."""
    return report.sup_defect <= tol and report.terminal_defect == 0.0


report = submartingale_sup_check(family)
print("\nsup is a submartingale:", report.sup_defect <= tol,
      f"(worst conditional drop {report.sup_defect:.2e})")
print("terminal sup exchange: defect =", report.terminal_defect)
print("largest positive-part integral:",
      round(report.positive_part_bound, 6))
print("verdict:", "PASS" if passes(report) else "FAIL")

# rerunning with another seed keeps the guarantees, not the numbers
other = random_submartingale_family(filt, s_grid, n_indices=4,
                                    rng=np.random.default_rng(3))
print("\nanother draw passes too:", passes(submartingale_sup_check(other)))
