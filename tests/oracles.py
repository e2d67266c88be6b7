"""Independent reference computations for the test suite.

Everything here works on plain callables and dense grids: midpoint
Riemann sums, brute-force loops, explicit permutation orbits.  Nothing
imports the package under test, so agreement is evidence, not
circularity.  Frozen constants in the tests were produced by these
routines; rerun them if a fixture changes.
"""

import numpy as np


def midpoints(n):
    return (np.arange(n) + 0.5) / n


def riemann_lp(fn, p, n=200_001):
    """L^p norm of a scalar callable on the unit circle."""
    vals = np.abs(fn(midpoints(n)))
    return (np.mean(vals ** p)) ** (1.0 / p)


def riemann_sup(fn, n=200_001):
    return float(np.max(np.abs(fn(midpoints(n)))))


def riemann_measure(fn, lam, n=200_001):
    """Lebesgue measure of {fn >= lam}, midpoint estimate."""
    return float(np.mean(fn(midpoints(n)) >= lam))


def brute_rotation_average(fn, theta, t, x, n=200_001):
    """(1/t) * integral_0^t fn(frac(x + tau * theta)) dtau by midpoints.

    fn maps an array of circle points to (m,) or (m, d) values.
    """
    tau = t * midpoints(n)
    pts = np.mod(x + tau * theta, 1.0)
    return np.mean(np.atleast_2d(fn(pts).T).T, axis=0)


def brute_step_average(values, perm, t, h):
    """Direct accumulation of the step-flow time average.

    values: (natoms, d); the orbit holds each permuted copy for h time
    units, the leftover fraction weights the last one.
    """
    values = np.asarray(values, dtype=float)
    n_full = int(np.floor(t / h + 1e-12))
    acc = np.zeros_like(values)
    cur = values.copy()
    for _ in range(n_full):
        acc += h * cur
        cur = cur[perm]
    acc += (t - n_full * h) * cur
    return acc / t


def loop_split(t, h):
    """Whole steps floor(t/h) and leftover time, in extended precision,
    snapping a leftover within 1e-13 relative of 0 or h."""
    n = int(np.floor(np.longdouble(t) / np.longdouble(h)))
    rem = float(np.longdouble(t) - np.longdouble(n) * np.longdouble(h))
    if rem >= h * (1.0 - 1e-13):
        return n + 1, 0.0
    return n, (0.0 if rem < h * 1e-13 else rem)


def loop_orbit_sum(values, perm, n):
    """Sum of values[perm^k(i)] over k < n, added one term at a time in
    increasing k from +0.0; also returns perm^n."""
    acc = np.zeros_like(values)
    cur = np.arange(values.shape[0])
    for _ in range(n):
        acc += values[cur]
        cur = perm[cur]
    return acc, cur


def loop_step_average(values, perm, t, h):
    """Step-flow time average in the sequential summation order, so a
    correct implementation matches it bit for bit (unlike
    brute_step_average, which adds h*cur and rounds differently)."""
    n, rem = loop_split(t, h)
    acc, cur = loop_orbit_sum(values, perm, n)
    acc *= h
    if rem > 0.0:
        acc += rem * values[cur]
    return acc / t


def loop_discrete_average(values, perm, n, h):
    """Mean of the values along n unit-time steps of a step flow of width h."""
    step1 = loop_orbit_sum(values, perm, loop_split(1.0, h)[0])[1]
    return loop_orbit_sum(values, step1, n)[0] / n


def brute_cell_average(fn, lo, hi, n=200_001):
    """Mean of a callable over [lo, hi) by midpoint quadrature."""
    pts = lo + (hi - lo) * midpoints(n)
    return np.mean(np.atleast_2d(fn(pts).T).T, axis=0)


def brute_cond_exp(fn, bounds, x, n=50_001):
    """Conditional expectation of fn w.r.t. interval cells, at points x."""
    bounds = np.asarray(bounds, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0,
                  len(bounds) - 2)
    cells = [brute_cell_average(fn, bounds[i], bounds[i + 1], n)
             for i in range(len(bounds) - 1)]
    return np.asarray([cells[i] for i in idx])


def sawtooth_vals(x, a=1.0, phase=0.0):
    return a * (np.mod(x + phase, 1.0) - 0.5)


def hat_vals(x, a=1.0, phase=0.0):
    u = np.mod(x + phase, 1.0)
    return a * np.where(u < 0.5, 2.0 * u - 0.5, 1.5 - 2.0 * u)


def dense_envelope(fns, n=200_001):
    """Pointwise max of scalar callables on a dense circle grid."""
    pts = midpoints(n)
    return pts, np.max([fn(pts) for fn in fns], axis=0)


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
