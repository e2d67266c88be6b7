"""Conditional expectation on finite partitions and its positive dominant.

For a finite partition every conditional expectation is a cell average, so
the vector operator is exact (antiderivative differences on the circle,
weighted sums on atoms).  The scalar dominant accepts any evaluable field
and reuses each field's own integration rules.
"""

from __future__ import annotations

import numpy as np

from .functions import CircleFunction, AtomFunction
from .fields import PolyField, AtomField, defect_max, pointwise_norm


class LinearFunctional:
    """Continuous linear functional on R^d, acting by dot product."""

    def __init__(self, weights):
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))

    @property
    def dim(self):
        return self.weights.size

    def __call__(self, values):
        return np.asarray(values, dtype=float) @ self.weights

    def compose(self, f):
        """The scalar function x -> <weights, f(x)>."""
        if isinstance(f, AtomFunction):
            return AtomFunction(f.space, self.values_of(f))
        coeffs = f.coeffs @ self.weights
        return CircleFunction(f.breaks, coeffs[:, :, None], f.space)

    def values_of(self, f):
        return f.values @ self.weights


def _check_space(f, partition):
    if f.space != partition.space:
        raise ValueError("function and partition live on different spaces")


def cond_exp(f, partition):
    """Cell-average conditional expectation; exact, piecewise constant."""
    _check_space(f, partition)
    if isinstance(f, AtomFunction):
        out = np.empty_like(f.values)
        for cell in partition.cells:
            idx = np.asarray(cell, dtype=int)
            w = f.space.weights[idx]
            out[idx] = (w @ f.values[idx]) / w.sum()
        return AtomFunction(f.space, out)
    bounds = np.asarray(partition.cell_bounds_float())
    ad = f.antiderivative()._eval_unwrapped(bounds)
    avgs = np.diff(ad, axis=0) / np.diff(bounds)[:, None]
    return CircleFunction(bounds, avgs[:, None, :], f.space)


def cond_exp_dominant(h, partition):
    """Cell averages of a scalar field; positivity preserving."""
    if isinstance(h, CircleFunction):
        h = PolyField(h)
    if h.space != partition.space:
        raise ValueError("field and partition live on different spaces")
    avgs = h.cell_averages(partition)
    if isinstance(h, AtomField):
        out = np.empty(h.space.natoms)
        for i, cell in enumerate(partition.cells):
            out[np.asarray(cell, dtype=int)] = avgs[i]
        return AtomField(h.space, out)
    bounds = np.asarray(partition.cell_bounds_float())
    return PolyField(CircleFunction(bounds, avgs[:, None, None], h.space))


def defining_property_check(f, partition):
    """Max over cells of the averaging defect |∫_B E f − ∫_B f| (max norm)."""
    _check_space(f, partition)
    ef = cond_exp(f, partition)
    worst = 0.0
    if isinstance(f, AtomFunction):
        for cell in partition.cells:
            gap = ef.integrate_atoms(cell) - f.integrate_atoms(cell)
            worst = defect_max(worst, np.max(np.abs(gap)))
        return worst
    bounds = partition.cell_bounds_float()
    for i in range(len(bounds) - 1):
        gap = (ef.integrate(bounds[i], bounds[i + 1])
               - f.integrate(bounds[i], bounds[i + 1]))
        worst = defect_max(worst, np.max(np.abs(gap)))
    return worst


def functional_commutation_check(f, partition, functional, npoints=1000):
    """Sup over sample points of |g(E(f|F)) − E(g(f)|F)|."""
    _check_space(f, partition)
    if functional.dim != f.d:
        raise ValueError("functional dimension does not match function")
    ef = cond_exp(f, partition)
    gf = functional.compose(f)
    egf = cond_exp(gf, partition)
    if isinstance(f, AtomFunction):
        lhs = functional.values_of(ef)
        rhs = egf.values[:, 0]
        return float(np.max(np.abs(lhs - rhs)))
    x = np.linspace(0.0, 1.0, npoints, endpoint=False)
    lhs = functional(ef(x))
    rhs = egf(x)[:, 0]
    return float(np.max(np.abs(lhs - rhs)))


def domination_defect(f, partition, vnorm, npoints=1000):
    """Worst pointwise excess of ||E(f|F)||_X over E'(||f||_X|F)."""
    ef = cond_exp(f, partition)
    dom = cond_exp_dominant(pointwise_norm(f, vnorm), partition)
    if isinstance(f, AtomFunction):
        lhs = vnorm(ef.values)
        rhs = dom.values
        return float(np.max(lhs - rhs))
    x = np.linspace(0.0, 1.0, npoints, endpoint=False)
    lhs = vnorm(ef(x))
    rhs = dom.eval(x)
    return float(np.max(lhs - rhs))
