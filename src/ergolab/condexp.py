"""Conditional expectation on finite partitions and its positive dominant.

For a finite partition every conditional expectation is a cell average, so
the vector operator is exact (antiderivative differences on the circle,
weighted sums on atoms).  On atoms the cells of each size form one table
(``Partition.size_groups``), so each table's weighted sums are one stacked
``np.matmul``: still one dot product per cell, so the bits match a loop
over the cells.  The scalar dominant conditions polynomial and atom fields
through that same operator; only the quadrature fields (``SqrtPolyField``,
``GenericField``) bring their own cell averages: differences of F = ∫h for
a ``SqrtPolyField``; for a rotation's dominant average, each cell's width
times its value at the cell's left end plus one quadrature of its
derivative (see ``GenericField._cell_integrals``), so no quadrature runs
inside another.
"""

from __future__ import annotations

import numpy as np

from .functions import CircleFunction, AtomFunction
from .fields import PolyField, AtomField, defect_max, sup_norm
from .spaces import VectorNorm


class LinearFunctional:
    """Continuous linear functional on R^d, acting by dot product."""

    def __init__(self, weights):
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))

    @property
    def dim(self):
        return self.weights.size

    def compose(self, f):
        """The scalar function x -> <weights, f(x)>."""
        if isinstance(f, AtomFunction):
            return AtomFunction(f.space, f.values @ self.weights)
        coeffs = f.coeffs @ self.weights
        return CircleFunction(f.breaks, coeffs[:, :, None], f.space)


def _check_space(f, partition):
    if f.space != partition.space:
        raise ValueError("function and partition live on different spaces")


def _cell_sums(partition, values):
    """Per size group: the (cells, size) atom table, its weights, and each
    cell's weights @ values rows, as one stacked matmul."""
    for atoms in partition.size_groups:
        w = partition.space.weights[atoms]
        yield atoms, w, np.matmul(w[:, None, :], values[atoms])[:, 0]


def cond_exp(f, partition):
    """Cell-average conditional expectation; exact, piecewise constant."""
    _check_space(f, partition)
    if isinstance(f, AtomFunction):
        out = np.empty_like(f.values)
        for atoms, w, sums in _cell_sums(partition, f.values):
            out[atoms] = (sums / w.sum(axis=1)[:, None])[:, None, :]
        return AtomFunction(f.space, out)
    bounds = partition.cell_bounds_float()
    ad = f.antiderivative()._eval_unwrapped(bounds)
    avgs = np.diff(ad, axis=0) / np.diff(bounds)[:, None]
    return CircleFunction(bounds, avgs[:, None, :], f.space)


def cond_exp_dominant(h, partition):
    """Cell averages of a scalar field; positivity preserving."""
    if isinstance(h, CircleFunction):
        h = PolyField(h)
    if h.space != partition.space:
        raise ValueError("field and partition live on different spaces")
    if isinstance(h, PolyField):
        return PolyField(cond_exp(h.fn, partition))
    if isinstance(h, AtomField):
        ef = cond_exp(AtomFunction(h.space, h.values), partition)
        return AtomField(h.space, ef.values)
    bounds = partition.cell_bounds_float()
    avgs = h.cell_averages(partition)
    return PolyField(CircleFunction(bounds, avgs[:, None, None], h.space))


def defining_property_check(f, partition):
    """Max over cells of the averaging defect |∫_B E f − ∫_B f| (max norm)."""
    _check_space(f, partition)
    ef = cond_exp(f, partition)
    if isinstance(f, AtomFunction):
        gaps = [np.max(np.abs(e - g)) for (_, _, e), (_, _, g) in
                zip(_cell_sums(partition, ef.values),
                    _cell_sums(partition, f.values))]
        return defect_max(0.0, *gaps)
    bounds = partition.cell_bounds_float()
    ints = [np.diff(g.antiderivative()._eval_unwrapped(bounds), axis=0)
            for g in (ef, f)]
    return defect_max(0.0, *np.max(np.abs(ints[0] - ints[1]), axis=1))


def functional_commutation_check(f, partition, functional):
    """Exact sup over the space of |g(E(f|F)) − E(g(f)|F)|.

    Both sides are piecewise constant (per atom on atom spaces), so the
    sup of their difference is read from its pieces, not from samples.
    """
    _check_space(f, partition)
    if functional.dim != f.d:
        raise ValueError("functional dimension does not match function")
    lhs = functional.compose(cond_exp(f, partition))
    rhs = cond_exp(functional.compose(f), partition)
    return float(sup_norm(lhs - rhs, VectorNorm("max", 1)))
