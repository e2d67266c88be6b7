"""Conditional expectation on finite partitions and its positive dominant.

For a finite partition every conditional expectation is a cell average, so
the vector operator is exact.  ``_cell_integrals`` takes each cell's
integral in the layout of ``Partition.masses``, one array per size group:
antiderivative differences on the circle (one group of equal cells), and
on atoms one stacked ``np.matmul`` per ``Partition.size_groups`` table,
one dot product per cell, so the bits match a loop over the cells.
``cond_exp`` divides them by the masses; ``defining_property_check``
compares those of E(f|F) and f.  ``functional_commutation_check`` takes
its gaps on all partitions in one max-norm ``NormFamily``.  The scalar
dominant conditions polynomial and atom fields through that same
operator; only the quadrature fields (``SqrtPolyField``, ``GenericField``)
bring their own ``cell_averages``, each cell from its own parts, and no
quadrature runs inside another.
"""

from __future__ import annotations

import numpy as np

from .functions import CircleFunction, AtomFunction
from .fields import NormFamily, PolyField, AtomField, defect_max
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


def _cell_integrals(f, partition):
    """Each cell's integral of f: one (cells, d) array per size group."""
    if isinstance(f, AtomFunction):
        return [np.matmul(partition.space.weights[atoms][:, None, :],
                          f.values[atoms])[:, 0]
                for atoms in partition.size_groups]
    bounds = partition.cell_bounds_float()
    return [np.diff(f.antiderivative()._eval_unwrapped(bounds), axis=0)]


def cond_exp(f, partition):
    """Cell-average conditional expectation; exact, piecewise constant."""
    _check_space(f, partition)
    avgs = [s / m[:, None] for s, m in zip(_cell_integrals(f, partition),
                                           partition.masses)]
    if isinstance(f, AtomFunction):
        out = np.empty_like(f.values)
        for atoms, a in zip(partition.size_groups, avgs):
            out[atoms] = a[:, None, :]
        return AtomFunction(f.space, out)
    return CircleFunction(partition.cell_bounds_float(), avgs[0][:, None],
                          f.space)


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
    return defect_max(0.0, *(np.max(np.abs(e - g)) for e, g in zip(
        _cell_integrals(ef, partition), _cell_integrals(f, partition))))


def functional_commutation_check(f, partitions, functional):
    """Exact sup over the space of |g(E(f|F)) − E(g(f)|F)|, one per
    partition F of ``partitions``, from one max-norm family.

    Both sides are piecewise constant (per atom on atom spaces), so the
    sup of their difference is read from its pieces, not from samples.
    """
    for part in partitions:
        _check_space(f, part)
    if functional.dim != f.d:
        raise ValueError("functional dimension does not match function")
    gf = functional.compose(f)
    return NormFamily([functional.compose(cond_exp(f, part))
                       - cond_exp(gf, part) for part in partitions],
                      VectorNorm("max", 1)).sup()
