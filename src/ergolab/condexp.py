"""Conditional expectation on finite partitions and its positive dominant.

For a finite partition every conditional expectation is a cell average, so
the vector operator is exact.  ``cond_exps`` conditions (function,
partition) pairs in one pass, each result with the bits of its own
``cond_exp`` call.  ``_cell_integrals`` takes each pair's cell integrals
in the layout of ``Partition.masses``: on atoms one stacked ``np.matmul``
per size group, one dot product per cell; on the circle antiderivative
differences, each function's antiderivative evaluated once at the bounds
of its finest level, as ``_eval_unwrapped`` evaluates it, from one power
table per coefficient width and level; antiderivatives not yet cached
come from one stacked pass per coefficient shape.  A level l reads every
2**(L-l)-th level-L value: k/2**l and k 2**(L-l)/2**L are the same
double.  The scalar dominant conditions polynomial and atom fields
through that operator; only the quadrature fields bring their own
``cell_averages``, and no quadrature runs inside another.
"""

from __future__ import annotations

import numpy as np

from .functions import (CircleFunction, AtomFunction, _Stack, _antiderivative,
                        _circle, _powers, _rows)
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


def _cell_integrals(fns, partitions):
    """Each pair's cell integrals: one (cells, d) array per size group."""
    if len(fns) != len(partitions):
        raise ValueError(f"need one partition per function, got {len(fns)} "
                         f"functions and {len(partitions)} partitions")
    out, pairs, shapes, powers = [None] * len(fns), {}, {}, {}
    for i, (f, part) in enumerate(zip(fns, partitions)):
        _check_space(f, part)
        if not isinstance(f, CircleFunction):
            out[i] = [np.matmul(part.space.weights[atoms][:, None, :],
                                f.values[atoms])[:, 0]
                      for atoms in part.size_groups]
            continue
        if f._antideriv is None and f not in pairs:
            shapes.setdefault(f.coeffs.shape[1:], []).append(f)
        pairs.setdefault(f, []).append(i)
    for new in shapes.values():  # CircleFunction.antiderivative, stacked
        ads = _antiderivative(_Stack.of(new)).functions(new[0].space)
        for f, ad in zip(new, ads):
            f._antideriv = ad
    for f, idx in pairs.items():
        fine = max((partitions[i] for i in idx), key=lambda p: p.level)
        ad, x = f.antiderivative(), fine.cell_bounds_float()
        key = (ad.coeffs.shape[1], fine.level)  # equal levels, equal bounds
        if key not in powers:
            powers[key] = _powers(x, key[0])
        at = np.einsum("nk,nkd->nd", powers[key],
                       _rows(ad.coeffs, ad.piece_index(x)))
        for i in idx:
            # np.diff's subtraction, on every 2**(L - l)-th value
            v = at[::2 ** (fine.level - partitions[i].level)]
            out[i] = [v[1:] - v[:-1]]
    return out


def cond_exps(fns, partitions):
    """[cond_exp(f, P) for each pair (f, P)], each with the bits of its own
    call, from one ``_cell_integrals`` pass divided in place; circle
    results are handed back unchecked on the partition's bounds."""
    fns, partitions = list(fns), list(partitions)
    out = []
    for f, part, sums in zip(fns, partitions,
                             _cell_integrals(fns, partitions)):
        for s, m in zip(sums, part.masses):
            np.divide(s, m[:, None], out=s)
        if isinstance(f, CircleFunction):
            out.append(_circle(part.cell_bounds_float(), sums[0][:, None],
                               f.space))
            continue
        vals = np.empty_like(f.values)
        for atoms, a in zip(part.size_groups, sums):
            vals[atoms] = a[:, None, :]
        out.append(AtomFunction(f.space, vals))
    return out


def cond_exp(f, partition):
    """Cell-average conditional expectation; exact, piecewise constant."""
    return cond_exps([f], [partition])[0]


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
    avgs = h.cell_averages(partition)[:, None, None]
    return PolyField(_circle(partition.cell_bounds_float(), avgs, h.space))


def defining_property_check(f, partition):
    """Max over cells of the averaging defect |∫_B E f − ∫_B f| (max norm)."""
    got, want = _cell_integrals([cond_exp(f, partition), f], [partition] * 2)
    return defect_max(0.0, *(np.abs(e - g).max() for e, g in zip(got, want)))


def functional_commutation_check(f, partitions, functional):
    """Exact sup over the space of |g(E(f|F)) − E(g(f)|F)|, one per
    partition F of ``partitions``, from one max-norm family.

    Both sides are piecewise constant (per atom on atom spaces), so the
    sup of their difference is read from its pieces, not from samples.
    """
    if functional.dim != f.d:
        raise ValueError("functional dimension does not match function")
    partitions = list(partitions)
    n = len(partitions)
    both = cond_exps([f] * n + [functional.compose(f)] * n, partitions * 2)
    return NormFamily([functional.compose(ef) for ef in both[:n]],
                      VectorNorm("max", 1), both[n:]).sup()
