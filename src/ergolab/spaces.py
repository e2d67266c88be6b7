"""Measure spaces, finite partitions, filtrations, and vector norms.

Three kinds of spaces are supported:

* ``circle``   -- the unit circle [0, 1) with Lebesgue measure (mass 1),
* ``discrete`` -- finitely many atoms with strictly positive weights,
* ``product``  -- a uniform cyclic factor times a weighted atomic factor.

Finite sigma-algebras are represented by partitions.  Circle partitions use
dyadic-rational cell boundaries kept as exact ``Fraction`` values so that
refinement tests never suffer from float rounding.  Atomic partitions keep
one label per atom, ``cell_of``; the atoms of each cell, grouped by cell
size into index tables, are built once with the partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MAX_DYADIC_LEVEL = 30


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _atom_weights(weights):
    """weights as floats: a nonempty 1-d sequence, finite and positive."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("atomic spaces need a nonempty 1-d weight sequence")
    if not np.all((w > 0) & (w < np.inf)):
        raise ValueError("atom weights must be finite and strictly positive")
    return w


class MeasureSpace:
    """A finite measure space: the circle, an atomic space, or a product."""

    def __init__(self, kind, weights=None, cyclic_size=None,
                 atom_weights=None):
        self.kind = kind
        if kind == "circle":
            self.mass = 1.0
            self.weights = None
        elif kind == "discrete":
            w = _atom_weights(weights)
            self.weights = w
            self.mass = float(w.sum())
        elif kind == "product":
            m1 = int(cyclic_size)
            if m1 < 1:
                raise ValueError("cyclic factor must have at least one atom")
            w2 = _atom_weights(atom_weights)
            self.cyclic_size = m1
            self.factor_weights = w2
            # product atom (i, j) has weight w1_i * w2_j with uniform w1
            w1 = np.full(m1, 1.0 / m1)
            self.weights = np.repeat(w1, w2.size) * np.tile(w2, m1)
            self.mass = float(self.weights.sum())
        else:
            raise ValueError(f"unknown space kind {kind!r}")

    @property
    def natoms(self):
        return None if self.kind == "circle" else self.weights.size

    def sample_points(self, n):
        """Midpoints (k + 1/2)/n for k < n on the circle; every atom index
        otherwise."""
        if self.kind == "circle":
            return (np.arange(n) + 0.5) / n
        return np.arange(self.natoms)

    def __eq__(self, other):
        if not isinstance(other, MeasureSpace) or self.kind != other.kind:
            return False
        if self.kind == "circle":
            return True
        if self.kind == "product" and self.cyclic_size != other.cyclic_size:
            return False
        return self.weights.shape == other.weights.shape and \
            bool(np.all(self.weights == other.weights))

    def __repr__(self):
        if self.kind == "circle":
            return "MeasureSpace(circle)"
        if self.kind == "discrete":
            return f"MeasureSpace(discrete, {self.natoms} atoms)"
        return (f"MeasureSpace(product, {self.cyclic_size} x "
                f"{self.factor_weights.size})")


def circle_space():
    return MeasureSpace("circle")


def discrete_space(weights):
    return MeasureSpace("discrete", weights=weights)


def product_space(cyclic_size, atom_weights):
    return MeasureSpace("product", cyclic_size=cyclic_size,
                        atom_weights=atom_weights)


class Partition:
    """A finite partition of a measure space into positive-measure cells.

    Circle cells are half-open dyadic intervals [a, b).  An atomic partition
    is ``cell_of``, one integer label per atom, the labels running over
    0..k-1 with no gaps.  ``size_groups`` holds the same cells grouped by
    size: one (cells, size) table of atom indices per distinct size, each
    cell's atoms in increasing order, built once here.
    """

    def __init__(self, space, boundaries=None, cell_of=None):
        self.space = space
        if space.kind == "circle":
            bounds = [Fraction(b) for b in boundaries]
            if bounds[0] != 0 or bounds[-1] != 1:
                raise ValueError("circle partition must span [0, 1)")
            for a, b in zip(bounds, bounds[1:]):
                if b <= a:
                    raise ValueError("boundaries must be strictly increasing")
            for b in bounds:
                if not _is_dyadic(b):
                    raise ValueError(f"boundary {b} is not dyadic")
                if b.denominator > 2 ** MAX_DYADIC_LEVEL:
                    raise ValueError("boundary finer than the dyadic cap")
            self.boundaries = tuple(bounds)
            self.cell_of = None
        else:
            labels = np.asarray(cell_of)
            if labels.shape != (space.natoms,) or \
                    labels.dtype.kind not in "iu":
                raise ValueError("need one integer cell label per atom")
            labels = labels.astype(np.intp)
            # a label at or past the atom count leaves a gap below it
            if not (labels.min() >= 0 and labels.max() < labels.size
                    and (sizes := np.bincount(labels)).all()):
                raise ValueError(
                    "cell labels must run over 0..k-1 with no gaps")
            labels.flags.writeable = False
            self.boundaries = None
            self.cell_of = labels
            atoms = np.argsort(labels, kind="stable")
            starts = np.cumsum(sizes) - sizes
            self.size_groups = tuple(
                atoms[starts[sizes == n][:, None] + np.arange(n)]
                for n in np.unique(sizes))

    @property
    def ncells(self):
        if self.space.kind == "circle":
            return len(self.boundaries) - 1
        return int(self.cell_of.max()) + 1

    def cell_bounds_float(self):
        """Circle cell boundaries as floats (exact for dyadic <= 2^30)."""
        return np.array([float(b) for b in self.boundaries])

    def __eq__(self, other):
        if not isinstance(other, Partition) or self.space != other.space:
            return False
        return self.boundaries == other.boundaries and \
            np.array_equal(self.cell_of, other.cell_of)

    def __repr__(self):
        return f"Partition({self.space.kind}, {self.ncells} cells)"


def make_dyadic_partition(level, space=None):
    """Split the circle into 2**level equal half-open cells."""
    if level < 0 or level > MAX_DYADIC_LEVEL:
        raise ValueError(
            f"level must lie in [0, {MAX_DYADIC_LEVEL}] (measure underflow)")
    space = space if space is not None else circle_space()
    if space.kind != "circle":
        raise ValueError("dyadic partitions live on the circle")
    n = 2 ** level
    return Partition(space, boundaries=[Fraction(k, n) for k in range(n + 1)])


def _dyadic_labels(n, level):
    """Nested index blocks of n atoms: the level-k blocks start at
    ceil(j*n / 2**k), so atom a lies in block floor(a * 2**k / n); from
    2**k >= n on, every atom is its own block."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    return np.arange(n) * min(2 ** level, n) // n


def make_block_partition(space, level):
    """Dyadic-style partition of a discrete space into index blocks."""
    if space.kind != "discrete":
        raise ValueError("block partitions live on discrete spaces")
    return Partition(space, cell_of=_dyadic_labels(space.natoms, level))


def make_factor_partition(space, level):
    """Partition of a product space by blocks of the atomic factor: atom
    (i, j), at i * m2 + j, takes the label of factor atom j."""
    if space.kind != "product":
        raise ValueError("factor partitions live on product spaces")
    labels = _dyadic_labels(space.factor_weights.size, level)
    return Partition(space, cell_of=np.tile(labels, space.cyclic_size))


def partition_at_level(space, level):
    if space.kind == "circle":
        return make_dyadic_partition(level, space)
    if space.kind == "discrete":
        return make_block_partition(space, level)
    return make_factor_partition(space, level)


def max_partition_level(space):
    """Finest level at which every cell still has positive measure."""
    if space.kind == "circle":
        return MAX_DYADIC_LEVEL
    n = space.natoms if space.kind == "discrete" else space.factor_weights.size
    return int(np.floor(np.log2(n))) if n > 1 else 0


class Filtration:
    """Monotone family of partitions indexed by a real parameter s >= 0.

    ``increasing`` filtrations refine as s grows and stabilise at
    ``max_level``; ``decreasing`` ones start at ``max_level`` and coarsen to
    the trivial partition.
    """

    def __init__(self, space, direction, max_level):
        if direction not in ("increasing", "decreasing"):
            raise ValueError(f"unknown direction {direction!r}")
        cap = max_partition_level(space)
        if max_level < 0 or max_level > cap:
            raise ValueError(f"max_level must lie in [0, {cap}] on this space")
        self.space = space
        self.direction = direction
        self.max_level = int(max_level)
        self._cache = {}

    def level(self, s):
        if s < 0:
            raise ValueError("filtration parameter must be nonnegative")
        k = int(np.floor(s))
        if self.direction == "increasing":
            return min(k, self.max_level)
        return max(self.max_level - k, 0)

    def partition_at_level(self, k):
        if k not in self._cache:
            self._cache[k] = partition_at_level(self.space, k)
        return self._cache[k]

    def partition(self, s):
        return self.partition_at_level(self.level(s))

    def terminal(self):
        """Partition reached as s -> infinity."""
        if self.direction == "increasing":
            return self.partition_at_level(self.max_level)
        return self.partition_at_level(0)

    def __repr__(self):
        return (f"Filtration({self.space.kind}, {self.direction}, "
                f"max_level={self.max_level})")


@dataclass(frozen=True)
class VectorNorm:
    """Norm on R^d: euclidean, max, or sum of absolute coordinates."""

    selector: str
    dim: int

    _SELECTORS = ("euclidean", "max", "sum")

    def __post_init__(self):
        if self.selector not in self._SELECTORS:
            raise ValueError(f"unknown norm selector {self.selector!r}")
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def __call__(self, arr):
        """Norm along the last axis of an (..., d) array."""
        a = np.asarray(arr, dtype=float)
        if a.shape[-1] != self.dim:
            raise ValueError(
                f"expected last axis {self.dim}, got {a.shape[-1]}")
        if self.selector == "euclidean":
            return np.sqrt(np.sum(a * a, axis=-1))
        if self.selector == "max":
            return np.max(np.abs(a), axis=-1)
        return np.sum(np.abs(a), axis=-1)
