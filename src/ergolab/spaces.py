"""Measure spaces, finite partitions, filtrations, and vector norms.

One class per kind of space, each building its own nested partitions by
level:

* ``Circle``  -- the unit circle [0, 1) with Lebesgue measure (mass 1),
* ``Atoms``   -- finitely many atoms with strictly positive weights,
* ``Product`` -- a uniform cyclic factor times a weighted atomic factor.

Finite sigma-algebras are represented by partitions.  A circle partition is
its dyadic level: 2**level equal cells whose bounds k / 2**level are exact
in binary64.  Atomic partitions keep one label per atom, ``cell_of``; the
atoms of each cell, grouped by cell size into index tables, are built once
with the partition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

MAX_DYADIC_LEVEL = 30


def _integer(level, name="level"):
    """level as an int; a float level or cyclic size is refused, not cut."""
    try:
        return operator.index(level)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {level!r}") from None


def _atom_weights(weights):
    """weights as floats: a nonempty 1-d sequence, finite and positive."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("atomic spaces need a nonempty 1-d weight sequence")
    if not np.all((w > 0) & (w < np.inf)):
        raise ValueError("atom weights must be finite and strictly positive")
    return w


def _dyadic_labels(n, level):
    """Nested index blocks of n atoms: the level-k blocks start at
    ceil(j*n / 2**k), so atom a lies in block floor(a * 2**k / n); from
    2**k >= n on, every atom is its own block."""
    level = _integer(level)
    if level < 0:
        raise ValueError("level must be nonnegative")
    return np.arange(n) * min(2 ** level, n) // n


class Circle:
    """The unit circle [0, 1) with Lebesgue measure."""

    kind = "circle"
    mass = 1.0
    max_level = MAX_DYADIC_LEVEL

    def partition(self, level):
        """2**level equal half-open cells."""
        return Partition(self, level=level)

    def sample_points(self, n):
        """Midpoints (k + 1/2)/n for k < n."""
        return (np.arange(n) + 0.5) / n

    def __eq__(self, other):
        return isinstance(other, Circle)

    def __repr__(self):
        return "Circle()"


class Atoms:
    """Finitely many atoms with finite, strictly positive weights."""

    kind = "discrete"

    def __init__(self, weights):
        self.weights = _atom_weights(weights)
        self.mass = float(self.weights.sum())
        # finest level at which every index block still holds an atom
        self.max_level = self.natoms.bit_length() - 1

    @property
    def natoms(self):
        return self.weights.size

    def partition(self, level):
        """Nested index blocks of the atoms."""
        return Partition(self, cell_of=_dyadic_labels(self.natoms, level))

    def sample_points(self, n):
        """Every atom index, whatever n."""
        return np.arange(self.natoms)

    def shift_perm(self):
        """The cyclic shift a -> a + 1 mod natoms."""
        return (np.arange(self.natoms) + 1) % self.natoms

    def __eq__(self, other):
        return other is self or type(other) is type(self) and \
            np.array_equal(self.weights, other.weights)

    def __repr__(self):
        return f"Atoms({self.natoms} atoms)"


class Product(Atoms):
    """A uniform cyclic factor of m1 atoms times a weighted atomic factor of
    m2 atoms; atom (i, j) sits at i * m2 + j with weight w2_j / m1."""

    kind = "product"

    def __init__(self, cyclic_size, atom_weights):
        m1 = _integer(cyclic_size, "cyclic_size")
        if m1 < 1:
            raise ValueError("cyclic factor must have at least one atom")
        w2 = _atom_weights(atom_weights)
        super().__init__(np.repeat(np.full(m1, 1.0 / m1), w2.size)
                         * np.tile(w2, m1))
        self.cyclic_size = m1
        self.factor_weights = w2
        self.max_level = w2.size.bit_length() - 1

    def partition(self, level):
        """Blocks of the atomic factor: atom (i, j) takes the label of
        factor atom j."""
        labels = _dyadic_labels(self.factor_weights.size, level)
        return Partition(self, cell_of=np.tile(labels, self.cyclic_size))

    def shift_perm(self):
        """The cyclic shift (i, j) -> (i + 1 mod m1, j) of the first factor."""
        i, j = np.divmod(np.arange(self.natoms), self.factor_weights.size)
        return ((i + 1) % self.cyclic_size) * self.factor_weights.size + j

    def __eq__(self, other):
        return super().__eq__(other) and self.cyclic_size == other.cyclic_size

    def __repr__(self):
        return f"Product({self.cyclic_size} x {self.factor_weights.size})"


circle_space = Circle
discrete_space = Atoms
product_space = Product


class Partition:
    """A finite partition of a measure space into positive-measure cells.

    A circle partition is its ``level``: 2**level half-open cells [a, b) of
    equal length.  An atomic partition is ``cell_of``, one integer label
    per atom, the labels running over 0..k-1 with no gaps.  ``size_groups``
    holds the same cells grouped by size: one (cells, size) table of atom
    indices per distinct size, each cell's atoms in increasing order.
    ``masses`` holds one array of cell measures per size group; the circle's
    equal cells make one group.  Both are built once here.
    """

    def __init__(self, space, cell_of=None, level=None):
        self.space = space
        self.level = self.cell_of = None
        if isinstance(space, Circle):
            level = _integer(level)
            if not 0 <= level <= MAX_DYADIC_LEVEL:
                raise ValueError(f"level must lie in [0, {MAX_DYADIC_LEVEL}]"
                                 " (measure underflow)")
            self.level = level
            self.ncells = n = 2 ** level
            self._bounds = np.arange(n + 1) / n
            self._bounds.flags.writeable = False
            self.masses = (np.diff(self._bounds),)
            return
        labels = np.asarray(cell_of)
        if labels.shape != (space.natoms,) or labels.dtype.kind not in "iu":
            raise ValueError("need one integer cell label per atom")
        labels = labels.astype(np.intp)
        # a label at or past the atom count leaves a gap below it
        if not (labels.min() >= 0 and labels.max() < labels.size
                and (sizes := np.bincount(labels)).all()):
            raise ValueError("cell labels must run over 0..k-1 with no gaps")
        labels.flags.writeable = False
        self.cell_of = labels
        self.ncells = sizes.size
        atoms = np.argsort(labels, kind="stable")
        starts = np.cumsum(sizes) - sizes
        self.size_groups = tuple(
            atoms[starts[sizes == n][:, None] + np.arange(n)]
            for n in np.unique(sizes))
        self.masses = tuple(space.weights[group].sum(axis=1)
                            for group in self.size_groups)

    def cell_bounds_float(self):
        """Circle cell boundaries k / 2**level, read-only."""
        return self._bounds

    def __eq__(self, other):
        return isinstance(other, Partition) and self.space == other.space \
            and self.level == other.level \
            and np.array_equal(self.cell_of, other.cell_of)

    def __repr__(self):
        return f"Partition({self.space.kind}, {self.ncells} cells)"


def make_dyadic_partition(level, space=None):
    """Split the circle into 2**level equal half-open cells."""
    space = space if space is not None else Circle()
    if not isinstance(space, Circle):
        raise ValueError("dyadic partitions live on the circle")
    return space.partition(level)


class Filtration:
    """Monotone family of partitions indexed by a real parameter s >= 0.

    ``increasing`` filtrations refine as s grows and stabilise at
    ``max_level``; ``decreasing`` ones start at ``max_level`` and coarsen to
    the trivial partition.
    """

    def __init__(self, space, direction, max_level):
        if direction not in ("increasing", "decreasing"):
            raise ValueError(f"unknown direction {direction!r}")
        cap = space.max_level
        max_level = _integer(max_level, "max_level")
        if not 0 <= max_level <= cap:
            raise ValueError(f"max_level must lie in [0, {cap}] on this space")
        self.space = space
        self.direction = direction
        self.max_level = max_level
        self._cache = {}

    def level(self, s):
        if not 0.0 <= s < np.inf:
            raise ValueError(f"filtration parameter s = {s} must be finite "
                             "and nonnegative")
        k = int(np.floor(s))
        if self.direction == "increasing":
            return min(k, self.max_level)
        return max(self.max_level - k, 0)

    def partition_at_level(self, k):
        if k not in self._cache:
            self._cache[k] = self.space.partition(k)
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
