"""Measure-preserving flows and their exact time averages.

Three flow kinds:

* rotation  x -> x + t*theta mod 1 on the circle; the time average has a
            closed form through the periodic antiderivative, so no time
            discretization is ever involved.
* step      T_t = S^floor(t/h) for a weight-preserving atom permutation S;
            the integrand is piecewise constant in time, so the average is
            a finite sum.
* identity  T_t = id on any space.

Wrap counts floor(t*theta) and floor(t/h) are taken in extended precision:
a double-precision product can land on the wrong side of an integer and
misassign every piece of the result.

Step averages add the terms values[S^k(i)] of each atom one at a time in
increasing k, from +0.0, so they carry the bits of a plain per-step loop.
The orbit-sum kernel keeps that order in blocks: a sequential ``np.cumsum``
down the time axis of gathered orbit rows, the running total in row 0.  The
cycle closed form q*cycle_sum + partial_sum is O(natoms) but rounds
differently and would move artifact values, so it is not used.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .functions import CircleFunction, AtomFunction, merge_sum, DEGREE_CAP
from .fields import PolyField, GenericField, AtomField
from .spaces import circle_space

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _split_product(a, b):
    """floor and fractional part of a*b computed in extended precision."""
    prod = np.longdouble(a) * np.longdouble(b)
    n = int(np.floor(prod))
    frac = float(prod - n)
    if frac >= 1.0 - 1e-14:
        n += 1
        frac = 0.0
    elif frac < 1e-14:
        frac = 0.0
    return n, frac


def _split_ratio(t, h):
    """floor and remainder of t/h, snapping to exact multiples."""
    ratio = np.longdouble(t) / np.longdouble(h)
    n = int(np.floor(ratio))
    rem = float((np.longdouble(t) - np.longdouble(n) * np.longdouble(h)))
    if rem >= h * (1.0 - 1e-13):
        n += 1
        rem = 0.0
    elif rem < h * 1e-13:
        rem = 0.0
    return n, rem


# elements held by one orbit-sum block, whatever t, the atom count or period
_ORBIT_BLOCK = 1 << 14


def _cycle_index(perm):
    """Cycle layout (order, start, length, pos) of a permutation: the orbit
    of atom i runs through order[start[i] + (pos[i] + k) % length[i]],
    k = 0, 1, 2, ..., and length[i] is the length of its cycle."""
    nxt = np.asarray(perm).tolist()
    leader = [-1] * len(nxt)
    order = []
    for i in range(len(nxt)):
        a = i
        while leader[a] < 0:
            leader[a] = i
            order.append(a)
            a = nxt[a]
    order = np.asarray(order, dtype=np.intp)
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    leader = np.asarray(leader, dtype=np.intp)
    start = where[leader]
    return order, start, np.bincount(leader)[leader], where - start


def _orbit_sums(values, perm, n):
    """Sum_{k<n} values[perm^k(i)] for every atom i, and the map perm^n.

    Terms are added per atom in increasing k from +0.0, exactly as a
    per-step loop adds them, so the sums carry the loop's bits.
    """
    order, start, length, pos = _cycle_index(perm)
    rows = max(1, _ORBIT_BLOCK // values.size)
    period = math.lcm(*np.unique(length).tolist())
    if period <= rows:
        rows -= rows % period
    buf = np.empty((min(rows, n) + 1,) + values.shape, dtype=values.dtype)
    out = np.empty_like(buf)
    total = np.zeros_like(values)
    for done in range(0, n, rows):
        m = min(rows, n - done)
        if done == 0 or period > rows:
            k = np.arange(done, done + m)[:, None]
            buf[1:m + 1] = values[order[start + (pos + k) % length]]
        buf[0] = total
        np.cumsum(buf[:m + 1], axis=0, out=out[:m + 1])
        total = out[m]
    return total.copy(), order[start + (pos + n) % length]


def _step_map(flow, t):
    """The time-t point map S^floor(t/h) of a step flow."""
    order, start, length, pos = _cycle_index(flow.perm)
    return order[start + (pos + _split_ratio(t, flow.h)[0]) % length]


class Flow:
    """A one-sided measure-preserving flow on a concrete space."""

    def __init__(self, kind, space, theta=None, perm=None, h=None):
        self.kind = kind
        self.space = space
        self.theta = theta
        self.h = h
        self.perm = perm
        if kind == "rotation":
            if space.kind != "circle":
                raise ValueError("rotation flows live on the circle")
            if not (0.0 < theta < 1.0):
                raise ValueError("rotation angle must lie in (0, 1)")
        elif kind == "step":
            if space.kind == "circle":
                raise ValueError("step flows need an atomic space")
            p = np.asarray(perm, dtype=int)
            if sorted(p.tolist()) != list(range(space.natoms)):
                raise ValueError("base map must be a permutation of the atoms")
            if np.max(np.abs(space.weights[p] - space.weights)) > 1e-12:
                raise ValueError("base map must preserve atom weights")
            if not (h is not None and h > 0.0):
                raise ValueError("step width must be positive")
            self.perm = p
        elif kind != "identity":
            raise ValueError(f"unknown flow kind {kind!r}")

    @property
    def ergodic(self):
        """Whether time averages converge to the space mean.

        Rotations by an angle not close to a small-denominator rational
        are treated as ergodic; step flows must cycle through all atoms
        of a uniformly weighted space.
        """
        if self.kind == "rotation":
            approx = Fraction(self.theta).limit_denominator(64)
            return abs(float(approx) - self.theta) > 1e-12
        if self.kind == "step":
            one_cycle = _cycle_index(self.perm)[2][0] == self.space.natoms
            return bool(one_cycle) and np.ptp(self.space.weights) == 0.0
        return False

    def orbit_period(self):
        """Smallest n >= 1 with S^n = id (step flows only)."""
        if self.kind != "step":
            raise ValueError("orbit_period applies to step flows")
        return math.lcm(*np.unique(_cycle_index(self.perm)[2]).tolist())

    def __repr__(self):
        if self.kind == "rotation":
            return f"Flow(rotation, theta={self.theta})"
        if self.kind == "step":
            return f"Flow(step, h={self.h}, {self.space.natoms} atoms)"
        return "Flow(identity)"


def rotation_flow(theta=GOLDEN, space=None):
    return Flow("rotation", space if space is not None else circle_space(),
                theta=float(theta))


def step_flow(space, perm, h=1.0):
    return Flow("step", space, perm=perm, h=float(h))


def shift_perm(space):
    """Cyclic shift on a discrete space, or on the cyclic factor of a product."""
    if space.kind == "discrete":
        return (np.arange(space.natoms) + 1) % space.natoms
    if space.kind == "product":
        m1 = space.cyclic_size
        m2 = space.factor_weights.size
        i, j = np.divmod(np.arange(space.natoms), m2)
        return ((i + 1) % m1) * m2 + j
    raise ValueError("shift permutations need an atomic space")


def identity_flow(space):
    return Flow("identity", space)


def apply_flow(flow, t, f):
    """T_t f = f composed with the time-t point map."""
    if t < 0.0:
        raise ValueError("the flow is one-sided: t must be nonnegative")
    if flow.kind == "identity" or t == 0.0:
        return f
    if flow.kind == "rotation":
        _, delta = _split_product(t, flow.theta)
        return f.rotate(delta)
    return f.permute(_step_map(flow, t))


def _check_degree(f):
    if isinstance(f, CircleFunction) and f.degree + 1 > DEGREE_CAP:
        raise ValueError(
            f"averaging degree-{f.degree} input exceeds the degree cap")


def _rotation_average_fn(fn, t, theta):
    """Closed-form (1/t)∫_0^t f(x+τθ)dτ for a CircleFunction."""
    total = np.longdouble(t) * np.longdouble(theta)
    n0, delta = _split_product(t, theta)
    big_f = fn.antiderivative()
    iv = fn.integral()
    shifted = big_f.rotate(delta)
    if delta == 0.0:
        wrap = CircleFunction.constant(float(n0) * iv, fn.space)
    else:
        wedge = np.array([0.0, 1.0 - delta, 1.0])
        counts = np.array([float(n0), float(n0 + 1)])
        wrap = CircleFunction(wedge, counts[:, None, None] * iv[None, None, :],
                              fn.space)
    comb = merge_sum([shifted, big_f, wrap], [1.0, -1.0, 1.0])
    return comb * float(1.0 / total)


def _step_average_values(values, perm, t, h):
    n, rem = _split_ratio(t, h)
    acc, cur = _orbit_sums(values, perm, n)
    acc *= h
    if rem > 0.0:
        acc += rem * values[cur]
    return acc / t


def cesaro_average(flow, t, f):
    """Time average A_t f = (1/t)∫_0^t T_τ f dτ, exact for every kind."""
    if t <= 0.0:
        raise ValueError("averaging time must be positive")
    if flow.kind == "identity":
        return f
    if flow.kind == "rotation":
        _check_degree(f)
        return _rotation_average_fn(f, t, flow.theta)
    return AtomFunction(f.space,
                        _step_average_values(f.values, flow.perm, t, flow.h))


def discrete_average(flow, n, f):
    """Arithmetic mean of f, T_1 f, ..., T_1^{n-1} f."""
    if n < 1 or int(n) != n:
        raise ValueError("discrete averages need a positive integer count")
    n = int(n)
    if flow.kind == "identity" or n == 1:
        return f
    if flow.kind == "rotation":
        terms = []
        for i in range(n):
            _, delta = _split_product(i, flow.theta)
            terms.append(f.rotate(delta))
        return merge_sum(terms, np.full(n, 1.0 / n))
    acc, _ = _orbit_sums(f.values, _step_map(flow, 1.0), n)
    return AtomFunction(f.space, acc / n)


class DominantFlow:
    """Scalar companion of a composition flow: same point map, scalar data."""

    def __init__(self, base):
        self.base = base

    def cesaro(self, t, field):
        """A'_t h = (1/t)∫_0^t P_τ h dτ; positivity preserving."""
        if t <= 0.0:
            raise ValueError("averaging time must be positive")
        base = self.base
        if base.kind == "identity":
            return field
        if base.kind == "step":
            if not isinstance(field, AtomField):
                raise ValueError("step dominants act on atomic fields")
            vals = _step_average_values(field.values[:, None], base.perm,
                                        t, base.h)[:, 0]
            return AtomField(field.space, vals)
        if isinstance(field, PolyField):
            _check_degree(field.fn)
            return PolyField(_rotation_average_fn(field.fn, t, base.theta))
        return self._rotation_generic(t, field)

    def _rotation_generic(self, t, field):
        theta = self.base.theta
        total = float(np.longdouble(t) * np.longdouble(theta))
        n0, delta = _split_product(t, theta)
        iv = field.integral()
        cum = field.cumint if hasattr(field, "cumint") else None
        if cum is None:
            raise ValueError("field does not support cumulative integrals")

        def evaluator(x):
            x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
            end = x + delta
            wraps = np.where(end >= 1.0, n0 + 1.0, float(n0))
            end = np.where(end >= 1.0, end - 1.0, end)
            return (cum(end) - cum(x) + wraps * iv) / total

        inner = np.concatenate([field.breaks,
                                (field.breaks - delta) % 1.0,
                                [(1.0 - delta) % 1.0]])
        bound = None
        if hasattr(field, "sup"):
            bound = 2.0 * field.sup() / total
        return GenericField(field.space, evaluator, inner,
                            deriv_bound=bound, exact_integral=iv)


def dominant_cesaro(flow, t, field):
    """Convenience wrapper: time average under the dominant of ``flow``."""
    return DominantFlow(flow).cesaro(t, field)
