"""Measure-preserving flows and their exact time averages.

One class per flow kind; ``Flow`` itself is the identity T_t = id:

* ``Rotation``  x -> x + t*theta mod 1 on the circle; the time average has
                a closed form through the periodic antiderivative, so no
                time discretization is ever involved.
* ``Step``      T_t = S^floor(t/h) for a weight-preserving atom permutation
                S; the integrand is piecewise constant in time, so the
                average is a finite sum.

Callers use the module functions (``apply_flows``, ``cesaro_averages``,
...), which check the time arguments and hand off to the flow's method.
``cesaro_averages`` takes a whole increasing list of times: a ``Step``
serves all of them from its orbit sums and a ``Rotation`` from one
antiderivative and one stacked rotate-and-merge.  Shifts are stacked the
same way: ``apply_flows`` takes times in any order, and a ``Rotation``
serves them from one ``CircleFunction.rotations`` call.  Each result has
the bits of its one-time call (``apply_flow``, ``cesaro_average``), the
one-element case of the same path.  Every time must be finite; a NaN or
infinite t is refused by name before it reaches a flow.

Wrap counts floor(t*theta) and floor(t/h) are taken in extended precision:
a double-precision product can land on the wrong side of an integer and
misassign every piece of the result.

A ``Step`` builds the cycle layout of S and its period once, when it is
constructed; its averages, shifts and ``ergodic`` all read that layout.
Step averages add the terms values[S^k(i)] of each atom one at a time in
increasing k, from +0.0, so they carry the bits of a plain per-step loop.
The orbit-sum kernel keeps that order in blocks: a sequential ``np.cumsum``
down the time axis of gathered orbit rows, the running total in row 0.  A
``Step`` keeps, per input (its shape, dtype and bytes), the sums at every
step count it has been asked for, and sums each input's orbit once: a new
count resumes from the largest stored one below it, adding the same terms
to the same running total in the same order, so the sum after n steps has
the bits of one pass from step 0.  The store lives and dies with the flow
(the runner builds one per scenario run), so it is no process-wide cache.
The cycle closed form q*cycle_sum + partial_sum is
O(natoms) but rounds differently and would move artifact values, so it is
not used.  Nor is A_t v = v for an input v that S leaves invariant, exact
only in real arithmetic.  Such an input (values == values[S] entry by
entry with no tolerance, so a NaN never qualifies) is constant on every
cycle: each atom adds n copies of its own value from +0.0, the additions
of its cycle's other atoms.  (A cycle may mix +0.0 and -0.0; both sum to
+0.0.)  The pass then runs on one row per cycle and every atom takes its
cycle's row, the loop's bits at a fraction of the work.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .functions import (AtomFunction, DEGREE_CAP, _Stack, _rotated,
                        _weighted_sum)
from .fields import PolyField, GenericField, AtomField, pointwise_norm
from .spaces import Atoms, Circle

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# a fractional part of t*theta within _WRAP_SNAP of 0 or 1 is a whole
# wrap; a leftover of t/h within _STEP_SNAP*h of 0 or h is a whole step
_WRAP_SNAP = 1e-14
_STEP_SNAP = 1e-13
# an angle within _RATIONAL_GAP of a fraction with denominator <= 64 is
# not ergodic; atom weights a step map moves by more than _WEIGHT_TOL are
# not preserved; 1/h within _UNIT_BLOCK_TOL of an integer makes unit time
# a whole number of steps
_RATIONAL_GAP = 1e-12
_WEIGHT_TOL = 1e-12
_UNIT_BLOCK_TOL = 1e-9


def _split_product(a, b):
    """floor and fractional part of a*b computed in extended precision."""
    prod = np.longdouble(a) * np.longdouble(b)
    n = int(np.floor(prod))
    frac = float(prod - n)
    if frac >= 1.0 - _WRAP_SNAP:
        n += 1
        frac = 0.0
    elif frac < _WRAP_SNAP:
        frac = 0.0
    return n, frac


def _split_ratio(t, h):
    """floor and remainder of t/h, snapping to exact multiples."""
    ratio = np.longdouble(t) / np.longdouble(h)
    n = int(np.floor(ratio))
    rem = float((np.longdouble(t) - np.longdouble(n) * np.longdouble(h)))
    if rem >= h * (1.0 - _STEP_SNAP):
        n += 1
        rem = 0.0
    elif rem < h * _STEP_SNAP:
        rem = 0.0
    return n, rem


# elements held by one orbit-sum block, whatever t, the atom count or period
_ORBIT_BLOCK = 1 << 14


def _cycle_index(perm):
    """Cycle layout (order, start, length, pos, period, cycle) of a
    permutation: the orbit of atom i runs through order[start[i] + (pos[i]
    + k) % length[i]], k = 0, 1, 2, ..., length[i] is the length of its
    cycle, period the lcm of the lengths and cycle[i] the number of its
    cycle, cycles numbered by their least atom."""
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
    length = np.bincount(leader)[leader]
    cycle = np.unique(leader, return_inverse=True)[1]
    return (order, start, length, where - start,
            math.lcm(*set(length.tolist())), cycle)


def _invariant(values, cycles):
    """Whether the permutation whose layout _cycle_index gives as cycles
    leaves values unchanged (values == values[perm], compared exactly)."""
    order, start, length, pos = cycles[:4]
    return np.array_equal(values, values[order[start + (pos + 1) % length]])


def _orbit_sums(values, cycles, ns, known, invariant):
    """Sum_{k<n} values[perm^k(i)] for every atom i, and the map perm^n, for
    each n of ns, for the permutation whose layout _cycle_index gives as
    cycles.  known maps the step counts this input has reached to its
    (read-only) sums there; each new n is reached by resuming from the
    largest one below it, one pass for the new counts up to the next
    known one, and stored.

    Terms are added per atom in increasing k from +0.0, exactly as a
    per-step loop adds them, so the sums carry the loop's bits.  An input
    that perm leaves invariant (_invariant(values, cycles), passed in) is
    constant on every cycle, so each atom's sum is n copies of its own
    value: the pass then runs on one row per cycle, each row its own
    1-cycle, and every atom takes its cycle's row -- the same additions.
    """
    order, start, length, pos, period, cycle = cycles
    if not known:
        known[0] = np.zeros(values.shape, values.dtype)
        known[0].flags.writeable = False
    todo = sorted(set(ns) - known.keys())
    while todo:
        base = max(n for n in known if n < todo[0])
        stop = min((n for n in known if n > base), default=math.inf)
        run = [n for n in todo if n < stop]
        todo = todo[len(run):]
        if invariant:
            # the rows of cycle leaders (pos 0) come in cycle-number order
            heads = pos == 0
            own = np.arange(np.count_nonzero(heads))
            sums = [acc[cycle] for acc in _blocked_sums(
                values[heads], (own, own, 1, 0, 1), run, base,
                known[base][heads])]
        else:
            sums = _blocked_sums(values, cycles[:5], run, base, known[base])
        for acc in sums:
            acc.flags.writeable = False
        known.update(zip(run, sums))
    return [(known[n], order[start + (pos + n) % length]) for n in ns]


def _blocked_sums(values, layout, ns, n0, total):
    """The orbit sums of _orbit_sums for the layout (order, start, length,
    pos, period) at each n of the increasing ns above n0, resumed from the
    sums total after n0 steps: a sequential np.cumsum down the time axis of
    gathered orbit rows, block by block, the running total in row 0."""
    order, start, length, pos, period = layout
    last = ns[-1]
    rows = max(1, _ORBIT_BLOCK // values.size)
    if period <= rows:
        rows -= rows % period
    buf = np.empty((min(rows, last - n0) + 1,) + values.shape,
                   dtype=values.dtype)
    out = np.empty_like(buf)
    sums = []
    for done in range(n0, last, rows):
        m = min(rows, last - done)
        if period > rows:
            k = np.arange(done, done + m)[:, None]
            buf[1:m + 1] = values[order[start + (pos + k) % length]]
        elif done == n0:
            # a block is whole periods, so every block repeats the period
            # that starts at step n0
            k = np.arange(n0, n0 + min(period, m))[:, None]
            one = values[order[start + (pos + k) % length]]
            buf[1:m + 1] = one[np.arange(m) % period]
        buf[0] = total
        np.cumsum(buf[:m + 1], axis=0, out=out[:m + 1])
        # the running row at n, copied before the next block reuses out
        while len(sums) < len(ns) and ns[len(sums)] <= done + m:
            sums.append(out[ns[len(sums)] - done].copy())
        total = out[m]
    return sums


def _rotation_averages(fn, times, theta):
    """Closed-form (1/t)∫_0^t f(x+τθ)dτ of a CircleFunction for each t in
    times from one stacked rotate-and-merge of its antiderivative F, with the
    bits of merge_sum([F.rotate(δ), F, wrap], [1, −1, 1]) * (1/(tθ)) per t."""
    if fn.degree + 1 > DEGREE_CAP:
        raise ValueError(
            f"averaging degree-{fn.degree} input exceeds the degree cap")
    big_f, iv = fn.antiderivative(), fn.integral()
    m = len(times)
    splits = [_split_product(t, theta) for t in times]
    shifted = _rotated(big_f, [dl for _, dl in splits])
    # the whole turns: n0·∫f on [0, 1 − δ) and (n0 + 1)·∫f on [1 − δ, 1)
    ends = [(0.0, 1.0 - dl, 1.0) if dl else (0.0, 1.0) for _, dl in splits]
    turns = [float(n + k) for (n, _), e in zip(splits, ends)
             for k in range(len(e) - 1)]
    wrap = _Stack(np.repeat(np.arange(m), [len(e) - 1 for e in ends]),
                  np.array([x for e in ends for x in e[:-1]]),
                  np.array([x for e in ends for x in e[1:]]),
                  np.array(turns)[:, None, None] * iv, m)
    total = _weighted_sum([shifted, _Stack.of([big_f] * m), wrap],
                          (1.0, -1.0, 1.0), m)
    scale = np.array([float(1.0 / (np.longdouble(t) * theta)) for t in times])
    return total.recoef(total.c * scale[total.owner, None, None]).functions(
        fn.space)


def _rotation_average_field(field, t, theta):
    """(1/t)∫_0^t h(x+τθ)dτ for a field with cumulative integrals, as a
    GenericField evaluated through them.  Its derivative is
    (h(x+δ) − h(x)) / (tθ), so its cell integrals need no quadrature inside
    quadrature."""
    total = float(np.longdouble(t) * np.longdouble(theta))
    n0, delta = _split_product(t, theta)
    iv = field.integral()
    if not hasattr(field, "cumint"):
        raise ValueError("field does not support cumulative integrals")
    cum = field.cumint

    def evaluator(x):
        x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
        end = x + delta
        over = end >= 1.0
        wraps = np.where(over, n0 + 1.0, float(n0))
        vals = cum(np.r_[np.where(over, end - 1.0, end), x])
        return (vals[:x.size] - vals[x.size:] + wraps * iv) / total

    def derivative(x):
        return (field.eval((x + delta) % 1.0) - field.eval(x)) / total

    inner = np.concatenate([field.breaks,
                            (field.breaks - delta) % 1.0,
                            [(1.0 - delta) % 1.0]])
    return GenericField(field.space, evaluator, inner, derivative)


class Flow:
    """The identity flow, and the protocol every flow implements.

    Ergodic flows add ``envelope_constant(centered, vnorm)``: C with
    sup_x ||A_t g||_X <= C/t for the mean-zero g = centered.
    """

    kind = "identity"
    # whether time averages converge to the space mean
    ergodic = False
    # whether unit time is a whole number of evolution steps
    unit_blocks = True

    def __init__(self, space):
        self.space = space

    def shifts(self, times, f):
        """[T_t f for t in times], for positive times."""
        return [f for _ in times]

    def averages(self, times, f):
        """[A_t f for t in times], for increasing positive times."""
        return [f for _ in times]

    def dominant_average(self, t, field):
        """A'_t h for a scalar field h; positivity preserving."""
        return field

    def lattice(self, t):
        """The nearest time to t at which the evolution composes exactly."""
        return t

    def __repr__(self):
        return "Flow(identity)"


class Rotation(Flow):
    """x -> x + t*theta mod 1 on the circle."""

    kind = "rotation"

    def __init__(self, space, theta):
        if not isinstance(space, Circle):
            raise ValueError("rotation flows live on the circle")
        if not (0.0 < theta < 1.0):
            raise ValueError("rotation angle must lie in (0, 1)")
        super().__init__(space)
        self.theta = theta

    @property
    def ergodic(self):
        """Angles not close to a small-denominator rational count as ergodic."""
        approx = Fraction(self.theta).limit_denominator(64)
        return abs(float(approx) - self.theta) > _RATIONAL_GAP

    def shifts(self, times, f):
        return f.rotations([_split_product(t, self.theta)[1] for t in times])

    def averages(self, times, f):
        return _rotation_averages(f, times, self.theta)

    def dominant_average(self, t, field):
        if isinstance(field, PolyField):
            return PolyField(_rotation_averages(field.fn, [t], self.theta)[0])
        return _rotation_average_field(field, t, self.theta)

    def envelope_constant(self, centered, vnorm):
        """Twice the sup of the centered antiderivative over the angle."""
        prim = pointwise_norm(centered.antiderivative(), vnorm)
        return float(2.0 * prim.sup() / self.theta)

    def __repr__(self):
        return f"Flow(rotation, theta={self.theta})"


class Step(Flow):
    """T_t = S^floor(t/h) for a weight-preserving atom permutation S."""

    kind = "step"

    def __init__(self, space, perm, h):
        if not isinstance(space, Atoms):
            raise ValueError("step flows need an atomic space")
        p = np.asarray(perm)
        # an entry that is not an integer is refused, never truncated
        if p.dtype.kind not in "iu" or \
                sorted(p.tolist()) != list(range(space.natoms)):
            raise ValueError("base map must be a permutation of the atoms")
        if np.max(np.abs(space.weights[p] - space.weights)) > _WEIGHT_TOL:
            raise ValueError("base map must preserve atom weights")
        if not (h is not None and h > 0.0):
            raise ValueError("step width must be positive")
        super().__init__(space)
        self.perm = p.astype(int)
        self.h = h
        self._cycles = _cycle_index(self.perm)
        # per input, whether the base map leaves it invariant and its orbit
        # sums by step count; t -> floor and remainder of t/h; all kept for
        # the life of the flow
        self._sums, self._splits = {}, {}

    @property
    def ergodic(self):
        """One cycle through all atoms of a uniformly weighted space."""
        one_cycle = self._cycles[2][0] == self.space.natoms
        return bool(one_cycle) and np.ptp(self.space.weights) == 0.0

    @property
    def unit_blocks(self):
        inv = 1.0 / self.h
        return abs(inv - np.rint(inv)) <= _UNIT_BLOCK_TOL

    def _split(self, t):
        if t not in self._splits:
            self._splits[t] = _split_ratio(t, self.h)
        return self._splits[t]

    def _map(self, t):
        """The time-t point map S^floor(t/h)."""
        order, start, length, pos, _, _ = self._cycles
        return order[start + (pos + self._split(t)[0]) % length]

    def _average_values(self, values, times):
        """The step averages of values for each t of the increasing times,
        from the orbit sums of values (keyed by shape, dtype and bytes)."""
        splits = [self._split(t) for t in times]
        key = (values.shape, values.dtype.str, values.tobytes())
        if key not in self._sums:
            self._sums[key] = (_invariant(values, self._cycles), {})
        invariant, known = self._sums[key]
        sums = _orbit_sums(values, self._cycles, [n for n, _ in splits],
                           known, invariant)
        out = []
        for t, (_, rem), (acc, cur) in zip(times, splits, sums):
            acc = acc * self.h
            if rem > 0.0:
                acc += rem * values[cur]
            out.append(acc / t)
        return out

    def shifts(self, times, f):
        return [f.permute(self._map(t)) for t in times]

    def averages(self, times, f):
        return [AtomFunction(f.space, vals)
                for vals in self._average_values(f.values, times)]

    def dominant_average(self, t, field):
        if not isinstance(field, AtomField):
            raise ValueError("step dominants act on atomic fields")
        (vals,) = self._average_values(field.values[:, None], [t])
        return AtomField(field.space, vals[:, 0])

    def envelope_constant(self, centered, vnorm):
        """One full period of worst-case deviation: h * natoms * max ||g||."""
        peak = float(np.max(vnorm(centered.values)))
        return float(self.h * centered.space.natoms * peak)

    def lattice(self, t):
        """The nearest positive multiple of the step width."""
        return max(self.h, self.h * round(t / self.h))

    def __repr__(self):
        return f"Flow(step, h={self.h}, {self.space.natoms} atoms)"


def rotation_flow(theta=GOLDEN, space=None):
    return Rotation(space if space is not None else Circle(), float(theta))


def step_flow(space, perm, h=1.0):
    return Step(space, perm, float(h))


def identity_flow(space):
    return Flow(space)


def _times(times, zero_ok=False):
    """The times as floats; each must be finite and > 0 (>= 0 if zero_ok)."""
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t) or t < 0.0 or (t == 0.0 and not zero_ok):
            raise ValueError(f"time t = {t} must be finite and "
                             f"{'nonnegative' if zero_ok else 'positive'}")
    return times


def apply_flow(flow, t, f):
    """T_t f = f composed with the time-t point map (the flow is one-sided)."""
    return apply_flows(flow, [t], f)[0]


def apply_flows(flow, times, f):
    """[T_t f for t in times], times >= 0 in any order, f itself at t = 0;
    one stacked shift serves them all, with the bits of ``apply_flow``."""
    times = _times(times, zero_ok=True)
    moved = iter(flow.shifts([t for t in times if t > 0.0], f))
    return [next(moved) if t > 0.0 else f for t in times]


def cesaro_average(flow, t, f):
    """Time average A_t f = (1/t)∫_0^t T_τ f dτ, exact for every flow."""
    return flow.averages(_times([t]), f)[0]


def cesaro_averages(flow, times, f):
    """[A_t f for t in times] for strictly increasing positive times; a step
    flow serves every time from its orbit sums and a rotation from one
    stacked rotate-and-merge, with the bits of ``cesaro_average`` at each t."""
    times = _times(times)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("averaging times must be strictly increasing")
    return flow.averages(times, f) if times else []


def dominant_cesaro(flow, t, field):
    """A'_t h = (1/t)∫_0^t P_τ h dτ for a scalar field h under the same
    point map; positivity preserving."""
    (t,) = _times([t])
    return flow.dominant_average(t, field)
