"""Vector-valued functions with exact piecewise-polynomial arithmetic.

Circle functions are piecewise polynomials on [0, 1) stored in the global
monomial basis as a dense coefficient array of shape (pieces, degree+1, d).
All structural operations (sums, antiderivatives, rotations, definite
integrals) are closed-form; only norms of genuinely non-polynomial
compositions fall back to quadrature (see fields.py).

Every piece kernel takes a ``_Stack``: the pieces of m functions, owner
after owner.  A CircleFunction is a stack of one (``_stack``, built on
first use), so one body serves one function and many: ``_antiderivative``
(per-owner running sums of the gains), ``_weighted_sum`` on the
``_merged`` breaks (``merge_sum``, ``+``, ``-``, a norm family's targets)
and ``_rotated``.  ``_Stack.of`` stacks functions, a lone one as its own
stack, and ``_Stack.functions`` hands each owner back as a CircleFunction
through ``_circle``: the one constructor that skips the checks, for
breaks and coefficients that a kernel has just built (``cond_exps`` hands
its results back through it too).

Discrete functions are plain per-atom value tables.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .spaces import Atoms, Circle

DEGREE_CAP = 8
# the largest jump ``is_continuous`` allows; ``from_smooth``'s knot count cap
_CONTINUITY_TOL = 1e-9
_MAX_KNOTS = 4096


def _rows(table, idx):
    """table[idx] for integer row indices, copied whole by ndarray.take
    (np.take's C call) at a fraction of fancy indexing's cost; a mask
    (which take would read as the rows 0 and 1) is refused."""
    if np.asarray(idx).dtype == bool:
        raise TypeError("_rows takes integer row indices, not a mask")
    return table.take(idx, axis=0)


def _powers(x, k1):
    """The bytes of x[..., None] ** np.arange(k1), with no pow for x^0 (1.0)
    or x^1 (x * 1.0, which quiets a signaling NaN as pow does).  Higher
    columns take pow with an exponent array of nonzero stride: a scalar 2.0
    takes NumPy's squaring fast path, whose bits differ."""
    out = np.empty(x.shape + (k1,))
    out[..., 0] = 1.0
    if k1 > 1:
        np.multiply(x, 1.0, out=out[..., 1])
    e = np.empty(x.shape)
    for j in range(2, k1):
        e.fill(j)
        np.power(x, e, out=out[..., j])
    return out


def _eval_rows(c, x):
    """Each row's polynomial c[i] ((n, k1, d)) at its point x[i], from one
    power table."""
    return np.einsum("nk,nkd->nd", _powers(x, c.shape[1]), c)


@functools.lru_cache(maxsize=None)
def _binom_matrix(n):
    """The (n, n) table C(j, k) at row k and column j."""
    return np.array([[math.comb(j, k) for j in range(n)] for k in range(n)],
                    dtype=float)


def taylor_shift(coeffs, sigma, which=None):
    """Coefficients of p(x + sigma) for p given by ascending ``coeffs``.

    coeffs has shape (..., K+1, d); sigma is scalar or matches the leading
    axes of coeffs, or with ``which`` (an index per polynomial) lists the
    distinct shifts.  One matrix is built per distinct shift, and each
    polynomial gets the bits of a call on it alone.
    """
    c = np.asarray(coeffs, dtype=float)
    sig = np.asarray(sigma, dtype=float)
    if which is None:
        sig, which = np.unique(sig, return_inverse=True, equal_nan=False)
    k1 = c.shape[-2]
    j = np.arange(k1)
    # below the diagonal sigma ** 0 == 1 (even 0, inf, NaN) times C(j, k) == 0
    base = np.where(sig == 0.0, 0.0, sig)[..., None, None] ** np.maximum(
        j[None, :] - j[:, None], 0)
    m = _binom_matrix(k1) * base
    return np.einsum("...kj,...jd->...kd", _rows(m, which), c)


# -- stacks: the pieces of many functions, and the kernels on them ---------------


class _Stack:
    """The pieces of m piecewise polynomials, owner after owner and each in
    order: piece i lies on [lo[i], hi[i]], belongs to owner[i] and has the
    ascending coefficients c[i] (c is (pieces, k1, d), as in
    CircleFunction).  Kernels on a stack pay each NumPy call once for all
    owners; the reductions below give every owner the bits of a stack of
    its own."""

    def __init__(self, owner, lo, hi, c, m):
        self.owner, self.lo, self.hi, self.c, self.m = owner, lo, hi, c, m

    @functools.cached_property
    def ends(self):
        """Each owner's first piece, then the stack's size: owner o holds
        the pieces ends[o] to ends[o + 1] - 1."""
        return self.owner.searchsorted(np.arange(self.m + 1))

    @classmethod
    def of(cls, fns, k1=0):
        """The stack of CircleFunctions of one value dimension, their
        coefficient tables padded to k1 columns if narrower; a lone
        function that needs no padding is its own stack."""
        if not fns:
            raise ValueError("a stack needs at least one function, got none")
        if len(fns) == 1 and fns[0].coeffs.shape[1] >= k1:
            return fns[0]._stack
        return cls(np.arange(len(fns)).repeat([fn.npieces for fn in fns]),
                   np.concatenate([fn.breaks[:-1] for fn in fns]),
                   np.concatenate([fn.breaks[1:] for fn in fns]),
                   np.concatenate([_pad(fn.coeffs, k1) for fn in fns]),
                   len(fns))

    def recoef(self, c):
        """The same pieces with the coefficients c."""
        return _Stack(self.owner, self.lo, self.hi, c, self.m)

    def functions(self, space):
        """Each owner's CircleFunction, unchecked (a kernel's pieces run in
        order from 0 to 1); its breaks, its lo values and last hi, are a view
        from ends[o] + o of one read-only array that one np.insert builds."""
        ends = self.ends.tolist()
        breaks = np.insert(self.lo, ends[1:], self.hi[self.ends[1:] - 1])
        breaks.flags.writeable = False
        return [_circle(breaks[a + o:b + o + 1], self.c[a:b], space)
                for o, (a, b) in enumerate(zip(ends[:-1], ends[1:]))]

    def _table(self, vals, fill):
        """Each owner's vals in one row, in piece order after one column of
        fill and padded with it, and each piece's flat position before its
        value's."""
        width = 1 + (self.ends[1:] - self.ends[:-1]).max()
        at = (self.owner * width + np.arange(self.owner.size)
              - self.ends[self.owner])
        table = np.full((self.m * width,) + vals.shape[1:], fill)
        table[at + 1] = vals
        return table.reshape((self.m, width) + vals.shape[1:]), at

    def sums(self, vals):
        """Each owner's vals added in piece order from 0.0, as a loop of +=
        adds (``_running_sum`` per owner)."""
        table, _ = self._table(vals, 0.0)
        return table.cumsum(axis=1)[np.arange(self.m), np.diff(self.ends)]

    def sums_before(self, vals):
        """Each piece's running sum of its owner's earlier vals (rows of
        vals), added in piece order from 0.0."""
        table, at = self._table(vals, 0.0)
        return _rows(table.cumsum(axis=1).reshape(-1, *vals.shape[1:]), at)

    def place(self, rows, x):
        """The piece of its owner that piece_index finds for each x, searched
        from its row: the row itself unless x rounds onto the row's hi (the
        midpoint of a piece one ulp wide) or past an end (a quadrature
        node on a tiny piece)."""
        if ((x >= self.lo[rows]) & (x < self.hi[rows])).all():
            return rows
        own = self.owner[rows]
        first, last = self.ends[own], self.ends[own + 1] - 1
        while True:
            up = (rows < last) & (x >= self.hi[rows])
            down = (rows > first) & (x < self.lo[rows])
            if not (up.any() or down.any()):
                return rows
            rows = rows + up - down

    def maxima(self, vals):
        """Each owner's first largest value; a NaN value wins."""
        table, _ = self._table(vals, -np.inf)
        return table[np.arange(self.m), table.argmax(axis=1)]


def _merged(sets, m):
    """Per owner, the union of the breaks of several stacks with owners
    0..m-1: the owner, lo and hi of each merged piece and, per stack, the
    row of its piece at the merged piece's midpoint, as coeffs_on picks
    it.  Rows come from counting each stack's breaks up to the merged
    piece's start, never from comparing coordinates across owners.  The
    sorted columns are gathered once; the sort order and the sorted
    coordinates are released before the row counts, which read only the
    set ids, held in the smallest unsigned type that fits them."""
    k = len(sets)
    owner = np.concatenate([s.owner for s in sets] + [np.arange(m)] * k)
    x = np.concatenate([s.lo for s in sets]
                       + [s.hi[s.ends[1:] - 1] for s in sets])
    order = np.lexsort((x, owner))
    ids = (np.arange(2 * k) % k).astype(np.min_scalar_type(k - 1))
    setid = _rows(ids.repeat([s.lo.size for s in sets] + [m] * k), order)
    owner, x = _rows(owner, order), _rows(x, order)
    del order
    # the last of equal breaks starts a piece if the next break is its owner's
    at = ((owner[1:] == owner[:-1]) & (x[1:] != x[:-1])).nonzero()[0]
    owner, lo, hi = owner[at], x[at], x[at + 1]
    del x
    # a stack has ends[o] + o breaks before owner o: pieces plus one end
    rows = [(setid == j).cumsum()[at] - (owner + 1) for j in range(k)]
    mids = 0.5 * (lo + hi)
    if (mids < hi).all():  # then each midpoint lies in its row's piece
        return owner, lo, hi, rows
    return owner, lo, hi, [s.place(r, mids) for s, r in zip(sets, rows)]


def _weighted_sum(stacks, weights, m):
    """Per owner, the sum of weights[j] times stack j on the union of their
    breaks: each stack's rows padded to the widest table and added in order
    to zeros (so -0.0 terms sum to 0.0)."""
    owner, lo, hi, rows = _merged(stacks, m)
    k1 = max(s.c.shape[1] for s in stacks)
    acc = np.zeros((lo.size, k1, stacks[0].c.shape[2]))
    for s, w, r in zip(stacks, weights, rows, strict=True):
        acc += float(w) * _pad(_rows(s.c, r), k1)
    return _Stack(owner, lo, hi, acc, m)


def _rotated(fn, deltas):
    """The stack of fn precomposed with x -> (x + delta) mod 1, one owner
    per delta in [0, 1): each piece reindexed and Taylor-shifted by delta,
    or by delta - 1 if its source wraps past 1.  A zero delta keeps fn's
    pieces and coefficients."""
    deltas = np.asarray(deltas, dtype=float)
    ends = np.broadcast_to((0.0, 1.0), (deltas.size, 2))
    pts = np.sort(np.hstack([ends, (fn.breaks[:-1] - deltas[:, None]) % 1.0]))
    # pieces between consecutive distinct points: each row's np.unique
    piece = pts[:, 1:] > pts[:, :-1]
    owner, lo, hi = np.nonzero(piece)[0], pts[:, :-1][piece], pts[:, 1:][piece]
    # a midpoint may round onto hi; a kept piece is found from its lo
    y = np.where(deltas[owner] == 0.0, lo, 0.5 * (lo + hi) + deltas[owner])
    wrapped = y >= 1.0
    c = _rows(fn.coeffs, fn.piece_index(np.where(wrapped, y - 1.0, y)))
    moved = (deltas[owner] > 0.0).nonzero()[0]
    c[moved] = taylor_shift(_rows(c, moved),
                            np.column_stack((deltas, deltas - 1.0)).ravel(),
                            (2 * owner + wrapped)[moved])
    return _Stack(owner, lo, hi, c, deltas.size)


def _antiderivative(st):
    """Each owner's F with F' = f piecewise and F(0) = 0: every piece
    integrated from lo, less its value at lo, plus the running sum of its
    owner's earlier gains (column 0 starts at +0.0, so no zero's sign in
    that sum can show)."""
    k1 = st.c.shape[1]
    ad = np.zeros((st.lo.size, k1 + 1, st.c.shape[2]))
    ad[:, 1:] = st.c / np.arange(1, k1 + 1)[None, :, None]
    vall = _eval_rows(ad, st.lo)
    ad[:, 0] += st.sums_before(_eval_rows(ad, st.hi) - vall) - vall
    return st.recoef(ad)


def _circle(breaks, coeffs, space):
    """A CircleFunction without the constructor's checks, for the float
    breaks (rising from 0 to 1) and table that a kernel has just built."""
    fn = object.__new__(CircleFunction)
    fn.breaks, fn.coeffs, fn.space, fn._antideriv = breaks, coeffs, space, None
    return fn


class CircleFunction:
    """Piecewise polynomial on the circle [0, 1) with values in R^d."""

    def __init__(self, breaks, coeffs, space=None):
        self.space = space if space is not None else Circle()
        if not isinstance(self.space, Circle):
            raise ValueError("CircleFunction lives on the circle")
        b = np.asarray(breaks, dtype=float)
        c = np.asarray(coeffs, dtype=float)
        if b.ndim != 1 or b.size < 2 or b[0] != 0.0 or b[-1] != 1.0 or \
                not (b[1:] > b[:-1]).all():
            raise ValueError("breaks must increase strictly from 0 to 1")
        if c.ndim != 3 or c.shape[0] != b.size - 1 or c.shape[1] == 0:
            raise ValueError("coeffs must have shape (pieces, degree+1, d)")
        self.breaks = b
        self.coeffs = c
        self._antideriv = None

    # -- basic structure ---------------------------------------------------

    @property
    def d(self):
        return self.coeffs.shape[2]

    @property
    def degree(self):
        return self.coeffs.shape[1] - 1

    @property
    def npieces(self):
        return self.breaks.size - 1

    @functools.cached_property
    def _stack(self):
        """This function as a stack of one owner, for the piece kernels:
        views of its breaks and coefficients, and owners from np.zeros,
        whose pages reads leave unallocated."""
        return _Stack(np.zeros(self.npieces, dtype=np.intp), self.breaks[:-1],
                      self.breaks[1:], self.coeffs, 1)

    @classmethod
    def constant(cls, value, space=None):
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls([0.0, 1.0], v.reshape(1, 1, -1), space=space)

    @classmethod
    def piecewise_constant(cls, bounds, values, space=None):
        """Degree-0 function: values[i] on [bounds[i], bounds[i+1])."""
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        return cls(bounds, v[:, None, :], space=space)

    def piece_index(self, x):
        """The piece holding each x: the last piece starting at or below x,
        the first piece below 0 and the last one from 1 on."""
        return self.breaks[1:-1].searchsorted(x, side="right")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._eval_unwrapped(np.mod(x, 1.0))
        return out[0] if x.ndim == 0 else out

    def _eval_unwrapped(self, x):
        """Evaluate without periodic wrap; x = 1 uses the last piece."""
        x = np.asarray(x, dtype=float)
        x = x.reshape(x.shape or 1)  # a scalar as one point
        return _eval_rows(_rows(self.coeffs, self.piece_index(x)), x)

    # -- arithmetic ----------------------------------------------------------

    def coeffs_on(self, edges):
        """Coefficients of this function re-tabulated on refined edges."""
        mids = 0.5 * (edges[:-1] + edges[1:])
        return _rows(self.coeffs, self.piece_index(mids))

    def __add__(self, other):
        return _merge_sum([self, other], (1.0, 1.0))

    def __sub__(self, other):
        return _merge_sum([self, other], (1.0, -1.0))

    def __mul__(self, scalar):
        return CircleFunction(self.breaks, self.coeffs * float(scalar),
                              self.space)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- calculus ------------------------------------------------------------

    def antiderivative(self):
        """F with F' = f piecewise and F(0) = 0, continuous on [0, 1]."""
        if self._antideriv is None:
            self._antideriv = _antiderivative(self._stack).functions(
                self.space)[0]
        return self._antideriv

    def derivative(self):
        der = self.coeffs[:, 1:] * np.arange(1, self.coeffs.shape[1])[:, None]
        # a constant's derivative is one column of zeros
        return CircleFunction(self.breaks, _pad(der, 1), self.space)

    def integral(self):
        """Integral over the whole circle, an R^d vector."""
        return self.antiderivative()._eval_unwrapped(np.array([1.0]))[0]

    def mean(self):
        return self.integral() / self.space.mass

    # -- flow support ----------------------------------------------------------

    def rotate(self, delta):
        """Precompose with x -> (x + delta) mod 1.  Every piece is
        reindexed and Taylor-shifted in the global basis: exact in real
        arithmetic, rounded in floating point."""
        return self.rotations([delta])[0]

    def rotations(self, deltas):
        """[self.rotate(delta) for delta in deltas] from one piece rule and
        one Taylor shift over the distinct deltas mod 1, each with the bits
        of a call on it alone; self where delta mod 1 is 0."""
        deltas = np.asarray(deltas, dtype=float)
        bad = deltas[~np.isfinite(deltas)]
        if bad.size:
            raise ValueError(f"rotation delta {bad[0]} must be finite")
        uniq, inv = np.unique(deltas % 1.0, return_inverse=True)
        moved = uniq[uniq != 0.0]
        out = ([self] * (uniq.size - moved.size)
               + _rotated(self, moved).functions(self.space))
        return [out[i] for i in inv]

    # -- diagnostics -------------------------------------------------------------

    def is_continuous(self):
        """Continuity across interior breakpoints and the wrap point."""
        left = _eval_rows(self.coeffs, self.breaks[1:])
        right = self._eval_unwrapped(np.r_[self.breaks[1:-1], 0.0])
        return float(np.abs(left - right).max()) <= _CONTINUITY_TOL

    def __repr__(self):
        return (f"CircleFunction({self.npieces} pieces, degree "
                f"{self.degree}, d={self.d})")


def _pad(coeffs, k1):
    if coeffs.shape[1] >= k1:
        return coeffs
    pad = np.zeros((coeffs.shape[0], k1 - coeffs.shape[1], coeffs.shape[2]))
    return np.concatenate([coeffs, pad], axis=1)


def merge_sum(funcs, weights):
    """Weighted sum of circle functions with one breakpoint merge."""
    return _merge_sum(list(funcs), weights)


def _merge_sum(funcs, weights):
    """merge_sum's body; ``+`` and ``-`` call it by this name, which the
    benchmark's layer tracer does not wrap.  One weight per operand, each a
    circle function of the first one's space and value dimension."""
    if not funcs:
        raise ValueError("a sum needs at least one function, got none")
    first = funcs[0]
    for f in funcs:
        if not isinstance(f, CircleFunction) or f.space != first.space:
            raise ValueError("operands must live on the same circle space")
        if f.d != first.d:
            raise ValueError("value dimensions differ")
    return _weighted_sum([f._stack for f in funcs], weights,
                         1).functions(first.space)[0]


class AtomFunction:
    """Vector-valued function on a discrete or product space."""

    def __init__(self, space, values):
        if not isinstance(space, Atoms):
            raise ValueError("AtomFunction needs an atomic space")
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != space.natoms:
            raise ValueError(f"expected {space.natoms} atom values")
        self.space = space
        self.values = v

    @property
    def d(self):
        return self.values.shape[1]

    @classmethod
    def constant(cls, value, space):
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(space, np.tile(v, (space.natoms, 1)))

    def __call__(self, atoms):
        return self.values[np.asarray(atoms, dtype=int)]

    def _other_values(self, other):
        if self.space != other.space:
            raise ValueError("operands live on different spaces")
        if self.d != other.d:
            raise ValueError("value dimensions differ")
        return other.values

    def __add__(self, other):
        return AtomFunction(self.space, self.values + self._other_values(other))

    def __sub__(self, other):
        return AtomFunction(self.space, self.values - self._other_values(other))

    def __mul__(self, scalar):
        return AtomFunction(self.space, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def permute(self, perm):
        """Composition with an atom map: result(a) = self(perm[a])."""
        return AtomFunction(self.space, self.values[np.asarray(perm, int)])

    def integral(self):
        return self.space.weights @ self.values

    def mean(self):
        return self.integral() / self.space.mass

    def __repr__(self):
        return f"AtomFunction({self.space.natoms} atoms, d={self.d})"


# -- builtin test functions ------------------------------------------------------


def _linear_pieces(d, amplitudes, phases, kinks, line, space):
    """Component i, of amplitude a and phase p, kinked at (k - p) mod 1 for
    each k of kinks and with the (intercept, slope) line(a, p, mids,
    floor(mids + p)) on the pieces around mids."""
    amplitudes = [1.0] * d if amplitudes is None else list(amplitudes)
    phases = [0.0] * d if phases is None else list(phases)
    edges = np.unique(np.concatenate(
        [[0.0, 1.0], [(k - p) % 1.0 for p in phases for k in kinks]]))
    coeffs = np.zeros((edges.size - 1, 2, d))
    mids = 0.5 * (edges[:-1] + edges[1:])
    for i, (a, p) in enumerate(zip(amplitudes, phases)):
        coeffs[:, 0, i], coeffs[:, 1, i] = line(a, p, mids, np.floor(mids + p))
    return CircleFunction(edges, coeffs, space=space)


def sawtooth(d=1, amplitudes=None, phases=None, space=None):
    """Mean-zero sawtooth per component: a * (frac(x + phase) - 1/2)."""
    # frac(x + p) = x + p - floor(mid + p) on each piece
    return _linear_pieces(d, amplitudes, phases, [0.0], lambda a, p, x, off:
                          (a * (p - off - 0.5), a), space)


def hat(d=1, amplitudes=None, phases=None, space=None):
    """Mean-zero continuous tent per component, slope +-2a, period 1."""
    def line(a, p, x, off):
        rising = (x + p) % 1.0 < 0.5
        # rising: 2(x + p - off) - 1/2 ... values in [-1/2, 1/2], mean zero
        return (np.where(rising, a * (2.0 * (p - off) - 0.5),
                         a * (1.5 - 2.0 * (p - off))),
                np.where(rising, 2.0 * a, -2.0 * a))
    return _linear_pieces(d, amplitudes, phases, [0.0, 0.5], line, space)


def _periodic_spline(x, y):
    """Periodic cubic interpolant of samples y (n, d) at knots x (n,), with
    y[-1] equal to y[0] and n >= 4: the (n - 1, 4, d) ascending coefficients
    of each piece in its local variable x - x[i].

    The arithmetic is SciPy's CubicSpline(x, y, bc_type="periodic") step
    for step, so the two agree to the last bit wherever LAPACK's gtsv swaps
    no rows.  It swaps none on uniform knots, the only ones from_smooth
    passes: row i then has diagonal 4h and off-diagonals h.  On other knots
    the two agree only to rounding.
    """
    if not np.all(np.isfinite(y)):
        raise ValueError("spline samples must be finite")
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    # the n - 1 knot slopes s[0..n-2] (s[n-1] = s[0]) solve a cyclic
    # tridiagonal system; its first m = n - 2 rows without the last unknown
    # are tridiagonal, with that unknown's column as a second right-hand side
    m = x.size - 2
    i = np.arange(m + 1)
    b = 3 * (dx[i, None] * slope[i - 1] + dx[i - 1, None] * slope[i])
    rhs = np.zeros((m, y.shape[1] + 1))
    rhs[:, :-1] = b[:m]
    rhs[0, -1] = -dx[0]
    rhs[-1, -1] = -dx[-3]
    diag = (2 * (dx[i[:m] - 1] + dx[:m])).tolist()
    upper = dx[i[:m - 1] - 1].tolist()    # row 0: dx[-1]; row i: dx[i - 1]
    lower = dx[1:m].tolist()              # row i + 1: dx[i + 1]
    # gtsv without row swaps: forward elimination, then back substitution
    # (the eliminated subdiagonal's zero terms are left out)
    for k in range(m - 1):
        fact = lower[k] / diag[k]
        diag[k + 1] -= fact * upper[k]
        rhs[k + 1] -= fact * rhs[k]
    rhs[-1] /= diag[-1]
    for k in range(m - 2, -1, -1):
        rhs[k] = (rhs[k] - upper[k] * rhs[k + 1]) / diag[k]
    s1, s2 = rhs[:, :-1], rhs[:, -1:]
    # the dropped unknown from the last row, then all slopes
    last = ((b[m] - dx[-2] * s1[0] - dx[-1] * s1[-1])
            / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    s = np.empty_like(y)
    s[:-2] = s1 + last * s2
    s[-2] = last
    s[-1] = s[0]
    t = (s[:-1] + s[1:] - 2 * slope) / dx[:, None]
    c = np.stack((t / dx[:, None], (slope - s[:-1]) / dx[:, None] - t,
                  s[:-1], y[:-1]))
    # a reversed view of SciPy's descending layout, not a copy: einsum in
    # taylor_shift adds in memory order, so a copy moves last bits
    return np.transpose(c, (1, 0, 2))[:, ::-1, :]


def from_smooth(generator, d, target=1e-8, space=None):
    """Sample a smooth 1-periodic generator into a piecewise cubic.

    Doubles the count of uniform knots from 16 until the sup error against
    the generator at a dense probe grid is below ``target``, and raises if
    it is not by ``_MAX_KNOTS`` (a NaN error never meets the target).  A
    non-finite sample at a knot raises ``ValueError``.
    """
    n = 16
    while True:
        knots = np.linspace(0.0, 1.0, n + 1)
        vals = np.atleast_2d(np.asarray(
            [np.atleast_1d(generator(float(x))) for x in knots], dtype=float))
        vals[-1] = vals[0]
        coeffs = taylor_shift(_periodic_spline(knots, vals), -knots[:-1])
        f = CircleFunction(knots, coeffs, space=space)
        probe = np.linspace(0.0, 1.0, 8 * n, endpoint=False)
        exact = np.asarray([np.atleast_1d(generator(float(x)))
                            for x in probe], dtype=float)
        err = float(np.abs(f(probe) - exact).max())
        if err <= target:
            return f
        if n >= _MAX_KNOTS:
            raise ValueError(
                f"smooth sampler missed target {target} (err {err:.2e})")
        n *= 2


def cascade(levels=14, ramp_exp=20, space=None):
    """Continuous profile whose dyadic cell averages lose half their
    L1 distance to the profile with every refinement level.

    The value pattern is a weighted sum of +-1 dyadic sign waves (weight
    2^-k at scale k); jumps are replaced by ramps of width 2^-ramp_exp to
    keep the function Lipschitz.  Exact halving holds for levels up to
    ``levels - 2`` with relative drift well under one percent.
    """
    ncell = 2 ** (levels + 1)
    idx = np.arange(ncell)
    vals = np.zeros(ncell)
    for k in range(levels + 1):
        bit = (idx >> (levels - k)) & 1
        vals += (2.0 ** -k) * np.where(bit == 0, 1.0, -1.0)
    wr = 2.0 ** (-ramp_exp)
    w = 1.0 / ncell
    if wr >= w:
        raise ValueError("ramp width must stay below the cell width")
    # a cell where the value changes opens with the ramp piece [b, b + wr)
    # from the previous value; every cell then holds its flat piece
    b = idx * w
    prev = np.roll(vals, 1)
    ramp = prev != vals
    flat = (1 + ramp).cumsum() - 1
    edges = np.empty(flat[-1] + 2)
    coeffs = np.zeros((flat[-1] + 1, 2, 1))
    edges[flat] = np.where(ramp, b + wr, b)
    coeffs[flat, 0, 0] = vals
    slope = (vals[ramp] - prev[ramp]) / wr
    edges[flat[ramp] - 1] = b[ramp]
    coeffs[flat[ramp] - 1, :, 0] = np.column_stack(
        (prev[ramp] - slope * b[ramp], slope))
    edges[-1] = 1.0
    return CircleFunction(edges, coeffs, space=space)


def harmonic_generator(d=1, amplitudes=None, phases=None, harmonic=1):
    """Smooth periodic generator: a_i * sin(2 pi k (x + phase_i))."""
    amplitudes = [1.0] * d if amplitudes is None else list(amplitudes)
    phases = [0.0] * d if phases is None else list(phases)

    def gen(x):
        return np.array([a * math.sin(2.0 * math.pi * harmonic * (x + p))
                         for a, p in zip(amplitudes, phases)])

    return gen
