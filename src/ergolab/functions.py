"""Vector-valued functions with exact piecewise-polynomial arithmetic.

Circle functions are piecewise polynomials on [0, 1) stored in the global
monomial basis as a dense coefficient array of shape (pieces, degree+1, d).
All structural operations (sums, antiderivatives, rotations, definite
integrals) are closed-form; only norms of genuinely non-polynomial
compositions fall back to quadrature (see fields.py).

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
    return np.einsum("...kj,...jd->...kd", m[which], c)


def _rotated_pieces(breaks, deltas):
    """Each delta's pieces of a function on breaks precomposed with
    x -> (x + delta) mod 1, delta in [0, 1): owner, lo, hi and source piece,
    the index into shifts (delta_0, delta_0 - 1, delta_1, ...; delta - 1 if
    the source wraps past 1), and shifts.  A zero delta keeps the pieces."""
    deltas = np.asarray(deltas, dtype=float)
    ends = np.broadcast_to((0.0, 1.0), (deltas.size, 2))
    pts = np.sort(np.hstack([ends, (breaks[:-1] - deltas[:, None]) % 1.0]))
    # pieces between consecutive distinct points: each row's np.unique
    piece = pts[:, 1:] > pts[:, :-1]
    owner, lo, hi = np.nonzero(piece)[0], pts[:, :-1][piece], pts[:, 1:][piece]
    # a midpoint may round onto hi; a kept piece is found from its lo
    y = np.where(deltas[owner] == 0.0, lo, 0.5 * (lo + hi) + deltas[owner])
    wrapped = y >= 1.0
    y = np.where(wrapped, y - 1.0, y)
    src = np.searchsorted(breaks[1:-1], y, side="right")
    shifts = np.column_stack((deltas, deltas - 1.0)).ravel()
    return owner, lo, hi, src, 2 * owner + wrapped, shifts


class CircleFunction:
    """Piecewise polynomial on the circle [0, 1) with values in R^d."""

    def __init__(self, breaks, coeffs, space=None):
        self.space = space if space is not None else Circle()
        if not isinstance(self.space, Circle):
            raise ValueError("CircleFunction lives on the circle")
        b = np.asarray(breaks, dtype=float)
        c = np.asarray(coeffs, dtype=float)
        if b.ndim != 1 or b[0] != 0.0 or b[-1] != 1.0 or \
                not np.all(np.diff(b) > 0):
            raise ValueError("breaks must increase strictly from 0 to 1")
        if c.ndim != 3 or c.shape[0] != b.size - 1:
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
        return np.searchsorted(self.breaks[1:-1], x, side="right")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xm = np.mod(np.atleast_1d(x), 1.0)
        out = self._eval_unwrapped(xm)
        return out[0] if scalar else out

    def _eval_unwrapped(self, x):
        """Evaluate without periodic wrap; x = 1 uses the last piece."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = self.piece_index(x)
        powers = x[:, None] ** np.arange(self.coeffs.shape[1])
        return np.einsum("nk,nkd->nd", powers, self.coeffs[idx])

    # -- arithmetic ----------------------------------------------------------

    def coeffs_on(self, edges):
        """Coefficients of this function re-tabulated on refined edges."""
        mids = 0.5 * (edges[:-1] + edges[1:])
        return self.coeffs[self.piece_index(mids)]

    def __add__(self, other):
        return _merge_sum([self, other], (1.0, 1.0))

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        return CircleFunction(self.breaks, self.coeffs * float(scalar),
                              self.space)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- calculus ------------------------------------------------------------

    def antiderivative(self):
        """F with F' = f piecewise and F(0) = 0, continuous on [0, 1]."""
        if self._antideriv is not None:
            return self._antideriv
        k1 = self.coeffs.shape[1]
        ad = np.zeros((self.npieces, k1 + 1, self.d))
        ad[:, 1:] = self.coeffs / np.arange(1, k1 + 1)[None, :, None]
        powl = self.breaks[:-1, None] ** np.arange(k1 + 1)
        powr = self.breaks[1:, None] ** np.arange(k1 + 1)
        vall = np.einsum("pk,pkd->pd", powl, ad)
        valr = np.einsum("pk,pkd->pd", powr, ad)
        gains = valr - vall
        offsets = np.concatenate(
            [np.zeros((1, self.d)), np.cumsum(gains, axis=0)[:-1]], axis=0)
        ad[:, 0] += offsets - vall
        self._antideriv = CircleFunction(self.breaks, ad, self.space)
        return self._antideriv

    def derivative(self):
        k1 = self.coeffs.shape[1]
        if k1 == 1:
            return CircleFunction(self.breaks,
                                  np.zeros((self.npieces, 1, self.d)),
                                  self.space)
        der = self.coeffs[:, 1:] * np.arange(1, k1)[None, :, None]
        return CircleFunction(self.breaks, der, self.space)

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
        delta = float(delta) % 1.0
        if delta == 0.0:
            return self
        _, lo, hi, src, which, shifts = _rotated_pieces(self.breaks, [delta])
        return CircleFunction(np.append(lo, hi[-1]),
                              taylor_shift(self.coeffs[src], shifts, which),
                              self.space)

    # -- diagnostics -------------------------------------------------------------

    def is_continuous(self):
        """Continuity across interior breakpoints and the wrap point."""
        pts = self.breaks[1:]
        left = np.einsum("pk,pkd->pd",
                         pts[:, None] ** np.arange(self.coeffs.shape[1]),
                         self.coeffs)
        right = np.vstack([self._eval_unwrapped(self.breaks[1:-1]),
                           self._eval_unwrapped(np.array([0.0]))])
        return float(np.max(np.abs(left - right))) <= _CONTINUITY_TOL

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
    first = funcs[0]
    for f in funcs:
        if not isinstance(f, CircleFunction) or f.space != first.space:
            raise ValueError("operands must live on the same circle space")
        if f.d != first.d:
            raise ValueError("value dimensions differ")
    edges = np.unique(np.concatenate([f.breaks for f in funcs]))
    k1 = max(f.coeffs.shape[1] for f in funcs)
    acc = np.zeros((edges.size - 1, k1, first.d))
    for f, w in zip(funcs, weights, strict=True):
        acc += float(w) * _pad(f.coeffs_on(edges), k1)
    return CircleFunction(edges, acc, first.space)


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


def _component_breaks(phases):
    pts = [(-p) % 1.0 for p in phases]
    return pts


def sawtooth(d=1, amplitudes=None, phases=None, space=None):
    """Mean-zero sawtooth per component: a * (frac(x + phase) - 1/2)."""
    amplitudes = [1.0] * d if amplitudes is None else list(amplitudes)
    phases = [0.0] * d if phases is None else list(phases)
    edges = np.unique(np.concatenate(
        [[0.0, 1.0], _component_breaks(phases)]))
    coeffs = np.zeros((edges.size - 1, 2, d))
    mids = 0.5 * (edges[:-1] + edges[1:])
    for i, (a, p) in enumerate(zip(amplitudes, phases)):
        # frac(x + p) = x + p - floor(mid + p) on each piece
        off = np.floor(mids + p)
        coeffs[:, 0, i] = a * (p - off - 0.5)
        coeffs[:, 1, i] = a
    return CircleFunction(edges, coeffs, space=space)


def hat(d=1, amplitudes=None, phases=None, space=None):
    """Mean-zero continuous tent per component, slope +-2a, period 1."""
    amplitudes = [1.0] * d if amplitudes is None else list(amplitudes)
    phases = [0.0] * d if phases is None else list(phases)
    pts = []
    for p in phases:
        pts.extend([(-p) % 1.0, (0.5 - p) % 1.0])
    edges = np.unique(np.concatenate([[0.0, 1.0], pts]))
    coeffs = np.zeros((edges.size - 1, 2, d))
    mids = 0.5 * (edges[:-1] + edges[1:])
    for i, (a, p) in enumerate(zip(amplitudes, phases)):
        u = (mids + p) % 1.0
        rising = u < 0.5
        off = np.floor(mids + p)
        # rising: 2(x + p - off) - 1/2 ... values in [-1/2, 1/2], mean zero
        coeffs[:, 0, i] = np.where(rising,
                                   a * (2.0 * (p - off) - 0.5),
                                   a * (1.5 - 2.0 * (p - off)))
        coeffs[:, 1, i] = np.where(rising, 2.0 * a, -2.0 * a)
    return CircleFunction(edges, coeffs, space=space)


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
        err = float(np.max(np.abs(f(probe) - exact)))
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
    flat = np.cumsum(1 + ramp) - 1
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
