"""Scalar fields: pointwise norms of vector functions and their calculus.

A field is a nonnegative scalar function on the underlying space.  Three
circle representations cover everything the lab produces:

* PolyField     exact piecewise polynomial (absolute values, max and sum
                norms, conditional expectations, grid envelopes)
* SqrtPolyField euclidean norm of a vector piecewise polynomial, d >= 2;
                integrals go through cached per-piece quadrature
* GenericField  evaluable closure with known kink locations, used for
                time averages of non-polynomial fields

Atomic spaces use AtomField and stay exact throughout.  Quadrature is
Gauss-Legendre with node doubling per piece and bisection fallback.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import CircleFunction, AtomFunction, _pad
from .spaces import VectorNorm

_GL_STABILITY = 1e-11
_ROOT_IMAG_TOL = 1e-9
_gl_cache = {}


def _gl_nodes(n):
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


def gl_integrate(fn, lo, hi, tol=_GL_STABILITY, depth=0):
    """Adaptive Gauss-Legendre on [lo, hi] for a vectorized integrand."""
    width = hi - lo
    if width <= 0.0:
        return 0.0
    if width < 1e-15:
        return width * float(fn(np.array([0.5 * (lo + hi)]))[0])
    prev = None
    for n in (8, 16, 32, 64, 128, 256):
        nodes, wts = _gl_nodes(n)
        x = 0.5 * width * nodes + 0.5 * (lo + hi)
        val = 0.5 * width * float(wts @ np.asarray(fn(x), dtype=float))
        if prev is not None and abs(val - prev) <= max(tol, tol * abs(val)):
            return val
        prev = val
    if depth >= 24:
        return prev
    mid = 0.5 * (lo + hi)
    return (gl_integrate(fn, lo, mid, tol, depth + 1)
            + gl_integrate(fn, mid, hi, tol, depth + 1))


def real_roots_in(coef_ascending, lo, hi, margin=1e-13):
    """Real roots of a polynomial strictly inside (lo, hi)."""
    c = np.trim_zeros(np.asarray(coef_ascending, dtype=float), "b")
    if c.size <= 1:
        return np.empty(0)
    r = np.roots(c[::-1])
    r = r[np.abs(r.imag) <= _ROOT_IMAG_TOL].real
    r = r[(r > lo + margin) & (r < hi - margin)]
    return np.unique(r)


def _split_at_roots(fn):
    """Refine a scalar CircleFunction's breaks at its interior zeros."""
    k1 = fn.coeffs.shape[1]
    if k1 == 1:
        return fn
    if k1 == 2:
        c0 = fn.coeffs[:, 0, 0]
        c1 = fn.coeffs[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -c0 / c1
        ok = ((np.abs(c1) > 1e-300)
              & (r > fn.breaks[:-1] + 1e-13) & (r < fn.breaks[1:] - 1e-13))
        if not np.any(ok):
            return fn
        edges = np.unique(np.concatenate([fn.breaks, r[ok]]))
    else:
        cuts = [fn.breaks]
        for i in range(fn.npieces):
            r = real_roots_in(fn.coeffs[i, :, 0],
                              fn.breaks[i], fn.breaks[i + 1])
            if r.size:
                cuts.append(r)
        edges = np.unique(np.concatenate(cuts))
    return CircleFunction(edges, fn.coeffs_on(edges), fn.space)


def abs_poly(fn):
    """Exact |f| for a scalar CircleFunction, splitting at sign changes."""
    if fn.d != 1:
        raise ValueError("abs_poly expects a scalar function")
    split = _split_at_roots(fn)
    mids = 0.5 * (split.breaks[:-1] + split.breaks[1:])
    signs = np.where(split._eval_unwrapped(mids)[:, 0] < 0.0, -1.0, 1.0)
    return CircleFunction(split.breaks, split.coeffs * signs[:, None, None],
                          fn.space)


def _poly_pow(coeffs_piece, k):
    out = np.array([1.0])
    for _ in range(k):
        out = np.convolve(out, coeffs_piece)
    return out


class PolyField:
    """Nonnegative piecewise-polynomial scalar field on the circle."""

    kind = "poly"

    def __init__(self, fn):
        if fn.d != 1:
            raise ValueError("PolyField wraps scalar functions")
        self.fn = fn
        self.space = fn.space

    @property
    def breaks(self):
        return self.fn.breaks

    def eval(self, x):
        return self.fn(np.asarray(x, dtype=float))[..., 0]

    def integral(self):
        return float(self.fn.integral()[0])

    def cumint(self, y):
        return self.fn.antiderivative()._eval_unwrapped(
            np.atleast_1d(np.asarray(y, dtype=float)))[:, 0]

    def cell_averages(self, partition):
        bounds = np.asarray(partition.cell_bounds_float())
        vals = self.cumint(bounds)
        return np.diff(vals) / np.diff(bounds)

    def sup(self):
        best = -math.inf
        b = self.fn.breaks
        k1 = self.fn.coeffs.shape[1]
        der = self.fn.coeffs[:, 1:, 0] * np.arange(1, k1) if k1 > 1 else None
        for i in range(self.fn.npieces):
            cand = [b[i], b[i + 1]]
            if der is not None:
                cand.extend(real_roots_in(der[i], b[i], b[i + 1]).tolist())
            xs = np.asarray(cand)
            vals = xs[:, None] ** np.arange(k1) @ self.fn.coeffs[i, :, 0]
            best = max(best, float(np.max(vals)))
        return best

    def lp(self, p):
        p = float(p)
        if p == 1.0:
            return self.integral()
        if p.is_integer() and p <= 16:
            k = int(p)
            total = 0.0
            b = self.fn.breaks
            for i in range(self.fn.npieces):
                pw = _poly_pow(self.fn.coeffs[i, :, 0], k)
                ad = pw / np.arange(1, pw.size + 1)
                total += float(ad @ (b[i + 1] ** np.arange(1, pw.size + 1)
                                     - b[i] ** np.arange(1, pw.size + 1)))
            return total ** (1.0 / p)
        total = 0.0
        b = self.fn.breaks
        for i in range(self.fn.npieces):
            total += gl_integrate(
                lambda x: np.abs(self.fn(x)[:, 0]) ** p, b[i], b[i + 1])
        return total ** (1.0 / p)

    def superlevel_measure(self, lam):
        """Exact Lebesgue measure of {x : field(x) >= lam}."""
        lam = float(lam)
        total = 0.0
        b = self.fn.breaks
        for i in range(self.fn.npieces):
            shifted = self.fn.coeffs[i, :, 0].copy()
            shifted[0] -= lam
            cuts = np.concatenate(
                [[b[i]], real_roots_in(shifted, b[i], b[i + 1]), [b[i + 1]]])
            mids = 0.5 * (cuts[:-1] + cuts[1:])
            above = self.fn(mids)[:, 0] >= lam
            total += float(np.sum(np.diff(cuts)[above]))
        return total


class SqrtPolyField:
    """Euclidean norm sqrt(sum f_i^2) of a vector piecewise polynomial."""

    kind = "sqrt"

    def __init__(self, q):
        # q: scalar piecewise polynomial, nonnegative, breaks split at zeros
        self.q = _split_at_roots(q)
        self.space = q.space
        self._piece_ints = None

    @classmethod
    def from_vector(cls, fn):
        k1 = fn.coeffs.shape[1]
        qc = np.zeros((fn.npieces, 2 * k1 - 1, 1))
        for i in range(fn.npieces):
            acc = np.zeros(2 * k1 - 1)
            for j in range(fn.d):
                acc += np.convolve(fn.coeffs[i, :, j], fn.coeffs[i, :, j])
            qc[i, :, 0] = acc
        return cls(CircleFunction(fn.breaks, qc, fn.space))

    @property
    def breaks(self):
        return self.q.breaks

    def eval(self, x):
        return np.sqrt(np.maximum(self.q(np.asarray(x, dtype=float))[..., 0],
                                  0.0))

    def _piece_integrals(self):
        if self._piece_ints is None:
            b = self.q.breaks
            vals = [gl_integrate(lambda x: self.eval(x), b[i], b[i + 1])
                    for i in range(self.q.npieces)]
            self._piece_ints = np.concatenate([[0.0], np.cumsum(vals)])
        return self._piece_ints

    def integral(self):
        return float(self._piece_integrals()[-1])

    def cumint(self, y):
        cum = self._piece_integrals()
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.empty(y.size)
        for n, yy in enumerate(y):
            yy = min(max(yy, 0.0), 1.0)
            i = int(np.clip(np.searchsorted(self.q.breaks, yy, "right") - 1,
                            0, self.q.npieces - 1))
            out[n] = cum[i] + gl_integrate(lambda x: self.eval(x),
                                           self.q.breaks[i], yy)
        return out

    def cell_averages(self, partition):
        bounds = np.asarray(partition.cell_bounds_float())
        vals = self.cumint(bounds)
        return np.diff(vals) / np.diff(bounds)

    def sup(self):
        return math.sqrt(max(PolyField(self.q).sup(), 0.0))

    def superlevel_measure(self, lam):
        lam = float(lam)
        if lam < 0.0:
            return self.space.mass
        return PolyField(self.q).superlevel_measure(lam * lam)

    def lp(self, p):
        p = float(p)
        if p == 2.0:
            return math.sqrt(max(float(self.q.integral()[0]), 0.0))
        if p == 1.0:
            return self.integral()
        b = self.q.breaks
        total = sum(gl_integrate(lambda x: self.eval(x) ** p,
                                 b[i], b[i + 1])
                    for i in range(self.q.npieces))
        return total ** (1.0 / p)


class GenericField:
    """Evaluable scalar field with known kink set; quadrature calculus."""

    kind = "generic"

    def __init__(self, space, evaluator, breaks, deriv_bound=None,
                 exact_integral=None):
        self.space = space
        self._eval = evaluator
        self.breaks = np.unique(np.concatenate(
            [[0.0, 1.0], np.asarray(breaks, dtype=float)]))
        self.deriv_bound = deriv_bound
        self._exact_integral = exact_integral

    def eval(self, x):
        return np.asarray(self._eval(np.atleast_1d(
            np.asarray(x, dtype=float))), dtype=float)

    def interval_integral(self, lo, hi):
        inner = self.breaks[(self.breaks > lo) & (self.breaks < hi)]
        pts = np.concatenate([[lo], inner, [hi]])
        return sum(gl_integrate(self.eval, pts[i], pts[i + 1])
                   for i in range(pts.size - 1))

    def integral(self):
        if self._exact_integral is not None:
            return float(self._exact_integral)
        return self.interval_integral(0.0, 1.0)

    def cell_averages(self, partition):
        bounds = np.asarray(partition.cell_bounds_float())
        return np.array([
            self.interval_integral(bounds[i], bounds[i + 1])
            / (bounds[i + 1] - bounds[i]) for i in range(bounds.size - 1)])

    def sup(self, tol=1e-9):
        best = 0.0
        gap = math.inf
        n = 64
        while gap > tol and n <= 2 ** 22:
            best = 0.0
            gap = 0.0
            for i in range(self.breaks.size - 1):
                lo, hi = self.breaks[i], self.breaks[i + 1]
                xs = np.linspace(lo, hi, n + 1)
                best = max(best, float(np.max(self.eval(xs))))
                if self.deriv_bound is not None:
                    gap = max(gap, self.deriv_bound * (hi - lo) / (2 * n))
                else:
                    gap = 0.0 if n >= 2 ** 14 else math.inf
            n *= 4
        return best

    def lp(self, p):
        p = float(p)
        if p == 1.0:
            return self.integral()
        pts = self.breaks
        total = sum(gl_integrate(lambda x: self.eval(x) ** p,
                                 pts[i], pts[i + 1])
                    for i in range(pts.size - 1))
        return total ** (1.0 / p)


class AtomField:
    """Nonnegative scalar field on a discrete or product space."""

    kind = "atom"

    def __init__(self, space, values):
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.size != space.natoms:
            raise ValueError(f"expected {space.natoms} atom values")
        self.space = space
        self.values = v

    def eval(self, atoms):
        return self.values[np.asarray(atoms, dtype=int)]

    def integral(self):
        return float(self.space.weights @ self.values)

    def cell_averages(self, partition):
        out = np.empty(partition.ncells)
        for i, cell in enumerate(partition.cells):
            idx = np.asarray(cell, dtype=int)
            w = self.space.weights[idx]
            out[i] = (w @ self.values[idx]) / w.sum()
        return out

    def sup(self):
        return float(np.max(self.values))

    def lp(self, p):
        p = float(p)
        return float(self.space.weights @ np.abs(self.values) ** p) ** (1.0 / p)

    def superlevel_measure(self, lam):
        return float(np.sum(self.space.weights[self.values >= float(lam)]))

    def permute(self, perm):
        return AtomField(self.space, self.values[np.asarray(perm, int)])


# -- envelopes ---------------------------------------------------------------


def upper_envelope(fields):
    """Exact pointwise maximum of PolyFields, as a PolyField.

    Within each merged interval the crossing points of all member pairs are
    located, so every output piece is a single member's polynomial.
    """
    fields = list(fields)
    if all(isinstance(f, AtomField) for f in fields):
        return AtomField(fields[0].space,
                         np.maximum.reduce([f.values for f in fields]))
    if not all(isinstance(f, PolyField) for f in fields):
        raise ValueError("upper_envelope needs polynomial fields")
    fns = [f.fn for f in fields]
    space = fns[0].space
    k1 = max(fn.coeffs.shape[1] for fn in fns)
    edges = np.unique(np.concatenate([fn.breaks for fn in fns]))
    tabs = np.stack([_pad(fn.coeffs_on(edges), k1)[:, :, 0] for fn in fns])
    m, ne = tabs.shape[0], edges.size - 1

    if k1 == 1:
        choice = np.argmax(tabs[:, :, 0], axis=0)
        coeffs = tabs[choice, np.arange(ne)][:, :, None]
        return PolyField(CircleFunction(edges, coeffs, space))

    cuts_per = [[] for _ in range(ne)]
    lo = edges[:-1][None, :]
    hi = edges[1:][None, :]
    if k1 == 2:
        ii, jj = np.triu_indices(m, k=1)
        c0 = tabs[ii, :, 0] - tabs[jj, :, 0]
        c1 = tabs[ii, :, 1] - tabs[jj, :, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = -c0 / c1
        ok = (np.abs(c1) > 1e-14) & (roots > lo + 1e-13) & (roots < hi - 1e-13)
        for pi, ei in zip(*np.nonzero(ok)):
            cuts_per[ei].append(roots[pi, ei])
    elif k1 == 3:
        ii, jj = np.triu_indices(m, k=1)
        c0 = tabs[ii, :, 0] - tabs[jj, :, 0]
        c1 = tabs[ii, :, 1] - tabs[jj, :, 1]
        c2 = tabs[ii, :, 2] - tabs[jj, :, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = -c0 / c1
            disc = c1 * c1 - 4.0 * c2 * c0
            sq = np.sqrt(np.maximum(disc, 0.0))
            qa = (-c1 - np.sign(c1 + (c1 == 0.0)) * sq) / 2.0
            r1 = np.where(np.abs(qa) > 0.0, qa / c2, np.inf)
            r2 = np.where(np.abs(qa) > 0.0, c0 / qa, np.inf)
        quad = np.abs(c2) > 1e-14
        for roots, valid in ((lin, ~quad & (np.abs(c1) > 1e-14)),
                             (r1, quad & (disc > 0.0)),
                             (r2, quad & (disc > 0.0))):
            ok = valid & (roots > lo + 1e-13) & (roots < hi - 1e-13)
            for pi, ei in zip(*np.nonzero(ok)):
                cuts_per[ei].append(roots[pi, ei])
    else:
        for e in range(ne):
            for a in range(m):
                for b in range(a + 1, m):
                    r = real_roots_in(tabs[a, e] - tabs[b, e],
                                      edges[e], edges[e + 1])
                    cuts_per[e].extend(r.tolist())

    out_edges = [0.0]
    out_coeffs = []
    for e in range(ne):
        pts = np.unique(np.concatenate(
            [[edges[e], edges[e + 1]], np.asarray(cuts_per[e], dtype=float)]))
        mids = 0.5 * (pts[:-1] + pts[1:])
        vals = tabs[:, e, :] @ (mids[:, None] ** np.arange(k1)).T
        pick = np.argmax(vals, axis=0)
        for s in range(pts.size - 1):
            out_edges.append(pts[s + 1])
            out_coeffs.append(tabs[pick[s], e])
    coeffs = np.asarray(out_coeffs)[:, :, None]
    return PolyField(CircleFunction(np.asarray(out_edges), coeffs, space))


def grid_sup_field(fields):
    """Pointwise supremum of a family of norm fields, kept exact.

    Square-root fields reduce through their radicands: sup_i sqrt(q_i)
    equals sqrt of the polynomial upper envelope of the q_i.
    """
    fields = list(fields)
    if len(fields) == 1:
        return fields[0]
    if all(isinstance(f, AtomField) for f in fields):
        return AtomField(fields[0].space,
                         np.maximum.reduce([f.values for f in fields]))
    if all(isinstance(f, PolyField) for f in fields):
        return _envelope_reduce(fields)
    rads = []
    for f in fields:
        if isinstance(f, SqrtPolyField):
            rads.append(PolyField(f.q))
        elif isinstance(f, PolyField):
            rads.append(PolyField(_square_fn(f.fn)))
        else:
            raise ValueError("grid_sup_field needs polynomial-backed fields")
    return SqrtPolyField(_envelope_reduce(rads).fn)


def _square_fn(fn):
    k1 = fn.coeffs.shape[1]
    out = np.zeros((fn.npieces, 2 * k1 - 1, 1))
    for i in range(fn.npieces):
        out[i, :, 0] = np.convolve(fn.coeffs[i, :, 0], fn.coeffs[i, :, 0])
    return CircleFunction(fn.breaks, out, fn.space)


def _envelope_reduce(fields):
    # tournament reduction keeps intermediate break sets near the size of
    # the final envelope instead of the full union
    members = list(fields)
    while len(members) > 8:
        nxt = [upper_envelope(members[i:i + 2])
               for i in range(0, len(members), 2)]
        members = nxt
    return upper_envelope(members)


# -- public norm API -----------------------------------------------------------


def pointwise_norm(f, vnorm):
    """The scalar field x -> ||f(x)||_X."""
    if isinstance(f, AtomFunction):
        return AtomField(f.space, vnorm(f.values))
    if not isinstance(f, CircleFunction):
        raise TypeError("pointwise_norm expects a function object")
    if vnorm.dim != f.d:
        raise ValueError("norm dimension does not match function")
    if f.d == 1:
        return PolyField(abs_poly(f))
    if vnorm.selector == "max":
        comps = []
        for j in range(f.d):
            comp = CircleFunction(f.breaks, f.coeffs[:, :, j:j + 1], f.space)
            comps.append(PolyField(comp))
            comps.append(PolyField(-comp))
        return upper_envelope(comps)
    if vnorm.selector == "sum":
        parts = [abs_poly(CircleFunction(f.breaks, f.coeffs[:, :, j:j + 1],
                                         f.space))
                 for j in range(f.d)]
        from .functions import merge_sum
        return PolyField(merge_sum(parts, np.ones(len(parts))))
    return SqrtPolyField.from_vector(f)


def lp_norm(f, p, vnorm):
    """The Bochner norm (integral of ||f(x)||_X^p) ** (1/p), p >= 1."""
    if p < 1.0:
        raise ValueError("p must be at least 1")
    return pointwise_norm(f, vnorm).lp(p)


def sup_norm(f, vnorm):
    """Essential sup of ||f(x)||_X over the space."""
    return pointwise_norm(f, vnorm).sup()


def exceedance_measure(field, lam):
    """Measure of the set where a scalar field exceeds lam."""
    if hasattr(field, "superlevel_measure"):
        return field.superlevel_measure(lam)
    raise ValueError("exceedance_measure needs a polynomial or atomic field")


def defect_max(*defects):
    """Largest defect, NaN if any is NaN (the builtin max(0.0, nan) is 0.0,
    which would let a NaN defect pass its check)."""
    defects = [float(d) for d in defects]
    return math.nan if any(map(math.isnan, defects)) else max(defects)
