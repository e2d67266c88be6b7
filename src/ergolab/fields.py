"""Scalar fields: pointwise norms of vector functions and their calculus.

A field is a nonnegative scalar function on the underlying space.  Three
circle representations cover everything the lab produces:

* PolyField     exact piecewise polynomial (absolute values, max and sum
                norms, conditional expectations, grid envelopes)
* SqrtPolyField euclidean norm of a vector piecewise polynomial, d >= 2;
                integrals go through cached piece integrals
* GenericField  evaluable closure with known kink locations, used for
                time averages of non-polynomial fields

Atomic spaces use AtomField and stay exact throughout.  Quadrature is
adaptive Gauss-Legendre on arrays of intervals: one ``gl_integrate`` call
covers all pieces, points or cell segments of a field, bit for bit as a
call per interval.

Roots are batched across pieces: ``_piece_roots`` solves the companion
matrices of all pieces of one stripped degree in one stacked eigenvalue
call, and reproduces ``np.roots`` on each piece bit for bit.  Sup
candidates, level crossings, sign changes (those of all components of a
sum norm in one call) and envelope crossings all go through it, and the
values at the candidates are evaluated in stacks of equal shape, so every
result matches a per-piece loop exactly.

Products of coefficient tables are batched like roots: ``_product``
multiplies two tables row by row, looping over the columns of one factor,
never over pieces.  Integer powers |f|^k for exact L_k norms and the
euclidean radicand sum_j f_j^2 (``_radicand``) are built from it.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import CircleFunction, AtomFunction, _pad, merge_sum
from .spaces import VectorNorm

# quadrature: rules of _GL_LADDER nodes until two agree to _GL_STABILITY;
# below width _GL_TINY the midpoint rule; no bisection past _GL_MAX_DEPTH
_GL_STABILITY = 1e-11
_GL_LADDER = (8, 16, 32, 64, 128, 256)
_GL_TINY = 1e-15
_GL_MAX_DEPTH = 24
# root isolation: an eigenvalue with |imag| up to _ROOT_IMAG_TOL is real; a
# root within _ROOT_MARGIN of a piece end is not interior; a leading
# coefficient up to _LEAD_TOL counts as zero in envelope crossings
_ROOT_IMAG_TOL = 1e-9
_ROOT_MARGIN = 1e-13
_LEAD_TOL = 1e-14
# entries of one batch temporary (companion matrices, candidate powers)
_BATCH_ENTRIES = 1 << 18
_gl_cache = {}


def _gl_nodes(n):
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


def gl_integrate(fn, lo, hi, tol=_GL_STABILITY, depth=0):
    """Adaptive Gauss-Legendre on each [lo[i], hi[i]] (a scalar call gives a
    float).  Intervals whose rules never agree are bisected, all halves in
    one call; each rule is one dot product per interval, so every interval
    gets the bits of a call on it alone.  An interval whose rule is NaN is
    NaN at once."""
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (np.ravel(a) for a in np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))
    width = hi - lo
    out = np.where(np.isnan(width), np.nan, 0.0)
    tiny = (width > 0.0) & (width < _GL_TINY)
    if tiny.any():
        out[tiny] = width[tiny] * np.asarray(
            fn(0.5 * (lo[tiny] + hi[tiny])), dtype=float)
    todo = np.flatnonzero(width >= _GL_TINY)
    prev = None
    for n in _GL_LADDER:
        nodes, wts = _gl_nodes(n)
        val = np.empty(todo.size)
        for _, idx in _batches(np.full(todo.size, n), lambda n: n):
            i = todo[idx]
            x = 0.5 * width[i, None] * nodes + 0.5 * (lo[i] + hi[i])[:, None]
            fx = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
            val[idx] = 0.5 * width[i] * np.matmul(fx[:, None, :],
                                                  wts[:, None])[:, 0, 0]
        done = np.isnan(val)
        if prev is not None:
            done |= np.abs(val - prev) <= np.maximum(tol, tol * np.abs(val))
        out[todo[done]] = val[done]
        todo, prev = todo[~done], val[~done]
    if todo.size and depth >= _GL_MAX_DEPTH:
        out[todo] = prev
    elif todo.size:
        mid = 0.5 * (lo[todo] + hi[todo])
        halves = gl_integrate(fn, np.r_[lo[todo], mid], np.r_[mid, hi[todo]],
                              tol, depth + 1)
        out[todo] = halves[:todo.size] + halves[todo.size:]
    return float(out[0]) if scalar else out


def _batches(sizes, entries):
    """(size, indices) batches of the items of equal size; entries(size)
    per item keeps each batch within one temporary of _BATCH_ENTRIES."""
    for n in np.unique(sizes):
        group = np.flatnonzero(sizes == n)
        width = max(_BATCH_ENTRIES // max(int(entries(n)), 1), 1)
        for i in range(0, group.size, width):
            yield n, group[i:i + width]


def _running_sum(vals):
    """Sum from 0.0 in order, as a loop of += adds."""
    return float(np.cumsum(np.r_[0.0, vals])[-1])


def _quadrature_lp(evaluate, breaks, p):
    """(integral of |evaluate|^p) ** (1/p): one quadrature call over the
    pieces, added piece by piece."""
    vals = gl_integrate(lambda x: np.abs(evaluate(x)) ** p, breaks[:-1],
                        breaks[1:])
    return _running_sum(vals) ** (1.0 / p)


def _product(a, b):
    """Row-by-row product of ascending coefficient tables, (N, ka) x (N, kb)
    -> (N, ka + kb - 1), one pass per column of b.  The passes run from the
    top column down, so each coefficient adds its terms in the order of a
    per-piece NumPy convolution (ascending in a)."""
    ka = a.shape[1]
    out = np.zeros((a.shape[0], ka + b.shape[1] - 1))
    for j in range(b.shape[1] - 1, -1, -1):
        out[:, j:j + ka] += a * b[:, j:j + 1]
    return out


def _radicand(fn):
    """The scalar CircleFunction sum_j f_j^2 of a CircleFunction f."""
    c = fn.coeffs
    q = sum(_product(c[:, :, j], c[:, :, j]) for j in range(fn.d))
    return CircleFunction(fn.breaks, q[:, :, None], fn.space)


def _sorted_unique(key, x):
    """(key, x) pairs sorted by key, then x, with repeated pairs dropped."""
    order = np.lexsort((x, key))
    key, x = key[order], x[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (x[1:] != x[:-1])
    return key[new], x[new]


def _segments(lo, hi, key, x):
    """Intervals (lo[i], hi[i]) cut at the points x of interval key: the
    (interval, start, end) of every segment, in order, each cut once."""
    ends = np.arange(lo.size)
    key, x = _sorted_unique(np.concatenate([ends, ends, key]),
                            np.concatenate([lo, hi, x]))
    seg = key[1:] == key[:-1]
    return key[:-1][seg], x[:-1][seg], x[1:][seg]


def _piece_roots(coeffs, lo, hi, margin=_ROOT_MARGIN):
    """Real roots of many polynomials, each strictly inside its (lo, hi).

    coeffs is (N, k1), ascending.  Returns (piece, root) arrays sorted by
    piece, then root, unique within a piece.  Each piece gets exactly what
    np.roots gives it: leading and trailing zeros are stripped, pieces of
    one stripped degree share stacked eigvals calls on the same companion
    matrices, and every stripped low-order zero is a root at 0.
    """
    c = np.asarray(coeffs, dtype=float)
    n_pieces, k1 = c.shape
    if k1 < 2 or n_pieces == 0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n_pieces,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n_pieces,))
    nonzero = c != 0.0
    top = k1 - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    low = np.argmax(nonzero, axis=1)
    # a piece that is constant after trimming its top zeros has no roots
    solved = nonzero.any(axis=1) & (top > 0)
    size = np.where(solved, top - low, 0)
    pieces, roots = [], []
    for n, idx in _batches(size, lambda n: n * n):
        if n == 0:
            continue
        desc = c[idx[:, None], low[idx, None] + np.arange(n, -1, -1)]
        comp = np.zeros((idx.size, n, n))
        comp[:, 1:, :-1] = np.eye(n - 1)
        comp[:, 0, :] = -desc[:, 1:] / desc[:, :1]
        # a 1 x 1 companion is its own eigenvalue
        w = np.linalg.eigvals(comp) if n > 1 else comp[:, 0]
        real = np.abs(w.imag) <= _ROOT_IMAG_TOL
        pieces.append(np.broadcast_to(idx[:, None], w.shape)[real])
        roots.append(w.real[real])
    zeros = np.flatnonzero(solved & (low > 0))
    piece = np.concatenate(pieces + [zeros])
    root = np.concatenate(roots + [np.zeros(zeros.size)])
    inside = (root > lo[piece] + margin) & (root < hi[piece] - margin)
    return _sorted_unique(piece[inside], root[inside])


def real_roots_in(coef_ascending, lo, hi, margin=_ROOT_MARGIN):
    """Real roots of a polynomial strictly inside (lo, hi)."""
    coef = np.asarray(coef_ascending, dtype=float).reshape(1, -1)
    return _piece_roots(coef, lo, hi, margin)[1]


def _split_at(fn, roots):
    """fn with its breaks refined at the points roots (fn if there are none)."""
    if roots.size == 0:
        return fn
    edges = np.unique(np.concatenate([fn.breaks, roots]))
    return CircleFunction(edges, fn.coeffs_on(edges), fn.space)


def _split_at_roots(fn):
    """Refine a scalar CircleFunction's breaks at its interior zeros."""
    return _split_at(fn, _piece_roots(fn.coeffs[:, :, 0], fn.breaks[:-1],
                                      fn.breaks[1:])[1])


def _abs_components(fn):
    """Exact |f_j| of every component of a CircleFunction, each split at its
    own sign changes; the roots of all components are one _piece_roots call
    on the stacked (pieces * d, k1) table."""
    b, n = fn.breaks, fn.npieces
    table = fn.coeffs.transpose(2, 0, 1).reshape(n * fn.d, -1)
    piece, root = _piece_roots(table, np.tile(b[:-1], fn.d),
                               np.tile(b[1:], fn.d))
    parts = []
    for j in range(fn.d):
        comp = CircleFunction(b, fn.coeffs[:, :, j:j + 1], fn.space)
        split = _split_at(comp, root[piece // n == j])
        mids = 0.5 * (split.breaks[:-1] + split.breaks[1:])
        signs = np.where(split._eval_unwrapped(mids)[:, 0] < 0.0, -1.0, 1.0)
        parts.append(CircleFunction(split.breaks,
                                    split.coeffs * signs[:, None, None],
                                    fn.space))
    return parts


def abs_poly(fn):
    """Exact |f| for a scalar CircleFunction, splitting at sign changes."""
    if fn.d != 1:
        raise ValueError("abs_poly expects a scalar function")
    return _abs_components(fn)[0]


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
        b = self.fn.breaks
        c = self.fn.coeffs[:, :, 0]
        k1 = c.shape[1]
        piece, root = _piece_roots(c[:, 1:] * np.arange(1, k1), b[:-1], b[1:])
        counts = np.bincount(piece, minlength=self.fn.npieces)
        first = np.cumsum(counts) - counts
        piece_max = np.empty(self.fn.npieces)
        # candidates b[i], b[i + 1], then the critical points, evaluated in
        # stacks of equal count: a matrix-vector product per piece, as the
        # per-piece form computes it
        for r, idx in _batches(counts, lambda r: (r + 2) * k1):
            xs = np.empty((idx.size, r + 2))
            xs[:, 0], xs[:, 1] = b[idx], b[idx + 1]
            xs[:, 2:] = root[first[idx, None] + np.arange(r)]
            vals = np.matmul(xs[:, :, None] ** np.arange(k1), c[idx, :, None])
            piece_max[idx] = np.max(vals[:, :, 0], axis=1)
        # the first largest piece maximum; a NaN piece makes it NaN
        if piece_max.size == 0:
            return -math.inf
        return float(piece_max[np.argmax(piece_max)])

    def lp(self, p):
        p = float(p)
        if p == 1.0:
            return self.integral()
        if not (p.is_integer() and p <= 16):
            return _quadrature_lp(self.eval, self.fn.breaks, p)
        c = self.fn.coeffs[:, :, 0]
        pw = np.ones((c.shape[0], 1))
        for _ in range(int(p)):
            pw = _product(pw, c)
        # the integral of each piece is one dot product against the
        # differences b[i + 1]^e - b[i]^e, the pieces added in order
        e = np.arange(1, pw.shape[1] + 1)
        b = self.fn.breaks[:, None]
        vals = np.matmul((pw / e)[:, None, :],
                         (b[1:] ** e - b[:-1] ** e)[:, :, None])
        return _running_sum(vals[:, 0, 0]) ** (1.0 / p)

    def superlevel_measure(self, lam):
        """Exact Lebesgue measure of {x : field(x) >= lam}."""
        lam = float(lam)
        b = self.fn.breaks
        shifted = self.fn.coeffs[:, :, 0].copy()
        shifted[:, 0] -= lam
        piece, root = _piece_roots(shifted, b[:-1], b[1:])
        owner, lo, hi = _segments(b[:-1], b[1:], piece, root)
        above = self.fn(0.5 * (lo + hi))[:, 0] >= lam
        owner = owner[above]
        if owner.size == 0:
            return 0.0
        # each piece's widths are summed on their own, then added up piece
        # by piece from 0.0, the order of the per-piece form
        heads = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        sums = np.add.reduceat((hi - lo)[above], heads)
        return _running_sum(sums)


class SqrtPolyField:
    """Euclidean norm sqrt(sum f_i^2) of a vector piecewise polynomial."""

    kind = "sqrt"

    def __init__(self, q):
        # q: scalar piecewise polynomial, nonnegative, breaks split at zeros
        self.q = _split_at_roots(q)
        self.space = q.space
        self._piece_ints = None

    @property
    def breaks(self):
        return self.q.breaks

    def eval(self, x):
        return np.sqrt(np.maximum(self.q(np.asarray(x, dtype=float))[..., 0],
                                  0.0))

    def _piece_integrals(self):
        if self._piece_ints is None:
            b = self.q.breaks
            vals = gl_integrate(self.eval, b[:-1], b[1:])
            self._piece_ints = np.concatenate([[0.0], np.cumsum(vals)])
        return self._piece_ints

    def integral(self):
        return float(self._piece_integrals()[-1])

    def cumint(self, y):
        cum = self._piece_integrals()
        y = np.clip(np.atleast_1d(np.asarray(y, dtype=float)), 0.0, 1.0)
        i = self.q.piece_index(y)
        return cum[i] + gl_integrate(self.eval, self.q.breaks[i], y)

    cell_averages = PolyField.cell_averages

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
        return _quadrature_lp(self.eval, self.q.breaks, p)


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

    def _cell_integrals(self, bounds):
        """Integrals over the cells [bounds[i], bounds[i + 1]], each cut at
        the kinks inside it; a cell's pieces are added in order from 0.0."""
        lo, hi = bounds[:-1], bounds[1:]
        cell = np.clip(np.searchsorted(bounds, self.breaks, "right") - 1,
                       0, lo.size - 1)
        inner = (self.breaks > lo[cell]) & (self.breaks < hi[cell])
        owner, a, b = _segments(lo, hi, cell[inner], self.breaks[inner])
        return np.bincount(owner, weights=gl_integrate(self.eval, a, b),
                           minlength=lo.size)

    def integral(self):
        if self._exact_integral is not None:
            return float(self._exact_integral)
        return float(self._cell_integrals(np.array([0.0, 1.0]))[0])

    def cell_averages(self, partition):
        bounds = np.asarray(partition.cell_bounds_float())
        return self._cell_integrals(bounds) / np.diff(bounds)

    def sup(self, tol=1e-9):
        width = np.max(np.diff(self.breaks))
        gap, n = math.inf, 64
        while gap > tol and n <= 2 ** 22:
            best = defect_max(0.0, *(
                np.max(self.eval(np.linspace(lo, hi, n + 1)))
                for lo, hi in zip(self.breaks[:-1], self.breaks[1:])))
            if self.deriv_bound is None:
                gap = 0.0 if n >= 2 ** 14 else math.inf
            else:
                gap = self.deriv_bound * width / (2 * n)
            n *= 4
        return best

    def lp(self, p):
        p = float(p)
        if p == 1.0:
            return self.integral()
        return _quadrature_lp(self.eval, self.breaks, p)


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

    ii, jj = np.triu_indices(m, k=1)
    lo, hi = edges[:-1], edges[1:]
    cut_e, cut_x = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    if k1 <= 3:
        gap = tabs[ii] - tabs[jj]
        c0, c1 = gap[:, :, 0], gap[:, :, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = -c0 / c1
        linear = np.abs(c1) > _LEAD_TOL
        cands = [(lin, linear)]
        if k1 == 3:
            c2 = gap[:, :, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                disc = c1 * c1 - 4.0 * c2 * c0
                sq = np.sqrt(np.maximum(disc, 0.0))
                qa = (-c1 - np.sign(c1 + (c1 == 0.0)) * sq) / 2.0
                r1 = np.where(np.abs(qa) > 0.0, qa / c2, np.inf)
                r2 = np.where(np.abs(qa) > 0.0, c0 / qa, np.inf)
            quad = np.abs(c2) > _LEAD_TOL
            cands = [(lin, ~quad & linear),
                     (r1, quad & (disc > 0.0)), (r2, quad & (disc > 0.0))]
        for roots, valid in cands:
            ok = (valid & (roots > lo + _ROOT_MARGIN)
                  & (roots < hi - _ROOT_MARGIN))
            cut_e.append(np.nonzero(ok)[1])
            cut_x.append(roots[ok])
    else:
        # pair by pair: one difference table at a time
        for a, b in zip(ii, jj):
            edge, x = _piece_roots(tabs[a] - tabs[b], lo, hi)
            cut_e.append(edge)
            cut_x.append(x)

    owner, seg_lo, seg_hi = _segments(lo, hi, np.concatenate(cut_e),
                                      np.concatenate(cut_x))
    mids = 0.5 * (seg_lo + seg_hi)
    per_edge = np.bincount(owner, minlength=ne)
    first = np.cumsum(per_edge) - per_edge
    members = tabs.transpose(1, 0, 2)
    coeffs = np.empty((mids.size, k1))
    # the best member at each midpoint; edges with equally many segments
    # are evaluated as one stack of (members x segments) products
    for n, idx in _batches(per_edge, lambda n: (m + n) * k1 + m * n):
        at = first[idx, None] + np.arange(n)
        powers = mids[at][:, :, None] ** np.arange(k1)
        vals = np.matmul(members[idx], powers.transpose(0, 2, 1))
        coeffs[at] = members[idx[:, None], np.argmax(vals, axis=1)]
    return PolyField(CircleFunction(np.r_[0.0, seg_hi], coeffs[:, :, None],
                                    space))


def grid_sup_field(fields):
    """Pointwise supremum of a family of norm fields, kept exact.

    Square-root fields reduce through their radicands: sup_i sqrt(q_i)
    equals sqrt of the polynomial upper envelope of the q_i.
    """
    fields = list(fields)
    if len(fields) == 1:
        return fields[0]
    if not any(isinstance(f, SqrtPolyField) for f in fields):
        return _envelope_reduce(fields)
    if not all(isinstance(f, (PolyField, SqrtPolyField)) for f in fields):
        raise ValueError("grid_sup_field needs polynomial-backed fields")
    rads = [PolyField(f.q if isinstance(f, SqrtPolyField) else _radicand(f.fn))
            for f in fields]
    return SqrtPolyField(_envelope_reduce(rads).fn)


def _envelope_reduce(fields):
    # tournament reduction keeps intermediate break sets near the size of
    # the final envelope instead of the full union; atoms have no breaks
    members = list(fields)
    while len(members) > 8 and not isinstance(members[0], AtomField):
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
        return PolyField(merge_sum(_abs_components(f), np.ones(f.d)))
    return SqrtPolyField(_radicand(f))


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
    """Largest defect or value, NaN if any is NaN (the builtin
    max(0.0, nan) is 0.0, which would let a NaN defect pass its check)."""
    defects = [float(d) for d in defects]
    return math.nan if any(map(math.isnan, defects)) else max(defects)
