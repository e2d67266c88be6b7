"""Scalar fields: pointwise norms of vector functions and their calculus.

A field is a nonnegative scalar function on the underlying space.  Three
circle representations cover everything the lab produces:

* PolyField     exact piecewise polynomial (absolute values, max and sum
                norms, conditional expectations, grid envelopes)
* SqrtPolyField euclidean norm of a vector piecewise polynomial, d >= 2;
                F(y) = ∫_0^y h at many y comes from one cut of the pieces
                at every y, one keyed quadrature and running sums
* GenericField  evaluable closure with known kink locations and a
                derivative between them, used for time averages of
                non-polynomial fields; a cell integral is the cell's
                width times its left value plus a quadrature of
                (hi - x) times the derivative, no nested quadrature

Atomic spaces use AtomField and stay exact throughout.  Quadrature is
adaptive Gauss-Legendre on arrays of intervals: one ``gl_integrate`` call
covers all pieces, points or cell segments of a field, bit for bit as a
call per interval, and climbs its node ladder only while some interval
has not settled.  A keyed integrand gets one row of ascending nodes and
one key per interval, so it reads one coefficient row per interval.

Norm fields are built family by family on the ``_Stack`` of functions.py
(a lone function is its own stack).  ``NormFamily`` stacks the
coefficient tables of many functions (the entries of a process grid,
say), subtracts a target per owner (a common one, or one per member)
with ``_weighted_sum``, the kernel behind ``-``, and runs the sign
splits, radicands, root isolation, L_p integrals and sups once for the
whole family.  Per-owner reductions (running sums in piece order,
first-largest maxima) give each member exactly the bits of a family of
its own.  The single-field ``lp``, ``sup`` and ``integral`` run the same
kernels on the field's own stack, ``pointwise_norm`` is a family of one,
and ``sup_field`` hands the family's own stack to ``_sup_field``, the
envelope step that ``grid_sup_field`` runs on its stacked fields.  An
atom family is one (members, atoms, d) value table.

Roots are batched across pieces: ``_piece_roots`` solves the companion
matrices of all pieces of one stripped degree in one stacked eigenvalue
call, and reproduces ``np.roots`` on each piece bit for bit.  A piece
whose Bernstein coefficients prove that ``np.roots`` keeps none of its
roots skips the solve (Farouki & Rajan, CAGD 4 (1987)); on smooth fields
that is nearly every piece.  Sup
candidates, level crossings, sign changes and envelope crossings of
degree 3 and up all go through it, and the values at the candidates are
evaluated in stacks of equal shape, so every result matches a per-piece
loop exactly.

Envelopes are divide and conquer (Sharir & Agarwal, *Davenport-Schinzel
Sequences and Their Geometric Applications*, 1995), one stack per round:
``_envelope`` pairs members 2i and 2i + 1 of every run of owners, merges
each pair's breaks, cuts at the crossings of their difference and keeps
the larger member on each part, so m members take ceil(log2 m) rounds of
one merge and one crossing call.  Rounds carry each piece's row of the
input table, both members of a pair share one power table, and a
round releases its temporaries before the next round's merge.  The max
norm with d >= 2 is the envelope of the 2d signed components.  Crossings
of degree 1 and 2 stay in closed form: on large stacks, a stacked
eigenvalue call on 1 x 1 and 2 x 2 companions costs more than the rest
of a round.

Products of coefficient tables are batched like roots: ``_product``
multiplies two tables row by row, looping over the columns of one factor,
never over pieces.  Integer powers |f|^k for exact L_k norms and the
euclidean radicand sum_j f_j^2 (``_square_sum``) are built from it.

Gathers copy whole rows: coefficient rows go through ``_rows``
(``ndarray.take``), the bytes of fancy indexing at a fraction of its
cost.  Small calls reach NumPy's C entry points directly, as ndarray
methods and ufuncs (the C loops behind its Python wrappers), so no bit
moves.  Every evaluation reads one ``_powers`` table, the bytes of
x[..., None] ** np.arange(k1) with no pow on x^0 and x^1.  A node row
inside its key's piece takes that piece's one coefficient row; the nodes
of any other row are wrapped and walked, a node wrapped from 1 starting
at its owner's first piece, and ``_Stack.place`` returns at once when
every point lies in [lo, hi) of its row."""

from __future__ import annotations

import functools
import math

import numpy as np

from .functions import (CircleFunction, AtomFunction, _Stack, _antiderivative,
                        _eval_rows, _merged, _powers, _rows, _weighted_sum)

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
# root exclusion (see _piece_roots): pieces of stripped degree
# _ROOT_FREE_DEGREE and up are tested (a 1 x 1 companion is its own
# eigenvalue); _ROOT_ROUNDING eps-units of sum_j |c_j| R^j max|c| / |c_top|
# bound rounding and the eigensolver's backward error, which stayed under 30
# units over 55,000 sampled roots of degree 2 to 12 (and reached 2.6e10
# units without the factor max|c| / |c_top|, on rows with a tiny lead)
_ROOT_FREE_DEGREE = 2
_ROOT_ROUNDING = 256.0
_EPS = np.finfo(float).eps
# entries of one batch temporary (companion matrices, candidate powers)
_BATCH_ENTRIES = 1 << 18


@functools.lru_cache(maxsize=None)
def _gl_nodes(n):
    return np.polynomial.legendre.leggauss(n)


@functools.lru_cache(maxsize=None)
def _bernstein(k1):
    """The (k1, k1) matrix taking the ascending power coefficients a of a
    polynomial on [0, 1] to its Bernstein coefficients of degree n = k1 - 1,
    b_i = sum_{j <= i} C(i, j) / C(n, j) a_j."""
    return np.array([[math.comb(i, j) / math.comb(k1 - 1, j)
                      for j in range(k1)] for i in range(k1)])


class _Nodes(np.ndarray):
    """Rows of quadrature nodes whose ``key`` holds each row's key."""


def gl_integrate(fn, lo, hi, depth=0, key=None):
    """Adaptive Gauss-Legendre on each [lo[i], hi[i]] (a scalar call gives a
    float).  Intervals whose rules never agree are bisected, all halves in
    one call; each rule is one dot product per interval, so every interval
    gets the bits of a call on it alone.  An interval whose rule is NaN or
    infinite (an overflow) takes that value at once.  fn receives flat
    nodes, or with ``key`` (an integer per interval, kept by both halves of
    a bisection) rows of each interval's ascending nodes, (intervals, n),
    whose ``key`` attribute holds each row's key."""
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = (np.ravel(a) for a in np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))
    if key is not None:
        key = np.broadcast_to(np.asarray(key), lo.shape)

    def values(x, idx):
        if key is None:
            return np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        x = x.view(_Nodes)
        x.key = key[idx]
        return np.asarray(fn(x), dtype=float)

    width = hi - lo
    out = np.where(np.isnan(width), np.nan, 0.0)
    tiny = (width > 0.0) & (width < _GL_TINY)
    if tiny.any():
        out[tiny] = width[tiny] * values(
            0.5 * (lo[tiny] + hi[tiny])[:, None], tiny)[:, 0]
    todo = (width >= _GL_TINY).nonzero()[0]
    prev = None
    for n in _GL_LADDER:
        if not todo.size:
            break
        nodes, wts = _gl_nodes(n)
        val = np.empty(todo.size)
        step = max(_BATCH_ENTRIES // n, 1)
        for j in range(0, todo.size, step):
            i = todo[j:j + step]
            fx = values(0.5 * width[i, None] * nodes
                        + 0.5 * (lo[i] + hi[i])[:, None], i)
            val[j:j + step] = 0.5 * width[i] * np.matmul(
                fx[:, None, :], wts[:, None])[:, 0, 0]
        done = ~np.isfinite(val)
        if prev is not None:
            done |= np.abs(val - prev) <= np.maximum(
                _GL_STABILITY, _GL_STABILITY * np.abs(val))
        out[todo[done]] = val[done]
        todo, prev = todo[~done], val[~done]
    if todo.size and depth >= _GL_MAX_DEPTH:
        out[todo] = prev
    elif todo.size:
        mid = 0.5 * (lo[todo] + hi[todo])
        halves = gl_integrate(fn, np.r_[lo[todo], mid], np.r_[mid, hi[todo]],
                              depth=depth + 1,
                              key=None if key is None else np.r_[key[todo],
                                                                 key[todo]])
        out[todo] = halves[:todo.size] + halves[todo.size:]
    return float(out[0]) if scalar else out


def _groups(sizes):
    """(size, indices) of the items of each size, sizes increasing; one
    size, the common case, needs no sort."""
    if sizes.size and np.minimum.reduce(sizes) == np.maximum.reduce(sizes):
        return [(sizes[0], np.arange(sizes.size))]
    return [(n, (sizes == n).nonzero()[0]) for n in np.unique(sizes)]


def _batches(sizes, entries):
    """(size, indices) batches of the items of equal size; entries(size)
    per item keeps each batch within one temporary of _BATCH_ENTRIES."""
    for n, group in _groups(sizes):
        width = max(_BATCH_ENTRIES // max(int(entries(n)), 1), 1)
        for i in range(0, group.size, width):
            yield n, group[i:i + width]


def _running_sum(vals):
    """Sum from 0.0 in order, as a loop of += adds."""
    return float(np.r_[0.0, vals].cumsum()[-1])


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


def _square_sum(c):
    """The table of sum_j f_j^2 for a (N, k1, d) coefficient table."""
    return sum(_product(c[:, :, j], c[:, :, j]) for j in range(c.shape[2]))


def _sorted_unique(key, x):
    """(key, x) pairs sorted by key, then x, with repeated pairs dropped."""
    order = np.lexsort((x, key))
    key, x = key[order], x[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (x[1:] != x[:-1])
    return key[new], x[new]


def _cut(lo, hi, key, x):
    """Intervals (lo[i], hi[i]) cut at the points x of interval key (sorted
    by key, then x, unique and strictly inside their interval): the
    (interval, start, end) of every part, in order."""
    src = np.arange(lo.size).repeat(np.bincount(key, minlength=lo.size) + 1)
    start, end = lo[src], hi[src]
    # the q-th point starts part key[q] + q + 1 and ends the one before
    at = key + np.arange(x.size) + 1
    start[at] = x
    end[at - 1] = x
    return src, start, end


def _root_free(c, lo, hi):
    """True for each row of c (N, k1; finite, not constant) whose Bernstein
    coefficients on [lo, hi] share one strict sign and clear the bound
    named at _ROOT_ROUNDING (see _piece_roots).  The coefficients take
    O(k1^2) column operations: a Taylor shift to lo by Horner columns, a
    scale by width^j and one fixed (k1, k1) matrix; no (N, k1, k1)
    tensor."""
    n = c.shape[1] - 1
    width = hi - lo
    # a[j] is column j; after pass i of the shift, a[i] is p^(i)(lo) / i!
    a = c.T.copy()
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += lo * a[j + 1]
    a[1:] *= width[None].repeat(n, axis=0).cumprod(axis=0)
    b = _bernstein(n + 1) @ a
    mag = np.abs(c)
    reach = np.maximum(np.abs(lo) + width, 1.0)
    total = mag[:, n]
    for j in range(n - 1, -1, -1):
        total = total * reach + mag[:, j]
    top = n - (mag[:, ::-1] > 0.0).argmax(axis=1)
    rounding = (_ROOT_ROUNDING * _EPS * total
                * (mag.max(axis=1) / mag[np.arange(c.shape[0]), top]))
    # min |b_i| when one strict sign, else <= 0; width * sup|p'| is at most
    # n max |b_(i+1) - b_i|
    clear = np.maximum(b.min(axis=0), -b.max(axis=0))
    slope = n * np.abs(b[1:] - b[:-1]).max(axis=0)
    return (clear > rounding) & ((clear - rounding) * width
                                 > _ROOT_IMAG_TOL * slope)


def _piece_roots(coeffs, lo, hi):
    """Real roots of many polynomials, each strictly inside its (lo, hi).

    coeffs is (N, k1), ascending, and lo, hi are (N,) arrays.  Returns
    (piece, root) arrays sorted by piece, then root, unique within a piece.
    Each piece gets exactly what np.roots gives it: leading and trailing
    zeros are stripped, pieces of one stripped degree share stacked eigvals
    calls on the same companion matrices, and every stripped low-order zero
    is a root at 0.  A piece with a non-finite coefficient has no roots, so
    one NaN piece cannot stop the solve of the others.

    Before the solve, ``_root_free`` drops each piece whose Bernstein
    coefficients on [lo, hi] share one strict sign and clear two terms, so
    that |p| clears both on all of [lo, hi].  The first, _ROOT_ROUNDING eps
    times sum_j |c_j| R^j max|c| / |c_top| (R = max(|lo| + width, 1) bounds
    |x| and the growth of the Taylor shift), covers rounding and the
    eigensolver's backward error: each eigenvalue is an exact root of a
    polynomial that close to p (Edelman & Murakami, Math. Comp. 64 (1995);
    the constant is measured).  The second, _ROOT_IMAG_TOL sup|p'| (sup|p'|
    from the differences of the Bernstein coefficients), covers the
    eigenvalues counted real: a root x + iy with |y| <= _ROOT_IMAG_TOL has
    |p(x)| <= |y| sup|p'|, up to a term in y^2 inside the first.  So
    np.roots keeps no root of a dropped piece, and every piece still gets
    its bits.
    """
    c = np.asarray(coeffs, dtype=float)
    n_pieces, k1 = c.shape
    if k1 < 2 or n_pieces == 0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    nonzero = c != 0.0
    top = k1 - 1 - nonzero[:, ::-1].argmax(axis=1)
    low = nonzero.argmax(axis=1)
    # a piece that is constant after trimming its top zeros has no roots
    solved = nonzero.any(axis=1) & (top > 0) & np.isfinite(c).all(axis=1)
    tested = (solved & (top - low >= _ROOT_FREE_DEGREE)).nonzero()[0]
    if tested.size:
        solved[tested[_root_free(c[tested], lo[tested], hi[tested])]] = False
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
        pieces.append(idx.repeat(n)[real.ravel()])
        roots.append(w.real[real])
    zeros = (solved & (low > 0)).nonzero()[0]
    piece = np.concatenate(pieces + [zeros])
    root = np.concatenate(roots + [np.zeros(zeros.size)])
    inside = (root > lo[piece] + _ROOT_MARGIN) & (root < hi[piece] - _ROOT_MARGIN)
    return _sorted_unique(piece[inside], root[inside])


def real_roots_in(coef_ascending, lo, hi):
    """Real roots of a polynomial strictly inside (lo, hi)."""
    coef = np.asarray(coef_ascending, dtype=float).reshape(1, -1)
    return _piece_roots(coef, np.asarray(lo, dtype=float).reshape(1),
                        np.asarray(hi, dtype=float).reshape(1))[1]


# -- stack kernels ---------------------------------------------------------------


def _split(st, piece, root):
    """The stack with each piece cut at its interior points root, as
    _piece_roots gives them; every part keeps its piece's coefficients."""
    src, lo, hi = _cut(st.lo, st.hi, piece, root)
    return _Stack(st.owner[src], lo, hi, _rows(st.c, src), st.m)


def _split_at_roots(st):
    """A scalar stack with each piece cut at its interior zeros; one
    _piece_roots call for the whole stack."""
    return _split(st, *_piece_roots(st.c[:, :, 0], st.lo, st.hi))


def _abs(st):
    """|p| of every piece of a scalar stack, split at its sign changes."""
    split = _split_at_roots(st)
    mids = 0.5 * (split.lo + split.hi)
    at = split.place(np.arange(mids.size), mids)
    signs = np.where(_eval_rows(_rows(split.c, at), mids)[:, 0] < 0.0,
                     -1.0, 1.0)
    return split.recoef(split.c * signs[:, None, None])


def _components(st):
    """The scalar stack of every owner's components: owner o * d + j holds
    component j of owner o."""
    d = st.c.shape[2]
    sub = (st.owner[:, None] * d + np.arange(d)).ravel()
    order = np.argsort(sub, kind="stable")
    src, j = np.divmod(order, d)
    return _Stack(sub[order], st.lo[src], st.hi[src],
                  st.c[src, :, j][:, :, None], st.m * d)


def _at_nodes(st, x):
    """A scalar stack at node rows x (see gl_integrate's key), each node on
    the piece of its row key's owner that holds it, as the one-field
    evaluation (which wraps x into [0, 1)) finds it.  Each row is read with
    its key's coefficient row, exact where the row's ends lie in that piece
    (nodes ascend; a sum of products from +0.0 has the bits at -0.0 and
    +0.0); the nodes of other rows are wrapped and walked one by one."""
    x, key = np.asarray(x), x.key
    out = np.einsum("npk,nkd->npd", _powers(x, st.c.shape[1]),
                    _rows(st.c, key))[:, :, 0]
    part = (~((x[:, 0] >= st.lo[key])
              & (x[:, -1] < st.hi[key]))).nonzero()[0]
    rows, x = key[part].repeat(x.shape[1]), x[part].ravel()
    rows = np.where(x >= 1.0, st.ends[st.owner[rows]], rows)
    x = np.mod(x, 1.0)
    out[part] = _eval_rows(_rows(st.c, st.place(rows, x)), x).reshape(
        -1, out.shape[1])
    return out


def _sup(st):
    """Each owner's sup of a scalar stack: the largest value at the piece
    ends and interior critical points."""
    c = st.c[:, :, 0]
    k1 = c.shape[1]
    piece, root = _piece_roots(c[:, 1:] * np.arange(1, k1), st.lo, st.hi)
    # piece i holds the roots ends[i] to ends[i + 1] - 1
    ends = piece.searchsorted(np.arange(st.lo.size + 1))
    piece_max = np.empty(st.lo.size)
    # candidates lo, hi, then the critical points, evaluated in stacks of
    # equal count: a matrix-vector product per piece, as the per-piece form
    # computes it
    for r, idx in _batches(ends[1:] - ends[:-1], lambda r: (r + 2) * k1):
        xs = np.empty((idx.size, r + 2))
        xs[:, 0], xs[:, 1] = st.lo[idx], st.hi[idx]
        xs[:, 2:] = root[ends[idx, None] + np.arange(r)]
        vals = np.matmul(_powers(xs, k1), c[idx, :, None])
        piece_max[idx] = vals[:, :, 0].max(axis=1)
    return st.maxima(piece_max)


def _integral(st):
    """Each owner's integral over the circle, as CircleFunction.integral
    computes it: the antiderivative's last piece at x = 1."""
    ad = _antiderivative(st)
    return _eval_rows(_rows(ad.c, st.ends[1:] - 1), np.ones(st.m))[:, 0]


def _root(sums, p):
    """sum ** (1/p) per owner, in Python floats as the one-field form."""
    return np.array([float(s) ** (1.0 / p) for s in sums])


def _sqrt_each(vals):
    """sqrt(max(v, 0)) per owner, in Python floats as the one-field form."""
    return np.array([math.sqrt(max(float(v), 0.0)) for v in vals])


def _sqrt_nonneg(v):
    return np.sqrt(np.maximum(v, 0.0))


def _piece_quadrature(st, fn):
    """Each piece's integral of fn of the stack's values, in one keyed
    gl_integrate call for all owners."""
    return gl_integrate(lambda x: fn(_at_nodes(st, x)), st.lo, st.hi,
                        key=np.arange(st.lo.size))


def _exponent(p):
    """p as a float if it is a finite number >= 1; every lp reads p here."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    return p


def _lp(st, p):
    """Each owner's L_p norm of a nonnegative scalar stack: exact for
    integer p up to 16, quadrature otherwise."""
    if p == 1.0:
        return _integral(st)
    if not (p.is_integer() and p <= 16):
        return _root(st.sums(_piece_quadrature(st, lambda v: np.abs(v) ** p)),
                     p)
    c = st.c[:, :, 0]
    pw = np.ones((c.shape[0], 1))
    for _ in range(int(p)):
        pw = _product(pw, c)
    # the integral of each piece is one dot product against the
    # differences hi^e - lo^e, the pieces added in order
    k1 = pw.shape[1] + 1
    gain = _powers(st.hi, k1)[:, 1:] - _powers(st.lo, k1)[:, 1:]
    vals = np.matmul((pw / np.arange(1, k1))[:, None, :], gain[:, :, None])
    return _root(st.sums(vals[:, 0, 0]), p)


def _sqrt_lp(st, p):
    """Each owner's L_p norm of sqrt(q) for a split radicand stack q."""
    if p == 2.0:
        return _sqrt_each(_integral(st))
    return _root(st.sums(_piece_quadrature(
        st, lambda v: np.abs(_sqrt_nonneg(v)) ** p)), p)


def _atom_lp(values, weights, p):
    """(sum_a w_a |v_a|^p) ** (1/p) for each row of an atom value table."""
    return _root(np.matmul((np.abs(values) ** p)[:, None, :],
                           weights[:, None])[:, 0, 0], p)


class PolyField:
    """Nonnegative piecewise-polynomial scalar field on the circle."""

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
        return float(_integral(self.fn._stack)[0])

    def sup(self):
        return float(_sup(self.fn._stack)[0])

    def lp(self, p):
        return float(_lp(self.fn._stack, _exponent(p))[0])

    def superlevel_measure(self, lam):
        """Exact Lebesgue measure of {x : field(x) >= lam}."""
        lam = float(lam)
        st = self.fn._stack
        shifted = st.c[:, :, 0].copy()
        shifted[:, 0] -= lam
        owner, lo, hi = _cut(st.lo, st.hi, *_piece_roots(shifted, st.lo, st.hi))
        above = self.fn(0.5 * (lo + hi))[:, 0] >= lam
        owner = owner[above]
        if owner.size == 0:
            return 0.0
        # each piece's widths are summed on their own, then added up piece
        # by piece from 0.0, the order of the per-piece form
        heads = np.r_[True, owner[1:] != owner[:-1]].nonzero()[0]
        sums = np.add.reduceat((hi - lo)[above], heads)
        return _running_sum(sums)


class SqrtPolyField:
    """Euclidean norm sqrt(sum f_i^2) of a vector piecewise polynomial."""

    def __init__(self, q):
        # q: scalar piecewise polynomial, nonnegative, breaks already split
        # at its interior zeros (_split_at_roots)
        self.q = q
        self.space = q.space

    @property
    def breaks(self):
        return self.q.breaks

    def eval(self, x):
        return _sqrt_nonneg(self.q(np.asarray(x, dtype=float))[..., 0])

    @functools.cached_property
    def _whole(self):
        # one quadrature per field, as CircleFunction keeps its antiderivative
        return float(self.cumint(1.0)[0])

    def integral(self):
        return self._whole

    def _part_integrals(self, pts):
        """The pieces of q cut at the sorted, unique points pts of [0, 1]:
        the ends of the parts and each part's integral of h, in one keyed
        quadrature."""
        b = self.q.breaks
        piece = self.q.piece_index(pts)
        inner = (pts > b[piece]) & (pts < b[piece + 1])
        parts = _split(self.q._stack, piece[inner], pts[inner])
        return (np.r_[parts.lo, parts.hi[-1]],
                _piece_quadrature(parts, _sqrt_nonneg))

    def cumint(self, y):
        """F(y) = ∫_0^y h for each y (clipped to [0, 1]): running sums of
        the part integrals of a cut at every y."""
        y = np.clip(np.atleast_1d(np.asarray(y, dtype=float)), 0.0, 1.0)
        ends, vals = self._part_integrals(np.unique(y))
        return np.r_[0.0, vals.cumsum()][ends.searchsorted(y)]

    def cell_averages(self, partition):
        """Each cell's mean from its own parts: a cut at the cell bounds and
        each cell's part integrals added, never a difference of running
        sums, so a narrow cell loses no digits to the integral before it."""
        bounds = partition.cell_bounds_float()
        ends, vals = self._part_integrals(bounds)
        return (np.add.reduceat(vals, ends.searchsorted(bounds[:-1]))
                / np.diff(bounds))

    def sup(self):
        return float(_sqrt_each(_sup(self.q._stack))[0])

    def superlevel_measure(self, lam):
        lam = float(lam)
        if lam < 0.0:
            return self.space.mass
        return PolyField(self.q).superlevel_measure(lam * lam)

    def lp(self, p):
        return float(_sqrt_lp(self.q._stack, _exponent(p))[0])


class GenericField:
    """Evaluable scalar field with known kink set and a derivative between
    the kinks; quadrature calculus."""

    def __init__(self, space, evaluator, breaks, derivative):
        self.space = space
        self._eval = evaluator
        self._derivative = derivative
        self.breaks = np.unique(np.concatenate(
            [[0.0, 1.0], np.asarray(breaks, dtype=float)]))

    def eval(self, x):
        return np.asarray(self._eval(np.atleast_1d(
            np.asarray(x, dtype=float))), dtype=float)

    def _cell_integrals(self, bounds):
        """Integrals over the cells [lo, hi] = [bounds[i], bounds[i + 1]] by
        Taylor's formula, (hi - lo) f(lo) + ∫_lo^hi (hi - x) f'(x) dx, the
        remainder by quadrature with each cell cut at the kinks inside it
        and its parts added in order from 0.0.  Both terms are local to the
        cell, so a narrow cell's average loses no digits to a difference of
        values at its ends."""
        lo, hi = bounds[:-1], bounds[1:]
        cell = bounds[1:-1].searchsorted(self.breaks, "right")
        inner = (self.breaks > lo[cell]) & (self.breaks < hi[cell])
        owner, a, b = _cut(lo, hi, cell[inner], self.breaks[inner])
        rest = gl_integrate(lambda x: (hi[x.key, None] - x) * self._derivative(
            x.ravel()).reshape(x.shape), a, b, key=owner)
        return ((hi - lo) * self.eval(lo)
                + np.bincount(owner, weights=rest, minlength=lo.size))

    def integral(self):
        return float(self._cell_integrals(np.array([0.0, 1.0]))[0])

    def cell_averages(self, partition):
        bounds = partition.cell_bounds_float()
        return self._cell_integrals(bounds) / np.diff(bounds)

    def sup(self):
        """Largest value on 2^14 + 1 evenly spaced points of each kink
        interval, one evaluation per batch of intervals."""
        lo, hi, n = self.breaks[:-1], self.breaks[1:], 2 ** 14 + 1
        maxima = np.empty(lo.size)
        step = max(_BATCH_ENTRIES // n, 1)
        for j in range(0, lo.size, step):
            grid = np.linspace(lo[j:j + step], hi[j:j + step], n, axis=1)
            vals = self.eval(grid.ravel()).reshape(grid.shape)
            maxima[j:j + step] = vals.max(axis=1)
        return defect_max(0.0, *maxima)

    def lp(self, p):
        p = _exponent(p)
        if p == 1.0:
            return self.integral()
        vals = gl_integrate(lambda x: np.abs(self.eval(x)) ** p,
                            self.breaks[:-1], self.breaks[1:])
        return _running_sum(vals) ** (1.0 / p)


class AtomField:
    """Nonnegative scalar field on a discrete or product space."""

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

    def sup(self):
        return float(self.values.max())

    def lp(self, p):
        return float(_atom_lp(self.values[None], self.space.weights,
                              _exponent(p))[0])

    def superlevel_measure(self, lam):
        return float(np.sum(self.space.weights[self.values >= float(lam)]))


# -- envelopes ---------------------------------------------------------------


def _crossings(st, ra, rb, lo, hi):
    """Interior zeros of the difference of rows ra and rb of a scalar stack
    in each (lo, hi), as _piece_roots returns them: closed forms up to
    degree 2 (a coefficient up to _LEAD_TOL counts as zero) on just the
    differences they apply to, element by element as a pass over all, and
    the companion solve above.  The difference, subtracted in place, dies
    here."""
    gap = _rows(st.c[:, :, 0], ra)
    gap -= _rows(st.c[:, :, 0], rb)
    if gap.shape[1] > 3:
        return _piece_roots(gap, lo, hi)
    # contiguous columns, zero above the gap's degree
    gap = np.ascontiguousarray(gap.T)
    c0, c1, c2 = *gap, *np.zeros((3 - gap.shape[0], gap.shape[1]))
    quad = np.abs(c2) > _LEAD_TOL
    lin = (~quad & (np.abs(c1) > _LEAD_TOL)).nonzero()[0]
    cands = [(lin, -c0[lin] / c1[lin])]
    q = quad.nonzero()[0]
    a, b, c = c2[q], c1[q], c0[q]
    disc = b * b - 4.0 * a * c
    two = (disc > 0.0).nonzero()[0]
    q, a, b, c = q[two], a[two], b[two], c[two]
    qa = (-b - np.sign(b + (b == 0.0)) * np.sqrt(disc[two])) / 2.0
    big = (np.abs(qa) > 0.0).nonzero()[0]
    q, a, c, qa = q[big], a[big], c[big], qa[big]
    cands += [(q, qa / a), (q, c / qa)]
    piece, root = [], []
    for rows, roots in cands:
        ok = ((roots > lo[rows] + _ROOT_MARGIN)
              & (roots < hi[rows] - _ROOT_MARGIN))
        piece.append(rows[ok])
        root.append(roots[ok])
    return _sorted_unique(np.concatenate(piece), np.concatenate(root))


def _envelope(st, g):
    """The pointwise maximum of each run of g consecutive owners of a scalar
    stack, as one owner per run.  Each round pairs members 2i and 2i + 1 of
    every run (an odd member out with itself), merges each pair's breaks,
    cuts at the crossings of their difference and keeps, on every part,
    the member larger at its midpoint (the first on a tie; a NaN value
    wins, as argmax decides); one stack and one crossing call per round.
    A round hands the next only its parts' owners, bounds and rows of st:
    its pair map, merge rows, cuts, power table and values are released
    before the next round's merge."""
    owner, lo, hi, m = st.owner, st.lo, st.hi, st.m
    rows = np.arange(lo.size)
    while g > 1:
        half = (g + 1) // 2
        run, i = np.divmod(np.arange(m), g)
        pair = _rows(run * half + i // 2, owner)
        sides = [_rows(side, owner).nonzero()[0]
                 for side in (i % 2 == 0, (i % 2 == 1) | (i == g - 1))]
        m = m // g * half
        owner, lo, hi, (a, b) = _merged(
            [_Stack(_rows(pair, r), _rows(lo, r), _rows(hi, r), None, m)
             for r in sides], m)
        ra, rb = rows[sides[0][a]], rows[sides[1][b]]
        del pair, sides, a, b, rows
        src, lo, hi = _cut(lo, hi, *_crossings(st, ra, rb, lo, hi))
        owner, ra, rb = owner[src], ra[src], rb[src]
        powers = _powers(0.5 * (lo + hi), st.c.shape[1])
        ea, eb = (np.einsum("nk,nkd->nd", powers, _rows(st.c, r))[:, 0]
                  for r in (ra, rb))
        # as np.argmax([ea, eb], 0): eb if larger, or NaN where ea is not
        rows = np.where((ea == ea) & ~(eb <= ea), rb, ra)
        del src, ra, rb, powers, ea, eb
        g = half
    return _Stack(owner, lo, hi, _rows(st.c, rows), m)


def _sup_field(st, cls, space):
    """The pointwise max of a stack's owners as one cls field from one
    envelope: of PolyFields' polynomials, or of SqrtPolyFields' radicands
    (sup_i sqrt(q_i) = sqrt(max_i q_i)), then split at its zeros."""
    fn = _envelope(st, st.m).functions(space)[0]
    if cls is SqrtPolyField:
        fn = _split_at_roots(fn._stack).functions(space)[0]
    return cls(fn)


def upper_envelope(fields):
    """Exact pointwise maximum of PolyFields, as a PolyField: every output
    piece is one member's polynomial (see _envelope)."""
    fields = list(fields)
    if not fields:
        raise ValueError("an envelope needs at least one field, got none")
    if all(isinstance(f, AtomField) for f in fields):
        return AtomField(fields[0].space,
                         np.maximum.reduce([f.values for f in fields]))
    if not all(isinstance(f, PolyField) for f in fields):
        raise ValueError("upper_envelope needs polynomial fields")
    fns = [f.fn for f in fields]
    st = _Stack.of(fns, max(fn.coeffs.shape[1] for fn in fns))
    return _sup_field(st, PolyField, fns[0].space)


def grid_sup_field(fields):
    """Pointwise supremum of a family of norm fields, kept exact.

    The fields are one family's (``NormFamily.fields``), so all of one
    kind; square-root fields reduce through their radicands (see
    _sup_field).
    """
    fields = list(fields)
    if len(fields) == 1:
        return fields[0]
    if fields and all(isinstance(f, SqrtPolyField) for f in fields):
        qs = [f.q for f in fields]
        st = _Stack.of(qs, max(q.coeffs.shape[1] for q in qs))
        return _sup_field(st, SqrtPolyField, qs[0].space)
    return upper_envelope(fields)


# -- public norm API -----------------------------------------------------------


class NormFamily:
    """The norm fields x -> ||g_i(x) - t_i(x)||_X of a family of functions
    g_i, built in one stacked pass: t_i is ``target`` itself, or its i-th
    entry if it is a list (target None: the norms of the g_i).  So a
    family of differences needs no ``-`` per member.

    Circle members are grouped by coefficient width (one group in
    practice), each group stacked into one table; the targets are
    subtracted per owner on the union of the breaks, as ``-`` does.  The
    absolute values (d = 1 and the sum norm), the radicands of the
    euclidean norm and all their root searches, quadratures and reductions
    then run once per group; the max norm with d >= 2 is one envelope of
    the signed components of all members (``_envelope``), with no loop
    over members.  ``lp``, ``sup`` and ``fields`` give every member
    exactly what a family of that member alone gives.
    """

    def __init__(self, members, vnorm, target=None):
        members = list(members)
        if not members:
            raise ValueError("a norm family needs at least one member")
        self.m = len(members)
        self.space = members[0].space
        if target is not None and not isinstance(target, list):
            target = [target] * self.m
        if target is not None and len(target) != self.m:
            raise ValueError(f"{len(target)} targets for {self.m} members")
        if all(isinstance(g, AtomFunction) for g in members):
            values = np.stack([g.values for g in members])
            if target is not None:
                values = values - np.stack([t.values for t in target])
            self.values = vnorm(values)
            return
        self.values = None
        for g in members + (target or []):
            if not isinstance(g, CircleFunction):
                raise TypeError("pointwise_norm expects a function object")
            if vnorm.dim != g.d:
                raise ValueError("norm dimension does not match function")
        widths = np.array([g.coeffs.shape[1] for g in members])
        if target is not None:
            widths = np.maximum(widths, [t.coeffs.shape[1] for t in target])
        self.groups = []
        for k1, idx in _groups(widths):
            st = _Stack.of([members[i] for i in idx], k1)
            if target is not None:
                st = _weighted_sum([st, _Stack.of([target[i] for i in idx],
                                                  k1)], (1.0, -1.0), st.m)
            self.groups.append((idx,) + self._norms(st, vnorm))

    def _norms(self, st, vnorm):
        d = st.c.shape[2]
        if d == 1:
            return PolyField, _abs(st)
        if vnorm.selector == "sum":
            # |f_j| of all components in one stack, added in component order
            parts = _abs(_components(st))
            rows = [(parts.owner % d == j).nonzero()[0] for j in range(d)]
            return PolyField, _weighted_sum(
                [_Stack(parts.owner[r] // d, parts.lo[r], parts.hi[r],
                        _rows(parts.c, r), st.m) for r in rows],
                [1.0] * d, st.m)
        if vnorm.selector == "euclidean":
            return SqrtPolyField, _split_at_roots(
                st.recoef(_square_sum(st.c)[:, :, None]))
        # the max of f_0, -f_0, f_1, -f_1, ... per member
        signed = np.stack([st.c, st.c * -1.0], axis=3).reshape(
            st.c.shape[:2] + (2 * d,))
        return PolyField, _envelope(_components(st.recoef(signed)), 2 * d)

    def _per_member(self, poly, sqrt):
        out = np.empty(self.m)
        for idx, cls, st in self.groups:
            out[idx] = (poly if cls is PolyField else sqrt)(st)
        return out

    def lp(self, p):
        """Each member's Bochner norm (integral of ||g_i - target||^p)^(1/p)."""
        p = _exponent(p)
        if self.values is not None:
            return _atom_lp(self.values, self.space.weights, p)
        return self._per_member(lambda st: _lp(st, p),
                                lambda st: _sqrt_lp(st, p))

    def sup(self):
        """Each member's sup over the space of ||g_i - target||."""
        if self.values is not None:
            return self.values.max(axis=1)
        return self._per_member(_sup, lambda st: _sqrt_each(_sup(st)))

    def sup_field(self):
        """The pointwise sup of the members' norm fields, as
        grid_sup_field(self.fields()) gives it; for one coefficient width
        from the family's own stack, with no field built per member."""
        if self.values is not None:
            return AtomField(self.space, np.maximum.reduce(self.values))
        if self.m == 1 or len(self.groups) > 1:
            return grid_sup_field(self.fields())
        _, cls, st = self.groups[0]
        return _sup_field(st, cls, self.space)

    def fields(self):
        """Each member's norm field."""
        if self.values is not None:
            return [AtomField(self.space, v) for v in self.values]
        out = [None] * self.m
        for idx, cls, st in self.groups:
            for i, fn in zip(idx, st.functions(self.space)):
                out[i] = cls(fn)
        return out


def pointwise_norm(f, vnorm):
    """The scalar field x -> ||f(x)||_X."""
    return NormFamily([f], vnorm).fields()[0]


def defect_max(*defects):
    """Largest defect or value, NaN if any is NaN (the builtin
    max(0.0, nan) is 0.0, which would let a NaN defect pass its check)."""
    defects = [float(d) for d in defects]
    return math.nan if any(map(math.isnan, defects)) else max(defects)
