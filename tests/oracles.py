"""Independent reference computations for the test suite.

Everything here works on plain callables and dense grids: midpoint
Riemann sums, brute-force loops, explicit permutation orbits.  Nothing
imports the package under test, so agreement is evidence, not
circularity.  Frozen constants in the tests were produced by these
routines; rerun them if a fixture changes.
"""

import numpy as np


def midpoints(n):
    return (np.arange(n) + 0.5) / n


def riemann_lp(fn, p, n=200_001):
    """L^p norm of a scalar callable on the unit circle."""
    vals = np.abs(fn(midpoints(n)))
    return (np.mean(vals ** p)) ** (1.0 / p)


def riemann_sup(fn, n=200_001):
    return float(np.max(np.abs(fn(midpoints(n)))))


def riemann_measure(fn, lam, n=200_001):
    """Lebesgue measure of {fn >= lam}, midpoint estimate."""
    return float(np.mean(fn(midpoints(n)) >= lam))


def brute_rotation_average(fn, theta, t, x, n=200_001):
    """(1/t) * integral_0^t fn(frac(x + tau * theta)) dtau by midpoints.

    fn maps an array of circle points to (m,) or (m, d) values.
    """
    tau = t * midpoints(n)
    pts = np.mod(x + tau * theta, 1.0)
    return np.mean(np.atleast_2d(fn(pts).T).T, axis=0)


def brute_step_average(values, perm, t, h):
    """Direct accumulation of the step-flow time average.

    values: (natoms, d); the orbit holds each permuted copy for h time
    units, the leftover fraction weights the last one.
    """
    values = np.asarray(values, dtype=float)
    n_full = int(np.floor(t / h + 1e-12))
    acc = np.zeros_like(values)
    cur = values.copy()
    for _ in range(n_full):
        acc += h * cur
        cur = cur[perm]
    acc += (t - n_full * h) * cur
    return acc / t


def loop_split(t, h):
    """Whole steps floor(t/h) and leftover time, in extended precision,
    snapping a leftover within 1e-13 relative of 0 or h."""
    n = int(np.floor(np.longdouble(t) / np.longdouble(h)))
    rem = float(np.longdouble(t) - np.longdouble(n) * np.longdouble(h))
    if rem >= h * (1.0 - 1e-13):
        return n + 1, 0.0
    return n, (0.0 if rem < h * 1e-13 else rem)


def loop_orbit_sum(values, perm, n):
    """Sum of values[perm^k(i)] over k < n, added one term at a time in
    increasing k from +0.0; also returns perm^n."""
    acc = np.zeros_like(values)
    cur = np.arange(values.shape[0])
    for _ in range(n):
        acc += values[cur]
        cur = perm[cur]
    return acc, cur


def loop_step_average(values, perm, t, h):
    """Step-flow time average in the sequential summation order, so a
    correct implementation matches it bit for bit (unlike
    brute_step_average, which adds h*cur and rounds differently)."""
    n, rem = loop_split(t, h)
    acc, cur = loop_orbit_sum(values, perm, n)
    acc *= h
    if rem > 0.0:
        acc += rem * values[cur]
    return acc / t


def loop_gl_integrate(fn, lo, hi, tol=1e-11, depth=0):
    """Adaptive Gauss-Legendre on one interval: rules of 8 to 256 nodes
    until two agree, else bisection down to depth 24."""
    width = hi - lo
    if width <= 0.0:
        return 0.0
    if width < 1e-15:
        return width * float(fn(np.array([0.5 * (lo + hi)]))[0])
    prev = None
    for n in (8, 16, 32, 64, 128, 256):
        nodes, wts = np.polynomial.legendre.leggauss(n)
        x = 0.5 * width * nodes + 0.5 * (lo + hi)
        val = 0.5 * width * float(wts @ np.asarray(fn(x), dtype=float))
        if prev is not None and abs(val - prev) <= max(tol, tol * abs(val)):
            return val
        prev = val
    if depth >= 24:
        return prev
    mid = 0.5 * (lo + hi)
    return (loop_gl_integrate(fn, lo, mid, tol, depth + 1)
            + loop_gl_integrate(fn, mid, hi, tol, depth + 1))


def loop_cumint(fn, breaks, y):
    """F(y) = integral_0^y fn at each y, clipped to [0, 1]: the breaks are
    cut at every y, each segment is integrated on its own by
    loop_gl_integrate, and a running sum in segment order adds them up."""
    y = [min(max(float(v), 0.0), 1.0) for v in y]
    ends = sorted(set(float(b) for b in breaks) | set(y))
    big_f = {ends[0]: 0.0}
    f = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        f += loop_gl_integrate(fn, lo, hi)
        big_f[hi] = f
    return np.array([big_f[v] for v in y])


def loop_real_roots(coeffs, lo, hi, margin=1e-13, imag_tol=1e-9):
    """Real roots of each row's ascending polynomial strictly inside
    (lo[i], hi[i]), one np.roots call per row: (row, root) arrays, sorted
    and unique within a row.  A row with a non-finite coefficient has no
    roots."""
    rows, roots = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for i, coef in enumerate(np.asarray(coeffs, dtype=float)):
        c = np.trim_zeros(coef, "b")
        if c.size <= 1 or not np.isfinite(c).all():
            continue
        r = np.roots(c[::-1])
        r = r[np.abs(r.imag) <= imag_tol].real
        r = np.unique(r[(r > lo[i] + margin) & (r < hi[i] - margin)])
        rows.append(np.full(r.size, i, dtype=np.intp))
        roots.append(r)
    return np.concatenate(rows), np.concatenate(roots)


def loop_poly_pow(coeffs, k):
    """k-th power of each row's ascending polynomial, one np.convolve per
    row and factor."""
    rows = []
    for coef in np.asarray(coeffs, dtype=float):
        pw = np.array([1.0])
        for _ in range(k):
            pw = np.convolve(pw, coef)
        rows.append(pw)
    return np.asarray(rows)


def loop_radicand(coeffs):
    """sum_j c_j^2 of each piece of an ascending (pieces, k1, d) table, one
    np.convolve per piece and component, added from 0.0."""
    n, k1, d = coeffs.shape
    out = np.zeros((n, 2 * k1 - 1))
    for i in range(n):
        for j in range(d):
            out[i] += np.convolve(coeffs[i, :, j], coeffs[i, :, j])
    return out


def loop_power_integral(breaks, coeffs, k):
    """Integral of p^k over the circle for a piecewise polynomial with
    ascending (pieces, k1) coeffs: exact on each piece, added piece by
    piece."""
    total = 0.0
    for i, pw in enumerate(loop_poly_pow(coeffs, k)):
        e = np.arange(1, pw.size + 1)
        total += float(pw / e @ (breaks[i + 1] ** e - breaks[i] ** e))
    return total


def loop_eval(breaks, coeffs, x):
    """Piecewise polynomial (ascending (pieces, k1) coeffs) at circle points
    x, evaluated as a table lookup and one einsum over the points."""
    xm = np.mod(np.atleast_1d(np.asarray(x, dtype=float)), 1.0)
    idx = np.clip(np.searchsorted(breaks, xm, side="right") - 1, 0,
                  breaks.size - 2)
    powers = xm[:, None] ** np.arange(coeffs.shape[1])
    return np.einsum("nk,nkd->nd", powers, coeffs[idx][:, :, None])[:, 0]


def loop_sup(breaks, coeffs):
    """Largest value at the piece ends and interior critical points,
    piece by piece."""
    best = -np.inf
    k1 = coeffs.shape[1]
    der = coeffs[:, 1:] * np.arange(1, k1)
    for i in range(coeffs.shape[0]):
        cand = [breaks[i], breaks[i + 1]]
        cand.extend(loop_real_roots(der[i:i + 1], breaks[i:i + 1],
                                    breaks[i + 1:i + 2])[1].tolist())
        xs = np.asarray(cand)
        vals = xs[:, None] ** np.arange(k1) @ coeffs[i]
        best = max(best, float(np.max(vals)))
    return best


def loop_superlevel(breaks, coeffs, lam):
    """Measure of {p >= lam}, cutting each piece at its level crossings and
    adding the widths piece by piece."""
    total = 0.0
    for i in range(coeffs.shape[0]):
        shifted = coeffs[i:i + 1].copy()
        shifted[0, 0] -= lam
        roots = loop_real_roots(shifted, breaks[i:i + 1],
                                breaks[i + 1:i + 2])[1]
        cuts = np.concatenate([[breaks[i]], roots, [breaks[i + 1]]])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        above = loop_eval(breaks, coeffs, mids) >= lam
        total += float(np.sum(np.diff(cuts)[above]))
    return total


def loop_split_edges(breaks, coeffs):
    """Breaks refined at every piece's interior roots."""
    cuts = [breaks]
    for i in range(coeffs.shape[0]):
        cuts.append(loop_real_roots(coeffs[i:i + 1], breaks[i:i + 1],
                                    breaks[i + 1:i + 2])[1])
    return np.unique(np.concatenate(cuts))


def _closed_form_crossings(tabs, lo, hi, margin=1e-13, lead_tol=1e-14):
    """Linear and quadratic crossings of every member pair on every edge,
    as cuts_per[edge] lists (members of degree <= 2)."""
    m, ne, k1 = tabs.shape
    ii, jj = np.triu_indices(m, k=1)
    c0 = tabs[ii, :, 0] - tabs[jj, :, 0]
    c1 = tabs[ii, :, 1] - tabs[jj, :, 1]
    c2 = tabs[ii, :, 2] - tabs[jj, :, 2] if k1 == 3 else np.zeros_like(c0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = -c0 / c1
        disc = c1 * c1 - 4.0 * c2 * c0
        sq = np.sqrt(np.maximum(disc, 0.0))
        qa = (-c1 - np.sign(c1 + (c1 == 0.0)) * sq) / 2.0
        r1 = np.where(np.abs(qa) > 0.0, qa / c2, np.inf)
        r2 = np.where(np.abs(qa) > 0.0, c0 / qa, np.inf)
    quad = np.abs(c2) > lead_tol
    cuts_per = [[] for _ in range(ne)]
    for roots, valid in ((lin, ~quad & (np.abs(c1) > lead_tol)),
                         (r1, quad & (disc > 0.0)),
                         (r2, quad & (disc > 0.0))):
        ok = valid & (roots > lo + margin) & (roots < hi - margin)
        for pi, ei in zip(*np.nonzero(ok)):
            cuts_per[ei].append(roots[pi, ei])
    return cuts_per


def _loop_pair_max(left, right):
    """Pointwise maximum of two (breaks, coeffs) members: the union of
    their breaks, cut edge by edge at the crossings of left - right, and
    on each segment the member larger at its midpoint (left on a tie or
    NaN, as argmax picks)."""
    edges = np.unique(np.concatenate([left[0], right[0]]))
    lo, hi = edges[:-1], edges[1:]
    mids = 0.5 * (lo + hi)
    tabs = np.stack([c[np.clip(np.searchsorted(b, mids, side="right") - 1,
                               0, b.size - 2)] for b, c in (left, right)])
    k1 = tabs.shape[2]
    if k1 == 1:
        cuts_per = [[] for _ in lo]
    elif k1 <= 3:
        cuts_per = _closed_form_crossings(tabs, lo, hi)
    else:
        cuts_per = [[] for _ in lo]
        rows, roots = loop_real_roots(tabs[0] - tabs[1], lo, hi)
        for e, x in zip(rows, roots):
            cuts_per[e].append(x)
    out_edges, out_coeffs = [0.0], []
    for e in range(lo.size):
        pts = np.unique(np.concatenate(
            [[lo[e], hi[e]], np.asarray(cuts_per[e], dtype=float)]))
        mids = 0.5 * (pts[:-1] + pts[1:])
        powers = mids[:, None] ** np.arange(k1)
        vals = [np.einsum("nk,nkd->nd", powers,
                          np.repeat(tab[e][None, :, None], mids.size, 0))[:, 0]
                for tab in tabs]
        for s in range(mids.size):
            out_edges.append(pts[s + 1])
            out_coeffs.append(tabs[int(np.argmax([vals[0][s], vals[1][s]])), e])
    return np.asarray(out_edges), np.asarray(out_coeffs)


def loop_pair_envelope(members):
    """Pointwise maximum of piecewise polynomials, members a list of
    (breaks, coeffs) with ascending (pieces, k1) coeffs of one width: in
    rounds, members 2i and 2i + 1 are replaced by their maximum (an odd
    member out is paired with itself), one pair at a time.  Returns
    (breaks, coeffs)."""
    members = list(members)
    while len(members) > 1:
        last = len(members) - 1
        members = [_loop_pair_max(members[i], members[min(i + 1, last)])
                   for i in range(0, len(members), 2)]
    return members[0]


def _poly_at(a, x):
    """Ascending polynomial a at one point x: the power row and one einsum
    dot, as loop_eval forms them."""
    return np.einsum("k,k->", np.float64(x) ** np.arange(a.size), a)


def loop_cell_averages(breaks, coeffs, bounds):
    """Means over the cells [bounds[i], bounds[i + 1]] of a scalar piecewise
    polynomial with ascending (pieces, k1) coeffs, one cell at a time: the
    antiderivative is built piece by piece, continuous and 0 at x = 0, and
    read at each cell's two ends (a break belongs to the piece it starts)."""
    k1 = coeffs.shape[1]
    prims, offset = [], 0.0
    for i, coef in enumerate(np.asarray(coeffs, dtype=float)):
        prim = np.concatenate([[0.0], coef / np.arange(1, k1 + 1)])
        left, right = _poly_at(prim, breaks[i]), _poly_at(prim, breaks[i + 1])
        prim[0] = 0.0 + (offset - left)
        prims.append(prim)
        offset = offset + (right - left)

    def prim_at(x):
        i = min(max(int(np.searchsorted(breaks, x, side="right")) - 1, 0),
                len(prims) - 1)
        return _poly_at(prims[i], x)

    return np.array([(prim_at(hi) - prim_at(lo)) / (hi - lo)
                     for lo, hi in zip(bounds[:-1], bounds[1:])])


def loop_atom_cell_integrals(weights, values, cells):
    """Weighted sums of atom values, scalar (n,) or vector (n, d), over each
    cell of atom indices, one cell at a time: the cell's weights times its
    value rows.  One (d,) row per cell, in the order of cells."""
    rows = np.asarray(values, dtype=float).reshape(len(values), -1)
    sums = []
    for cell in cells:
        idx = np.asarray(cell, dtype=int)
        sums.append(weights[idx] @ rows[idx])
    return np.array(sums)


def loop_atom_cell_averages(weights, values, cells):
    """Per-atom weighted means of atom values, scalar (n,) or vector (n, d),
    over each cell of atom indices, one cell at a time: the cell's weighted
    sum over the cell's total weight."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v.reshape(len(v), -1))
    for cell, total in zip(cells, loop_atom_cell_integrals(weights, v, cells)):
        idx = np.asarray(cell, dtype=int)
        out[idx] = total / weights[idx].sum()
    return out.reshape(v.shape)


def brute_cell_average(fn, lo, hi, n=200_001):
    """Mean of a callable over [lo, hi) by midpoint quadrature."""
    pts = lo + (hi - lo) * midpoints(n)
    return np.mean(np.atleast_2d(fn(pts).T).T, axis=0)


def brute_cond_exp(fn, bounds, x, n=50_001):
    """Conditional expectation of fn w.r.t. interval cells, at points x."""
    bounds = np.asarray(bounds, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0,
                  len(bounds) - 2)
    cells = [brute_cell_average(fn, bounds[i], bounds[i + 1], n)
             for i in range(len(bounds) - 1)]
    return np.asarray([cells[i] for i in idx])


def sawtooth_vals(x, a=1.0, phase=0.0):
    return a * (np.mod(x + phase, 1.0) - 0.5)


def hat_vals(x, a=1.0, phase=0.0):
    u = np.mod(x + phase, 1.0)
    return a * np.where(u < 0.5, 2.0 * u - 0.5, 1.5 - 2.0 * u)


def dense_envelope(fns, n=200_001):
    """Pointwise max of scalar callables on a dense circle grid."""
    pts = midpoints(n)
    return pts, np.max([fn(pts) for fn in fns], axis=0)


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
