import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.fields import (
    AtomField,
    GenericField,
    NormFamily,
    PolyField,
    SqrtPolyField,
    _piece_roots,
    _split_at_roots,
    gl_integrate,
    grid_sup_field,
    lp_norm,
    pointwise_norm,
    real_roots_in,
    sup_norm,
    upper_envelope,
)
from ergolab import fields
from ergolab.condexp import cond_exp_dominant
from ergolab.functions import (AtomFunction, CircleFunction, from_smooth, hat,
                               merge_sum, sawtooth)
from ergolab.spaces import (
    VectorNorm,
    circle_space,
    discrete_space,
)

import oracles


def _grid(n=2001):
    return (np.arange(n) + 0.431) / n


def test_gl_integrate_smooth():
    val = gl_integrate(lambda x: np.sin(2 * np.pi * x) ** 2, 0.0, 1.0)
    assert val == pytest.approx(0.5, abs=1e-13)


def test_gl_ladder_stops_once_every_interval_settles(monkeypatch):
    real, rules = fields._gl_nodes, []

    def recorded(n):
        rules.append(n)
        return real(n)
    monkeypatch.setattr(fields, "_gl_nodes", recorded)
    assert gl_integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3)
    assert rules == [8, 16]


def test_real_roots_in_quadratic():
    # (x - 0.3)(x - 0.7)
    roots = real_roots_in(np.array([0.21, -1.0, 1.0]), 0.0, 1.0)
    assert np.allclose(np.sort(roots), [0.3, 0.7], atol=1e-12)
    assert real_roots_in(np.array([1.0, 0.0, 1.0]), 0.0, 1.0).size == 0
    # zero top coefficients drop the degree: 0.4 - x is linear
    assert np.allclose(real_roots_in(np.array([0.4, -1.0, 0.0, 0.0]), 0.0, 1.0),
                       [0.4], atol=1e-15)
    # a zero constant term is a root at 0: x (x - 0.25)
    roots = real_roots_in(np.array([0.0, -0.25, 1.0]), -0.5, 0.5)
    assert roots.tobytes() == np.array([0.0, 0.25]).tobytes()
    assert real_roots_in(np.array([0.0, -0.25, 1.0]), 0.0, 0.5).tolist() == [0.25]


def test_max_norm_of_scalar_is_abs():
    f = sawtooth(d=1, phases=[0.3])
    g = pointwise_norm(f, VectorNorm("max", 1)).fn
    x = _grid()
    assert np.allclose(g(x)[:, 0], np.abs(f(x)[:, 0]), atol=1e-14)


def test_polyfield_lp_sawtooth():
    field = pointwise_norm(sawtooth(d=1), VectorNorm("euclidean", 1))
    # integral of |x - 1/2|^3 is 1/32
    assert field.lp(3) == pytest.approx(0.3149802624737183, rel=1e-12)
    assert field.lp(1) == pytest.approx(0.25, rel=1e-13)
    assert field.sup() == pytest.approx(0.5)
    ref = oracles.riemann_lp(lambda x: np.abs(oracles.sawtooth_vals(x)), 3)
    assert field.lp(3) == pytest.approx(ref, abs=1e-7)


def test_polyfield_fractional_p_quadrature():
    field = pointwise_norm(sawtooth(d=1), VectorNorm("euclidean", 1))
    ref = oracles.riemann_lp(lambda x: np.abs(oracles.sawtooth_vals(x)), 1.5)
    assert field.lp(1.5) == pytest.approx(ref, abs=1e-7)


def test_polyfield_superlevel_measure():
    field = pointwise_norm(sawtooth(d=1), VectorNorm("euclidean", 1))
    # |x - 1/2| >= 1/4 on two quarter intervals
    assert field.superlevel_measure(0.25) == pytest.approx(0.5, abs=1e-12)
    assert field.superlevel_measure(0.75) == 0.0
    ref = oracles.riemann_measure(
        lambda x: np.abs(oracles.sawtooth_vals(x)), 0.25)
    assert field.superlevel_measure(0.25) == pytest.approx(ref, abs=1e-4)


def test_polyfield_cumint_and_cells():
    # the cell averages of a PolyField come from cond_exp_dominant; their
    # running sums are the running integrals at the dyadic bounds
    field = pointwise_norm(sawtooth(d=1), VectorNorm("euclidean", 1))
    halves = cond_exp_dominant(field, circle_space().partition(1))
    cum = np.r_[0.0, np.cumsum(halves.eval(np.array([0.25, 0.75])) * 0.5)]
    assert np.allclose(cum, [0.0, 0.125, 0.25])
    part = circle_space().partition(2)
    cells = cond_exp_dominant(field, part).eval(np.array([0.1, 0.3, 0.6, 0.9]))
    assert np.allclose(cells, [0.375, 0.125, 0.125, 0.375])


def test_pointwise_norm_selectors_match_numeric():
    f = hat(d=2, amplitudes=[0.7, 0.4], phases=[0.25, 0.8])
    x = _grid()
    for sel in ("euclidean", "max", "sum"):
        vnorm = VectorNorm(sel, 2)
        field = pointwise_norm(f, vnorm)
        assert np.max(np.abs(field.eval(x) - vnorm(f(x)))) < 1e-12


def test_pointwise_norm_dimension_check():
    with pytest.raises(ValueError):
        pointwise_norm(hat(d=2), VectorNorm("max", 3))


def test_sqrt_field_exact_l2():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5])
    field = pointwise_norm(f, VectorNorm("euclidean", 2))
    assert isinstance(field, SqrtPolyField)
    # integral of (1 + 1/4)(x - 1/2)^2 is 1.25 / 12
    assert field.lp(2) == pytest.approx(np.sqrt(1.25 / 12), rel=1e-12)
    ref = oracles.riemann_lp(
        lambda x: np.sqrt(oracles.sawtooth_vals(x) ** 2
                          + oracles.sawtooth_vals(x, 0.5) ** 2), 3)
    assert field.lp(3) == pytest.approx(ref, abs=1e-7)
    assert field.sup() == pytest.approx(np.sqrt(1.25) / 2, rel=1e-12)


def test_sqrt_field_superlevel():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5])
    field = pointwise_norm(f, VectorNorm("euclidean", 2))
    lam = 0.3
    ref = oracles.riemann_measure(
        lambda x: np.sqrt(oracles.sawtooth_vals(x) ** 2
                          + oracles.sawtooth_vals(x, 0.5) ** 2), lam)
    assert field.superlevel_measure(lam) == pytest.approx(ref, abs=1e-4)


def test_lp_and_sup_norm_wrappers():
    f = hat(d=1)
    vnorm = VectorNorm("euclidean", 1)
    assert sup_norm(f, vnorm) == pytest.approx(0.5)
    assert lp_norm(f, 1, vnorm) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5, vnorm)


_BAD_EXPONENTS = (0.5, np.inf, np.nan, -np.inf)


def _lp_fields():
    saw2 = sawtooth(d=2, amplitudes=[1.0, 0.5])
    return {
        "poly": pointwise_norm(hat(d=1), VectorNorm("max", 1)),
        "sqrt": pointwise_norm(saw2, VectorNorm("euclidean", 2)),
        "generic": GenericField(circle_space(), lambda x: np.abs(x - 0.5),
                                [0.5], lambda x: np.sign(x - 0.5)),
        "atom": AtomField(discrete_space(np.array([0.5, 0.5])),
                          np.array([1.0, 2.0])),
    }


@pytest.mark.parametrize("kind", ["poly", "sqrt", "generic", "atom"])
def test_field_lp_rejects_exponents_that_are_not_finite_and_at_least_one(kind):
    field = _lp_fields()[kind]
    assert field.lp(2) > 0.0
    for p in _BAD_EXPONENTS:
        with pytest.raises(ValueError, match="finite number >= 1"):
            field.lp(p)


@pytest.mark.parametrize("members", [
    [hat(d=1), sawtooth(d=1)],
    [AtomFunction(discrete_space(np.array([0.5, 0.5])), np.array([1.0, 2.0]))],
])
def test_norm_family_and_lp_norm_reject_bad_exponents(members):
    vnorm = VectorNorm("max", 1)
    for p in _BAD_EXPONENTS:
        with pytest.raises(ValueError, match="finite number >= 1"):
            NormFamily(members, vnorm).lp(p)
        with pytest.raises(ValueError, match="finite number >= 1"):
            lp_norm(members[0], p, vnorm)


def test_upper_envelope_of_hats():
    a = pointwise_norm(hat(d=1, phases=[0.1]), VectorNorm("max", 1))
    b = pointwise_norm(hat(d=1, phases=[0.55]), VectorNorm("max", 1))
    env = upper_envelope([a, b])
    x = _grid()
    ref = np.maximum(a.eval(x), b.eval(x))
    assert np.max(np.abs(env.eval(x) - ref)) < 1e-12
    _, dense = oracles.dense_envelope([a.eval, b.eval])
    assert env.sup() >= np.max(dense) - 1e-12


def test_grid_sup_field_sqrt_members():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    vnorm = VectorNorm("euclidean", 2)
    members = [pointwise_norm(f, vnorm),
               pointwise_norm(f.rotate(0.2), vnorm),
               pointwise_norm(f.rotate(0.45), vnorm)]
    sup = grid_sup_field(members)
    x = _grid()
    ref = np.max([m.eval(x) for m in members], axis=0)
    assert np.max(np.abs(sup.eval(x) - ref)) < 1e-12


def test_grid_sup_field_singleton_passthrough():
    field = pointwise_norm(hat(d=1), VectorNorm("max", 1))
    assert grid_sup_field([field]) is field


def test_grid_sup_field_rejects_a_mixed_family():
    # one NormFamily's fields are all of one kind; a PolyField among
    # square-root fields is refused, not squared into a radicand
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    mixed = [pointwise_norm(f, VectorNorm("euclidean", 2)),
             pointwise_norm(f, VectorNorm("max", 2))]
    for members in (mixed, mixed[::-1]):
        with pytest.raises(ValueError):
            grid_sup_field(members)


def test_generic_field_quadrature():
    field = GenericField(
        circle_space(),
        lambda x: np.abs(np.sin(2 * np.pi * x)),
        [0.5],
        lambda x: 2 * np.pi * np.cos(2 * np.pi * x) * np.sign(0.5 - x))
    assert field.integral() == pytest.approx(2 / np.pi, abs=1e-12)
    assert field.sup() == pytest.approx(1.0, abs=1e-9)
    assert field.lp(2) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_atom_field_calculus():
    sp = discrete_space(np.array([0.1, 0.2, 0.3, 0.4]))
    field = AtomField(sp, np.array([2.0, 0.0, 1.0, 3.0]))
    assert field.integral() == pytest.approx(1.7)
    assert field.sup() == 3.0
    assert field.lp(2) == pytest.approx(np.sqrt(4.3))
    assert field.superlevel_measure(1.0) == pytest.approx(0.8)


def test_atom_field_wrong_size():
    sp = discrete_space(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        AtomField(sp, np.zeros(3))


def test_atom_envelope():
    sp = discrete_space(np.full(3, 1 / 3))
    a = AtomField(sp, np.array([1.0, 5.0, 2.0]))
    b = AtomField(sp, np.array([4.0, 0.0, 3.0]))
    env = upper_envelope([a, b])
    assert np.allclose(env.values, [4.0, 5.0, 3.0])
    # a grid's family at once (atoms have no breaks, so one maximum over
    # all members); a NaN atom stays NaN
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, (12, 3))
    vals[5, 1] = np.nan
    env = grid_sup_field([AtomField(sp, v) for v in vals])
    assert _same(env.values, np.maximum.reduce(vals))


def _random_poly_members(rng, nmembers, degree):
    edges = np.array([0.0, 1.0])
    out = []
    for _ in range(nmembers):
        coeffs = rng.uniform(-2.0, 2.0, size=(1, degree + 1, 1))
        out.append(PolyField(CircleFunction(edges, coeffs)))
    return out


@settings(derandomize=True, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
def test_envelope_linear_members_matches_dense_max(seed, nmembers):
    rng = np.random.default_rng(seed)
    members = _random_poly_members(rng, nmembers, 1)
    env = upper_envelope(members)
    x = _grid(997)
    ref = np.max([m.eval(x) for m in members], axis=0)
    assert np.max(env.eval(x) - ref) < 1e-9
    assert np.min(env.eval(x) - ref) > -1e-9


@settings(derandomize=True, max_examples=30)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5))
def test_envelope_quadratic_members_matches_dense_max(seed, nmembers):
    rng = np.random.default_rng(seed)
    members = _random_poly_members(rng, nmembers, 2)
    env = upper_envelope(members)
    x = _grid(997)
    ref = np.max([m.eval(x) for m in members], axis=0)
    assert np.max(np.abs(env.eval(x) - ref)) < 1e-9


@settings(derandomize=True, max_examples=15)
@given(st.integers(0, 2 ** 31 - 1))
def test_envelope_cubic_members_root_path(seed):
    rng = np.random.default_rng(seed)
    members = _random_poly_members(rng, 3, 3)
    env = upper_envelope(members)
    x = _grid(997)
    ref = np.max([m.eval(x) for m in members], axis=0)
    assert np.max(np.abs(env.eval(x) - ref)) < 1e-9


# -- batched roots against per-piece loops ------------------------------------


def _breaks(rng, n):
    inner = np.sort(rng.choice(np.arange(1, 8 * n), size=n - 1, replace=False))
    return np.concatenate([[0.0], inner / (8.0 * n), [1.0]])


def _from_roots(roots, lead=1.0):
    """Ascending coefficients of lead * prod (x - r)."""
    return (lead * np.atleast_1d(np.poly(roots)))[::-1].real


def _root_cases(rng, breaks, k1):
    """One coefficient row per piece: random rows with zero leading and
    trailing coefficients mixed in, all-zero and constant rows, double
    roots, complex pairs and roots just inside or outside the margin."""
    n = breaks.size - 1
    c = rng.uniform(-2.0, 2.0, (n, k1))
    c[rng.random((n, k1)) < 0.2] = 0.0
    lo, hi = breaks[:-1], breaks[1:]
    for i in range(n):
        kind = i % 8
        mid = 0.5 * (lo[i] + hi[i])
        deg = rng.integers(1, k1) if k1 > 1 else 0
        if kind == 1:
            c[i] = 0.0
        elif kind == 2:
            c[i] = 0.0
            c[i, 0] = rng.uniform(-1.0, 1.0)
        elif kind == 3 and deg >= 2:
            roots = np.r_[mid, mid, rng.uniform(lo[i], hi[i], deg - 2)]
            c[i] = 0.0
            c[i, :deg + 1] = _from_roots(roots, rng.uniform(0.5, 2.0))
        elif kind == 4 and deg >= 2:
            pair = [mid + 1e-3j, mid - 1e-3j]
            roots = np.r_[pair, rng.uniform(lo[i], hi[i], deg - 2)]
            c[i] = 0.0
            c[i, :deg + 1] = _from_roots(roots)
        elif kind == 5 and deg >= 1:
            edge = [lo[i] + 5e-14, hi[i] - 5e-14, lo[i] + 3e-13,
                    hi[i] - 3e-13][i % 4]
            roots = np.r_[edge, rng.uniform(lo[i], hi[i], deg - 1)]
            c[i] = 0.0
            c[i, :deg + 1] = _from_roots(roots)
        elif kind == 6 and deg >= 1:
            c[i] = 0.0
            c[i, 1:deg + 1] = rng.uniform(-1.0, 1.0, deg)
    return c


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


@pytest.mark.parametrize("k1", [1, 2, 3, 4, 5, 9])
def test_piece_roots_matches_per_piece_np_roots(k1):
    rng = np.random.default_rng(100 + k1)
    breaks = _breaks(rng, 400)
    coeffs = _root_cases(rng, breaks, k1)
    # shifted intervals put x = 0 inside some pieces
    lo, hi = breaks[:-1] - 0.5, breaks[1:] - 0.5
    for a, b in ((breaks[:-1], breaks[1:]), (lo, hi)):
        piece, root = _piece_roots(coeffs, a, b)
        ref_piece, ref_root = oracles.loop_real_roots(coeffs, a, b)
        assert _same(piece, ref_piece) and _same(root, ref_root)


# -- root exclusion: rows on the edge of the Bernstein bound ------------------


_EDGE_KINDS = ["tangent", "complex", "cluster", "scaled_end", "zero_inside",
               "trailing_zeros", "tiny_lead", "nonfinite"]


def _log_uniform(rng, lo_exp, hi_exp, size=None):
    return 10.0 ** rng.uniform(lo_exp, hi_exp, size)


def _rows_from_roots(roots, lead):
    """Ascending coefficients of lead * prod (x - r) for each row of roots
    (n, m), a NaN root standing for none: one pass per root column."""
    c = np.zeros((roots.shape[0], roots.shape[1] + 1), dtype=complex)
    c[:, 0] = lead
    for r in roots.T:
        has = ~np.isnan(r)
        shifted = np.roll(c, 1, axis=1) - r[:, None] * c
        c[has] = shifted[has]
    return c.real


def _edge_rows(rng, kind, n, k1):
    """n rows of width k1 (degree 2 to k1 - 1, zero-padded on top) and their
    intervals, of widths 1e-9 to 1e-1, placed on or beside a root feature:
    tangent rows (x - a)^2 q +- delta with delta from 1e-30 to 1e-8;
    complex pairs a +- iy with y from 1e-11 to 1e-7 (across _ROOT_IMAG_TOL);
    root clusters; rows scaled by 1e6 with a root within 2e-13 of an end or
    further out; intervals that hold 0 (with roots near 0); rows with
    stripped low-order zeros; rows whose leading coefficient is tiny against
    the others; and tangent rows with a NaN or infinite coefficient on every
    third row."""
    m = k1 - 1
    deg = rng.integers(2, k1, n)
    col = np.arange(m)
    a = rng.uniform(-1.0, 1.0, n)
    sign = rng.choice([-1.0, 1.0], (4, n))
    # real roots far from every interval keep the feature the only one
    roots = (rng.uniform(1.5, 4.0, (n, m))
             * rng.choice([-1.0, 1.0], (n, m))).astype(complex)
    lead = sign[0] * _log_uniform(rng, -2, 2, n)
    width = _log_uniform(rng, -9, -1, n)
    # the interval holds the feature, touches it or sits just beside it
    at = a + sign[1] * _log_uniform(rng, -11, -1, n)
    start = at - rng.uniform(-1.0, 2.0, n) * width
    if kind in ("tangent", "nonfinite"):
        roots[:, :2] = a[:, None]
    elif kind == "complex":
        y = _log_uniform(rng, -11, -7, n)
        roots[:, 0], roots[:, 1] = a + 1j * y, a - 1j * y
    elif kind == "cluster":
        roots = a[:, None] + (_log_uniform(rng, -8, -3, n)[:, None]
                              * rng.standard_normal((n, m)))
    elif kind == "scaled_end":
        # half of the roots within 2e-13 of an end, half further out
        end = start + width * (np.arange(n) % 2)
        gap = np.where(np.arange(n) % 4 < 2, rng.uniform(-2e-13, 2e-13, n),
                       sign[2] * _log_uniform(rng, -13, -1, n))
        roots[:, 0] = end + gap
        lead = lead * 1e6
    elif kind == "zero_inside":
        start = -rng.uniform(0.0, 1.0, n) * width
        roots[:, :2] = width[:, None] * rng.uniform(-2.0, 2.0, (n, 2))
    elif kind == "trailing_zeros":
        zeros = rng.integers(1, deg)
        roots = np.where(col < zeros[:, None], 0.0,
                         np.where(col == zeros[:, None], a[:, None], roots))
        start = np.where(np.arange(n) % 2, -rng.uniform(0.0, 1.0, n) * width,
                         start)
    else:  # tiny_lead
        roots[:, 0] = a
    roots[col >= deg[:, None]] = np.nan
    c = _rows_from_roots(roots, lead)
    rows = np.arange(n)
    if kind in ("tangent", "nonfinite"):
        c[:, 0] += sign[3] * _log_uniform(rng, -30, -8, n)
    elif kind == "trailing_zeros":
        c[np.arange(k1) < zeros[:, None]] = 0.0
    elif kind == "tiny_lead":
        c[rows, deg] *= _log_uniform(rng, -17, -6, n)
    if kind == "nonfinite":
        bad = rows[::3]
        c[bad, rng.integers(0, deg[bad] + 1)] = rng.choice(
            [np.nan, np.inf, -np.inf], bad.size)
    return c, start, start + width


@pytest.mark.parametrize("kind", _EDGE_KINDS)
def test_root_exclusion_keeps_np_roots_bits_on_edge_rows(monkeypatch, kind):
    real_free = fields._root_free
    dropped, rows = [], 0

    def counted(c, a, b):
        free = real_free(c, a, b)
        dropped.append(int(free.sum()))
        return free
    for k1 in (3, 5, 9):
        rng = np.random.default_rng([k1, _EDGE_KINDS.index(kind)])
        coeffs, lo, hi = _edge_rows(rng, kind, 2500, k1)
        rows += coeffs.shape[0]
        monkeypatch.setattr(fields, "_root_free", counted)
        piece, root = _piece_roots(coeffs, lo, hi)
        ref_piece, ref_root = oracles.loop_real_roots(coeffs, lo, hi)
        assert _same(piece, ref_piece) and _same(root, ref_root)
        monkeypatch.setattr(fields, "_root_free",
                            lambda c, a, b: np.zeros(c.shape[0], dtype=bool))
        solved_piece, solved_root = _piece_roots(coeffs, lo, hi)
        assert _same(piece, solved_piece) and _same(root, solved_root)
    # the rows sit on both sides of the bound: some are dropped, some solved
    assert 0 < sum(dropped) < rows


def test_root_exclusion_skips_most_solves_of_a_smooth_field(monkeypatch):
    f = from_smooth(lambda x: [1.5 + np.sin(2.0 * np.pi * x),
                               np.cos(6.0 * np.pi * x)], 2)
    real_free, real_eigvals = fields._root_free, np.linalg.eigvals
    tested, companions = [0], [0]

    def counted_free(c, a, b):
        tested[0] += c.shape[0]
        return real_free(c, a, b)

    def counted_eigvals(m):
        companions[0] += m.shape[0]
        return real_eigvals(m)
    monkeypatch.setattr(fields, "_root_free", counted_free)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    for vnorm in (VectorNorm("euclidean", 2), VectorNorm("max", 2)):
        field = pointwise_norm(f, vnorm)
        field.sup()
        field.superlevel_measure(1.2)
    # every eigvals call is on pieces of degree >= 2 that the test kept
    assert tested[0] > 1000
    assert companions[0] <= 0.1 * tested[0]


@pytest.mark.parametrize("k1", [1, 2, 3, 4, 5, 9])
def test_sup_and_superlevel_match_per_piece_loops(k1):
    rng = np.random.default_rng(200 + k1)
    # many small fields: each sup is one value, so one field would see the
    # rounding of only one candidate
    for _ in range(30):
        breaks = _breaks(rng, 12)
        coeffs = _root_cases(rng, breaks, k1)
        field = PolyField(CircleFunction(breaks, coeffs[:, :, None]))
        assert _same(np.float64(field.sup()),
                     np.float64(oracles.loop_sup(breaks, coeffs)))
    breaks = _breaks(rng, 300)
    coeffs = _root_cases(rng, breaks, k1)
    field = PolyField(CircleFunction(breaks, coeffs[:, :, None]))
    assert _same(np.float64(field.sup()),
                 np.float64(oracles.loop_sup(breaks, coeffs)))
    for lam in (-0.5, 0.0, 0.3, 1.1, 5.0):
        got = field.superlevel_measure(lam)
        ref = oracles.loop_superlevel(breaks, coeffs, lam)
        assert _same(np.float64(got), np.float64(ref))


def _loop_abs(breaks, coeffs):
    """Edges and signed coefficients of |p|, split piece by piece."""
    edges = oracles.loop_split_edges(breaks, coeffs)
    mids = 0.5 * (edges[:-1] + edges[1:])
    tab = coeffs[np.searchsorted(breaks, mids) - 1]
    signs = np.where(oracles.loop_eval(edges, tab, mids) < 0.0, -1.0, 1.0)
    return edges, tab * signs[:, None]


@pytest.mark.parametrize("k1", [1, 2, 3, 4, 5, 9])
def test_split_and_abs_match_per_piece_loops(k1):
    rng = np.random.default_rng(300 + k1)
    breaks = _breaks(rng, 300)
    coeffs = _root_cases(rng, breaks, k1)
    fn = CircleFunction(breaks, coeffs[:, :, None])
    edges, signed = _loop_abs(breaks, coeffs)
    split = _split_at_roots(fields._Stack.of([fn]))
    assert _same(np.r_[split.lo, split.hi[-1]], edges)
    got = pointwise_norm(fn, VectorNorm("max", 1)).fn
    assert _same(got.breaks, edges)
    assert _same(got.coeffs[:, :, 0], signed)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k1", [1, 2, 3, 4, 5])
def test_sum_norm_matches_per_component_loops(d, k1):
    # one root solve for all components gives each component the bits of
    # its own |f_j|
    rng = np.random.default_rng(800 + 10 * d + k1)
    breaks = _breaks(rng, 300)
    tab = np.stack([_root_cases(rng, breaks, k1) for _ in range(d)], axis=2)
    fn = CircleFunction(breaks, tab)
    parts = []
    for j in range(d):
        part = pointwise_norm(CircleFunction(breaks, tab[:, :, j:j + 1]),
                              VectorNorm("max", 1)).fn
        edges, signed = _loop_abs(breaks, tab[:, :, j])
        assert _same(part.breaks, edges)
        assert _same(part.coeffs[:, :, 0], signed)
        parts.append(part)
    got = pointwise_norm(fn, VectorNorm("sum", d)).fn
    ref = merge_sum(parts, np.ones(d))
    assert _same(got.breaks, ref.breaks) and _same(got.coeffs, ref.coeffs)


def test_sum_norm_makes_one_root_call(monkeypatch):
    calls = []
    real = fields._piece_roots

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)
    monkeypatch.setattr(fields, "_piece_roots", counted)
    rng = np.random.default_rng(9)
    fn = CircleFunction(_breaks(rng, 64), rng.uniform(-1.0, 1.0, (64, 3, 3)))
    pointwise_norm(fn, VectorNorm("sum", 3))
    assert calls == [(3 * 64, 3)]
    # a family of 40 members: one call for every component of every member,
    # and one for all their critical points
    members = [CircleFunction(_breaks(rng, 5 + j % 7),
                              rng.uniform(-1.0, 1.0, (5 + j % 7, 3, 2)))
               for j in range(40)]
    calls.clear()
    fields.NormFamily(members, VectorNorm("sum", 2)).sup()
    assert len(calls) == 2
    assert calls[0] == (2 * sum(g.npieces for g in members), 3)


def _envelope_members(rng, k1, nmembers, npieces):
    members = []
    for j in range(nmembers):
        breaks = _breaks(rng, npieces + j)
        coeffs = _root_cases(rng, breaks, rng.integers(1, k1) if j else k1)
        members.append(PolyField(CircleFunction(breaks, coeffs[:, :, None])))
    # a copy (all-zero differences), a copy one ulp higher (near ties at
    # every midpoint, decided by the rounding of the evaluation), a lifted
    # copy (double crossings where the original has a double root) and a
    # copy with one NaN piece (a NaN value wins)
    base, other = members[0].fn, members[1].fn
    members.append(PolyField(base * 1.0))
    for fn, lift in ((base, np.nextafter(base.coeffs[:, 0, 0], np.inf)),
                     (other, other.coeffs[:, 0, 0] + 1e-3)):
        coeffs = fn.coeffs.copy()
        coeffs[:, 0, 0] = lift
        members.append(PolyField(CircleFunction(fn.breaks, coeffs)))
    coeffs = members[2].fn.coeffs.copy()
    coeffs[3, 0, 0] = np.nan
    members.append(PolyField(CircleFunction(members[2].fn.breaks, coeffs)))
    return members


def _pair_envelope(members, k1):
    """The pairwise loop oracle on members padded to k1 columns."""
    return oracles.loop_pair_envelope(
        [(f.breaks, np.pad(f.fn.coeffs[:, :, 0],
                           ((0, 0), (0, k1 - f.fn.coeffs.shape[1]))))
         for f in members])


@pytest.mark.parametrize("k1", [2, 3, 4, 5])
def test_upper_envelope_matches_per_edge_loop(k1):
    rng = np.random.default_rng(400 + k1)
    members = _envelope_members(rng, k1, 4, 40)
    env = upper_envelope(members)
    ref_edges, ref_coeffs = _pair_envelope(members, k1)
    assert _same(env.breaks, ref_edges)
    assert _same(env.fn.coeffs[:, :, 0], ref_coeffs)


@pytest.mark.parametrize("d", [1, 2])
def test_root_work_is_one_solve_per_degree_group(monkeypatch, d):
    # 4096 cubic pieces: a per-piece solve would make thousands of calls
    rng = np.random.default_rng(5)
    breaks = _breaks(rng, 4096)
    coeffs = rng.uniform(-1.0, 1.0, (4096, 4, d))
    # the d = 2 radicand of random components is positive on every piece,
    # so the root exclusion would skip every solve; on every eighth piece
    # all components vanish together at the midpoint, and those solves
    # must run
    for i in range(0, 4096, 8):
        mid = 0.5 * (breaks[i] + breaks[i + 1])
        for j in range(d):
            coeffs[i, :, j] = _from_roots(np.r_[mid, rng.uniform(2.0, 3.0, 2)])
    calls = {"eigvals": 0, "roots": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(np.linalg, "eigvals",
                        counted("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(np, "roots", counted("roots", np.roots))
    fn = CircleFunction(breaks, coeffs)
    field = pointwise_norm(fn, VectorNorm("euclidean", d))
    field.sup()
    field.superlevel_measure(0.5)
    # three root searches (sign changes or radicand zeros, critical points,
    # level crossings), each with at most one stacked solve per degree; the
    # radicand of the d = 2 field has degree 6
    assert calls["roots"] == 0
    assert 0 < calls["eigvals"] <= 3 * (3 * d)


# -- quadrature: one array call against per-interval loops ---------------------


def _integrands():
    return {
        "smooth": lambda x: np.sin(7.0 * x) ** 2,
        # a cusp in the second derivative bisects a few times
        "cusp": lambda x: np.abs(x - 0.3141) ** 1.5,
        # a jump at an irrational point bisects down to the depth cap
        "jump": lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0),
    }


def _depths(monkeypatch):
    real = fields.gl_integrate
    seen = []

    def wrapper(fn, lo, hi, tol=fields._GL_STABILITY, depth=0, **kwargs):
        seen.append(depth)
        return real(fn, lo, hi, tol, depth, **kwargs)
    monkeypatch.setattr(fields, "gl_integrate", wrapper)
    return seen


@pytest.mark.parametrize("name", ["smooth", "cusp", "jump"])
def test_gl_integrate_matches_one_interval_loop(monkeypatch, name):
    fn = _integrands()[name]
    rng = np.random.default_rng(7)
    lo = rng.uniform(-0.2, 1.0, 200)
    width = rng.choice([0.0, -1e-3, 1e-16, 3e-15, 1e-9, 1e-3, 0.2, 0.7], 200)
    hi = lo + width
    lo[:3], hi[:3] = 0.0, [0.0, -0.5, 1e-16]
    lo[3], hi[3] = 0.0, 1.0
    depths = _depths(monkeypatch)
    got = fields.gl_integrate(fn, lo, hi)
    ref = [oracles.loop_gl_integrate(fn, a, b) for a, b in zip(lo, hi)]
    assert _same(got, np.array(ref))
    assert depths.count(0) == 1
    deepest, cap = max(depths), fields._GL_MAX_DEPTH
    assert {"smooth": deepest == 0, "cusp": 0 < deepest < cap,
            "jump": deepest == cap}[name]
    one = gl_integrate(fn, lo[3], hi[3])
    assert type(one) is float and one == ref[3]
    assert np.isnan(gl_integrate(fn, 0.0, np.nan))


def _loop_sum(vals):
    total = 0.0
    for v in vals:
        total += v
    return total


def _loop_lp(fn, b, p):
    total = _loop_sum(oracles.loop_gl_integrate(lambda x: fn(x) ** p,
                                                b[i], b[i + 1])
                      for i in range(b.size - 1))
    return np.float64(total ** (1.0 / p))


# the p-th root hides a last-bit change of the sum about half the time, so
# each comparison runs on several fields


def test_polyfield_fractional_lp_matches_per_piece_loop():
    rng = np.random.default_rng(11)
    for _ in range(8):
        fn = CircleFunction(_breaks(rng, 30), rng.uniform(-1.0, 1.0, (30, 4, 1)))
        field = pointwise_norm(fn, VectorNorm("euclidean", 1))
        ref = _loop_lp(lambda x: np.abs(field.fn(x)[:, 0]), field.breaks, 1.5)
        assert _same(np.float64(field.lp(1.5)), ref)


def test_sqrt_field_quadrature_matches_per_piece_loops():
    rng = np.random.default_rng(12)
    for _ in range(8):
        fn = CircleFunction(_breaks(rng, 20), rng.uniform(-1.0, 1.0, (20, 3, 2)))
        field = pointwise_norm(fn, VectorNorm("euclidean", 2))
        b = field.breaks
        cum = np.concatenate([[0.0], np.cumsum(
            [oracles.loop_gl_integrate(field.eval, b[i], b[i + 1])
             for i in range(b.size - 1)])])
        # points on breaks, inside pieces, repeated and outside [0, 1]
        inside = rng.uniform(-0.2, 1.2, 50)
        y = np.concatenate([b[::3], inside, inside[:7], [-0.0, 1.0]])
        assert _same(field.cumint(y), oracles.loop_cumint(field.eval, b, y))
        assert _same(np.float64(field.integral()), cum[-1])
        assert _same(np.float64(field.lp(3)), _loop_lp(field.eval, b, 3.0))


class _Cells:
    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=float)

    def cell_bounds_float(self):
        return self.bounds


def _kinked_field(rate=9.0):
    # |sin(37 pi x)| e^(rate x) has a kink at every k / 37
    a = 37.0 * np.pi
    return GenericField(
        circle_space(),
        lambda x: np.abs(np.sin(a * x)) * np.exp(rate * x),
        np.arange(1, 37) / 37.0,
        lambda x: (a * np.cos(a * x) * np.sign(np.sin(a * x))
                   + rate * np.abs(np.sin(a * x))) * np.exp(rate * x))


def _loop_cell_integral(field, lo, hi):
    # (hi - lo) f(lo) plus the kink segments' integrals of (hi - x) f'(x),
    # each on its own, added in order from 0.0
    inner = field.breaks[(field.breaks > lo) & (field.breaks < hi)]
    pts = np.concatenate([[lo], inner, [hi]])
    rest = _loop_sum(oracles.loop_gl_integrate(
        lambda x: (hi - x) * field._derivative(x), pts[i], pts[i + 1])
        for i in range(pts.size - 1))
    return (hi - lo) * field.eval(lo)[0] + rest


def test_generic_field_quadrature_matches_per_cell_loops():
    field = _kinked_field()
    # two cells of 19 kink segments each, where a pairwise sum would round
    # differently; a zero-width cell; cells ending on kinks
    for bounds in ([0.0, 0.5, 1.0], [0.0, 0.25, 0.25, 10 / 37, 0.9, 1.0],
                   circle_space().partition(3).cell_bounds_float()):
        bounds = np.asarray(bounds, dtype=float)
        with np.errstate(invalid="ignore"):
            ref = np.array([_loop_cell_integral(field, bounds[i], bounds[i + 1])
                            / (bounds[i + 1] - bounds[i])
                            for i in range(bounds.size - 1)])
            got = field.cell_averages(_Cells(bounds))
        assert _same(got, ref)
    for rate in (3.0, 11.0):
        field = _kinked_field(rate)
        assert _same(np.float64(field.integral()),
                     np.float64(_loop_cell_integral(field, 0.0, 1.0)))
        # 37 kink intervals take three batches of evaluation
        assert field.sup() == max(
            np.max(field.eval(np.linspace(a, b, 2 ** 14 + 1)))
            for a, b in zip(field.breaks[:-1], field.breaks[1:]))
        for p in (1.5, 2.0):
            assert _same(np.float64(field.lp(p)),
                         _loop_lp(field.eval, field.breaks, p))


def test_cumint_and_cell_averages_make_one_quadrature_call(monkeypatch):
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    sqrt_field = pointwise_norm(f, VectorNorm("euclidean", 2))
    generic = _kinked_field()
    depths = _depths(monkeypatch)
    sqrt_field.cumint(np.linspace(0.0, 1.0, 1000))
    assert depths.count(0) == 1
    depths.clear()
    generic.cell_averages(circle_space().partition(6))
    assert depths.count(0) == 1
    depths.clear()
    sqrt_field.cell_averages(circle_space().partition(6))
    assert depths.count(0) == 1


def _mp_mean(field, lo, hi):
    """The mean of sqrt(q) over [lo, hi] in 40-digit arithmetic, the cell
    cut at the breaks of q."""
    b, coeffs = field.q.breaks, field.q.coeffs[:, :, 0]
    pts = [lo] + [x for x in b if lo < x < hi] + [hi]
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for a, c in zip(pts[:-1], pts[1:]):
            row = coeffs[np.searchsorted(b, 0.5 * (a + c), "right") - 1]
            total += mpmath.quad(lambda x: mpmath.sqrt(max(mpmath.polyval(
                [mpmath.mpf(v) for v in row[::-1]], x), 0)),
                [mpmath.mpf(a), mpmath.mpf(c)])
        return float(total / (mpmath.mpf(hi) - mpmath.mpf(lo)))


@pytest.mark.parametrize("level", [10, 16, 20])
def test_sqrt_field_cell_averages_of_fine_cells_match_mpmath(level):
    # a narrow cell late in [0, 1] must not lose digits to the integral
    # before it, which a difference of running sums divided by the width
    # does, doubling its error with every level
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    field = pointwise_norm(f, VectorNorm("euclidean", 2))
    n = 2 ** level
    cells = [int(frac * n) for frac in (0.137, 0.52, 0.7, 0.93, 0.999)]
    bounds = np.unique(np.r_[0.0, [k / n for k in cells],
                             [(k + 1) / n for k in cells], 1.0])
    got = field.cell_averages(_Cells(bounds))
    for k in cells:
        i = np.searchsorted(bounds, k / n)
        assert abs(got[i] - _mp_mean(field, k / n, (k + 1) / n)) <= 1e-13


# -- NaN reaches every sup and norm -------------------------------------------


def _nan_piece_field():
    coeffs = np.array([[[0.2], [1.0]], [[np.nan], [0.0]], [[1.0], [-0.5]]])
    return PolyField(CircleFunction(np.array([0.0, 0.3, 0.6, 1.0]), coeffs))


def test_nan_piece_makes_sup_nan():
    field = _nan_piece_field()
    assert np.isnan(field.sup())
    finite = np.nan_to_num(field.fn.coeffs)
    assert PolyField(CircleFunction(field.breaks, finite)).sup() == 0.7
    generic = GenericField(circle_space(),
                           lambda x: np.where(x > 0.7, np.nan, x), [0.5],
                           lambda x: np.where(x > 0.7, np.nan, 1.0))
    assert np.isnan(generic.sup())


def _count_points(monkeypatch):
    """Integrand points evaluated by every gl_integrate call from now on."""
    real = fields.gl_integrate
    points = [0]

    def counted(fn):
        def integrand(x):
            points[0] += np.size(x)
            return fn(x)
        return integrand

    def wrapper(fn, lo, hi, tol=fields._GL_STABILITY, depth=0, **kwargs):
        # the recursion passes the counted integrand on; wrap it once
        return real(counted(fn) if depth == 0 else fn, lo, hi, tol, depth,
                    **kwargs)
    monkeypatch.setattr(fields, "gl_integrate", wrapper)
    return points


def test_nan_integrand_stops_at_the_first_rule(monkeypatch):
    # a NaN rule never agrees with the next one: bisecting such an interval
    # to the cap costs 64,056 points at cap 6, doubling per level up to 24
    monkeypatch.setattr(fields, "_GL_MAX_DEPTH", 6)
    points = _count_points(monkeypatch)
    field = _nan_piece_field()
    assert np.isnan(field.lp(1.5))
    assert 0 < points[0] <= 3 * sum(fields._GL_LADDER)
    assert np.isnan(gl_integrate(lambda x: np.where(x < 0.5, np.nan, x),
                                 0.0, 1.0))


def test_overflowing_integrand_stops_at_the_first_rule(monkeypatch):
    # |1000 * sawtooth|^150.5 overflows to inf on every piece; inf - inf
    # never agrees either, so such an interval used to bisect to the cap
    monkeypatch.setattr(fields, "_GL_MAX_DEPTH", 6)
    points = _count_points(monkeypatch)
    big = sawtooth(1) * 1000.0
    with np.errstate(over="ignore"):
        assert lp_norm(big, 150.5, VectorNorm("max", 1)) == np.inf
    assert 0 < points[0] <= 3 * sum(fields._GL_LADDER)
    assert gl_integrate(lambda x: np.where(x < 0.5, np.inf, x),
                        0.0, 1.0) == np.inf


def test_nan_piece_makes_integer_lp_nan():
    field = _nan_piece_field()
    assert np.isnan(field.lp(2)) and np.isnan(field.lp(3))


# -- coefficient products against per-piece np.convolve loops -----------------

# np.convolve adds each coefficient's products inside one BLAS dot, whose
# rounding no array sum reproduces: _product adds the same terms in the same
# order, yet 32 % of random k1 = 3 cubes and 77 % of random k1 = 5 squares
# differ from it in the last bit.  So these tests compare within a rounding
# bound instead of by bytes.  A sum of n products rounds to within
# n * eps / 2 of sum |a_i * b_j| (Higham, gamma_n), so two summation orders
# differ by at most n * eps * sum |a_i * b_j| per coefficient, and a k-fold
# product by at most k times that.

_EPS = np.finfo(float).eps


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radicand_matches_per_piece_convolve(d):
    rng = np.random.default_rng(600 + d)
    for k1 in range(1, 10):
        coeffs = rng.uniform(-2.0, 2.0, (50, k1, d))
        coeffs[rng.random(coeffs.shape) < 0.1] = 0.0
        got = fields._square_sum(coeffs)
        ref = oracles.loop_radicand(coeffs)
        bound = k1 * d * _EPS * oracles.loop_radicand(np.abs(coeffs))
        assert got.shape == (50, 2 * k1 - 1)
        assert np.all(np.abs(got - ref) <= bound)


@pytest.mark.parametrize("k", [2, 3, 4, 16])
def test_integer_lp_matches_per_piece_convolve(k):
    rng = np.random.default_rng(700 + k)
    for k1 in (1, 2, 4, 9):
        n = 40
        breaks = _breaks(rng, n)
        # a dominant constant term keeps the field positive and sum |a * b|
        # near the value itself, so the bound is tight
        coeffs = rng.uniform(-0.2, 0.2, (n, k1))
        coeffs[:, 0] = rng.uniform(1.0, 2.0, n)
        field = PolyField(CircleFunction(breaks, coeffs[:, :, None]))
        ref_total = oracles.loop_power_integral(breaks, coeffs, k)
        scale = oracles.loop_power_integral(breaks, np.abs(coeffs), k)
        # the power table, the per-piece dot of length size, the division by
        # the exponents and the sum over the pieces
        size = k * (k1 - 1) + 1
        total_bound = (k * k1 + size + n + 1) * _EPS * scale
        ref = ref_total ** (1.0 / k)
        bound = (total_bound / k * (ref_total - total_bound) ** (1.0 / k - 1)
                 + 2 * _EPS * ref)
        assert bound <= 1e-12 * ref
        assert abs(field.lp(k) - ref) <= bound


def test_products_make_no_convolve_call(monkeypatch):
    # 4096 cubic pieces: a per-piece product would make thousands of calls
    rng = np.random.default_rng(8)
    breaks = _breaks(rng, 4096)
    fn = CircleFunction(breaks, rng.uniform(-1.0, 1.0, (4096, 4, 2)))
    scalar = CircleFunction(breaks, fn.coeffs[:, :, :1])
    other = CircleFunction(breaks, rng.uniform(-1.0, 1.0, (4096, 4, 2)))
    calls = [0]
    real = np.convolve

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "convolve", counted)
    euclid = pointwise_norm(fn, VectorNorm("euclidean", 2))
    absolute = pointwise_norm(scalar, VectorNorm("euclidean", 1))
    absolute.lp(2)
    absolute.lp(3)
    env = grid_sup_field([euclid,
                          pointwise_norm(other, VectorNorm("euclidean", 2))])
    assert isinstance(env, SqrtPolyField)
    assert calls[0] == 0


# -- floating-point faults ------------------------------------------------------


@pytest.mark.parametrize("k1", [2, 3])
def test_upper_envelope_crossings_raise_no_fault(k1):
    # copies (zero differences), lifted copies (zero linear and quadratic
    # gaps) and members of lower degree (zero leading gaps): every
    # crossing quotient whose divisor vanishes is masked, not computed.
    # Faults are raised as run_scenario raises them; a quotient of a one-ulp
    # gap may underflow, which rounds and is no fault
    rng = np.random.default_rng(450 + k1)
    members = _envelope_members(rng, k1, 4, 40)
    members.append(PolyField(members[2].fn * 1.0))
    ref_edges, ref_coeffs = _pair_envelope(members, k1)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        env = upper_envelope(members)
    assert _same(env.breaks, ref_edges)
    assert _same(env.fn.coeffs[:, :, 0], ref_coeffs)


def test_package_ignores_no_floating_point_fault():
    import pathlib
    import re
    root = pathlib.Path(fields.__file__).parent
    for path in sorted(root.glob("*.py")):
        text = path.read_text()
        assert "seterr" not in text, path.name
        for call in re.findall(r"errstate\([^)]*\)", text):
            assert "ignore" not in call, (path.name, call)


# -- stacked norm families against per-member loops ---------------------------


def _family_members(rng, d, target):
    """Circle members of different piece counts and widths, one with breaks
    one ulp above the target's (pieces one ulp wide in the difference,
    whose midpoints round onto an end), one equal to the target and one
    with a NaN piece (last)."""
    members = [CircleFunction(_breaks(rng, n), rng.uniform(-1.0, 1.0, (n, k1, d)))
               for n, k1 in ((1, 1), (3, 2), (7, 3), (12, 2), (5, 4), (9, 3))]
    nudged = target.breaks.copy()
    nudged[1:-1] = np.nextafter(nudged[1:-1], 2.0)
    members.append(CircleFunction(nudged, rng.uniform(-1.0, 1.0,
                                                      (nudged.size - 1, 2, d))))
    members.append(target * 1.0)
    nan = rng.uniform(-1.0, 1.0, (6, 3, d))
    nan[2, 0] = np.nan
    members.append(CircleFunction(_breaks(rng, 6), nan))
    return members


def _atom_members(rng, d, target):
    members = [AtomFunction(target.space, rng.uniform(-1.0, 1.0, (6, d)))
               for _ in range(5)]
    members.append(target * 1.0)
    nan = rng.uniform(-1.0, 1.0, (6, d))
    nan[4, 0] = np.nan
    members.append(AtomFunction(target.space, nan))
    return members


def _field_bytes(field):
    if isinstance(field, AtomField):
        return (field.values.tobytes(),)
    fn = field.q if isinstance(field, SqrtPolyField) else field.fn
    return type(field), fn.breaks.tobytes(), fn.coeffs.shape, fn.coeffs.tobytes()


_FAMILY_CASES = [("max", 1), ("max", 2), ("sum", 2), ("sum", 3),
                 ("euclidean", 2), ("atoms", 2)]


@pytest.mark.parametrize("selector,d", _FAMILY_CASES)
def test_norm_family_matches_per_member_loops(selector, d):
    rng = np.random.default_rng(900 + 10 * d + len(selector))
    if selector == "atoms":
        space = discrete_space(rng.uniform(0.5, 1.5, 6) / 6.0)
        target = AtomFunction(space, rng.uniform(-1.0, 1.0, (6, d)))
        members = _atom_members(rng, d, target)
        vnorms = [VectorNorm(s, d) for s in ("max", "sum", "euclidean")]
    else:
        target = CircleFunction(_breaks(rng, 9), rng.uniform(-1.0, 1.0, (9, 3, d)))
        members = _family_members(rng, d, target)
        vnorms = [VectorNorm(selector, d)]
    for vnorm in vnorms:
        for tgt in (None, target):
            diffs = members if tgt is None else [g - tgt for g in members]
            ref = [pointwise_norm(g, vnorm) for g in diffs]
            family = fields.NormFamily(members, vnorm, tgt)
            assert ([_field_bytes(f) for f in family.fields()]
                    == [_field_bytes(f) for f in ref])
            sups = family.sup()
            assert _same(sups, np.array([f.sup() for f in ref]))
            for p in (1.0, 1.5, 2.0, 3.0):
                lps = family.lp(p)
                assert _same(lps, np.array([f.lp(p) for f in ref]))
                assert np.isnan(lps[-1])
            assert np.isnan(sups[-1])
            if tgt is not None:
                # the member equal to the target: +0.0, not -0.0
                assert sups[-2] == 0.0 and not np.signbit(sups[-2])
            # the NaN member leaves the others' bits alone
            clean = fields.NormFamily(members[:-1], vnorm, tgt)
            assert _same(clean.sup(), sups[:-1])
            assert _same(clean.lp(1.5), family.lp(1.5)[:-1])


def test_norm_family_rejects_mixed_members():
    fn = CircleFunction(np.array([0.0, 0.5, 1.0]), np.ones((2, 2, 2)))
    scalar = PolyField(CircleFunction(fn.breaks, fn.coeffs[:, :, :1]))
    with pytest.raises(TypeError):
        fields.NormFamily([fn, scalar], VectorNorm("max", 2))
    with pytest.raises(ValueError):
        fields.NormFamily([fn], VectorNorm("max", 3))


@pytest.mark.parametrize("d", [2, 3])
def test_max_norm_family_matches_dense_envelope(d):
    # the max norm is the envelope of f_j and -f_j over the components
    rng = np.random.default_rng(70 + d)
    members = [CircleFunction(_breaks(rng, n), rng.uniform(-1.0, 1.0, (n, 3, d)))
               for n in range(1, 13)]
    family = fields.NormFamily(members, VectorNorm("max", d))
    for g, field, sup in zip(members, family.fields(), family.sup()):
        parts = [lambda x, j=j, s=s: s * g(x)[:, j]
                 for j in range(d) for s in (1.0, -1.0)]
        pts, dense = oracles.dense_envelope(parts, n=20_001)
        assert np.max(np.abs(field.eval(pts) - dense)) < 1e-12
        assert sup == field.sup() and np.max(dense) <= sup + 1e-12


def test_envelope_work_is_one_round_per_halving(monkeypatch):
    # 256 members reduce in ceil(log2 256) = 8 stacked rounds, each with
    # one break merge and one crossing call, not one per pair; the max
    # norm of a whole family with d = 2 takes ceil(log2 4) = 2 rounds
    rng = np.random.default_rng(12)
    members = [CircleFunction(_breaks(rng, 4 + j % 5),
                              rng.uniform(-1.0, 1.0, (4 + j % 5, 2, 2)))
               for j in range(256)]
    norms = fields.NormFamily(members, VectorNorm("euclidean", 2)).fields()
    calls = {"_merged": 0, "_crossings": 0}

    def counted(name):
        real = getattr(fields, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call
    for name in calls:
        monkeypatch.setattr(fields, name, counted(name))
    env = grid_sup_field(norms)
    assert calls == {"_merged": 8, "_crossings": 8}
    x = _grid()
    ref = np.max([f.eval(x) for f in norms], axis=0)
    assert np.max(np.abs(env.eval(x) - ref)) < 1e-12
    calls.update(_merged=0, _crossings=0)
    fields.NormFamily(members, VectorNorm("max", 2)).sup()
    assert calls == {"_merged": 2, "_crossings": 2}
