import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergolab.functions import (
    AtomFunction,
    CircleFunction,
    cascade,
    from_smooth,
    harmonic_generator,
    hat,
    merge_sum,
    sawtooth,
    taylor_shift,
    _periodic_spline,
)
from ergolab.spaces import circle_space, discrete_space

import oracles


def test_taylor_shift_recenters_polynomial():
    # p(x) = 1 + 2x + 3x^2 shifted to powers of (x - 0.5)
    coeffs = np.array([[[1.0], [2.0], [3.0]]])
    shifted = taylor_shift(coeffs, np.array([0.5]))
    x = np.linspace(-1, 1, 7)
    orig = 1 + 2 * x + 3 * x ** 2
    re = shifted[0, 0, 0] + shifted[0, 1, 0] * (x - 0.5) \
        + shifted[0, 2, 0] * (x - 0.5) ** 2
    assert np.allclose(orig, re)


_COEFF = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_SHIFT = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def _shift_cases(draw):
    """A (n, k1, d) coefficient table, one NaN row or none, and one shift
    per row (repeats likely, +0.0 and -0.0 among them)."""
    n, k1, d = draw(st.integers(1, 12)), draw(st.integers(1, 9)), \
        draw(st.integers(1, 2))
    c = draw(arrays(np.float64, (n, k1, d), elements=_COEFF))
    nan_row = draw(st.none() | st.integers(0, n - 1))
    if nan_row is not None:
        c[nan_row, draw(st.integers(0, k1 - 1))] = np.nan
    shifts = draw(st.lists(st.sampled_from(draw(st.lists(
        _SHIFT, min_size=1, max_size=3))), min_size=n, max_size=n))
    return c, np.array(shifts)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_shift_cases())
def test_taylor_shift_per_row_shifts_have_the_bytes_of_one_call_per_row(
        case):
    c, shifts = case
    uniq, which = np.unique(shifts, return_inverse=True)
    for got in (taylor_shift(c, shifts), taylor_shift(c, uniq, which)):
        for i in range(c.shape[0]):
            one = taylor_shift(c[i:i + 1], shifts[i:i + 1])
            assert got[i:i + 1].tobytes() == one.tobytes(), i


def test_sawtooth_values_and_mean():
    f = sawtooth(d=1)
    assert f(0.0)[0] == pytest.approx(-0.5)
    assert f(0.75)[0] == pytest.approx(0.25)
    assert np.allclose(f.mean(), 0.0, atol=1e-15)
    g = sawtooth(d=1, amplitudes=[2.0], phases=[0.25])
    assert g(0.5)[0] == pytest.approx(0.5)
    vals = oracles.sawtooth_vals(np.array([0.1, 0.6, 0.99]), 2.0, 0.25)
    assert np.allclose(g(np.array([0.1, 0.6, 0.99]))[:, 0], vals)


def test_hat_values_and_continuity():
    f = hat(d=1)
    assert f(0.0)[0] == pytest.approx(-0.5)
    assert f(0.25)[0] == pytest.approx(0.0)
    assert f(0.5)[0] == pytest.approx(0.5)
    assert f.is_continuous()
    assert np.allclose(f.mean(), 0.0, atol=1e-15)
    g = hat(d=2, amplitudes=[0.7, 0.4], phases=[0.25, 0.8])
    assert g.is_continuous()
    x = np.array([0.05, 0.3, 0.62, 0.9])
    assert np.allclose(g(x)[:, 0], oracles.hat_vals(x, 0.7, 0.25))
    assert np.allclose(g(x)[:, 1], oracles.hat_vals(x, 0.4, 0.8))


def test_antiderivative_of_sawtooth():
    # F(x) = x^2/2 - x/2 for the unit sawtooth, F(0) = 0
    F = sawtooth(d=1).antiderivative()
    assert F(0.0)[0] == pytest.approx(0.0, abs=1e-15)
    assert F(0.5)[0] == pytest.approx(-0.125)
    assert F.is_continuous()
    x = np.linspace(0, 0.999, 21)
    assert np.allclose(F(x)[:, 0], x ** 2 / 2 - x / 2)


def test_antiderivative_differentiates_back():
    f = hat(d=2, amplitudes=[1.0, 0.3], phases=[0.1, 0.45])
    g = f.antiderivative().derivative()
    x = (np.arange(400) + 0.37) / 400
    assert np.max(np.abs(f(x) - g(x))) < 1e-12


def test_integrate_matches_riemann():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    ends = f.antiderivative()._eval_unwrapped(np.array([0.15, 0.85]))
    exact = ends[1] - ends[0]
    # hand value: second component jumps at 0.7, pieces integrate to 0.03
    assert exact[0] == pytest.approx(0.0, abs=1e-14)
    assert exact[1] == pytest.approx(0.03, abs=1e-14)
    approx = 0.7 * np.array([
        oracles.brute_cell_average(
            lambda x: oracles.sawtooth_vals(x, 1.0, 0.0), 0.15, 0.85),
        oracles.brute_cell_average(
            lambda x: oracles.sawtooth_vals(x, 0.5, 0.3), 0.15, 0.85),
    ]).ravel()
    # midpoint quadrature only resolves the interior jump to O(1/n)
    assert np.allclose(exact, approx, atol=2e-5)


def test_rotate_is_exact_composition():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    for delta in (0.2, 1 / 3, 0.999, 5.7):
        g = f.rotate(delta)
        x = (np.arange(300) + 0.123) / 300
        assert np.max(np.abs(g(x) - f(x + delta))) < 1e-12
        assert np.allclose(g.integral(), f.integral(), atol=1e-14)


def test_rotate_zero_is_identity():
    f = hat(d=1)
    assert f.rotate(0.0) is f
    assert f.rotate(3.0) is f


def test_arithmetic_and_merge_sum():
    f = sawtooth(d=1, phases=[0.2])
    g = hat(d=1, phases=[0.7])
    x = np.linspace(0.01, 0.98, 37)
    assert np.allclose((f + g)(x), f(x) + g(x))
    assert np.allclose((f - g)(x), f(x) - g(x))
    assert np.allclose((-2.5 * f)(x), -2.5 * f(x))
    m = merge_sum([f, g], [0.5, -1.5])
    assert np.allclose(m(x), 0.5 * f(x) - 1.5 * g(x))


def test_merge_sum_checks_its_operands_as_addition_does():
    # d = 1 against d = 2 must not broadcast into both components
    two, one = sawtooth(d=2), hat(d=1)
    for funcs in ([two, one], [one, two]):
        with pytest.raises(ValueError, match="value dimensions differ"):
            merge_sum(funcs, [1.0, 1.0])
        with pytest.raises(ValueError, match="value dimensions differ"):
            funcs[0] + funcs[1]
    atoms = AtomFunction(discrete_space(np.full(2, 0.5)), np.zeros(2))
    with pytest.raises(ValueError, match="same circle space"):
        merge_sum([one, atoms], [1.0, 1.0])
    with pytest.raises(ValueError, match="same circle space"):
        one - atoms
    # one weight per operand: a short or long list is not cut to fit
    for weights in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError):
            merge_sum([one, hat(d=1)], weights)


def test_breaks_must_span_unit_interval():
    with pytest.raises(ValueError):
        CircleFunction([0.0, 0.5], np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        CircleFunction([0.0, 0.5, 0.4, 1.0], np.zeros((3, 1, 1)))
    # NaN <= 0 is False, so a NaN break must fail the increase rule itself
    with pytest.raises(ValueError, match="increase strictly"):
        CircleFunction([0.0, np.nan, 1.0], np.zeros((2, 1, 1)))


def test_from_smooth_hits_target():
    gen = harmonic_generator(d=2, amplitudes=[0.8, 0.5], phases=[0.1, 0.6])
    f = from_smooth(gen, 2, target=1e-6)
    x = (np.arange(1000) + 0.5) / 1000
    exact = np.array([gen(float(t)) for t in x])
    assert np.max(np.abs(f(x) - exact)) <= 1e-6
    assert f.is_continuous()
    assert np.max(np.abs(f.mean())) < 1e-6


def _scipy_periodic(x, y):
    interpolate = pytest.importorskip("scipy.interpolate")
    cs = interpolate.CubicSpline(x, y, axis=0, bc_type="periodic")
    return np.transpose(cs.c, (1, 0, 2))[:, ::-1, :]


def _periodic_samples(rng, n, d):
    y = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-4, 5)
    y[-1] = y[0]
    return y


@pytest.mark.parametrize("d", [1, 2, 3])
def test_periodic_spline_matches_cubic_spline_bytes(d):
    # uniform knots, the only ones from_smooth passes: LAPACK's gtsv swaps
    # no rows there, so the kernel reproduces scipy's arithmetic exactly
    rng = np.random.default_rng(600 + d)
    for n in (16, 17, 64, 100, 256, 1024, 4096):
        x = np.linspace(0.0, 1.0, n + 1)
        for _ in range(3):
            y = _periodic_samples(rng, n + 1, d)
            got, ref = _periodic_spline(x, y), _scipy_periodic(x, y)
            assert got.shape == ref.shape == (n, 4, d)
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_periodic_spline_matches_cubic_spline_on_nonuniform_knots(d):
    # here gtsv may swap rows, so only rounding agreement is expected; a
    # swapped pair of off-diagonals is off by orders of magnitude
    rng = np.random.default_rng(700 + d)
    for n in (4, 5, 17, 60, 300):
        for _ in range(5):
            inner = np.sort(rng.choice(np.arange(1, 16 * n), n - 2,
                                       replace=False)) / (16.0 * n)
            x = np.concatenate([[0.0], inner, [1.0]])
            y = _periodic_samples(rng, n, d)
            got, ref = _periodic_spline(x, y), _scipy_periodic(x, y)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_periodic_spline_rejects_non_finite_samples():
    x = np.linspace(0.0, 1.0, 17)
    for bad in (math.nan, math.inf):
        y = np.zeros((17, 2))
        y[5, 1] = bad
        with pytest.raises(ValueError):
            _periodic_spline(x, y)
    gen = harmonic_generator(d=1)
    with pytest.raises(ValueError):
        from_smooth(lambda x: gen(x) if x != 0.5 else np.array([math.nan]), 1)


def test_from_smooth_nan_probe_error_never_meets_target():
    # finite at every knot, NaN only at the probes of the 4096-knot pass
    # (odd multiples of 1/32768); at 2048 knots the error is about 2e-11
    gen = harmonic_generator(d=1, harmonic=3)

    def holey(x):
        return np.array([math.nan]) if (x * 32768) % 2 == 1 else gen(x)

    with pytest.raises(ValueError, match="missed target"):
        from_smooth(holey, 1, target=1e-12)


def _run_python(script):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_package_runs_without_scipy():
    # with scipy blocked, importing it raises ModuleNotFoundError
    assert _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import ergolab\n"
        "from ergolab.cli import shipped_scenarios\n"
        "from ergolab.config import parse_config\n"
        "from ergolab.runner import run_scenario\n"
        "gen = ergolab.harmonic_generator(d=2, phases=[0.0, 0.25])\n"
        "assert ergolab.from_smooth(gen, 2, target=1e-6).npieces >= 16\n"
        "path, = [p for p in shipped_scenarios('all')\n"
        "         if p.endswith('smooth_rot1.cfg')]\n"
        "report = run_scenario(parse_config(path))\n"
        "assert report.records\n"
        "assert all(r.status != 'FAIL' for r in report.records)\n"
        "print('ok')\n") == "ok"


def test_import_loads_no_scipy():
    assert _run_python(
        "import sys\n"
        "import ergolab\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    ) == "[]"


def test_cascade_profile_structure():
    f = cascade(levels=4)
    # deepest cell on the left carries the full weight sum 2 - 2^-4
    assert f(2.0 ** -7)[0] == pytest.approx(1.9375)
    assert f.is_continuous()
    # steepest ramp sits at the wrap point, where every sign wave flips
    assert np.max(np.abs(f.derivative().coeffs[:, 0, 0])) == pytest.approx(
        2.0 * (2.0 - 2.0 ** -4) * 2.0 ** 20)


@pytest.mark.parametrize("levels, ramp_exp", [(3, 20), (8, 20), (8, 30)])
def test_cascade_pieces_match_a_cell_by_cell_build(levels, ramp_exp):
    f = cascade(levels=levels, ramp_exp=ramp_exp)
    ncell, wr = 2 ** (levels + 1), 2.0 ** -ramp_exp
    vals = [sum(2.0 ** -k * (-1.0 if (j >> (levels - k)) & 1 else 1.0)
                for k in range(levels + 1)) for j in range(ncell)]
    edges, coeffs = [], []
    for j in range(ncell):
        b, prev, cur = j / ncell, vals[j - 1], vals[j]
        if prev != cur:
            slope = (cur - prev) / wr
            edges.append(b)
            coeffs.append([prev - slope * b, slope])
            b += wr
        edges.append(b)
        coeffs.append([cur, 0.0])
    assert f.breaks.tolist() == edges + [1.0]
    assert f.coeffs[:, :, 0].tolist() == coeffs


def test_cascade_rejects_wide_ramp():
    with pytest.raises(ValueError):
        cascade(levels=6, ramp_exp=5)


def test_atom_function_roundtrip():
    sp = discrete_space(np.full(4, 0.25))
    f = AtomFunction(sp, np.array([[1.0, 0.0], [0.0, 1.0],
                                   [-1.0, 0.0], [0.0, -1.0]]))
    assert f.d == 2
    assert np.allclose(f([1, 3]), [[0.0, 1.0], [0.0, -1.0]])
    assert np.allclose(f.mean(), 0.0)
    # permute composes: result(a) = f(perm[a])
    g = f.permute([1, 2, 3, 0])
    assert np.allclose(g([0]), [[0.0, 1.0]])
    assert np.allclose((f + g - g).values, f.values)


def test_atom_function_rejects_wrong_shapes():
    sp = discrete_space(np.full(4, 0.25))
    with pytest.raises(ValueError):
        AtomFunction(sp, np.zeros(3))
    with pytest.raises(ValueError):
        AtomFunction(circle_space(), np.zeros(4))


def test_atom_spaces_mix_error():
    a = discrete_space(np.full(4, 0.25))
    b = discrete_space(np.full(5, 0.2))
    with pytest.raises(ValueError):
        AtomFunction(a, np.zeros(4)) + AtomFunction(b, np.zeros(5))
    # one space but d = 1 against d = 3 must not broadcast to (4, 3)
    one, three = AtomFunction(a, np.zeros(4)), AtomFunction(a, np.zeros((4, 3)))
    for x, y in ((one, three), (three, one)):
        with pytest.raises(ValueError, match="value dimensions differ"):
            x + y
        with pytest.raises(ValueError, match="value dimensions differ"):
            x - y


def test_piece_index_matches_clipped_search():
    # one search in the interior breaks gives the clipped index of a
    # search in all breaks, dtype included: below 0, on 0 and 1, past 1,
    # +-inf, NaN, on every break and one ulp either side of it
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 17, 1000):
        inner = np.sort(rng.choice(np.arange(1, 8 * n), n - 1, replace=False))
        breaks = np.r_[0.0, inner / (8.0 * n), 1.0]
        fn = CircleFunction(breaks, np.zeros((n, 1, 1)))
        x = np.concatenate([[-1.0, -0.0, 0.0, 1.0, 2.0, np.inf, -np.inf,
                             np.nan], breaks, np.nextafter(breaks, -np.inf),
                            np.nextafter(breaks, np.inf)])
        old = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, n - 1)
        new = fn.piece_index(x)
        assert (new.dtype, new.tobytes()) == (old.dtype, old.tobytes())
        for xi, oi in zip(x, old):
            assert fn.piece_index(xi) == oi
