import numpy as np
import pytest

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
    exact = f.integrate(0.15, 0.85)
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


def test_from_pieces_rejects_high_degree():
    with pytest.raises(ValueError):
        CircleFunction.from_pieces([0.0, 1.0], [np.ones((10, 1))])


def test_breaks_must_span_unit_interval():
    with pytest.raises(ValueError):
        CircleFunction([0.0, 0.5], np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        CircleFunction([0.0, 0.5, 0.4, 1.0], np.zeros((3, 1, 1)))


def test_from_smooth_hits_target():
    gen = harmonic_generator(d=2, amplitudes=[0.8, 0.5], phases=[0.1, 0.6])
    f = from_smooth(gen, 2, target=1e-6)
    x = (np.arange(1000) + 0.5) / 1000
    exact = np.array([gen(float(t)) for t in x])
    assert np.max(np.abs(f(x) - exact)) <= 1e-6
    assert f.is_continuous(tol=1e-9)
    assert np.max(np.abs(f.mean())) < 1e-6


def test_cascade_profile_structure():
    f = cascade(levels=4)
    # deepest cell on the left carries the full weight sum 2 - 2^-4
    assert f(2.0 ** -7)[0] == pytest.approx(1.9375)
    assert f.is_continuous()
    # steepest ramp sits at the wrap point, where every sign wave flips
    assert np.max(np.abs(f.derivative().coeffs[:, 0, 0])) == pytest.approx(
        2.0 * (2.0 - 2.0 ** -4) * 2.0 ** 20)


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
