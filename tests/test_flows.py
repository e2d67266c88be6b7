import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergolab import fields, flows, functions
from ergolab.cli import shipped_scenarios
from ergolab.condexp import cond_exp, cond_exp_dominant
from ergolab.config import parse_config, parse_text
from ergolab.fields import AtomField, PolyField, pointwise_norm
from ergolab.flows import (
    _cycle_index,
    GOLDEN,
    Flow,
    apply_flow,
    apply_flows,
    cesaro_average,
    cesaro_averages,
    dominant_cesaro,
    identity_flow,
    rotation_flow,
    step_flow,
)
from ergolab.functions import (AtomFunction, CircleFunction, cascade, hat,
                               merge_sum, sawtooth)
from ergolab.runner import build_context, run_scenario
from ergolab.spaces import VectorNorm, discrete_space, product_space

import oracles

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _unit_space(n):
    return discrete_space(np.full(n, 1.0 / n))


def test_apply_flow_rotation_is_composition():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    flow = rotation_flow(GOLDEN)
    x = (np.arange(400) + 0.271) / 400
    for t in (0.3, 1.0, 7.25):
        g = apply_flow(flow, t, f)
        assert np.max(np.abs(g(x) - f(x + t * GOLDEN))) < 1e-10


def test_apply_flow_is_one_sided():
    with pytest.raises(ValueError):
        apply_flow(rotation_flow(GOLDEN), -0.5, sawtooth())


def test_rotation_average_matches_brute_quadrature():
    f = sawtooth(d=1)
    flow = rotation_flow(GOLDEN)
    for t, x in ((0.7, 0.1), (2.5, 0.3), (13.0, 0.62)):
        exact = cesaro_average(flow, t, f)(x)[0]
        brute = oracles.brute_rotation_average(
            oracles.sawtooth_vals, GOLDEN, t, x)[0]
        # midpoint quadrature crosses about t*theta jumps, each worth 1/n
        assert exact == pytest.approx(brute, abs=(1 + t) * 4e-6)


def test_rotation_average_frozen_values():
    # closed form by substitution: (1/(t theta)) * int_x^{x+t theta} f
    a = cesaro_average(rotation_flow(GOLDEN), 2.5, sawtooth(d=1))
    assert a(0.3)[0] == pytest.approx(0.02559200278733914, rel=1e-12)
    b = cesaro_average(rotation_flow(0.37), 1.25,
                       hat(d=1, amplitudes=[0.8], phases=[0.2]))
    assert b(0.6)[0] == pytest.approx(-0.21162162162162046, rel=1e-10)


def test_rotation_average_preserves_mean():
    f = hat(d=2, amplitudes=[0.7, 0.4], phases=[0.25, 0.8])
    flow = rotation_flow(GOLDEN)
    for t in (0.5, 3.0, 55.0):
        assert np.allclose(cesaro_average(flow, t, f).integral(),
                           f.integral(), atol=1e-13)


def test_rotation_average_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        cesaro_average(rotation_flow(GOLDEN), 0.0, sawtooth())


def test_step_average_frozen_values():
    sp = _unit_space(4)
    f = AtomFunction(sp, np.array([0.8, -0.35, 0.55, -0.9]))
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    out = cesaro_average(flow, 2.7, f)
    assert np.allclose(out.values[:, 0],
                       [0.14074074074074072, -0.005555555555555493,
                        0.05370370370370366, -0.08888888888888882],
                       atol=1e-15)
    brute = oracles.brute_step_average(
        f.values, sp.shift_perm(), 2.7, 0.5)
    assert np.allclose(out.values, brute, atol=1e-15)


def test_step_average_short_time_is_identity():
    sp = _unit_space(5)
    f = AtomFunction(sp, np.arange(5.0))
    flow = step_flow(sp, sp.shift_perm(), h=2.0)
    out = cesaro_average(flow, 1.3, f)
    assert np.allclose(out.values, f.values)


def test_step_average_matches_brute_on_product():
    sp = product_space(8, np.array([0.6, 0.4]))
    rng = np.random.default_rng(7)
    f = AtomFunction(sp, rng.normal(size=(16, 2)))
    flow = step_flow(sp, sp.shift_perm(), h=1.0)
    for t in (0.4, 3.0, 11.75):
        out = cesaro_average(flow, t, f)
        brute = oracles.brute_step_average(f.values, sp.shift_perm(), t, 1.0)
        assert np.allclose(out.values, brute, atol=1e-13)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_Z8X2 = product_space(8, np.array([0.6, 0.4]))
STEP_CASES = [
    # (space, perm, h, times)
    (_unit_space(8), _unit_space(8).shift_perm(), 1.0, (0.4, 7.0, 1e5 + 0.3)),
    (_unit_space(4), np.array([1, 0, 3, 2]), 0.5, (2.7, 9.25, 1e5)),
    (_Z8X2, _Z8X2.shift_perm(), 0.5, (3.0, 11.75, 4099.9)),
]


@pytest.mark.parametrize("sp, perm, h, times", STEP_CASES)
def test_step_average_bit_identical_to_loop(sp, perm, h, times):
    rng = np.random.default_rng(sp.natoms)
    vals = rng.normal(size=(sp.natoms, 2))
    vals[[0, perm[0]]] = -0.0
    vals[-1, 1] = -0.0
    f = AtomFunction(sp, vals)
    flow = step_flow(sp, perm, h=h)
    for t in times:
        out = cesaro_average(flow, t, f)
        assert _same_bits(out.values,
                          oracles.loop_step_average(vals, perm, t, h))
    # an orbit of signed zeros sums to +0.0, as the loop's accumulator does
    if perm[perm[0]] == 0:
        assert not np.signbit(out.values[0]).any()


def _one_cycle(n, seed):
    """A permutation of n atoms that is a single n-cycle in random order."""
    perm = np.empty(n, dtype=int)
    order = np.random.default_rng(seed).permutation(n)
    perm[order] = np.roll(order, -1)
    return perm


def test_step_average_gathers_cycles_longer_than_a_block():
    # a 200-cycle on 200 scalars does not fit one 2^14-element block
    sp = _unit_space(200)
    perm = _one_cycle(200, 3)
    vals = np.random.default_rng(4).normal(size=(200, 1))
    flow = step_flow(sp, perm, h=1.0)
    assert _cycle_index(perm)[2].tolist() == [200] * 200
    for t in (1000.5, 333.0):
        out = cesaro_average(flow, t, AtomFunction(sp, vals))
        assert _same_bits(out.values,
                          oracles.loop_step_average(vals, perm, t, 1.0))


# fixed points 0 and 3, 2-cycles (1 4) and (2 10), the 5-cycle (5 7 9 6 8)
_MIXED_CYCLES = [[0], [3], [1, 4], [2, 10], [5, 7, 9, 6, 8]]
_MIXED_PERM = np.array([0, 4, 10, 3, 1, 7, 8, 9, 5, 6, 2])


def _cycle_constant(cycles, natoms, seed):
    """Values with one random (2,) row on all atoms of each listed cycle."""
    rng = np.random.default_rng(seed)
    vals = np.empty((natoms, 2))
    for cyc in cycles:
        vals[cyc] = rng.normal(size=2)
    return vals


def _signed_zeros():
    """A (8, 2) input the 8-atom shift leaves invariant: +0.0 and -0.0
    alternate in the first column, the second is one constant."""
    vals = np.full((8, 2), 2.5)
    vals[:, 0] = np.where(np.arange(8) % 2 == 0, 0.0, -0.0)
    return vals


def _one_ulp_off():
    """A constant input with one atom moved up by one ulp: not invariant."""
    vals = np.full((8, 2), 0.3)
    vals[5, 1] = np.nextafter(0.3, 1.0)
    return vals


# (space, perm, h, values, rows each cumsum block sees): inputs the step
# map leaves invariant sum one row per cycle; the last is one ulp short of
# invariant and sums every atom
INVARIANT_CASES = [
    (_unit_space(8), _unit_space(8).shift_perm(), 1.0,
     np.tile([0.3, -1.7], (8, 1)), 1),
    (_Z8X2, _Z8X2.shift_perm(), 0.5,
     np.tile(np.random.default_rng(5).normal(size=(2, 2)), (8, 1)), 2),
    (_unit_space(11), _MIXED_PERM, 0.37,
     _cycle_constant(_MIXED_CYCLES, 11, 6), 5),
    (_unit_space(8), _unit_space(8).shift_perm(), 1.0, _signed_zeros(), 1),
    (_unit_space(8), _unit_space(8).shift_perm(), 1.0, _one_ulp_off(), 8),
]


def _normal(n):
    return np.random.default_rng(n).normal(size=(n, 2))


# (space, perm, h, values): one block; blocks that reuse one gather (period
# 8 in 512-row blocks); a 200-cycle gathered again in every 81-row block;
# then the invariant inputs and the one an ulp short of invariant
BATCH_CASES = [
    (_unit_space(8), _unit_space(8).shift_perm(), 1.0, _normal(8)),
    (_Z8X2, _Z8X2.shift_perm(), 0.5, _normal(16)),
    (_unit_space(200), _one_cycle(200, 3), 0.37, _normal(200)),
] + [case[:4] for case in INVARIANT_CASES]

# whole steps n, each with one or more fractions of a step: t < h (n = 0),
# exact multiples of h (fraction 0) and several t in one floor(t/h)
_STEPS = st.lists(st.tuples(
    st.integers(0, 1200),
    st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True),
             min_size=1, max_size=3)), min_size=1, max_size=6)


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(steps=_STEPS)
@example(steps=[(0, [0.25, 0.5]), (1, [0.0]), (3, [0.0, 0.1, 0.9]),
                (1100, [0.0, 0.3])])
def test_step_averages_bit_identical_to_loop(case, steps):
    sp, perm, h, vals = BATCH_CASES[case]
    times = sorted({(n + frac) * h for n, fracs in steps for frac in fracs}
                   - {0.0})
    if not times:
        return
    out = cesaro_averages(step_flow(sp, perm, h=h), times, AtomFunction(sp, vals))
    assert len(out) == len(times)
    for t, avg in zip(times, out):
        assert _same_bits(avg.values,
                          oracles.loop_step_average(vals, perm, t, h)), t


@pytest.mark.parametrize("sp, perm, h, vals, rows", INVARIANT_CASES)
def test_invariant_input_sums_one_row_per_cycle(monkeypatch, sp, perm, h,
                                                vals, rows):
    flow, f = step_flow(sp, perm, h=h), AtomFunction(sp, vals)
    seen = []
    real = np.cumsum

    def spy(a, *args, **kwargs):
        seen.append(a.shape[1])
        return real(a, *args, **kwargs)
    monkeypatch.setattr(flows.np, "cumsum", spy)
    out = cesaro_averages(flow, [0.3, 5.0, 2000.5], f)
    monkeypatch.undo()
    assert seen and set(seen) == {rows}
    # a cycle of mixed signed zeros sums to +0.0 on every atom
    assert not np.signbit(out[-1].values[vals == 0.0]).any()


@st.composite
def _orbit_inputs(draw):
    """A permutation of 1-9 atoms, (atoms, d) values with signed zeros among
    them (invariant under the permutation in about half the draws, zeros of
    either sign mixed on a cycle) and 1-4 calls' step-count lists."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 2))
    perm = np.array(draw(st.permutations(range(n))), dtype=int)
    pool = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)
    vals = np.array(draw(st.lists(pool, min_size=n * d, max_size=n * d)),
                    dtype=float).reshape(n, d)
    if draw(st.booleans()):
        order, start = _cycle_index(perm)[:2]
        vals = vals[order[start]]
        flip = np.array(draw(st.lists(st.booleans(), min_size=n * d,
                                      max_size=n * d))).reshape(n, d)
        vals[flip & (vals == 0.0)] *= -1.0
    calls = draw(st.lists(st.lists(st.integers(0, 150), max_size=5).map(sorted),
                          min_size=1, max_size=4))
    return perm, vals, calls


# orbit-sum block sizes: tiny ones put the period above the block's rows and
# split a pass into many blocks, the default keeps whole periods per block
_BLOCKS = st.sampled_from([flows._ORBIT_BLOCK, 1, 5]) | st.integers(2, 48)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_orbit_inputs(), block=_BLOCKS)
@example(case=(np.array([1, 2, 0, 4, 3]), np.arange(5.0)[:, None],
               [[7], [0, 3, 3, 11], [10, 12, 40]]), block=12)
@example(case=(np.array([1, 0]), np.array([[0.0], [-0.0]]), [[3], [5, 1]]),
         block=1)
def test_resumed_orbit_sums_have_the_bits_of_one_pass(case, block):
    # one store across the calls, so later counts resume from earlier ones
    # (at phases that are not whole periods) and no step between two
    # stored counts is summed twice; each sum has the bits of the per-step
    # loop and of a fresh pass from step 0
    perm, vals, calls = case
    cycles, known, steps = _cycle_index(perm), {}, []
    invariant = flows._invariant(vals, cycles)
    real = flows._blocked_sums

    def counted(values, layout, ns, n0, total):
        steps.append(ns[-1] - n0)
        return real(values, layout, ns, n0, total)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_ORBIT_BLOCK", block)
        mp.setattr(flows, "_blocked_sums", counted)
        for ns in calls:
            # each new count costs the steps from the count below it
            reached = set(known) | set(ns) | {0}
            want = sum(n - max(k for k in reached if k < n)
                       for n in set(ns) - set(known) - {0})
            steps.clear()
            got = flows._orbit_sums(vals, cycles, ns, known, invariant)
            assert len(got) == len(ns) and sum(steps) == want
            for n, (acc, cur) in zip(ns, got):
                ref, ref_cur = oracles.loop_orbit_sum(vals, perm, n)
                fresh, _ = flows._orbit_sums(vals, cycles, [n], {},
                                             invariant)[0]
                assert _same_bits(acc, ref) and _same_bits(acc, fresh), n
                assert cur.tolist() == ref_cur.tolist()
                assert not acc.flags.writeable


def test_each_input_is_tested_for_invariance_once(monkeypatch):
    # the flag is stored with the input's orbit sums, so later calls with
    # new step counts do not compare the input with its permuted self again
    sp = _unit_space(8)
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    moving = AtomFunction(sp, _normal(8))
    still = AtomFunction(sp, np.ones((8, 2)))
    real, tested = flows._invariant, []

    def spy(values, cycles):
        tested.append(values.tobytes())
        return real(values, cycles)
    monkeypatch.setattr(flows, "_invariant", spy)
    for times in ([0.3, 2.7], [9.0, 40.25], [2.7, 75.0]):
        for f in (moving, still):
            cesaro_averages(flow, times, f)
    assert sorted(tested) == sorted([moving.values.tobytes(),
                                     still.values.tobytes()])


def test_a_changed_average_leaves_later_averages_alone():
    sp = _unit_space(8)
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    f, field = AtomFunction(sp, _normal(8)), AtomField(sp, np.arange(8.0))
    times = [0.3, 2.7, 9.0]
    first = cesaro_averages(flow, times, f)
    dom = dominant_cesaro(flow, 2.7, field)
    want = [avg.values.copy() for avg in first]
    want_dom = dom.values.copy()
    for avg in first:
        avg.values[...] = 7.0
    dom.values[...] = 7.0
    again = cesaro_averages(flow, times, f)
    assert all(_same_bits(a.values, w) for a, w in zip(again, want))
    assert _same_bits(dominant_cesaro(flow, 2.7, field).values, want_dom)
    for t, w in zip(times, want):
        assert _same_bits(w, oracles.loop_step_average(
            f.values, sp.shift_perm(), t, 0.5))


def test_long_horizon_orbits_resume_and_stop_where_asked(monkeypatch):
    # step_z8 with t up to 2**14: every pass resumes from the largest step
    # count stored below its first new count, crosses no stored count and
    # stops at a count its call asks, so no input's orbit runs past the
    # largest count asked of it; a second run builds a new flow,
    # whose store starts empty, and sums the same steps again
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    cfg = parse_text(dict(workloads.scenario_texts("long_horizon"))["step_z8"])
    real_orbit, real_blocked = flows._orbit_sums, flows._blocked_sums
    runs, call = [], {}

    def orbit(values, cycles, ns, known, invariant):
        call.update(key=(values.shape, values.tobytes()), ns=ns, known=known)
        asked = runs[-1][0]
        asked[call["key"]] = max([asked.get(call["key"], 0)] + list(ns))
        return real_orbit(values, cycles, ns, known, invariant)

    def blocked(values, layout, ns, n0, total):
        stored = call["known"].keys()
        assert n0 == max(n for n in stored if n < ns[0])
        assert not any(n0 < n < ns[-1] for n in stored)
        assert set(ns) <= set(call["ns"]) - stored
        ends, steps = runs[-1][1:]
        ends[call["key"]] = max(ends.get(call["key"], 0), ns[-1])
        steps[call["key"]] = steps.get(call["key"], 0) + ns[-1] - n0
        return real_blocked(values, layout, ns, n0, total)
    monkeypatch.setattr(flows, "_orbit_sums", orbit)
    monkeypatch.setattr(flows, "_blocked_sums", blocked)
    for _ in range(2):
        runs.append(({}, {}, {}))
        run_scenario(cfg, seed=1)
    for asked, ends, _ in runs:
        assert max(asked.values()) >= 2 ** 14
        assert {key: ends.get(key, 0) for key in asked} == asked
    assert runs[0] == runs[1]


@pytest.mark.parametrize("theta, times", [
    (GOLDEN, (0.3, 1.0, 2.5, 7.75, 100.0)),
    # t*theta a whole number at t = 4 and 8: the average has no wedge
    (0.25, (0.5, 4.0, 6.3, 8.0)),
])
def test_rotation_averages_bit_identical_per_time(theta, times):
    flow = rotation_flow(theta)
    f = hat(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    for t, avg in zip(times, cesaro_averages(flow, times, f)):
        one = cesaro_average(flow, t, f)
        assert _same_bits(avg.breaks, one.breaks)
        assert _same_bits(avg.coeffs, one.coeffs)
    assert cesaro_averages(flow, [], f) == []


def test_rotation_averages_share_one_antiderivative(monkeypatch):
    # four times cost the antiderivative and integral calls of one
    calls = []
    for name in ("antiderivative", "integral"):
        real = getattr(CircleFunction, name)

        def counted(fn, real=real, name=name):
            calls.append(name)
            return real(fn)
        monkeypatch.setattr(CircleFunction, name, counted)
    flow = rotation_flow(GOLDEN)
    cesaro_average(flow, 0.5, sawtooth())
    one = sorted(calls)
    calls.clear()
    cesaro_averages(flow, [0.5, 1.0, 3.0, 9.5], sawtooth())
    assert sorted(calls) == one


def _loop_average(fn, t, theta):
    """A_t fn under the rotation by theta, one t at a time from public
    methods: merge_sum([F.rotate(δ), F, wrap], [1, -1, 1]) * (1/(tθ)), F
    the antiderivative and wrap the whole turns n0 or n0 + 1 times ∫fn."""
    big_f, iv = fn.antiderivative(), fn.integral()
    n0, delta = flows._split_product(t, theta)
    if delta == 0.0:
        wrap = CircleFunction.constant(float(n0) * iv, fn.space)
    else:
        counts = np.array([float(n0), float(n0 + 1)])
        wrap = CircleFunction([0.0, 1.0 - delta, 1.0],
                              counts[:, None, None] * iv[None, None, :],
                              fn.space)
    total = np.longdouble(t) * np.longdouble(theta)
    return merge_sum([big_f.rotate(delta), big_f, wrap],
                     [1.0, -1.0, 1.0]) * float(1.0 / total)


def _assert_same_function(got, want):
    assert _same_bits(got.breaks, want.breaks)
    assert _same_bits(got.coeffs, want.coeffs)


@st.composite
def _circle_functions(draw):
    """A circle function of degree 0 to 6 with 1 to 8 pieces, d = 1 or 2."""
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                   exclude_max=True), max_size=7, unique=True))
    breaks = np.r_[0.0, sorted(cuts), 1.0]
    shape = (breaks.size - 1, draw(st.integers(1, 7)), draw(st.integers(1, 2)))
    coeffs = draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
    return CircleFunction(breaks, coeffs)


_SNAP_TIMES = (0.25, (0.5, 4.0 - 8e-15, 4.0, 6.3, 8.0 + 2e-14))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fn=_circle_functions(), theta=st.floats(0.01, 0.99),
       times=st.lists(st.floats(0.01, 60.0), min_size=1, max_size=6,
                      unique=True).map(sorted))
# t·θ a whole number (t = 4) and within _WRAP_SNAP of one on either side
@example(fn=hat(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3]),
         theta=_SNAP_TIMES[0], times=list(_SNAP_TIMES[1]))
# pieces one ulp wide whose midpoints round onto their right ends, 1 last
@example(fn=CircleFunction([0.0, 0.5 + 2.0 ** -53, 0.5 + 2.0 ** -52,
                            1.0 - 2.0 ** -53, 1.0],
                           np.arange(28.0).reshape(4, 7, 1) - 6.0),
         theta=_SNAP_TIMES[0], times=list(_SNAP_TIMES[1]))
# an infinite coefficient: a shift by δ == 0 would turn F's finite
# coefficients into NaN, where rotate keeps F itself
@example(fn=CircleFunction([0.0, 0.4, 1.0], [[[1.0], [np.inf]],
                                             [[2.0], [3.0]]]),
         theta=_SNAP_TIMES[0], times=list(_SNAP_TIMES[1]))
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_stacked_rotation_averages_have_the_bytes_of_the_per_time_loop(
        fn, theta, times):
    for t, avg in zip(times, flows._rotation_averages(fn, times, theta)):
        _assert_same_function(avg, _loop_average(fn, t, theta))


def _one_rotation(fn, delta):
    """fn precomposed with x -> x + delta, one delta per call: the piece rule
    and Taylor shift of a single rotation, written out here on their own,
    fn itself at delta mod 1 == 0."""
    delta = float(delta) % 1.0
    if delta == 0.0:
        return fn
    pts = np.sort(np.r_[0.0, 1.0, (fn.breaks[:-1] - delta) % 1.0])
    # pieces between consecutive distinct points
    piece = pts[1:] > pts[:-1]
    lo, hi = pts[:-1][piece], pts[1:][piece]
    # the source piece at the midpoint, shifted by delta - 1 if it wraps
    y = 0.5 * (lo + hi) + delta
    wrapped = y >= 1.0
    src = np.searchsorted(fn.breaks[1:-1], np.where(wrapped, y - 1.0, y),
                          side="right")
    c = functions.taylor_shift(np.take(fn.coeffs, src, axis=0),
                               [delta, delta - 1.0], wrapped.astype(int))
    return CircleFunction(np.append(lo, hi[-1]), c, fn.space)


# pieces one ulp wide whose midpoints round onto their right ends, 1 last
_ULP_PIECES = CircleFunction([0.0, 0.5 + 2.0 ** -53, 0.5 + 2.0 ** -52,
                              1.0 - 2.0 ** -53, 1.0],
                             np.arange(28.0).reshape(4, 7, 1) - 6.0)
# repeats, whole turns, -0.0, a delta whose mod 1 rounds to 1.0, one ulp
_DELTAS = [0.25, -0.0, 3.0, 0.25, -1e-300, 0.5 - 2.0 ** -53, 2.0 ** -52, 0.0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fn=_circle_functions(),
       deltas=st.lists(st.sampled_from(_DELTAS) | st.floats(-5.0, 5.0),
                       max_size=8))
@example(fn=_ULP_PIECES, deltas=_DELTAS)
@example(fn=hat(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3]),
         deltas=_DELTAS[::-1])
def test_rotations_have_the_bytes_of_one_delta_calls(fn, deltas):
    got = fn.rotations(deltas)
    assert len(got) == len(deltas)
    for delta, g in zip(deltas, got):
        want = _one_rotation(fn, delta)
        assert (g is fn) == (want is fn)
        _assert_same_function(g, want)
        _assert_same_function(fn.rotate(delta), want)


def _assert_shifts_match(flow, times, f, ref=None):
    """apply_flows against apply_flow (and ref(t), given) at every time,
    f itself at t = 0."""
    got = apply_flows(flow, times, f)
    assert len(got) == len(times)
    for t, g in zip(times, got):
        for want in [apply_flow(flow, t, f)] + ([ref(t)] if ref else []):
            assert (g is f) == (want is f)
            if isinstance(f, AtomFunction):
                assert _same_bits(g.values, want.values)
            else:
                _assert_same_function(g, want)
        assert t != 0.0 or g is f


# repeats and any order; kθ within _WRAP_SNAP above (θ = 0.1) or below
# (θ = 0.3) a whole number at k = 10, 20, 30
_FLOW_TIMES = st.lists(st.sampled_from([0.0, 1.0, 3.0, 10.0, 20.0, 30.0])
                       | st.floats(0.0, 64.0), min_size=1, max_size=8)


@pytest.mark.parametrize("theta", [0.1, 0.3, GOLDEN])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(fn=_circle_functions(), times=_FLOW_TIMES)
@example(fn=_ULP_PIECES, times=[10.0, 0.0, 10.0, 3.0, 20.0, 1.0, 30.0])
def test_rotation_shifts_have_the_bytes_of_apply_flow(theta, fn, times):
    _assert_shifts_match(rotation_flow(theta), times, fn, lambda t: (
        _one_rotation(fn, flows._split_product(t, theta)[1]) if t else fn))


@pytest.mark.parametrize("kind", ["identity", "step"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(values=arrays(np.float64, (4, 2), elements=st.floats(-10.0, 10.0)),
       times=_FLOW_TIMES)
@example(values=np.arange(8.0).reshape(4, 2), times=[2.0, 0.0, 0.5, 2.0, 0.7])
def test_atom_shifts_have_the_bytes_of_apply_flow(kind, values, times):
    flow = _flow_cases()[kind][0]
    _assert_shifts_match(flow, times, AtomFunction(flow.space, values))


@pytest.mark.parametrize("kind", ["identity", "rotation", "step"])
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -0.5])
def test_apply_flows_refuses_times_by_name(kind, t):
    flow, f, _ = _flow_cases()[kind]
    with pytest.raises(ValueError, match=f"t = {t}"):
        apply_flows(flow, [1.0, t, 0.0], f)


def test_snap_times_land_on_whole_turns():
    theta, times = _SNAP_TIMES
    whole = [flows._split_product(t, theta)[1] == 0.0 for t in times]
    assert whole == [False, True, True, False, True]
    # the shift tests' integer times: kθ off a whole number by under
    # _WRAP_SNAP, above it for θ = 0.1 and below it for θ = 0.3
    for theta, side in ((0.1, 0.0), (0.3, 1.0)):
        for k in (10.0, 20.0, 30.0):
            prod = np.longdouble(k) * np.longdouble(theta)
            off = abs(float(prod - np.floor(prod)) - side)
            assert 0.0 < off < flows._WRAP_SNAP
            assert flows._split_product(k, theta)[1] == 0.0


@pytest.mark.parametrize("name", ["golden_saw2", "smooth_rot1"])
def test_scenario_grids_have_the_bytes_of_the_per_time_loop(name):
    # a tripwire at scenario scale: every ME and EM entry as the loop builds it
    (cfg,) = [c for c in map(parse_config, shipped_scenarios("all"))
              if c.name == name]
    ctx = build_context(cfg, np.random.default_rng(cfg.seed))
    theta = ctx.flow.theta
    me, em = ctx.grid("me"), ctx.grid("em")
    for t, avg in me.inner.items():
        _assert_same_function(avg, _loop_average(ctx.f, t, theta))
    for (t, level), entry in me.table.items():
        part = ctx.filtration.partition_at_level(level)
        _assert_same_function(
            entry, cond_exp(_loop_average(ctx.f, t, theta), part))
    for (t, level), entry in em.table.items():
        _assert_same_function(
            entry, _loop_average(em.inner[level], t, theta))


def test_rotations_build_one_shift_matrix_per_shift(monkeypatch):
    # the shift matrices C(j, k) sigma^(j - k) are built by multiplying the
    # binomial table: count the matrices each product holds
    built = []
    real = functions._binom_matrix

    class Counted(np.ndarray):
        def __mul__(self, other):
            out = np.asarray(self) * other
            built.append(out.size // self.size)
            return out
    monkeypatch.setattr(functions, "_binom_matrix",
                        lambda n: real(n).view(Counted))
    f = cascade(levels=5)
    f.rotate(0.3)
    assert 0 < sum(built) <= 2
    built.clear()
    times = [0.5, 1.0, 2.5, 4.0 / GOLDEN, 7.75]
    cesaro_averages(rotation_flow(GOLDEN), times, f)
    assert 0 < sum(built) <= 2 * len(times)


@pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 1.0], [0.0, 1.0],
                                   [-1.0], [1.0, 3.0, 2.0]])
def test_averages_refuse_times_not_positive_and_increasing(times):
    sp = _unit_space(4)
    with pytest.raises(ValueError):
        cesaro_averages(step_flow(sp, sp.shift_perm()), times,
                        AtomFunction(sp, np.arange(4.0)))


def _flow_cases():
    circle, atoms = hat(d=2).space, _unit_space(4)
    return {
        "identity": (identity_flow(atoms), AtomFunction(atoms, np.arange(4.0)),
                     AtomField(atoms, np.arange(4.0))),
        "rotation": (rotation_flow(GOLDEN), hat(d=2),
                     PolyField(CircleFunction.constant(1.0, circle))),
        "step": (step_flow(atoms, atoms.shift_perm(), h=0.5),
                 AtomFunction(atoms, np.arange(4.0)),
                 AtomField(atoms, np.arange(4.0))),
    }


@pytest.mark.parametrize("kind", ["identity", "rotation", "step"])
@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_flow_entry_points_refuse_times_that_are_not_finite(kind, t):
    flow, f, field = _flow_cases()[kind]
    calls = [lambda: apply_flow(flow, t, f),
             lambda: cesaro_average(flow, t, f),
             lambda: cesaro_averages(flow, [0.5, t, 2.0], f),
             lambda: cesaro_averages(flow, [1.0, t], f),
             lambda: dominant_cesaro(flow, t, field)]
    for call in calls:
        with pytest.raises(ValueError, match=f"t = {t}"):
            call()


def test_dominant_step_cesaro_bit_identical_to_loop():
    sp = _unit_space(4)
    vals = np.array([0.8, 0.35, 0.0, 0.9])
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    for t in (2.7, 1e5 + 0.25):
        dom = dominant_cesaro(flow, t, AtomField(sp, vals))
        ref = oracles.loop_step_average(vals[:, None], sp.shift_perm(), t, 0.5)
        assert _same_bits(dom.values, ref[:, 0])


def test_identity_flow_passthrough():
    sp = _unit_space(3)
    f = AtomFunction(sp, np.array([1.0, 2.0, 3.0]))
    flow = identity_flow(sp)
    assert apply_flow(flow, 5.0, f) is f
    assert cesaro_average(flow, 5.0, f) is f


def test_flow_constructor_validation():
    sp = _unit_space(4)
    with pytest.raises(ValueError):
        rotation_flow(0.5, space=sp)
    with pytest.raises(ValueError):
        rotation_flow(1.5)
    with pytest.raises(ValueError):
        step_flow(sp, np.array([0, 1, 1, 3]))
    with pytest.raises(ValueError):
        step_flow(sp, sp.shift_perm(), h=0.0)
    skew = discrete_space(np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        step_flow(skew, skew.shift_perm())


def test_ergodicity_classification():
    assert rotation_flow(GOLDEN).ergodic
    assert not rotation_flow(0.25).ergodic
    sp = _unit_space(8)
    assert step_flow(sp, sp.shift_perm()).ergodic
    # a 2+2 cycle split never mixes the halves
    assert not step_flow(_unit_space(4), np.array([1, 0, 3, 2])).ergodic
    # the product shift never moves the second factor
    uniform = product_space(4, np.array([0.5, 0.5]))
    assert not step_flow(uniform, uniform.shift_perm()).ergodic
    assert not identity_flow(sp).ergodic


def test_constructors_name_their_kind():
    # the benchmark tracer splits cesaro_average spans by ``kind``
    sp = _unit_space(4)
    flows = {"rotation": rotation_flow(GOLDEN),
             "step": step_flow(sp, sp.shift_perm(), h=0.5),
             "identity": identity_flow(sp)}
    for kind, flow in flows.items():
        assert isinstance(flow, Flow)
        assert flow.kind == kind


@pytest.mark.parametrize("h", [1.0, 0.5, 0.3, 2.0])
def test_step_lattice_snaps_to_step_widths(h):
    sp = _unit_space(4)
    flow = step_flow(sp, sp.shift_perm(), h=h)
    for t in (0.1, 0.7, 1.0, 2.5, 3.14, 16.0, 37.9):
        # nearest positive multiple of h, as the semigroup probes snap
        assert flow.lattice(t) == max(h, h * round(t / h))
    # on the lattice, T_{a+b} = T_a T_b holds exactly
    f = AtomFunction(sp, np.arange(4.0))
    for a in (flow.lattice(0.7), flow.lattice(2.5)):
        for b in (flow.lattice(1.0), flow.lattice(3.14)):
            joint = apply_flow(flow, a + b, f)
            nested = apply_flow(flow, a, apply_flow(flow, b, f))
            assert np.array_equal(joint.values, nested.values)
    # rotations and the identity compose at every time
    for other in (rotation_flow(GOLDEN), identity_flow(sp)):
        assert other.lattice(3.14) == 3.14


def test_cycle_lengths():
    # each atom's entry is the length of its cycle
    sp = _unit_space(6)
    assert _cycle_index(sp.shift_perm())[2].tolist() == [6] * 6
    # cycles (0 1), (2 3 4) and (5)
    assert _cycle_index(np.array([1, 0, 3, 4, 2, 5]))[2].tolist() == \
        [2, 2, 3, 3, 3, 1]
    assert _cycle_index(np.arange(6))[2].tolist() == [1] * 6
    # the period is the lcm of the cycle lengths
    assert [_cycle_index(p)[4] for p in (sp.shift_perm(), np.arange(6),
                                         np.array([1, 0, 3, 4, 2, 5]))] == [6, 1, 6]


def test_step_builds_its_cycle_layout_once(monkeypatch):
    calls = [0]
    real = flows._cycle_index

    def counted(perm):
        calls[0] += 1
        return real(perm)
    monkeypatch.setattr(flows, "_cycle_index", counted)
    sp = _unit_space(6)
    flow = step_flow(sp, np.array([1, 0, 3, 4, 2, 5]), h=0.5)
    f = AtomFunction(sp, np.arange(6.0))
    for t in (0.7, 3.0, 1e4 + 0.25):
        cesaro_average(flow, t, f)
        dominant_cesaro(flow, t, AtomField(sp, np.arange(6.0)))
        apply_flow(flow, t, f)
    assert not flow.ergodic
    assert calls[0] == 1


def test_step_map_entries_must_be_integers():
    # a float entry is refused with the permutation message, never truncated
    # (1.7 and 0.2 would read as the swap [1, 0])
    sp = discrete_space([0.5, 0.5])
    for perm in ([1.7, 0.2], [1.0, 0.0], np.array([np.nan, 0.0])):
        with pytest.raises(ValueError,
                           match="base map must be a permutation of the atoms"):
            step_flow(sp, perm)
    assert step_flow(sp, np.array([1, 0], dtype=np.uint8)).perm.tolist() == [1, 0]


def test_shift_perm_product_moves_first_factor():
    sp = product_space(3, np.array([0.5, 0.5]))
    perm = sp.shift_perm()
    # atom (i, j) sits at flat index i * 2 + j
    assert perm.tolist() == [2, 3, 4, 5, 0, 1]


def test_dominant_average_dominates_vector_average():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    vnorm = VectorNorm("euclidean", 2)
    flow = rotation_flow(GOLDEN)
    x = (np.arange(500) + 0.123) / 500
    for t in (0.8, 4.0, 21.0):
        vec = pointwise_norm(cesaro_average(flow, t, f), vnorm)
        dom = dominant_cesaro(flow, t, pointwise_norm(f, vnorm))
        gap = dom.eval(x) - vec.eval(x)
        assert np.min(gap) > -1e-11


def test_dominant_polyfield_matches_brute():
    field = pointwise_norm(sawtooth(d=1), VectorNorm("euclidean", 1))
    out = dominant_cesaro(rotation_flow(GOLDEN), 2.5, field)
    assert isinstance(out, PolyField)
    brute = oracles.brute_rotation_average(
        lambda x: np.abs(oracles.sawtooth_vals(x)), GOLDEN, 2.5, 0.3)[0]
    assert out.eval(0.3) == pytest.approx(brute, abs=5e-6)
    assert out.integral() == pytest.approx(field.integral(), abs=1e-13)


def test_dominant_generic_path_for_sqrt_fields():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    field = pointwise_norm(f, VectorNorm("euclidean", 2))
    out = dominant_cesaro(rotation_flow(GOLDEN), 3.5, field)
    fn = lambda x: np.sqrt(oracles.sawtooth_vals(x) ** 2
                           + oracles.sawtooth_vals(x, 0.5, 0.3) ** 2)
    for x in (0.1, 0.44, 0.9):
        brute = oracles.brute_rotation_average(fn, GOLDEN, 3.5, x)[0]
        assert out.eval(x)[0] == pytest.approx(brute, abs=5e-6)


def _saw2_norm(u):
    # |(saw(u), saw(u))| for sawtooth(d=2): a jump at 0, a kink at 1/2
    return np.sqrt(2.0) * np.abs(np.mod(u, 1.0) - 0.5)


def _quad_dominant_cell_average(integrate, theta, t, lo, hi):
    """(1/(hi - lo)) ∫_lo^hi (1/t) ∫_0^t h(x + τθ) dτ dx by nested scipy
    quad.  The inner integral over x + [0, tθ] takes its whole periods as
    multiples of one quad over [0, 1]; at either level every kink of the
    integrand is a break point (h kinks at k/2, and the inner integral as
    a function of x where x or x + tθ meets one of those)."""
    span = t * theta
    whole, part = divmod(span, 1.0)

    def quad(fn, a, b, shifts):
        pts = set()
        for s in shifts:
            k = np.arange(np.ceil(2.0 * (a + s)), np.floor(2.0 * (b + s)) + 1)
            pts.update(p for p in k / 2.0 - s if a < p < b)
        return integrate.quad(fn, a, b, points=sorted(pts) or None,
                              epsabs=1e-14, epsrel=1e-13)[0]

    period = quad(_saw2_norm, 0.0, 1.0, [0.0])

    def inner(x):
        return (whole * period + quad(_saw2_norm, x, x + part, [0.0])) / span

    return quad(inner, lo, hi, [0.0, span]) / (hi - lo)


class _Cells:
    def __init__(self, space, bounds):
        self.space, self.bounds = space, np.asarray(bounds, dtype=float)

    def cell_bounds_float(self):
        return self.bounds


@pytest.mark.parametrize("theta, t", [(GOLDEN, 0.1), (GOLDEN, 0.8),
                                      (GOLDEN, 3.5), (GOLDEN, 21.0),
                                      (0.25, 4.0)])
def test_dominant_cell_averages_match_nested_quad(theta, t):
    integrate = pytest.importorskip("scipy.integrate")
    flow = rotation_flow(theta)
    field = pointwise_norm(sawtooth(d=2), VectorNorm("euclidean", 2))
    dom = dominant_cesaro(flow, t, field)
    delta = (t * theta) % 1.0
    # the dyadic levels, a narrow cell across 1 - delta (delta = 0 for
    # theta = 1/4 at t = 4, where the cell ends at 1), and level-16 cells,
    # where an average taken as a difference of values at the cell ends
    # would lose digits in proportion to 2^16 / (t theta)
    edge = 1.0 - delta
    cells = [flow.space.partition(level) for level in range(5)]
    cells.append(_Cells(flow.space, np.unique(
        [0.0, edge - 0.01, min(edge + 0.01, 1.0), 1.0])))
    fine = np.array([1, 9999, 21846, 32768, 40503, 65535]) / 2.0 ** 16
    cells.append(_Cells(flow.space, np.unique(
        np.r_[0.0, fine, fine + 2.0 ** -16, 1.0])))
    for part in cells:
        bounds = part.cell_bounds_float()
        got = cond_exp_dominant(dom, part).eval(0.5 * (bounds[:-1] + bounds[1:]))
        ref = [_quad_dominant_cell_average(integrate, theta, t, a, b)
               for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.max(np.abs(got - ref)) < 1e-12


def test_dominant_cell_averages_need_no_nested_quadrature(monkeypatch):
    dom = dominant_cesaro(rotation_flow(GOLDEN), 3.5, pointwise_norm(
        sawtooth(d=2), VectorNorm("euclidean", 2)))
    real, calls, inside = fields.gl_integrate, [], [0]

    def watched(fn, lo, hi, depth=0, **kwargs):
        calls.append((depth, inside[0]))

        def integrand(x):
            inside[0] += 1
            try:
                return fn(x)
            finally:
                inside[0] -= 1
        return real(integrand, lo, hi, depth, **kwargs)
    monkeypatch.setattr(fields, "gl_integrate", watched)
    cond_exp_dominant(dom, dom.space.partition(4))
    assert [d for d, _ in calls].count(0) <= 2
    assert all(nested == 0 for _, nested in calls)


def test_dominant_step_field():
    sp = _unit_space(4)
    f = AtomFunction(sp, np.array([0.8, -0.35, 0.55, -0.9]))
    vnorm = VectorNorm("euclidean", 1)
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    dom = dominant_cesaro(flow, 2.7, pointwise_norm(f, vnorm))
    brute = oracles.brute_step_average(
        np.abs(f.values), sp.shift_perm(), 2.7, 0.5)
    assert np.allclose(dom.values, brute[:, 0], atol=1e-15)
