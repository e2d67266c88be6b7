import numpy as np
import pytest

from ergolab.flows import GOLDEN, rotation_flow
from ergolab.functions import AtomFunction, CircleFunction, sawtooth
from ergolab.inequalities import (
    SubmartingaleFamily,
    domination_chain_check,
    dominant_ineq_em,
    dominant_ineq_me,
    maximal_ineq_em,
    maximal_ineq_me,
    random_submartingale_family,
    submartingale_sup_check,
)
from ergolab.processes import em_process, me_process
from ergolab.spaces import (
    Circle,
    Filtration,
    VectorNorm,
    circle_space,
    discrete_space,
    make_dyadic_partition,
)
from ergolab.tolerances import TOLERANCES


def _setup():
    f = sawtooth(d=1)
    flow = rotation_flow(GOLDEN)
    filt = Filtration(circle_space(), "decreasing", max_level=4)
    vnorm = VectorNorm("euclidean", 1)
    t_grid = np.array([1.0, 2.0])
    s_grid = np.array([0.0, 1.0])
    return f, flow, filt, vnorm, t_grid, s_grid


def _quad_antideriv(y):
    return y ** 2 / 2 - y / 2


def _dense_grid_sup(t_vals, levels, n=160_000):
    # conditioned averages of the sawtooth, rebuilt without the package:
    # closed-form A_t, then aligned dyadic cell means
    pts = (np.arange(n) + 0.5) / n
    entries = []
    for t in t_vals:
        length = t * GOLDEN
        avg = (_quad_antideriv((pts + length) % 1.0)
               - _quad_antideriv(pts)) / length
        for lev in levels:
            m = 2 ** lev
            cells = avg.reshape(m, n // m).mean(axis=1)
            entries.append(np.repeat(cells, n // m))
    return np.max(np.abs(entries), axis=0)


def test_dominant_ineq_me_frozen():
    f, flow, filt, vnorm, t_grid, s_grid = _setup()
    grid = me_process(f, flow, filt, t_grid, s_grid)
    report = dominant_ineq_me(grid, 2.0, vnorm)
    assert report.lhs <= report.bound + TOLERANCES["dominant_ineq_me"]
    assert report.lhs == pytest.approx(0.1197355107316189, rel=1e-12)
    # p = 2 coefficient is exactly 4
    assert report.bound == pytest.approx(4.0 * np.sqrt(1.0 / 12.0), rel=1e-14)
    assert report.ratio == pytest.approx(report.lhs / report.bound, rel=1e-14)
    sup = _dense_grid_sup((1.0, 2.0), (4, 3))
    assert report.lhs == pytest.approx(float(np.sqrt(np.mean(sup ** 2))),
                                       abs=1e-9)


def test_norm_of_f_is_computed_once_per_norm_and_p(monkeypatch):
    from ergolab import processes

    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    _, flow, filt, _, t_grid, s_grid = _setup()
    grid = me_process(f, flow, filt, t_grid, s_grid)
    real = processes.pointwise_norm
    calls = []

    def counted(g, vnorm):
        calls.append((g, vnorm))
        return real(g, vnorm)

    monkeypatch.setattr(processes, "pointwise_norm", counted)
    euclid, biggest = VectorNorm("euclidean", 2), VectorNorm("max", 2)
    for vnorm, p in ((euclid, 1.5), (euclid, 1.5), (euclid, 3.0),
                     (biggest, 1.5)):
        dom = dominant_ineq_me(grid, p, vnorm)
        mx = maximal_ineq_me(grid, p, 0.1, vnorm)
        norm = float(real(f, vnorm).lp(p))
        assert np.float64(dom.bound).tobytes() == np.float64(
            (p / (p - 1.0)) ** 2 * norm).tobytes()
        assert np.float64(mx.bound).tobytes() == np.float64(
            (p / (p - 1.0)) * norm / 0.1).tobytes()
    # one quadrature of ||f|| per (norm, p), shared by both bounds
    assert calls == [(f, euclid), (f, euclid), (f, biggest)]


def test_dominant_ineq_em_frozen():
    f, flow, filt, vnorm, t_grid, s_grid = _setup()
    grid = em_process(f, flow, filt, t_grid, s_grid)
    report = dominant_ineq_em(grid, 2.0, vnorm)
    assert report.lhs <= report.bound + TOLERANCES["dominant_ineq_em"]
    assert report.lhs == pytest.approx(0.11276972550770975, rel=1e-12)
    assert report.lhs <= report.bound


def test_dominant_ineq_validation():
    f, flow, filt, vnorm, t_grid, s_grid = _setup()
    with pytest.raises(ValueError):
        dominant_ineq_me(me_process(f, flow, filt, t_grid, s_grid), 1.0, vnorm)
    rising = Filtration(circle_space(), "increasing", max_level=4)
    with pytest.raises(ValueError):
        dominant_ineq_me(me_process(f, flow, rising, t_grid, s_grid), 2.0,
                         vnorm)


def test_inequalities_reject_wrong_grid_kind():
    f, flow, filt, vnorm, t_grid, s_grid = _setup()
    me = me_process(f, flow, filt, t_grid, s_grid)
    em = em_process(f, flow, filt, t_grid, s_grid)
    for check, wrong in ((dominant_ineq_me, em), (dominant_ineq_em, me)):
        with pytest.raises(ValueError, match="grid"):
            check(wrong, 2.0, vnorm)
    for check, wrong in ((maximal_ineq_me, em), (maximal_ineq_em, me)):
        with pytest.raises(ValueError, match="grid"):
            check(wrong, 2.0, 0.1, vnorm)


def test_maximal_ineq_frozen_exceedances():
    f, flow, filt, vnorm, t_grid, s_grid = _setup()
    # the grid sup is piecewise constant on dyadic cells, so exceedance
    # measures come out as exact dyadic rationals
    grid = me_process(f, flow, filt, t_grid, s_grid)
    for eps, expect in ((0.05, 0.875), (0.1, 0.5), (0.15, 0.375)):
        report = maximal_ineq_me(grid, 2.0, eps, vnorm)
        assert report.exceedance <= report.bound + TOLERANCES["maximal_ineq_me"]
        assert report.exceedance == pytest.approx(expect, abs=1e-12)
        assert report.bound == pytest.approx(
            2.0 * np.sqrt(1.0 / 12.0) / eps, rel=1e-14)
    sup = _dense_grid_sup((1.0, 2.0), (4, 3))
    assert float(np.mean(sup >= 0.1)) == pytest.approx(0.5, abs=1e-4)


def test_maximal_ineq_em_runs_and_validates():
    f, flow, filt, vnorm, t_grid, s_grid = _setup()
    grid = em_process(f, flow, filt, t_grid, s_grid)
    report = maximal_ineq_em(grid, 2.0, 0.1, vnorm)
    assert report.exceedance <= report.bound + TOLERANCES["maximal_ineq_em"]
    with pytest.raises(ValueError):
        maximal_ineq_em(grid, 2.0, 0.0, vnorm)


def test_domination_chain_healthy_and_tight():
    flow = rotation_flow(GOLDEN)
    part = make_dyadic_partition(2)
    vnorm = VectorNorm("euclidean", 2)
    # equal components: the norm is collinear with the scalar dominant,
    # so the chain touches zero instead of leaving slack
    f_equal = sawtooth(d=2, amplitudes=[1.0, 1.0])
    worst = domination_chain_check(f_equal, flow, part,
                                   np.array([0.5, 1.0, 2.0, 5.0]), vnorm)
    assert worst <= 1e-10
    assert worst > -1e-12
    f_mixed = sawtooth(d=2, amplitudes=[1.0, 1.0], phases=[0.0, 0.3])
    worst_mixed = domination_chain_check(f_mixed, flow, part,
                                         np.array([0.7]), vnorm)
    assert worst_mixed == pytest.approx(-0.03451719083080568, rel=1e-10)


def test_domination_chain_integrates_the_norm_field_once(monkeypatch):
    # the dominant average of every grid time reads the same integral of
    # the euclidean norm field; one whole-circle quadrature serves them all
    from ergolab import fields
    real, whole = fields.SqrtPolyField.cumint, []

    def counted(self, y):
        if np.ndim(y) == 0:
            whole.append(float(y))
        return real(self, y)
    monkeypatch.setattr(fields.SqrtPolyField, "cumint", counted)
    f = sawtooth(d=2, amplitudes=[1.0, 1.0], phases=[0.0, 0.3])
    worst = domination_chain_check(f, rotation_flow(GOLDEN),
                                   make_dyadic_partition(2),
                                   np.array([0.5, 0.7, 2.0, 5.0]),
                                   VectorNorm("euclidean", 2))
    assert whole == [1.0]
    # the value of four quadratures, one per time, bit for bit
    assert worst == -0.009585512569577737


def _const_slices(values, space):
    if isinstance(space, Circle):
        return [CircleFunction.constant(v, space) for v in values]
    return [AtomFunction.constant(v, space) for v in values]


def _sup_is_submartingale(report):
    # the runner's submartingale_sup rule
    return (report.sup_defect <= TOLERANCES["submartingale_sup"]
            and report.terminal_defect == 0.0)


def test_manual_submartingale_family():
    sp = circle_space()
    filt = Filtration(sp, "increasing", max_level=2)
    s_grid = np.array([0.0, 1.0, 2.0])
    g1 = _const_slices([0.0, 0.25, 0.5], sp)
    g2 = _const_slices([0.3, 0.3, 0.3], sp)
    family = SubmartingaleFamily(filt, s_grid, [g1, g2])
    assert family.n_indices == 2
    report = submartingale_sup_check(family)
    assert _sup_is_submartingale(report)
    assert report.sup_defect <= 1e-12
    assert report.positive_part_bound == pytest.approx(0.5)
    # sup slices are the pointwise maxima of the constants
    assert family.sup_slice(0)(0.4)[0] == pytest.approx(0.3)
    assert family.sup_slice(2)(0.4)[0] == pytest.approx(0.5)
    # on an atomic space the sup slices are atom functions
    atoms = discrete_space(np.full(4, 0.25))
    family = SubmartingaleFamily(
        Filtration(atoms, "increasing", max_level=2), s_grid,
        [_const_slices([0.0, 0.25, 0.5], atoms),
         _const_slices([0.3, 0.3, 0.3], atoms)])
    assert _sup_is_submartingale(submartingale_sup_check(family))
    top = family.sup_slice(0)
    assert isinstance(top, AtomFunction) and np.all(top.values == 0.3)


def test_submartingale_family_rejects_bad_input():
    sp = circle_space()
    filt = Filtration(sp, "increasing", max_level=2)
    s_grid = np.array([0.0, 1.0])
    down = _const_slices([1.0, 0.0], sp)
    with pytest.raises(ValueError, match="submartingale property"):
        SubmartingaleFamily(filt, s_grid, [down])
    lopsided = CircleFunction.piecewise_constant(
        np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0]), sp)
    with pytest.raises(ValueError, match="not adapted"):
        SubmartingaleFamily(filt, s_grid,
                            [[lopsided, CircleFunction.constant(2.0, sp)]])
    # slope 1 on each finest cell, 0 at every cell midpoint
    quarters = np.linspace(0.0, 1.0, 5)
    mids = 0.5 * (quarters[:-1] + quarters[1:])
    ramp = CircleFunction(quarters, np.stack([-mids, np.ones(4)], 1)[:, :, None], sp)
    with pytest.raises(ValueError, match="not adapted"):
        SubmartingaleFamily(filt, s_grid,
                            [[ramp, CircleFunction.constant(2.0, sp)]])
    with pytest.raises(ValueError, match="slices"):
        SubmartingaleFamily(filt, s_grid, [_const_slices([0.0], sp)])
    falling = Filtration(sp, "decreasing", max_level=2)
    with pytest.raises(ValueError, match="increasing"):
        SubmartingaleFamily(falling, s_grid, [_const_slices([0.0, 0.0], sp)])
    with pytest.raises(ValueError):
        SubmartingaleFamily(filt, s_grid, [])
    # the time grid follows the process grids' rule, non-finite values too
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="s_grid values must be finite"):
            SubmartingaleFamily(filt, np.array([0.0, bad]),
                                [_const_slices([0.0, 0.0], sp)])


def test_random_family_passes_check():
    filt = Filtration(circle_space(), "increasing", max_level=5)
    s_grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    rng = np.random.default_rng(42)
    family = random_submartingale_family(filt, s_grid, 4, rng)
    assert family.n_indices == 4
    report = submartingale_sup_check(family)
    assert _sup_is_submartingale(report)
    assert np.isfinite(report.positive_part_bound)


def test_random_family_validation():
    filt = Filtration(circle_space(), "decreasing", max_level=3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_submartingale_family(filt, np.array([0.0, 1.0]), 2, rng)
    sp = discrete_space(np.full(4, 0.25))
    atom_filt = Filtration(sp, "increasing", max_level=2)
    with pytest.raises(ValueError):
        random_submartingale_family(atom_filt, np.array([0.0, 1.0]), 2, rng)
