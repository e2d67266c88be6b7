import itertools
import os

import numpy as np
import pytest

from ergolab.cli import scenario_dir
from ergolab.condexp import cond_exp
from ergolab.config import parse_text
from ergolab import fields, processes, runner
from ergolab.fields import grid_sup_field, pointwise_norm
from ergolab.flows import (
    GOLDEN,
    cesaro_average,
    identity_flow,
    rotation_flow,
    step_flow,
)
from ergolab.functions import AtomFunction, CircleFunction, hat, sawtooth
from ergolab.processes import (
    cesaro_decomposition_check,
    commutation_check,
    convergence_table,
    em_process,
    ergodic_envelope_check,
    ergodic_envelope_constant,
    limits,
    me_process,
    sup_integrability_report,
)
from ergolab.spaces import (
    Filtration,
    VectorNorm,
    circle_space,
    discrete_space,
    make_dyadic_partition,
    product_space,
)

import oracles


def _golden_setup(max_level=4):
    f = sawtooth(d=1)
    flow = rotation_flow(GOLDEN)
    filt = Filtration(circle_space(), "decreasing", max_level=max_level)
    return f, flow, filt


def _quad_antideriv(y):
    return y ** 2 / 2 - y / 2


def test_me_entry_frozen_cells():
    f, flow, filt = _golden_setup()
    grid = me_process(f, flow, filt, np.array([1.0, 2.5]),
                      np.array([0.0, 2.0]))
    entry = grid.entry(2.5, 2.0)  # level 2, four cells
    cells = entry.coeffs[:, 0, 0]
    assert np.allclose(cells,
                       [-0.03614561800016822, 0.04941985962555731,
                        0.030166278062294938, -0.04344051968768414],
                       rtol=1e-12)
    # independent path: A_t saw(x) = (G(frac(x+L)) - G(x)) / L, then
    # per-cell composite midpoint averages
    L = 2.5 * GOLDEN
    for i in range(4):
        pts = (i + oracles.midpoints(20_001)) / 4
        vals = (_quad_antideriv((pts + L) % 1.0) - _quad_antideriv(pts)) / L
        assert cells[i] == pytest.approx(float(np.mean(vals)), abs=1e-8)


def test_em_entry_frozen_value():
    f, flow, filt = _golden_setup()
    grid = em_process(f, flow, filt, np.array([1.0, 2.5]),
                      np.array([0.0, 2.0]))
    entry = grid.entry(2.5, 2.0)
    assert entry(0.1)[0] == pytest.approx(-0.04489356881873894, rel=1e-12)
    # E(saw|level 2) steps through -3/8, -1/8, 1/8, 3/8; averaging that
    # step function along the orbit has an elementary closed form
    cv = np.array([-0.375, -0.125, 0.125, 0.375])
    csum = np.concatenate([[0.0], np.cumsum(cv / 4)])

    def step_antideriv(y):
        k = min(int(y * 4), 3)
        return csum[k] + cv[k] * (y - k / 4)

    L = 2.5 * GOLDEN
    ref = (step_antideriv((0.1 + L) % 1.0) - step_antideriv(0.1)) / L
    assert entry(0.1)[0] == pytest.approx(ref, abs=1e-13)


def test_grid_entries_match_recompute():
    f, flow, filt = _golden_setup()
    t_grid = np.array([0.5, 1.0, 3.0])
    s_grid = np.array([0.0, 1.0, 2.0])
    me = me_process(f, flow, filt, t_grid, s_grid)
    em = em_process(f, flow, filt, t_grid, s_grid)
    for grid in (me, em):
        for (t, s), fn in grid.items():
            again = grid.recompute_entry(t, s)
            x = (np.arange(100) + 0.37) / 100
            assert np.max(np.abs(fn(x) - again(x))) < 1e-14

    # each grid keeps its first operator's family, bit for bit, in grid order
    def same(a, b):
        return (a.breaks.tobytes() == b.breaks.tobytes()
                and a.coeffs.tobytes() == b.coeffs.tobytes())

    assert list(me.inner) == [0.5, 1.0, 3.0]
    for t, avg in me.inner.items():
        assert same(avg, cesaro_average(flow, t, f))
    # s = 0, 1, 2 fall on levels 4, 3, 2 of the decreasing filtration
    assert list(em.inner) == [4, 3, 2]
    for k, proj in em.inner.items():
        assert same(proj, cond_exp(f, filt.partition_at_level(k)))


def _three_level_setup(kind):
    """8 values of s on 3 levels of a decreasing filtration (2, 2, 1, 1, 0,
    ...) and 3 values of t, on the circle or on 8 atoms."""
    s_grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0])
    t_grid = np.array([1.0, 2.5, 6.0])
    if kind == "rotation":
        f, flow, filt = _golden_setup(max_level=2)
    else:
        sp = discrete_space(np.full(8, 1.0 / 8.0))
        f = AtomFunction(sp, np.random.default_rng(3).normal(size=(8, 2)))
        flow = step_flow(sp, sp.shift_perm(), h=0.5)
        filt = Filtration(sp, "decreasing", max_level=2)
    return f, flow, filt, t_grid, s_grid


@pytest.mark.parametrize("kind", ["rotation", "step"])
def test_grids_build_one_entry_per_time_and_level(monkeypatch, kind):
    f, flow, filt, t_grid, s_grid = _three_level_setup(kind)
    levels = [filt.level(s) for s in s_grid]
    assert levels == [2, 2, 1, 1, 0, 0, 0, 0]
    calls = {"avg": 0, "cond": 0, "pairs": 0}
    averaged_times = []
    real_avg, real_cond = processes.cesaro_averages, processes.cond_exps

    def counted_avg(flow, times, g):
        calls["avg"] += 1
        averaged_times.append(list(times))
        return real_avg(flow, times, g)

    def counted_cond(fns, partitions):
        fns = list(fns)
        calls["cond"] += 1
        calls["pairs"] += len(fns)
        return real_cond(fns, partitions)

    monkeypatch.setattr(processes, "cesaro_averages", counted_avg)
    monkeypatch.setattr(processes, "cond_exps", counted_cond)
    grids = {}
    # one batched average over the whole t grid: of f (ME), of each level's
    # conditioning (EM); one batched conditioning of every (t, level) (ME)
    # or of f on every level (EM)
    for build, want in ((me_process, {"avg": 1, "cond": 1, "pairs": 9}),
                        (em_process, {"avg": 3, "cond": 1, "pairs": 3})):
        calls.update(avg=0, cond=0, pairs=0)
        averaged_times.clear()
        grids[build] = grid = build(f, flow, filt, t_grid, s_grid)
        assert calls == want
        assert averaged_times == [t_grid.tolist()] * want["avg"]
    monkeypatch.undo()
    me, em = grids[me_process], grids[em_process]
    assert list(me.inner) == t_grid.tolist()
    # the EM family is keyed by level, in order of first appearance
    assert list(em.inner) == [2, 1, 0]
    for grid in (me, em):
        # one table key per (t, level), one entry object per key
        assert list(grid.table) == [(t, k) for t in t_grid for k in (2, 1, 0)]
        assert len({id(fn) for fn in grid.table.values()}) == 9
        for t in t_grid:
            for s1, k1 in zip(s_grid, levels):
                assert grid.entry(t, s1) is grid.table[(t, k1)]
                for s2, k2 in zip(s_grid, levels):
                    assert (grid.entry(t, s1) is grid.entry(t, s2)) == (k1 == k2)

    def bits(fn):
        return (fn.values if kind == "step" else fn.coeffs).tobytes()

    for grid in (me, em):
        for (t, s), fn in grid.items():
            assert bits(fn) == bits(grid.recompute_entry(t, s))


def test_grids_on_a_dense_step_lattice():
    # every whole t up to one full period of a 512-atom shift, 10 levels:
    # one orbit pass per input serves all 512 times
    sp = discrete_space(np.full(512, 1.0 / 512))
    f = AtomFunction(sp, np.random.default_rng(11).normal(size=(512, 2)))
    flow = step_flow(sp, sp.shift_perm(), h=1.0)
    filt = Filtration(sp, "decreasing", max_level=9)
    t_grid = np.arange(1.0, 513.0)
    s_grid = np.arange(10.0)
    me, em = (build(f, flow, filt, t_grid, s_grid)
              for build in (me_process, em_process))
    for grid in (me, em):
        assert len(grid.table) == 512 * 10
        for t in (1.0, 257.0, 512.0):
            for s in s_grid:
                assert (grid.entry(t, s).values.tobytes()
                        == grid.recompute_entry(t, s).values.tobytes())
    # and the EM batch carries the bits of a per-step loop
    for (t, level), entry in em.table.items():
        if t in (1.0, 257.0, 512.0):
            loop = oracles.loop_step_average(em.inner[level].values,
                                             sp.shift_perm(), t, 1.0)
            assert entry.values.tobytes() == loop.tobytes()


def _stretched_scenario(name):
    """A shipped step scenario with its t grid 1, 2, 4, ..., 2**14."""
    with open(os.path.join(scenario_dir(), name + ".cfg"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (("t_grid.ratio = 1.5", "t_grid.ratio = 2"),
                     ("t_grid.count = 16", "t_grid.count = 15")):
        assert old in text
        text = text.replace(old, new)
    cfg = parse_text(text)
    return runner.build_context(cfg, np.random.default_rng(cfg.seed))


@pytest.mark.parametrize("name", ["step_z4_half", "product_z8x2"])
def test_long_horizon_step_grids_match_the_loop(name):
    # t = 2**14 on the grid and 2**15 for the limits: up to 65,536 steps
    ctx = _stretched_scenario(name)
    flow, f = ctx.flow, ctx.f
    t = float(ctx.t_grid[-1])
    assert t == 2.0 ** 14

    def loop(values, time):
        return oracles.loop_step_average(values, flow.perm, time, flow.h)

    def cond(values, part):
        cells = [np.flatnonzero(part.cell_of == k) for k in range(part.ncells)]
        return oracles.loop_atom_cell_averages(f.space.weights, values, cells)
    me, em, lim = ctx.grid("me"), ctx.grid("em"), ctx.proc_limits()
    avg = loop(f.values, t)
    for level in em.inner:
        part = ctx.filtration.partition_at_level(level)
        assert me.table[(t, level)].values.tobytes() == cond(avg, part).tobytes()
        assert em.table[(t, level)].values.tobytes() == \
            loop(cond(f.values, part), t).tobytes()
    terminal = cond(f.values, ctx.filtration.terminal())
    assert lim.em_limit.values.tobytes() == loop(terminal, 2.0 * t).tobytes()
    if not flow.ergodic:
        assert lim.ergodic_limit.values.tobytes() == \
            loop(f.values, 2.0 * t).tobytes()
    assert flow.ergodic == (name == "step_z4_half")


@pytest.mark.parametrize("kind", ["rotation", "step"])
def test_entry_off_the_s_grid_reads_its_level(kind):
    # F_s depends on s only through its level, so an s between grid values
    # reads the entry of its level, which is exactly the (t, s) value
    f, flow, filt, t_grid, s_grid = _three_level_setup(kind)
    for build in (me_process, em_process):
        grid = build(f, flow, filt, t_grid, s_grid)
        for t in t_grid:
            for s in (0.25, 1.75, 2.5, 9.0):
                assert float(s) not in s_grid
                fn = grid.entry(t, s)
                assert fn is grid.table[(t, filt.level(s))]
                again = grid.recompute_entry(t, s)
                if kind == "step":
                    assert fn.values.tobytes() == again.values.tobytes()
                else:
                    assert fn.coeffs.tobytes() == again.coeffs.tobytes()


def test_grid_families_take_one_member_per_distinct_entry(monkeypatch):
    # 8 s values on 3 levels, 3 t values: every family read from a grid
    # holds the 9 distinct entries (or the 3 EM conditionings), not 24 (or 8)
    f, flow, filt, t_grid, s_grid = _three_level_setup("rotation")
    vnorm = VectorNorm("max", 1)
    ctx = runner.ScenarioContext(None, f.space, flow, f, filt, vnorm,
                                 t_grid, s_grid, None)
    me, em, lim = ctx.grid("me"), ctx.grid("em"), ctx.proc_limits()
    sizes = []
    real = fields.NormFamily

    def recorded(members, *args):
        members = list(members)
        sizes.append(len(members))
        return real(members, *args)

    monkeypatch.setattr(processes, "NormFamily", recorded)
    monkeypatch.setattr(runner, "NormFamily", recorded)
    for grid, target in ((me, lim.me_limit), (em, lim.em_limit)):
        grid.norm_sup(vnorm)
        report = convergence_table(grid, target, 2.0, vnorm)
        assert [row[:2] for row in report] == list(
            itertools.product(t_grid.tolist(), s_grid.tolist()))
    sup_integrability_report(em.inner.values(), vnorm)
    runner.CHECKS["me_em_coincidence"](ctx)
    # me_em_coincidence adds the limit gap as one more member
    assert sizes == [9, 9, 9, 9, 3, 9 + 1]


def test_grid_items_yield_each_time_and_s_once(monkeypatch):
    f, flow, filt, t_grid, s_grid = _three_level_setup("step")
    grid = em_process(f, flow, filt, t_grid, s_grid)

    def no_entry(self, t, s):
        raise AssertionError("items reads the table, not entry")

    monkeypatch.setattr(processes.ProcessGrid, "entry", no_entry)
    pairs = list(grid.items())
    assert [ts for ts, _ in pairs] == list(
        itertools.product(t_grid.tolist(), s_grid.tolist()))
    for (t, s), fn in pairs:
        assert fn is grid.table[(t, filt.level(s))]


def test_grid_keys_are_built_once(monkeypatch):
    f, flow, filt, t_grid, s_grid = _three_level_setup("rotation")
    grid = me_process(f, flow, filt, t_grid, s_grid)
    want = [((t, s), grid.table[(t, filt.level(s))])
            for t in t_grid.tolist() for s in s_grid.tolist()]

    def no_level(self, s):
        raise AssertionError("the grid's keys are built with the grid")

    monkeypatch.setattr(Filtration, "level", no_level)
    for _ in range(2):
        got = list(grid.items())
        assert [ts for ts, _ in got] == [ts for ts, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(got, want))
    table = convergence_table(grid, f, 2.0, VectorNorm("max", 1))
    assert [row[:2] for row in table] == [ts for ts, _ in want]


def test_entry_off_the_grid_names_t_or_s():
    grid = me_process(hat(), rotation_flow(GOLDEN),
                      Filtration(circle_space(), "decreasing", 3), [1, 2],
                      [0, 1])
    with pytest.raises(ValueError, match=r"t = 3.0 is not on the grid's t "
                                         "grid"):
        grid.entry(3.0, 0.0)
    # s = 2.5 is on level 1, which neither s = 0 (3) nor s = 1 (2) reaches
    with pytest.raises(ValueError, match=r"s = 2.5 is on level 1, off the "
                                         "grid"):
        grid.entry(1.0, 2.5)
    assert grid.entry(2, 0.5) is grid.table[(2.0, 3)]


def test_norm_sup_is_memoised_per_norm():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    flow = rotation_flow(GOLDEN)
    filt = Filtration(circle_space(), "decreasing", max_level=3)
    grid = em_process(f, flow, filt, np.array([1.0, 2.5]),
                      np.array([0.0, 2.0]))
    x = (np.arange(300) + 0.37) / 300
    for vnorm in (VectorNorm("euclidean", 2), VectorNorm("max", 2)):
        sup = grid.norm_sup(vnorm)
        assert grid.norm_sup(vnorm) is sup
        fresh = grid_sup_field([pointwise_norm(fn, vnorm)
                                for _, fn in grid.items()])
        assert np.array_equal(sup.eval(x), fresh.eval(x))
        assert sup.lp(2.0) == fresh.lp(2.0)
    assert grid.norm_sup(VectorNorm("max", 2)) is not \
        grid.norm_sup(VectorNorm("euclidean", 2))


def test_grid_items_row_major():
    f, flow, filt = _golden_setup()
    grid = me_process(f, flow, filt, np.array([1.0, 2.0]),
                      np.array([0.0, 1.0]))
    keys = [k for k, _ in grid.items()]
    assert keys == [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)]


def test_grid_validation():
    f, flow, filt = _golden_setup()
    with pytest.raises(ValueError):
        me_process(f, flow, filt, np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        me_process(f, flow, filt, np.array([2.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        em_process(f, flow, filt, np.array([1.0]), np.array([-1.0, 0.0]))


@pytest.mark.parametrize("build", [me_process, em_process])
def test_grids_reject_non_finite_values_naming_the_grid(build):
    # NaN fails no comparison, so it must fail a finiteness rule of its own
    f, flow, filt = _golden_setup()
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_grid values must be finite"):
            build(f, flow, filt, np.array([1.0, bad]), np.array([0.0]))
        with pytest.raises(ValueError, match="s_grid values must be finite"):
            build(f, flow, filt, np.array([1.0]), np.array([0.0, bad]))


def test_limits_ergodic_rotation():
    f, flow, filt = _golden_setup()
    lim = limits(f, flow, filt, t_max=100.0)
    x = np.linspace(0.0, 0.99, 7)
    # mean-zero input: all three limits vanish for the ergodic rotation
    # with a decreasing filtration (terminal partition is trivial)
    assert np.max(np.abs(lim.ergodic_limit(x))) < 1e-15
    assert np.max(np.abs(lim.me_limit(x))) < 1e-15
    assert np.max(np.abs(lim.em_limit(x))) < 1e-15


def test_limits_identity_flow_surrogate():
    sp = discrete_space(np.full(4, 0.25))
    f = AtomFunction(sp, np.array([1.0, -1.0, 2.0, -2.0]))
    filt = Filtration(sp, "decreasing", max_level=2)
    lim = limits(f, identity_flow(sp), filt, t_max=8.0)
    # identity flow: the time average never moves
    assert np.allclose(lim.ergodic_limit.values, f.values)
    assert np.allclose(lim.me_limit.values, 0.0)
    with pytest.raises(ValueError):
        limits(f, identity_flow(sp), filt, t_max=0.0)


def test_decomposition_identity_rotation():
    flow = rotation_flow(GOLDEN)
    g = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    vnorm = VectorNorm("max", 2)
    times = (1.0, 2.5, 7.25, 33.0)
    defects = cesaro_decomposition_check(flow, g, times, vnorm)
    assert len(defects) == len(times) and np.all(defects <= 1e-10)


def test_decomposition_identity_step():
    sp = discrete_space(np.full(4, 0.25))
    g = AtomFunction(sp, np.array([0.8, -0.35, 0.55, -0.9]))
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    vnorm = VectorNorm("max", 1)
    times = (1.0, 2.7, 6.25)
    defects = cesaro_decomposition_check(flow, g, times, vnorm)
    assert len(defects) == len(times) and np.all(defects <= 1e-12)
    bad = step_flow(sp, sp.shift_perm(), h=0.3)
    with pytest.raises(ValueError, match="1/h to be an integer"):
        cesaro_decomposition_check(bad, g, [2.0], vnorm)
    with pytest.raises(ValueError, match="t >= 1"):
        cesaro_decomposition_check(flow, g, [2.0, 0.5], vnorm)
    with pytest.raises(ValueError, match="at least one member"):
        cesaro_decomposition_check(flow, g, [], vnorm)


def test_commutation_zero_for_factor_partition():
    sp = product_space(8, np.array([0.6, 0.4]))
    rng = np.random.default_rng(3)
    f = AtomFunction(sp, rng.normal(size=(16, 2)))
    flow = step_flow(sp, sp.shift_perm(), h=1.0)
    part = sp.partition(1)
    assert commutation_check(flow, f, part, VectorNorm("max", 2)) <= 1e-12


def test_commutation_nonzero_for_rotation():
    f, flow, _ = _golden_setup()
    part = make_dyadic_partition(2)
    # rotations smear cells across cell boundaries; the defect is a
    # diagnostic size, not a roundoff artifact
    assert commutation_check(flow, f, part, VectorNorm("max", 1)) > 1e-3


def test_convergence_table_me():
    f, flow, filt = _golden_setup()
    t_grid = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
    s_grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    grid = me_process(f, flow, filt, t_grid, s_grid)
    lim = limits(f, flow, filt, t_max=16.0)
    report = convergence_table(grid, lim.me_limit, 2.0,
                               VectorNorm("euclidean", 1))
    assert len(report) == 25
    assert len(report.diagonal) == 5
    assert report.final_sup_error <= 0.05
    assert [row[:2] for row in report.diagonal] == [
        (1.0, 0.0), (2.0, 1.0), (3.0, 2.0), (5.0, 3.0), (8.0, 4.0)]
    # terminal diagonal entry conditions on the trivial partition, so the
    # error is exactly zero there
    assert report.diagonal[-1][3] == 0.0


def test_sup_integrability_frozen():
    f, flow, filt = _golden_setup()
    vnorm = VectorNorm("max", 1)
    val = sup_integrability_report(
        [cesaro_average(flow, t, f) for t in (0.5, 1.0, 2.0, 4.0)], vnorm)
    assert val == pytest.approx(0.19614198679505535, rel=1e-12)
    # dense reference: max of the closed-form averages, then quadrature
    pts = oracles.midpoints(200_001)
    members = []
    for t in (0.5, 1.0, 2.0, 4.0):
        L = t * GOLDEN
        members.append(np.abs(_quad_antideriv((pts + L) % 1.0)
                              - _quad_antideriv(pts)) / L)
    ref = float(np.mean(np.max(members, axis=0)))
    assert val == pytest.approx(ref, abs=1e-7)

    sval = sup_integrability_report(
        [cond_exp(f, filt.partition(s)) for s in (0.0, 1.0, 2.0, 3.0)], vnorm)
    assert sval == pytest.approx(85.0 / 256.0, rel=1e-14)


def test_sup_integrability_validation():
    with pytest.raises(ValueError, match="at least one member"):
        sup_integrability_report([], VectorNorm("max", 1))


def test_envelope_constant_rotation_exact():
    f, flow, _ = _golden_setup()
    # centered antiderivative of the sawtooth peaks at 1/8
    vnorm = VectorNorm("max", 1)
    assert ergodic_envelope_constant(flow, f, vnorm) == pytest.approx(
        0.25 / GOLDEN, rel=1e-14)
    with pytest.raises(ValueError):
        ergodic_envelope_constant(rotation_flow(0.25), f, vnorm)


def test_envelope_constant_step():
    sp = discrete_space(np.full(4, 0.25))
    f = AtomFunction(sp, np.array([1.0, 0.0, 0.0, -1.0]))
    flow = step_flow(sp, sp.shift_perm(), h=0.5)
    assert ergodic_envelope_constant(flow, f, VectorNorm("max", 1)) \
        == pytest.approx(2.0)


def test_envelope_check_bounds_errors():
    f, flow, _ = _golden_setup()
    averages = {t: cesaro_average(flow, t, f)
                for t in (1.0, 3.0, 10.0, 100.0, 1000.0)}
    vnorm = VectorNorm("max", 1)
    report = ergodic_envelope_check(flow, f, averages, vnorm,
                                    ergodic_envelope_constant(flow, f, vnorm))
    for t, err, bound in report.rows:
        assert err <= bound + 1e-12
        assert bound == pytest.approx(report.constant / t)


# -- grid norms in one stacked pass against per-entry loops -------------------


def _grid_cases():
    """(f, flow, filtration, vnorm): each circle norm, and an atom grid with
    each of its norms."""
    circle = Filtration(circle_space(), "decreasing", max_level=3)
    golden = rotation_flow(GOLDEN)
    cases = [(sawtooth(d=1), "max"),
             (hat(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3]), "max"),
             (sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3]), "sum"),
             (hat(d=3, phases=[0.0, 0.2, 0.7]), "sum"),
             (hat(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3]), "euclidean")]
    out = [(f, golden, circle, VectorNorm(sel, f.d)) for f, sel in cases]
    sp = discrete_space(np.full(8, 1.0 / 8.0))
    values = np.random.default_rng(5).uniform(-1.0, 1.0, (8, 2))
    steps = step_flow(sp, sp.shift_perm(), h=1.0)
    atoms = Filtration(sp, "decreasing", max_level=3)
    out += [(AtomFunction(sp, values), steps, atoms, VectorNorm(sel, 2))
            for sel in ("max", "sum", "euclidean")]
    return out


def _same_field(a, b):
    if isinstance(a, fields.AtomField):
        return a.values.tobytes() == b.values.tobytes()
    fa = a.q if isinstance(a, fields.SqrtPolyField) else a.fn
    fb = b.q if isinstance(b, fields.SqrtPolyField) else b.fn
    return (type(a) is type(b) and fa.breaks.tobytes() == fb.breaks.tobytes()
            and fa.coeffs.tobytes() == fb.coeffs.tobytes())


@pytest.mark.parametrize("case", range(8))
def test_grid_norms_match_per_entry_loops(case):
    f, flow, filt, vnorm = _grid_cases()[case]
    t_grid, s_grid = np.array([1.0, 2.0, 3.5, 8.0]), np.array([0.0, 1.0, 2.0, 3.0])
    lim = limits(f, flow, filt, t_max=16.0)
    for grid, target in ((me_process(f, flow, filt, t_grid, s_grid), lim.me_limit),
                         (em_process(f, flow, filt, t_grid, s_grid), lim.em_limit)):
        entries = [fn for _, fn in grid.items()]
        for p in (1.0, 1.5, 2.0, 3.0):
            report = convergence_table(grid, target, p, vnorm)
            ref = []
            for ((t, s), fn) in grid.items():
                field = pointwise_norm(fn - target, vnorm)
                ref.append((t, s, field.lp(p), field.sup()))
            assert np.array(report.rows).tobytes() == np.array(ref).tobytes()
        env = grid_sup_field([pointwise_norm(fn, vnorm) for fn in entries])
        assert _same_field(grid.norm_sup(vnorm), env)
        members = list(grid.inner.values())
        ref_l1 = float(grid_sup_field([pointwise_norm(g, vnorm)
                                       for g in members]).lp(1.0))
        got_l1 = sup_integrability_report(members, vnorm)
        assert np.float64(got_l1).tobytes() == np.float64(ref_l1).tobytes()
    if flow.ergodic:
        averages = {t: cesaro_average(flow, t, f) for t in t_grid}
        report = ergodic_envelope_check(
            flow, f, averages, vnorm, ergodic_envelope_constant(flow, f, vnorm))
        const = (AtomFunction if isinstance(f, AtomFunction)
                 else CircleFunction).constant(f.mean(), f.space)
        ref = [pointwise_norm(avg - const, vnorm).sup()
               for avg in averages.values()]
        errs = [err for _, err, _ in report.rows]
        assert np.array(errs).tobytes() == np.array(ref).tobytes()


def test_convergence_table_work_does_not_grow_with_entries(monkeypatch):
    # the root searches and the top-level quadrature calls of a 16 x 16
    # table are as many as those of a 4 x 4 table: one per kernel, not one
    # per entry
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    flow = rotation_flow(GOLDEN)
    filt = Filtration(circle_space(), "decreasing", max_level=4)
    vnorm = VectorNorm("sum", 2)
    t_all = 2.0 ** np.arange(16)
    s_all = np.arange(16.0)
    target = limits(f, flow, filt, t_max=2.0 * t_all[-1]).em_limit
    roots, quads = [0], [0]
    real_roots, real_quad = fields._piece_roots, fields.gl_integrate

    def counted_roots(*args, **kwargs):
        roots[0] += 1
        return real_roots(*args, **kwargs)

    def counted_quad(fn, lo, hi, depth=0, **kwargs):
        quads[0] += depth == 0
        return real_quad(fn, lo, hi, depth, **kwargs)

    counts = []
    for n in (4, 16):
        grid = em_process(f, flow, filt, t_all[:n], s_all[:n])
        monkeypatch.setattr(fields, "_piece_roots", counted_roots)
        monkeypatch.setattr(fields, "gl_integrate", counted_quad)
        roots[0] = quads[0] = 0
        report = convergence_table(grid, target, 1.5, vnorm)
        monkeypatch.undo()
        assert len(report) == n * n
        counts.append((roots[0], quads[0]))
    assert counts[0] == counts[1]
    assert 0 < counts[1][0] <= 4 and 0 < counts[1][1] <= 2
