"""Acceptance gate: one test per shipped guarantee.

Each test prints a single criterion line and enforces the stated
tolerance; the randomized ones fix their seeds so reruns are identical.
"""

import filecmp
import glob
import os
import time

import numpy as np
import pytest

from ergolab.cli import main as cli_main
from ergolab.cli import shipped_scenarios
from ergolab.condexp import (
    LinearFunctional,
    cond_exp,
    defining_property_check,
    functional_commutation_check,
)
from ergolab.config import parse_config
from ergolab.fields import (
    grid_sup_field,
    pointwise_norm,
)
from ergolab.flows import (
    apply_flow,
    cesaro_average,
    rotation_flow,
    step_flow,
)
from ergolab.functions import (
    AtomFunction,
    CircleFunction,
    cascade,
    sawtooth,
)
from ergolab.inequalities import (
    domination_chain_check,
    random_submartingale_family,
    submartingale_sup_check,
)
from ergolab.processes import (
    cesaro_decomposition_check,
    em_process,
    ergodic_envelope_check,
    ergodic_envelope_constant,
    limits,
    me_process,
)
from ergolab.runner import build_context
from ergolab.spaces import (
    Filtration,
    VectorNorm,
    circle_space,
    discrete_space,
    make_dyadic_partition,
)
from ergolab.tolerances import TOLERANCES


def _criterion(capsys, number, label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    line = f"criterion {number} [{label}]: {'PASS' if ok else 'FAIL'}{tail}"
    # bypass capture so the gate line always reaches the run log
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} [{label}] failed {tail}"


@pytest.fixture(scope="module")
def shipped():
    return [parse_config(path) for path in shipped_scenarios("all")]


def _random_circle_function(rng, d):
    nb = int(rng.integers(2, 7))
    inner = np.sort(rng.uniform(0.05, 0.95, nb - 1))
    breaks = np.concatenate([[0.0], inner, [1.0]])
    deg = int(rng.integers(0, 3))
    coeffs = rng.normal(0.0, 1.0, size=(nb, deg + 1, d))
    return CircleFunction(breaks, coeffs)


def test_criterion_1_decomposition_identity(capsys):
    rng = np.random.default_rng(20260816)
    start = time.perf_counter()
    worst = 0.0
    for case in range(100):
        d = int(rng.integers(1, 4))
        if case % 2 == 0:
            flow = rotation_flow(float(rng.uniform(0.05, 0.95)))
            g = _random_circle_function(rng, d)
        else:
            n = int(rng.integers(2, 13))
            space = discrete_space(np.full(n, 1.0 / n))
            h = float(rng.choice([1.0, 0.5, 0.25, 0.2]))
            flow = step_flow(space, rng.permutation(n), h=h)
            g = AtomFunction(space, rng.normal(size=(n, d)))
        t = float(rng.uniform(1.0, 64.0))
        worst = max(worst, cesaro_decomposition_check(flow, g, [t],
                                                      VectorNorm("max", d))[0])
    elapsed = time.perf_counter() - start
    _criterion(capsys, 1, "decomposition identity", worst <= 1e-9 and elapsed < 10.0,
               f"worst defect {worst:.3e}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def grid_sups(shipped):
    """Per scenario: 16x16 ME and EM grid sup fields on a forced
    decreasing filtration, plus the pieces the bounds need."""
    start = time.perf_counter()
    rows = []
    t_grid = np.array([1.32 ** k for k in range(16)])
    s_grid = np.arange(16.0)
    for cfg in shipped:
        ctx = build_context(cfg, np.random.default_rng(cfg.seed))
        filt = Filtration(ctx.space, "decreasing", cfg.filtration_max_level)
        sups = {}
        for kind, build in (("ME", me_process), ("EM", em_process)):
            grid = build(ctx.f, ctx.flow, filt, t_grid, s_grid)
            sups[kind] = grid_sup_field(
                [pointwise_norm(fn, ctx.vnorm) for _, fn in grid.items()])
        rows.append((cfg.name, ctx.f, ctx.vnorm, sups))
    return rows, time.perf_counter() - start


def test_criterion_2_dominant_inequality_constants(capsys, grid_sups):
    rows, build_time = grid_sups
    start = time.perf_counter()
    assert (2.0 / (2.0 - 1.0)) ** 2 == 4.0
    ok = True
    details = []
    for name, f, vnorm, sups in rows:
        for p in (1.5, 2.0, 3.0):
            rhs = ((p / (p - 1.0)) ** 2) * pointwise_norm(f, vnorm).lp(p)
            for kind in ("ME", "EM"):
                lhs = float(sups[kind].lp(p))
                if lhs > rhs + 1e-9:
                    ok = False
                    details.append(f"{name}/{kind}/p={p}: {lhs:.6g} > {rhs:.6g}")
    elapsed = build_time + time.perf_counter() - start
    _criterion(capsys, 2, "dominant inequality constants", ok and elapsed < 30.0,
               "; ".join(details) or f"7 scenarios x 3 p x 2 orders, "
               f"{elapsed:.2f}s incl. grid build")


def test_criterion_3_weak_type_bounds(capsys, grid_sups):
    rows, _ = grid_sups
    ok = True
    details = []
    for name, f, vnorm, sups in rows:
        for p in (1.5, 2.0, 3.0):
            norm_p = pointwise_norm(f, vnorm).lp(p)
            for eps in (0.25, 0.5, 1.0):
                bound = (p / (p - 1.0)) * norm_p / eps
                for kind in ("ME", "EM"):
                    exc = float(sups[kind].superlevel_measure(eps))
                    if exc > bound + 1e-9:
                        ok = False
                        details.append(
                            f"{name}/{kind}/p={p}/eps={eps}: "
                            f"{exc:.6g} > {bound:.6g}")
    _criterion(capsys, 3, "weak-type bounds", ok,
               "; ".join(details) or "7 scenarios x 3 p x 3 eps x 2 orders")


def test_criterion_4_ergodic_envelope(capsys, shipped):
    start = time.perf_counter()
    golden = [cfg for cfg in shipped
              if cfg.flow_theta is not None
              and abs(cfg.flow_theta - (5 ** 0.5 - 1) / 2) < 1e-15]
    assert len(golden) == 3
    ok = True
    details = []
    for cfg in golden:
        ctx = build_context(cfg, np.random.default_rng(cfg.seed))
        t_grid = np.unique(np.concatenate(
            [np.asarray(cfg.t_grid, dtype=float),
             2.0 ** np.arange(14), [10_000.0]]))
        t_grid = t_grid[t_grid <= 10_000.0]
        averages = {float(t): cesaro_average(ctx.flow, float(t), ctx.f)
                    for t in t_grid}
        report = ergodic_envelope_check(
            ctx.flow, ctx.f, averages, ctx.vnorm,
            ergodic_envelope_constant(ctx.flow, ctx.f, ctx.vnorm))
        tol = TOLERANCES["ergodic_envelope"]
        if not all(err <= bound + tol for _, err, bound in report.rows):
            ok = False
            details.append(cfg.name)
    elapsed = time.perf_counter() - start
    _criterion(capsys, 4, "ergodic envelope C/t", ok and elapsed < 5.0,
               "; ".join(details) or f"3 golden scenarios to t=1e4, "
               f"{elapsed:.2f}s")


def test_criterion_5_martingale_surrogate(capsys):
    f = cascade()
    vnorm = VectorNorm("euclidean", 1)
    lip = pointwise_norm(f.derivative(), vnorm).sup()
    errs = []
    ok = True
    for level in range(13):
        part = make_dyadic_partition(level)
        err = float(pointwise_norm(cond_exp(f, part) - f, vnorm).lp(1.0))
        errs.append(err)
        if err > lip * 2.0 ** (-level) + 1e-12:
            ok = False
    for a, b in zip(errs, errs[1:]):
        ratio = b / a
        if not 0.45 <= ratio <= 0.55:
            ok = False
    _criterion(capsys, 5, "martingale surrogate", ok,
               f"Lip {lip:.3g}, first errors {errs[0]:.4f}, {errs[1]:.4f}, "
               f"{errs[2]:.4f}")


def _contract_case(rng):
    on_circle = bool(rng.integers(0, 2))
    d = int(rng.integers(1, 4))
    p = float(rng.choice([1.5, 2.0, 3.0]))
    vnorm = VectorNorm(str(rng.choice(["euclidean", "max", "sum"])), d)
    if on_circle:
        space = circle_space()
        f = _random_circle_function(rng, d)
        flow = rotation_flow(float(rng.uniform(0.05, 0.95)))
        cap = 4
    else:
        n = int(2 ** rng.integers(1, 5))
        space = discrete_space(np.full(n, 1.0 / n))
        f = AtomFunction(space, rng.normal(size=(n, d)))
        flow = step_flow(space, rng.permutation(n),
                         h=float(rng.choice([1.0, 0.5])))
        cap = int(np.log2(n))
    fine_level = int(rng.integers(1, cap + 1))
    coarse_level = int(rng.integers(0, fine_level))
    fine = space.partition(fine_level)
    coarse = space.partition(coarse_level)
    t = float(rng.uniform(0.1, 8.0))
    return space, f, flow, vnorm, p, fine, coarse, t


def test_criterion_6_operator_contracts(capsys):
    rng = np.random.default_rng(977)
    start = time.perf_counter()
    ok = True
    fails = []
    for case in range(500):
        _, f, flow, vnorm, p, fine, coarse, t = _contract_case(rng)
        checks = {}
        checks["defining"] = defining_property_check(f, fine) <= 1e-12
        ef = cond_exp(f, fine)
        checks["tower"] = pointwise_norm(
            cond_exp(ef, coarse) - cond_exp(f, coarse), vnorm).sup() <= 1e-12
        checks["idempotent"] = pointwise_norm(
            cond_exp(ef, fine) - ef, vnorm).sup() <= 1e-12
        functional = LinearFunctional(rng.normal(size=f.d))
        checks["commutation"] = functional_commutation_check(
            f, [fine], functional)[0] <= 1e-11
        base = pointwise_norm(f, vnorm).lp(p)
        checks["contraction_e"] = pointwise_norm(ef, vnorm).lp(p) <= base + 1e-12
        avg = cesaro_average(flow, t, f)
        checks["contraction_a"] = pointwise_norm(avg, vnorm).lp(p) <= base + 1e-9
        moved = apply_flow(flow, t, f)
        checks["isometry"] = abs(pointwise_norm(moved, vnorm).lp(p)
                                 - base) <= 1e-10
        checks["domination"] = domination_chain_check(
            f, flow, coarse, np.array([t]), vnorm, npoints=400) <= 1e-10
        if not all(checks.values()):
            ok = False
            bad = [k for k, v in checks.items() if not v]
            fails.append(f"case {case}: {','.join(bad)}")
    elapsed = time.perf_counter() - start
    _criterion(capsys, 6, "operator contract suite", ok and elapsed < 20.0,
               "; ".join(fails[:3]) or f"500 cases, {elapsed:.2f}s")


def test_criterion_7_commuting_scenario_coincidence(capsys, shipped):
    cfg = next(c for c in shipped if c.name == "product_z8x2")
    ctx = build_context(cfg, np.random.default_rng(cfg.seed))
    t_grid = np.asarray(cfg.t_grid, dtype=float)
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    me = me_process(ctx.f, ctx.flow, ctx.filtration, t_grid, s_grid)
    em = em_process(ctx.f, ctx.flow, ctx.filtration, t_grid, s_grid)
    worst = 0.0
    for (t, s), fn in me.items():
        other = em.entry(t, s)
        worst = max(worst, float(np.max(np.abs(fn.values - other.values))))
    lim = limits(ctx.f, ctx.flow, ctx.filtration, 2.0 * t_grid[-1])
    gap = float(np.max(np.abs(lim.me_limit.values - lim.em_limit.values)))
    _criterion(capsys, 7, "commuting scenario coincidence",
               worst <= 1e-10 and gap <= 1e-9,
               f"entry defect {worst:.3e}, limit gap {gap:.3e}")


def test_criterion_8_submartingale_harness(capsys):
    rng = np.random.default_rng(31337)
    ok = True
    for case in range(50):
        max_level = int(rng.integers(3, 7))
        length = int(rng.integers(4, 8))
        s_grid = np.arange(length, dtype=float)
        n_indices = int(rng.integers(2, 7))
        filt = Filtration(circle_space(), "increasing", max_level=max_level)
        family = random_submartingale_family(filt, s_grid, n_indices, rng)
        report = submartingale_sup_check(family)
        if not (report.sup_defect <= TOLERANCES["submartingale_sup"]
                and report.terminal_defect == 0.0
                and np.isfinite(report.positive_part_bound)):
            ok = False
    _criterion(capsys, 8, "submartingale harness", ok, "50 random families")


def test_criterion_9_determinism(capsys, tmp_path):
    start = time.perf_counter()
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    code_a = cli_main(["verify", "--suite", "all", "--out", out_a,
                       "--seed", "1234"])
    code_b = cli_main(["verify", "--suite", "all", "--out", out_b,
                       "--seed", "1234"])
    elapsed = time.perf_counter() - start
    names_a = sorted(os.listdir(out_a))
    names_b = sorted(os.listdir(out_b))
    identical = names_a == names_b and all(
        filecmp.cmp(os.path.join(out_a, n), os.path.join(out_b, n),
                    shallow=False) for n in names_a)
    _criterion(capsys, 9, "deterministic artifacts",
               code_a == 0 and code_b == 0 and identical and elapsed < 120.0,
               f"{len(names_a)} files, exit {code_a}/{code_b}, "
               f"{elapsed:.1f}s for both runs")
