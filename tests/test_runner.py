import ast
import copy
import filecmp
import inspect
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from ergolab import condexp, fields, flows, functions, processes, runner
from ergolab.cli import scenario_dir
from ergolab.condexp import cond_exp
from ergolab.config import parse_config, parse_text
from ergolab.fields import defect_max, pointwise_norm
from ergolab.functions import CircleFunction
from ergolab.runner import CHECK_NAMES, CHECKS, VERSION, run_scenario
from ergolab.spaces import VectorNorm
from ergolab.tolerances import TOLERANCES

SMALL = """
name = unit_small
space.kind = circle
flow.kind = rotation
flow.theta = golden
function.kind = sawtooth
function.d = 2
function.amplitudes = 1.0, 0.5
function.phases = 0.0, 0.3
vector_norm = euclidean
filtration.direction = decreasing
filtration.max_level = 3
t_grid = 1.0, 2.0, 3.0, 5.0
s_grid = 0.0, 1.0, 2.0
p = 2.0
epsilon = 0.25
checks = defining_property, decomposition, contraction, dominant_ineq_me, me_convergence
seed = 11
"""

SMALL_CHECKS = ("checks = defining_property, decomposition, contraction, "
                "dominant_ineq_me, me_convergence")

IDENTITY = SMALL.replace("flow.kind = rotation\nflow.theta = golden",
                         "flow.kind = identity")

STEP_FAIL = """
name = unit_badcheck
space.kind = discrete
space.atoms = 4
flow.kind = identity
function.kind = atoms
function.values = 1.0 ; -1.0 ; 2.0 ; -2.0
vector_norm = max
filtration.direction = decreasing
filtration.max_level = 2
t_grid = 1.0, 2.0
s_grid = 0.0, 1.0
p = 2.0
epsilon = 0.5
checks = ergodic_envelope, contraction
seed = 5
"""


def test_checks_registry_consistent():
    assert CHECK_NAMES == tuple(CHECKS)
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES)


def test_run_scenario_statuses_and_order():
    cfg = parse_text(SMALL)
    report = run_scenario(cfg)
    assert report.scenario == "unit_small"
    assert report.seed == 11
    assert report.version == VERSION
    assert [r.name for r in report.records] == list(cfg.checks)
    assert all(r.status == "PASS" for r in report.records)
    assert report.passed
    for r in report.records:
        assert r.wall_time >= 0.0


def test_run_scenario_seed_override():
    cfg = parse_text(SMALL)
    report = run_scenario(cfg, seed=99)
    assert report.seed == 99
    assert "seed = 99" in report.config_echo


def test_check_level_rejection_becomes_fail():
    cfg = parse_text(STEP_FAIL)
    report = run_scenario(cfg)
    by_name = {r.name: r for r in report.records}
    # the identity flow is not ergodic, so the envelope check refuses
    assert by_name["ergodic_envelope"].status == "FAIL"
    assert "ergodic" in by_name["ergodic_envelope"].note
    assert by_name["contraction"].status == "PASS"
    assert not report.passed


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError, FloatingPointError,
                                 KeyError])
def test_unexpected_exception_becomes_fail(monkeypatch, exc):
    def broken(ctx):
        raise exc("injected")

    monkeypatch.setitem(CHECKS, "decomposition", broken)
    cfg = parse_text(SMALL)
    report = run_scenario(cfg)
    assert [r.name for r in report.records] == list(cfg.checks)
    by_name = {r.name: r for r in report.records}
    assert by_name["decomposition"].status == "FAIL"
    assert by_name["decomposition"].note.startswith(exc.__name__ + ":")
    assert all(r.status == "PASS" for r in report.records
               if r.name != "decomposition")
    assert not report.passed


def test_floating_point_fault_becomes_fail(monkeypatch):
    # 0/0 on an array is a NaN and a warning outside checks; inside one it
    # raises, and the handler turns the fault into that check's FAIL record
    def zero_by_zero(ctx):
        np.zeros(3) / np.zeros(3)
        raise AssertionError("the fault did not raise")

    monkeypatch.setitem(runner.CHECKS, "decomposition", zero_by_zero)
    report = run_scenario(parse_text(SMALL))
    by_name = {r.name: r for r in report.records}
    assert by_name["decomposition"].status == "FAIL"
    assert by_name["decomposition"].note.startswith("FloatingPointError:")
    assert all(r.status == "PASS" for r in report.records
               if r.name != "decomposition")


@pytest.mark.parametrize("text", [SMALL, STEP_FAIL])
def test_contraction_matches_per_average_loop(text):
    # the norms of f and of every A_t f in one stacked pass, each with the
    # bits of its own pointwise_norm call
    cfg = parse_text(text)
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    base = pointwise_norm(ctx.f, ctx.vnorm).lp(cfg.p)
    ref = [pointwise_norm(avg, ctx.vnorm).lp(cfg.p) - base
           for avg in ctx.grid("me").inner.values()]
    rows = runner.CHECKS["contraction"](ctx).rows
    assert [r[0] for r in rows] == list(ctx.grid("me").inner)
    assert np.array([r[3] for r in rows]).tobytes() == np.array(ref).tobytes()


# the continuous hat, since martingale_surrogate refuses a sawtooth
SMALL_HAT = SMALL.replace("function.kind = sawtooth", "function.kind = hat")


def _loop_flow_isometry(ctx):
    base_lp = pointwise_norm(ctx.f, ctx.vnorm).lp(ctx.cfg.p)
    base_sup = pointwise_norm(ctx.f, ctx.vnorm).sup()
    rows = []
    for t in runner._probe_times(ctx, 6):
        moved = pointwise_norm(flows.apply_flow(ctx.flow, t, ctx.f), ctx.vnorm)
        rows.append((t, None, "lp_defect", abs(moved.lp(ctx.cfg.p) - base_lp)))
        rows.append((t, None, "sup_defect", abs(moved.sup() - base_sup)))
    return rows


def _loop_martingale_surrogate(ctx):
    lip = pointwise_norm(ctx.f.derivative(), ctx.vnorm).sup()
    rows = []
    for lvl in range(ctx.cfg.filtration_max_level + 1):
        gap = cond_exp(ctx.f, ctx.space.partition(lvl)) - ctx.f
        rows.append((None, float(lvl), "l1_error",
                     pointwise_norm(gap, ctx.vnorm).lp(1.0)))
        rows.append((None, float(lvl), "bound", lip * 2.0 ** (-lvl)))
    return rows


def _loop_commutation(ctx):
    part = ctx.filtration.partition_at_level(ctx.cfg.filtration_max_level)
    ef = cond_exp(ctx.f, part)
    sups = []
    for t in processes._T_PROBES:
        lhs = flows.apply_flow(ctx.flow, t, ef)
        rhs = cond_exp(flows.apply_flow(ctx.flow, t, ctx.f), part)
        sups.append(pointwise_norm(lhs - rhs, ctx.vnorm).sup())
    return [(None, None, "defect", defect_max(0.0, *sups))]


def _loop_decomposition(ctx):
    # A_t f against 1/t times the shifted unit averages plus the tail, at
    # the check's probes: 1, 2.5, 7.5 and the last grid time, up to it
    flow, f, t_max = ctx.flow, ctx.f, float(ctx.t_grid[-1])
    unit = flows.cesaro_average(flow, 1.0, f)
    rows = []
    for t in sorted({t for t in (1.0, 2.5, 7.5, t_max) if t <= t_max}):
        n = int(np.floor(t))
        terms = [flows.apply_flow(flow, float(k), unit) for k in range(n)]
        weights = [1.0 / t] * n
        if t > n:
            tail = flows.cesaro_average(flow, t - n, f)
            terms.append(flows.apply_flow(flow, float(n), tail))
            weights.append((t - n) / t)
        gap = flows.cesaro_average(flow, t, f) - processes._combine(terms,
                                                                    weights)
        rows.append((t, None, "defect", pointwise_norm(gap, ctx.vnorm).sup()))
    return rows


def _loop_semigroup_law(ctx):
    # T_{t1+t2} f - T_t1(T_t2 f) per pair of lattice probes, one
    # apply_flow call per shift
    probes = sorted({ctx.flow.lattice(t) for t in runner._probe_times(ctx, 3)})
    rows = []
    for t1 in probes:
        for t2 in probes:
            gap = (flows.apply_flow(ctx.flow, t1 + t2, ctx.f)
                   - flows.apply_flow(ctx.flow, t1,
                                      flows.apply_flow(ctx.flow, t2, ctx.f)))
            rows.append((t1 + t2, None, "defect",
                         pointwise_norm(gap, ctx.vnorm).sup()))
    return rows


def _loop_functional_commutation(ctx):
    # the check's functional is the context generator's first draw
    functional = condexp.LinearFunctional(
        copy.deepcopy(ctx.rng).normal(size=ctx.f.d))
    rows = []
    for lvl in range(ctx.cfg.filtration_max_level + 1):
        part = ctx.filtration.partition_at_level(lvl)
        gap = (functional.compose(cond_exp(ctx.f, part))
               - cond_exp(functional.compose(ctx.f), part))
        rows.append((None, float(lvl), "defect",
                     pointwise_norm(gap, VectorNorm("max", 1)).sup()))
    return rows


# check -> (per-probe reference, NormFamily constructions of the check)
FAMILY_CHECKS = {
    "flow_isometry": (_loop_flow_isometry, 1),
    "martingale_surrogate": (_loop_martingale_surrogate, 2),
    "commutation": (_loop_commutation, 1),
    "decomposition": (_loop_decomposition, 1),
    "semigroup_law": (_loop_semigroup_law, 1),
    "functional_commutation": (_loop_functional_commutation, 1),
}
SCENARIOS = {"circle": SMALL, "atoms": STEP_FAIL, "circle_hat": SMALL_HAT}
FAMILY_CASES = [(name, scenario) for name in FAMILY_CHECKS
                for scenario in (("circle_hat",)
                                 if name == "martingale_surrogate"
                                 else ("circle", "atoms"))]


@pytest.mark.parametrize("name, scenario", FAMILY_CASES)
def test_family_checks_match_per_probe_loop(name, scenario):
    # every probe's norm in one stacked family, each with the bits of its
    # own pointwise_norm call
    cfg = parse_text(SCENARIOS[scenario])
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    ref = FAMILY_CHECKS[name][0](ctx)
    rows = runner.CHECKS[name](ctx).rows
    assert [r[:3] for r in rows] == [r[:3] for r in ref]
    assert (np.array([r[3] for r in rows]).tobytes()
            == np.array([r[3] for r in ref]).tobytes())


def test_flow_law_checks_shift_each_input_once_per_family(monkeypatch):
    # count the rotated-piece rules behind every shift each check takes:
    # one per stacked rotations call
    cfg = parse_text(SMALL)
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    real, calls = functions._rotated, []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(functions, "_rotated", counted)
    probes = {ctx.flow.lattice(t) for t in runner._probe_times(ctx, 3)}
    # the decomposition probes 1, 2.5 and 5 have one distinct tail, 0.5
    bounds = {"flow_isometry": (1, 1), "commutation": (2, 2),
              "semigroup_law": (1, 1 + len(probes)), "decomposition": (1, 2)}
    for name, (least, most) in bounds.items():
        calls.clear()
        runner.CHECKS[name](ctx)
        assert least <= len(calls) <= most, name


@pytest.mark.parametrize("name, scenario", FAMILY_CASES)
def test_family_checks_build_one_norm_family(monkeypatch, name, scenario):
    cfg = parse_text(SCENARIOS[scenario])
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    real, built = fields.NormFamily.__init__, [0]

    def counted(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(fields.NormFamily, "__init__", counted)
    runner.CHECKS[name](ctx)
    assert built[0] == FAMILY_CHECKS[name][1]


def test_nan_defect_fails_its_check(monkeypatch):
    real = runner.defining_property_check
    calls = []

    def nan_at_level_one(f, partition):
        calls.append(partition)
        return float("nan") if len(calls) == 2 else real(f, partition)

    monkeypatch.setattr(runner, "defining_property_check", nan_at_level_one)
    cfg = parse_text(SMALL)
    report = run_scenario(cfg)
    by_name = {r.name: r for r in report.records}
    assert len(calls) == cfg.filtration_max_level + 1
    assert by_name["defining_property"].status == "FAIL"
    assert np.isnan(by_name["defining_property"].value)
    assert [r.name for r in report.records] == list(cfg.checks)
    assert all(r.status == "PASS" for r in report.records
               if r.name != "defining_property")
    assert not report.passed


def test_nan_on_filtration_side_reaches_sup_integrability(monkeypatch):
    real = runner.sup_integrability_report
    sides = []

    def nan_for_conditionings(family, vnorm=None):
        family = list(family)
        sides.append(len(family))
        # the second call reads the EM family, one E(f|F_s) per s-level
        return float("nan") if len(sides) == 2 else real(family, vnorm)

    monkeypatch.setattr(runner, "sup_integrability_report", nan_for_conditionings)
    cfg = parse_text(SMALL.replace("checks = defining_property, decomposition, "
                                   "contraction, dominant_ineq_me, me_convergence",
                                   "checks = sup_integrability"))
    rec = run_scenario(cfg).records[0]
    assert sides == [len(cfg.t_grid), len(cfg.s_grid)]
    assert rec.name == "sup_integrability"
    assert rec.rows[0][3] > 0.0 and np.isnan(rec.rows[1][3])
    assert np.isnan(rec.value)


def test_nan_norm_field_fails_ergodic_envelope(monkeypatch):
    # the average at the second time equals the mean except on one NaN
    # piece: its norm field's sup is NaN, not 0, and the other times keep
    # their values
    cfg = parse_text(SMALL.replace("checks = defining_property, decomposition, "
                                   "contraction, dominant_ineq_me, me_convergence",
                                   "checks = ergodic_envelope"))

    def errors(rec):
        return [v for _, _, metric, v in rec.rows if metric == "sup_error"]

    clean = errors(run_scenario(cfg).records[0])
    real = processes.NormFamily
    calls = []

    def nan_piece_at_second_time(members, vnorm, target=None):
        members = list(members)
        calls.append(len(members))
        mean = target.coeffs[0]
        coeffs = np.stack([mean, np.full_like(mean, np.nan)])
        members[1] = CircleFunction(np.array([0.0, 0.5, 1.0]), coeffs)
        return real(members, vnorm, target)

    monkeypatch.setattr(processes, "NormFamily", nan_piece_at_second_time)
    rec = run_scenario(cfg).records[0]
    errs = errors(rec)
    assert calls == [len(cfg.t_grid)] and len(errs) == len(cfg.t_grid)
    assert errs[0] >= 0.0 and np.isnan(errs[1])
    assert [errs[0]] + errs[2:] == [clean[0]] + clean[2:]
    assert rec.status == "FAIL"


def test_nan_commutation_defect_fails_the_run(monkeypatch):
    # a NaN defect may not pass as DIAGNOSTIC
    monkeypatch.setattr(runner, "commutation_check",
                        lambda *args, **kwargs: float("nan"))
    cfg = parse_config(os.path.join(scenario_dir(), "product_z8x2.cfg"))
    report = run_scenario(replace(cfg, checks=("commutation",)))
    rec = report.records[0]
    assert (rec.name, rec.status) == ("commutation", "FAIL")
    assert np.isnan(rec.value) and "NaN" in rec.note
    assert not report.passed


def test_nan_limit_gap_fails_me_em_coincidence(monkeypatch):
    # the entries coincide up to a finite defect, the limits differ by NaN
    real = runner.limits

    def nan_em_limit(*args):
        lim = real(*args)
        em = lim.em_limit + _thin_piece(lim.em_limit.d, np.nan)
        return processes.ProcessLimits(lim.ergodic_limit, lim.me_limit, em)

    monkeypatch.setattr(runner, "limits", nan_em_limit)
    report = run_scenario(_only("me_em_coincidence"))
    rec = report.records[0]
    rows = {metric: value for _, _, metric, value in rec.rows}
    assert np.isnan(rows["limit_defect"]) and not np.isnan(rec.value)
    assert rec.status == "FAIL" and "NaN" in rec.note
    assert not report.passed


def _thin_piece(d, height):
    """height in component 0 on [1/4 + 2^-20, 1/4 + 2^-19), zero elsewhere.
    No point of the 1,000-point grids k/1000 or (k + 0.431)/1000 lies in
    that piece."""
    lo = 0.25 + 2.0 ** -20
    values = np.zeros((3, d))
    values[1, 0] = height
    return CircleFunction.piecewise_constant(
        np.array([0.0, lo, lo + 2.0 ** -20, 1.0]), values)


def _only(name, text=SMALL):
    return parse_text(text.replace(SMALL_CHECKS, f"checks = {name}"))


def test_tower_rows_hold_each_level_own_defect():
    cfg = parse_config(os.path.join(scenario_dir(), "golden_lip_inc.cfg"))
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    rows = runner.CHECKS["tower_idempotence"](ctx).rows
    tower = [v for _, _, metric, v in rows if metric == "tower_defect"]
    parts = [ctx.filtration.partition_at_level(k)
             for k in range(cfg.filtration_max_level + 1)]
    once = [cond_exp(ctx.f, part) for part in parts]
    own = [max([0.0] + [float(pointwise_norm(cond_exp(finer, part) - once[lvl],
                                             ctx.vnorm).sup())
                        for finer in once[lvl + 1:]])
           for lvl, part in enumerate(parts)]
    assert tower == own
    assert tower[-1] == 0.0


@pytest.mark.parametrize("check, message", [
    ("martingale_surrogate", "martingale surrogate needs a circle scenario"),
    ("submartingale_sup", "submartingale families are generated on the circle"),
])
def test_circle_only_checks_reject_atomic_scenarios(check, message):
    cfg = parse_text(STEP_FAIL)
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    with pytest.raises(ValueError, match=message):
        runner.CHECKS[check](ctx)


def test_me_em_coincidence_on_a_rotation_is_the_per_entry_sup():
    # golden_hat1_dec's rotation, hat and filtration on a 4 x 4 grid; no
    # shipped circle scenario runs this check
    with open(os.path.join(scenario_dir(), "golden_hat1_dec.cfg")) as fh:
        text = fh.read()
    for key, value in (("t_grid.count", "4"), ("s_grid", "0, 1, 2, 3"),
                       ("checks", "me_em_coincidence")):
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text,
                      flags=re.M)
    cfg = parse_text(text)
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    rec = runner.CHECKS["me_em_coincidence"](ctx)
    em, lim = ctx.grid("em"), ctx.proc_limits()
    gaps = [fn - em.entry(t, s) for (t, s), fn in ctx.grid("me").items()]
    assert len(gaps) == 16
    entry = defect_max(0.0, *[pointwise_norm(g, ctx.vnorm).sup() for g in gaps])
    limit = pointwise_norm(lim.me_limit - lim.em_limit, ctx.vnorm).sup()
    rows = {metric: value for _, _, metric, value in rec.rows}
    as_bytes = [np.float64(v).tobytes() for v in
                (rec.value, rows["entry_defect"], entry, rows["limit_defect"],
                 limit)]
    assert as_bytes[0] == as_bytes[1] == as_bytes[2]
    assert as_bytes[3] == as_bytes[4]
    # a rotation does not commute with a decreasing filtration
    assert rec.status == "DIAGNOSTIC" and entry > 0.01


@pytest.mark.parametrize("name, fn", [("tower_idempotence", "cond_exps"),
                                      ("semigroup_law", "apply_flows")])
def test_nan_member_fails_stacked_defect(monkeypatch, name, fn):
    # the second result carries a NaN piece (every function of it, for a
    # list), so members of the stacked defect family have NaN coefficients
    real = getattr(runner, fn)
    calls = []

    def nan_on_second_call(*args):
        calls.append(fn)
        out = real(*args)
        if len(calls) != 2:
            return out
        if isinstance(out, list):
            return [g + _thin_piece(g.d, np.nan) for g in out]
        return out + _thin_piece(out.d, np.nan)

    monkeypatch.setattr(runner, fn, nan_on_second_call)
    rec = run_scenario(_only(name)).records[0]
    # the tower check conditions in two batches, E(f|F_l) and then every
    # E(E(f|F_k)|F_l); the semigroup law shifts in more than two calls
    assert len(calls) == 2 if fn == "cond_exps" else len(calls) > 2
    assert rec.status == "FAIL"
    assert np.isnan(rec.value)


@pytest.mark.parametrize("name, module, fn, arg", [
    ("tower_idempotence", runner, "cond_exps", 0),
    ("functional_commutation", condexp, "cond_exps", 0),
    ("semigroup_law", runner, "apply_flows", 2),
    ("me_em_coincidence", processes, "cesaro_averages", 2),
])
def test_defect_on_one_thin_piece_is_seen(monkeypatch, name, module, fn, arg):
    # every result not built from f itself is off by 1 on one 2^-20-wide
    # piece: E(E f|F), E(g(f)|F), T_t1 T_t2 f (each shift of a batch) and
    # A_t E(f|F_s) (each average of the EM grid's batch), while E f,
    # g(E f), T_t f and E(A_t f|F_s) stay exact.  ME and EM coincide
    # exactly only under the identity flow, and a gap there is reported as
    # a DIAGNOSTIC, not a FAIL.
    coincidence = name == "me_em_coincidence"
    cfg = _only(name, IDENTITY if coincidence else SMALL)
    assert run_scenario(cfg).records[0].status == "PASS"
    contexts = []
    real_build = runner.build_context

    def build(cfg, rng):
        contexts.append(real_build(cfg, rng))
        return contexts[-1]

    real = getattr(module, fn)

    def off_on_thin_piece(*args):
        out = real(*args)
        if args[arg] is contexts[-1].f:
            return out
        if fn == "cond_exps":
            # one result per pair: only those of f itself stay exact
            return [g if a is contexts[-1].f else g + _thin_piece(g.d, 1.0)
                    for a, g in zip(args[arg], out)]
        if isinstance(out, list):
            return [g + _thin_piece(g.d, 1.0) for g in out]
        return out + _thin_piece(out.d, 1.0)

    monkeypatch.setattr(runner, "build_context", build)
    monkeypatch.setattr(module, fn, off_on_thin_piece)
    rec = run_scenario(cfg).records[0]
    assert rec.status == ("DIAGNOSTIC" if coincidence else "FAIL")
    assert rec.value == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["ergodic_envelope", "dominant_ineq_me",
                                  "dominant_ineq_em", "maximal_ineq_me",
                                  "maximal_ineq_em", "submartingale_sup"])
def test_tolerance_table_decides_the_verdict(monkeypatch, name):
    # the runner decides these verdicts from the library reports' numbers;
    # editing the shared table must move them, not just the reported value
    cfg = parse_text(SMALL.replace(
        "checks = defining_property, decomposition, contraction, "
        "dominant_ineq_me, me_convergence", f"checks = {name}"))
    assert run_scenario(cfg).records[0].status == "PASS"
    monkeypatch.setitem(TOLERANCES, name, -math.inf)
    rec = run_scenario(cfg).records[0]
    assert (rec.status, rec.tolerance, rec.note) == ("FAIL", -math.inf, "")


DIAGONALS = [
    ((0.1, 0.08, 0.05), "PASS", False),       # within the threshold, inclusive
    ((0.1, 0.08, 0.0500001), "FAIL", False),  # monotone, over the threshold
    ((0.01, 0.03, 0.02), "FAIL", True),       # within the threshold, it grew
    ((0.1, 0.2), "FAIL", True),               # grew beyond the 1.1 slack
    ((0.1, 0.105), "FAIL", False),            # within the slack, over threshold
]


@pytest.mark.parametrize("errors, status, grew", DIAGONALS, ids=[
    f"errors{i}-{status}" for i, (_, status, _) in enumerate(DIAGONALS)])
def test_convergence_verdict_reads_diagonal_and_threshold(errors, status, grew):
    cfg = replace(parse_text(SMALL), threshold=0.05)
    ctx = runner.build_context(cfg, np.random.default_rng(cfg.seed))
    diagonal = [(t, t - 1.0, e, e) for t, e in zip((1.0, 2.0, 3.0), errors)]
    table = processes.ConvergenceReport(diagonal, diagonal)
    rec = runner._convergence_record(ctx, "em_convergence", table)
    assert (rec.status, rec.value, rec.bound) == (status, errors[-1], 0.05)
    assert rec.note == ("diagonal errors grew beyond slack" if grew else "")


NAN_NOTE = "NaN in a diagnostic value or row"
NAN_ROW = (None, None, "defect", math.nan)

VERDICTS = [
    # limits, fallback, value, rows -> status, note
    ([(1.0, 1.0), (0.5, 2.0)], "FAIL", 1.0, (), "PASS", "given"),
    ([(1.0, 1.0), (2.5, 2.0)], "FAIL", 1.0, (), "FAIL", "given"),
    ([(1.0, 1.0), (2.5, 2.0)], "DIAGNOSTIC", 1.0, (), "DIAGNOSTIC", "given"),
    ([(math.nan, 1.0)], "FAIL", 1.0, (), "FAIL", "given"),
    ([(0.0, math.nan)], "FAIL", 1.0, (), "FAIL", "given"),
    ([(math.nan, 1.0)], "DIAGNOSTIC", 1.0, (), "DIAGNOSTIC", "given"),
    ([(0.0, math.nan)], "DIAGNOSTIC", 1.0, (), "DIAGNOSTIC", "given"),
    (None, "FAIL", 1.0, (), "DIAGNOSTIC", "given"),
    ([], "FAIL", 1.0, (), "PASS", "given"),
    (None, "FAIL", math.nan, (), "FAIL", NAN_NOTE),
    (None, "FAIL", 1.0, [NAN_ROW], "FAIL", NAN_NOTE),
    ([(2.0, 1.0)], "DIAGNOSTIC", math.nan, (), "FAIL", NAN_NOTE),
    ([(2.0, 1.0)], "DIAGNOSTIC", 1.0, [NAN_ROW], "FAIL", NAN_NOTE),
    ([(2.0, 1.0)], "FAIL", math.nan, [NAN_ROW], "FAIL", "given"),
]


@pytest.mark.parametrize("limits, otherwise, value, rows, status, note",
                         VERDICTS, ids=[f"case{i}-{case[4]}" for i, case
                                        in enumerate(VERDICTS)])
def test_verdict_rule(limits, otherwise, value, rows, status, note):
    rec = runner._verdict("probe", value, rows, limits, otherwise,
                          tolerance=0.5, note="given")
    assert (rec.name, rec.status, rec.note) == ("probe", status, note)
    assert rec.value is value and rec.tolerance == 0.5
    assert rec.rows == tuple(rows) and isinstance(rec.rows, tuple)


def test_statuses_are_decided_in_one_place():
    # the verdict rule and the exception record are the only records built;
    # no check writes a status expression of its own
    tree = ast.parse(inspect.getsource(runner))

    def is_record(node):
        return isinstance(node, ast.Call) and \
            getattr(node.func, "id", None) == "CheckRecord"

    def is_status(node):
        return isinstance(node, ast.IfExp) and \
            getattr(node.body, "value", None) == "PASS"

    owners = {fn.name: fn for fn in tree.body
              if isinstance(fn, ast.FunctionDef)}
    assert len([n for n in ast.walk(tree) if is_record(n)]) == 2
    assert sorted(name for name, fn in owners.items()
                  for n in ast.walk(fn) if is_record(n)) == [
        "_verdict", "run_scenario"]
    assert [name for name, fn in owners.items()
            for n in ast.walk(fn) if is_status(n)] == ["_verdict"]


def test_nan_iterated_error_fails_joint_vs_iterated(monkeypatch):
    # a NaN off the diagonal, in the iterated column at the first time,
    # may not pass as DIAGNOSTIC; the joint error on the diagonal is finite
    cfg = _only("joint_vs_iterated")
    assert run_scenario(cfg).records[0].status == "DIAGNOSTIC"
    real = runner.convergence_table
    s_last, t_first = float(cfg.s_grid[-1]), float(cfg.t_grid[0])

    def nan_iterated(*args):
        rep = real(*args)
        rows = [(t, s, lp, math.nan if (t, s) == (t_first, s_last) else sup)
                for t, s, lp, sup in rep]
        return processes.ConvergenceReport(rows, rep.diagonal)

    monkeypatch.setattr(runner, "convergence_table", nan_iterated)
    report = run_scenario(cfg)
    rec = report.records[0]
    rows = {(t, metric): v for t, _, metric, v in rec.rows}
    assert np.isnan(rows[(t_first, "iterated_error")])
    assert not np.isnan(rec.value)
    assert (rec.status, rec.note) == ("FAIL", NAN_NOTE)
    assert not report.passed


def test_decomposition_with_no_probe_fails():
    # a grid that ends below t = 1 leaves no probe with 1 <= t <= t_max
    text = SMALL.replace(SMALL_CHECKS, "checks = decomposition")
    cfg = parse_text(text.replace("t_grid = 1.0, 2.0, 3.0, 5.0",
                                  "t_grid = 0.25, 0.5"))
    (rec,) = run_scenario(cfg).records
    assert (rec.status, rec.value, rec.rows) == ("FAIL", None, ())
    assert rec.note == "ValueError: decomposition has no probe to measure"


def _wrap_everywhere(monkeypatch, fn, wrapper):
    """Replace fn in every ergolab module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("ergolab.") and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapper)


def _assert_families_built_once(monkeypatch, scenario, reader):
    """Run a shipped scenario counting grid builds, convergence tables and
    the time averages A_t f of the scenario's own f."""
    calls = {"me_process": 0, "em_process": 0, "convergence_table": 0}
    contexts = []
    averages_of_f = []
    excluded = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (runner.me_process, runner.em_process, runner.convergence_table):
        _wrap_everywhere(monkeypatch, fn, counting(fn))

    real_average, real_averages = flows.cesaro_average, flows.cesaro_averages

    def average(flow, t, f):
        if not excluded[0] and f is contexts[-1].f:
            averages_of_f.append(t)
        return real_average(flow, t, f)

    def averages(flow, times, f):
        if not excluded[0] and f is contexts[-1].f:
            averages_of_f.extend(float(t) for t in times)
        return real_averages(flow, times, f)

    _wrap_everywhere(monkeypatch, real_average, average)
    _wrap_everywhere(monkeypatch, real_averages, averages)

    # these probe their own times (or a limit horizon) by design
    def excluding(fn):
        def wrapper(*args, **kwargs):
            excluded[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                excluded[0] -= 1
        return wrapper

    for name in ("cesaro_decomposition_check", "domination_chain_check", "limits"):
        monkeypatch.setattr(runner, name, excluding(getattr(runner, name)))
    real_build = runner.build_context

    def build(cfg, rng):
        contexts.append(real_build(cfg, rng))
        return contexts[-1]

    monkeypatch.setattr(runner, "build_context", build)
    cfg = parse_config(os.path.join(scenario_dir(), f"{scenario}.cfg"))
    family_checks = {"contraction", "me_convergence", "em_convergence",
                     "joint_vs_iterated", "dominant_ineq_me", "dominant_ineq_em",
                     "maximal_ineq_me", "maximal_ineq_em", "sup_integrability",
                     reader}
    assert family_checks <= set(cfg.checks)
    report = run_scenario(cfg)
    assert report.passed
    assert calls == {"me_process": 1, "em_process": 1, "convergence_table": 2}
    # A_t f is built once per t, by the ME grid, and read by every other check
    assert sorted(averages_of_f) == sorted(float(t) for t in cfg.t_grid)


def test_full_scenario_builds_each_grid_once(monkeypatch):
    _assert_families_built_once(monkeypatch, "product_z8x2", "me_em_coincidence")


def test_envelope_reads_the_me_grid_averages(monkeypatch):
    _assert_families_built_once(monkeypatch, "step_z8", "ergodic_envelope")


def test_envelope_constant_is_computed_once_per_scenario(monkeypatch):
    # me_convergence's envelope plot and ergodic_envelope both read it
    real = processes.ergodic_envelope_constant
    calls = []

    def counting(flow, f, vnorm):
        calls.append(f)
        return real(flow, f, vnorm)

    _wrap_everywhere(monkeypatch, real, counting)
    ergodic = 0
    for name in sorted(os.listdir(scenario_dir())):
        cfg = parse_config(os.path.join(scenario_dir(), name))
        flow = runner.build_context(cfg, np.random.default_rng(0)).flow
        if flow.ergodic:
            assert {"me_convergence", "ergodic_envelope"} <= set(cfg.checks)
        calls.clear()
        assert run_scenario(cfg).passed
        assert len(calls) == int(flow.ergodic), name
        ergodic += flow.ergodic
    assert ergodic == 6


def test_artifacts_written_and_deterministic(tmp_path):
    cfg = parse_text(SMALL)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rep_a = run_scenario(cfg, out_dir=str(out_a))
    rep_b = run_scenario(cfg, out_dir=str(out_b))
    assert rep_a.artifacts == rep_b.artifacts
    assert rep_a.artifacts[0] == "unit_small.csv"
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert "unit_small.json" in names
    for name in names:
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_csv_schema(tmp_path):
    cfg = parse_text(SMALL)
    run_scenario(cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "unit_small.csv").read_text().splitlines()
    assert lines[0] == "scenario,check,t,s,metric,value"
    body = [ln.split(",") for ln in lines[1:]]
    assert all(len(row) == 6 for row in body)
    assert all(row[0] == "unit_small" for row in body)
    # grid-independent rows leave t and s empty; grid rows carry repr floats
    ineq = [row for row in body if row[1] == "dominant_ineq_me"]
    assert ineq and all(row[2] == "" and row[3] == "" for row in ineq)
    conv = [row for row in body if row[1] == "me_convergence"]
    assert conv and any(row[2] == "1.0" and row[3] == "0.0" for row in conv)
    metrics = {row[4] for row in conv}
    assert "lp_error" in metrics and "sup_error" in metrics


def test_plot_data_layout(tmp_path):
    cfg = parse_text(SMALL)
    report = run_scenario(cfg, out_dir=str(tmp_path))
    dats = [a for a in report.artifacts if a.endswith(".dat")]
    assert dats, "expected at least one plot series"
    for name in dats:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("# ")
        ncols = len(lines[0].split()) - 1
        for row in lines[1:]:
            assert len(row.split()) == ncols


def test_json_payload(tmp_path):
    cfg = parse_text(SMALL)
    report = run_scenario(cfg, out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "unit_small.json").read_text())
    assert payload["scenario"] == "unit_small"
    assert payload["version"] == VERSION
    assert payload["seed"] == 11
    assert payload["artifacts"] == report.artifacts
    assert [r["name"] for r in payload["records"]] == list(cfg.checks)
    # wall times stay out of the payload so reruns are byte-identical
    assert all("wall_time" not in r for r in payload["records"])
    assert parse_text(payload["config"]) == cfg


def test_json_records_carry_bounds(tmp_path):
    cfg = parse_text(SMALL)
    run_scenario(cfg, out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "unit_small.json").read_text())
    rec = next(r for r in payload["records"]
               if r["name"] == "dominant_ineq_me")
    assert rec["status"] == "PASS"
    assert rec["value"] <= rec["bound"] + rec["tolerance"]
