"""Scenario runner: builds objects from configs, executes checks, writes artifacts.

Persisted artifacts never contain wall times, so identical config + seed
reproduces them byte for byte; timings go to the console only.
"""

import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .condexp import (LinearFunctional, cond_exp, defining_property_check,
                      functional_commutation_check)
from .config import _as_config_error
from .fields import NormFamily, defect_max, lp_norm, pointwise_norm, sup_norm
from .flows import apply_flow, identity_flow, rotation_flow, step_flow
from .functions import (AtomFunction, CircleFunction, from_smooth,
                        harmonic_generator, hat, sawtooth)
from .inequalities import (dominant_ineq_em, dominant_ineq_me,
                           domination_chain_check, maximal_ineq_em,
                           maximal_ineq_me, random_submartingale_family,
                           submartingale_sup_check)
from .processes import (cesaro_decomposition_check, commutation_check,
                        convergence_table, em_process, ergodic_envelope_check,
                        ergodic_envelope_constant, limits, me_process,
                        sup_integrability_report)
from .spaces import (Circle, Filtration, VectorNorm, circle_space,
                     discrete_space, product_space)
from .tolerances import TOLERANCES

VERSION = "0.1.0"


# -- config -> objects ----------------------------------------------------------


def build_space(cfg):
    if cfg.space_kind == "circle":
        return circle_space()
    if cfg.space_kind == "discrete":
        if cfg.space_weights is None:
            return discrete_space(np.full(cfg.space_atoms, 1.0 / cfg.space_atoms))
        with _as_config_error("space.weights"):
            return discrete_space(cfg.space_weights)
    # the atomic factor is a discrete space; built first, its weights get their key
    with _as_config_error("space.factor_weights"):
        factor = discrete_space(cfg.space_factor_weights)
    with _as_config_error("space.cyclic_size"):
        return product_space(cfg.space_cyclic_size, factor.weights)


def build_flow(cfg, space):
    if cfg.flow_kind == "rotation":
        with _as_config_error("flow.theta"):
            return rotation_flow(cfg.flow_theta, space)
    if cfg.flow_kind == "identity":
        return identity_flow(space)
    with _as_config_error("flow.map"):
        perm = space.shift_perm() if cfg.flow_map in (None, "shift") else [
            int(tok) for tok in cfg.flow_map[5:].split(",")]
        return step_flow(space, perm, cfg.flow_h)


def _filtration(cfg, space):
    with _as_config_error("filtration.max_level"):
        return Filtration(space, cfg.filtration_direction,
                          cfg.filtration_max_level)


def build_function(cfg, space):
    kind = cfg.function_kind
    if kind == "sawtooth":
        return sawtooth(cfg.function_d, cfg.function_amplitudes,
                        cfg.function_phases, space)
    if kind == "hat":
        return hat(cfg.function_d, cfg.function_amplitudes,
                   cfg.function_phases, space)
    if kind == "smooth":
        gen = harmonic_generator(cfg.function_d, cfg.function_amplitudes,
                                 cfg.function_phases, cfg.function_harmonic)
        # desk-scale fidelity; tighter targets just multiply pieces
        with _as_config_error("function.harmonic"):
            return from_smooth(gen, cfg.function_d, target=2e-5, space=space)
    if kind == "explicit":
        k1 = max(len(comp) for piece in cfg.function_pieces for comp in piece)
        coeffs = np.zeros((len(cfg.function_pieces), k1, cfg.function_d))
        for i, piece in enumerate(cfg.function_pieces):
            for j, comp in enumerate(piece):
                coeffs[i, :len(comp), j] = comp
        with _as_config_error("function.breaks"):
            return CircleFunction(cfg.function_breaks, coeffs, space)
    with _as_config_error("function.values"):
        return AtomFunction(space, cfg.function_values)


@dataclass
class ScenarioContext:
    cfg: object
    space: object
    flow: object
    f: object
    filtration: object
    vnorm: object
    t_grid: np.ndarray
    s_grid: np.ndarray
    rng: object
    _cache: dict = field(default_factory=dict)

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def me_grid(self):
        return self._memo("me", lambda: me_process(
            self.f, self.flow, self.filtration, self.t_grid, self.s_grid))

    def em_grid(self):
        return self._memo("em", lambda: em_process(
            self.f, self.flow, self.filtration, self.t_grid, self.s_grid))

    def proc_limits(self):
        return self._memo("limits", lambda: limits(
            self.f, self.flow, self.filtration, 2.0 * float(self.t_grid[-1])))

    def me_table(self):
        return self._memo("me_table", lambda: convergence_table(
            self.me_grid(), self.proc_limits().me_limit, self.cfg.p, self.vnorm))


def build_context(cfg, rng):
    space = build_space(cfg)
    flow = build_flow(cfg, space)
    f = build_function(cfg, space)
    filtration = _filtration(cfg, space)
    vnorm = VectorNorm(cfg.vector_norm, f.d)
    return ScenarioContext(cfg, space, flow, f, filtration, vnorm,
                           np.asarray(cfg.t_grid), np.asarray(cfg.s_grid), rng)


# -- check records ---------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    status: str
    value: float = None
    bound: float = None
    tolerance: float = None
    note: str = ""
    wall_time: float = 0.0
    rows: tuple = ()
    plots: tuple = ()


def _defect_record(name, worst, rows):
    """PASS when the worst defect is within tolerance; a NaN defect fails."""
    tol = TOLERANCES[name]
    return CheckRecord(name, "PASS" if worst <= tol else "FAIL", worst,
                       tolerance=tol, rows=tuple(rows))


def _convergence_record(ctx, name, table):
    """PASS when the diagonal never grows beyond slack and ends within the
    scenario threshold; a NaN error fails."""
    rows = []
    for t, s, lp_err, sup_err in table:
        rows.append((t, s, "lp_error", lp_err))
        rows.append((t, s, "sup_error", sup_err))
    plots = [{"suffix": "errors", "columns": ("t", "error"),
              "rows": [(t, sup_err) for t, _, _, sup_err in table.diagonal]}]
    if ctx.flow.ergodic and name == "me_convergence":
        c = ergodic_envelope_constant(ctx.flow, ctx.f, ctx.vnorm)
        plots.append({"suffix": "envelope", "columns": ("t", "bound"),
                      "rows": [(t, c / t) for t, _, _, _ in table.diagonal]})
    passed = table.monotone and table.final_sup_error <= ctx.cfg.threshold
    status = "PASS" if passed else "FAIL"
    note = "" if table.monotone else "diagonal errors grew beyond slack"
    return CheckRecord(name, status, float(table.final_sup_error),
                       bound=ctx.cfg.threshold, tolerance=0.0, note=note,
                       rows=tuple(rows), plots=tuple(plots))


def _levels(ctx):
    return range(ctx.cfg.filtration_max_level + 1)


# -- operator contract checks ----------------------------------------------------


def _chk_defining_property(ctx):
    rows = []
    worst = 0.0
    for lvl in _levels(ctx):
        d = float(defining_property_check(ctx.f, ctx.filtration.partition_at_level(lvl)))
        rows.append((None, float(lvl), "defect", d))
        worst = defect_max(worst, d)
    return _defect_record("defining_property", worst, rows)


def _chk_tower_idempotence(ctx):
    worst = 0.0
    rows = []
    parts = [ctx.filtration.partition_at_level(lvl) for lvl in _levels(ctx)]
    once = [cond_exp(ctx.f, part) for part in parts]
    for lvl, part in enumerate(parts):
        # member 0 is E(E f|F_l), then E(E(f|F_k)|F_l) for each finer k
        sups = NormFamily([cond_exp(g, part) for g in once[lvl:]],
                          ctx.vnorm, target=once[lvl]).sup()
        d_tower = defect_max(0.0, *sups[1:])
        rows.append((None, float(lvl), "idempotence_defect", float(sups[0])))
        rows.append((None, float(lvl), "tower_defect", d_tower))
        worst = defect_max(worst, *sups)
    return _defect_record("tower_idempotence", worst, rows)


def _chk_functional_commutation(ctx):
    weights = ctx.rng.normal(size=ctx.f.d)
    functional = LinearFunctional(weights)
    worst = 0.0
    rows = []
    for lvl in _levels(ctx):
        part = ctx.filtration.partition_at_level(lvl)
        d = float(functional_commutation_check(ctx.f, part, functional))
        rows.append((None, float(lvl), "defect", d))
        worst = defect_max(worst, d)
    return _defect_record("functional_commutation", worst, rows)


def _chk_flow_isometry(ctx):
    base_lp = float(lp_norm(ctx.f, ctx.cfg.p, ctx.vnorm))
    base_sup = float(sup_norm(ctx.f, ctx.vnorm))
    worst = 0.0
    rows = []
    for t in _probe_times(ctx, 6):
        moved = apply_flow(ctx.flow, t, ctx.f)
        d_lp = abs(float(lp_norm(moved, ctx.cfg.p, ctx.vnorm)) - base_lp)
        d_sup = abs(float(sup_norm(moved, ctx.vnorm)) - base_sup)
        rows.append((t, None, "lp_defect", d_lp))
        rows.append((t, None, "sup_defect", d_sup))
        worst = defect_max(worst, d_lp, d_sup)
    return _defect_record("flow_isometry", worst, rows)


def _chk_semigroup_law(ctx):
    # a step evolution composes only on the lattice of step widths
    probes = sorted({ctx.flow.lattice(t) for t in _probe_times(ctx, 3)})
    pairs = [(t1, t2) for t1 in probes for t2 in probes]
    gaps = [apply_flow(ctx.flow, t1 + t2, ctx.f)
            - apply_flow(ctx.flow, t1, apply_flow(ctx.flow, t2, ctx.f))
            for t1, t2 in pairs]
    sups = NormFamily(gaps, ctx.vnorm).sup()
    rows = [(t1 + t2, None, "defect", float(d))
            for (t1, t2), d in zip(pairs, sups)]
    return _defect_record("semigroup_law", defect_max(0.0, *sups), rows)


def _chk_contraction(ctx):
    averages = ctx.me_grid().inner
    norms = NormFamily([ctx.f, *averages.values()], ctx.vnorm).lp(ctx.cfg.p)
    base = float(norms[0])
    worst = -np.inf
    rows = []
    for t, norm in zip(averages, norms[1:]):
        excess = float(norm) - base
        rows.append((t, None, "norm_excess", excess))
        worst = defect_max(worst, excess)
    return _defect_record("contraction", worst, rows)


def _probe_times(ctx, k, cap=None):
    ts = ctx.t_grid if cap is None else ctx.t_grid[ctx.t_grid <= cap]
    if ts.size == 0:
        ts = ctx.t_grid[:1]
    step = (len(ts) - 1) / (k - 1)
    idx = np.unique(np.round(np.arange(k) * step).astype(int))
    return [float(ts[i]) for i in idx]


# -- process checks --------------------------------------------------------------


def _chk_decomposition(ctx):
    # the identity is uniform in t; large probes only cost time
    t_max = min(float(ctx.t_grid[-1]), 64.0)
    probes = sorted({1.0, 2.5, min(7.5, t_max), t_max})
    probes = [t for t in probes if 1.0 <= t <= t_max]
    worst = 0.0
    rows = []
    for t in probes:
        d = float(cesaro_decomposition_check(ctx.flow, ctx.f, t, ctx.vnorm))
        rows.append((t, None, "defect", d))
        worst = defect_max(worst, d)
    return _defect_record("decomposition", worst, rows)


def _chk_commutation(ctx):
    part = ctx.filtration.partition_at_level(ctx.cfg.filtration_max_level)
    d = float(commutation_check(ctx.flow, ctx.f, part, ctx.vnorm))
    tol = TOLERANCES["commutation"]
    status = "PASS" if d <= tol else "DIAGNOSTIC"
    return CheckRecord("commutation", status, d, tolerance=tol,
                       rows=((None, None, "defect", d),))


def _chk_me_convergence(ctx):
    return _convergence_record(ctx, "me_convergence", ctx.me_table())


def _chk_em_convergence(ctx):
    table = convergence_table(ctx.em_grid(), ctx.proc_limits().em_limit,
                              ctx.cfg.p, ctx.vnorm)
    return _convergence_record(ctx, "em_convergence", table)


def _chk_joint_vs_iterated(ctx):
    table = ctx.me_table()
    errs = {(t, s): sup_err for t, s, _, sup_err in table}
    s_last = float(ctx.s_grid[-1])
    rows = []
    plot_rows = []
    for t, s, _, joint in table.diagonal:
        iterated = errs[(t, s_last)]
        rows.append((t, s, "joint_error", joint))
        rows.append((t, s_last, "iterated_error", iterated))
        plot_rows.append((t, joint, iterated))
    plots = ({"suffix": "diagonal", "columns": ("t", "joint", "iterated"),
              "rows": plot_rows},)
    return CheckRecord("joint_vs_iterated", "DIAGNOSTIC",
                       float(plot_rows[-1][1]), rows=tuple(rows), plots=plots)


def _chk_ergodic_envelope(ctx):
    report = ergodic_envelope_check(ctx.flow, ctx.f, ctx.me_grid().inner, ctx.vnorm)
    rows = []
    for t, err, bound in report.rows:
        rows.append((t, None, "sup_error", err))
        rows.append((t, None, "bound", bound))
    plots = ({"suffix": "errors", "columns": ("t", "error"),
              "rows": [(t, e) for t, e, _ in report.rows]},
             {"suffix": "envelope", "columns": ("t", "bound"),
              "rows": [(t, b) for t, _, b in report.rows]})
    status = "PASS" if report.passed else "FAIL"
    return CheckRecord("ergodic_envelope", status, report.constant,
                       tolerance=TOLERANCES["ergodic_envelope"],
                       rows=tuple(rows), plots=plots)


# -- inequality checks -----------------------------------------------------------


def _ineq_record(name, rep, value):
    rows = tuple((None, None, metric, float(getattr(rep, metric)))
                 for metric in rep._fields if metric != "passed")
    return CheckRecord(name, "PASS" if rep.passed else "FAIL", value,
                       bound=rep.bound, tolerance=TOLERANCES[name], rows=rows)


def _chk_dominant_me(ctx):
    rep = dominant_ineq_me(ctx.me_grid(), ctx.cfg.p, ctx.vnorm)
    return _ineq_record("dominant_ineq_me", rep, rep.ratio)


def _chk_dominant_em(ctx):
    rep = dominant_ineq_em(ctx.em_grid(), ctx.cfg.p, ctx.vnorm)
    return _ineq_record("dominant_ineq_em", rep, rep.ratio)


def _chk_maximal_me(ctx):
    rep = maximal_ineq_me(ctx.me_grid(), ctx.cfg.p, ctx.cfg.epsilon, ctx.vnorm)
    return _ineq_record("maximal_ineq_me", rep, rep.exceedance)


def _chk_maximal_em(ctx):
    rep = maximal_ineq_em(ctx.em_grid(), ctx.cfg.p, ctx.cfg.epsilon, ctx.vnorm)
    return _ineq_record("maximal_ineq_em", rep, rep.exceedance)


def _chk_domination_chain(ctx):
    part = ctx.filtration.partition_at_level(ctx.cfg.filtration_max_level)
    d = float(domination_chain_check(ctx.f, ctx.flow, part,
                                     _probe_times(ctx, 6, cap=64.0), ctx.vnorm))
    return _defect_record("domination_chain", d, ((None, None, "defect", d),))


def _chk_sup_integrability(ctx):
    over_flow, over_filt = (sup_integrability_report(g.inner.values(), ctx.vnorm)
                            for g in (ctx.me_grid(), ctx.em_grid()))
    rows = ((None, None, "flow_sup_l1", over_flow),
            (None, None, "filtration_sup_l1", over_filt))
    return CheckRecord("sup_integrability", "DIAGNOSTIC",
                       defect_max(over_flow, over_filt), rows=rows)


# -- martingale-side checks ------------------------------------------------------


def _chk_martingale_surrogate(ctx):
    if not isinstance(ctx.space, Circle):
        raise ValueError("martingale surrogate needs a circle scenario")
    if not ctx.f.is_continuous():
        raise ValueError("martingale surrogate needs a continuous function")
    lip = float(pointwise_norm(ctx.f.derivative(), ctx.vnorm).sup())
    worst_ratio = 0.0
    ok = True
    rows = []
    for lvl in _levels(ctx):
        part = ctx.space.partition(lvl)
        err = float(lp_norm(cond_exp(ctx.f, part) - ctx.f, 1.0, ctx.vnorm))
        bound = lip * 2.0 ** (-lvl)
        rows.append((None, float(lvl), "l1_error", err))
        rows.append((None, float(lvl), "bound", bound))
        ok = ok and err <= bound + TOLERANCES["martingale_surrogate_slack"]
        if bound > 0.0:
            worst_ratio = defect_max(worst_ratio, err / bound)
    plots = ({"suffix": "errors", "columns": ("level", "error"),
              "rows": [(r[1], r[3]) for r in rows if r[2] == "l1_error"]},)
    return CheckRecord("martingale_surrogate", "PASS" if ok else "FAIL",
                       worst_ratio, bound=1.0,
                       tolerance=TOLERANCES["martingale_surrogate"],
                       rows=tuple(rows), plots=plots)


def _chk_submartingale_sup(ctx):
    if not isinstance(ctx.space, Circle):
        raise ValueError("submartingale families are generated on the circle")
    filt = Filtration(ctx.space, "increasing", ctx.cfg.filtration_max_level)
    times = np.arange(ctx.cfg.filtration_max_level + 1, dtype=float)
    family = random_submartingale_family(filt, times, 5, ctx.rng)
    rep = submartingale_sup_check(family)
    rows = ((None, None, "sup_defect", rep.sup_defect),
            (None, None, "terminal_defect", rep.terminal_defect),
            (None, None, "positive_part_bound", rep.positive_part_bound))
    return CheckRecord("submartingale_sup", "PASS" if rep.passed else "FAIL",
                       rep.sup_defect, tolerance=TOLERANCES["submartingale_sup"],
                       rows=rows)


def _chk_me_em_coincidence(ctx):
    me = ctx.me_grid()
    em = ctx.em_grid()
    lim = ctx.proc_limits()
    gaps = [fn - em.table[key] for key, fn in me.table.items()]
    sups = NormFamily(gaps + [lim.me_limit - lim.em_limit], ctx.vnorm).sup()
    worst = defect_max(0.0, *sups[:-1])
    limit_gap = float(sups[-1])
    tol = TOLERANCES["me_em_coincidence"]
    passed = worst <= tol and limit_gap <= TOLERANCES["me_em_limit_gap"]
    rows = ((None, None, "entry_defect", worst),
            (None, None, "limit_defect", limit_gap))
    return CheckRecord("me_em_coincidence", "PASS" if passed else "DIAGNOSTIC",
                       worst, tolerance=tol, rows=rows)


CHECKS = {
    "defining_property": _chk_defining_property,
    "tower_idempotence": _chk_tower_idempotence,
    "functional_commutation": _chk_functional_commutation,
    "flow_isometry": _chk_flow_isometry,
    "semigroup_law": _chk_semigroup_law,
    "contraction": _chk_contraction,
    "decomposition": _chk_decomposition,
    "commutation": _chk_commutation,
    "me_convergence": _chk_me_convergence,
    "em_convergence": _chk_em_convergence,
    "joint_vs_iterated": _chk_joint_vs_iterated,
    "ergodic_envelope": _chk_ergodic_envelope,
    "dominant_ineq_me": _chk_dominant_me,
    "dominant_ineq_em": _chk_dominant_em,
    "maximal_ineq_me": _chk_maximal_me,
    "maximal_ineq_em": _chk_maximal_em,
    "domination_chain": _chk_domination_chain,
    "sup_integrability": _chk_sup_integrability,
    "martingale_surrogate": _chk_martingale_surrogate,
    "submartingale_sup": _chk_submartingale_sup,
    "me_em_coincidence": _chk_me_em_coincidence,
}

CHECK_NAMES = tuple(CHECKS)


# -- reports and artifacts -------------------------------------------------------


@dataclass
class RunReport:
    scenario: str
    seed: int
    version: str
    records: list
    config_echo: str
    artifacts: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.status != "FAIL" for r in self.records)


def run_scenario(cfg, out_dir=None, seed=None):
    """Execute a scenario's checks in declaration order.

    Any exception in a check becomes its FAIL record (class in the note).
    Checks run with floating-point faults raised, so a division by zero,
    an invalid operation or an overflow is such an exception.  A
    DIAGNOSTIC record with a NaN value or row fails too.
    """
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    rng = np.random.default_rng(cfg.seed)
    ctx = build_context(cfg, rng)
    records = []
    for name in cfg.checks:
        start = time.perf_counter()
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                rec = CHECKS[name](ctx)
        except Exception as exc:
            rec = CheckRecord(name, "FAIL", note=f"{type(exc).__name__}: {exc}")
        # NaN is the one value unequal to itself
        if rec.status == "DIAGNOSTIC" and any(
                v != v for v in [rec.value] + [row[3] for row in rec.rows]):
            rec.status, rec.note = "FAIL", "NaN in a diagnostic value or row"
        rec.wall_time = time.perf_counter() - start
        records.append(rec)
    report = RunReport(cfg.name, cfg.seed, VERSION, records, cfg.echo())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        csv_path = write_csv(report, out_dir)
        plot_paths = emit_plot_data(report, out_dir)
        report.artifacts = [os.path.basename(csv_path)] \
            + [os.path.basename(p) for p in plot_paths]
        write_json(report, out_dir)
    return report


def _fmt(v):
    return "" if v is None else repr(float(v))


def write_csv(report, out_dir):
    """Per-entry metric rows, one file per scenario, stable order."""
    path = os.path.join(out_dir, f"{report.scenario}.csv")
    lines = ["scenario,check,t,s,metric,value"]
    for rec in report.records:
        for t, s, metric, value in rec.rows:
            lines.append(f"{report.scenario},{rec.name},{_fmt(t)},{_fmt(s)},"
                         f"{metric},{_fmt(value)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_plot_data(report, out_dir):
    """Whitespace-delimited series files for external plotting tools."""
    paths = []
    for rec in report.records:
        for plot in rec.plots:
            name = f"{report.scenario}_{rec.name}_{plot['suffix']}.dat"
            path = os.path.join(out_dir, name)
            lines = ["# " + " ".join(plot["columns"])]
            for row in plot["rows"]:
                lines.append(" ".join(repr(float(v)) for v in row))
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            paths.append(path)
    return paths


def write_json(report, out_dir):
    """Self-contained machine-readable report; wall times excluded so the
    bytes are reproducible."""
    path = os.path.join(out_dir, f"{report.scenario}.json")
    payload = {
        "scenario": report.scenario,
        "version": report.version,
        "seed": report.seed,
        "config": report.config_echo,
        "records": [
            {"name": r.name, "status": r.status, "value": r.value,
             "bound": r.bound, "tolerance": r.tolerance, "note": r.note}
            for r in report.records
        ],
        "artifacts": report.artifacts,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
