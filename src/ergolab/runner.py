"""Scenario runner: builds objects from configs, executes checks, writes artifacts.

Persisted artifacts never contain wall times, so identical config + seed
reproduces them byte for byte; timings go to the console only.
"""

import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .condexp import (LinearFunctional, cond_exps, defining_property_check,
                      functional_commutation_check)
from .config import (_filtration, _non_negative_int, build_flow,
                     build_function, build_space)
from .fields import NormFamily, defect_max, pointwise_norm
from .flows import apply_flows
from .inequalities import (dominant_ineq_em, dominant_ineq_me,
                           domination_chain_check, maximal_ineq_em,
                           maximal_ineq_me, random_submartingale_family,
                           submartingale_sup_check)
from .processes import (cesaro_decomposition_check, commutation_check,
                        convergence_table, em_process, ergodic_envelope_check,
                        ergodic_envelope_constant, limits, me_process,
                        sup_integrability_report)
from .spaces import Circle, Filtration, VectorNorm
from .tolerances import TOLERANCES

VERSION = "0.1.0"


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

    def grid(self, order):
        """The ME ("me") or EM ("em") process grid, built once."""
        # the builder is read by its global name at call time, so a
        # wrapper installed over the module's name sees every build
        build = me_process if order == "me" else em_process
        return self._memo(order, lambda: build(
            self.f, self.flow, self.filtration, self.t_grid, self.s_grid))

    def proc_limits(self):
        return self._memo("limits", lambda: limits(
            self.f, self.flow, self.filtration, 2.0 * float(self.t_grid[-1])))

    def envelope_constant(self):
        """The ergodic flow's envelope constant, computed once."""
        return self._memo("envelope", lambda: ergodic_envelope_constant(
            self.flow, self.f, self.vnorm))

    def table(self, order):
        """The order's convergence table against its limit, built once."""
        return self._memo(order + "_table", lambda: convergence_table(
            self.grid(order), getattr(self.proc_limits(), order + "_limit"),
            self.cfg.p, self.vnorm))


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


def _verdict(name, value, rows, limits=None, otherwise="FAIL", **fields):
    """The one verdict rule: PASS when every (measured, limit) pair of
    ``limits`` has measured <= limit, so a NaN on either side never passes,
    else ``otherwise`` (FAIL, or DIAGNOSTIC for a check that may report a
    failed assumption).  A check that states no pairs is a DIAGNOSTIC, and
    a DIAGNOSTIC record with a NaN value or row fails."""
    rows = tuple(rows)
    status = "DIAGNOSTIC" if limits is None else (
        "PASS" if all(m <= lim for m, lim in limits) else otherwise)
    # NaN is the one value unequal to itself
    if status == "DIAGNOSTIC" and any(
            v != v for v in [value] + [row[3] for row in rows]):
        status, fields["note"] = "FAIL", "NaN in a diagnostic value or row"
    return CheckRecord(name, status, value, rows=rows, **fields)


def _defect_record(name, worst, rows, otherwise="FAIL"):
    """PASS when the worst defect is within tolerance."""
    tol = TOLERANCES[name]
    return _verdict(name, worst, rows, [(worst, tol)], otherwise,
                    tolerance=tol)


# slack factor / floor for "errors do not grow along the diagonal"
_DIAG_SLACK = 1.1
_DIAG_FLOOR = 1e-12


def _convergence_record(ctx, name, table):
    """PASS when neither diagonal error sequence (lp, sup) grows by more
    than the slack between steps and the last sup error is within the
    scenario threshold; a NaN error fails."""
    rows = [(t, s, metric, v) for t, s, lp_err, sup_err in table
            for metric, v in (("lp_error", lp_err), ("sup_error", sup_err))]
    plots = [{"suffix": "errors", "columns": ("t", "error"),
              "rows": [(t, sup_err) for t, _, _, sup_err in table.diagonal]}]
    if ctx.flow.ergodic and name == "me_convergence":
        c = ctx.envelope_constant()
        plots.append({"suffix": "envelope", "columns": ("t", "bound"),
                      "rows": [(t, c / t) for t, _, _, _ in table.diagonal]})
    diag = table.diagonal
    steps = [(b[j], _DIAG_SLACK * a[j] + _DIAG_FLOOR)
             for a, b in zip(diag, diag[1:]) for j in (2, 3)]
    monotone = all(m <= lim for m, lim in steps)
    note = "" if monotone else "diagonal errors grew beyond slack"
    return _verdict(name, float(table.final_sup_error), rows,
                    steps + [(table.final_sup_error, ctx.cfg.threshold)],
                    bound=ctx.cfg.threshold, tolerance=0.0, note=note,
                    plots=tuple(plots))


def _levels(ctx):
    return range(ctx.cfg.filtration_max_level + 1)


def _scan(name, keys, measure, at_t=False):
    """One defect row per key from one ``measure(keys)`` call: a level in
    the s column or, ``at_t``, a time in the t column.  The worst defect
    decides; with no key there is nothing to measure, which raises."""
    if not keys:
        raise ValueError(f"{name} has no probe to measure")
    defects = [float(d) for d in measure(keys)]
    rows = [((float(k), None) if at_t else (None, float(k))) + ("defect", d)
            for k, d in zip(keys, defects)]
    return _defect_record(name, defect_max(0.0, *defects), rows)


# -- operator contract checks ----------------------------------------------------


def _chk_defining_property(ctx):
    return _scan("defining_property", _levels(ctx), lambda levels: [
        defining_property_check(ctx.f, ctx.filtration.partition_at_level(lvl))
        for lvl in levels])


def _chk_tower_idempotence(ctx):
    rows = []
    parts = [ctx.filtration.partition_at_level(lvl) for lvl in _levels(ctx)]
    once = cond_exps([ctx.f] * len(parts), parts)
    twice = iter(cond_exps(*zip(*[(g, part) for lvl, part in enumerate(parts)
                                  for g in once[lvl:]])))
    for lvl in range(len(parts)):
        # member 0 is E(E f|F_l), then E(E(f|F_k)|F_l) for each finer k
        sups = NormFamily([next(twice) for _ in once[lvl:]], ctx.vnorm,
                          target=once[lvl]).sup()
        d_tower = defect_max(0.0, *sups[1:])
        rows.append((None, float(lvl), "idempotence_defect", float(sups[0])))
        rows.append((None, float(lvl), "tower_defect", d_tower))
    return _defect_record("tower_idempotence",
                          defect_max(0.0, *(row[3] for row in rows)), rows)


def _chk_functional_commutation(ctx):
    functional = LinearFunctional(ctx.rng.normal(size=ctx.f.d))
    return _scan("functional_commutation", _levels(ctx), lambda levels:
                 functional_commutation_check(ctx.f, [
                     ctx.filtration.partition_at_level(lvl) for lvl in levels],
                     functional))


def _chk_flow_isometry(ctx):
    probes = _probe_times(ctx, 6)
    # member 0 is f, then T_t f for each probe t
    norms = NormFamily([ctx.f] + apply_flows(ctx.flow, probes, ctx.f),
                       ctx.vnorm)
    lp, sup = norms.lp(ctx.cfg.p), norms.sup()
    rows = [(t, None, metric, float(abs(v[i] - v[0])))
            for i, t in enumerate(probes, 1)
            for metric, v in (("lp_defect", lp), ("sup_defect", sup))]
    worst = defect_max(0.0, *(row[3] for row in rows))
    return _defect_record("flow_isometry", worst, rows)


def _chk_semigroup_law(ctx):
    # a step evolution composes only on the lattice of step widths
    probes = sorted({ctx.flow.lattice(t) for t in _probe_times(ctx, 3)})
    pairs = [(t1, t2) for t1 in probes for t2 in probes]
    # T_t f over the probes and the pair sums in one shift, then T_t1 of
    # each T_t2 f in one shift per t2
    times = sorted({*probes, *(t1 + t2 for t1, t2 in pairs)})
    once = dict(zip(times, apply_flows(ctx.flow, times, ctx.f)))
    twice = {t2: dict(zip(probes, apply_flows(ctx.flow, probes, once[t2])))
             for t2 in probes}
    sups = NormFamily([once[t1 + t2] for t1, t2 in pairs], ctx.vnorm,
                      [twice[t2][t1] for t1, t2 in pairs]).sup()
    rows = [(t1 + t2, None, "defect", float(d))
            for (t1, t2), d in zip(pairs, sups)]
    return _defect_record("semigroup_law", defect_max(0.0, *sups), rows)


def _chk_contraction(ctx):
    averages = ctx.grid("me").inner
    norms = NormFamily([ctx.f, *averages.values()], ctx.vnorm).lp(ctx.cfg.p)
    base = float(norms[0])
    excess = [float(norm) - base for norm in norms[1:]]
    rows = [(t, None, "norm_excess", e) for t, e in zip(averages, excess)]
    return _defect_record("contraction", defect_max(-np.inf, *excess), rows)


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
    return _scan("decomposition", [t for t in probes if 1.0 <= t <= t_max],
                 lambda times: cesaro_decomposition_check(
                     ctx.flow, ctx.f, times, ctx.vnorm), at_t=True)


def _chk_commutation(ctx):
    part = ctx.filtration.partition_at_level(ctx.cfg.filtration_max_level)
    d = float(commutation_check(ctx.flow, ctx.f, part, ctx.vnorm))
    return _defect_record("commutation", d, ((None, None, "defect", d),),
                          "DIAGNOSTIC")


def _chk_convergence(order, ctx):
    return _convergence_record(ctx, f"{order}_convergence", ctx.table(order))


def _chk_joint_vs_iterated(ctx):
    table = ctx.table("me")
    errs = {(t, s): sup_err for t, s, _, sup_err in table}
    s_last = float(ctx.s_grid[-1])
    diag = [(t, s, joint, errs[(t, s_last)])
            for t, s, _, joint in table.diagonal]
    rows = [row for t, s, joint, iterated in diag for row in (
        (t, s, "joint_error", joint), (t, s_last, "iterated_error", iterated))]
    plots = ({"suffix": "diagonal", "columns": ("t", "joint", "iterated"),
              "rows": [(t, joint, it) for t, _, joint, it in diag]},)
    return _verdict("joint_vs_iterated", float(diag[-1][2]), rows, plots=plots)


def _chk_ergodic_envelope(ctx):
    report = ergodic_envelope_check(ctx.flow, ctx.f, ctx.grid("me").inner,
                                    ctx.vnorm, ctx.envelope_constant())
    rows = tuple((t, None, metric, v) for t, err, bound in report.rows
                 for metric, v in (("sup_error", err), ("bound", bound)))
    plots = ({"suffix": "errors", "columns": ("t", "error"),
              "rows": [(t, e) for t, e, _ in report.rows]},
             {"suffix": "envelope", "columns": ("t", "bound"),
              "rows": [(t, b) for t, _, b in report.rows]})
    tol = TOLERANCES["ergodic_envelope"]
    return _verdict("ergodic_envelope", report.constant, rows,
                    [(err, bound + tol) for _, err, bound in report.rows],
                    tolerance=tol, plots=plots)


# -- inequality checks -----------------------------------------------------------


def _report_rows(rep):
    return tuple((None, None, metric, float(v))
                 for metric, v in zip(rep._fields, rep))


def _ineq_record(name, rep, measured, value):
    """PASS when ``measured`` is within tolerance of the report's bound."""
    tol = TOLERANCES[name]
    return _verdict(name, value, _report_rows(rep),
                    [(measured, rep.bound + tol)], bound=rep.bound,
                    tolerance=tol)


# each bound is read by its global name at call time, as in ScenarioContext.grid
def _chk_dominant(order, ctx):
    check = dominant_ineq_me if order == "me" else dominant_ineq_em
    rep = check(ctx.grid(order), ctx.cfg.p, ctx.vnorm)
    return _ineq_record(f"dominant_ineq_{order}", rep, rep.lhs, rep.ratio)


def _chk_maximal(order, ctx):
    check = maximal_ineq_me if order == "me" else maximal_ineq_em
    rep = check(ctx.grid(order), ctx.cfg.p, ctx.cfg.epsilon, ctx.vnorm)
    return _ineq_record(f"maximal_ineq_{order}", rep, rep.exceedance,
                        rep.exceedance)


def _chk_domination_chain(ctx):
    part = ctx.filtration.partition_at_level(ctx.cfg.filtration_max_level)
    d = float(domination_chain_check(ctx.f, ctx.flow, part,
                                     _probe_times(ctx, 6, cap=64.0), ctx.vnorm))
    return _defect_record("domination_chain", d, ((None, None, "defect", d),))


def _chk_sup_integrability(ctx):
    over_flow, over_filt = (sup_integrability_report(g.inner.values(), ctx.vnorm)
                            for g in (ctx.grid("me"), ctx.grid("em")))
    rows = ((None, None, "flow_sup_l1", over_flow),
            (None, None, "filtration_sup_l1", over_filt))
    return _verdict("sup_integrability", defect_max(over_flow, over_filt),
                    rows)


# -- martingale-side checks ------------------------------------------------------


def _chk_martingale_surrogate(ctx):
    if not isinstance(ctx.space, Circle):
        raise ValueError("martingale surrogate needs a circle scenario")
    if not ctx.f.is_continuous():
        raise ValueError("martingale surrogate needs a continuous function")
    lip = float(pointwise_norm(ctx.f.derivative(), ctx.vnorm).sup())
    parts = [ctx.filtration.partition_at_level(lvl) for lvl in _levels(ctx)]
    errs = NormFamily(cond_exps([ctx.f] * len(parts), parts), ctx.vnorm,
                      ctx.f).lp(1.0)
    levels = [(float(lvl), err, lip * 2.0 ** (-lvl))
              for lvl, err in zip(_levels(ctx), errs.tolist())]
    rows = [(None, lvl, metric, v) for lvl, err, bound in levels
            for metric, v in (("l1_error", err), ("bound", bound))]
    slack = TOLERANCES["martingale_surrogate_slack"]
    worst_ratio = defect_max(0.0, *(err / bound for _, err, bound in levels
                                    if bound > 0.0))
    plots = ({"suffix": "errors", "columns": ("level", "error"),
              "rows": [(lvl, err) for lvl, err, _ in levels]},)
    return _verdict("martingale_surrogate", worst_ratio, rows,
                    [(err, bound + slack) for _, err, bound in levels],
                    bound=1.0, tolerance=TOLERANCES["martingale_surrogate"],
                    plots=plots)


def _chk_submartingale_sup(ctx):
    if not isinstance(ctx.space, Circle):
        raise ValueError("submartingale families are generated on the circle")
    filt = Filtration(ctx.space, "increasing", ctx.cfg.filtration_max_level)
    times = np.arange(ctx.cfg.filtration_max_level + 1, dtype=float)
    family = random_submartingale_family(filt, times, 5, ctx.rng)
    rep = submartingale_sup_check(family)
    tol = TOLERANCES["submartingale_sup"]
    # the terminal defect is a max of absolute values: <= 0.0 is == 0.0
    return _verdict("submartingale_sup", rep.sup_defect, _report_rows(rep),
                    [(rep.sup_defect, tol), (rep.terminal_defect, 0.0)],
                    tolerance=tol)


def _chk_me_em_coincidence(ctx):
    me, em, lim = ctx.grid("me"), ctx.grid("em"), ctx.proc_limits()
    sups = NormFamily([*me.table.values(), lim.me_limit], ctx.vnorm, [
        em.table[key] for key in me.table] + [lim.em_limit]).sup()
    worst = defect_max(0.0, *sups[:-1])
    limit_gap = float(sups[-1])
    tol = TOLERANCES["me_em_coincidence"]
    rows = ((None, None, "entry_defect", worst),
            (None, None, "limit_defect", limit_gap))
    return _verdict("me_em_coincidence", worst, rows,
                    [(worst, tol), (limit_gap, TOLERANCES["me_em_limit_gap"])],
                    "DIAGNOSTIC", tolerance=tol)


CHECKS = {
    "defining_property": _chk_defining_property,
    "tower_idempotence": _chk_tower_idempotence,
    "functional_commutation": _chk_functional_commutation,
    "flow_isometry": _chk_flow_isometry,
    "semigroup_law": _chk_semigroup_law,
    "contraction": _chk_contraction,
    "decomposition": _chk_decomposition,
    "commutation": _chk_commutation,
    "me_convergence": partial(_chk_convergence, "me"),
    "em_convergence": partial(_chk_convergence, "em"),
    "joint_vs_iterated": _chk_joint_vs_iterated,
    "ergodic_envelope": _chk_ergodic_envelope,
    "dominant_ineq_me": partial(_chk_dominant, "me"),
    "dominant_ineq_em": partial(_chk_dominant, "em"),
    "maximal_ineq_me": partial(_chk_maximal, "me"),
    "maximal_ineq_em": partial(_chk_maximal, "em"),
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
    """Execute a scenario's checks in declaration order; a negative seed
    override is a ConfigError naming ``seed``, as in a scenario file.

    Any exception in a check becomes its FAIL record (class in the note).
    Checks run with floating-point faults raised, so a division by zero,
    an invalid operation or an overflow is such an exception; every other
    status is ``_verdict``'s.
    """
    if seed is not None:
        cfg = replace(cfg, seed=_non_negative_int("seed", seed))
    rng = np.random.default_rng(cfg.seed)
    ctx = build_context(cfg, rng)
    records = []
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for name in cfg.checks:
            start = time.perf_counter()
            try:
                rec = CHECKS[name](ctx)
            except Exception as exc:
                rec = CheckRecord(name, "FAIL",
                                  note=f"{type(exc).__name__}: {exc}")
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
