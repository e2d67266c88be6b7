"""Process grids built by composing time averages with conditioning.

The two grids studied here apply the same pair of operators in opposite
order: the ME grid conditions the time averages A_t f, the EM grid
averages the conditionings E(f|F_s).  Each grid keeps the family its
first operator built (``ProcessGrid.inner``) for the diagnostics that
read A_t f or E(f|F_s).  Entries are honest function objects, so every
diagnostic below can recompute them from scratch and compare.

An entry depends on s only through F_s, the partition at
``filtration.level(s)``, so each grid builds and stores one entry per
(t, level): ``table`` is keyed by (t, level), and the EM ``inner`` by
level.  A_t f is built once per t and conditioned once per level (ME);
E(f|F_l) is built once per level and averaged once per t (EM).  The s of
one level read that level's entry through ``entry`` and ``items``.

Norms over a grid are taken family by family: ``convergence_table``, the
member fields of ``ProcessGrid.norm_sup``, ``sup_integrability_report``
and ``ergodic_envelope_check`` build the norm fields of all their members
(minus the target, where there is one) in one stacked ``NormFamily``
pass, so each kernel's fixed cost is paid once per family, not once per
entry, and every entry keeps the bits of its own computation.  A grid
family has one member per distinct entry, i.e. per key of ``table``.
Every check takes its vector norm; none picks one.  A ``ConvergenceReport``
carries no verdict: the runner's record reads it against the threshold.
"""

from dataclasses import dataclass

import numpy as np

from .condexp import cond_exp
from .fields import NormFamily, defect_max, grid_sup_field, sup_norm
from .flows import apply_flow, cesaro_average
from .functions import AtomFunction, merge_sum
from .tolerances import TOLERANCES

# slack factor / floor for "errors do not grow along the diagonal"
_DIAG_SLACK = 1.1
_DIAG_FLOOR = 1e-12

_T_PROBES = (0.3, 0.7, 1.0, 1.9, 2.5, 4.0)


def _combine(funcs, weights):
    if isinstance(funcs[0], AtomFunction):
        acc = sum(w * g.values for w, g in zip(weights, funcs))
        return AtomFunction(funcs[0].space, acc)
    return merge_sum(funcs, weights)


def _check_grid(grid, name, positive):
    """grid as floats: nonempty, finite, strictly increasing, > 0 or >= 0."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d grid")
    if not np.isfinite(g).all():
        raise ValueError(f"{name} values must be finite numbers")
    v = g.tolist()  # plain floats: a short grid checks faster than in NumPy
    if any(b <= a for a, b in zip(v, v[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    if positive and v[0] <= 0.0:
        raise ValueError(f"{name} values must be positive")
    if not positive and v[0] < 0.0:
        raise ValueError(f"{name} values must be nonnegative")
    return g


class ProcessGrid:
    """Process entries over (t, s) parameter grids, with the input f, flow
    and filtration that built it.  ``table`` maps (t, level) to the entry,
    one object per key; ``inner`` is the first operator's family in grid
    order: t -> A_t f (ME) or level -> E(f|F_level) (EM)."""

    def __init__(self, kind, f, flow, filtration, t_grid, s_grid, inner,
                 table):
        if kind not in ("ME", "EM"):
            raise ValueError(f"unknown process kind {kind!r}")
        self.kind = kind
        self.t_grid = t_grid
        self.s_grid = s_grid
        self.inner = inner
        self.table = table
        self.f = f
        self.flow = flow
        self.filtration = filtration
        self._norm_sups = {}

    def entry(self, t, s):
        """The entry at (t, s), read through the level of s: an s off the
        grid on a level the grid holds gets that level's entry, which is
        exactly the (t, s) process value, since F_s depends on s only
        through its level."""
        return self.table[(float(t), self.filtration.level(float(s)))]

    def _keys(self):
        """((t, s), table key) in row-major order: t outer, s inner."""
        for t in self.t_grid:
            for s in self.s_grid:
                yield (float(t), float(s)), (float(t),
                                             self.filtration.level(float(s)))

    def items(self):
        """Entries in row-major order: t outer, s inner."""
        for ts, key in self._keys():
            yield ts, self.table[key]

    def recompute_entry(self, t, s):
        """Rebuild one entry from scratch, bypassing the table."""
        part = self.filtration.partition(float(s))
        if self.kind == "ME":
            return cond_exp(cesaro_average(self.flow, float(t), self.f), part)
        return cesaro_average(self.flow, float(t), cond_exp(self.f, part))

    def norm_sup(self, vnorm):
        """Pointwise sup over the grid of ||entry(x)||_X, built once per norm."""
        if vnorm not in self._norm_sups:
            self._norm_sups[vnorm] = grid_sup_field(NormFamily(
                self.table.values(), vnorm).fields())
        return self._norm_sups[vnorm]

    def __repr__(self):
        return (f"ProcessGrid({self.kind}, {len(self.t_grid)}x"
                f"{len(self.s_grid)})")


def _levels(filtration, s_grid):
    """Level -> partition for each distinct level of the s grid, in order
    of first appearance."""
    return {k: filtration.partition_at_level(k)
            for k in (filtration.level(float(s)) for s in s_grid)}


def me_process(f, flow, filtration, t_grid, s_grid):
    """Grid of conditioned averages: entry (t,s) conditions A_t f on F_s."""
    t_grid = _check_grid(t_grid, "t_grid", positive=True)
    s_grid = _check_grid(s_grid, "s_grid", positive=False)
    parts = _levels(filtration, s_grid)
    inner, table = {}, {}
    for t in t_grid:
        inner[float(t)] = avg = cesaro_average(flow, float(t), f)
        table.update({(float(t), k): cond_exp(avg, part)
                      for k, part in parts.items()})
    return ProcessGrid("ME", f, flow, filtration, t_grid, s_grid, inner, table)


def em_process(f, flow, filtration, t_grid, s_grid):
    """Grid of averaged conditionings: entry (t,s) averages E(f|F_s) up to t."""
    t_grid = _check_grid(t_grid, "t_grid", positive=True)
    s_grid = _check_grid(s_grid, "s_grid", positive=False)
    inner = {k: cond_exp(f, part)
             for k, part in _levels(filtration, s_grid).items()}
    table = {(float(t), k): cesaro_average(flow, float(t), g)
             for t in t_grid for k, g in inner.items()}
    return ProcessGrid("EM", f, flow, filtration, t_grid, s_grid, inner, table)


@dataclass(frozen=True)
class ProcessLimits:
    """The three limit objects a process grid is compared against."""

    ergodic_limit: object
    me_limit: object
    em_limit: object


def limits(f, flow, filtration, t_max):
    """Limit objects: ergodic limit of A_t f, its conditioning at the
    terminal level, and the averaged terminal conditioning.

    For ergodic flows the ergodic limit is the exact constant mean;
    otherwise A_{t_max} f stands in as a finite-horizon surrogate, so
    t_max should dominate every t the caller will compare against.
    """
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    if flow.ergodic:
        ergodic_limit = type(f).constant(f.mean(), f.space)
    else:
        ergodic_limit = cesaro_average(flow, float(t_max), f)
    terminal = filtration.terminal()
    me_limit = cond_exp(ergodic_limit, terminal)
    em_limit = cesaro_average(flow, float(t_max), cond_exp(f, terminal))
    return ProcessLimits(ergodic_limit, me_limit, em_limit)


def cesaro_decomposition_check(flow, g, t, vnorm):
    """Defect of regrouping A_t into unit-time block averages.

    A_t g is reassembled as an average of shifted copies of A_1 g plus a
    fractional tail, each side computed by an independent path.  The
    identity is purely algebraic, so it holds for any flow and any g.
    """
    if t < 1.0:
        raise ValueError("regrouping needs t >= 1")
    if not flow.unit_blocks:
        raise ValueError("unit-time blocks need 1/h to be an integer")
    n = int(np.floor(t + 1e-12))
    alpha = t - n
    if alpha < 1e-12:
        alpha = 0.0
    lhs = cesaro_average(flow, float(t), g)
    unit = cesaro_average(flow, 1.0, g)
    terms = [apply_flow(flow, float(k), unit) for k in range(n)]
    weights = [1.0 / t] * n
    if alpha > 0.0:
        terms.append(apply_flow(flow, float(n), cesaro_average(flow, alpha, g)))
        weights.append(alpha / t)
    rhs = _combine(terms, weights)
    return float(sup_norm(lhs - rhs, vnorm))


def commutation_check(flow, f, partition, vnorm):
    """Worst defect of swapping the flow with conditioning over the times
    ``_T_PROBES``.

    Zero (to roundoff) exactly when the flow maps partition cells onto
    partition cells; otherwise the returned size is a diagnostic, not a
    failure.
    """
    ef = cond_exp(f, partition)
    worst = 0.0
    for t in _T_PROBES:
        moved = apply_flow(flow, float(t), f)
        lhs = apply_flow(flow, float(t), ef)
        rhs = cond_exp(moved, partition)
        worst = defect_max(worst, sup_norm(lhs - rhs, vnorm))
    return worst


class ConvergenceReport:
    """Sequence of (t, s, lp_error, sup_error) rows plus its diagonal.

    Iterating the report yields the row-major error rows.  ``diagonal``
    holds the (t_k, s_k) rows; ``monotone`` says that neither diagonal
    error sequence grows by more than the slack factor between steps, and
    ``final_sup_error`` is the last diagonal sup error.  The verdict that
    reads them is the runner's.
    """

    def __init__(self, rows, diagonal):
        self.rows = rows
        self.diagonal = diagonal
        self.final_sup_error = diagonal[-1][3]
        self.monotone = all(
            b <= _DIAG_SLACK * a + _DIAG_FLOOR
            for j in (2, 3)
            for a, b in zip([r[j] for r in diagonal], [r[j] for r in diagonal][1:]))

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def convergence_table(grid, target, p, vnorm):
    """Per-entry errors of a process grid against a target function, the
    norms of its distinct entries minus the target built in one stacked
    pass; rows and diagonal read them in (t, s) order."""
    norms = NormFamily(grid.table.values(), vnorm, target)
    errs = {key: (float(lp), float(sup))
            for key, lp, sup in zip(grid.table, norms.lp(p), norms.sup())}
    rows = [ts + errs[key] for ts, key in grid._keys()]
    k = min(len(grid.t_grid), len(grid.s_grid))
    diagonal = [rows[i * len(grid.s_grid) + i] for i in range(k)]
    return ConvergenceReport(rows, diagonal)


def sup_integrability_report(family, vnorm):
    """L1 size of the pointwise sup of the norm over a finite family.

    ``family`` holds the member functions, e.g. the time averages A_t f
    (``me_grid.inner.values()``) or the conditionings E(f|F_s), one per
    filtration level (``em_grid.inner.values()``).  Always finite at desk scale; a lower
    bound for the true sup over all parameters.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")
    return float(grid_sup_field(NormFamily(members, vnorm).fields()).lp(1.0))


def ergodic_envelope_constant(flow, f, vnorm):
    """Constant C with sup_x ||A_t f - mean||_X <= C / t, all t > 0;
    each ergodic flow computes it from f - mean."""
    if not flow.ergodic:
        raise ValueError("envelope constant needs an ergodic flow")
    return flow.envelope_constant(f - type(f).constant(f.mean(), f.space), vnorm)


@dataclass(frozen=True)
class EnvelopeReport:
    constant: float
    rows: tuple
    passed: bool


def ergodic_envelope_check(flow, f, averages, vnorm):
    """Verify sup ||A_t f - mean||_X <= C/t on the times of ``averages``,
    a map t -> A_t f (``me_grid.inner``, say)."""
    constant = ergodic_envelope_constant(flow, f, vnorm)
    errs = NormFamily(averages.values(), vnorm,
                      type(f).constant(f.mean(), f.space)).sup()
    rows = []
    ok = True
    for t, err in zip(averages, errs):
        err = float(err)
        bound = constant / float(t)
        rows.append((float(t), err, bound))
        ok = ok and err <= bound + TOLERANCES["ergodic_envelope"]
    return EnvelopeReport(constant, tuple(rows), ok)
