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
level.  The averages come from one ``cesaro_averages`` call over the whole
t grid per input (f, or each E(f|F_l)), and the conditionings from one
``cond_exps`` call per grid.  A step flow thus walks each input's orbit
once, up to the largest t.  The s of one level read that level's entry
through ``entry`` and ``items``.

Norms are taken family by family: ``convergence_table``,
``ProcessGrid.norm_sup``, ``sup_integrability_report``,
``ergodic_envelope_check``, ``cesaro_decomposition_check`` (one gap per
t) and ``commutation_check`` (one per probe time) build the norm fields
of all their members (minus the target, where there is one) in one
stacked ``NormFamily`` pass, so each kernel's fixed cost is paid once per
family, not once per entry, and every member keeps the bits of its own
computation; a grid's pointwise sup is ``NormFamily.sup_field``.  A grid
family has one member per distinct entry, i.e. per key of ``table``.
Every check takes its vector norm; none picks one.  Reports carry
numbers, never a verdict: the runner's records compare them with the
threshold and the tolerance table.
"""

from dataclasses import dataclass

import numpy as np

from .condexp import cond_exp, cond_exps
from .fields import NormFamily, defect_max, pointwise_norm
from .flows import apply_flows, cesaro_average, cesaro_averages
from .functions import AtomFunction, merge_sum

_T_PROBES = (0.3, 0.7, 1.0, 1.9, 2.5, 4.0)
# a t within _BLOCK_SNAP below a whole number counts as that many unit
# blocks; a fractional tail shorter than _BLOCK_SNAP is dropped
_BLOCK_SNAP = 1e-12


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
        self._norms = {}
        # ((t, s), table key) in row-major order: t outer, s inner
        levels = [(float(s), filtration.level(float(s))) for s in s_grid]
        self._keys = [((float(t), s), (float(t), k))
                      for t in t_grid for s, k in levels]

    def entry(self, t, s):
        """The entry at (t, s), read through the level of s: an s off the
        grid on a level the grid holds gets that level's entry, which is
        exactly the (t, s) process value, since F_s depends on s only
        through its level."""
        key = (float(t), self.filtration.level(float(s)))
        if key not in self.table:
            raise ValueError(f"t = {t} is not on the grid's t grid"
                             if key[0] not in self.t_grid else
                             f"s = {s} is on level {key[1]}, off the grid")
        return self.table[key]

    def items(self):
        """Entries in row-major order: t outer, s inner."""
        return ((ts, self.table[key]) for ts, key in self._keys)

    def recompute_entry(self, t, s):
        """Rebuild one entry from scratch, bypassing the table."""
        part = self.filtration.partition(float(s))
        if self.kind == "ME":
            return cond_exp(cesaro_average(self.flow, float(t), self.f), part)
        return cesaro_average(self.flow, float(t), cond_exp(self.f, part))

    def norm_sup(self, vnorm):
        """Pointwise sup over the grid of ||entry(x)||_X, built once per norm."""
        if vnorm not in self._norms:
            self._norms[vnorm] = NormFamily(self.table.values(),
                                            vnorm).sup_field()
        return self._norms[vnorm]

    def f_lp(self, vnorm, p):
        """||f||_p in the vector norm vnorm, computed once per (vnorm, p)."""
        if (vnorm, p) not in self._norms:
            self._norms[vnorm, p] = float(pointwise_norm(self.f, vnorm).lp(p))
        return self._norms[vnorm, p]

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
    inner = dict(zip(t_grid.tolist(), cesaro_averages(flow, t_grid, f)))
    keys = [(t, k) for t in inner for k in parts]
    table = dict(zip(keys, cond_exps([inner[t] for t, _ in keys],
                                     [parts[k] for _, k in keys])))
    return ProcessGrid("ME", f, flow, filtration, t_grid, s_grid, inner, table)


def em_process(f, flow, filtration, t_grid, s_grid):
    """Grid of averaged conditionings: entry (t,s) averages E(f|F_s) up to t."""
    t_grid = _check_grid(t_grid, "t_grid", positive=True)
    s_grid = _check_grid(s_grid, "s_grid", positive=False)
    parts = _levels(filtration, s_grid)
    inner = dict(zip(parts, cond_exps([f] * len(parts), parts.values())))
    averaged = {k: cesaro_averages(flow, t_grid, g) for k, g in inner.items()}
    table = {(t, k): averaged[k][i]
             for i, t in enumerate(t_grid.tolist()) for k in inner}
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


def cesaro_decomposition_check(flow, g, times, vnorm):
    """Defect of regrouping A_t into unit-time blocks, one per t in ``times``.

    A_t g is reassembled as an average of shifted copies of A_1 g plus a
    fractional tail, each side computed by an independent path.  The
    identity is purely algebraic, so it holds for any flow and any g.
    """
    if any(t < 1.0 for t in times):
        raise ValueError("regrouping needs t >= 1")
    if not flow.unit_blocks:
        raise ValueError("unit-time blocks need 1/h to be an integer")
    times = [float(t) for t in times]
    ns = [int(np.floor(t + _BLOCK_SNAP)) for t in times]
    alphas = [t - n if t - n >= _BLOCK_SNAP else 0.0 for t, n in zip(times, ns)]
    # A_1 g, each A_t g and each distinct tail A_a g from one batch; A_1 g
    # shifted once per k < max n, each tail once over all of its n
    ts = sorted({1.0, *times, *filter(None, alphas)})
    avg = dict(zip(ts, cesaro_averages(flow, ts, g)))
    units = apply_flows(flow, range(max(ns, default=0)), avg[1.0])
    tails = {}
    for a in set(alphas) - {0.0}:
        tn = [n for n, b in zip(ns, alphas) if b == a]
        tails[a] = dict(zip(tn, apply_flows(flow, tn, avg[a])))
    blocks = [_combine(units[:n] + ([tails[a][n]] if a else []),
                       [1.0 / t] * n + ([a / t] if a else []))
              for t, n, a in zip(times, ns, alphas)]
    return NormFamily([avg[t] for t in times], vnorm, blocks).sup()


def commutation_check(flow, f, partition, vnorm):
    """Worst defect of swapping the flow with conditioning over the times
    ``_T_PROBES``, all their gaps in one norm family.

    Zero (to roundoff) exactly when the flow maps partition cells onto
    partition cells; otherwise the returned size is a diagnostic, not a
    failure.
    """
    moved = apply_flows(flow, _T_PROBES, f)
    ef, *emoved = cond_exps([f, *moved], [partition] * (1 + len(moved)))
    sups = NormFamily(apply_flows(flow, _T_PROBES, ef), vnorm, emoved).sup()
    return defect_max(0.0, *sups)


class ConvergenceReport:
    """Sequence of (t, s, lp_error, sup_error) rows plus its diagonal.

    Iterating the report yields the row-major error rows.  ``diagonal``
    holds the (t_k, s_k) rows and ``final_sup_error`` is the last diagonal
    sup error.  The verdict that reads them is the runner's.
    """

    def __init__(self, rows, diagonal):
        self.rows = rows
        self.diagonal = diagonal
        self.final_sup_error = diagonal[-1][3]

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
    rows = [ts + errs[key] for ts, key in grid._keys]
    k = min(len(grid.t_grid), len(grid.s_grid))
    diagonal = [rows[i * len(grid.s_grid) + i] for i in range(k)]
    return ConvergenceReport(rows, diagonal)


def sup_integrability_report(family, vnorm):
    """L1 size of the pointwise sup of the norm over a finite family.

    ``family`` holds the member functions, e.g. the time averages A_t f
    (the ME grid's ``inner.values()``) or the conditionings E(f|F_s), one
    per filtration level (the EM grid's).  Always finite at desk scale;
    a lower bound for the true sup over all parameters.
    """
    return float(NormFamily(family, vnorm).sup_field().lp(1.0))


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


def ergodic_envelope_check(flow, f, averages, vnorm, constant):
    """Rows (t, sup ||A_t f - mean||_X, C/t) on the times of ``averages``,
    a map t -> A_t f (the ME grid's ``inner``, say); C is ``constant``,
    ergodic_envelope_constant(flow, f, vnorm) for instance."""
    errs = NormFamily(averages.values(), vnorm,
                      type(f).constant(f.mean(), f.space)).sup()
    return EnvelopeReport(constant, tuple(
        (float(t), float(err), constant / float(t))
        for t, err in zip(averages, errs)))
