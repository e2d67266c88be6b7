"""Verifiers for the maximal-function inequalities and sup-family checks.

Each checker replaces a supremum over continuous parameters by the sup
over a finite grid.  That only weakens the left side, so the inequality
direction stays sound: a PASS certifies a necessary condition, while any
FAIL is a hard defect.

The dominant and maximal inequalities read a prebuilt ME or EM
``ProcessGrid`` (the same grids the convergence checks use) and its
memoised pointwise norm sup, so one grid and one sup field per order
serve every bound.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .condexp import cond_exp, cond_exp_dominant
from .fields import NormFamily, defect_max, lp_norm, pointwise_norm
from .flows import cesaro_average, dominant_cesaro
from .functions import AtomFunction, CircleFunction
from .processes import _check_grid
from .spaces import Circle, VectorNorm
from .tolerances import TOLERANCES


class DominantReport(NamedTuple):
    lhs: float
    bound: float
    ratio: float
    passed: bool


class MaximalReport(NamedTuple):
    exceedance: float
    bound: float
    passed: bool


def _require(grid, kind, p):
    if grid.kind != kind:
        raise ValueError(f"this bound reads an {kind} grid; got {grid.kind}")
    if not p > 1.0:
        raise ValueError("the inequality constant degenerates unless p > 1")
    if grid.filtration.direction != "decreasing":
        raise ValueError(
            "this inequality is stated for decreasing filtrations; got "
            f"{grid.filtration.direction!r}")


def _dominant_report(grid, kind, p, vnorm):
    _require(grid, kind, p)
    lhs = float(grid.norm_sup(vnorm).lp(p))
    constant = (p / (p - 1.0)) ** 2
    bound = constant * float(lp_norm(grid.f, p, vnorm))
    ratio = lhs / bound if bound > 0.0 else 0.0
    slack = TOLERANCES[f"dominant_ineq_{kind.lower()}"]
    return DominantReport(lhs, bound, ratio, lhs <= bound + slack)


def _maximal_report(grid, kind, p, eps, vnorm):
    _require(grid, kind, p)
    if eps <= 0.0:
        raise ValueError("exceedance threshold must be positive")
    exc = float(grid.norm_sup(vnorm).superlevel_measure(eps))
    bound = (p / (p - 1.0)) * float(lp_norm(grid.f, p, vnorm)) / eps
    slack = TOLERANCES[f"maximal_ineq_{kind.lower()}"]
    return MaximalReport(exc, bound, exc <= bound + slack)


def dominant_ineq_me(grid, p, vnorm):
    """Strong-type bound on the grid-sup of conditioned averages.

    ``grid`` is an ME grid (``me_process``).  lhs is the L_p size of the
    pointwise sup over the (t, s) grid of ||E(A_t f|F_s)||_X; the bound
    is (p/(p-1))^2 ||f||_p.
    """
    return _dominant_report(grid, "ME", p, vnorm)


def dominant_ineq_em(grid, p, vnorm):
    """Companion strong-type bound on an EM grid (``em_process``)."""
    return _dominant_report(grid, "EM", p, vnorm)


def maximal_ineq_me(grid, p, eps, vnorm):
    """Weak-type bound on an ME grid: measure of {grid-sup >= eps} vs
    (p/(p-1)) ||f||_p / eps.

    The exceedance set is measured exactly from the piecewise
    representation, not sampled.
    """
    return _maximal_report(grid, "ME", p, eps, vnorm)


def maximal_ineq_em(grid, p, eps, vnorm):
    """Weak-type bound on an EM grid of averaged conditionings."""
    return _maximal_report(grid, "EM", p, eps, vnorm)


def domination_chain_check(f, flow, partition, t_grid, vnorm, npoints=1000):
    """Worst signed defect of the two-step pointwise domination chain.

    For each grid time: ||A_t f||_X must not exceed the dominant average
    of ||f||_X anywhere, and ||E(A_t f|F)||_X must not exceed the
    dominant conditioning of that average.  Positive return values mean
    the chain was violated by that amount; values within
    ``TOLERANCES["domination_chain"]`` are healthy.
    """
    pts = f.space.sample_points(npoints)
    norm_f = pointwise_norm(f, vnorm)
    worst = -np.inf
    for t in np.asarray(t_grid, dtype=float):
        avg = cesaro_average(flow, float(t), f)
        dom = dominant_cesaro(flow, float(t), norm_f)
        gap1 = vnorm(avg(pts)) - dom.eval(pts)
        cavg = cond_exp(avg, partition)
        cdom = cond_exp_dominant(dom, partition)
        gap2 = vnorm(cavg(pts)) - cdom.eval(pts)
        worst = defect_max(worst, np.max(gap1), np.max(gap2))
    return worst


# -- submartingale families ----------------------------------------------------


class SubmartingaleFamily:
    """Finite family of scalar submartingales on one increasing filtration.

    ``processes`` maps index i to the list of time slices g^i at each
    grid time.  Construction validates adaptedness (each slice constant
    on its partition cells) and the submartingale property per index,
    rejecting the input with the offending index and time.
    """

    def __init__(self, filtration, s_grid, processes):
        if filtration.direction != "increasing":
            raise ValueError("submartingale families need an increasing filtration")
        s_grid = _check_grid(s_grid, "s_grid", positive=False)
        processes = [list(slices) for slices in processes]
        if not processes:
            raise ValueError("family must contain at least one process")
        for i, slices in enumerate(processes):
            if len(slices) != s_grid.size:
                raise ValueError(f"process {i} has {len(slices)} slices, "
                                 f"expected {s_grid.size}")
        self.filtration = filtration
        self.s_grid = s_grid
        self.processes = processes
        # the midpoints of the finest cells and their widths on the circle,
        # every atom and its weight otherwise
        space = filtration.space
        self._pts = space.sample_points(2 ** filtration.max_level)
        self._mass = (filtration.terminal().masses[0]
                      if isinstance(space, Circle) else space.weights)
        self._validate()

    def _validate(self):
        # adaptedness is the exact sup of |g - E(g|F_s)|, one family for all
        # slices; adapted slices are constant on the finest cells, so the
        # midpoint reads below are exact
        gaps = []
        for i, slices in enumerate(self.processes):
            for k, g in enumerate(slices):
                if g.d != 1:
                    raise ValueError(f"process {i} at time {self.s_grid[k]} "
                                     "is not scalar")
                gaps.append(g - cond_exp(g, self.filtration.partition(
                    self.s_grid[k])))
        for n, gap in enumerate(NormFamily(gaps, VectorNorm("max", 1)).sup()):
            if not gap <= TOLERANCES["submartingale_input"]:
                i, k = divmod(n, self.s_grid.size)
                raise ValueError(
                    f"process {i} is not adapted at time {self.s_grid[k]} "
                    f"(defect {gap:.3e})")
        for i, slices in enumerate(self.processes):
            for k, drop in enumerate(self._drops(slices)):
                if drop > TOLERANCES["submartingale_input"]:
                    raise ValueError(
                        f"process {i} violates the submartingale property "
                        f"between times {self.s_grid[k]} and {self.s_grid[k + 1]} "
                        f"(drop {drop:.3e})")

    def _drops(self, slices):
        """max(g_k - E(g_(k+1)|F_(s_k))) of each pair of consecutive slices,
        read at the finest cells' midpoints (every atom off the circle)."""
        pts, part = self._pts, self.filtration.partition
        return [np.max(g(pts)[:, 0] - cond_exp(nxt, part(s))(pts)[:, 0])
                for g, nxt, s in zip(slices, slices[1:], self.s_grid)]

    @property
    def n_indices(self):
        return len(self.processes)

    def sup_slice(self, k):
        """Pointwise sup over the index set at grid time number k."""
        pts = self._pts
        vals = np.max([g[k](pts)[:, 0] for g in self.processes], axis=0)
        space = self.filtration.space
        if isinstance(space, Circle):
            bounds = self.filtration.terminal().cell_bounds_float()
            return CircleFunction.piecewise_constant(bounds, vals[:, None], space)
        return AtomFunction(space, vals[:, None])


@dataclass(frozen=True)
class SubmartingaleReport:
    sup_defect: float
    terminal_defect: float
    positive_part_bound: float
    passed: bool


def submartingale_sup_check(family):
    """Check that the pointwise index-sup is again a submartingale and
    that its terminal slice matches the sup of terminal slices exactly.

    Also reports the largest integral of the positive part of the sup
    across times; the sup property only has content when that quantity
    is finite, which is automatic at this scale.
    """
    pts = family._pts
    sups = [family.sup_slice(k) for k in range(family.s_grid.size)]
    worst = defect_max(0.0, *family._drops(sups))
    terminal = np.max([g[-1](pts)[:, 0] for g in family.processes], axis=0)
    term_defect = float(np.max(np.abs(sups[-1](pts)[:, 0] - terminal)))
    bound = defect_max(0.0, *[np.sum(np.maximum(g(pts)[:, 0], 0.0) * family._mass)
                              for g in sups])
    passed = worst <= TOLERANCES["submartingale_sup"] and term_defect == 0.0
    return SubmartingaleReport(float(worst), term_defect, bound, passed)


def random_submartingale_family(filtration, s_grid, n_indices, rng):
    """Generate a valid family by adding martingale increments plus
    nonnegative adapted bumps; the submartingale property is exact by
    construction.  Starting values and increments are normal with standard
    deviation 1.0, bumps uniform on [0, 0.5).
    """
    if not isinstance(filtration.space, Circle):
        raise ValueError("random families are generated on circle filtrations")
    s_grid = np.asarray(s_grid, dtype=float)
    n_fine = 2 ** filtration.max_level
    bounds = filtration.partition_at_level(filtration.max_level).cell_bounds_float()
    processes = []
    for _ in range(n_indices):
        level = filtration.level(s_grid[0])
        vals = np.repeat(rng.normal(0.0, 1.0, 2 ** level), n_fine // 2 ** level)
        slices = [CircleFunction.piecewise_constant(bounds, vals[:, None],
                                                    filtration.space)]
        for k in range(1, s_grid.size):
            prev_level = filtration.level(s_grid[k - 1])
            level = filtration.level(s_grid[k])
            if level > prev_level:
                # paired +/- jumps on child cells keep the conditional mean
                half = rng.normal(0.0, 1.0, 2 ** prev_level)
                inc = np.repeat(np.stack([half, -half], axis=1).ravel(),
                                n_fine // 2 ** (prev_level + 1))
                vals = vals + inc
            bump = np.repeat(rng.uniform(0.0, 0.5, 2 ** level),
                             n_fine // 2 ** level)
            vals = vals + bump
            slices.append(CircleFunction.piecewise_constant(
                bounds, vals[:, None], filtration.space))
        processes.append(slices)
    return SubmartingaleFamily(filtration, s_grid, processes)
