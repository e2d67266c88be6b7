import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import condexp
from ergolab.condexp import (
    LinearFunctional,
    cond_exp,
    cond_exp_dominant,
    cond_exps,
    defining_property_check,
    functional_commutation_check,
)
from ergolab.fields import (AtomField, PolyField, _integral, _Stack,
                            pointwise_norm)
from ergolab.flows import identity_flow
from ergolab.functions import (DEGREE_CAP, AtomFunction, CircleFunction,
                               _powers, hat, sawtooth)
from ergolab.inequalities import domination_chain_check
from ergolab.spaces import (
    Filtration,
    Partition,
    VectorNorm,
    circle_space,
    discrete_space,
    make_dyadic_partition,
    product_space,
)

import oracles


def test_cond_exp_sawtooth_level1():
    # E(saw | halves): cell means of x - 1/2 are -1/4 and +1/4
    f = sawtooth(d=1)
    part = make_dyadic_partition(1)
    ef = cond_exp(f, part)
    assert ef(0.2)[0] == pytest.approx(-0.25)
    assert ef(0.7)[0] == pytest.approx(0.25)
    assert np.allclose(ef.integral(), f.integral(), atol=1e-15)


def test_cond_exp_matches_brute_cells():
    f = sawtooth(d=1, phases=[0.3])
    part = make_dyadic_partition(2)
    ef = cond_exp(f, part)
    # first quarter straddles the jump at 0.7 - no, at (1-0.3)=0.7; cell 0
    # is smooth, frozen hand value: mean of x + 0.3 - 0.5 over [0, 1/4)
    assert ef(0.1)[0] == pytest.approx(-0.075, abs=1e-15)
    bounds = np.asarray(part.cell_bounds_float())
    brute = oracles.brute_cond_exp(
        lambda x: oracles.sawtooth_vals(x, 1.0, 0.3), bounds,
        np.array([0.1, 0.3, 0.6, 0.9]))
    assert np.allclose(ef(np.array([0.1, 0.3, 0.6, 0.9]))[:, 0],
                       brute.ravel(), atol=2e-5)


def test_cond_exp_trivial_partition_is_mean():
    f = hat(d=2, amplitudes=[0.7, 0.4], phases=[0.25, 0.8])
    part = make_dyadic_partition(0)
    ef = cond_exp(f, part)
    x = np.linspace(0.0, 0.99, 13)
    assert np.max(np.abs(ef(x) - f.mean())) < 1e-14


def test_cond_exp_atoms_weighted():
    sp = discrete_space(np.array([0.1, 0.2, 0.3, 0.4]))
    f = AtomFunction(sp, np.array([2.0, 0.0, 1.0, 3.0]))
    part = sp.partition(1)
    ef = cond_exp(f, part)
    assert np.allclose(ef.values[:, 0],
                       [2.0 / 3, 2.0 / 3, 1.5 / 0.7, 1.5 / 0.7])


def test_cond_exp_space_mismatch():
    sp = discrete_space(np.full(4, 0.25))
    f = AtomFunction(sp, np.zeros(4))
    with pytest.raises(ValueError):
        cond_exp(f, make_dyadic_partition(2))


def test_cond_exp_is_projection():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    part = make_dyadic_partition(3)
    once = cond_exp(f, part)
    twice = cond_exp(once, part)
    x = (np.arange(300) + 0.5) / 300
    assert np.max(np.abs(once(x) - twice(x))) < 1e-14


def test_tower_property_through_filtration():
    f = hat(d=2, amplitudes=[0.7, 0.4], phases=[0.25, 0.8])
    filt = Filtration(circle_space(), "decreasing", max_level=5)
    fine = filt.partition_at_level(5)
    coarse = filt.partition_at_level(2)
    a = cond_exp(cond_exp(f, fine), coarse)
    b = cond_exp(f, coarse)
    x = (np.arange(300) + 0.5) / 300
    assert np.max(np.abs(a(x) - b(x))) < 1e-14


def test_defining_property_check_is_tiny():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    assert defining_property_check(f, make_dyadic_partition(4)) < 1e-15
    sp = discrete_space(np.array([0.1, 0.2, 0.3, 0.4]))
    g = AtomFunction(sp, np.array([[2.0, 1.0], [0.0, -1.0],
                                   [1.0, 0.5], [3.0, -2.0]]))
    assert defining_property_check(g, sp.partition(1)) < 1e-15


def test_functional_commutation_exact():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    func = LinearFunctional([0.3, -1.7])
    assert functional_commutation_check(
        f, [make_dyadic_partition(3)], func)[0] < 1e-14
    with pytest.raises(ValueError):
        functional_commutation_check(
            f, [make_dyadic_partition(3)], LinearFunctional([1.0]))
    with pytest.raises(ValueError, match="at least one member"):
        functional_commutation_check(f, [], func)


def test_linear_functional_compose():
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    func = LinearFunctional([2.0, -1.0])
    g = func.compose(f)
    x = np.linspace(0.01, 0.99, 17)
    assert np.allclose(g(x)[:, 0], f(x) @ np.array([2.0, -1.0]))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def test_cond_exps_hand_back_the_checked_construction():
    f = sawtooth(d=2, amplitudes=[1.0, -0.5], phases=[0.0, 0.3])
    g = hat(d=1).rotate(0.1)
    parts = [make_dyadic_partition(level) for level in (0, 2, 5)]
    fns = [f] * 3 + [g] * 3
    got = cond_exps(fns, parts * 2)
    for e, fn, part in zip(got, fns, parts * 2):
        sums = condexp._cell_integrals([fn], [part])[0][0]
        want = CircleFunction(part.cell_bounds_float(),
                              (sums / part.masses[0][:, None])[:, None],
                              fn.space)
        assert type(e) is CircleFunction and e.space == want.space
        assert _same(e.breaks, want.breaks) and _same(e.coeffs, want.coeffs)
        assert e._antideriv is None
        # the partition's own bounds, which it keeps read-only
        assert e.breaks is part.cell_bounds_float()
        assert not e.breaks.flags.writeable


def _count_cond_exp(monkeypatch):
    calls = []
    real = condexp.cond_exp

    def counted(f, partition):
        calls.append(partition)
        return real(f, partition)

    monkeypatch.setattr(condexp, "cond_exp", counted)
    return calls


def test_dominant_cell_averages_polyfield():
    field = pointwise_norm(sawtooth(d=1), VectorNorm("euclidean", 1))
    part = make_dyadic_partition(2)
    dom = cond_exp_dominant(field, part)
    assert np.allclose(
        dom.eval(np.array([0.1, 0.3, 0.6, 0.9])),
        [0.375, 0.125, 0.125, 0.375])
    # averaging preserves the total integral
    assert dom.integral() == pytest.approx(field.integral(), abs=1e-15)


def _ragged_poly(rng, npieces, k1):
    inner = np.sort(rng.uniform(0.0, 1.0, npieces - 1))
    # some breaks on dyadic cell bounds, so cells start on a piece's break
    breaks = np.unique(np.r_[0.0, inner, rng.integers(1, 64, 4) / 64, 1.0])
    return breaks, rng.uniform(0.0, 1.0, (breaks.size - 1, k1))


@pytest.mark.parametrize("k1", [1, 2, 4, 6])
def test_dominant_polyfield_is_cond_exp_bit_for_bit(monkeypatch, k1):
    rng = np.random.default_rng(40 + k1)
    calls = _count_cond_exp(monkeypatch)
    for npieces in (1, 7, 45):
        breaks, coeffs = _ragged_poly(rng, npieces, k1)
        field = PolyField(CircleFunction(breaks, coeffs[:, :, None]))
        for level in range(7):
            part = make_dyadic_partition(level)
            bounds = np.asarray(part.cell_bounds_float())
            calls.clear()
            dom = cond_exp_dominant(field, part)
            assert len(calls) == 1
            assert isinstance(dom, PolyField)
            assert _same(dom.breaks, bounds)
            assert _same(dom.fn.coeffs[:, 0, 0],
                         oracles.loop_cell_averages(breaks, coeffs, bounds))


def _random_labels(rng, n):
    # up to 6 cells of scattered atoms, of uneven sizes: the label array and
    # the cells as plain index lists, each in increasing atom order
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 5),
                              replace=False))
    cells = [np.sort(c) for c in np.split(rng.permutation(n), cuts)]
    labels = np.empty(n, dtype=int)
    for k, cell in enumerate(cells):
        labels[cell] = k
    return labels, cells


def _atom_partition_cases(rng):
    # (space, partition, its cells as index lists): block partitions with
    # uneven cell sizes, random labels, and product factor partitions, whose
    # cells are not contiguous
    cases = []
    for n in (1, 3, 16, 57, 199):
        sp = discrete_space(rng.uniform(0.01, 1.0, n))
        parts = [sp.partition(lvl)
                 for lvl in range(int(np.log2(n)) + 1)]
        cases += [(sp, part, [np.flatnonzero(part.cell_of == k)
                              for k in range(part.ncells)]) for part in parts]
        labels, cells = _random_labels(rng, n)
        cases.append((sp, Partition(sp, cell_of=labels), cells))
    for m2 in (2, 5, 6, 8):
        sp = product_space(3, rng.uniform(0.05, 1.0, m2) / 3.0)
        rows = np.arange(3)[:, None] * m2  # atom (i, j) sits at i * m2 + j
        for lvl in range(int(np.log2(m2)) + 1):
            # factor blocks start at ceil(j * m2 / 2**lvl)
            edges = -(-np.arange(2 ** lvl + 1) * m2 // 2 ** lvl)
            cases.append((sp, sp.partition(lvl),
                          [(rows + np.arange(a, b)).ravel()
                           for a, b in zip(edges, edges[1:])]))
    return cases


def test_dominant_atomfield_is_cond_exp_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(17)
    calls = _count_cond_exp(monkeypatch)
    for sp, part, cells in _atom_partition_cases(rng):
        vals = rng.uniform(0.0, 2.0, sp.natoms)
        calls.clear()
        dom = cond_exp_dominant(AtomField(sp, vals), part)
        assert len(calls) == 1
        assert isinstance(dom, AtomField)
        assert _same(dom.values, oracles.loop_atom_cell_averages(
            sp.weights, vals, cells))
        # vector data, and the defining-property defect per cell
        f = AtomFunction(sp, rng.normal(size=(sp.natoms, 3)))
        ef = condexp.cond_exp(f, part)
        assert _same(ef.values, oracles.loop_atom_cell_averages(
            sp.weights, f.values, cells))
        ints = [oracles.loop_atom_cell_integrals(sp.weights, g.values, cells)
                for g in (ef, f)]
        assert _same(np.float64(defining_property_check(f, part)),
                     np.max(np.abs(ints[0] - ints[1])))


def test_dominant_atom_cell_values():
    sp = discrete_space(np.array([0.1, 0.2, 0.3, 0.4]))
    dom = cond_exp_dominant(AtomField(sp, np.array([2.0, 0.0, 1.0, 3.0])),
                            sp.partition(1))
    assert np.allclose(dom.values, [2.0 / 3.0, 2.0 / 3.0, 1.5 / 0.7, 1.5 / 0.7])


def _loop_defining_defect(f, ef, bounds):
    # one antiderivative read per cell and function, cells in order
    worst = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ends = np.array([lo, hi])
        gap = (np.diff(ef.antiderivative()._eval_unwrapped(ends), axis=0)
               - np.diff(f.antiderivative()._eval_unwrapped(ends), axis=0))
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def test_defining_property_reads_one_table_per_function(monkeypatch):
    rng = np.random.default_rng(8)
    breaks, coeffs = _ragged_poly(rng, 30, 4)
    f = CircleFunction(breaks, rng.normal(size=(breaks.size - 1, 4, 2)))
    reads = []
    real = condexp._powers

    def counted(x, k1):
        reads.append(np.size(x))
        return real(x, k1)

    for level in (0, 3, 6):
        part = make_dyadic_partition(level)
        bounds = np.asarray(part.cell_bounds_float())
        ref = _loop_defining_defect(f, cond_exp(f, part), bounds)
        monkeypatch.setattr(condexp, "_powers", counted)
        reads.clear()
        got = defining_property_check(f, part)
        monkeypatch.undo()
        assert _same(np.float64(got), np.float64(ref))
        # all cell bounds at once: cond_exp's table, then one per function
        # (f and E f differ in coefficient shape)
        assert reads == [bounds.size] * 3


def test_dominant_accepts_circle_function():
    f = hat(d=1)
    part = make_dyadic_partition(1)
    dom = cond_exp_dominant(f, part)
    assert dom.eval(0.2) == pytest.approx(0.0, abs=1e-15)


def _domination_defect(f, partition, vnorm):
    # under the identity flow A_1 f = f, so the chain reduces to
    # ||E(f|F)||_X <= E'(||f||_X|F)
    return domination_chain_check(f, identity_flow(f.space), partition, [1.0],
                                  vnorm)


def test_domination_defect_nonpositive():
    vnorm = VectorNorm("euclidean", 2)
    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    assert _domination_defect(f, make_dyadic_partition(3), vnorm) <= 1e-12
    sp = discrete_space(np.full(8, 0.125))
    rng = np.random.default_rng(5)
    g = AtomFunction(sp, rng.normal(size=(8, 2)))
    assert _domination_defect(g, sp.partition(2), vnorm) <= 1e-12


def test_domination_collinear_values_touch():
    # f = (g, -g) has ||E f|| equal to E'||f|| wherever E g keeps its sign
    sp = discrete_space(np.full(4, 0.25))
    g = np.array([1.0, 0.5, -0.25, -0.75])
    f = AtomFunction(sp, np.column_stack([g, -g]))
    part = sp.partition(2)  # atoms themselves
    defect = _domination_defect(f, part, VectorNorm("euclidean", 2))
    assert defect == pytest.approx(0.0, abs=1e-15)


# -- one conditioning pass per family --------------------------------------------


def _parent_antiderivative(f):
    """CircleFunction.antiderivative's formula before the stacked kernel."""
    k1 = f.coeffs.shape[1]
    ad = np.zeros((f.npieces, k1 + 1, f.d))
    ad[:, 1:] = f.coeffs / np.arange(1, k1 + 1)[None, :, None]
    vall = np.einsum("pk,pkd->pd", _powers(f.breaks[:-1], k1 + 1), ad)
    valr = np.einsum("pk,pkd->pd", _powers(f.breaks[1:], k1 + 1), ad)
    gains = valr - vall
    offsets = np.concatenate(
        [np.zeros((1, f.d)), np.cumsum(gains, axis=0)[:-1]], axis=0)
    ad[:, 0] += offsets - vall
    return CircleFunction(f.breaks, ad, f.space)


def _parent_cond_exp(f, partition):
    """cond_exp's body before cond_exps, one pair per call."""
    if isinstance(f, AtomFunction):
        sums = [np.matmul(partition.space.weights[atoms][:, None, :],
                          f.values[atoms])[:, 0]
                for atoms in partition.size_groups]
    else:
        bounds = partition.cell_bounds_float()
        sums = [np.diff(_parent_antiderivative(f)._eval_unwrapped(bounds),
                        axis=0)]
    avgs = [s / m[:, None] for s, m in zip(sums, partition.masses)]
    if isinstance(f, AtomFunction):
        out = np.empty_like(f.values)
        for atoms, a in zip(partition.size_groups, avgs):
            out[atoms] = a[:, None, :]
        return AtomFunction(f.space, out)
    return CircleFunction(partition.cell_bounds_float(), avgs[0][:, None],
                          f.space)


def _same_function(a, b):
    if isinstance(a, AtomFunction):
        return type(b) is AtomFunction and _same(a.values, b.values)
    return _same(a.breaks, b.breaks) and _same(a.coeffs, b.coeffs)


def _fresh(f):
    """A copy of f with no cached antiderivative."""
    if isinstance(f, AtomFunction):
        return AtomFunction(f.space, f.values.copy())
    return CircleFunction(f.breaks.copy(), f.coeffs.copy(), f.space)


@st.composite
def _circle_functions(draw):
    """A piecewise polynomial of value dimension 1 to 3 and degree 0 to
    DEGREE_CAP, on breaks with one-ulp pieces and breaks on cell bounds;
    some coefficients are +-0.0, and one piece may be NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True), max_size=6))
    ulp = [np.nextafter(x, 1.0) for x in pts if draw(st.booleans())]
    dyadic = [k / 2 ** j for j, k in draw(st.lists(
        st.integers(1, 16).flatmap(lambda j: st.tuples(
            st.just(j), st.integers(1, 2 ** j - 1))), max_size=3))]
    breaks = np.unique(np.r_[0.0, pts, ulp, dyadic, 1.0])
    shape = (breaks.size - 1, draw(st.integers(1, DEGREE_CAP + 1)),
             draw(st.integers(1, 3)))
    c = rng.uniform(-2.0, 2.0, shape)
    zeros = rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    c[zeros] = np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)[zeros]
    if draw(st.booleans()) and draw(st.booleans()):
        c[draw(st.integers(0, shape[0] - 1))] = np.nan
    return CircleFunction(breaks, c)


@st.composite
def _pair_lists(draw):
    """Pairs of 1 to 4 circle functions (each possibly with a cached
    antiderivative) on levels 0 to 16 in any order, a function repeated
    across pairs, mixed with pairs of atom functions."""
    fns = draw(st.lists(_circle_functions(), min_size=1, max_size=4))
    for f in fns:
        if draw(st.booleans()):
            f.antiderivative()
    sp = discrete_space(np.random.default_rng(len(fns)).uniform(0.1, 1.0, 7))
    atoms = [AtomFunction(sp, np.random.default_rng(k).normal(size=(7, 2)))
             for k in range(2)]
    atoms[1].values[3, 0] = np.nan
    picks = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(fns), st.integers(0, 16).map(
            lambda lvl: make_dyadic_partition(lvl))),
        st.tuples(st.sampled_from(atoms), st.integers(0, 2).map(
            sp.partition))), min_size=1, max_size=8))
    return [f for f, _ in picks], [p for _, p in picks]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_pair_lists())
def test_cond_exps_give_the_bytes_of_one_call_per_pair(pairs):
    fns, parts = pairs
    # the references condition copies, so the cache state under test stays
    ref = [_parent_cond_exp(_fresh(f), p) for f, p in zip(fns, parts)]
    single = [cond_exp(_fresh(f), p) for f, p in zip(fns, parts)]
    got = cond_exps(fns, parts)
    assert len(got) == len(fns)
    for g, a, b in zip(got, ref, single):
        assert _same_function(g, a)
        assert _same_function(g, b)


def test_cond_exps_refuse_unequal_lengths():
    f, part = hat(), make_dyadic_partition(2)
    for fns, parts in (([f, f], [part]), ([f], [part, part]), ([], [part])):
        with pytest.raises(ValueError, match="one partition per function"):
            cond_exps(fns, parts)
    assert cond_exps([], []) == []


@st.composite
def _same_shape_families(draw):
    """1 to 5 functions of one coefficient shape (ragged breaks, +-0.0
    gains, one-piece members)."""
    k1, d = draw(st.integers(1, DEGREE_CAP + 1)), draw(st.integers(1, 3))
    fns = []
    for _ in range(draw(st.integers(1, 5))):
        f = draw(_circle_functions())
        c = np.resize(f.coeffs, (f.npieces, k1, d))
        fns.append(CircleFunction(f.breaks, c))
    return fns


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_same_shape_families())
def test_stacked_antiderivatives_give_the_bytes_of_one_call_each(fns):
    for f in fns:
        assert _same(_fresh(f).antiderivative().coeffs,
                     _parent_antiderivative(f).coeffs)
    # cond_exps makes the missing antiderivatives in one stacked pass and
    # caches them on the functions
    cond_exps(fns, [make_dyadic_partition(1)] * len(fns))
    for f in fns:
        assert _same(f._antideriv.coeffs, _parent_antiderivative(f).coeffs)
    # fields._integral runs the same formula on a stack of scalar owners
    scalar = [CircleFunction(f.breaks, f.coeffs[:, :, :1]) for f in fns]
    want = [_parent_antiderivative(f)._eval_unwrapped(np.array([1.0]))[0, 0]
            for f in scalar]
    assert _same(_integral(_Stack.of(scalar)), np.array(want))


def test_me_process_builds_one_power_table_per_shape(monkeypatch):
    from ergolab.flows import rotation_flow
    from ergolab.processes import me_process

    f = sawtooth(d=2, amplitudes=[1.0, 0.5], phases=[0.0, 0.3])
    filt = Filtration(circle_space(), "decreasing", max_level=4)
    tables, stacks = [], []
    real, real_antiderivative = condexp._powers, condexp._antiderivative

    def tabled(x, k1):
        tables.append((x.size, k1))
        return real(x, k1)

    def integrated(st):
        stacks.append(st.lo.size)
        return real_antiderivative(st)

    monkeypatch.setattr(condexp, "_powers", tabled)
    monkeypatch.setattr(condexp, "_antiderivative", integrated)
    grid = me_process(f, rotation_flow(0.5 * (np.sqrt(5.0) - 1.0)), filt,
                      [1.0, 2.5, 4.0, 9.0], [0.0, 1.0, 2.0, 3.5])
    monkeypatch.undo()
    (shape,) = {avg.coeffs.shape[1:] for avg in grid.inner.values()}
    # one stacked antiderivative of all averages, then one power table for
    # all of them, at the bounds of the finest level (4)
    assert stacks == [sum(avg.npieces for avg in grid.inner.values())]
    assert tables == [(2 ** 4 + 1, shape[0] + 1)]
    for (t, k), fn in grid.table.items():
        assert _same_function(fn, _parent_cond_exp(
            grid.inner[t], filt.partition_at_level(k)))
