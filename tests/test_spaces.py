from fractions import Fraction

import numpy as np
import pytest

from ergolab.flows import rotation_flow, step_flow
from ergolab.functions import AtomFunction, CircleFunction
from ergolab.inequalities import random_submartingale_family
from ergolab.spaces import (Atoms, Circle, Filtration, Partition, Product,
                            VectorNorm, circle_space, discrete_space,
                            make_dyadic_partition, product_space)


def test_circle_space_basics():
    sp = circle_space()
    assert isinstance(sp, Circle) and sp.kind == "circle"
    assert sp.mass == 1.0


def test_discrete_space_weights():
    sp = discrete_space(np.array([0.25, 0.25, 0.5]))
    assert isinstance(sp, Atoms) and sp.kind == "discrete"
    assert sp.natoms == 3
    assert sp.mass == pytest.approx(1.0)


def test_discrete_space_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        discrete_space(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        discrete_space(np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("build", [
    lambda w: discrete_space(np.array(w)),
    lambda w: product_space(2, np.array(w)),
])
def test_spaces_reject_nan_weights(build):
    # NaN <= 0 is False, so a NaN weight must fail the positivity rule itself
    for w in ([np.nan, 0.5], [1.0, np.nan]):
        with pytest.raises(ValueError, match="strictly positive"):
            build(w)


@pytest.mark.parametrize("build", [
    lambda w: discrete_space(np.array(w)),
    lambda w: product_space(2, np.array(w)),
])
def test_spaces_reject_infinite_weights(build):
    # inf > 0 holds, so an infinite weight must fail the rule on its own;
    # it would give the space an infinite mass
    for w in ([np.inf, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            build(w)


def test_discrete_space_carries_total_mass():
    # the mass is whatever the weights sum to, not forced to 1
    assert discrete_space(np.array([0.7, 0.7])).mass == pytest.approx(1.4)


def test_product_space_layout():
    sp = product_space(4, np.array([0.6, 0.4]))
    assert sp.natoms == 8
    assert sp.cyclic_size == 4
    # atom (i, j) sits at i * m2 + j with weight factor_weights[j] / m1
    w = np.asarray(sp.weights)
    assert w[0] == pytest.approx(0.15)
    assert w[1] == pytest.approx(0.1)
    assert w.sum() == pytest.approx(1.0)
    # the shift moves the cyclic coordinate: (i, j) -> (i + 1 mod 4, j)
    assert sp.shift_perm().tolist() == [2, 3, 4, 5, 6, 7, 0, 1]
    # a one-atom cyclic factor has the factor's weights, yet is no Atoms
    # space, and neither are its partitions
    one = product_space(1, np.array([0.6, 0.4]))
    assert isinstance(one, Product) and one.kind == "product"
    atoms = discrete_space(one.weights)
    assert np.array_equal(one.weights, atoms.weights)
    assert one != atoms and atoms != one
    assert one.partition(1) != atoms.partition(1)
    assert one == product_space(1, np.array([0.6, 0.4]))


def test_dyadic_partition_bounds_are_exact_floats():
    part = make_dyadic_partition(3)
    bounds = part.cell_bounds_float()
    assert list(bounds) == [k / 8 for k in range(9)]


def test_dyadic_partition_measures():
    part = make_dyadic_partition(5)
    assert part.ncells == 32
    assert np.allclose(np.diff(part.cell_bounds_float()), 1 / 32)


def test_block_partition_on_discrete():
    sp = discrete_space(np.full(8, 0.125))
    part = sp.partition(2)
    assert part.ncells == 4
    part0 = sp.partition(0)
    assert part0.ncells == 1


def test_factor_partition_groups_by_second_coordinate():
    sp = product_space(4, np.array([0.6, 0.4]))
    part = sp.partition(1)
    assert part.ncells == 2
    # atom (i, j) sits at i * 2 + j and takes the label of factor atom j
    assert part.cell_of.tolist() == [0, 1] * 4
    # one size group: two cells of four atoms each, in increasing order
    assert [g.tolist() for g in part.size_groups] == [[[0, 2, 4, 6],
                                                       [1, 3, 5, 7]]]


def test_size_groups_hold_every_cell_once_by_size():
    sp = discrete_space(np.full(7, 1 / 7))
    part = Partition(sp, cell_of=np.array([2, 0, 2, 1, 0, 2, 3]))
    assert part.ncells == 4
    assert [g.tolist() for g in part.size_groups] == [[[3], [6]],
                                                      [[1, 4]],
                                                      [[0, 2, 5]]]


@pytest.mark.parametrize("labels, message", [
    ([0, 1, 1], "one integer cell label per atom"),
    ([0.0, 1.0, 1.0, 0.0], "one integer cell label per atom"),
    ([0, -1, 1, 0], "no gaps"),
    ([0, 2, 2, 0], "no gaps"),
], ids=["wrong_length", "float_labels", "negative_label", "gap"])
def test_partition_label_rules(labels, message):
    # a wrong length, a non-integer array, a negative label, a gap
    with pytest.raises(ValueError, match=message):
        Partition(discrete_space(np.full(4, 0.25)), cell_of=np.array(labels))


def test_partition_at_level_dispatch():
    # each space class builds its own level-k partition
    assert circle_space().partition(2).ncells == 4
    assert discrete_space(np.full(4, 0.25)).partition(1).ncells == 2
    assert product_space(4, np.array([0.5, 0.5])).partition(1).ncells == 2


def test_partition_refines():
    # a partition refines another when it keeps every boundary of it
    fine = set(make_dyadic_partition(4).cell_bounds_float().tolist())
    coarse = set(make_dyadic_partition(2).cell_bounds_float().tolist())
    assert coarse <= fine
    assert not fine <= coarse


_SPACES = {
    "circle": (circle_space, 30),
    "discrete57": (lambda: discrete_space(np.linspace(0.5, 1.5, 57)), 5),
    "product3x11": (lambda: product_space(3, np.linspace(0.1, 0.3, 11)), 3),
    "discrete6": (lambda: discrete_space(np.full(6, 1 / 6)), 2),
    "discrete1": (lambda: discrete_space([1.0]), 0),
    "product8x2": (lambda: product_space(8, np.array([0.5, 0.5])), 1),
}


@pytest.mark.parametrize("name", list(_SPACES))
def test_consecutive_levels_nest(name):
    # every space class builds 2**k nested cells at each level k up to its
    # max_level, floor(log2) of the factor atoms on atomic spaces; circle
    # levels stop at 16, as a level-30 partition holds 2**30 + 1 bounds
    build, max_level = _SPACES[name]
    space = build()
    assert space.max_level == max_level
    parts = [space.partition(k) for k in range(min(max_level, 16) + 1)]
    others = [other() for key, (other, _) in _SPACES.items() if key != name]
    for k, part in enumerate(parts):
        assert part.ncells == 2 ** k
        # equal to the same level on an equal space, and to nothing else
        assert part == build().partition(k)
        assert all(part != other.partition(k) for other in others)
        if isinstance(space, Circle):
            bounds = part.cell_bounds_float()
            assert not bounds.flags.writeable
            assert bounds.tolist() == [float(Fraction(j, 2 ** k))
                                       for j in range(2 ** k + 1)]
    for coarse, fine in zip(parts, parts[1:]):
        assert fine != coarse
        if isinstance(space, Circle):
            # every coarse bound is a fine bound
            assert np.array_equal(fine.cell_bounds_float()[::2],
                                  coarse.cell_bounds_float())
        else:
            # each fine cell lies in one coarse cell: its label fixes the
            # coarse label
            pairs = np.unique(np.c_[fine.cell_of, coarse.cell_of], axis=0)
            assert len(pairs) == fine.ncells
    # atomic levels past max_level leave every factor atom its own block
    if not isinstance(space, Circle):
        assert space.partition(max_level + 3).ncells == \
            space.partition(max_level + 1).ncells


@pytest.mark.parametrize("name", ["circle", "discrete57", "product3x11"])
def test_levels_must_be_integers(name):
    # a float level would build non-dyadic circle cells; a float max_level
    # was once floored
    space = _SPACES[name][0]()
    for level in (2.5, 1.0, "1"):
        with pytest.raises(ValueError, match="level must be an integer"):
            space.partition(level)
    with pytest.raises(ValueError, match="max_level must be an integer"):
        Filtration(space, "increasing", 2.7)
    assert space.partition(np.int64(1)) == space.partition(1)
    assert Filtration(space, "increasing", np.int64(2)).max_level == 2


def test_cyclic_size_must_be_an_integer():
    # 2.7 was once floored to a 2 x 2 product
    for size in (2.7, 2.0, "2"):
        with pytest.raises(ValueError, match="cyclic_size must be an integer"):
            product_space(size, [0.5, 0.5])
    assert product_space(np.int64(2), [0.5, 0.5]) == product_space(2, [0.5, 0.5])


def test_levels_outside_the_range_are_rejected():
    with pytest.raises(ValueError, match="measure underflow"):
        circle_space().partition(31)
    with pytest.raises(ValueError, match="measure underflow"):
        make_dyadic_partition(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        discrete_space(np.full(4, 0.25)).partition(-1)
    with pytest.raises(ValueError, match=r"max_level must lie in \[0, 2\]"):
        Filtration(discrete_space(np.full(4, 0.25)), "increasing", 3)


_ATOMS = discrete_space(np.full(4, 0.25))


@pytest.mark.parametrize("call, message", [
    (lambda: rotation_flow(0.3, _ATOMS), "rotation flows live on the circle"),
    (lambda: step_flow(circle_space(), [0]),
     "step flows need an atomic space"),
    (lambda: CircleFunction([0.0, 1.0], np.zeros((1, 1, 1)), _ATOMS),
     "CircleFunction lives on the circle"),
    (lambda: AtomFunction(circle_space(), np.zeros(4)),
     "AtomFunction needs an atomic space"),
    (lambda: random_submartingale_family(
        Filtration(_ATOMS, "increasing", 1), [0.0, 1.0], 2,
        np.random.default_rng(0)),
     "random families are generated on circle filtrations"),
    (lambda: make_dyadic_partition(1, _ATOMS),
     "dyadic partitions live on the circle"),
], ids=["rotation", "step", "circle_function", "atom_function",
        "random_family", "dyadic_partition"])
def test_guards_reject_the_wrong_space_class(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("direction,expected", [
    ("increasing", [0, 1, 2, 3, 3, 3]),
    ("decreasing", [3, 2, 1, 0, 0, 0]),
])
def test_filtration_level_map(direction, expected):
    filt = Filtration(circle_space(), direction, 3)
    got = [filt.level(s) for s in (0.0, 1.0, 2.0, 3.0, 4.0, 7.5)]
    assert got == expected


def test_filtration_fractional_parameter_floors():
    filt = Filtration(circle_space(), "increasing", 5)
    assert filt.level(2.999) == 2
    assert filt.partition(2.999).ncells == 4


@pytest.mark.parametrize("direction", ["increasing", "decreasing"])
@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, -0.5])
def test_filtration_refuses_a_non_finite_or_negative_parameter(direction, s):
    filt = Filtration(circle_space(), direction, 3)
    with pytest.raises(ValueError, match=rf"s = {s} must be finite and "
                                         "nonnegative"):
        filt.level(s)
    with pytest.raises(ValueError, match=rf"s = {s} must be finite"):
        filt.partition(s)


def test_filtration_terminal():
    inc = Filtration(circle_space(), "increasing", 4)
    assert inc.terminal().ncells == 16
    dec = Filtration(circle_space(), "decreasing", 4)
    assert dec.terminal().ncells == 1


def test_filtration_rejects_unknown_direction():
    with pytest.raises(ValueError):
        Filtration(circle_space(), "sideways", 3)


def test_vector_norm_selectors_match_numpy():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(7, 3))
    assert np.allclose(VectorNorm("euclidean", 3)(v),
                       np.linalg.norm(v, axis=-1))
    assert np.allclose(VectorNorm("max", 3)(v), np.abs(v).max(axis=-1))
    assert np.allclose(VectorNorm("sum", 3)(v), np.abs(v).sum(axis=-1))


def test_vector_norm_dim_mismatch():
    with pytest.raises(ValueError):
        VectorNorm("euclidean", 2)(np.zeros((4, 3)))
