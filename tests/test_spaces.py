import numpy as np
import pytest

from ergolab.spaces import (Filtration, Partition, VectorNorm, circle_space,
                            discrete_space, make_block_partition,
                            make_dyadic_partition, make_factor_partition,
                            max_partition_level, partition_at_level,
                            product_space)


def test_circle_space_basics():
    sp = circle_space()
    assert sp.kind == "circle"
    assert sp.mass == 1.0


def test_discrete_space_weights():
    sp = discrete_space(np.array([0.25, 0.25, 0.5]))
    assert sp.kind == "discrete"
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
    part = make_block_partition(sp, 2)
    assert part.ncells == 4
    part0 = make_block_partition(sp, 0)
    assert part0.ncells == 1


def test_factor_partition_groups_by_second_coordinate():
    sp = product_space(4, np.array([0.6, 0.4]))
    part = make_factor_partition(sp, 1)
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


def test_max_partition_level():
    assert max_partition_level(discrete_space(np.full(8, 0.125))) == 3
    assert max_partition_level(discrete_space(np.full(6, 1 / 6))) == 2
    assert max_partition_level(product_space(8, np.array([0.5, 0.5]))) == 1
    assert max_partition_level(circle_space()) >= 12


def test_partition_refines():
    # a partition refines another when it keeps every boundary of it
    fine = set(make_dyadic_partition(4).boundaries)
    coarse = set(make_dyadic_partition(2).boundaries)
    assert coarse <= fine
    assert not fine <= coarse


@pytest.mark.parametrize("space", [
    circle_space(),
    discrete_space(np.linspace(0.5, 1.5, 57)),
    product_space(3, np.linspace(0.1, 0.3, 11)),
], ids=["circle", "discrete57", "product3x11"])
def test_consecutive_levels_nest(space):
    top = 8 if space.kind == "circle" else max_partition_level(space)
    parts = [partition_at_level(space, k) for k in range(top + 1)]
    assert parts[0].ncells == 1
    for k, (coarse, fine) in enumerate(zip(parts, parts[1:])):
        assert fine.ncells > coarse.ncells
        if space.kind == "circle":
            assert set(coarse.boundaries) <= set(fine.boundaries)
            assert np.all(np.diff(fine.cell_bounds_float()) == 2.0 ** -(k + 1))
        else:
            # each fine cell lies in one coarse cell: its label fixes the
            # coarse label
            pairs = np.unique(np.c_[fine.cell_of, coarse.cell_of], axis=0)
            assert len(pairs) == fine.ncells


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


def test_partition_at_level_dispatch():
    assert partition_at_level(circle_space(), 2).ncells == 4
    assert partition_at_level(discrete_space(np.full(4, 0.25)), 1).ncells == 2
    assert partition_at_level(product_space(4, np.array([0.5, 0.5])), 1).ncells == 2
