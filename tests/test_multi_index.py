import itertools
from math import comb

import pytest

from sgfem.multi_index import build_multi_index_set


def brute_force_set(dims, degree):
    """Independent enumeration: all tuples with total degree <= degree."""
    return {t for t in itertools.product(range(degree + 1), repeat=dims)
            if sum(t) <= degree}


@pytest.mark.parametrize("dims,degree", [(1, 0), (1, 5), (2, 2), (3, 4), (4, 4), (6, 3)])
def test_cardinality_and_content(dims, degree):
    s = build_multi_index_set(dims, degree)
    assert len(s) == comb(dims + degree, degree)
    assert set(s.indices) == brute_force_set(dims, degree)


def test_documented_sizes():
    assert len(build_multi_index_set(4, 4)) == 70
    assert build_multi_index_set(1, 0).indices == ((0,),)


def test_n2_p2_layout():
    s = build_multi_index_set(2, 2)
    assert len(s) == 6
    assert s.degree_offsets[:3] == (0, 1, 3)
    assert s.indices[0] == (0, 0)
    # reverse-lexicographic inside each degree
    assert s.indices[1:3] == ((1, 0), (0, 1))
    assert s.indices[3:] == ((2, 0), (1, 1), (0, 2))


def test_graded_ordering():
    s = build_multi_index_set(3, 5)
    degs = s.degrees()
    assert degs == sorted(degs)
    for l in range(6):
        level = s.indices[s.degree_offsets[l]:s.degree_offsets[l + 1]]
        assert all(sum(t) == l for t in level)
        assert list(level) == sorted(level, reverse=True)


@pytest.mark.parametrize("dims,degree", [(2, 3), (4, 4), (5, 2)])
def test_prefix_property(dims, degree):
    full = build_multi_index_set(dims, degree)
    sub = build_multi_index_set(dims, degree - 1)
    assert full.indices[:len(sub)] == sub.indices


def test_first_order_positions():
    s = build_multi_index_set(4, 3)
    units = [tuple(1 if i == d - 1 else 0 for i in range(4)) for d in range(1, 5)]
    # first-order indices are consecutive, in dimension order
    assert [s.indices.index(unit) for unit in units] == [1, 2, 3, 4]


def test_position_roundtrip():
    s = build_multi_index_set(3, 3)
    for i, t in enumerate(s.indices):
        assert s.indices.index(t) == i


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_multi_index_set(0, 3)
    with pytest.raises(ValueError):
        build_multi_index_set(2, -1)
    with pytest.raises(ValueError):
        build_multi_index_set(40, 40)   # comb(80, 40) overflows any index range


def test_hierarchy_dims():
    # the sizes of the nested leading blocks are degree_offsets[1:]
    for (dims, degree), sizes in {(4, 4): [1, 5, 15, 35, 70], (1, 3): [1, 2, 3, 4],
                                  (4, 1): [1, 5]}.items():
        assert list(build_multi_index_set(dims, degree).degree_offsets[1:]) == sizes
    with pytest.raises(ValueError):
        build_multi_index_set(0, 1)


def test_hierarchy_matches_offsets():
    # the nested leading blocks hold the indices of total degree <= l
    s = build_multi_index_set(3, 4)
    assert list(s.degree_offsets[1:]) == [comb(3 + l, l) for l in range(5)]
