from fractions import Fraction

import pytest

from symgen.partitions import (
    EMPTY,
    Partition,
    eps_of,
    is_rectangular,
    partitions_of,
    union,
)
from symgen import tabloids
from symgen.symfunc import sym, to_basis
from symgen.tabloids import DominoTabloid, SizeMismatch, enumerate_tabloids, w

from exact_reference import w_by_tuples


def test_enumerate_examples():
    one = enumerate_tabloids((2,), (1, 1))
    assert [t.rows for t in one] == [((1, 1),)]
    hook = enumerate_tabloids((2, 1), (2, 1))
    assert [t.rows for t in hook] == [((2,), (1,))]
    square = enumerate_tabloids((2, 2), (2, 1, 1))
    assert len(square) == 2
    assert sorted(t.rows for t in square) == [((1, 1), (2,)), ((2,), (1, 1))]
    assert all(t.weight == 2 for t in square)


def test_w_examples():
    for n in range(1, 9):
        assert w((n,), [1] * n) == 1
        assert w((n,), (n,)) == n
    assert w((2, 2), (2, 1, 1)) == 4
    assert w(EMPTY, EMPTY) == 1  # empty product


def test_w_matches_the_tuple_reference():
    # the memo keyed by multiplicity codes against the DP on sorted tuples
    for n in range(13):
        for shape in partitions_of(n):
            for typ in partitions_of(n):
                assert w(shape, typ) == w_by_tuples(shape, typ), (shape, typ)


def test_w_is_total_where_a_part_repeats_256_times():
    # a multiplicity code holds at most 255 copies of a part; w takes wider
    # slots for such a type
    assert w((300,), (1,) * 300) == 1
    assert w((150, 150), (1,) * 300) == 1
    # one 2 among 298 ones in a row: weight 2 when it leads, else 1
    assert w((300,), (2,) + (1,) * 298) == 2 + 298 == w_by_tuples((300,), (2,) + (1,) * 298)
    assert [t.rows for t in enumerate_tabloids((258,), (1,) * 258)] == [((1,) * 258,)]


def test_dominoes_are_removed_by_code():
    # removing a domino subtracts one count from its slot of the code; no
    # tuple is copied to remove it
    assert not hasattr(tabloids, "_remove")


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        w((2, 1), (2,))
    with pytest.raises(SizeMismatch):
        enumerate_tabloids((2,), (1,))


def test_w_equals_total_weight_of_enumeration():
    for n in range(8):
        for shape in partitions_of(n):
            for typ in partitions_of(n):
                tabloids = enumerate_tabloids(shape, typ)
                assert len(set(tabloids)) == len(tabloids)
                assert w(shape, typ) == sum(t.weight for t in tabloids)


def test_single_row_weight_at_least_n_for_non_rectangular():
    for n in range(1, 11):
        for lam in partitions_of(n):
            if not is_rectangular(lam):
                assert w((n,), lam) >= n


def test_weight_one_characterizes_single_column():
    # scoped to pairs admitting at least one tabloid
    for n in range(1, 10):
        ones = Partition([1] * n)
        for xi in partitions_of(n):
            for lam in partitions_of(n):
                value = w(xi, lam)
                if value >= 1:
                    assert (value == 1) == (lam == ones)


def test_union_weight_supermultiplicative():
    for a in range(7):
        for b in range(7):
            for xi in partitions_of(a):
                for lam in partitions_of(a):
                    w1 = w(xi, lam)
                    if not w1:
                        continue
                    for eta in partitions_of(b):
                        for mu in partitions_of(b):
                            w2 = w(eta, mu)
                            if not w2:
                                continue
                            assert w(union(xi, eta), union(lam, mu)) >= w1 * w2


def test_power_sum_to_complete_transition_matches_tabloids():
    # the matrix [eps_mu eps_lam w(lam, mu)] must be the h-expansion of p_lam,
    # where the h-expansion is computed by inverting the Newton recurrence
    for n in range(1, 9):
        for lam in partitions_of(n):
            expansion = to_basis(sym("p", lam), "h").coeffs
            for mu in partitions_of(n):
                expected = Fraction(eps_of(mu) * eps_of(lam) * w(lam, mu))
                assert expansion.get(mu, Fraction(0)) == expected


def test_render():
    tab = DominoTabloid(Partition((2, 2)), ((2,), (1, 1)))
    assert tab.render() == "[2][1,1] weight=2"
