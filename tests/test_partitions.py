from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgen.partitions import (
    EMPTY,
    NotARibbon,
    Partition,
    SkewPartition,
    code,
    column_separated,
    contains,
    decode,
    difference,
    eps_of,
    format_partition,
    is_hook,
    is_rectangular,
    is_ribbon,
    parse_partition,
    parse_skew,
    partition_count,
    partitions_of,
    refines,
    ribbon_height,
    stats,
    union,
    z_of,
    z_reciprocal_sum,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    assert Partition((3, 0, 0)) == Partition((3,))  # trailing zeros dropped


def test_partition_rejects_interior_zeros():
    for parts in ((2, 0, 1), (0, 1), (3, 1, 0, 1, 0)):
        with pytest.raises(ValueError, match="parts not weakly decreasing"):
            Partition(parts)
    assert Partition((2, 1, 0)) == Partition(["2", "1"]) == (2, 1)
    assert Partition((0, 0)) == EMPTY


def test_partition_of_a_partition_is_itself():
    # a Partition is already valid: it is neither re-checked nor re-wrapped
    lam = Partition((3, 1, 1))
    assert Partition(lam) is lam
    for mu in partitions_of(5):
        assert Partition(mu) is mu
    # a plain tuple equal to it is validated and wrapped anew
    assert type(Partition(tuple(lam))) is Partition and Partition(tuple(lam)) == lam


def test_enumeration_order_and_counts():
    assert [tuple(p) for p in partitions_of(0)] == [()]
    assert [tuple(p) for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert len(partitions_of(4)) == 5
    # p(8) = 22, counted independently by the pentagonal-number recurrence
    assert len(partitions_of(8)) == 22 == partition_count(8)
    for n in range(13):
        assert len(partitions_of(n)) == partition_count(n)
        assert len(set(partitions_of(n))) == len(partitions_of(n))
        # built without validation, each is what validation would build
        for lam in partitions_of(n):
            assert type(lam) is Partition and Partition(tuple(lam)) == lam


def test_stats_examples():
    ones = stats(Partition((1, 1, 1)))
    assert (ones.z, ones.eps, ones.length) == (6, 1, 3)
    for n in range(1, 8):
        row = stats(Partition((n,)))
        assert (row.z, row.eps) == (n, (-1) ** (n - 1))
    st = stats(Partition((2, 1)))
    assert (st.z, st.eps, st.n_lambda, st.n_lambda_conj) == (2, -1, 1, 1)
    assert st.mult == {2: 1, 1: 1}


def test_n_lambda_conjugate_is_n_of_conjugate():
    for n in range(8):
        for lam in partitions_of(n):
            assert stats(lam).n_lambda_conj == stats(lam.conjugate()).n_lambda


def test_refines_examples():
    assert refines(Partition((2, 1)), 3)
    assert not refines(Partition((2, 2)), 3)
    assert refines(Partition((4, 3, 1)), 5)


def test_refines_matches_exhaustive_subsets():
    for n in range(13):
        for lam in partitions_of(n):
            sums = {
                sum(combo)
                for r in range(len(lam) + 1)
                for combo in combinations(lam, r)
            }
            for k in range(n + 2):
                assert refines(lam, k) == (k in sums)


def test_hook_rectangular_union_contains():
    assert is_hook(Partition((3, 1, 1)))
    assert not is_hook(EMPTY)
    assert union(Partition((2, 1)), Partition((3, 1))) == Partition((3, 2, 1, 1))
    assert is_rectangular(Partition((2, 2, 2)))
    assert not is_rectangular(Partition((2, 1)))
    assert not is_rectangular(EMPTY)
    assert contains(Partition((2, 1)), Partition((3, 1)))
    assert not contains(Partition((2, 2)), Partition((3, 1)))
    assert contains(EMPTY, EMPTY)


def test_difference():
    assert difference(Partition((3, 2, 1, 1)), Partition((2, 1))) == Partition((3, 1))
    # a repeated part is removed once per occurrence in mu
    assert difference(Partition((2, 2, 2)), Partition((2, 2))) == Partition((2,))
    assert difference(Partition((2, 2)), Partition((2, 2, 2))) is None
    # a part of mu missing from lam
    assert difference(Partition((3, 1)), Partition((2,))) is None
    assert difference(Partition((3, 1)), EMPTY) == Partition((3, 1))
    assert difference(EMPTY, EMPTY) == EMPTY
    assert difference(EMPTY, Partition((1,))) is None


_parts = st.lists(st.integers(1, 4), max_size=6).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


@given(_parts, _parts)
def test_union_is_the_validated_merge(a, b):
    merged = union(a, b)
    assert type(merged) is Partition
    assert merged == Partition(sorted(a + b, reverse=True))


@given(_parts, _parts)
def test_code_of_a_union_is_the_sum_of_codes(a, b):
    assert code(union(a, b)) == code(a) + code(b)
    assert decode(code(a)) == a
    assert type(decode(code(a))) is Partition


def test_code_refuses_a_multiplicity_of_256():
    # slot p holds m_p(lam) in 8 bits: 255 copies fit, a 256th never
    # carries into the slot of p + 1
    assert code((2,) * 255) == 255 << 16
    assert decode(code((3,) + (2,) * 255)) == Partition((3,) + (2,) * 255)
    with pytest.raises(ValueError, match="more than 255"):
        code((2,) * 256)
    with pytest.raises(ValueError, match="more than 255"):
        code((5,) + (1,) * 256)
    assert code((2,) * 128 + (1,) * 128) == (128 << 16) + (128 << 8)


def test_z_of_matches_stats():
    for n in range(12):
        for lam in partitions_of(n):
            assert z_of(lam) == stats(lam).z
    assert z_of(Partition((3, 3, 1, 1, 1))) == 3**2 * 2 * 1**3 * 6


@given(_parts, _parts)
def test_difference_inverts_union(a, b):
    assert difference(union(a, b), b) == a
    sub_multiset = all(b.count(part) <= a.count(part) for part in set(b))
    assert (difference(a, b) is None) == (not sub_multiset)


def test_ribbon_examples():
    assert is_ribbon(SkewPartition(Partition((2, 2)), Partition((1,))))
    assert ribbon_height(SkewPartition(Partition((2, 2)), Partition((1,)))) == 1
    assert not is_ribbon(SkewPartition(Partition((2, 2)), EMPTY))  # 2x2 block
    assert not is_ribbon(SkewPartition(Partition((3, 1)), Partition((1,))))  # split
    # non-contained pairs are legal data but never ribbons
    assert not is_ribbon(SkewPartition(Partition((1, 1)), Partition((2,))))
    with pytest.raises(NotARibbon):
        ribbon_height(SkewPartition(Partition((2, 2)), EMPTY))


def test_column_separated_examples():
    assert column_separated(SkewPartition(Partition((3, 1)), Partition((2,))))
    assert not column_separated(SkewPartition(Partition((2, 1)), EMPTY))
    assert not column_separated(SkewPartition(Partition((2, 2)), Partition((1,))))
    with pytest.raises(ValueError):
        column_separated(SkewPartition(Partition((1,)), Partition((2,))))


def test_z_reciprocal_sum_is_one():
    for n in range(11):
        assert z_reciprocal_sum(n) == Fraction(1)


def test_eps_multiplicative_under_union():
    for a in range(6):
        for b in range(6):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    assert eps_of(union(lam, mu)) == eps_of(lam) * eps_of(mu)


def test_eps_after_adjoining_one_row():
    for m in range(6):
        for xi in partitions_of(m):
            for n in range(1, 6):
                assert eps_of(union(xi, (n,))) == (-1) ** (n - 1) * eps_of(xi)


def test_hook_iff_straight_shape_is_ribbon():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert is_hook(lam) == is_ribbon(SkewPartition(lam, EMPTY))


def test_text_format_round_trip():
    assert format_partition(Partition((3, 1, 1))) == "[3,1,1]"
    assert format_partition(EMPTY) == "[]"
    assert parse_partition("[3, 1 ,1]") == Partition((3, 1, 1))
    assert parse_partition("[]") == EMPTY
    assert parse_partition("3,1,1") == Partition((3, 1, 1))
    sp = parse_skew("[3,1]/[1]")
    assert sp == SkewPartition(Partition((3, 1)), Partition((1,)))
    assert str(sp) == "[3,1]/[1]"
    for n in range(7):
        for lam in partitions_of(n):
            assert parse_partition(format_partition(lam)) == lam
