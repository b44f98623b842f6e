from fractions import Fraction

import pytest

from symgen.partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    is_hook,
    is_ribbon,
    partitions_of,
    ribbon_height,
    stats,
)
from symgen.symfunc import (
    BASES,
    SymFunc,
    dominance_leq,
    dominance_lt,
    hall_inner,
    multiply,
    omega,
    parse_symfunc,
    pn_perp,
    render_symfunc,
    skew,
    skew_monomial_pn_inner,
    skew_monomial_weight_sum,
    skew_p,
    sym,
    to_basis,
)
from symgen.tabloids import SizeMismatch

from exact_reference import jacobi_trudi_unpruned, newton_row


def P(*parts):
    return Partition(parts)


def F(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_p2_in_h_basis():
    assert to_basis(sym("p", (2,)), "h").coeffs == {P(2): F(2), P(1, 1): F(-1)}


def test_schur_21_in_h_basis():
    assert to_basis(sym("s", (2, 1)), "h").coeffs == {P(2, 1): F(1), P(3): F(-1)}


def test_m21_in_p_basis():
    assert to_basis(sym("m", (2, 1)), "p").coeffs == {P(2, 1): F(1), P(3): F(-1)}
    # hand check of the inversion: p_1 p_2 = m_(2,1) + m_(3)
    prod = to_basis(multiply(sym("p", (1,)), sym("p", (2,))), "m")
    assert prod.coeffs == {P(2, 1): F(1), P(3): F(1)}


def test_definitional_identities():
    for n in range(1, 7):
        # h_n is the sum of all monomials of degree n
        h_n = to_basis(sym("h", (n,)), "m")
        assert h_n.coeffs == {lam: F(1) for lam in partitions_of(n)}
        # e_n is the single-column monomial, p_n the single-row one
        assert to_basis(sym("e", (n,)), "m").coeffs == {P(*[1] * n): F(1)}
        assert to_basis(sym("p", (n,)), "m").coeffs == {P(n): F(1)}


def test_round_trips_all_bases():
    for n in range(6):
        for lam in partitions_of(n):
            for src in BASES:
                x = sym(src, lam)
                for dst in BASES:
                    assert to_basis(to_basis(x, dst), src) == x


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_multiply_examples():
    assert multiply(sym("p", (1,)), sym("p", (2,))).coeffs == {P(2, 1): F(1)}
    h11 = to_basis(multiply(sym("h", (1,)), sym("h", (1,))), "h")
    assert h11.coeffs == {P(1, 1): F(1)}
    mm = to_basis(multiply(sym("m", (1,)), sym("m", (1,))), "m")
    assert mm.coeffs == {P(2): F(1), P(1, 1): F(2)}


def test_multiply_commutative_associative():
    a, b, c = sym("m", (2, 1)), sym("h", (2,)), sym("e", (1, 1))
    ab = multiply(a, b)
    assert ab == multiply(b, a)
    assert multiply(ab, c) == multiply(a, multiply(b, c))


# ---------------------------------------------------------------------------
# the Hall form
# ---------------------------------------------------------------------------

def test_hall_inner_examples():
    assert hall_inner(sym("h", (2, 1)), sym("m", (2, 1))) == 1
    assert hall_inner(sym("p", (2, 1)), sym("p", (2, 1))) == 2
    assert hall_inner(sym("m", (1, 1)), sym("p", (2,))) == -1


def test_dual_bases_up_to_degree_8():
    for n in range(9):
        for lam in partitions_of(n):
            h_lam = sym("h", lam)
            for mu in partitions_of(n):
                assert hall_inner(h_lam, sym("m", mu)) == (1 if lam == mu else 0)


def test_power_sums_orthogonal():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                want = F(stats(lam).z) if lam == mu else F(0)
                assert hall_inner(sym("p", lam), sym("p", mu)) == want


def test_degree_mismatch_pairs_to_zero():
    assert hall_inner(sym("h", (2,)), sym("m", (1,))) == 0


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_examples():
    assert to_basis(omega(sym("h", (2,))), "e").coeffs == {P(2): F(1)}
    f21 = to_basis(omega(sym("m", (2, 1))), "f")
    assert f21.coeffs == {P(2, 1): F(1)}


def test_omega_involution_and_isometry():
    for n in range(7):
        for lam in partitions_of(n):
            for basis in ("m", "h", "s"):
                x = sym(basis, lam)
                assert to_basis(omega(omega(x)), basis) == x
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                x, y = sym("m", lam), sym("h", mu)
                assert hall_inner(omega(x), omega(y)) == hall_inner(x, y)


def test_forgotten_is_omega_of_monomial():
    for n in range(6):
        for lam in partitions_of(n):
            assert to_basis(omega(sym("m", lam)), "f") == sym("f", lam)


# ---------------------------------------------------------------------------
# pn_perp
# ---------------------------------------------------------------------------

def test_pn_perp_examples():
    assert pn_perp(sym("h", (2,)), 2).coeffs == {EMPTY: F(1)}
    assert pn_perp(sym("h", (2, 1)), 2).coeffs == {P(1): F(1)}
    assert pn_perp(sym("h", (1, 1)), 2).is_zero()


def test_pn_perp_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        pn_perp(sym("h", (2,)), 0)


def test_skew_p_mixed_degrees():
    # p_2^perp (p_2 p_1 + p_2) = 2 p_1 + 2 under the Hall form
    xp = {P(2, 1): F(1), P(2): F(1)}
    yp = {P(2): F(1)}
    assert skew_p(xp, yp) == {P(1): F(2), EMPTY: F(2)}
    # (p_{2,1} + p_2)^perp p_2: only p_2 acts; p_2^perp p_1 = 0
    assert skew_p(yp, xp) == {EMPTY: F(2)}
    assert skew_p({P(1): F(1)}, yp) == {}


def test_pn_perp_adjoint_identity():
    # <p_n^perp(x), y> = <x, p_n y> for all degrees <= 7
    for d in range(1, 8):
        for n in range(1, d + 1):
            for lam in partitions_of(d):
                x = sym("h", lam)
                left = pn_perp(x, n)
                for mu in partitions_of(d - n):
                    y = sym("m", mu)
                    assert hall_inner(left, y) == hall_inner(
                        x, multiply(sym("p", (n,)), y)
                    )


# ---------------------------------------------------------------------------
# skewing
# ---------------------------------------------------------------------------

def test_skew_examples():
    sk = skew("h", (2, 1), (1,))
    assert hall_inner(sk, sym("p", (2,))) == 1
    sk_s = skew("s", (2, 2), (1,))
    assert hall_inner(sk_s, sym("p", (3,))) == -1
    for n in range(5):
        for lam in partitions_of(n):
            assert to_basis(skew("m", lam, EMPTY), "m") == sym("m", lam)
    # negative-degree pairs give the zero element
    assert skew("h", (1,), (2,)).is_zero()


def _assert_skew_adjoint(family, size):
    for lam in partitions_of(size):
        for m in range(size + 1):
            for mu in partitions_of(m):
                lhs = skew(family, lam, mu)
                u_lam, u_mu = sym(family, lam), sym(family, mu)
                for nu in partitions_of(size - m):
                    f = sym("m", nu)
                    assert hall_inner(lhs, f) == hall_inner(
                        u_lam, multiply(u_mu, f)
                    )


def test_skew_defining_adjoint_identity():
    # <u_{lam/mu}, f> = <u_lam, u_mu f> for every f of matching degree
    for family in ("m", "h", "e", "s", "f"):
        for size in range(1, 7):
            _assert_skew_adjoint(family, size)
    for family in ("m", "h"):
        _assert_skew_adjoint(family, 7)


def test_skew_monomial_closed_form_examples():
    assert skew_monomial_pn_inner((2, 1), (1,), 2) == 2
    assert skew_monomial_pn_inner((2, 2), (1,), 3) == 0
    for m in range(4):
        for n in range(1, 5):
            ones = [1] * (m + n)
            assert skew_monomial_pn_inner(ones, [1] * m, n) == (-1) ** (n - 1)
    with pytest.raises(SizeMismatch):
        skew_monomial_pn_inner((2, 1), (1,), 3)


def test_skew_monomial_closed_form_matches_machinery():
    for size in range(1, 7):
        for lam in partitions_of(size):
            for m in range(size):
                n = size - m
                for mu in partitions_of(m):
                    via_skew = hall_inner(skew("m", lam, mu), sym("p", (n,)))
                    assert via_skew == skew_monomial_pn_inner(lam, mu, n)


def test_weight_sum_is_nonnegative_integer():
    for m in range(5):
        for n in range(1, 6):
            for mu in partitions_of(m):
                for lam in partitions_of(m + n):
                    value = skew_monomial_weight_sum(lam, mu, n)
                    assert value.denominator == 1
                    assert value >= 0


def test_monomial_pairing_never_vanishes():
    # smoke version; the full n <= 9 sweep is an acceptance criterion
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert skew_monomial_pn_inner(lam, EMPTY, n) != 0


def test_kostka_facts():
    for n in range(1, 8):
        s_row = sym("s", (n,))
        for lam in partitions_of(n):
            assert hall_inner(sym("h", lam), s_row) == 1  # K_{(n) lam} = 1
            for mu in partitions_of(n):
                assert hall_inner(sym("h", lam), sym("h", mu)) >= 1


def test_murnaghan_nakayama_direct():
    for size in range(1, 8):
        for lam in partitions_of(size):
            for m in range(size):
                n = size - m
                for mu in partitions_of(m):
                    value = hall_inner(
                        sym("s", lam), multiply(sym("s", mu), sym("p", (n,)))
                    )
                    shape = SkewPartition(lam, mu)
                    if is_ribbon(shape):
                        assert value == (-1) ** ribbon_height(shape)
                    else:
                        assert value == 0


def test_hook_rule_direct():
    for n in range(1, 10):
        p_n = sym("p", (n,))
        for lam in partitions_of(n):
            value = hall_inner(sym("s", lam), p_n)
            if is_hook(lam):
                assert value == (-1) ** (n - lam[0])
            else:
                assert value == 0


def _schur_by_jacobi_trudi(lam):
    """p-coefficients of s_lam from det(h_{lam_i - i + j}): the signed
    h-index terms times the h-expansions on p."""
    from symgen.symfunc import _basis_to_p

    out = {}
    for hkey, sign in jacobi_trudi_unpruned(lam):
        for nu, c in _basis_to_p("h", hkey):
            out[nu] = out.get(nu, 0) + sign * c
    return tuple(sorted((nu, c) for nu, c in out.items() if c))


def test_schur_characters_match_jacobi_trudi():
    from symgen.symfunc import _basis_to_p

    for n in range(10):
        for lam in partitions_of(n):
            got = _basis_to_p("s", lam)
            assert all(type(c) is Fraction for _, c in got)
            assert got == _schur_by_jacobi_trudi(lam), lam


def test_character_orthogonality():
    from symgen.symfunc import _beta_set, _character

    for n in range(10):
        order = partitions_of(n)
        table = {lam: [_character(_beta_set(lam), nu) for nu in order] for lam in order}
        z = [stats(nu).z for nu in order]
        for lam in order:
            for mu in order:
                pairing = sum(
                    Fraction(a * b, zn) for a, b, zn in zip(table[lam], table[mu], z)
                )
                assert pairing == (lam == mu), (lam, mu)


def test_character_degree_is_hook_length_formula():
    from math import factorial

    from symgen.symfunc import _beta_set, _character

    # worked values: chi^(2,1) = (2, 0, -1) on (1^3), (2,1), (3)
    assert [_character(_beta_set(P(2, 1)), nu) for nu in partitions_of(3)][::-1] == [2, 0, -1]
    for n in range(13):
        for lam in partitions_of(n):
            conj = lam.conjugate()
            hooks = 1
            for i, row in enumerate(lam):
                for j in range(row):
                    hooks *= row - j + conj[j] - i - 1
            assert _character(_beta_set(lam), P(*[1] * n)) == factorial(n) // hooks, lam


def test_h_and_e_rows_match_newton_recurrence():
    from symgen.symfunc import _basis_to_p, _p_convolve

    for n in range(11):
        for lam in partitions_of(n):
            for basis, sign in (("h", 1), ("e", -1)):
                want = {EMPTY: Fraction(1)}
                for part in lam:
                    want = _p_convolve(want, newton_row(part, sign))
                assert _basis_to_p(basis, lam) == tuple(sorted(want.items())), (basis, lam)


def test_one_row_and_one_column_schur():
    from symgen.symfunc import _basis_to_p

    for n in range(15):
        assert _basis_to_p("s", P(n)) == _basis_to_p("h", P(n)), n
        assert _basis_to_p("s", P(*[1] * n)) == _basis_to_p("e", P(n)), n


def test_schur_expansions_take_no_jacobi_trudi_and_no_h_products(monkeypatch):
    # s reaches p through its characters alone: no h-row is counted off the
    # p -> m matrix, for s, skew s or the p -> s matrix
    from symgen import symfunc
    from symgen.symfunc import _basis_matrix_inverse, p_expansion

    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    # the p -> m counts have one home; setattr fails if it is renamed away
    monkeypatch.setattr(symfunc, "_p_in_m", counted("_p_in_m", symfunc._p_in_m))
    for cache in (symfunc._basis_to_p, symfunc._basis_matrix_inverse, symfunc._character):
        cache.cache_clear()
    for n in range(9):
        _basis_matrix_inverse("s", n)
        for lam in partitions_of(n):
            p_expansion(sym("s", lam))
            for m in range(min(n, 3) + 1):
                for mu in partitions_of(m):
                    skew("s", lam, mu)
    assert calls == {}
    # the counter is live: an h expansion reads the counted columns
    p_expansion(sym("h", P(2, 1)))
    assert calls["_p_in_m"] > 0


# ---------------------------------------------------------------------------
# dominance, rendering, parsing
# ---------------------------------------------------------------------------

def test_transition_matrices_invertible():
    from symgen.oracle import det_gauss
    from symgen.symfunc import transition_matrix

    for n in range(6):
        for src in BASES:
            for dst in BASES:
                mat = transition_matrix(src, dst, n)
                assert det_gauss([list(r) for r in mat.entries]) != 0
    # worked entries: p_2 = 2h_2 - h_(1,1) sits in the first column
    mat = transition_matrix("p", "h", 2)
    assert mat.entries[0][0] == 2 and mat.entries[1][0] == -1


@pytest.mark.parametrize("basis", ["m", "h", "e", "f", "s"])
def test_basis_matrix_inverse_matches_sympy(basis):
    sympy = pytest.importorskip("sympy")
    from symgen.symfunc import _basis_matrix_inverse, _basis_to_p

    for n in range(9):
        order = partitions_of(n)
        idx = {lam: i for i, lam in enumerate(order)}
        to_p = sympy.zeros(len(order), len(order))
        for j, mu in enumerate(order):
            for nu, c in _basis_to_p(basis, mu):
                to_p[idx[nu], j] = sympy.Rational(c.numerator, c.denominator)
        inverse = _basis_matrix_inverse(basis, n)
        assert all(type(entry) is int for row in inverse for entry in row)
        assert sympy.Matrix(inverse) == to_p.inv()


def _maps_filling_rows(parts: tuple, rows: list) -> int:
    """The maps from the parts to the rows that fill every row exactly,
    enumerated one part at a time (a part never goes where it overflows)."""
    if not parts:
        return int(not any(rows))
    total = 0
    for j, room in enumerate(rows):
        if room >= parts[0]:
            rows[j] -= parts[0]
            total += _maps_filling_rows(parts[1:], rows)
            rows[j] += parts[0]
    return total


def test_counted_p_to_m_matrix_matches_brute_force_and_tabloids():
    from symgen.symfunc import _basis_matrix_inverse, _m_to_p

    # worked entries: p_(2,1) = m_(3) + m_(2,1), p_(1,1,1) has 3 m_(2,1)
    order = partitions_of(3)
    assert _basis_matrix_inverse("m", 3)[order.index(P(2, 1))] == (0, 1, 3)
    for n in range(13):
        order = partitions_of(n)
        idx = {lam: i for i, lam in enumerate(order)}
        counted = _basis_matrix_inverse("m", n)
        assert all(type(entry) is int for row in counted for entry in row)
        if n <= 8:
            assert counted == tuple(
                tuple(_maps_filling_rows(nu, list(mu)) for nu in order) for mu in order
            ), n
        # times the m -> p matrix of the domino tabloids, the identity
        for lam in order:
            column = [Fraction(0)] * len(order)
            for nu, c in _m_to_p(lam):
                for j, row in enumerate(counted):
                    column[j] += row[idx[nu]] * c
            assert column == [int(mu == lam) for mu in order], (n, lam)


def test_dominance():
    assert dominance_leq(P(1, 1, 1), P(3))
    assert dominance_lt(P(2, 2), P(3, 1))
    assert not dominance_leq(P(3, 1), P(2, 2))
    assert not dominance_leq(P(2, 1), P(2, 2))  # different sizes
    assert dominance_leq(P(2, 1), P(2, 1))
    assert not dominance_lt(P(2, 1), P(2, 1))
    # (3,1,1) and (2,2,2) are incomparable at degree 6... use a true pair
    assert not dominance_leq(P(3, 1, 1, 1), P(2, 2, 2)) and not dominance_leq(
        P(2, 2, 2), P(3, 1, 1, 1)
    )


def test_render_and_parse():
    x = SymFunc("m", {P(2, 1): F(3), P(3): F(-1)})
    assert render_symfunc(x) == "3*m[2,1] - 1*m[3]"
    assert parse_symfunc("3*m[2,1] - 1*m[3]") == x
    assert parse_symfunc("-1/2*h[2] + h[1,1]").coeffs == {
        P(2): Fraction(-1, 2),
        P(1, 1): F(1),
    }
    assert render_symfunc(SymFunc("p", {})) == "0"
    with pytest.raises(ValueError):
        parse_symfunc("3*m[2,1] + h[1]")
    with pytest.raises(ValueError):
        parse_symfunc("nonsense")
    # every term after the first starts with its sign
    for text in ("m[2] m[1,1]", "m[2]m[1,1]", "3*m[2] 2*m[1,1]"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_symfunc(text)
    for n in range(5):
        for lam in partitions_of(n):
            y = to_basis(sym("s", lam), "m")
            assert parse_symfunc(render_symfunc(y)) == y
