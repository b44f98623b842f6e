from collections import Counter
from fractions import Fraction

import pytest

from symgen import exactalg
from symgen.deformed import (
    _binomial_quotient,
    _cyclotomic_factor,
    _gram_inverse_t,
    _gs_family,
    _strip_factor,
    _tableau_states,
    big_schur,
    big_schur_pn_closed,
    deformed_inner,
    hl_P,
    hl_P_pn_closed,
    hl_Q,
    hl_Q_pn_closed,
    hl_Q_pn_keys,
    mac_J,
    mac_J_pn_closed,
    mac_P,
    mac_P_pn_closed,
    phi_factorial,
    qn,
    skew_hl_P,
    specialize_coeffs,
    specialize_coeffs_root,
    whittaker,
    whittaker_pn_closed,
)
from symgen.exactalg import (
    P_ONE,
    Poly,
    Q,
    RF_ONE,
    RF_ZERO,
    RING_QQT,
    RING_QT,
    CycloElem,
    PoleAtRootOfUnity,
    RatFunc,
    Specialization,
    T,
    cyclotomic_poly,
    poly_exact_div,
    specialize_root_of_unity,
)
from symgen.partitions import EMPTY, Partition, contains, partitions_of, stats
from symgen.symfunc import (
    SymFunc,
    dominance_lt,
    hall_inner,
    multiply,
    p_expansion,
    skew,
    sym,
    to_basis,
)
from symgen.tabloids import SizeMismatch

from exact_reference import (
    cyclotomic_multiplicity,
    jacobi_trudi_unpruned,
    ratfunc_subs,
    ratfunc_subs_q_to_t,
)


def P(*parts):
    return Partition(parts)


def rf(x):
    return RatFunc.from_fraction(Fraction(x))


# ---------------------------------------------------------------------------
# the deformed forms
# ---------------------------------------------------------------------------

def test_t_inner_examples():
    p1 = sym("p", (1,), RING_QT)
    assert deformed_inner(p1, p1, "t") == RatFunc.make(P_ONE, P_ONE - T)
    p2 = sym("p", (2,), RING_QT)
    assert deformed_inner(p2, p2, "t") == RatFunc.make(
        Poly.const(2), P_ONE - Poly.t(2)
    )


def test_qt_inner_reduces_to_t_at_q_zero():
    for n in range(1, 5):
        for lam in partitions_of(n):
            x = sym("p", lam, RING_QQT)
            qt_val = deformed_inner(x, x, "qt")
            t_val = deformed_inner(sym("p", lam, RING_QT), sym("p", lam, RING_QT), "t")
            assert ratfunc_subs(qt_val, q=Fraction(0)) == t_val


def test_deformed_inner_rejects_bad_kind():
    with pytest.raises(ValueError):
        deformed_inner(sym("p", (1,), RING_QT), sym("p", (1,), RING_QT), "u")


# ---------------------------------------------------------------------------
# the tableau families against Gram-Schmidt, the independent reference
# ---------------------------------------------------------------------------

# kind -> (constructor, highest degree checked against Gram-Schmidt); "q0" is
# the (q,t)-form at t = 0, under which the q-Whittaker family is orthogonal
FAMILY_KINDS = {"t": (hl_P, 6), "qt": (mac_P, 4), "q0": (whittaker, 4)}


def _norm_weight(nu, kind) -> RatFunc:
    """<p_nu, p_nu>_* / z_nu under the kind's form."""
    num, den = P_ONE, P_ONE
    for part in nu:
        if kind != "q0":
            den = den * (P_ONE - Poly.t(part))
        if kind != "t":
            num = num * (P_ONE - Poly.q(part))
    return RatFunc.make(num, den)


def _form(xp: dict, yp: dict, kind) -> RatFunc:
    """The kind's form on two p-expansions."""
    total = RF_ZERO
    for nu, cx in xp.items():
        if nu in yp:
            total = total + cx * yp[nu] * _norm_weight(nu, kind) * stats(nu).z
    return total


def _gram_schmidt(n: int, kind) -> dict:
    """{lam: m-coefficients} of the m-unitriangular family orthogonal under
    the kind's form, by Gram-Schmidt on the monomials in ascending
    lexicographic order (a linear extension of dominance), correcting
    against every element already processed."""
    ring = RING_QQT if kind == "qt" else RING_QT
    done, family = [], {}
    for lam in sorted(partitions_of(n), key=tuple):
        m_row = p_expansion(sym("m", lam, ring))
        m_coeffs, p_coeffs = {lam: RF_ONE}, dict(m_row)
        for mu_m, mu_p, mu_norm in done:
            coef = _form(m_row, mu_p, kind) / mu_norm
            for key, val in mu_m.items():
                m_coeffs[key] = m_coeffs.get(key, RF_ZERO) - coef * val
            for key, val in mu_p.items():
                p_coeffs[key] = p_coeffs.get(key, RF_ZERO) - coef * val
        m_coeffs = {k: v for k, v in m_coeffs.items() if not v.is_zero()}
        p_coeffs = {k: v for k, v in p_coeffs.items() if not v.is_zero()}
        done.append((m_coeffs, p_coeffs, _form(p_coeffs, p_coeffs, kind)))
        family[lam] = m_coeffs
    return family


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_family_matches_gram_schmidt(kind):
    build, cap = FAMILY_KINDS[kind]
    for n in range(cap + 1):
        for lam, m_coeffs in _gram_schmidt(n, kind).items():
            assert build(lam).coeffs == m_coeffs, (kind, lam)


@pytest.mark.parametrize("kind,cap", [("t", 5), ("qt", 4), ("q0", 4)])
def test_family_unitriangular_and_orthogonal(kind, cap):
    build = FAMILY_KINDS[kind][0]
    for n in range(cap + 1):
        family = {lam: build(lam) for lam in partitions_of(n)}
        for lam, element in family.items():
            assert element.coeffs[lam] == RF_ONE
            assert all(mu == lam or dominance_lt(mu, lam) for mu in element.coeffs)
        p_coeffs = {lam: to_basis(x, "p").coeffs for lam, x in family.items()}
        for lam, xp in p_coeffs.items():
            for mu, yp in p_coeffs.items():
                assert _form(xp, yp, kind).is_zero() == (lam != mu), (kind, lam, mu)


def test_psi_worked_cases():
    # [m_11] P_(2): the tableau 1 2 has psi = psi_{(2)/(1)}, one cell of
    # (1) in the row but not the column of the strip
    assert hl_P((2,)).coeffs[P(1, 1)] == RatFunc.make(P_ONE - T)
    assert mac_P((2,)).coeffs[P(1, 1)] == RatFunc.make(
        (P_ONE + Q) * (P_ONE - T), P_ONE - Q * T
    )
    assert whittaker((2,)).coeffs[P(1, 1)] == RatFunc.make(P_ONE + Q)


def test_hl_family_takes_no_gcd(monkeypatch):
    calls = []
    original = exactalg.poly_gcd

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactalg, "poly_gcd", counted)
    for cache in (
        _gs_family, _tableau_states, _strip_factor, _cyclotomic_factor, cyclotomic_poly
    ):
        cache.cache_clear()
    for n in range(9):
        _gs_family(n, "t")
    assert calls == []


# ---------------------------------------------------------------------------
# Hall-Littlewood
# ---------------------------------------------------------------------------

def test_hl_P_examples():
    assert hl_P((1, 1)).coeffs == {P(1, 1): RF_ONE}


def test_hl_closed_form_examples():
    assert hl_P_pn_closed((1, 1), 2) == rf(-1)
    assert hl_P_pn_closed((2,), 2) == RatFunc.make(P_ONE + T)
    assert hl_Q_pn_closed((1, 1), 2) == RatFunc.make(T - P_ONE)
    with pytest.raises(SizeMismatch):
        hl_P_pn_closed((2, 1), 2)


def test_hl_constructed_matches_closed_forms():
    for n in range(1, 6):
        p_n = sym("p", (n,), RING_QT)
        for lam in partitions_of(n):
            assert hall_inner(hl_P(lam), p_n) == hl_P_pn_closed(lam, n)
            assert deformed_inner(hl_Q(lam), p_n, "t") == hl_Q_pn_closed(lam, n)


def test_hl_specializations():
    at_zero, at_one = Specialization.at_value(0), Specialization.at_value(1)
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert specialize_coeffs(hl_P(lam), at_zero) == to_basis(sym("s", lam), "m")
            assert specialize_coeffs(hl_P(lam), at_one) == to_basis(sym("m", lam), "m")


def test_qn_is_one_row_Q():
    assert qn(0).coeffs == {EMPTY: RF_ONE}
    for n in range(1, 5):
        expect = hl_P((n,)).scaled(RatFunc.make(P_ONE - T))
        assert qn(n) == expect


def test_hl_root_of_unity_vanishing_matches_floor_conditions():
    for k in (2, 3, 4):
        for n in range(1, 7):
            for lam in partitions_of(n):
                closed = hl_P_pn_closed(lam, n)
                value = specialize_root_of_unity(closed, k)
                mult_sum = sum(m // k for m in lam.multiplicities().values())
                length = len(lam)
                if n % k == 0:
                    predicted = mult_sum == (length + k - 1) // k
                else:
                    predicted = mult_sum == (length - 1) // k
                assert (not value.is_zero()) == predicted, (lam, n, k)


def test_hl_Q_root_vanishing_needs_strict_length_bound():
    # Hall pairing (1-t^n) * <Q,p_n>_t at a k-th root: nonzero iff k does not
    # divide n and k > l(lambda)-1.  The boundary l = k+1 vanishes (the
    # non-strict variant would wrongly call it nonzero).
    for k in (2, 3):
        for n in range(1, 7):
            for lam in partitions_of(n):
                hall = hl_Q_pn_closed(lam, n) * RatFunc.make(P_ONE - Poly.t(n))
                value = specialize_root_of_unity(hall, k)
                predicted = (n % k != 0) and (k > len(lam) - 1)
                assert (not value.is_zero()) == predicted, (lam, n, k)
    boundary = Partition((1, 1, 1))  # l = 3 = k+1 at k = 2, n = 3 odd
    hall = hl_Q_pn_closed(boundary, 3) * RatFunc.make(P_ONE - Poly.t(3))
    assert specialize_root_of_unity(hall, 2).is_zero()


def test_constructed_specialization_at_cube_root_matches_closed():
    # full CycloElem arithmetic: specialize the constructed P coefficientwise
    # at a primitive cube root and pair inside Q[t]/Phi_3
    from symgen.exactalg import cyclo_ring

    ring = cyclo_ring(3)
    for n in range(1, 5):
        p_n = sym("p", (n,), ring)
        for lam in partitions_of(n):
            got = hall_inner(specialize_coeffs_root(hl_P(lam), 3), p_n)
            want = specialize_root_of_unity(hl_P_pn_closed(lam, n), 3)
            assert got == want, (lam, n)


def test_schur_P_Q_at_minus_one():
    # Q(-1) = 2^l P(-1) when parts are distinct, else 0
    at_minus_one = Specialization.at_value(-1)
    for n in range(1, 6):
        for lam in partitions_of(n):
            q_at = specialize_coeffs(hl_Q(lam), at_minus_one)
            distinct = len(set(lam)) == len(lam)
            if distinct:
                p_at = specialize_coeffs(hl_P(lam), at_minus_one)
                assert q_at == p_at.scaled(Fraction(2 ** len(lam)))
            else:
                assert q_at.is_zero()


def _specialize_cancelling_phi(f, k):
    """The value at a primitive k-th root of unity with the common Phi_k
    power cancelled first: the reference that needs no coprime parts."""
    num, den = f.num, f.den
    m_num, m_den = cyclotomic_multiplicity(num, k), cyclotomic_multiplicity(den, k)
    if m_num != m_den:
        return None if m_num < m_den else CycloElem.zero(k)
    for _ in range(m_num):
        num, den = poly_exact_div(num, cyclotomic_poly(k)), poly_exact_div(den, cyclotomic_poly(k))
    return CycloElem.from_poly(num, k) * f.scale / CycloElem.from_poly(den, k)


def test_no_pole_at_roots_of_unity():
    # every value built by RatFunc._make_coprime has coprime parts, which
    # specialize_root_of_unity trusts; the univariate closed forms have no
    # pole at a root of unity (numerator Phi_k-multiplicity >= denominator's)
    closed_forms = [
        (closed, True)
        for n in range(1, 8)
        for lam in partitions_of(n)
        for closed in (
            hl_P_pn_closed(lam, n),
            hl_Q_pn_closed(lam, n),
            hl_Q_pn_keys(lam, n).expand(),
            big_schur_pn_closed(lam, n),
            whittaker_pn_closed(lam, n).swap_vars(),
            mac_P_pn_closed(lam, n),
            mac_J_pn_closed(lam, n),
        )
    ]
    coefficients = [
        (c.swap_vars() if kind == "q0" else c, False)
        for kind, top in (("t", 6), ("q0", 6), ("qt", 4))
        for n in range(1, top + 1)
        for row in _gs_family(n, kind).values()
        for c in row.values()
    ]
    for value, closed in closed_forms + coefficients:
        if value.is_zero():
            continue
        assert exactalg.poly_gcd(value.num, value.den) == P_ONE
        if not value.is_univariate_t():
            continue
        for k in range(1, 13):
            want = _specialize_cancelling_phi(value, k)
            assert want is not None or not closed
            if want is None:
                with pytest.raises(PoleAtRootOfUnity):
                    specialize_root_of_unity(value, k)
            else:
                assert specialize_root_of_unity(value, k) == want


# ---------------------------------------------------------------------------
# big Schur
# ---------------------------------------------------------------------------

def test_big_schur_is_jacobi_trudi_over_one_row_Q():
    # S_lam = det(q_{lam_i - i + j}), every term a product of the one-row Q
    for n in range(7):
        for lam in partitions_of(n):
            expect = SymFunc("p", {}, RING_QT)
            for parts, sign in jacobi_trudi_unpruned(lam):
                term = SymFunc("p", {EMPTY: rf(sign)}, RING_QT)
                for part in parts:
                    term = multiply(term, qn(part))
                expect = expect + term
            assert big_schur(lam) == expect, lam


def test_big_schur_closed_examples():
    assert big_schur_pn_closed((1, 1), 2) == RatFunc.make(-(P_ONE - Poly.t(2)))
    assert big_schur_pn_closed((2, 2), 4) == RF_ZERO


def test_big_schur_pairing_open_question():
    # the Hall pairing of the constructed S matches (1-t^n)<s,p_n>; the
    # t-pairing gives the bare hook sign
    for n in range(1, 5):
        p_n = sym("p", (n,), RING_QT)
        for lam in partitions_of(n):
            s_val = hall_inner(sym("s", lam), sym("p", (n,)))
            constructed = big_schur(lam)
            hall = hall_inner(constructed, p_n)
            assert hall == RatFunc.make(P_ONE - Poly.t(n)) * RatFunc.from_fraction(
                s_val
            )
            assert hall == big_schur_pn_closed(lam, n)
            t_pair = deformed_inner(constructed, p_n, "t")
            assert t_pair == RatFunc.from_fraction(s_val)


def test_big_schur_specializes_to_schur_at_zero():
    for n in range(1, 5):
        for lam in partitions_of(n):
            at0 = specialize_coeffs(to_basis(big_schur(lam), "m"), Specialization.at_value(0))
            assert at0 == to_basis(sym("s", lam), "m")


# ---------------------------------------------------------------------------
# Macdonald, Whittaker
# ---------------------------------------------------------------------------

def test_mac_P_examples():
    assert mac_P((1,)).coeffs == {P(1): RF_ONE}
    assert mac_P_pn_closed((2,), 2) == RatFunc.make(
        (P_ONE + T) * (P_ONE - Q), P_ONE - Q * T
    )
    assert mac_P_pn_closed((1,), 1) == RF_ONE
    assert whittaker_pn_closed((2,), 2) == RatFunc.make(P_ONE - Q)


def test_mac_constructed_matches_closed_forms():
    for n in range(1, 6):
        p_n = sym("p", (n,), RING_QQT)
        for lam in partitions_of(n):
            assert hall_inner(mac_P(lam), p_n) == mac_P_pn_closed(lam, n)
            assert hall_inner(mac_J(lam), p_n) == mac_J_pn_closed(lam, n)


def test_mac_J_is_arm_leg_product_times_P():
    for n in range(6):
        for lam in partitions_of(n):
            conj = lam.conjugate()
            arm_leg = _product(
                P_ONE - Q ** (row - j) * T ** (conj[j - 1] - i + 1)
                for i, row in enumerate(lam, 1)
                for j in range(1, row + 1)
            )
            assert mac_J(lam) == mac_P(lam).scaled(RatFunc.make(arm_leg)), lam


def test_big_schur_and_mac_J_take_no_gcd_and_no_rational_product(monkeypatch):
    # both are read off polynomial formulas: no RatFunc product, and no
    # bivariate gcd reaches the cached core
    calls = []
    original = RatFunc.__mul__

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(RatFunc, "__mul__", counted)
    monkeypatch.setattr(RatFunc, "__rmul__", counted)
    for cache in (_tableau_states, _strip_factor, _cyclotomic_factor, cyclotomic_poly):
        cache.cache_clear()
    lookups = exactalg._poly_gcd_prim.cache_info()
    for n in range(7):
        for lam in partitions_of(n):
            big_schur(lam)
            if n < 6:
                mac_J(lam)
    after = exactalg._poly_gcd_prim.cache_info()
    assert (after.hits, after.misses) == (lookups.hits, lookups.misses)
    assert calls == []


def test_whittaker_constructed_matches_closed_form():
    for n in range(1, 5):
        p_n = sym("p", (n,), RING_QT)
        for lam in partitions_of(n):
            assert hall_inner(whittaker(lam), p_n) == whittaker_pn_closed(lam, n)


def test_mac_degenerations():
    for n in range(1, 5):
        for lam in partitions_of(n):
            # q = t gives the Schur functions
            at_qt = {mu: ratfunc_subs_q_to_t(c) for mu, c in mac_P(lam).coeffs.items()}
            want = {
                mu: RatFunc.from_fraction(c)
                for mu, c in to_basis(sym("s", lam), "m").coeffs.items()
            }
            assert at_qt == want
            # q = 0 gives Hall-Littlewood P
            at_q0 = {
                mu: ratfunc_subs(c, q=Fraction(0)) for mu, c in mac_P(lam).coeffs.items()
            }
            assert {k: v for k, v in at_q0.items() if not v.is_zero()} == dict(
                hl_P(lam).coeffs
            )
            # t = 0 gives the q-Whittaker functions, built from psi at t = 0
            assert whittaker(lam).coeffs == {
                mu: ratfunc_subs(c, t=Fraction(0))
                for mu, c in mac_P(lam).coeffs.items()
                if not ratfunc_subs(c, t=Fraction(0)).is_zero()
            }


def test_whittaker_root_of_unity_vanishing():
    for k in (2, 3):
        for n in range(1, 6):
            for lam in partitions_of(n):
                closed = whittaker_pn_closed(lam, n).swap_vars()
                value = specialize_root_of_unity(closed, k)
                assert (not value.is_zero()) == (lam[0] <= k), (lam, n, k)


def test_mac_closed_form_size_check():
    with pytest.raises(SizeMismatch):
        mac_P_pn_closed((2,), 3)


# ---------------------------------------------------------------------------
# closed forms as binomial quotients
# ---------------------------------------------------------------------------

def _product(factors) -> Poly:
    out = P_ONE
    for factor in factors:
        out = out * factor
    return out


def test_mac_closed_forms_match_expanded_quotient():
    # the expand-then-reduce route: X_n^lam and c_lam multiplied out, then one
    # bivariate gcd in RatFunc.make
    for n in range(1, 8):
        for lam in partitions_of(n):
            conj = lam.conjugate()
            cells = [(i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1)]
            excess = _product(T ** (i - 1) - Q ** (j - 1) for i, j in cells[1:])
            arm_leg = _product(
                P_ONE - Q ** (lam[i - 1] - j) * T ** (conj[j - 1] - i + 1)
                for i, j in cells
            )
            num = (P_ONE - T**n) * excess
            assert mac_J_pn_closed(lam, n) == RatFunc.make(num), lam
            assert mac_P_pn_closed(lam, n) == RatFunc.make(num, arm_leg), lam


def test_hl_P_closed_form_matches_expanded_quotient():
    for n in range(1, 10):
        for lam in partitions_of(n):
            # t^{n(lam)} phi_r(1/t) = t^{n(lam) - r(r+1)/2} prod_{j <= r} (t^j - 1)
            r = len(lam) - 1
            num = (P_ONE - T**n) * T ** (stats(lam).n_lambda - r * (r + 1) // 2)
            num = num * _product(T**j - P_ONE for j in range(1, r + 1))
            den = _product(phi_factorial(m) for m in lam.multiplicities().values())
            assert hl_P_pn_closed(lam, n) == RatFunc.make(num, den), lam


def test_binomial_quotient_cancellation_sign_orientation():
    def one_minus_t(j):
        return ((0, 0), (0, j))

    # (1 - t^6) / ((1 - t^2)(1 - t^3)) = Phi_6 / (-Phi_1)
    value = _binomial_quotient(
        1, (0, 0), [one_minus_t(6)], [one_minus_t(2), one_minus_t(3)]
    ).expand()
    assert value == RatFunc.make(T * T - T + P_ONE, P_ONE - T)
    assert value == RatFunc.make(P_ONE - T**6, (P_ONE - T**2) * (P_ONE - T**3))
    # (t^2 - q^2) / (t - q) = t + q
    t2_q2, t_q = ((0, 2), (2, 0)), ((0, 1), (1, 0))
    assert _binomial_quotient(1, (0, 0), [t2_q2], [t_q]).expand() == RatFunc.make(T + Q)
    # (q - t) / (t - q): the two orientations of one key cancel to -1
    q_t = ((1, 0), (0, 1))
    assert _binomial_quotient(1, (0, 0), [q_t], [t_q]).expand() == rf(-1)
    with pytest.raises(ValueError):
        _binomial_quotient(1, (0, 0), [((1, 1), (1, 0))], [])


def test_closed_forms_take_no_gcd_or_exact_division(monkeypatch):
    # the closed forms cancel binomial factors by counting; a gcd or an exact
    # division here would bring back the bivariate cost they avoid
    calls: Counter = Counter()
    for name in ("poly_gcd", "try_exact_div"):
        original = getattr(exactalg, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(exactalg, name, counted)
    cyclotomic_poly.cache_clear()
    _cyclotomic_factor.cache_clear()
    for n in range(1, 7):
        for lam in partitions_of(n):
            mac_P_pn_closed(lam, n)
            mac_J_pn_closed(lam, n)
            hl_P_pn_closed(lam, n)
    assert calls == Counter()


def test_swap_vars_takes_no_gcd(monkeypatch):
    # exchanging q and t is a ring automorphism, so coprime parts stay
    # coprime and swap_vars needs no gcd
    values = [
        closed(lam, n)
        for closed in (mac_P_pn_closed, whittaker_pn_closed)
        for n in range(1, 7)
        for lam in partitions_of(n)
    ]
    calls = []
    original = exactalg.poly_gcd

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactalg, "poly_gcd", counted)
    swapped = [value.swap_vars() for value in values]
    assert calls == []
    monkeypatch.undo()
    for value, got in zip(values, swapped):
        expected = RatFunc.make(
            value.num.swap_vars(), value.den.swap_vars(), value.scale
        )
        assert got == expected, value


# ---------------------------------------------------------------------------
# skew Hall-Littlewood
# ---------------------------------------------------------------------------

def test_skew_hl_examples():
    for n in range(4):
        for lam in partitions_of(n):
            assert skew_hl_P(lam, EMPTY) == hl_P(lam)
    at_zero = Specialization.at_value(0)
    at0 = specialize_coeffs(skew_hl_P((2, 2), (1,)), at_zero)
    assert at0 == to_basis(skew("s", (2, 2), (1,)), "m")
    value = deformed_inner(skew_hl_P((2, 2), (1,)), sym("p", (3,), RING_QT), "t")
    assert ratfunc_subs(value, t=Fraction(0)).as_fraction() == -1
    assert skew_hl_P((1,), (2,)).is_zero()


def test_skew_hl_smaller_lam_builds_no_family():
    before = _gs_family.cache_info().misses, _gram_inverse_t.cache_info().misses
    assert skew_hl_P((1,), (3, 3, 1)).is_zero()
    assert (_gs_family.cache_info().misses, _gram_inverse_t.cache_info().misses) == before


def test_skew_hl_P_takes_no_rational_sum_or_product(monkeypatch):
    # the adjoint runs on polynomial p-coordinates: the first RatFunc
    # arithmetic is the change of basis to m, which stops the count
    from symgen import deformed

    class ReachedToBasis(Exception):
        pass

    def stop(*args):
        raise ReachedToBasis

    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(self, other, _name=name, _original=vars(RatFunc)[name]):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(RatFunc, name, counted)
    monkeypatch.setattr(deformed, "to_basis", stop)
    for lam, mu in [((2, 1), (1,)), ((2, 2), (1,)), ((3, 1), (2,)), ((2, 1, 1), (1, 1)),
                    ((3, 2), (2, 1)), ((2,), EMPTY)]:
        with pytest.raises(ReachedToBasis):
            skew_hl_P(lam, mu)
    assert calls == []


def test_gram_inverse_t_inverts_the_power_sum_gram_matrix():
    for n in range(1, 6):
        inverse = _gram_inverse_t(n)
        assert set(inverse) == set(partitions_of(n))
        for rho in partitions_of(n):
            for nu in partitions_of(n):
                gram = deformed_inner(sym("p", rho, RING_QT), sym("p", nu, RING_QT), "t")
                assert gram * inverse[nu] == (RF_ONE if rho == nu else RF_ZERO)


def test_skew_hl_defining_identity():
    # <P_{lam/mu}, P_nu>_t = <P_lam, P_mu P_nu>_t
    for size in range(1, 5):
        for lam in partitions_of(size):
            for m in range(size + 1):
                for mu in partitions_of(m):
                    lhs = skew_hl_P(lam, mu)
                    for nu in partitions_of(size - m):
                        left = deformed_inner(lhs, hl_P(nu), "t")
                        right = deformed_inner(
                            hl_P(lam), multiply(hl_P(mu), hl_P(nu)), "t"
                        )
                        assert left == right, (lam, mu, nu)


def test_skew_hl_at_zero_is_skew_schur():
    at_zero = Specialization.at_value(0)
    for size in range(1, 5):
        for lam in partitions_of(size):
            for m in range(size + 1):
                for mu in partitions_of(m):
                    at0 = specialize_coeffs(skew_hl_P(lam, mu), at_zero)
                    assert at0 == to_basis(skew("s", lam, mu), "m"), (lam, mu)


def test_phi_factorial():
    assert phi_factorial(0) == P_ONE
    assert phi_factorial(2) == (P_ONE - T) * (P_ONE - Poly.t(2))
