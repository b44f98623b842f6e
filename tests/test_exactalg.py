import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from symgen import exactalg
from symgen.exactalg import (
    _poly_gcd_prim,
    P_ONE,
    P_ZERO,
    Poly,
    PoleAtRootOfUnity,
    Q,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    Specialization,
    T,
    CycloElem,
    ZeroDenominator,
    ZeroPolynomial,
    cyclotomic_poly,
    euler_phi,
    poly_exact_div,
    poly_gcd,
    specialize_root_of_unity,
    try_exact_div,
)

from exact_reference import cyclotomic_multiplicity, poly_subs, ratfunc_reduce, ratfunc_subs


def t_pow(k):
    return Poly.t(k)


def phi_factorial(r):
    out = P_ONE
    for j in range(1, r + 1):
        out = out * (P_ONE - t_pow(j))
    return out


# ---------------------------------------------------------------------------
# ratfunc_reduce
# ---------------------------------------------------------------------------

def test_reduce_telescoping():
    assert ratfunc_reduce(P_ONE - t_pow(2), P_ONE - T) == RatFunc.make(P_ONE + T)


def test_reduce_content_normalization():
    r = ratfunc_reduce(Poly.const(2) * T, Poly.const(4))
    assert r.scale == Fraction(1, 2)
    assert r.num == T
    assert r.den == P_ONE


def test_reduce_cleared_inverse_powers():
    # (1-t^3) * t * (1-1/t) cleared to polynomials is (1-t^3)(t-1);
    # over (1-t)^2 it reduces to -(1 + t + t^2)
    num = (P_ONE - t_pow(3)) * (T - P_ONE)
    den = (P_ONE - T) ** 2
    reduced = ratfunc_reduce(num, den)
    assert reduced == RatFunc.make(-(P_ONE + T + t_pow(2)))
    # cross-checked two ways: at t=2 and at t=-1
    assert Specialization.at_value(2).apply(reduced) == Fraction(-7)
    assert Specialization.at_value(-1).apply(reduced) == Fraction(-1)


def test_reduce_zero_denominator():
    with pytest.raises(ZeroDenominator):
        ratfunc_reduce(P_ONE, P_ZERO)


def test_cancel_common_factor_invariant():
    # reduce(num*g, den*g) == reduce(num, den), structurally
    samples = [
        (P_ONE - t_pow(2), P_ONE - T),
        (Poly.const(3) * T + 1, Poly.const(2) * (P_ONE - T)),
        ((P_ONE - Q) * (P_ONE + T), P_ONE - Q * T),
    ]
    gs = [P_ONE + T, Poly.const(2) * T, (P_ONE - Q * T) * T, Q + T]
    for num, den in samples:
        base = ratfunc_reduce(num, den)
        for g in gs:
            assert ratfunc_reduce(num * g, den * g) == base


# ---------------------------------------------------------------------------
# gcd and exact division
# ---------------------------------------------------------------------------

def test_exact_division_failure_detected():
    assert try_exact_div(T + 1, T - 1) is None
    assert poly_exact_div((T + 1) * (T - 1), T - 1) == T + 1


def test_gcd_bivariate():
    a = (P_ONE - Q * T) * (P_ONE + T)
    b = (P_ONE - Q * T) * (Q + 2)
    g = poly_gcd(a, b)
    assert g in (P_ONE - Q * T, (Q * T - P_ONE))
    # gcd is primitive with positive graded-lex leading coefficient
    assert g.leading()[1] > 0


def test_gcd_univariate_and_monomial_content():
    a = Poly.const(6) * T * (P_ONE - T)
    b = Poly.const(4) * t_pow(2) * (P_ONE - T) ** 2
    g = poly_gcd(a, b)
    assert g == (T * (P_ONE - T)).primitive() * -1 or g == (T * (P_ONE - T) * -1).primitive()
    # up to the canonical sign: t(1-t) ~ t^2 - t with positive leading
    assert g == (t_pow(2) - T)


_SQ, _ST = sympy.symbols("q t")
# each shape of gcd argument: (has q, has t)
_SHAPES = {"const": (False, False), "t": (False, True), "q": (True, False), "qt": (True, True)}


def _random_shape(rng, shape):
    """A nonzero integer polynomial that is constant, in t only, in q only,
    or in both variables."""
    has_q, has_t = _SHAPES[shape]
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 2) if has_q else 0, rng.randint(0, 2) if has_t else 0)
            terms[key] = Fraction(rng.randint(-3, 3))
        p = Poly({k: c for k, c in terms.items() if c})
        found = (any(dq for dq, _ in p.terms), any(dt for _, dt in p.terms))
        if not p.is_zero() and found == (has_q, has_t):
            return p


def _to_sympy(p):
    return sum(int(c) * _SQ**dq * _ST**dt for (dq, dt), c in p.terms.items())


def _sympy_gcd(a, b):
    """sympy's gcd, normalized to primitive with positive graded-lex leading
    coefficient like poly_gcd."""
    g = sympy.Poly(sympy.gcd(_to_sympy(a), _to_sympy(b)), _SQ, _ST)
    return Poly({m: Fraction(int(c)) for m, c in g.terms()}).primitive()


def test_gcd_matches_sympy_on_every_shape():
    # g*x and g*y for g, x, y constant, t-only, q-only or bivariate; about
    # half the pairs share a monomial factor, and some x carry one of their own
    rng = random.Random(20240817)
    for gs in _SHAPES:
        for xs in _SHAPES:
            for ys in _SHAPES:
                for _ in range(3):
                    g = _random_shape(rng, gs)
                    x = _random_shape(rng, xs)
                    y = _random_shape(rng, ys)
                    if rng.random() < 0.5:
                        g = g * Q ** rng.randint(0, 2) * T ** rng.randint(0, 2)
                    if rng.random() < 0.3:
                        x = x * Q ** rng.randint(0, 2) * T ** rng.randint(0, 2)
                    a, b = g * x, g * y
                    assert poly_gcd(a, b) == _sympy_gcd(a, b), (a, b)


def test_constant_gcd_skips_the_cache():
    _poly_gcd_prim.cache_clear()
    biv = (P_ONE - Q * T) * (Q + 2) * T
    assert poly_gcd(Poly.const(Fraction(-3, 4)), biv) == P_ONE
    assert poly_gcd(biv, Poly.const(5)) == P_ONE
    assert _poly_gcd_prim.cache_info().misses == 0


# ---------------------------------------------------------------------------
# cyclotomic multiplicity
# ---------------------------------------------------------------------------

def test_multiplicity_phi5_at_k2():
    assert cyclotomic_multiplicity(phi_factorial(5), 2) == 2
    # independent check by explicit division
    phi2 = cyclotomic_poly(2)
    once = poly_exact_div(phi_factorial(5), phi2)
    twice = poly_exact_div(once, phi2)
    assert try_exact_div(twice, phi2) is None


def test_multiplicity_examples():
    assert cyclotomic_multiplicity(P_ONE - t_pow(6), 3) == 1
    assert cyclotomic_multiplicity(P_ONE - T, 2) == 0


def test_multiplicity_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        cyclotomic_multiplicity(P_ZERO, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_multiplicity_characterizes_exact_power(k):
    phi_k = cyclotomic_poly(k)
    for m in range(3):
        p = (phi_k**m) * (T + 2)
        assert cyclotomic_multiplicity(p, k) == m
        reduced = p
        for _ in range(m):
            reduced = poly_exact_div(reduced, phi_k)
        assert try_exact_div(reduced, phi_k) is None


def test_product_of_cyclotomics_is_t_power_minus_one():
    for n in (1, 2, 3, 4, 6, 12):
        prod = P_ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == t_pow(n) - 1


# ---------------------------------------------------------------------------
# root-of-unity specialization
# ---------------------------------------------------------------------------

def test_specialize_numerator_vanishes():
    assert specialize_root_of_unity(RatFunc.make(P_ONE + T), 2).is_zero()


def test_specialize_hl_one_row():
    # (1-t^2)/(1-t) = 1+t vanishes at t=-1
    f = ratfunc_reduce(P_ONE - t_pow(2), P_ONE - T)
    assert specialize_root_of_unity(f, 2).is_zero()


def test_specialize_exact_value():
    f = ratfunc_reduce((P_ONE - t_pow(3)) * (T - P_ONE), (P_ONE - T) ** 2)
    assert specialize_root_of_unity(f, 2).as_fraction() == -1


def test_specialize_pole_detected():
    f = RatFunc.make(T + 2, P_ONE + T)
    with pytest.raises(PoleAtRootOfUnity):
        specialize_root_of_unity(f, 2)


def test_specialize_cancels_common_phi_power():
    phi3 = cyclotomic_poly(3)
    f = RatFunc.make(phi3 * (T + 2), phi3 * (T + 3), Fraction(5))
    got = specialize_root_of_unity(f, 3)
    want = (
        CycloElem.from_poly(T + 2, 3)
        / CycloElem.from_poly(T + 3, 3)
        * CycloElem.from_fraction(5, 3)
    )
    assert got == want


small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)


@st.composite
def pole_free_ratfuncs(draw, k):
    """Rational functions with denominators coprime to Phi_k."""
    def small_poly():
        coeffs = draw(st.lists(small_fracs, min_size=1, max_size=4))
        return Poly({(0, i): c for i, c in enumerate(coeffs) if c})

    num = small_poly()
    den = T + draw(st.sampled_from([2, 3, 5]))
    return RatFunc.make(num, den) if not num.is_zero() else RF_ZERO


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.sampled_from([2, 3, 4]))
def test_specialization_is_ring_homomorphism(data, k):
    f = data.draw(pole_free_ratfuncs(k))
    g = data.draw(pole_free_ratfuncs(k))
    sf, sg = specialize_root_of_unity(f, k), specialize_root_of_unity(g, k)
    assert specialize_root_of_unity(f + g, k) == sf + sg
    assert specialize_root_of_unity(f * g, k) == sf * sg


@pytest.mark.parametrize("k,value", [(1, Fraction(1)), (2, Fraction(-1))])
def test_low_order_cyclo_matches_rational_arithmetic(k, value):
    f = ratfunc_reduce((P_ONE - t_pow(3)) * (T - P_ONE), (P_ONE - T) ** 2)
    g = RatFunc.make(T + 2, Poly.const(3))
    for func in (f, g, f * g, f + g):
        got = specialize_root_of_unity(func, k)
        assert got.as_fraction() == Specialization.at_value(value).apply(func)


def test_cyclo_inverse_roundtrip():
    x = CycloElem.from_poly(t_pow(2) + T + 1, 5)
    assert x * x.inverse() == CycloElem.one(5)
    assert (x / x) == CycloElem.one(5)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
def test_cyclo_powers_match_repeated_products(k):
    x = CycloElem.from_poly(t_pow(3) - 2 * T + 1, k)
    if not x:
        x = x + 1
    product = CycloElem.one(k)
    for n in range(6):
        assert x ** n == product
        assert x ** -n == product.inverse()
        product = product * x


def test_cyclo_zero_test_is_vector_zero():
    assert not CycloElem.zero(4)
    assert CycloElem.from_poly(T, 4)


# ---------------------------------------------------------------------------
# residue arithmetic: a rational scales, integers stay int
# ---------------------------------------------------------------------------

residue_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 12])
small_ints = st.integers(-6, 6)


def residues(k, coeffs):
    return st.lists(coeffs, min_size=euler_phi(k), max_size=euler_phi(k)).map(
        lambda c: CycloElem(k, c)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=residue_orders, r=small_ints | small_fracs)
def test_rational_times_residue_is_the_lifted_product(data, k, r):
    x = data.draw(residues(k, small_ints | small_fracs))
    assert x * r == r * x == x * CycloElem.from_fraction(r, k)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=residue_orders, r=small_ints | small_fracs)
def test_cyclo_division_is_product_by_inverse(data, k, r):
    x = data.draw(residues(k, small_ints | small_fracs))
    y = data.draw(residues(k, small_ints | small_fracs))
    if not y:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    assert x / y == x * y.inverse()
    assert r / y == y.inverse() * r
    assert y * y.inverse() == CycloElem.one(k)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=residue_orders, n=small_ints)
def test_integer_residues_keep_int_coefficients(data, k, n):
    x = data.draw(residues(k, small_ints))
    y = data.draw(residues(k, small_ints))
    p = Poly({(0, i): c for i, c in enumerate(data.draw(st.lists(small_ints, max_size=14)))})
    for value in (
        x + y, x - y, x * y, x * n, n * x, x + n, n - x,
        CycloElem.from_poly(p, k), CycloElem.zero(k), CycloElem.one(k),
    ):
        assert all(type(c) is int for c in value.coeffs), value.coeffs


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 12])
def test_scalar_product_takes_no_residue_reduction(k, monkeypatch):
    x = CycloElem.from_poly(t_pow(3) - 2 * T + 1, k)
    reductions = []
    reduce = exactalg._poly_mod_phi
    monkeypatch.setattr(
        exactalg, "_poly_mod_phi", lambda coeffs, k: reductions.append(k) or reduce(coeffs, k)
    )
    for r in (3, -1, Fraction(2, 7)):
        assert (x * r).coeffs == (r * x).coeffs == tuple(c * r for c in x.coeffs)
    assert reductions == []


def test_euler_phi_degrees():
    assert [euler_phi(k) for k in (1, 2, 3, 4, 5, 6, 12)] == [1, 1, 2, 2, 4, 2, 4]


# ---------------------------------------------------------------------------
# ring laws for RatFunc (random small inputs)
# ---------------------------------------------------------------------------

@st.composite
def small_ratfuncs(draw):
    def small_poly(allow_zero):
        terms = {}
        for _ in range(draw(st.integers(0 if allow_zero else 1, 3))):
            dq = draw(st.integers(0, 2))
            dt = draw(st.integers(0, 2))
            c = draw(st.integers(-3, 3))
            if c:
                terms[(dq, dt)] = terms.get((dq, dt), 0) + c
        return Poly({k: Fraction(v) for k, v in terms.items() if v})

    num = small_poly(allow_zero=True)
    den = small_poly(allow_zero=False)
    while den.is_zero():
        den = Poly.const(draw(st.integers(1, 3)))
    return RatFunc.make(num, den)


@settings(max_examples=120, deadline=None)
@given(f=small_ratfuncs(), scale=st.sampled_from([1, -1]) | small_fracs)
def test_render_matches_scaled_numerator(f, scale):
    # the numerator is shown as scale * num, built term by term
    f = RatFunc.make(f.num, f.den, scale)
    if f.is_zero():
        assert f.render() == "(0)"
        return
    shown = Poly({term: f.scale * c for term, c in f.num.terms.items()}).render()
    want = f"({shown})" if f.den == P_ONE else f"({shown})/({f.den.render()})"
    assert f.render() == want


@settings(max_examples=80, deadline=None)
@given(a=small_ratfuncs(), b=small_ratfuncs(), c=small_ratfuncs())
def test_ratfunc_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + RF_ZERO == a
    assert a * RF_ONE == a
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=100, deadline=None)
@given(a=small_ratfuncs(), b=small_ratfuncs())
def test_product_is_already_canonical(a, b):
    # the cross-cancelled product is stored as it is; make, which splits the
    # content and takes the gcd again, reaches the same form
    assert a * b == RatFunc.make(a.num * b.num, a.den * b.den, a.scale * b.scale)


def test_zero_ratfunc_has_no_inverse():
    with pytest.raises(ZeroDenominator):
        RF_ZERO.inverse()


@settings(max_examples=100, deadline=None)
@given(a=small_ratfuncs(), b=small_ratfuncs(), r=small_ints | small_fracs)
def test_ratfunc_division_is_product_by_inverse(a, b, r):
    if b.is_zero():
        for divide in (b.inverse, lambda: a / b, lambda: r / b):
            with pytest.raises(ZeroDenominator):
                divide()
        return
    assert a / b == a * b.inverse()
    assert r / b == b.inverse() * r
    assert b * b.inverse() == RF_ONE


small_points = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@settings(max_examples=150, deadline=None)
@given(f=small_ratfuncs(), q=small_points, t=small_points)
def test_pair_specialization_matches_reduced_substitution(f, q, t):
    # the parts are evaluated as they are: no gcd, same value, same poles
    at_pair = Specialization.at_pair(q, t)
    try:
        want = ratfunc_subs(f, q=q, t=t).as_fraction()
    except ZeroDenominator:
        with pytest.raises(ZeroDenominator):
            at_pair.apply(f)
    else:
        assert at_pair.apply(f) == want


@settings(max_examples=150, deadline=None)
@given(
    f=small_ratfuncs(),
    q=st.none() | small_points,
    t=st.none() | small_points,
)
def test_value_at_matches_substitution(f, q, t):
    # one integer sum over one denominator; a variable left as None that the
    # polynomial has is no value
    for p in (f.num, f.den, f.scale * f.num):
        if (q is None and p.deg_q()) or (t is None and p.deg_t()):
            with pytest.raises(ValueError):
                p.value_at(q, t)
        else:
            assert p.value_at(q, t) == poly_subs(p, q=q, t=t).as_fraction()


def fraction_split_content(p: Poly):
    """split_content by Fraction division alone: scale = +-gcd/lcm of the
    coefficients, sign of the leading term."""
    if p.is_zero():
        return Fraction(0), P_ZERO
    num_gcd = den_lcm = 0
    for c in p.terms.values():
        num_gcd = math.gcd(num_gcd, c.numerator)
        den_lcm = math.lcm(den_lcm or 1, c.denominator)
    scale = Fraction(num_gcd, den_lcm) * (1 if p.leading()[1] > 0 else -1)
    return scale, Poly({term: Fraction(c) / scale for term, c in p.terms.items()})


@settings(max_examples=150, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-12, 12) | st.fractions(-4, 4, max_denominator=6),
        max_size=5,
    ),
    factor=st.sampled_from([1, -1, 6, -35]),
)
def test_split_content_matches_fraction_division(terms, factor):
    # integer coefficients (floor division) and rational ones, either sign,
    # with a common factor, and the zero polynomial (content 0)
    p = Poly({term: c * factor for term, c in terms.items()})
    scale, prim = p.split_content()
    want_scale, want_prim = fraction_split_content(p)
    assert type(scale) is Fraction and scale == want_scale
    assert prim.terms == want_prim.terms
    assert all(type(c) is int for c in prim.terms.values())
    assert p.is_zero() or (prim.leading()[1] > 0 and scale * prim == p)


def test_rendering_grammar():
    assert (P_ONE - Q * T).render() == "-q*t + 1"
    assert ((P_ONE - Q) * (P_ONE + T)).render() == "-q*t + t - q + 1"
    f = ratfunc_reduce((P_ONE - Q) * (P_ONE + T), P_ONE - Q * T)
    assert f.render() == "(q*t - t + q - 1)/(q*t - 1)"
    assert RF_ZERO.render() == "(0)"
    assert RatFunc.make(T, Poly.const(2)).render() == "(1/2*t)"
    assert ratfunc_reduce(P_ONE - t_pow(2), P_ONE - T).render() == "(t + 1)"


def test_canonical_form_invariants():
    f = ratfunc_reduce((P_ONE - Q) * (P_ONE + T), P_ONE - Q * T)
    # num and den are coprime primitive integer polynomials
    assert poly_gcd(f.num, f.den) == P_ONE
    for poly in (f.num, f.den):
        assert all(c.denominator == 1 for c in poly.terms.values())
    # den's graded-lex leading coefficient is positive
    assert f.den.leading()[1] > 0
    assert f.num.leading()[1] > 0
