import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgen.criteria import (
    _parameters_collide,
    FAMILIES,
    FamilySpec,
    GradingViolation,
    Reason,
    Specialization,
    UnsupportedCombination,
    check_sequence,
    checked_criterion,
    criterion,
    inner_value,
    parse_sequence_file,
    render_value,
    value_is_unit,
    verdict_records,
)
from symgen.exactalg import P_ONE, Q, T, CycloElem, PoleAtRootOfUnity, RatFunc, ZeroDenominator
from symgen.partitions import EMPTY, Partition, partitions_of
from symgen.symfunc import hall_inner, multiply, sym

from exact_reference import specialized_by_expansion


def P(*parts):
    return Partition(parts)


# ---------------------------------------------------------------------------
# FamilySpec validation
# ---------------------------------------------------------------------------

def test_unsupported_combinations():
    with pytest.raises(UnsupportedCombination):
        FamilySpec("hl-P", "Z")
    with pytest.raises(UnsupportedCombination):
        FamilySpec("m", "Qt")
    with pytest.raises(UnsupportedCombination):
        FamilySpec("m", "Q", Specialization.at_value(2))
    with pytest.raises(UnsupportedCombination):
        FamilySpec("mac-P", "Q", Specialization.at_root(2))
    with pytest.raises(UnsupportedCombination):
        FamilySpec("hl-P", "Q")  # specialization required over Q
    with pytest.raises(UnsupportedCombination):
        FamilySpec("nonsense", "Q")
    FamilySpec("hl-P", "Qt")
    FamilySpec("hl-P", "Q", Specialization.at_root(3))
    FamilySpec("mac-J", "Q", Specialization.at_pair(2, 3))


# ---------------------------------------------------------------------------
# individual clauses
# ---------------------------------------------------------------------------

def test_monomial_clauses():
    assert criterion(FamilySpec("m", "Q"), (2, 2), None, 4) == (
        True,
        Reason("monomial-generates"),
    )
    ok, reason = criterion(FamilySpec("m", "Z"), (1, 1, 1), None, 3)
    assert ok and reason == Reason("single-column")
    assert not criterion(FamilySpec("m", "Z"), (2, 1), None, 3)[0]


def test_skew_monomial_field_clause():
    spec = FamilySpec("skew-m", "Q")
    ok, reason = criterion(spec, (4, 3, 1), (3,), 5)
    assert ok and reason == Reason("refines-degree")
    assert not criterion(spec, (2, 2), (1,), 3)[0]


def test_skew_monomial_unit_cases():
    spec = FamilySpec("skew-m", "Z")
    assert criterion(spec, [1] * 5, [1] * 3, 2) == (
        True,
        Reason("skew-monomial-unit", 1),
    )
    # (c^d, 1^n) with c > n over a column
    assert criterion(spec, (3, 3, 1, 1), (1,) * 6, 2) == (
        True,
        Reason("skew-monomial-unit", 2),
    )
    # column over a rectangle
    assert criterion(spec, [1] * 6, (2, 2), 2) == (
        True,
        Reason("skew-monomial-unit", 3),
    )
    # rectangle-plus-column over a coprime rectangle
    assert criterion(spec, (3, 3, 1, 1), (2, 2, 2), 2) == (
        True,
        Reason("skew-monomial-unit", 4),
    )
    # gcd(a, c) != 1 fails case 4
    assert not criterion(spec, (4, 4, 1, 1), (2, 2, 2, 2), 2)[0]
    # c <= n fails case 2
    assert not criterion(spec, (2, 1, 1, 1), (1,) * 3, 2)[0]
    # case 4 with a = 1 reports the lowest matching case (2)
    assert criterion(spec, (3, 3, 1), (1,) * 6, 1) == (
        True,
        Reason("skew-monomial-unit", 2),
    )


def test_skew_complete_clauses():
    q_spec = FamilySpec("skew-h", "Q")
    assert criterion(q_spec, (3, 1), (2,), 2)[0]
    assert not criterion(q_spec, (2, 2), (1,), 3)[0]
    z_spec = FamilySpec("skew-h", "Z")
    assert criterion(z_spec, (4, 2, 1), (3,), 4) == (
        True,
        Reason("skew-complete-unit", 1),
    )
    assert criterion(z_spec, (3, 2), (1, 1), 3) == (
        True,
        Reason("skew-complete-unit", 2),
    )
    assert criterion(z_spec, (5,), (1, 1), 3) == (
        True,
        Reason("skew-complete-unit", 3),
    )
    # lambda = (n+m) with mu = (m) matches case 1 first
    assert criterion(z_spec, (5,), (2,), 3) == (
        True,
        Reason("skew-complete-unit", 1),
    )
    # two parts >= n is never a unit
    assert not criterion(z_spec, (3, 3), (2, 1), 3)[0]
    # elementary mirrors complete
    assert criterion(FamilySpec("skew-e", "Z"), (3, 2), (1, 1), 3)[0]


def test_schur_clauses():
    assert criterion(FamilySpec("s", "Q"), (3, 1, 1), None, 5)[0]
    assert not criterion(FamilySpec("s", "Z"), (2, 2), None, 4)[0]
    assert criterion(FamilySpec("skew-s", "Z"), (2, 2), (1,), 3) == (
        True,
        Reason("ribbon"),
    )
    assert not criterion(FamilySpec("skew-s", "Q"), (3, 1), (1,), 3)[0]


def test_hl_P_clauses():
    assert criterion(FamilySpec("hl-P", "Qt"), (2, 1), None, 3) == (
        True,
        Reason("deformed-generic"),
    )
    at0 = FamilySpec("hl-P", "Q", Specialization.at_value(0))
    assert criterion(at0, (2, 1, 1), None, 4)[0]  # hook
    assert not criterion(at0, (2, 2), None, 4)[0]
    at1 = FamilySpec("hl-P", "Q", Specialization.at_value(1))
    assert criterion(at1, (2, 2), None, 4)[0]  # monomials: no restriction
    generic = FamilySpec("hl-P", "Q", Specialization.at_value(Fraction(2, 3)))
    assert criterion(generic, (2, 2), None, 4) == (True, Reason("nonroot-parameter"))
    # at a primitive 2nd root: the floor conditions
    at_root = FamilySpec("hl-P", "Q", Specialization.at_root(2))
    ok, reason = criterion(at_root, (2,), None, 2)
    assert not ok and reason == Reason("root-multiplicity-balance", 1)
    assert criterion(at_root, (1, 1), None, 2)[0]
    ok, reason = criterion(at_root, (2, 1), None, 3)
    assert ok and reason == Reason("root-multiplicity-balance", 2)
    minus_one = FamilySpec("hl-P", "Q", Specialization.at_value(-1))
    for n in range(1, 6):
        for lam in partitions_of(n):
            assert criterion(minus_one, lam, None, n) == criterion(
                at_root, lam, None, n
            )


def test_hl_Q_clauses():
    assert criterion(FamilySpec("hl-Q", "Qt"), (2, 1), None, 3)[0]
    at_root = FamilySpec("hl-Q", "Q", Specialization.at_root(3))
    assert criterion(at_root, (2, 2), None, 4) == (True, Reason("root-q-nonvanishing"))
    assert not criterion(at_root, (3,), None, 3)[0]  # k divides n
    assert not criterion(at_root, [1] * 4, None, 4)[0]  # l - 1 >= k
    # the boundary l = k+1 vanishes (strict inequality)
    assert not criterion(
        FamilySpec("hl-Q", "Q", Specialization.at_root(2)), (1, 1, 1), None, 3
    )[0]
    at1 = FamilySpec("hl-Q", "Q", Specialization.at_value(1))
    assert not criterion(at1, (2,), None, 2)[0]


def test_big_schur_clauses():
    assert criterion(FamilySpec("big-S", "Qt"), (3, 1), None, 4)[0]
    assert not criterion(FamilySpec("big-S", "Qt"), (2, 2), None, 4)[0]
    at_root = FamilySpec("big-S", "Q", Specialization.at_root(2))
    assert criterion(at_root, (2, 1), None, 3) == (
        True,
        Reason("hook-and-nondividing"),
    )
    assert not criterion(at_root, (3, 1), None, 4)[0]  # 2 | 4
    at_two = FamilySpec("big-S", "Q", Specialization.at_value(2))
    assert criterion(at_two, (3, 1), None, 4)[0]


def test_whittaker_clauses():
    assert criterion(FamilySpec("whittaker", "Qt"), (2, 2), None, 4)[0]
    at_root = FamilySpec("whittaker", "Q", Specialization.at_root(2))
    ok, reason = criterion(at_root, (3, 1), None, 4)
    assert not ok and reason == Reason("first-part-at-most-root-order")
    assert criterion(at_root, (2, 2), None, 4)[0]
    at0 = FamilySpec("whittaker", "Q", Specialization.at_value(0))
    assert criterion(at0, (2, 1, 1), None, 4)[0]
    assert not criterion(at0, (2, 2), None, 4)[0]


def test_mac_clauses():
    assert criterion(FamilySpec("mac-P", "Qqt"), (2, 2), None, 4)[0]
    free = FamilySpec("mac-P", "Q", Specialization.at_pair(Fraction(2), Fraction(3)))
    assert criterion(free, (2, 2), None, 4) == (
        True,
        Reason("parameters-multiplicatively-independent"),
    )
    # q = 4, t = 2: 4^1 = 2^2 collides, fall back to exact evaluation
    collide = FamilySpec("mac-P", "Q", Specialization.at_pair(4, 2))
    ok, reason = criterion(collide, (2,), None, 2)
    assert reason in (Reason("specialized-value"), Reason("specialization-undefined"))
    # q = t = 1/2 degenerates to Schur: hooks survive, non-hooks do not
    schur_pt = FamilySpec(
        "mac-P", "Q", Specialization.at_pair(Fraction(1, 2), Fraction(1, 2))
    )
    assert criterion(schur_pt, (2, 1), None, 3)[0]
    assert not criterion(schur_pt, (2, 2), None, 4)[0]
    # xi = 1 fails the hypothesis and kills the (1 - q^(j-1)) cell factor
    xi_one = FamilySpec("mac-P", "Q", Specialization.at_pair(1, 2))
    ok, reason = criterion(xi_one, (2,), None, 2)
    assert reason == Reason("specialized-value")
    assert not ok


def test_mac_collision_beyond_small_exponents():
    # q = t^13: the closed value is exactly 0, so the pair must not pass as free
    spec = FamilySpec("mac-J", "Q", Specialization.at_pair(2**13, 2))
    assert criterion(spec, (2,) * 14, None, 28) == (False, Reason("specialized-value"))
    assert inner_value(spec, (2,) * 14, None, 28) == 0


@pytest.mark.parametrize(
    "q,t,collide",
    [
        ("-8", "4", True), ("4/9", "27/8", True), ("1/2", "2", True),
        ("-2", "2", True), ("2", "3", False), ("3", "5", False),
        ("0", "0", True), ("0", "2", False), ("0", "-1", True), ("1", "5", True),
    ],
)
def test_parameter_collisions(q, t, collide):
    assert _parameters_collide(Fraction(q), Fraction(t)) == collide
    spec = FamilySpec("mac-P", "Q", Specialization.at_pair(q, t))
    _, reason = criterion(spec, (2, 1), None, 3)
    assert (reason == Reason("parameters-multiplicatively-independent")) == (not collide)


def test_grading_violation():
    with pytest.raises(GradingViolation):
        criterion(FamilySpec("skew-m", "Z"), (3, 3, 1, 1), (2, 2), 2)
    with pytest.raises(GradingViolation):
        criterion(FamilySpec("m", "Q"), (2, 1), None, 2)
    with pytest.raises(ValueError):
        criterion(FamilySpec("m", "Q"), (2, 1), (1,), 3)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_inner_values():
    assert inner_value(FamilySpec("s", "Q"), (3, 1, 1), None, 5) == 1
    assert inner_value(FamilySpec("s", "Q"), (2, 2), None, 4) == 0
    assert inner_value(FamilySpec("skew-s", "Z"), (2, 2), (1,), 3) == -1
    v = inner_value(FamilySpec("m", "Z"), (1, 1), None, 2)
    assert v == 1 or v == -1
    hl = inner_value(FamilySpec("hl-P", "Qt"), (2, 1), None, 3)
    assert isinstance(hl, RatFunc) and hl.render() == "(-t^2 - t - 1)"
    root = inner_value(
        FamilySpec("hl-P", "Q", Specialization.at_root(2)), (2, 1), None, 3
    )
    assert isinstance(root, CycloElem) and root.as_fraction() == -1
    atval = inner_value(
        FamilySpec("hl-P", "Q", Specialization.at_value(2)), (2, 1), None, 3
    )
    assert atval == Fraction(-7)
    # f values are signed m values
    for n in range(1, 5):
        for lam in partitions_of(n):
            mv = inner_value(FamilySpec("m", "Q"), lam, None, n)
            fv = inner_value(FamilySpec("f", "Q"), lam, None, n)
            assert fv == (-1) ** (n - 1) * mv


def test_value_is_unit():
    spec_z = FamilySpec("m", "Z")
    assert value_is_unit(spec_z, Fraction(-1))
    assert not value_is_unit(spec_z, Fraction(2))
    spec_q = FamilySpec("m", "Q")
    assert value_is_unit(spec_q, Fraction(2))
    assert not value_is_unit(spec_q, Fraction(0))


def test_render_value():
    assert render_value(Fraction(-3)) == "-3"
    assert render_value(None) is None


# ---------------------------------------------------------------------------
# the master cross-check: criterion <=> unit-ness of the computed value
# ---------------------------------------------------------------------------

def _all_shapes(spec, nmax, msizes=(0, 1, 2, 3)):
    for n in range(1, nmax + 1):
        if spec.is_skew:
            for m in msizes:
                for mu in partitions_of(m):
                    for lam in partitions_of(m + n):
                        yield lam, mu, n
        else:
            for lam in partitions_of(n):
                yield lam, None, n


@pytest.mark.parametrize(
    "family,ring",
    [
        ("m", "Q"), ("m", "Z"), ("f", "Q"), ("f", "Z"),
        ("skew-m", "Q"), ("skew-m", "Z"), ("skew-f", "Q"), ("skew-f", "Z"),
        ("skew-h", "Q"), ("skew-h", "Z"), ("skew-e", "Q"), ("skew-e", "Z"),
        ("s", "Q"), ("s", "Z"), ("skew-s", "Q"), ("skew-s", "Z"),
    ],
)
def test_classical_criterion_matches_value(family, ring):
    spec = FamilySpec(family, ring)
    nmax = 5 if not spec.is_skew else 4
    for lam, mu, n in _all_shapes(spec, nmax, msizes=(0, 1, 2)):
        ok, _ = criterion(spec, lam, mu, n)
        value = inner_value(spec, lam, mu, n)
        assert ok == value_is_unit(spec, value), (family, ring, lam, mu, n)


@pytest.mark.parametrize(
    "family", ["hl-P", "hl-Q", "big-S", "whittaker", "mac-P", "mac-J"]
)
def test_deformed_criterion_matches_value(family):
    ring = "Qqt" if family.startswith("mac") else "Qt"
    spec = FamilySpec(family, ring)
    nmax = 4
    for lam, _, n in _all_shapes(spec, nmax):
        ok, _ = criterion(spec, lam, None, n)
        value = inner_value(spec, lam, None, n)
        assert ok == value_is_unit(spec, value), (family, lam, n)


@pytest.mark.parametrize("family", ["hl-P", "hl-Q", "big-S", "whittaker"])
@pytest.mark.parametrize("k", [2, 3])
def test_specialized_criterion_matches_value(family, k):
    spec = FamilySpec(family, "Q", Specialization.at_root(k))
    for n in range(1, 6):
        for lam in partitions_of(n):
            ok, _ = criterion(spec, lam, None, n)
            value = inner_value(spec, lam, None, n)
            assert ok == (not value.is_zero()), (family, k, lam, n)


# one-parameter values and roots, and (q,t) pairs: free, q = t = 1 (where
# some P_lam do not exist), q = t^13 and q^4 = t^5
SWEEP_VALUES = (0, 1, -1, Fraction(2, 3))
SWEEP_ROOTS = (2, 3, 4)
SWEEP_PAIRS = ((2, 3), (1, 1), (2**13, 2), (3**5, 3**4))


def _admitted_specs():
    for name, fam in FAMILIES.items():
        for ring in fam.rings:
            if ring != "Q" or not fam.deformation:
                yield FamilySpec(name, ring)
            elif fam.deformation == "t":
                for v in SWEEP_VALUES:
                    yield FamilySpec(name, ring, Specialization.at_value(v))
                for k in SWEEP_ROOTS:
                    yield FamilySpec(name, ring, Specialization.at_root(k))
            else:
                for q, t in SWEEP_PAIRS:
                    yield FamilySpec(name, ring, Specialization.at_pair(q, t))


def _spec_id(spec):
    spz = spec.specialization
    if spz is None:
        return f"{spec.family}-{spec.ring}"
    at = {
        "value": spz.value,
        "root": f"zeta{spz.root_order}",
        "pair": f"{spz.q_value},{spz.t_value}",
    }[spz.kind]
    return f"{spec.family}-{spec.ring}-{at}"


@pytest.mark.parametrize("spec", list(_admitted_specs()), ids=_spec_id)
def test_every_admitted_spec_criterion_matches_value(spec):
    """checked_criterion raises CriterionMismatch on any disagreement."""
    inners = (EMPTY, P(1), P(2), P(1, 1)) if spec.is_skew else (EMPTY,)
    for n in range(1, 9):
        for mu in inners:
            for lam in partitions_of(n + mu.size):
                checked_criterion(spec, lam, mu, n)


def _rationals(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["mac-P", "mac-J"]),
    pair=st.one_of(
        st.tuples(_rationals(10**30), _rationals(10**30)),
        # q = b^i and t = +-b^j collide: q^(2j) = t^(2i)
        st.builds(
            lambda base, i, j, sign: (base**i, sign * base**j),
            _rationals(10**12).filter(bool),
            st.integers(-6, 6),
            st.integers(-6, 6),
            st.sampled_from([1, -1]),
        ),
    ),
)
def test_mac_rational_pairs_criterion_matches_value(family, pair):
    spec = FamilySpec(family, "Q", Specialization.at_pair(*pair))
    for n in range(1, 7):
        for lam in partitions_of(n):
            checked_criterion(spec, lam, None, n)



def test_colliding_pair_evaluates_the_closed_form_once(monkeypatch):
    # at q = t^2 the Macdonald verdict is the specialized value itself; the
    # clause takes it from the value the check computes anyway
    import symgen.criteria as criteria

    calls = []
    original = criteria.mac_P_pn_keys

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(criteria, "mac_P_pn_keys", counted)
    spec = FamilySpec("mac-P", "Q", Specialization.at_pair(4, 2))
    ok, reason, value = checked_criterion(spec, (2, 1), None, 3)
    assert (ok, reason.code()) == (value != 0, "specialized-value")
    assert len(calls) == 1


# the specializations the key-wise evaluation is checked at; the colliding
# pairs (q^i = t^j) reach zeros and vanishing denominators, and at (1, 1)
# most Macdonald values are undefined
KEYWISE_SPECIALIZATIONS = {
    "t": [Specialization.at_value(Fraction(v)) for v in ("0", "1", "-1", "1/2", "2")]
    + [Specialization.at_root(k) for k in (1, 2, 3, 4, 6)],
    "qt": [
        Specialization.at_pair(Fraction(q), Fraction(t))
        for q, t in (("2", "3"), ("4", "2"), ("2", "4"), ("1", "3"), ("2", "1"),
                     ("0", "0"), ("-1", "1"), ("1/2", "1/4"), ("1", "1"))
    ],
}


@pytest.mark.parametrize(
    "name", ["hl-P", "hl-Q", "big-S", "whittaker", "mac-P", "mac-J"]
)
def test_keywise_specialization_matches_expansion(name):
    # a specialization evaluates the key count; the reference expands the
    # closed form to a RatFunc first and specializes that
    fam = FAMILIES[name]
    outcomes = Counter()
    for spz in KEYWISE_SPECIALIZATIONS[fam.deformation]:
        spec = FamilySpec(name, "Q", spz)
        for n in range(1, 9):
            for lam in partitions_of(n):
                want = specialized_by_expansion(spec, lam, EMPTY, n)
                got = inner_value(spec, lam, None, n)
                assert render_value(got) == render_value(want), (spz, lam)
                outcomes["undefined" if want is None else bool(want)] += 1
    assert outcomes[False] and outcomes[True]
    assert outcomes["undefined"] or name != "mac-P"


def test_hl_Q_value_counts_one_minus_t_n_as_a_binomial(monkeypatch):
    from symgen import exactalg
    from symgen.deformed import _cyclotomic_factor, hl_Q_pn_closed, hl_Q_pn_keys

    cases = [(lam, n) for n in range(1, 9) for lam in partitions_of(n)]
    products = [hl_Q_pn_closed(lam, n) * RatFunc.make(P_ONE - T**n) for lam, n in cases]
    calls = []
    original = exactalg.poly_gcd

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exactalg, "poly_gcd", counted)
    exactalg.cyclotomic_poly.cache_clear()
    _cyclotomic_factor.cache_clear()
    assert [hl_Q_pn_keys(lam, n).expand() for lam, n in cases] == products
    assert calls == []


# (family, ring, specialization) of every kind of spec the closed-form check
# answers: classical straight over Q and Z, skew over Z, one-parameter
# generic / at a root / at a value, Macdonald generic / at a pair
CHECK_SPECS = (
    [FamilySpec(fam, ring) for fam in ("m", "f", "s") for ring in ("Q", "Z")]
    + [FamilySpec(fam, "Z") for fam in ("skew-m", "skew-f", "skew-h", "skew-e", "skew-s")]
    + [
        spec
        for fam in ("hl-P", "hl-Q", "big-S", "whittaker")
        for spec in (
            FamilySpec(fam, "Qt"),
            FamilySpec(fam, "Q", Specialization.at_root(3)),
            FamilySpec(fam, "Q", Specialization.at_value(Fraction(1, 2))),
        )
    ]
    + [
        spec
        for fam in ("mac-P", "mac-J")
        for spec in (FamilySpec(fam, "Qqt"), FamilySpec(fam, "Q", Specialization.at_pair(2, 3)))
    ]
)


def _guard_sequence(spec):
    """One graded sequence up to degree 8: some partition of n,
    or for a skew family lam/mu with |mu| = n mod 4 and a part of lam >= n."""
    seq = []
    for n in range(1, 9):
        shapes = partitions_of(n)
        if not spec.is_skew:
            seq.append((shapes[n % len(shapes)], None))
            continue
        mu = partitions_of(n % 4)[0] if n % 4 else EMPTY
        lam = (mu[0] + n,) + mu[1:] if n % 2 else sorted(mu + (n,), reverse=True)
        seq.append((lam, mu))
    return seq


def test_check_path_takes_no_gcd_and_no_product(monkeypatch):
    # every closed form reaches its value already reduced, and skew h/e pair
    # in degree |mu|: the check makes no gcd, no trial division, no
    # canonicalization through RatFunc.make and no symmetric-function product
    import sys

    from symgen import exactalg

    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("symgen.")]
    for name in ("poly_gcd", "try_exact_div", "multiply"):
        for module in modules:
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    make = counted("RatFunc.make", exactalg.RatFunc.make)
    monkeypatch.setattr(exactalg.RatFunc, "make", staticmethod(make))
    assert len(CHECK_SPECS) == 27
    specialized = 0
    for spec in CHECK_SPECS:
        with monkeypatch.context() as patch:
            # a specialized value is read off the key count: no polynomial
            # product at all
            if spec.specialization is not None:
                specialized += 1
                patch.setattr(
                    exactalg.Poly, "__mul__", counted("Poly.__mul__", exactalg.Poly.__mul__)
                )
            check_sequence(spec, _guard_sequence(spec))
    assert specialized == 10
    assert calls == {}


def _skew_pairing_reference(basis, lam, mu, n):
    """<b_lam, b_mu p_n> by multiplying out and pairing in degree |lam|."""
    return hall_inner(sym(basis, lam), multiply(sym(basis, mu), sym("p", (n,))))


def test_skew_complete_values_match_products():
    for n in range(1, 6):
        for m in range(0, 5):
            for mu in partitions_of(m):
                for lam in partitions_of(n + m):
                    want_h = _skew_pairing_reference("h", lam, mu, n)
                    want_e = _skew_pairing_reference("e", lam, mu, n)
                    for ring in ("Q", "Z"):
                        got_h = inner_value(FamilySpec("skew-h", ring), lam, mu, n)
                        got_e = inner_value(FamilySpec("skew-e", ring), lam, mu, n)
                        assert (got_h, got_e) == (want_h, want_e), (lam, mu, n)


def test_specialization_apply():
    f = RatFunc.make(P_ONE - T * T, P_ONE - T)  # 1 + t
    assert Specialization.at_value(2).apply(f) == 3
    assert Specialization.at_root(3).apply(f).render() == "(t + 1) mod Phi_3"
    assert Specialization.at_value(2).apply(f.swap_vars()) == 3
    assert Specialization.at_root(2).apply(f.swap_vars()).as_fraction() == 0
    # a value in q alone sets q, as its swap in t alone sets t
    in_q = RatFunc.make(Q**3 - 2 * Q + 5, Q * Q + Q + 3)
    at_points = [Specialization.at_value(Fraction(-3, 2))]
    at_points += [Specialization.at_root(k) for k in (3, 4, 6)]
    for spz in at_points:
        assert spz.apply(in_q) == spz.apply(in_q.swap_vars()), spz
    assert CycloElem.from_poly(Q**5 - Q, 6) == CycloElem.from_poly(T**5 - T, 6)
    # a value in both q and t has no one parameter to set
    both_vars = RatFunc.make(Q + T)
    for spz in (Specialization.at_value(2), Specialization.at_root(3)):
        with pytest.raises(ValueError):
            spz.apply(both_vars)
    assert Specialization.at_pair(5, 2).apply(f) == 3
    pole = RatFunc.make(P_ONE, P_ONE - T)
    for spz in (Specialization.at_value(1), Specialization.at_root(1)):
        with pytest.raises(ZeroDenominator):
            spz.apply(pole)
    with pytest.raises(PoleAtRootOfUnity):
        Specialization.at_root(1).apply(pole)
    # both parts vanish at (1, 1): the denominator is checked first
    both = RatFunc.make(Q - T, Q + T - 2)
    with pytest.raises(ZeroDenominator):
        Specialization.at_pair(1, 1).apply(both)
    assert Specialization.at_pair(1, 2).apply(both) == -1


def test_value_is_unit_accepts_integer_determinants():
    assert value_is_unit(FamilySpec("s", "Z"), -1)
    assert not value_is_unit(FamilySpec("s", "Z"), 2)
    assert not value_is_unit(FamilySpec("s", "Z"), None)


def test_readme_families_table_matches_family_table():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Families and rings")[1]
    listed = {}
    rows = [row for row in section.split("\n## ")[0].splitlines() if row.startswith("|")]
    for row in rows[2:]:  # below the header and the rule
        names, rings = row.split("|")[1:3]
        for name in names.split(","):
            listed[name.strip()] = set(re.findall(r"\b(?:Qqt|Qt|Q|Z)\b", rings))
    assert listed == {name: set(fam.rings) for name, fam in FAMILIES.items()}


def test_omega_duality_of_verdicts():
    for ring in ("Q", "Z"):
        h_spec = FamilySpec("skew-h", ring)
        e_spec = FamilySpec("skew-e", ring)
        for lam, mu, n in _all_shapes(h_spec, 4, msizes=(0, 1, 2)):
            assert criterion(h_spec, lam, mu, n) == criterion(e_spec, lam, mu, n)
            hv = inner_value(h_spec, lam, mu, n)
            ev = inner_value(e_spec, lam, mu, n)
            assert abs(hv) == abs(ev)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def test_check_sequence_monomials_always_generate():
    seq = [(lam, None) for lam in [(1,), (2,), (2, 1), (2, 2), (3, 2), (3, 3)]]
    verdict = check_sequence(FamilySpec("m", "Q"), seq)
    assert verdict.overall and len(verdict.per_n) == 6


def test_check_sequence_hooks():
    seq = [((1,), None)] + [((n - 1, 1), None) for n in range(2, 7)]
    assert check_sequence(FamilySpec("s", "Q"), seq).overall


def test_check_sequence_hl_Q_at_root_fails_at_k():
    seq = [([1] * n, None) for n in range(1, 4)]
    spec = FamilySpec("hl-Q", "Q", Specialization.at_root(3))
    verdict = check_sequence(spec, seq)
    assert not verdict.overall
    assert verdict.per_n[2].criterion is False  # n = 3 = k


def test_check_sequence_grading_violation():
    with pytest.raises(GradingViolation) as err:
        check_sequence(FamilySpec("m", "Q"), [((1,), None), ((3,), None)])
    assert err.value.index == 2


def test_check_sequence_skew_defaults_empty_inner():
    seq = [((1,), None), ((3, 1), (2,))]
    verdict = check_sequence(FamilySpec("skew-m", "Q"), seq)
    assert verdict.per_n[0].criterion


def test_verdict_records_field_order():
    seq = [((1,), None), ((2,), None)]
    spec = FamilySpec("s", "Z")
    records = verdict_records(spec, check_sequence(spec, seq))
    assert list(records[0]) == ["n", "family", "ring", "criterion", "reason", "value"]
    assert records[0] == {
        "n": 1,
        "family": "s",
        "ring": "Z",
        "criterion": True,
        "reason": "hook",
        "value": "1",
    }


def test_parse_sequence_file():
    text = """
    # a comment
    1: [1]
    2: [2,1]/[1]   # inline comment
    3: [3]
    """
    seq = parse_sequence_file(text)
    assert seq == [
        (P(1), None),
        (P(2, 1), P(1)),
        (P(3), None),
    ]
    with pytest.raises(ValueError):
        parse_sequence_file("2: [2]")
    with pytest.raises(ValueError):
        parse_sequence_file("1: [1]\n3: [3]")
    with pytest.raises(ValueError):
        parse_sequence_file("nonsense")
    with pytest.raises(ValueError):
        parse_sequence_file("# only comments\n")
