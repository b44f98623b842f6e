"""The acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

from contextlib import contextmanager
from fractions import Fraction

from symgen.criteria import (
    FamilySpec,
    Specialization,
    criterion,
    inner_value,
    value_is_unit,
)
from symgen.deformed import (
    deformed_inner,
    hl_P,
    hl_P_pn_closed,
    hl_Q,
    hl_Q_pn_closed,
    mac_J,
    mac_J_pn_closed,
    mac_P,
    mac_P_pn_closed,
    skew_hl_P,
    skew_hl_P_pn_inner,
    specialize_coeffs,
    whittaker,
    whittaker_pn_closed,
)
from symgen.exactalg import (
    P_ONE,
    Poly,
    RING_QQT,
    RING_QT,
    RatFunc,
    specialize_root_of_unity,
)
from symgen.oracle import conjecture_probe, verdict
from symgen.partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    is_hook,
    is_rectangular,
    is_ribbon,
    partitions_of,
    refines,
    ribbon_height,
    union,
)
from symgen.symfunc import (
    hall_inner,
    multiply,
    skew,
    skew_monomial_pn_inner,
    skew_monomial_weight_sum,
    sym,
    to_basis,
)
from symgen.tabloids import w

from exact_reference import ratfunc_subs


@contextmanager
def reported(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({name}): FAIL")
        raise
    print(f"acceptance {number} ({name}): PASS")


def ones(m):
    return Partition([1] * m)


def test_acceptance_1_monomial_pairings():
    with reported(1, "monomial pairings nonzero; unit iff single column"):
        for n in range(1, 10):
            for lam in partitions_of(n):
                value = skew_monomial_pn_inner(lam, EMPTY, n)
                assert value != 0
                assert (abs(value) == 1) == (lam == ones(n))


def test_acceptance_2_skew_monomial():
    with reported(2, "skew monomial: refinement, integrality, dual route"):
        for m in range(4):
            for n in range(1, 6):
                for mu in partitions_of(m):
                    for lam in partitions_of(m + n):
                        closed = skew_monomial_pn_inner(lam, mu, n)
                        assert (closed != 0) == refines(lam, n)
                        weight_sum = skew_monomial_weight_sum(lam, mu, n)
                        assert weight_sum.denominator == 1 and weight_sum >= 0
                        via_skew = hall_inner(
                            skew("m", lam, mu), sym("p", (n,))
                        )
                        assert via_skew == closed


def test_acceptance_3_unit_classification_and_weight_inequalities():
    with reported(3, "unit classification of skew monomials; weight bounds"):
        spec = FamilySpec("skew-m", "Z")
        for m in range(5):
            for n in range(1, 5):
                for mu in partitions_of(m):
                    for lam in partitions_of(m + n):
                        is_one = skew_monomial_weight_sum(lam, mu, n) == 1
                        predicted, _ = criterion(spec, lam, mu, n)
                        assert is_one == predicted, (lam, mu, n)
        for n in range(1, 11):
            for lam in partitions_of(n):
                if not is_rectangular(lam):
                    assert w((n,), lam) >= n
        for n in range(1, 10):
            for xi in partitions_of(n):
                for lam in partitions_of(n):
                    value = w(xi, lam)
                    if value >= 1:
                        assert (value == 1) == (lam == ones(n))
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
                                if w2:
                                    assert w(union(xi, eta), union(lam, mu)) >= w1 * w2


def test_acceptance_4_skew_complete_and_elementary():
    with reported(4, "skew h/e: nonvanishing, Z units, omega duality"):
        for size in range(1, 9):
            for lam in partitions_of(size):
                for n in range(1, size + 1):
                    p_n = sym("p", (n,))
                    for mu in partitions_of(size - n):
                        h_val = hall_inner(
                            sym("h", lam), multiply(sym("h", mu), p_n)
                        )
                        assert (h_val != 0) == (lam[0] >= n), (lam, mu, n)
                        e_val = hall_inner(
                            sym("e", lam), multiply(sym("e", mu), p_n)
                        )
                        assert e_val == (-1) ** (n - 1) * h_val
                        if size <= 7:
                            predicted, _ = criterion(
                                FamilySpec("skew-h", "Z"), lam, mu, n
                            )
                            assert (abs(h_val) == 1) == predicted, (lam, mu, n)
                            predicted_e, _ = criterion(
                                FamilySpec("skew-e", "Z"), lam, mu, n
                            )
                            assert predicted_e == predicted


def test_acceptance_5_schur_families():
    with reported(5, "Schur hook rule and skew Schur ribbon signs"):
        for n in range(1, 8):
            p_n = sym("p", (n,))
            for lam in partitions_of(n):
                value = hall_inner(sym("s", lam), p_n)
                want = (-1) ** (n - lam[0]) if is_hook(lam) else 0
                assert value == want
        for size in range(1, 7):
            for lam in partitions_of(size):
                for n in range(1, size + 1):
                    p_n = sym("p", (n,))
                    for mu in partitions_of(size - n):
                        value = hall_inner(skew("s", lam, mu), p_n)
                        shape = SkewPartition(lam, mu)
                        if is_ribbon(shape):
                            assert value == (-1) ** ribbon_height(shape)
                        else:
                            assert value == 0


def test_acceptance_6_hall_littlewood():
    with reported(6, "Hall-Littlewood: closed forms, limits, roots of unity"):
        for n in range(1, 6):
            p_n = sym("p", (n,), RING_QT)
            for lam in partitions_of(n):
                assert hall_inner(hl_P(lam), p_n) == hl_P_pn_closed(lam, n)
                assert deformed_inner(hl_Q(lam), p_n, "t") == hl_Q_pn_closed(lam, n)
                at_zero = specialize_coeffs(hl_P(lam), Specialization.at_value(0))
                assert at_zero == to_basis(sym("s", lam), "m")
                at_one = specialize_coeffs(hl_P(lam), Specialization.at_value(1))
                assert at_one == to_basis(sym("m", lam), "m")
        for k in (2, 3, 4):
            root_spec = FamilySpec("hl-P", "Q", Specialization.at_root(k))
            q_spec = FamilySpec("hl-Q", "Q", Specialization.at_root(k))
            for n in range(1, 7):
                for lam in partitions_of(n):
                    p_val = specialize_root_of_unity(hl_P_pn_closed(lam, n), k)
                    predicted, _ = criterion(root_spec, lam, None, n)
                    assert (not p_val.is_zero()) == predicted, (k, lam, n)
                    hall_q = hl_Q_pn_closed(lam, n) * RatFunc.make(
                        P_ONE - Poly.t(n)
                    )
                    q_val = specialize_root_of_unity(hall_q, k)
                    predicted_q, _ = criterion(q_spec, lam, None, n)
                    assert (not q_val.is_zero()) == predicted_q, (k, lam, n)
        # Schur P / Q functions: the k = 2 instance at t = -1
        minus_one = Specialization.at_value(-1)
        for n in range(1, 6):
            for lam in partitions_of(n):
                p_at = specialize_coeffs(hl_P(lam), minus_one)
                value = hall_inner(p_at, sym("p", (n,)))
                predicted, _ = criterion(
                    FamilySpec("hl-P", "Q", Specialization.at_value(-1)),
                    lam, None, n,
                )
                assert (value != 0) == predicted
                q_at = specialize_coeffs(hl_Q(lam), minus_one)
                q_value = hall_inner(q_at, sym("p", (n,)))
                distinct = len(set(lam)) == len(lam)
                assert (n % 2 == 1 and len(lam) <= 2) == (q_value != 0)
                if distinct:
                    assert q_at == p_at.scaled(Fraction(2 ** len(lam)))
                else:
                    assert q_at.is_zero()


def test_acceptance_7_macdonald():
    with reported(7, "Macdonald / Whittaker: closed forms and degenerations"):
        for n in range(1, 5):
            p_n = sym("p", (n,), RING_QQT)
            p_n_t = sym("p", (n,), RING_QT)
            for lam in partitions_of(n):
                assert hall_inner(mac_P(lam), p_n) == mac_P_pn_closed(lam, n)
                assert hall_inner(mac_J(lam), p_n) == mac_J_pn_closed(lam, n)
                assert hall_inner(whittaker(lam), p_n_t) == whittaker_pn_closed(
                    lam, n
                )
                # q = 0 recovers Hall-Littlewood P coefficientwise
                at_q0 = {
                    mu: ratfunc_subs(c, q=Fraction(0))
                    for mu, c in mac_P(lam).coeffs.items()
                }
                assert {
                    mu: c for mu, c in at_q0.items() if not c.is_zero()
                } == dict(hl_P(lam).coeffs)
                # t = 0 recovers the q-Whittaker construction coefficientwise
                at_t0 = {
                    mu: ratfunc_subs(c, t=Fraction(0))
                    for mu, c in mac_P(lam).coeffs.items()
                }
                assert {
                    mu: c for mu, c in at_t0.items() if not c.is_zero()
                } == dict(whittaker(lam).coeffs)
        for k in (2, 3):
            spec = FamilySpec("whittaker", "Q", Specialization.at_root(k))
            for n in range(1, 6):
                for lam in partitions_of(n):
                    value = specialize_root_of_unity(
                        whittaker_pn_closed(lam, n).swap_vars(), k
                    )
                    assert (not value.is_zero()) == (lam[0] <= k)
                    predicted, _ = criterion(spec, lam, None, n)
                    assert predicted == (lam[0] <= k)


# ---------------------------------------------------------------------------
# criterion 8: the generation lemmas, oracle vs inner products
# ---------------------------------------------------------------------------

def _straight_sequences(max_degree):
    builders = [
        lambda n: (n,),
        lambda n: (1,) * n,
        lambda n: (n - 1, 1) if n >= 2 else (1,),
        lambda n: (2,) + (1,) * (n - 2) if n >= 2 else (1,),
        lambda n: ((n + 1) // 2, n // 2) if n >= 2 else (1,),
        lambda n: (2,) * (n // 2) + (1,) * (n % 2),
    ]
    return [
        [(Partition(build(n)), None) for n in range(1, max_degree + 1)]
        for build in builders
    ]


def _skew_sequences(max_degree):
    builders = [
        lambda n: ((1,) * n, ()),
        lambda n: ((n,), ()),
        lambda n: ((n + 1,), (1,)),
        lambda n: ((1,) * (n + 1), (1,)),
        lambda n: ((n, 1), (1,)),
        lambda n: ((2,) * n, (1,) * n),
    ]
    return [
        [
            (Partition(build(n)[0]), Partition(build(n)[1]))
            for n in range(1, max_degree + 1)
        ]
        for build in builders
    ]


def _check_equivalence(spec, seq, max_degree):
    records = verdict(spec, seq, max_degree)
    units_so_far = True
    for record in records:
        lam, mu = seq[record["n"] - 1]
        value = inner_value(spec, lam, mu, record["n"])
        units_so_far = units_so_far and value_is_unit(spec, value)
        assert record["generates"] == units_so_far, (
            spec.family, spec.ring, record["n"],
        )
    return records


def test_acceptance_8_generation_lemma_equivalence():
    with reported(8, "determinant verdicts match unit verdicts per degree"):
        classical_straight = ("m", "f", "s")
        classical_skew = ("skew-m", "skew-f", "skew-h", "skew-e", "skew-s")
        failing_seen = 0
        for family in classical_straight:
            for ring in ("Q", "Z"):
                spec = FamilySpec(family, ring)
                for seq in _straight_sequences(5):
                    records = _check_equivalence(spec, seq, 5)
                    failing_seen += 0 if records[-1]["generates"] else 1
        for family in classical_skew:
            for ring in ("Q", "Z"):
                spec = FamilySpec(family, ring)
                for seq in _skew_sequences(5):
                    records = _check_equivalence(spec, seq, 5)
                    failing_seen += 0 if records[-1]["generates"] else 1
        for family in ("hl-P", "hl-Q", "big-S", "whittaker"):
            spec = FamilySpec(family, "Qt")
            for seq in _straight_sequences(5):
                records = _check_equivalence(spec, seq, 5)
                failing_seen += 0 if records[-1]["generates"] else 1
        for family in ("mac-P", "mac-J"):
            spec = FamilySpec(family, "Qqt")
            for seq in _straight_sequences(4):
                records = _check_equivalence(spec, seq, 4)
                failing_seen += 0 if records[-1]["generates"] else 1
        # specialized runs supply failures for the never-failing generics
        for spec in (
            FamilySpec("hl-P", "Q", Specialization.at_root(2)),
            FamilySpec("whittaker", "Q", Specialization.at_root(2)),
            FamilySpec(
                "mac-P", "Q",
                Specialization.at_pair(Fraction(1, 2), Fraction(1, 2)),
            ),
        ):
            cap = 4 if spec.family == "mac-P" else 5
            for seq in _straight_sequences(cap):
                records = _check_equivalence(spec, seq, cap)
                failing_seen += 0 if records[-1]["generates"] else 1
        assert failing_seen >= 10  # failing sequences are genuinely exercised
        # the power-sum sequence over Z: independent but not generating
        p_seq = [(Partition((n,)), None) for n in range(1, 6)]
        records = verdict(FamilySpec("m", "Z"), p_seq, 5)
        assert all(r["independent"] for r in records)
        assert records[0]["generates"]
        assert not any(r["generates"] for r in records[1:])


def test_acceptance_9_conjecture_probe():
    with reported(9, "skew Hall-Littlewood probe: ribbons give nonzero"):
        # every ribbon skew shape of size n <= 4 with outer size <= 6
        for size in range(1, 7):
            for lam in partitions_of(size):
                for n in range(1, min(size, 4) + 1):
                    for mu in partitions_of(size - n):
                        shape = SkewPartition(lam, mu)
                        if not is_ribbon(shape):
                            continue
                        value = deformed_inner(
                            skew_hl_P(lam, mu), sym("p", (n,), RING_QT), "t"
                        )
                        assert not value.is_zero(), (lam, mu)
        # the probe's own route, one sum over power-sum coordinates: every
        # ribbon of size n <= 7 with |mu| <= 2
        ribbons = 0
        for n in range(1, 8):
            for m in range(3):
                for mu in partitions_of(m):
                    for lam in partitions_of(n + m):
                        if is_ribbon(SkewPartition(lam, mu)):
                            ribbons += 1
                            assert not skew_hl_P_pn_inner(lam, mu, n).is_zero(), (lam, mu)
        assert ribbons == 117
        # the probe emits exact values for column-separated shapes without
        # asserting anything about them
        seq = [(Partition((1,)), None), (Partition((3, 1)), Partition((2,)))]
        records = conjecture_probe(seq, 2)
        assert records[1]["column_separated"] is True
        assert isinstance(records[1]["value"], str)
        assert records[1]["nonzero"] in (True, False)
