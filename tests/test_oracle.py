import random
from collections import Counter
from fractions import Fraction

import pytest

from symgen import cli, deformed, exactalg, oracle
from symgen.criteria import FAMILIES, FamilySpec, Specialization, criterion
from symgen.deformed import deformed_inner, skew_hl_P, skew_hl_P_pn_inner
from symgen.exactalg import RING_QT, RatFunc, _poly_gcd_prim
from symgen.oracle import (
    conjecture_probe,
    degree_matrix,
    det_bareiss,
    det_gauss,
    family_element,
    recomputed_inner,
    verdict,
)
from symgen.partitions import (
    EMPTY,
    Partition,
    partitions_of,
)
from symgen.symfunc import SymFunc, hall_inner, multiply, sym, to_basis


def P(*parts):
    return Partition(parts)


def seq_of(*lams):
    return [(P(*lam) if isinstance(lam, tuple) else lam, None) for lam in lams]


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_bareiss_and_gauss_agree_on_random_int_matrices():
    rng = random.Random(7)
    for size in range(1, 6):
        for _ in range(15):
            mat = [
                [rng.randint(-6, 6) for _ in range(size)] for _ in range(size)
            ]
            frac = [[Fraction(v) for v in row] for row in mat]
            assert det_bareiss(mat) == det_gauss(frac)


def test_bareiss_pivoting_and_singularity():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0], [1, 1]]) == 0
    assert det_bareiss([]) == 1


# ---------------------------------------------------------------------------
# degree matrices
# ---------------------------------------------------------------------------

def test_degree_matrix_monomial_example():
    spec = FamilySpec("m", "Z")
    mat = degree_matrix(spec, seq_of((1,), (2,)), 2)
    assert mat.rows == partitions_of(2)
    assert mat.cols == partitions_of(2)
    assert mat.entries == ((1, 0), (1, 2))
    assert mat.det() == 2


def test_degree_matrix_needs_full_sequence():
    with pytest.raises(ValueError):
        degree_matrix(FamilySpec("m", "Z"), seq_of((1,)), 2)


def test_schur_hooks_unimodular():
    spec = FamilySpec("s", "Z")
    seq = seq_of((1,), (2,), (2, 1))
    for n in range(1, 4):
        assert degree_matrix(spec, seq, n).det() in (1, -1)


def test_complete_family_unimodular():
    # h_n through the skew interface with an empty inner shape
    spec = FamilySpec("skew-h", "Z")
    seq = [((n,), EMPTY) for n in range(1, 7)]
    for n in range(1, 7):
        assert degree_matrix(spec, seq, n).det() in (1, -1)


def test_power_sequence_independent_not_generating():
    spec = FamilySpec("m", "Z")
    seq = seq_of((1,), (2,), (3,))
    records = verdict(spec, seq, 3)
    assert all(r["independent"] for r in records)
    assert records[0]["generates"]
    assert not records[1]["generates"] and not records[2]["generates"]
    assert records[1]["det"] in ("2", "-2")


def test_non_refining_skew_monomial_gives_zero_det():
    spec = FamilySpec("skew-m", "Q")
    # lambda = (2,2) does not refine 3
    seq = [(P(1), EMPTY), (P(2), EMPTY), (P(2, 2), P(1))]
    mat = degree_matrix(spec, seq, 3)
    assert mat.det() == 0


STRAIGHT_SEQ = seq_of((1,), (1, 1), (2, 1), (2, 2), (3, 1, 1), (3, 2, 1), (4, 2, 1))
SKEW_SEQ = [(P(1), EMPTY), (P(2, 1), P(1)), (P(2, 2), P(1)), (P(3, 2), P(1)),
            (P(3, 2, 1), P(1)), (P(4, 2, 1), P(1)), (P(4, 3, 1), P(1))]


def reference_entries(spec, seq, n):
    """The products on m by multiply and to_basis, in the coefficient field."""
    memo = {}

    def product(lam):
        if lam not in memo:
            if len(lam) == 1:
                memo[lam] = to_basis(family_element(spec, *seq[lam[0] - 1]), "p")
            else:
                memo[lam] = multiply(product(lam[:1]), product(lam[1:]))
        return memo[lam]

    order = partitions_of(n)
    zero = spec.coeff_ring.zero
    return tuple(
        tuple(to_basis(product(lam), "m").coeffs.get(mu, zero) for mu in order)
        for lam in order
    )


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize(
    "name", sorted(name for name, fam in FAMILIES.items() if not fam.deformation)
)
def test_classical_degree_matrices_are_integral(name, ring):
    spec = FamilySpec(name, ring)
    seq = SKEW_SEQ if spec.is_skew else STRAIGHT_SEQ
    memo = {}
    for n in range(1, 8):
        mat = degree_matrix(spec, seq, n, memo)
        assert all(type(v) is int for row in mat.entries for v in row)
        assert mat.entries == reference_entries(spec, seq, n), n
        # (D, D-scaled p-coordinates) pairs: ints from the first element on
        assert all(
            type(d) is int and all(type(c) is int for c in coords.values())
            for d, coords in memo.values()
        )
        frac = [[Fraction(v) for v in row] for row in mat.entries]
        assert mat.det() == det_bareiss(mat.entries) == det_gauss(frac)
    assert not hasattr(oracle, "multiply") and not hasattr(oracle, "to_basis")


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("hl-P", "Qt"),
        FamilySpec("hl-Q", "Q", Specialization.at_root(3)),
        FamilySpec("big-S", "Qt"),
        FamilySpec("whittaker", "Qt"),
        FamilySpec("mac-P", "Qqt"),
        FamilySpec("mac-J", "Qqt"),
    ],
)
def test_deformed_route_matches_reference(spec):
    seq = seq_of((1,), (1, 1), (2, 1), (3, 1))
    memo = {}
    for n in range(1, 5):
        mat = degree_matrix(spec, seq, n, memo)
        assert mat.entries == reference_entries(spec, seq, n), n


GENERIC_DEFORMED = [
    FamilySpec(name, "Qqt" if fam.deformation == "qt" else "Qt")
    for name, fam in sorted(FAMILIES.items())
    if fam.deformation
]


@pytest.mark.parametrize("spec", GENERIC_DEFORMED, ids=lambda spec: spec.family)
def test_polynomial_route_takes_no_rational_function_arithmetic(spec, monkeypatch):
    """Over Q(t) and Q(q,t) the products are convolved on polynomial
    p-coordinates: no RatFunc product or sum, and a gcd only for the lcm of
    an element's denominators or inside the one RatFunc.make per entry."""
    seq = seq_of((1,), (1, 1), (2, 1), (3, 1))
    elements = {lam: family_element(spec, lam, mu) for lam, mu in seq}
    monkeypatch.setattr(oracle, "family_element", lambda spec, lam, mu=None: elements[lam])
    calls = Counter()
    where = ["products"]

    def counting(name, fn, scope=None):
        def wrapper(*args, **kwargs):
            calls[name, where[-1]] += 1
            if scope is not None:
                where.append(scope)
            try:
                return fn(*args, **kwargs)
            finally:
                if scope is not None:
                    where.pop()
        return wrapper

    monkeypatch.setattr(RatFunc, "__mul__", counting("mul", RatFunc.__mul__))
    monkeypatch.setattr(RatFunc, "__add__", counting("add", RatFunc.__add__))
    monkeypatch.setattr(
        RatFunc, "make", staticmethod(counting("make", RatFunc.make, "make"))
    )
    for module in (exactalg, deformed):
        monkeypatch.setattr(module, "poly_gcd", counting("gcd", exactalg.poly_gcd))
    monkeypatch.setattr(
        oracle,
        "polynomial_p_coordinates",
        counting("coordinates", deformed.polynomial_p_coordinates, "lcm"),
    )
    lookups = _poly_gcd_prim.cache_info()
    memo = {}
    for n in range(1, 5):
        degree_matrix(spec, seq, n, memo)
    assert calls["coordinates", "products"] == 4
    assert calls["make", "products"] == sum(len(partitions_of(n)) ** 2 for n in range(1, 5))
    assert {scope for name, scope in calls if name == "gcd"} <= {"lcm", "make"}
    assert not any(name in ("mul", "add") for name, _ in calls)
    if spec.family != "mac-P":
        # every coefficient is a polynomial: no gcd reaches the cached core
        after = _poly_gcd_prim.cache_info()
        assert (after.hits, after.misses) == (lookups.hits, lookups.misses)


def test_integrality_guard(monkeypatch, tmp_path, capsys):
    half = Fraction(1, 2)
    # 1/2 p_1 fails the k!-scaling; 1/2 p_(1,1) scales to an int but its
    # m-coordinates (1/2 m_2 + m_(1,1)) leave a remainder mod 2!
    elements = {
        P(1): SymFunc("p", {P(1): half}),
        P(1, 1): SymFunc("p", {P(1, 1): half}),
    }
    monkeypatch.setattr(oracle, "family_element", lambda spec, lam, mu=None: elements[lam])
    spec = FamilySpec("m", "Z")
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        degree_matrix(spec, seq_of((1,)), 1)
    with pytest.raises(ValueError, match="expected an integer entry, got 1/2"):
        degree_matrix(spec, seq_of((1,), (1, 1)), 2, {(1,): (1, {P(1): 1})})
    path = tmp_path / "one.txt"
    path.write_text("1: [1]\n", encoding="utf-8")
    code = cli.run(["oracle", "--family", "m", "--ring", "Z", "--seq-file", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: expected an integer entry, got 1/2\n"


@pytest.mark.parametrize("spec", [FamilySpec("s", "Z"), FamilySpec("hl-P", "Qt")])
def test_degree_matrix_memo_gives_equal_matrices(spec):
    seq = seq_of((1,), (2,), (2, 1), (2, 2))
    memo = {}
    for n in range(1, 5):
        assert degree_matrix(spec, seq, n, memo) == degree_matrix(spec, seq, n)


def test_verdict_builds_each_element_once_per_degree(monkeypatch):
    built = []
    real = oracle.family_element

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "family_element", counting)
    seq = seq_of((1,), (2,), (2, 1), (2, 2), (3, 1, 1))
    verdict(FamilySpec("s", "Q"), seq, 5)
    # recomputed_inner reads u_n off the memo the matrices filled
    assert len(built) == 5


def test_recomputed_inner_matches_closed_value():
    from symgen.criteria import inner_value

    cases = [
        (FamilySpec("m", "Z"), seq_of((1,), (2,), (2, 1))),
        (FamilySpec("s", "Q"), seq_of((1,), (1, 1), (2, 1))),
    ]
    for spec, seq in cases:
        memo = {}
        for n in range(1, len(seq) + 1):
            lam, mu = seq[n - 1]
            got = recomputed_inner(spec, seq, n, memo)
            want = inner_value(spec, lam, mu, n)
            assert got == want


# ---------------------------------------------------------------------------
# verdict records and the generation lemma
# ---------------------------------------------------------------------------

def test_verdict_field_order():
    spec = FamilySpec("m", "Z")
    records = verdict(spec, seq_of((1,), (2,)), 2)
    assert list(records[0]) == [
        "n", "family", "ring", "criterion", "reason", "value",
        "det", "independent", "generates", "inner",
    ]


def test_field_equivalence_det_vs_inner():
    # over a field: nonsingular up to n <=> inner products nonzero up to n
    specs_and_seqs = [
        (FamilySpec("m", "Q"), seq_of((1,), (2,), (2, 1), (2, 2), (3, 2))),
        (FamilySpec("s", "Q"), seq_of((1,), (2,), (2, 1), (2, 2), (3, 1, 1))),
        (FamilySpec("skew-m", "Q"),
         [(P(1), EMPTY), (P(2, 1), P(1)), (P(2, 2), P(1)), (P(3, 2), P(1)),
          (P(4, 2), P(1))]),
    ]
    for spec, seq in specs_and_seqs:
        records = verdict(spec, seq, 5)
        all_nonzero = True
        all_independent = True
        for r in records:
            all_nonzero = all_nonzero and r["inner"] != "0"
            all_independent = all_independent and r["independent"]
            assert all_independent == all_nonzero, (spec.family, r["n"])
            assert r["generates"] == all_nonzero


def test_hl_sequence_verdict_over_qt():
    spec = FamilySpec("hl-P", "Qt")
    records = verdict(spec, seq_of((1,), (2,), (2, 1)), 3)
    assert all(r["independent"] and r["generates"] for r in records)
    assert all(r["criterion"] for r in records)


def test_specialized_family_element_at_root():
    spec = FamilySpec("hl-P", "Q", Specialization.at_root(2))
    element = family_element(spec, P(2, 1))
    assert element.ring.name == "C2"
    # at t = -1 the coefficients are rational: compare against direct subs
    from symgen.deformed import hl_P, specialize_coeffs

    direct = specialize_coeffs(hl_P((2, 1)), Specialization.at_value(-1))
    for mu, c in direct.coeffs.items():
        assert element.coeffs[mu].as_fraction() == c


def test_xi_equals_one_adjudication():
    # t = 1 is the trivial root of unity: hl-P degenerates to the monomial
    # family and keeps generating, while hl-Q collapses to zero and fails
    seq = seq_of((1,), (2,), (2, 1))
    p_spec = FamilySpec("hl-P", "Q", Specialization.at_value(1))
    p_records = verdict(p_spec, seq, 3)
    assert all(r["criterion"] and r["independent"] and r["generates"]
               for r in p_records)
    q_spec = FamilySpec("hl-Q", "Q", Specialization.at_value(1))
    q_records = verdict(q_spec, seq, 3)
    assert not any(r["criterion"] for r in q_records)
    assert not any(r["generates"] for r in q_records)
    assert all(r["inner"] == "0" for r in q_records)


def test_oracle_determinants_over_cyclotomic_field():
    spec = FamilySpec("hl-P", "Q", Specialization.at_root(3))
    seq = [(P(*[1] * n), None) for n in (1, 2, 3)]
    records = verdict(spec, seq, 3)
    for r in records:
        assert r["criterion"] and r["independent"] and r["generates"], r


def test_oracle_agrees_with_criteria_through_degree_4():
    specs_and_seqs = [
        (FamilySpec("m", "Z"), seq_of((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1))),
        (FamilySpec("m", "Z"), seq_of((1,), (2,), (2, 1), (2, 2))),
        (FamilySpec("skew-s", "Z"),
         [(P(1), EMPTY), (P(2, 1), P(1)), (P(2, 2), P(1)), (P(3, 2, 1), P(2))]),
    ]
    for spec, seq in specs_and_seqs:
        records = verdict(spec, seq, 4)
        criteria_so_far = True
        for r in records:
            criteria_so_far = criteria_so_far and r["criterion"]
            assert r["generates"] == criteria_so_far, (spec.family, r)


def test_four_case_skew_monomial_sequences_unimodular():
    # graded sequences built from the four Z-unit shapes stay det = +-1
    spec = FamilySpec("skew-m", "Z")
    case_sequences = [
        # columns over columns
        [(P(*[1] * (2 + n)), P(1, 1)) for n in range(1, 5)],
        # (c^d, 1^n) with c > n over a column
        [(Partition((n + 1,) + (1,) * n), P(*[1] * (n + 1))) for n in range(1, 5)],
        # columns over a rectangle
        [(P(*[1] * (4 + n)), P(2, 2)) for n in range(1, 5)],
        # rectangle-plus-column over a coprime rectangle, mixed sizes
        [
            (P(3, 3, 1), P(2, 2, 2)),
            (P(3, 3, 1, 1), P(2, 2, 2)),
            (P(4, 4, 4, 1, 1, 1), P(3, 3, 3, 3)),
            (P(5, 5, 1, 1, 1, 1), P(2, 2, 2, 2, 2)),
        ],
    ]
    for seq in case_sequences:
        for n in range(1, 5):
            lam, mu = seq[n - 1]
            assert criterion(spec, lam, mu, n)[0], (lam, mu, n)
            assert degree_matrix(spec, seq, n).det() in (1, -1)



# ---------------------------------------------------------------------------
# conjecture probe
# ---------------------------------------------------------------------------

def test_probe_ribbons_are_nonzero():
    seq = [(P(1), EMPTY), (P(2, 1), P(1)), (P(2, 2), P(1)), (P(3, 2), P(1))]
    records = conjecture_probe(seq, 4)
    for r in records:
        shape = r["lambda"], r["mu"]
        if r["ribbon"]:
            assert r["nonzero"], shape
        assert not r["counterexample_candidate"]


def test_probe_records_non_containment():
    # mu not inside lambda at n = 2 (containment is not required data-wise)
    seq = [(P(1), EMPTY), (P(1, 1, 1, 1), P(2))]
    records = conjecture_probe(seq, 2)
    assert records[1]["contains"] is False
    assert records[1]["column_separated"] is None


def test_probe_column_separated_value_recorded():
    seq = [(P(1), EMPTY), (P(3, 1), P(2))]
    records = conjecture_probe(seq, 2)
    assert records[1]["column_separated"] is True
    assert isinstance(records[1]["value"], str)


def test_probe_sum_matches_the_skew_element():
    # every lam/mu with |lam| <= 6, |mu| <= 2 and n = |lam| - |mu| >= 1,
    # whether or not mu fits inside lam
    shapes = [lam for size in range(1, 7) for lam in partitions_of(size)]
    inner = [lam for size in range(3) for lam in partitions_of(size)]
    checked = 0
    for lam in shapes:
        for mu in inner:
            n = lam.size - mu.size
            if n < 1:
                continue
            want = deformed_inner(skew_hl_P(lam, mu), sym("p", (n,), RING_QT), "t")
            assert skew_hl_P_pn_inner(lam, mu, n) == want, (lam, mu)
            checked += 1
    assert checked == 109
    # |lam| < |mu| pairs to zero
    assert skew_hl_P_pn_inner((1,), (2,), 1).is_zero()
    assert skew_hl_P_pn_inner((2,), (2, 1), 3).is_zero()


def test_probe_builds_no_skew_element(monkeypatch):
    seq = [(P(1), EMPTY), (P(2, 1), P(1)), (P(1, 1, 1, 1, 1), P(2)), (P(3, 2), P(1))]
    want = [
        deformed_inner(skew_hl_P(lam, mu), sym("p", (n,), RING_QT), "t").render()
        for n, (lam, mu) in enumerate(seq, start=1)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the probe builds no skew element")

    for module in (oracle, deformed):
        for name in ("skew_hl_P", "skew_p", "to_basis", "deformed_inner", "_pexp_inner"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [r["value"] for r in conjecture_probe(seq, 4)] == want


def test_probe_requires_skew_grading():
    with pytest.raises(ValueError):
        conjecture_probe([(P(2), EMPTY), (P(2), EMPTY)], 2)
