import random
from fractions import Fraction

import pytest

from symgen import oracle
from symgen.criteria import FAMILIES, FamilySpec, Specialization, criterion
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
from symgen.symfunc import hall_inner, sym, to_basis


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


STRAIGHT_SEQ = seq_of((1,), (1, 1), (2, 1), (2, 2), (3, 1, 1), (3, 2, 1))
SKEW_SEQ = [(P(1), EMPTY), (P(2, 1), P(1)), (P(2, 2), P(1)), (P(3, 2), P(1)),
            (P(3, 2, 1), P(1)), (P(4, 2, 1), P(1))]


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize(
    "name", sorted(name for name, fam in FAMILIES.items() if not fam.deformation)
)
def test_classical_degree_matrices_are_integral(name, ring):
    spec = FamilySpec(name, ring)
    seq = SKEW_SEQ if spec.is_skew else STRAIGHT_SEQ
    memo = {}
    for n in range(1, 7):
        mat = degree_matrix(spec, seq, n, memo)
        assert all(type(v) is int for row in mat.entries for v in row)
        frac = [[Fraction(v) for v in row] for row in mat.entries]
        assert mat.det() == det_bareiss(mat.entries) == det_gauss(frac)


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
    # one build for the matrices, one for recomputed_inner, at each degree
    assert len(built) == 2 * 5


def test_recomputed_inner_matches_closed_value():
    from symgen.criteria import inner_value

    cases = [
        (FamilySpec("m", "Z"), seq_of((1,), (2,), (2, 1))),
        (FamilySpec("s", "Q"), seq_of((1,), (1, 1), (2, 1))),
    ]
    for spec, seq in cases:
        for n in range(1, len(seq) + 1):
            lam, mu = seq[n - 1]
            got = recomputed_inner(spec, lam, mu, n)
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

    direct = specialize_coeffs(hl_P((2, 1)), t=Fraction(-1))
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


def test_probe_requires_skew_grading():
    with pytest.raises(ValueError):
        conjecture_probe([(P(2), EMPTY), (P(2), EMPTY)], 2)
