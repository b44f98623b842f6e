import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgen import cli, deformed, exactalg, oracle, symfunc
from symgen.criteria import (
    FAMILIES,
    RINGS,
    FamilySpec,
    Specialization,
    criterion,
    parse_sequence_file,
    render_value,
)
from symgen.deformed import (
    _binomial_quotient,
    deformed_inner,
    reduced,
    skew_hl_P,
    skew_hl_P_pn_inner,
    specialize_coeffs,
)
from symgen.exactalg import (
    P_ZERO,
    RING_QT,
    Poly,
    RatFunc,
    ZeroDenominator,
    _poly_gcd_prim,
)
from symgen.oracle import (
    DegreeMatrix,
    conjecture_probe,
    degree_matrix,
    det_bareiss,
    det_gauss,
    det_polynomial,
    family_element,
    recomputed_inner,
    verdict,
)
from symgen.partitions import (
    EMPTY,
    Partition,
    decode,
    partitions_of,
)
from symgen.symfunc import SymFunc, hall_inner, multiply, sym, to_basis

import exact_reference


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


@st.composite
def int_matrices(draw):
    """Square integer matrices of size 0-7, mostly zeros, some given a zero
    row or a repeated row."""
    size = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    mat = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if size:
        shape = draw(st.sampled_from(["plain", "repeated", "zero"]))
        row = draw(st.integers(0, size - 1))
        if shape == "repeated":
            mat[row] = list(mat[draw(st.integers(0, size - 1))])
        elif shape == "zero":
            mat[row] = [0] * size
    return mat


@settings(max_examples=300, deadline=None)
@given(int_matrices())
@example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
@example([[0, 1, 2], [0, 3, 4], [5, 6, 7]])
@example([[2, 1], [2, 1]])
def test_bareiss_matches_gauss(mat):
    assert det_bareiss(mat) == det_gauss([[Fraction(v) for v in row] for row in mat])


@st.composite
def repeated_pivot_matrices(draw):
    """Integer matrices whose leading principal minors, the pivots Bareiss
    divides by, repeat.  a_11 is drawn from 1, 2, 3, -2 and 6; each later
    a_kk is, where it can be, set so that the k-th minor equals the one
    before (m_k = a_kk m_(k-1) + c, with c the minor at a_kk = 0).  The
    other entries are free, so the repeated pivot often does not divide a
    row's lead."""
    size = draw(st.integers(2, 7))
    mat = [[draw(st.integers(-5, 5)) for _ in range(size)] for _ in range(size)]
    mat[0][0] = prev = draw(st.sampled_from([1, 2, 3, -2, 6]))
    for k in range(1, size):
        kept, mat[k][k] = mat[k][k], 0
        c = det_gauss([[Fraction(v) for v in row[: k + 1]] for row in mat[: k + 1]])
        if prev and (prev - c) % prev == 0 and draw(st.integers(0, 3)):
            mat[k][k] = int((prev - c) / prev)
        else:
            mat[k][k] = kept
        prev = c + mat[k][k] * prev
    return mat


@settings(max_examples=300, deadline=None)
@given(repeated_pivot_matrices())
@example([[2, 1, 0], [0, 1, 1], [1, 1, 1]])
def test_bareiss_with_repeated_pivots_matches_gauss(mat):
    assert det_bareiss(mat) == det_gauss([[Fraction(v) for v in row] for row in mat])


def polys(q_top: int):
    """Polys of degree <= q_top in q and <= 3 in t, Fraction coefficients."""
    return st.dictionaries(
        st.tuples(st.integers(0, q_top), st.integers(0, 3)),
        st.fractions(-4, 4, max_denominator=3),
        max_size=3,
    ).map(Poly)


@st.composite
def poly_matrices(draw, min_size=0):
    """Square matrices of Polys in t alone or in q and t; some made
    singular by a multiple of a row, some given a zero row."""
    size = draw(st.integers(min_size, 3))
    entry = polys(draw(st.sampled_from([0, 2])))
    mat = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if size:
        shape = draw(st.sampled_from(["plain", "multiple", "zero"]))
        row = draw(st.integers(0, size - 1))
        if shape == "multiple":
            factor = draw(entry)
            mat[row] = [factor * p for p in mat[size - 1 - row]]
        elif shape == "zero":
            mat[row] = [P_ZERO] * size
    return mat


@settings(max_examples=80, deadline=None)
@given(poly_matrices())
@example([])
@example([[Poly({(0, 2): Fraction(-3, 2)})]])
@example([[P_ZERO]])
def test_polynomial_determinant_matches_gauss(mat):
    want = det_gauss([[RatFunc.make(p) for p in row] for row in mat])
    assert RatFunc.make(det_polynomial(mat)) == want


# binomials 1 - q^a t^b and t^c - q^d, whose keys make up the D's below
BINOMIALS = [((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 0), (1, 1)), ((0, 0), (2, 1)),
             ((0, 0), (1, 2)), ((0, 1), (1, 0)), ((0, 2), (2, 0))]


@st.composite
def key_denominators(draw):
    """A D as the engine builds one: an integer times binomials' keys."""
    binomials = draw(st.lists(st.sampled_from(BINOMIALS), max_size=3))
    return _binomial_quotient(draw(st.sampled_from([1, 2, 6, -3])), (0, 0), binomials, [])


@settings(max_examples=60, deadline=None)
@given(poly_matrices(min_size=1), st.data())
def test_numerator_rows_over_their_denominators(mat, data):
    """DegreeMatrix.det over Q(q,t): each row over a key-count D, the row a
    multiple of part of its D in some draws, so the one division cancels."""
    denominators = []
    for i, row in enumerate(mat):
        den = data.draw(key_denominators())
        part = data.draw(st.lists(st.sampled_from(BINOMIALS), max_size=2))
        factor = exact_reference.key_denominator(_binomial_quotient(1, (0, 0), part, []))
        mat[i] = [p * factor for p in row]
        denominators.append(den)
    matrix = DegreeMatrix(len(mat), (), (), tuple(map(tuple, mat)), tuple(denominators))
    for row, den, got in zip(mat, denominators, matrix.entries):
        # the reference reduction: a gcd against the multiplied-out D
        assert list(got) == [RatFunc.make(p, exact_reference.key_denominator(den)) for p in row]
    assert matrix.det() == det_gauss([list(row) for row in matrix.entries])


def test_rational_determinant_matches_gauss():
    """At a rational point each row is ints over an int D (negative too):
    det divides the integer determinant once by the product of the D's."""
    rng = random.Random(11)
    for size in range(1, 5):
        for _ in range(20):
            mat = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            if rng.random() < 0.3:
                mat[rng.randrange(size)] = [0] * size
            dens = [rng.choice([1, 2, 3, 4, -6, 12]) for _ in range(size)]
            matrix = DegreeMatrix(size, (), (), tuple(map(tuple, mat)), tuple(dens))
            want = [[Fraction(v, d) for v in row] for row, d in zip(mat, dens)]
            assert matrix.entries == tuple(map(tuple, want))
            got = matrix.det()
            assert type(got) is Fraction and got == det_gauss(want)


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
    """The products on m by multiply and to_basis, in the coefficient field.
    A deformed family's form is reduced over its generic field and, at a
    specialization, its coefficients specialized one by one."""
    memo = {}

    def product(lam):
        if lam not in memo:
            if len(lam) == 1:
                element = family_element(spec, *seq[lam[0] - 1])
                if isinstance(element, tuple):  # a deformed family's form
                    element = reduced(element, RINGS[spec.definition.rings[0]])
                    if spec.specialization is not None:
                        element = specialize_coeffs(element, spec.specialization)
                memo[lam] = to_basis(element, "p")
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


@pytest.mark.parametrize("ring", ["Q", "Z"])
@pytest.mark.parametrize(
    "name", sorted(name for name, fam in FAMILIES.items() if not fam.deformation)
)
def test_classical_elements_take_no_rational_expansion(name, ring, monkeypatch):
    """A classical element reaches the oracle as its integer class values:
    neither the rational p-expansions nor the rational adjoint is called."""
    spec = FamilySpec(name, ring)
    seq = SKEW_SEQ if spec.is_skew else STRAIGHT_SEQ
    want = [degree_matrix(spec, seq, n).entries for n in range(1, 7)]

    def refuse(*args, **kwargs):
        raise AssertionError("a rational expansion was built")

    for module in (oracle, symfunc):
        for attr in ("_basis_to_p", "skew_p"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for cache in (symfunc._class_values, symfunc._mn, symfunc._p_in_m):
        cache.cache_clear()
    memo = {}
    assert [degree_matrix(spec, seq, n, memo).entries for n in range(1, 7)] == want


DEFORMED_SPECS = [
    spec
    for name, fam in sorted(FAMILIES.items())
    if fam.deformation
    for spec in (
        [FamilySpec(name, "Qqt")]
        + [
            FamilySpec(name, "Q", Specialization.at_pair(*pair))
            for pair in ((2, 3), (3, 9), (4, Fraction(1, 2)))
        ]
        if fam.deformation == "qt"
        else [FamilySpec(name, "Qt")]
        + [FamilySpec(name, "Q", Specialization.at_root(k)) for k in (1, 2, 3, 4, 6)]
        + [
            FamilySpec(name, "Q", Specialization.at_value(v))
            for v in (2, -1, 0, Fraction(1, 2), Fraction(-2, 3))
        ]
    )
]


# (q,t) pairs at which Macdonald P's keys vanish or its binomials collide,
# those DEFORMED_SPECS does not hold already
COLLIDING_PAIRS = [
    FamilySpec(name, "Q", Specialization.at_pair(q, t))
    for name in ("mac-J", "mac-P")
    for q, t in ((1, 1), (-1, 1), (4, Fraction(1, 2)), (Fraction(1, 4), 2))
    if FamilySpec(name, "Q", Specialization.at_pair(q, t)) not in DEFORMED_SPECS
]


def spec_id(spec):
    spz = spec.specialization
    if spz is None:
        return f"{spec.family}-{spec.ring}"
    point = {"root": spz.root_order, "value": spz.value, "pair": f"{spz.q_value},{spz.t_value}"}
    return f"{spec.family}-{spz.kind}-{point[spz.kind]}"


@pytest.mark.parametrize("spec", DEFORMED_SPECS + COLLIDING_PAIRS, ids=spec_id)
def test_determinant_matches_gauss_on_the_entries(spec):
    """Every deformed field: det of the numerator rows equals det_gauss of
    the reduced entries, in value and in rendering (at a rational point
    with a denominator too, and where Macdonald P's keys vanish)."""
    top = 3 if spec.definition.deformation == "qt" else 4
    seqs = [seq_of(*[(n,) for n in range(1, top + 1)]), seq_of((1,), (1, 1), (2, 1), (3, 1))]
    for seq in seqs:
        memo = {}
        for n in range(1, top + 1):
            try:
                mat = degree_matrix(spec, seq, n, memo)
            except ZeroDenominator:  # some u_k does not exist here
                break
            got, want = mat.det(), det_gauss([list(row) for row in mat.entries])
            assert type(got) is type(want) and got == want, n
            assert render_value(got) == render_value(want), n


def test_macdonald_degree_5_determinant_specializes():
    # the generic degree-5 determinant over Q(q,t), at (q,t) = (2,3), is the
    # determinant of the matrix built at (2,3)
    seq = seq_of(*[(n,) for n in range(1, 6)])
    generic, memo = FamilySpec("mac-P", "Qqt"), {}
    pair = Specialization.at_pair(2, 3)
    at_pair, pair_memo = FamilySpec("mac-P", "Q", pair), {}
    for n in range(1, 6):
        det = degree_matrix(generic, seq, n, memo).det()
        assert pair.apply(det) == degree_matrix(at_pair, seq, n, pair_memo).det(), n


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


# every sequence u_1, ..., u_4 of one partition of each degree
DEGREE_4_SEQS = [seq_of(*lams) for lams in itertools.product(*map(partitions_of, range(1, 5)))]


@pytest.mark.parametrize("spec", DEFORMED_SPECS + COLLIDING_PAIRS, ids=spec_id)
def test_one_route_matches_the_specialized_reference(spec):
    """The oracle takes polynomial p-coordinates, evaluated at the point
    when there is one; the reference reduces the element over its generic
    field and specializes it coefficient by coefficient.  Their matrices
    agree, and both find the first u_k that does not exist at the same
    degree."""
    for seq in DEGREE_4_SEQS:
        memo = {}
        for n in range(1, 5):
            try:
                want = reference_entries(spec, seq, n)
            except ZeroDenominator:
                with pytest.raises(ZeroDenominator):
                    degree_matrix(spec, seq, n, memo)
                break
            assert degree_matrix(spec, seq, n, memo).entries == want, (seq, n)


GENERIC_DEFORMED = [
    FamilySpec(name, "Qqt" if fam.deformation == "qt" else "Qt")
    for name, fam in sorted(FAMILIES.items())
    if fam.deformation
]


@pytest.mark.parametrize("spec", GENERIC_DEFORMED, ids=lambda spec: spec.family)
def test_polynomial_route_takes_no_rational_function_arithmetic(spec, monkeypatch):
    """Over Q(t) and Q(q,t) the products are convolved on polynomial
    p-coordinates and the rows stay numerators: no RatFunc product, sum or
    make, no Poly sum, and no gcd at all (an element's D is a key count)."""
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
    monkeypatch.setattr(exactalg, "poly_gcd", counting("gcd", exactalg.poly_gcd))
    coordinates = counting("coordinates", deformed.polynomial_p_coordinates)
    monkeypatch.setattr(oracle, "polynomial_p_coordinates", coordinates)
    # products and rows are summed as term dicts, each entry made a Poly once
    monkeypatch.setattr(Poly, "__add__", counting("poly-add", Poly.__add__))
    monkeypatch.setattr(Poly, "__radd__", counting("poly-add", Poly.__radd__))
    lookups = _poly_gcd_prim.cache_info()
    memo = {}
    for n in range(1, 5):
        degree_matrix(spec, seq, n, memo).det()
    assert calls["coordinates", "products"] == 4
    assert calls["make", "products"] == 0
    assert not any(name in ("mul", "add", "gcd", "poly-add") for name, _ in calls)
    after = _poly_gcd_prim.cache_info()
    assert (after.hits, after.misses) == (lookups.hits, lookups.misses)


SPECIALIZED_POINTS = [
    FamilySpec("hl-Q", "Q", Specialization.at_root(3)),
    FamilySpec("whittaker", "Q", Specialization.at_root(3)),
    FamilySpec("hl-P", "Q", Specialization.at_value(Fraction(1, 2))),
    FamilySpec("whittaker", "Q", Specialization.at_value(Fraction(1, 2))),
    FamilySpec("mac-P", "Q", Specialization.at_pair(2, 3)),
    FamilySpec("mac-J", "Q", Specialization.at_pair(2, 3)),
]


@pytest.mark.parametrize("spec", SPECIALIZED_POINTS, ids=spec_id)
def test_specialized_rows_are_integer_numerators(spec, monkeypatch):
    """At a root of unity and at a rational point every row is integer
    numerators (ints, or residues with int coefficients) over an int D,
    divided once after the determinant: no residue is inverted or
    multiplied by a Fraction on the way."""
    seq = seq_of((1,), (1, 1), (2, 1), (3, 1))
    calls = Counter()
    inverse, mul = exactalg.CycloElem.inverse, exactalg.CycloElem.__mul__

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    def counted_mul(self, other):
        calls["mul by a Fraction"] += isinstance(other, Fraction)
        return mul(self, other)

    monkeypatch.setattr(exactalg.CycloElem, "inverse", counted_inverse)
    monkeypatch.setattr(exactalg.CycloElem, "__mul__", counted_mul)
    monkeypatch.setattr(exactalg.CycloElem, "__rmul__", counted_mul)
    memo = {}
    for n in range(1, 5):
        matrix = degree_matrix(spec, seq, n, memo)
        assert all(type(d) is int for d in matrix.denominators), n
        assert all(
            type(v) is int or all(type(c) is int for c in v.coeffs)
            for row in matrix.numerators for v in row
        ), n
        matrix.det()
    assert not +calls


def test_deformed_oracle_and_probe_take_no_gcd(monkeypatch, capsys):
    """With poly_gcd raising, every deformed spec (generic and at one point
    each) gives the verdicts it gives with the gcd in place, and the probe
    and the skew Hall-Littlewood element print their golden files."""
    specs = [
        FamilySpec(name, fam.rings[0]) for name, fam in sorted(FAMILIES.items())
        if fam.deformation
    ] + [
        FamilySpec("hl-P", "Q", Specialization.at_value(2)),
        FamilySpec("hl-Q", "Q", Specialization.at_root(3)),
        FamilySpec("big-S", "Q", Specialization.at_root(4)),
        FamilySpec("whittaker", "Q", Specialization.at_value(Fraction(1, 2))),
        FamilySpec("mac-P", "Q", Specialization.at_pair(2, 3)),
        FamilySpec("mac-J", "Q", Specialization.at_pair(3, 9)),
    ]
    seq = seq_of((1,), (2,), (2, 1), (3, 1))

    def clear():
        for cache in (deformed._gs_family, deformed._tableau_states, _poly_gcd_prim):
            cache.cache_clear()

    clear()
    want = [verdict(spec, seq, 4) for spec in specs]

    def raising(*args):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(exactalg, "poly_gcd", raising)
    clear()
    assert [verdict(spec, seq, 4) for spec in specs] == want
    golden = Path(__file__).parent / "golden"
    for name, argv in (
        ("probe.txt", ["probe", "--seq-file", str(golden / "ribbons5.txt"), "--max-degree", "5"]),
        ("skew_hl_p.txt", ["skew", "--family", "hl-P", "--lambda", "3,2", "--mu", "1"]),
    ):
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == (golden / name).read_text(encoding="utf-8")


def test_key_divisions_take_no_long_division(monkeypatch):
    """With exactalg's sparse long division raising in every symgen module
    that names it, the verdicts of Macdonald P, generic and at a pair (both
    divide by c_lam's keys), and of two families that divide by no key give
    the records they give with it in place, and so does the probe on its
    golden sequence."""
    cases = [
        (FamilySpec("mac-P", "Qqt"), 4),
        (FamilySpec("mac-P", "Q", Specialization.at_pair(2, 3)), 5),
        (FamilySpec("whittaker", "Q", Specialization.at_root(3)), 5),
        (FamilySpec("hl-P", "Qt"), 5),
    ]
    seq = seq_of(*((n,) for n in range(1, 6)))
    probe_text = (Path(__file__).parent / "golden" / "ribbons5.txt").read_text(encoding="utf-8")
    probe_seq = parse_sequence_file(probe_text)

    def records():
        deformed._gs_family.cache_clear()
        deformed._tableau_states.cache_clear()
        return [verdict(spec, seq, n) for spec, n in cases], conjecture_probe(probe_seq, 5)

    want = records()

    def raising(*args):
        raise AssertionError("try_exact_div called")

    modules = [module for key, module in sys.modules.items() if key.split(".")[0] == "symgen"]
    for module in modules:
        if hasattr(module, "try_exact_div"):
            monkeypatch.setattr(module, "try_exact_div", raising)
    assert records() == want


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


@pytest.mark.parametrize(
    "spec", [FamilySpec("s", "Z"), FamilySpec("skew-h", "Q"), FamilySpec("hl-P", "Qt")]
)
def test_verdict_counts_each_p_to_m_column_once(spec):
    # one cache miss per partition of 0..N: column nu is built from the
    # column of nu without its first part, found in the memo
    for cache in (symfunc._p_in_m, symfunc._basis_matrix_inverse, symfunc._basis_to_p):
        cache.cache_clear()
    seq = seq_of((1,), (2,), (2, 1), (2, 2), (3, 1, 1), (4, 2))
    verdict(spec, seq, 6)
    assert symfunc._p_in_m.cache_info().misses == sum(len(partitions_of(k)) for k in range(7))


def test_verdict_builds_a_missing_element_once(monkeypatch):
    # c_(2) and c_(3,1) vanish at (q,t) = (2, 1/2): u_2 = P_(2) and
    # u_4 = P_(3,1) do not exist; the degree-2 inner product and the
    # matrices of degrees 3 and 4 meet u_2, the degree-4 inner product u_4
    built = Counter()
    real = oracle.family_element

    def counting(spec, lam, mu=None):
        built[lam] += 1
        return real(spec, lam, mu)

    monkeypatch.setattr(oracle, "family_element", counting)
    spec = FamilySpec("mac-P", "Q", Specialization.at_pair(2, Fraction(1, 2)))
    records = verdict(spec, seq_of((1,), (2,), (2, 1), (3, 1)), 4)
    assert built == {P(1): 1, P(2): 1, P(2, 1): 1, P(3, 1): 1}
    assert [r["det"] for r in records[1:]] == [None, None, None]
    # the degree-3 inner product still reads u_3, which exists
    assert [r["inner"] is None for r in records] == [False, True, False, True]


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


def test_generic_field_coordinates_have_a_polynomial_zero(monkeypatch):
    # [p_4] S_(2,2) = 0 over Q(t): the recomputed inner product at n = 4
    # reads the zero of the polynomial coordinates, and hands the key
    # division a Poly, as every numerator of the matrix is
    spec = FamilySpec("big-S", "Qt")
    seq = seq_of((1,), (2,), (2, 1), (2, 2))
    memo = {}
    matrix = degree_matrix(spec, seq, 4, memo)
    assert {type(v) for row in matrix.numerators for v in row} == {Poly}
    divided = []
    divide = deformed.KeyQuotient.divide

    def recorded(self, num):
        divided.append(num)
        return divide(self, num)

    monkeypatch.setattr(deformed.KeyQuotient, "divide", recorded)
    assert render_value(recomputed_inner(spec, seq, 4, memo)) == "(0)"
    assert [type(v) for v in divided] == [Poly]


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
    # a specialized family's element is its unspecialized form; the oracle
    # evaluates its polynomial p-coordinates at zeta_2, residues of degree
    # < phi(2) = 1 with int coefficients over D = 3!
    spec = FamilySpec("hl-P", "Q", Specialization.at_root(2))
    assert family_element(spec, P(2, 1)) == deformed.tableau_form((2, 1), "t")
    scale, coords = oracle._product(spec, seq_of((1,), (2,), (2, 1)), (3,), {})
    assert scale == 6
    assert all(c.keys() == {(0, 0)} and type(c[0, 0]) is int for c in coords.values())
    # at t = -1 the coordinates are rational: compare against direct subs
    direct = symfunc.p_expansion(
        specialize_coeffs(deformed.hl_P((2, 1)), Specialization.at_value(-1))
    )
    assert direct and {decode(nu): Fraction(c[0, 0], 6) for nu, c in coords.items()} == direct


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
