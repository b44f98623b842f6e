"""Brute-force verification of the generating criteria.

For a graded sequence u_1, ..., u_N the products u_lam = prod u_{lam_i} over
lam |- n are expanded into the monomial basis; the sequence is algebraically
independent at degree n iff that p(n) x p(n) matrix is nonsingular, and
generates iff the determinant is a unit at every degree so far (nonzero over
a field, +-1 over Z).  Products are convolved in the power-sum basis over
fields and in the complete-homogeneous basis over Z, so none of the closed
forms under test participate.  The final per-degree change to the monomial
basis is shared plumbing: an integer p -> m matrix read off the p-expansions
of the complete homogeneous basis by Hall duality (see ``symfunc``).  Each
product u_lam is u_{lam_1} times the memoized u_{lam minus lam_1}.

A specialization under which some u_k does not exist (a vanishing
denominator) leaves ``det`` null and ``independent`` false from degree k on,
and ``inner`` null at degree k; the criterion fields still come from
``criteria``.

Determinants: fraction-free Bareiss over Z, exact Gaussian elimination over
the coefficient fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .criteria import (
    FamilySpec,
    checked_criterion,
    render_value,
    value_is_unit,
)
from .deformed import deformed_inner, skew_hl_P, specialize_coeffs
from .exactalg import RING_QT, CoeffRing, ZeroDenominator
from .partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    column_separated,
    contains,
    format_partition,
    is_ribbon,
    partitions_of,
    union,
)
from .symfunc import SymFunc, p_expansion, sym, to_basis

# the highest degree the skew Hall-Littlewood probe computes
PROBE_MAX_DEGREE = 5


@dataclass(frozen=True)
class DegreeMatrix:
    degree: int
    rows: tuple  # partitions indexing the products u_lam
    cols: tuple  # partitions indexing the monomial coordinates
    entries: tuple  # row-major, exact ring values

    def det(self, ring_name: str):
        if ring_name == "Z":
            return det_bareiss([list(r) for r in self.entries])
        return det_gauss([list(r) for r in self.entries])


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_bareiss(mat: list) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    size = len(mat)
    if size == 0:
        return 1
    mat = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if mat[r][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def det_gauss(mat: list):
    """Exact Gaussian-elimination determinant over a field (Fraction,
    RatFunc or CycloElem entries)."""
    size = len(mat)
    if size == 0:
        return Fraction(1)
    mat = [list(row) for row in mat]
    det = None
    sign = 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if mat[r][k]), None)
        if pivot is None:
            first = mat[0][0]
            return first - first  # a zero of the entry type
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        p = mat[k][k]
        det = p if det is None else det * p
        for i in range(k + 1, size):
            if not mat[i][k]:
                continue
            factor = mat[i][k] / p
            for j in range(k, size):
                mat[i][j] = mat[i][j] - factor * mat[k][j]
    return det if sign == 1 else det * (-1)


# ---------------------------------------------------------------------------
# family elements
# ---------------------------------------------------------------------------

def family_element(spec: FamilySpec, lam, mu=None) -> SymFunc:
    """The sequence element u_n of the family, over the spec's coefficient
    field, with the spec's specialization already applied."""
    fam = spec.definition
    base = fam.element(Partition(lam), Partition(mu) if mu is not None else EMPTY)
    if spec.specialization is None:
        return base
    return specialize_coeffs(base, spec.specialization, fam.variable)


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"expected an integer entry, got {value}")
    return value.numerator


def degree_matrix(spec: FamilySpec, seq, n: int) -> DegreeMatrix:
    """The matrix of the products u_lam (lam |- n) on the monomial basis.

    Rows follow the canonical order of the product index lam; columns the
    canonical order of the monomial index.  Over Z the expansion runs through
    the h-basis and the entries are integers; over the coefficient fields it
    runs through the p-basis.
    """
    if len(seq) < n:
        raise ValueError(f"sequence defines degrees 1..{len(seq)}, need {n}")
    ring = spec.coeff_ring
    order = partitions_of(n)
    use_h = spec.ring == "Z"
    basis = "h" if use_h else "p"
    elements = {}
    for k in range(1, n + 1):
        lam_k, mu_k = seq[k - 1]
        u_k = family_element(spec, lam_k, mu_k)
        elements[k] = dict(to_basis(u_k, basis).coeffs)

    def convolve(a: dict, b: dict) -> dict:
        out: dict = {}
        for la, ca in a.items():
            for lb, cb in b.items():
                key = union(la, lb)
                s = out.get(key, ring.zero) + ca * cb
                if CoeffRing.is_zero(s):
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    products = {EMPTY: {EMPTY: ring.one}}

    def product(lam: tuple) -> dict:
        if lam not in products:
            products[lam] = convolve(elements[lam[0]], product(lam[1:]))
        return products[lam]

    rows = []
    for lam in order:
        as_m = to_basis(SymFunc(basis, product(lam), ring), "m").coeffs
        row = [as_m.get(mu, ring.zero) for mu in order]
        if use_h:
            row = [_as_int(v) for v in row]
        rows.append(tuple(row))
    return DegreeMatrix(degree=n, rows=order, cols=order, entries=tuple(rows))


def recomputed_inner(spec: FamilySpec, lam, mu, n: int):
    """<u_n, p_n> by full expansion of the constructed element (no closed
    forms): n times the coefficient of p_(n)."""
    u = family_element(spec, lam, mu)
    coeff = p_expansion(u).get(Partition((n,)))
    ring = spec.coeff_ring
    if coeff is None:
        return ring.zero
    return coeff * ring.from_int(n)


def verdict(spec: FamilySpec, seq, max_degree: int) -> list[dict]:
    """Per-degree records: criterion + closed-form value (from criteria, which
    must agree), determinant verdicts and the recomputed inner product (from
    here)."""
    records = []
    generating = True
    for n in range(1, max_degree + 1):
        lam, mu = seq[n - 1]
        ok, reason, closed = checked_criterion(spec, lam, mu, n)
        try:
            det = degree_matrix(spec, seq, n).det(spec.ring)
        except ZeroDenominator:  # some u_k with k <= n does not exist
            det = None
        independent = bool(det)
        generating = generating and value_is_unit(spec, det)
        try:
            inner = recomputed_inner(spec, lam, mu, n)
        except ZeroDenominator:
            inner = None
        records.append(
            {
                "n": n,
                "family": spec.family,
                "ring": spec.ring,
                "criterion": ok,
                "reason": reason.code(),
                "value": render_value(closed),
                "det": render_value(det),
                "independent": independent,
                "generates": generating,
                "inner": render_value(inner),
            }
        )
    return records


# ---------------------------------------------------------------------------
# conjecture probe (skew Hall-Littlewood)
# ---------------------------------------------------------------------------

def conjecture_probe(seq, max_degree: int) -> list[dict]:
    """Exact <P_{lam/mu}, p_n>_t for a skew sequence, with the shape data the
    column-separation conjecture talks about.

    Emits one record per degree; ``counterexample_candidate`` marks degrees
    whose inner product is nonzero while the conjectured shape condition
    fails.  No assertion about the conjecture itself is made.
    """
    if max_degree > PROBE_MAX_DEGREE:
        raise ValueError(f"probe degrees are capped at {PROBE_MAX_DEGREE}")
    records = []
    for n in range(1, max_degree + 1):
        lam, mu = seq[n - 1]
        lam = Partition(lam)
        mu = Partition(mu) if mu is not None else EMPTY
        if lam.size - mu.size != n:
            raise ValueError(f"entry {n} is not a skew partition of {n}")
        value = deformed_inner(skew_hl_P(lam, mu), sym("p", (n,), RING_QT), "t")
        has_containment = contains(mu, lam)
        separated = None
        if has_containment:
            separated = column_separated(SkewPartition(lam, mu))
        ribbon = is_ribbon(SkewPartition(lam, mu))
        nonzero = not value.is_zero()
        records.append(
            {
                "n": n,
                "lambda": format_partition(lam),
                "mu": format_partition(mu),
                "value": value.render(),
                "nonzero": nonzero,
                "contains": has_containment,
                "column_separated": separated,
                "ribbon": ribbon,
                "counterexample_candidate": nonzero
                and (not has_containment or bool(separated)),
            }
        )
    return records
