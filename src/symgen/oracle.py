"""Brute-force verification of the generating criteria.

For a graded sequence u_1, ..., u_N the products u_lam = prod u_{lam_i} over
lam |- n are expanded into the monomial basis; the sequence is algebraically
independent at degree n iff that p(n) x p(n) matrix is nonsingular, and
generates iff the determinant is a unit at every degree so far (nonzero over
a field, +-1 over Z).  Every ring takes one route: products are convolved in
the power-sum basis, so none of the closed forms under test participate, and
then taken to the monomial basis by the integer p -> m matrix that
``symfunc`` counts.  Each product u_lam is u_{lam_1} times the memoized
u_{lam minus lam_1}; ``verdict`` keeps one memo of elements and products
across all its degrees, so each u_k is built once, ``inner`` included.

Every element travels as one pair (D, {nu: D [p_nu] u}), with D chosen so
that the coordinates need no fraction (``_p_coordinates``):

* a classical family's degree-k element has D = k!.  It lies in the
  integral ring, and z_nu divides k!, so its coordinates are integers; a
  fraction raises ``ValueError``;
* a deformed family over its generic field Q(t) or Q(q,t) has the D of
  ``polynomial_p_coordinates``: k! times the lcm of the denominators of its
  coefficients (1 for every such family but Macdonald P, where it divides
  c_lam), and polynomial coordinates;
* a specialized deformed family (at a value, a root of unity or a (q,t)
  pair) has D = 1, and coordinates in its coefficient field.

A product is the convolution of its factors' coordinates over the product
of their D, and an m-entry is the product's row times the p -> m matrix,
divided by D once (``_divided``): an exact integer quotient (a remainder
raises ``ValueError``), one ``RatFunc.make`` over a polynomial D, or the
value itself at D = 1.  No rational-function sum or product is taken on the
way, and no gcd but the lcm's and the one ``RatFunc.make`` per entry.

A specialization under which some u_k does not exist (a vanishing
denominator) leaves ``det`` null and ``independent`` false from degree k on,
and ``inner`` null at degree k; the criterion fields still come from
``criteria``.

Determinants: a classical family's matrix on m is integral over Q as over Z,
so its determinant is fraction-free Bareiss; exact Gaussian elimination, one
pivot inverse per column, serves the deformed families' coefficient fields
(Bareiss over polynomials lost to it above degree 5; see ROADMAP item 2).

The conjecture probe prints <P_{lam/mu}, p_n>_t, which it takes as one sum
over the power-sum coordinates of P_lam and P_mu
(``deformed.skew_hl_P_pn_inner``) without building P_{lam/mu}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .criteria import (
    FamilySpec,
    checked_criterion,
    render_value,
    value_is_unit,
)
from .deformed import polynomial_p_coordinates, skew_hl_P_pn_inner, specialize_coeffs
from .exactalg import Poly, RatFunc, ZeroDenominator
from .partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    column_separated,
    contains,
    format_partition,
    is_ribbon,
    partitions_of,
)
from .symfunc import SymFunc, _basis_matrix_inverse, _p_convolve, p_expansion

# the highest degree the skew Hall-Littlewood probe computes
PROBE_MAX_DEGREE = 5


@dataclass(frozen=True)
class DegreeMatrix:
    degree: int
    rows: tuple  # partitions indexing the products u_lam
    cols: tuple  # partitions indexing the monomial coordinates
    entries: tuple  # row-major, exact ring values

    def det(self):
        """Bareiss for integer entries, Gaussian elimination for field ones."""
        mat = [list(r) for r in self.entries]
        if all(isinstance(v, int) for r in mat for v in r):
            return det_bareiss(mat)
        return det_gauss(mat)


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
        inverse = None  # 1/p, computed once per column
        for i in range(k + 1, size):
            if not mat[i][k]:
                continue
            if inverse is None:
                inverse = 1 / p
            factor = mat[i][k] * inverse
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


def _exact_quotient(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ValueError(f"expected an integer entry, got {Fraction(num, den)}")
    return quotient


def _p_coordinates(spec: FamilySpec, u: SymFunc) -> tuple:
    """u as the pair (D, {nu: D [p_nu] u}) of the module docstring."""
    if spec.specialization is not None:
        return 1, p_expansion(u)
    if spec.definition.deformation:
        return polynomial_p_coordinates(u)
    scale = factorial(u.degree())
    return scale, {
        nu: _exact_quotient(c.numerator * scale, c.denominator)
        for nu, c in p_expansion(u).items()
    }


def _divided(value, scale):
    """value / scale for a coordinate value over its pair's D."""
    if isinstance(scale, Poly):
        return RatFunc.make(value, scale)
    return value if scale == 1 else _exact_quotient(value, scale)


def _zero(spec: FamilySpec):
    """The coordinates' zero: 0 for ints and polynomials, else the
    specialized field's zero."""
    return 0 if spec.specialization is None else spec.coeff_ring.zero


def _product(spec: FamilySpec, seq, lam: tuple, memo: dict) -> tuple:
    """The pair of u_lam, u_{lam_1} times u_{lam minus lam_1}, memoized by
    product index (u_k at (k,))."""
    if lam not in memo:
        if len(lam) == 1:
            memo[lam] = _p_coordinates(spec, family_element(spec, *seq[lam[0] - 1]))
        else:
            d_head, head = _product(spec, seq, lam[:1], memo)
            d_tail, tail = _product(spec, seq, lam[1:], memo)
            memo[lam] = d_head * d_tail, _p_convolve(head, tail, _zero(spec))
    return memo[lam]


def degree_matrix(spec: FamilySpec, seq, n: int, memo: dict | None = None) -> DegreeMatrix:
    """The matrix of the products u_lam (lam |- n) on the monomial basis.

    Rows follow the canonical order of the product index lam; columns the
    canonical order of the monomial index.  Products are convolved on the
    p-basis as (D, coordinates) pairs and then taken to m by the integer
    p -> m matrix, each entry divided by the row's D (module docstring).
    ``memo`` maps each product index to its pair (``_product``).  Pass the
    same dict for every degree of one sequence to build each element and
    product once.
    """
    if len(seq) < n:
        raise ValueError(f"sequence defines degrees 1..{len(seq)}, need {n}")
    zero = _zero(spec)
    if memo is None:
        memo = {}
    order = partitions_of(n)
    to_m = _basis_matrix_inverse("m", n)
    # column nu of the p -> m matrix, as (row, entry) pairs for its nonzeros
    cols = [[(j, row[i]) for j, row in enumerate(to_m) if row[i]] for i in range(len(order))]
    rows = []
    for lam in order:
        scale, coords = _product(spec, seq, lam, memo)
        row = [zero] * len(order)
        for nu, col in zip(order, cols):
            c = coords.get(nu)
            if c is not None:
                for j, r in col:
                    row[j] = row[j] + c * r
        rows.append(tuple(_divided(v, scale) for v in row))
    return DegreeMatrix(degree=n, rows=order, cols=order, entries=tuple(rows))


def recomputed_inner(spec: FamilySpec, seq, n: int, memo: dict):
    """<u_n, p_n> by full expansion of the constructed element (no closed
    forms): n times the coefficient of p_(n) in u_n's pair in ``memo``."""
    scale, coords = _product(spec, seq, (n,), memo)
    return _divided(coords.get(Partition((n,)), _zero(spec)) * n, scale)


def verdict(spec: FamilySpec, seq, max_degree: int) -> list[dict]:
    """Per-degree records: criterion + closed-form value (from criteria, which
    must agree), determinant verdicts and the recomputed inner product (from
    here)."""
    records = []
    generating = True
    memo: dict = {}
    for n in range(1, max_degree + 1):
        lam, mu = seq[n - 1]
        ok, reason, closed = checked_criterion(spec, lam, mu, n)
        try:
            det = degree_matrix(spec, seq, n, memo).det()
        except ZeroDenominator:  # some u_k with k <= n does not exist
            det = None
        independent = bool(det)
        generating = generating and value_is_unit(spec, det)
        try:
            inner = recomputed_inner(spec, seq, n, memo)
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
        value = skew_hl_P_pn_inner(lam, mu, n)
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
