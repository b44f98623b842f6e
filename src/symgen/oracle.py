"""Brute-force verification of the generating criteria.

For a graded sequence u_1, ..., u_N the products u_lam = prod u_{lam_i} over
lam |- n are expanded into the monomial basis; the sequence is algebraically
independent at degree n iff that p(n) x p(n) matrix is nonsingular, and
generates iff the determinant is a unit at every degree so far (nonzero over
a field, +-1 over Z).  Every ring takes one route: products are convolved in
the power-sum basis, so none of the closed forms under test participate, and
then taken to the monomial basis by the integer p -> m matrix that
``symfunc`` counts, each column read off its memo (``_p_in_m``) as a sparse
map.  Each product u_lam is u_{lam_1} times the memoized
u_{lam minus lam_1}; ``verdict`` keeps one memo of elements and products
across all its degrees, so each u_k is built once, ``inner`` included.

Every element travels as one pair (D, {nu: D [p_nu] u}), with D chosen so
that the coordinates need no fraction (``_p_coordinates``):

* a classical family's degree-k element has D = k!.  Its coordinates are
  its integer class values <b_lam, p_nu> (``symfunc._class_values``) times
  k!/z_nu, and a skew element's, on the power sums, are k! times its
  coefficients; no Fraction is built.  z_nu divides k!, so the
  coordinates of an integral element are integers; a fraction raises
  ``ValueError``;
* a deformed family over its generic field Q(t) or Q(q,t) comes as its
  form (``deformed.reduced``): D is k! times the form's key count (a
  ``KeyQuotient``), and its coordinates are polynomials
  (``deformed.polynomial_p_coordinates``);
* a specialized deformed family (at a value, a root of unity or a (q,t)
  pair) takes the same polynomial coordinates, each evaluated once at the
  point and multiplied by D's value inverted: D = 1, and coordinates in its
  coefficient field.  Only Macdonald P's D has keys, and u_k is undefined
  exactly where one of them vanishes (``_p_coordinates``).

A product is the convolution of its factors' coordinates over the product
of their D, and a row of m-entries is the product's row times the p -> m
matrix.  A classical row is divided by its D in one pass that skips its
zeros, each an exact integer quotient (a remainder raises ``ValueError``),
and at D = 1 the row is the values themselves.  A key-count D is never
divided entry by entry: the row stays its numerators, and the determinant
divides once.  No rational-function arithmetic and no gcd is taken on the
way.

A specialization under which some u_k does not exist (a vanishing
denominator) leaves ``det`` null and ``independent`` false from degree k on,
and ``inner`` null at degree k; the criterion fields still come from
``criteria``.  The memo records the missing u_k, so it is built once.

Determinants: every ring takes one fraction-free elimination,
``det_bareiss`` on integers (Bareiss 1968), with two callers.  It
eliminates one row at a time: each step rebuilds the rows below the pivot
without the eliminated column, and a row already 0 in that column is only
rescaled, or kept as it is when the pivot equals the previous one.  A
classical family's matrix on m is integral over Q as over Z and goes to it
directly.
Every other matrix is lifted to polynomials, a rational to a constant and a
residue mod Phi_k to its polynomial of degree < phi(k), and goes to
``det_polynomial``: the determinant is a polynomial of bounded degree,
taken at integer nodes by one ``det_bareiss`` each and recovered by exact
interpolation (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5);
a constant takes one node.  It is then divided by the rows' D's, one key
count, fibre by fibre (``KeyQuotient.divide``), or reduced mod Phi_k, a
ring map.  ``det_gauss`` is kept as the tests' reference.

The conjecture probe prints <P_{lam/mu}, p_n>_t, which it takes as one sum
over the power-sum coordinates of P_lam and P_mu
(``deformed.skew_hl_P_pn_inner``) without building P_{lam/mu}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .criteria import (
    FamilySpec,
    checked_criterion,
    render_value,
    value_is_unit,
)
from .deformed import KeyQuotient, polynomial_p_coordinates, skew_hl_P_pn_inner
from .exactalg import P_ONE, P_ZERO, CycloElem, Poly, ZeroDenominator
from .partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    column_separated,
    contains,
    format_partition,
    is_ribbon,
    partitions_of,
    stats,
)
from .symfunc import SymFunc, _class_values, _p_convolve, _p_in_m

# the highest degree the skew Hall-Littlewood probe computes
PROBE_MAX_DEGREE = 8


@dataclass(frozen=True)
class DegreeMatrix:
    """The products u_lam (lam |- n) on the monomial basis, row lam kept as
    its numerator row over its D.

    ``numerators[i]`` is D_lam times u_lam's m-coordinates, D_lam =
    ``denominators[i]`` the product of the D of each u_{lam_j}.  Only a
    deformed family over its generic field keeps its D's (key counts): its
    rows are never reduced entry by entry, and ``det`` divides once.  Every
    other row is divided when it is built, an exact integer quotient for a
    classical family and nothing at a specialization (D = 1), and has no D.
    """

    degree: int
    rows: tuple  # partitions indexing the products u_lam
    cols: tuple  # partitions indexing the monomial coordinates
    numerators: tuple  # row-major: ints, Fractions, CycloElems or Polys
    denominators: tuple  # per row, its D as a KeyQuotient (None: divided)

    @property
    def entries(self) -> tuple:
        """Row-major exact ring values, each numerator reduced over its row's
        D by ``KeyQuotient.divide``.  For comparison with a reference;
        ``det`` does not read it."""
        return tuple(
            tuple(den.divide(v) for v in row) if den else row
            for row, den in zip(self.numerators, self.denominators)
        )

    def det(self):
        """The determinant, by ``det_bareiss`` on integers on every ring:
        directly on a classical family's entries, and through
        ``det_polynomial`` on every other matrix, a rational point's entries
        lifted to constants and a residue to its polynomial in t (no
        separate clearing of rational rows)."""
        first = self.numerators[0][0]
        if isinstance(first, int):
            return det_bareiss(self.numerators)
        if isinstance(first, Fraction):
            lifted = [[Poly.const(v) for v in row] for row in self.numerators]
            return Fraction(det_polynomial(lifted).as_fraction())
        if isinstance(first, CycloElem):
            lifted = [[v.as_poly() for v in row] for row in self.numerators]
            return CycloElem.from_poly(det_polynomial(lifted), first.k)
        dens = self.denominators
        return prod(dens[1:], start=dens[0]).divide(det_polynomial(self.numerators))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_bareiss(mat: list) -> int:
    """Fraction-free Bareiss determinant of an integer matrix.

    One row at a time: each step keeps the rows below the pivot row, each
    without its first column, as (entry * pivot - lead * pivot entry) // prev,
    exact by Sylvester's identity.  A row whose lead is 0 is only scaled,
    entry * pivot // prev, or kept as it is when pivot == prev."""
    size = len(mat)
    if size == 0:
        return 1
    rows = list(mat)
    sign = 1
    prev = 1
    for _ in range(size - 1):
        if rows[0][0] == 0:
            pivot = next((r for r in range(1, len(rows)) if rows[r][0] != 0), None)
            if pivot is None:
                return 0
            rows[0], rows[pivot] = rows[pivot], rows[0]
            sign = -sign
        top = rows[0]
        p, tail = top[0], top[1:]
        lower = []
        for row in rows[1:]:
            lead = row[0]
            if lead:
                lower.append([(x * p - lead * y) // prev for x, y in zip(row[1:], tail)])
            elif p == prev:
                lower.append(row[1:])
            else:
                lower.append([x * p // prev for x in row[1:]])
        rows = lower
        prev = p
    return sign * rows[0][0]


def _cleared(values: list) -> tuple[list, int, int]:
    """(ints, g, l) with values = ints * g / l and the ints coprime: l is
    the lcm of the denominators and g the gcd of the cleared numerators
    (0 when every value is 0)."""
    common = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (common // v.denominator) for v in values]
    content = gcd(*ints)
    if content > 1:
        ints = [c // content for c in ints]
    return ints, content, common


def _nodes(count: int) -> list:
    """The interpolation nodes 0, 1, -1, 2, -2, ..., ``count`` of them."""
    return [(i + 1) // 2 if i % 2 else -(i // 2) for i in range(count)]


def _interpolated(nodes: list, values: list) -> list:
    """Coefficients (constant first) of the integer polynomial of degree
    < len(nodes) taking ``values`` at the integer ``nodes``: Newton's divided
    differences, each an integer (that of x^m is the complete homogeneous
    polynomial h_{m-k} of the nodes), then the Newton form expanded."""
    diffs = list(values)
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) // (nodes[i] - nodes[i - k])
    coeffs = [diffs[-1]]
    for k in range(len(nodes) - 2, -1, -1):
        node = nodes[k]
        coeffs = [diffs[k] - node * coeffs[0]] + [
            coeffs[i - 1] - node * coeffs[i] for i in range(1, len(coeffs))
        ] + [coeffs[-1]]
    return coeffs


def _degree_bound(degrees: list) -> int:
    """A proven bound on the degree of det from the entries' degrees (-1 for
    a zero entry): the smaller of the row-wise and column-wise sums of the
    largest degree, each permutation's product being bounded by both."""
    return min(sum(map(max, degrees)), sum(map(max, zip(*degrees))))


def det_polynomial(mat) -> Poly:
    """Determinant of a square matrix of Polys in q and t.

    Each row is cleared to coprime integer coefficients (``_cleared``), so
    the determinant is an integer polynomial times the product of the row
    scales.  Its degree in each variable is at most ``_degree_bound`` B, so
    its values at the (B_q + 1) x (B_t + 1) nodes ``_nodes`` fix it: one
    ``det_bareiss`` per node on the entries evaluated to integers, then
    exact Newton interpolation in t at each q-node and in q for each
    coefficient of t.
    """
    if not mat:
        return P_ONE
    top = bottom = 1
    rows = []
    for row in mat:
        ints, content, common = _cleared([c for p in row for c in p.terms.values()])
        if not content:
            return P_ZERO
        top *= content
        bottom *= common
        cleared = iter(ints)
        rows.append([{term: next(cleared) for term in p.terms} for p in row])
    deg_q = [[max((dq for dq, _ in e), default=-1) for e in row] for row in rows]
    deg_t = [[max((dt for _, dt in e), default=-1) for e in row] for row in rows]
    if min(map(max, zip(*deg_t))) < 0:  # a zero column
        return P_ZERO
    q_nodes = _nodes(_degree_bound(deg_q) + 1)
    t_nodes = _nodes(_degree_bound(deg_t) + 1)
    by_q = []
    for a in q_nodes:
        # the entries at q = a, as dense coefficient lists in t, highest first
        dense = []
        for row, row_degs in zip(rows, deg_t):
            dense_row = []
            for e, top_t in zip(row, row_degs):
                coeffs = [0] * (top_t + 1)
                for (dq, dt), c in e.items():
                    coeffs[top_t - dt] += c * a**dq
                dense_row.append(coeffs)
            dense.append(dense_row)
        values = []
        for b in t_nodes:
            at_node = []
            for dense_row in dense:
                out = []
                for coeffs in dense_row:
                    v = 0
                    for c in coeffs:
                        v = v * b + c
                    out.append(v)
                at_node.append(out)
            values.append(det_bareiss(at_node))
        by_q.append(_interpolated(t_nodes, values))
    terms = {}
    for dt, column in enumerate(zip(*by_q)):
        for dq, c in enumerate(_interpolated(q_nodes, list(column))):
            if c:
                terms[(dq, dt)] = Fraction(c * top, bottom)
    return Poly(terms)


def det_gauss(mat: list):
    """Exact Gaussian-elimination determinant over a field (Fraction,
    RatFunc or CycloElem entries), one pivot inverse per column.

    No engine code calls it: ``DegreeMatrix.det`` eliminates with
    ``det_bareiss`` on every ring.  The tests compare against it, and the
    benchmark's tracer names it."""
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

def family_element(spec: FamilySpec, lam, mu=None) -> SymFunc | tuple:
    """The sequence element u_n of the family: a classical family's element,
    or a deformed family's form over its generic field (module docstring),
    at a specialization too."""
    fam = spec.definition
    return fam.element(Partition(lam), Partition(mu) if mu is not None else EMPTY)


def _exact_quotient(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ValueError(f"expected an integer entry, got {Fraction(num, den)}")
    return quotient


def _p_coordinates(spec: FamilySpec, u) -> tuple:
    """u as the pair (D, {nu: D [p_nu] u}) of the module docstring.  At a
    specialization a form's coefficients that vanish at the point are
    dropped (most of q-Whittaker's at a root of unity), and its polynomial
    coordinates are evaluated once each and taken over D's value inverted:
    its integer scale as a rational (coefficient-wise on a residue), and
    only its keys by a field inverse, which raises ZeroDenominator where one
    vanishes.  A form keeps a key only while it fails to divide some
    coefficient, and keys are irreducible, so that is exactly where u does
    not exist."""
    spz = spec.specialization
    if spz is not None:
        keys, x = u
        nonzero = {lam: c for lam, c in x.coeffs.items() if spz.evaluate(c)}
        den, coords = polynomial_p_coordinates((keys, SymFunc(x.basis, nonzero, x.ring)))
        inverse = Fraction(1, den.scale)
        if any(den.count.values()):
            inverted = Counter({key: -mult for key, mult in den.count.items()})
            inverse = spz.apply(KeyQuotient(1, (0, 0), inverted)) * inverse
        return 1, {nu: v for nu, c in coords.items() if (v := spz.evaluate(c) * inverse)}
    if spec.definition.deformation:
        return polynomial_p_coordinates(u)
    scale = factorial(u.degree())
    coords: dict = {}
    for lam, c in u.coeffs.items():
        # k! [p_nu] b_lam: k! for p_lam, else <b_lam, p_nu> (k!/z_nu)
        weights = ((lam, scale),) if u.basis == "p" else (
            (nu, v * (scale // stats(nu).z)) for nu, v in _class_values(u.basis, lam)
        )
        for nu, weight in weights:
            coords[nu] = coords.get(nu, 0) + _exact_quotient(c.numerator * weight, c.denominator)
    return scale, coords


def _divided(value, scale):
    """value / scale for a coordinate value over its pair's D."""
    if isinstance(scale, KeyQuotient):
        return scale.divide(value)
    return value if scale == 1 else _exact_quotient(value, scale)


def _zero(spec: FamilySpec):
    """The coordinates' zero: 0 for ints and polynomials, else the
    specialized field's zero."""
    return 0 if spec.specialization is None else spec.coeff_ring.zero


def _product(spec: FamilySpec, seq, lam: tuple, memo: dict) -> tuple:
    """The pair of u_lam, u_{lam_1} times u_{lam minus lam_1}, memoized by
    product index (u_k at (k,)).  A u_k that does not exist under the
    specialization is memoized as None, and every later lookup raises
    ZeroDenominator without building it again."""
    if lam not in memo:
        if len(lam) == 1:
            try:
                memo[lam] = _p_coordinates(spec, family_element(spec, *seq[lam[0] - 1]))
            except ZeroDenominator:
                memo[lam] = None
                raise
        else:
            d_head, head = _product(spec, seq, lam[:1], memo)
            d_tail, tail = _product(spec, seq, lam[1:], memo)
            memo[lam] = d_head * d_tail, _p_convolve(head, tail)
    pair = memo[lam]
    if pair is None:
        raise ZeroDenominator(f"u_{lam[0]} does not exist under the specialization")
    return pair


def degree_matrix(spec: FamilySpec, seq, n: int, memo: dict | None = None) -> DegreeMatrix:
    """The matrix of the products u_lam (lam |- n) on the monomial basis.

    Rows follow the canonical order of the product index lam; columns the
    canonical order of the monomial index.  Products are convolved on the
    p-basis as (D, coordinates) pairs and then taken to m by the integer
    p -> m matrix.  Over Q(t) and Q(q,t) a row stays the numerator over the
    D's of its factors (``DegreeMatrix``); every other row is divided by its
    D (module docstring).  ``memo`` maps each product index to its pair
    (``_product``).  Pass the same dict for every degree of one sequence to
    build each element and product once.
    """
    if len(seq) < n:
        raise ValueError(f"sequence defines degrees 1..{len(seq)}, need {n}")
    zero = _zero(spec)
    if memo is None:
        memo = {}
    order = partitions_of(n)
    index = {kappa: j for j, kappa in enumerate(order)}
    # column nu of the p -> m matrix, as (row, entry) pairs for its nonzeros
    cols = [[(index[kappa], r) for kappa, r in _p_in_m(nu).items()] for nu in order]
    rows, denominators = [], []
    for lam in order:
        scale, coords = _product(spec, seq, lam, memo)
        row = [zero] * len(order)
        for nu, col in zip(order, cols):
            c = coords.get(nu)
            if c is not None:
                for j, r in col:
                    row[j] = row[j] + c * r
        kept = isinstance(scale, KeyQuotient)
        if not kept and scale != 1:  # a classical row: exact, zeros skipped
            row = [_exact_quotient(v, scale) if v else 0 for v in row]
        rows.append(tuple(row))
        denominators.append(scale if kept else None)
    return DegreeMatrix(
        degree=n,
        rows=order,
        cols=order,
        numerators=tuple(rows),
        denominators=tuple(denominators),
    )


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
