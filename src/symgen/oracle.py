"""Brute-force verification of the generating criteria.

For a graded sequence u_1, ..., u_N the products u_lam = prod u_{lam_i} over
lam |- n are expanded into the monomial basis; the sequence is algebraically
independent at degree n iff that p(n) x p(n) matrix is nonsingular, and
generates iff the determinant is a unit at every degree so far (nonzero over
a field, +-1 over Z).  Every ring takes one route: products are convolved in
the power-sum basis, so none of the closed forms under test participate, and
then taken to the monomial basis by the integer p -> m matrix that
``symfunc`` counts, each column read off its memo (``_p_in_m``) as a sparse
map.  Coordinates, products and columns key a partition nu by its
multiplicity code (``partitions.code``: 8 bits per part size, a part that
occurs 256 times or more refused with ValueError), so the index of a
product is the sum of its factors' codes.  Each product u_lam is u_{lam_1}
times the memoized u_{lam minus lam_1}; ``verdict`` keeps one memo of
elements and products across all its degrees, so each u_k is built once,
``inner`` included.

Every element travels as one pair (D, {code(nu): D [p_nu] u}), with D
chosen so that the coordinates are integral (``_p_coordinates``):

* a classical family's degree-k element has D = k!.  Its coordinates are
  its integer class values <b_lam, p_nu> (``symfunc._class_values``) times
  k!/z_nu, and a skew element's, on the power sums, are k! times its
  coefficients; no Fraction is built.  z_nu divides k!, so the
  coordinates of an integral element are integers; a fraction raises
  ``ValueError``;
* a deformed family takes the polynomial coordinates of its form
  (``deformed.polynomial_p_coordinates``) over k! times the form's key
  count.  Over Q(t) or Q(q,t) they are term dicts {(deg_q, deg_t): int}
  over that ``KeyQuotient``; at a root of unity their residues mod Phi_k,
  as term dicts in t, over its integer scale (keys occur in Macdonald P
  only, specialized at (q,t) pairs only); at a rational point their values
  as integers over the lcm of their denominators times D's value, the
  keys evaluated and multiplied, never inverted.

A product is the convolution of its factors' coordinates over the product
of their D (term dicts summed in one dict, reduced mod Phi_k once at a
root), and a row of m-entries is the product's row times the p -> m
matrix, each entry made a ``Poly`` or a residue once.  A classical row is
divided by its D in one checked pass (a remainder raises ``ValueError``);
every other row stays its numerators, and the determinant divides once.
No rational-function arithmetic, gcd or field inverse is taken on the way.

A specialization under which some u_k does not exist (a vanishing
denominator) leaves ``det`` null and ``independent`` false from degree k on,
and ``inner`` null at degree k; the criterion fields still come from
``criteria``.  The memo records the missing u_k, so it is built once.

Determinants: every ring takes one fraction-free elimination,
``det_bareiss`` on integers (Bareiss 1968), with two callers.  It
eliminates one row at a time: each step rebuilds the rows below the pivot
without the eliminated column, and a row already 0 in that column is only
rescaled, or kept as it is when the pivot equals the previous one.  Integer
rows (a classical family's, integral over Q as over Z, and a rational
point's) go to it directly.  Polynomial rows, a residue mod Phi_k lifted to
its polynomial of degree < phi(k), go to ``det_polynomial``: the
determinant is a polynomial of bounded degree, taken at integer nodes by
one ``det_bareiss`` each and recovered by exact interpolation (von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 5), a residue's reduced
mod Phi_k.  It is divided once by the rows' D's (``_divided``): a Fraction
over an integer D, a key count fibre by fibre (``KeyQuotient.divide``).
``det_gauss`` is kept as the tests' reference.

The conjecture probe prints <P_{lam/mu}, p_n>_t, which it takes as one sum
over the power-sum coordinates of P_lam and P_mu
(``deformed.skew_hl_P_pn_inner``) without building P_{lam/mu}.
"""

from __future__ import annotations

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
    code,
    column_separated,
    contains,
    format_partition,
    is_ribbon,
    partitions_of,
    refuse_carry,
    z_of,
)
from .symfunc import SymFunc, _class_values, _p_convolve, _p_in_m

# the highest degree the skew Hall-Littlewood probe computes
PROBE_MAX_DEGREE = 8


@dataclass(frozen=True)
class DegreeMatrix:
    """The products u_lam (lam |- n) on the monomial basis, row lam kept as
    its numerator row over its D.

    ``numerators[i]`` is D_lam times u_lam's m-coordinates, D_lam =
    ``denominators[i]`` the product of the D of each u_{lam_j}: ints or
    residues with int coefficients over an int D at a rational point or a
    root of unity, Polys over a key count over Q(t) and Q(q,t), and ``det``
    divides once.  A classical row is divided when it is built (D None).
    """

    degree: int
    rows: tuple  # partitions indexing the products u_lam
    cols: tuple  # partitions indexing the monomial coordinates
    numerators: tuple  # row-major: ints, CycloElems or Polys
    denominators: tuple  # per row, its D: an int, a KeyQuotient or None

    @property
    def entries(self) -> tuple:
        """Row-major exact ring values, each numerator divided by its row's
        D (``_divided``).  For comparison with a reference; ``det`` does not
        read it."""
        return tuple(
            row if den is None else tuple(_divided(v, den) for v in row)
            for row, den in zip(self.numerators, self.denominators)
        )

    def det(self):
        """The determinant of the numerators, by ``det_bareiss`` on integers
        on every ring: directly on int rows, and through ``det_polynomial``
        on every other matrix, a residue lifted to its polynomial in t; then
        divided once by the product of the rows' D (``_divided``)."""
        first, dens = self.numerators[0][0], self.denominators
        if isinstance(first, int):
            det = det_bareiss(self.numerators)
        elif isinstance(first, CycloElem):
            lifted = [[v.as_poly() for v in row] for row in self.numerators]
            det = CycloElem.from_poly(det_polynomial(lifted), first.k)
        else:
            det = det_polynomial(self.numerators)
        return det if dens[0] is None else _divided(det, prod(dens[1:], start=dens[0]))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def det_bareiss(mat: list) -> int:
    """Fraction-free Bareiss determinant of an integer matrix.

    One row at a time: each step keeps the rows below the pivot row, each
    without its first column, as (entry * pivot - lead * pivot entry) // prev,
    exact by Sylvester's identity.  A row whose lead is 0 is only scaled,
    entry * pivot // prev, or kept as it is when pivot == prev; when
    pivot == prev divides a row's lead, that row is entry - (lead // pivot)
    * pivot entry, the same quotient with no product by the pivot."""
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
        if p == prev:
            for row in rows[1:]:
                lead = row[0]
                if not lead:
                    lower.append(row[1:])
                elif lead % p:
                    lower.append([(x * p - lead * y) // p for x, y in zip(row[1:], tail)])
                else:
                    f = lead // p
                    lower.append([x - f * y for x, y in zip(row[1:], tail)])
        else:
            for row in rows[1:]:
                lead = row[0]
                if lead:
                    lower.append([(x * p - lead * y) // prev for x, y in zip(row[1:], tail)])
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
        g = gcd(num, den)  # den > 0
        raise ValueError(f"expected an integer entry, got {num // g}/{den // g}")
    return quotient


def _in_terms(spec: FamilySpec) -> bool:
    """Whether coordinates are term dicts: over Q(t), Q(q,t) or at a root."""
    spz = spec.specialization
    return spz.kind == "root" if spz else spec.ring in ("Qt", "Qqt")


def _p_coordinates(spec: FamilySpec, u) -> tuple:
    """u as the pair (D, {code(nu): D [p_nu] u}) of the module docstring.
    At a specialization a form's coefficients that vanish at the point are
    dropped (most of q-Whittaker's at a root of unity), and its polynomial
    coordinates are evaluated once each.  D's value at a rational point is
    0, and ZeroDenominator raised, exactly where u does not exist: a form
    keeps a key only while it fails to divide some coefficient, and keys
    are irreducible."""
    spz = spec.specialization
    if spz is not None:
        keys, x = u
        nonzero = {lam: c for lam, c in x.coeffs.items() if spz.evaluate(c)}
        den, coords = polynomial_p_coordinates((keys, SymFunc(x.basis, nonzero, x.ring)))
        values = {code(nu): v for nu, c in coords.items() if (v := spz.evaluate(c))}
        if spz.kind == "root":
            return den.scale, {key: v.as_poly().terms for key, v in values.items()}
        at = spz.apply(den)  # D at the point, 0 where one of its keys vanishes
        if not at:
            raise ZeroDenominator("zero denominator")
        lcd = lcm(*(v.denominator for v in values.values()))
        return lcd * at.numerator, {
            key: v.numerator * (lcd * at.denominator // v.denominator) for key, v in values.items()
        }
    if spec.definition.deformation:
        den, coords = polynomial_p_coordinates(u)
        return den, {code(nu): c.terms for nu, c in coords.items()}
    scale = factorial(u.degree())
    coords: dict = {}
    for lam, c in u.coeffs.items():
        # k! [p_nu] b_lam: k! for p_lam, else <b_lam, p_nu> (k!/z_nu)
        weights = ((lam, scale),) if u.basis == "p" else (
            (nu, v * (scale // z_of(nu))) for nu, v in _class_values(u.basis, lam)
        )
        for nu, weight in weights:
            key = code(nu)
            coords[key] = coords.get(key, 0) + _exact_quotient(c.numerator * weight, c.denominator)
    return scale, coords


def _terms_product(spec: FamilySpec, a: dict, b: dict) -> dict:
    """``symfunc._p_convolve`` on term dicts: each coordinate summed in one
    dict and, at a root of unity, reduced mod Phi_k once."""
    refuse_carry(a, b)
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            acc = out.setdefault(la + lb, {})
            for (qa, ta), x in ca.items():
                for (qb, tb), y in cb.items():
                    term = qa + qb, ta + tb
                    acc[term] = acc.get(term, 0) + x * y
    if (spz := spec.specialization) is None:
        return out
    return {key: t for key, acc in out.items() if (t := spz.evaluate(Poly(acc)).as_poly().terms)}


def _value(spec: FamilySpec, terms: dict):
    """A term dict as a ring value: a Poly, or at a root (reduced) a residue."""
    if spec.specialization is None:
        return Poly(terms)
    zero = spec.coeff_ring.zero
    return CycloElem(zero.k, [terms.get((0, i), 0) for i in range(len(zero.coeffs))])


def _divided(value, den):
    """value / den: a numerator over its D, divided once (module docstring)."""
    if isinstance(den, KeyQuotient):
        return den.divide(value)
    if isinstance(value, CycloElem):
        return CycloElem(value.k, [Fraction(c, den) for c in value.coeffs])
    return Fraction(value, den)


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
            if _in_terms(spec):
                memo[lam] = d_head * d_tail, _terms_product(spec, head, tail)
            else:
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
    p -> m matrix, as ints or term dicts.  A classical row is divided by its
    D; every other row stays its numerators over the D's of its factors
    (``DegreeMatrix``).  ``memo`` maps each product index to its pair
    (``_product``).  Pass the same dict for every degree of one sequence to
    build each element and product once.
    """
    if len(seq) < n:
        raise ValueError(f"sequence defines degrees 1..{len(seq)}, need {n}")
    if memo is None:
        memo = {}
    order = partitions_of(n)
    codes = [code(kappa) for kappa in order]
    index = {key: j for j, key in enumerate(codes)}
    # column nu of the p -> m matrix, by nu's code, as (row, entry) pairs for
    # its nonzeros
    cols = {
        key: [(index[kappa], r) for kappa, r in _p_in_m(nu).items()]
        for nu, key in zip(order, codes)
    }
    in_terms, classical = _in_terms(spec), not spec.definition.deformation
    rows, denominators = [], []
    for lam in order:
        scale, coords = _product(spec, seq, lam, memo)
        if in_terms:
            sums = [{} for _ in order]
            for nu, c in coords.items():
                for j, r in cols[nu]:
                    acc = sums[j]
                    for term, v in c.items():
                        acc[term] = acc.get(term, 0) + v * r
            row = [_value(spec, acc) for acc in sums]
        else:
            row = [0] * len(order)
            for nu, c in coords.items():
                for j, r in cols[nu]:
                    row[j] = row[j] + c * r
        if classical:  # D divides the row's gcd
            if scale != 1:
                if gcd(*row) % scale:
                    for v in row:
                        _exact_quotient(v, scale)  # raises at the first remainder
                row = [v // scale for v in row]
        rows.append(tuple(row))
        denominators.append(None if classical else scale)
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
    c = coords.get(code((n,)), {} if _in_terms(spec) else 0)
    if isinstance(c, dict):
        return _divided(_value(spec, {t: v * n for t, v in c.items()}), scale)
    return _divided(c * n, scale) if spec.definition.deformation else _exact_quotient(c * n, scale)


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
