"""Exact-arithmetic routines that only the tests use, as references.

The engine keeps rational functions coprime in every constructor, so it never
substitutes into one and reduces again, and it evaluates at a root of unity
without counting powers of Phi_k.  These are the direct versions: substitute,
then reduce through ``RatFunc.make``; count the Phi_k factors by trial
division.  The engine specializes a closed form factor by factor
(``Specialization.apply``); the direct version expands it to a RatFunc,
substitutes the point into its numerator and denominator and reduces, or at
a root of unity takes the residues of both parts.

The symmetric-function references build h, e and the Schur functions the
long way: h_n and e_n by the Newton recurrences, and s_lam by every term of
its Jacobi-Trudi determinant.  The tableau sums of the deformed families are
grown over every shape of each degree, not only inside the shape built.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

from symgen.deformed import _key_product, _strip_factor
from symgen.exactalg import (
    P_ONE,
    P_ZERO,
    CycloElem,
    Poly,
    RatFunc,
    ZeroDenominator,
    ZeroPolynomial,
    cyclotomic_poly,
    poly_exact_div,
    try_exact_div,
)
from symgen.partitions import EMPTY, Partition, union


def specialized_by_expansion(spec, lam, mu, n):
    """The family's closed form <u_n, p_n> as a RatFunc, specialized without
    ``Specialization.apply``: None where the value is undefined."""
    fam, spz = spec.definition, spec.specialization
    f = fam.pairing(lam, mu, n).expand()
    if spz.kind == "root":
        if fam.variable == "q":
            f = f.swap_vars()
        # the parts are coprime: Phi_k divides at most one of them
        num = CycloElem.from_poly(f.scale * f.num, spz.root_order)
        den = CycloElem.from_poly(f.den, spz.root_order)
        if not den:
            return None
        return num / den
    point = (
        {fam.variable: spz.value} if spz.kind == "value"
        else {"q": spz.q_value, "t": spz.t_value}
    )
    try:
        return ratfunc_subs(f, **point).as_fraction()
    except ZeroDenominator:
        return None


def key_denominator(den) -> Poly:
    """The polynomial a key-count denominator (``deformed.KeyQuotient``)
    stands for, multiplied out."""
    return Poly.const(den.scale) * _key_product(den.count, Poly({den.monomial: 1}))


def ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """Canonical reduced form of num/den (ZeroDenominator if den = 0)."""
    return RatFunc.make(num, den)


def poly_subs(p: Poly, q=None, t=None) -> Poly:
    """p with rational values substituted for q and/or t (None leaves a
    variable)."""
    out: dict = {}
    for (dq, dt), c in p.terms.items():
        if q is not None:
            c *= Fraction(q) ** dq
            dq = 0
        if t is not None:
            c *= Fraction(t) ** dt
            dt = 0
        if not c:
            continue
        term = (dq, dt)
        s = out.get(term, 0) + c
        if s:
            out[term] = s
        else:
            out.pop(term, None)
    return Poly(out)


def ratfunc_subs(f: RatFunc, q=None, t=None) -> RatFunc:
    """f with rational values substituted for q and/or t (None leaves a
    variable), reduced again; raises ZeroDenominator on a pole."""
    if f.is_zero():
        return f
    return RatFunc.make(poly_subs(f.num, q=q, t=t), poly_subs(f.den, q=q, t=t), f.scale)


def poly_subs_q_to_t(p: Poly) -> Poly:
    """p with q identified with t (for q = t degenerations)."""
    out: dict = {}
    for (dq, dt), c in p.terms.items():
        term = (0, dq + dt)
        s = out.get(term, 0) + c
        if s:
            out[term] = s
        else:
            out.pop(term, None)
    return Poly(out)


def ratfunc_subs_q_to_t(f: RatFunc) -> RatFunc:
    """f with q identified with t, reduced again."""
    if f.is_zero():
        return f
    return RatFunc.make(poly_subs_q_to_t(f.num), poly_subs_q_to_t(f.den), f.scale)


def cyclotomic_multiplicity(p: Poly, k: int) -> int:
    """Exponent of Phi_k(t) in the factorization of a univariate-in-t poly."""
    if p.is_zero():
        raise ZeroPolynomial("cyclotomic multiplicity of the zero polynomial")
    if not p.is_univariate_t():
        raise ValueError("polynomial must be univariate in t")
    phi_k = cyclotomic_poly(k)
    count = 0
    while True:
        quo = try_exact_div(p, phi_k)
        if quo is None:
            return count
        p = quo
        count += 1


def jacobi_trudi_unpruned(lam):
    """det(h_{lam_i - i + j}) as signed h-index partitions: every permutation
    prefix, no branch dropped."""
    size = len(lam)
    acc = {}

    def expand(i, used, sign, parts):
        if i == size:
            key = Partition(sorted(parts, reverse=True))
            acc[key] = acc.get(key, 0) + sign
            return
        for j in range(size):
            if used & (1 << j):
                continue
            k = lam[i] - i + j
            if k < 0:
                continue
            inversions = bin(used >> (j + 1)).count("1")
            expand(i + 1, used | (1 << j), sign * (-1) ** inversions, parts + ((k,) if k else ()))

    expand(0, 0, 1, ())
    return tuple((key, c) for key, c in acc.items() if c)


def newton_row(n, sign=1):
    """h_n (sign 1) or e_n (sign -1) on the power sums, as {nu: Fraction},
    by the Newton recurrence n u_n = sum_r sign^(r-1) p_r u_{n-r}."""
    rows = [{EMPTY: Fraction(1)}]
    for m in range(1, n + 1):
        out = {}
        for r in range(1, m + 1):
            for lam, c in rows[m - r].items():
                key = union(lam, (r,))
                out[key] = out.get(key, 0) + sign ** (r - 1) * c / m
        rows.append(out)
    return rows[n]


def horizontal_strips_unpruned(mu, k):
    """Every lam with lam/mu a horizontal strip of k cells: mu_i <= lam_i <= mu_{i-1}."""
    rows = list(mu) + [0]
    bounds = zip(rows, [rows[0] + k] + list(mu))
    for parts in product(*(range(low, high + 1) for low, high in bounds)):
        if sum(parts) == mu.size + k:
            yield Partition(parts)


@lru_cache(maxsize=None)
def tableau_states_unpruned(content: tuple, kind: str) -> dict:
    """{lam: [x^content] c_lam P_lam} for every shape lam the content fills,
    summed over the lcm of the key denominators of each shape's terms."""
    if not content:
        return {EMPTY: P_ONE}
    incoming: dict = {}
    for mu, coeff in tableau_states_unpruned(content[:-1], kind).items():
        for lam in horizontal_strips_unpruned(mu, content[-1]):
            incoming.setdefault(lam, []).append((coeff, _strip_factor(mu, lam, kind)))
    out = {}
    for lam, terms in incoming.items():
        lcm: Counter = Counter()
        for _, (_, count) in terms:
            lcm |= -count
        total = sum((c * s * _key_product(count + lcm) for c, (s, count) in terms), P_ZERO)
        out[lam] = poly_exact_div(total, _key_product(lcm)) if lcm else total
    return out
