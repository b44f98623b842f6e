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
long way: h_n and e_n by the Newton recurrences, s_lam by every term of
its Jacobi-Trudi determinant, and the characters chi^lam(nu) by the
Murnaghan-Nakayama rule on beta-sets held as tuples.  Monomials reach the
power sums through the domino-tabloid counts, and a skew element is the
rational adjoint ``skew_p`` applied to those expansions.  Power sums
multiply by sorted unions of their parts (``p_convolve_by_union``), and the
p -> m columns grow by the same recurrence as the engine's, on sorted
tuples instead of multiplicity codes (``p_in_m_by_sorting``), and the
domino-tabloid weights are counted with the dominoes left as a tuple
(``w_by_tuples``).  The tableau sums of the deformed families are grown
over every shape of each degree, not only inside the shape built, and the
key polynomials are multiplied one ``Poly`` product at a time
(``key_product_by_dicts``), not packed into one integer.

The command line is also read by argparse (``reference_parser``), declared
from the CLI's own flag tables as the CLI declared it before it read them
itself.
"""

import argparse
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

from symgen.cli import _COMMANDS, _TOP_FLAGS, CliError
from symgen.deformed import _cyclotomic_factor, _strip_factor
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
from symgen.partitions import EMPTY, Partition, partitions_of, stats, union
from symgen.symfunc import SymFunc, skew_p


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
    return Poly.const(den.scale) * key_product_by_dicts(den.count, Poly({den.monomial: 1}))


def key_product_by_dicts(count, out: Poly = P_ONE) -> Poly:
    """out * prod H_key^count[key] over the keys counted positive, one
    ``Poly`` product per key (the engine packs them into one integer)."""
    for key, mult in count.items():
        if mult > 0:
            out = out * _cyclotomic_factor(*key) ** mult
    return out


def _remove(avail: tuple, value: int) -> tuple:
    out = list(avail)
    out.remove(value)
    return tuple(out)


@lru_cache(maxsize=None)
def _w_rows_by_tuples(rows: tuple, avail: tuple) -> int:
    if not rows:
        return 1 if not avail else 0
    total = 0
    for a in sorted(set(avail), reverse=True):
        if a <= rows[0]:
            total += a * _w_fill_by_tuples(rows[0] - a, _remove(avail, a), rows[1:])
    return total


@lru_cache(maxsize=None)
def _w_fill_by_tuples(rem: int, avail: tuple, rows: tuple) -> int:
    if rem == 0:
        return _w_rows_by_tuples(rows, avail)
    total = 0
    for b in sorted(set(avail), reverse=True):
        if b <= rem:
            total += _w_fill_by_tuples(rem - b, _remove(avail, b), rows)
    return total


def w_by_tuples(shape, typ) -> int:
    """The domino-tabloid weight sum w(shape, typ), the remaining dominoes
    held as a sorted tuple and removed with ``list.remove`` (the engine
    keys its memo by the type's multiplicity code)."""
    return _w_rows_by_tuples(tuple(shape), tuple(typ))


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


def p_convolve_by_union(a: dict, b: dict) -> dict:
    """The product of two power-sum maps {nu: c}, p_la p_lb = p_{la u lb},
    each key the sorted union of the parts."""
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            key = union(la, lb)
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=None)
def p_in_m_by_sorting(nu: tuple) -> dict:
    """Column nu of the p -> m matrix, {kappa: [m_kappa] p_nu} with kappa a
    plain tuple: p_r m_kappa sums m_{s+r}(mu) m_mu over the mu that raise
    one part s of kappa (s = 0 included) to s + r, each mu sorted and its
    multiplicity counted (Macdonald I.6)."""
    if not nu:
        return {(): 1}
    r = nu[0]
    out: dict = {}
    for kappa, c in p_in_m_by_sorting(nu[1:]).items():
        for s in set(kappa) | {0}:
            i = kappa.index(s) if s else len(kappa)
            mu = tuple(sorted(kappa[:i] + kappa[i + 1:] + (s + r,), reverse=True))
            out[mu] = out.get(mu, 0) + c * mu.count(s + r)
    return out


def p_in_m_by_placement(nu: tuple) -> dict:
    """Column nu of the p -> m matrix by brute force: [m_kappa] p_nu counts
    the ways to drop the parts of nu into the rows of kappa so that each row
    fills exactly, found among all len(nu)^len(nu) placements as those whose
    row sums are kappa followed by empty rows."""
    out: dict = {}
    for rows in product(range(len(nu)), repeat=len(nu)):
        sums = [0] * len(nu)
        for part, row in zip(nu, rows):
            sums[row] += part
        if all(a >= b for a, b in zip(sums, sums[1:])):
            kappa = tuple(x for x in sums if x)
            out[kappa] = out.get(kappa, 0) + 1
    return out


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


def beta_set(parts) -> tuple:
    """The beta-set of a partition: its first-column hook lengths
    lam_i + l - i, decreasing (l the number of nonzero parts)."""
    parts = [p for p in parts if p]
    return tuple(p + len(parts) - 1 - i for i, p in enumerate(parts))


@lru_cache(maxsize=None)
def character(beta: tuple, nu: tuple) -> int:
    """chi^lam(nu), lam given by its beta-set, by the Murnaghan-Nakayama
    rule: removing a rim hook of length r = nu_1 moves one bead from b to a
    free b - r >= 0, with sign (-1)^(beads strictly between)."""
    if not nu:
        return 1
    r, rest = nu[0], nu[1:]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        between = sum(1 for c in beta if b - r < c < b)
        moved = sorted((c if c != b else b - r for c in beta), reverse=True)
        parts = [c - (len(moved) - 1 - i) for i, c in enumerate(moved)]
        chi = character(beta_set(parts), rest)
        total += -chi if between % 2 else chi
    return total


def m_to_p(lam) -> dict:
    """m_lam = sum over nu of eps_nu eps_lam w(nu, lam)/z_nu * p_nu."""
    lam = Partition(lam)
    el = stats(lam).eps
    out = {}
    for nu in partitions_of(lam.size):
        if weight := w_by_tuples(nu, lam):
            st = stats(nu)
            out[nu] = Fraction(st.eps * el * weight, st.z)
    return out


@lru_cache(maxsize=None)
def p_expansion_by_reference(basis: str, lam) -> dict:
    """{nu: [p_nu] b_lam} for a classical basis: s by ``character``, m by
    ``m_to_p``, h and e as products of ``newton_row``, f = omega m."""
    lam = Partition(lam)
    if basis == "s":
        beta = beta_set(lam)
        out = {nu: Fraction(character(beta, nu), stats(nu).z) for nu in partitions_of(lam.size)}
        return {nu: c for nu, c in out.items() if c}
    if basis == "m":
        return m_to_p(lam)
    if basis == "f":
        return {nu: stats(nu).eps * c for nu, c in m_to_p(lam).items()}
    out = {EMPTY: Fraction(1)}
    for part in lam:
        out = p_convolve_by_union(out, newton_row(part, 1 if basis == "h" else -1))
    return out


def skew_by_adjoint(family: str, lam, mu) -> SymFunc:
    """u_{lam/mu} as u_mu^perp u_lam on the rational p-expansions
    (``skew_p``); zero when |lam| < |mu|."""
    if Partition(lam).size < Partition(mu).size:
        return SymFunc("p", {})
    xp = p_expansion_by_reference(family, lam)
    return SymFunc("p", skew_p(xp, p_expansion_by_reference(family, mu)))


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
        total = sum((c * s * key_product_by_dicts(count + lcm) for c, (s, count) in terms), P_ZERO)
        out[lam] = poly_exact_div(total, key_product_by_dicts(lcm)) if lcm else total
    return out


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _declare(parser, flags):
    for flag in flags:
        if flag.convert is bool:
            parser.add_argument(flag.name, dest=flag.dest, action="store_true")
            continue
        typed = {int: {"type": int}, str: {}}.get(flag.convert, {"choices": flag.convert})
        parser.add_argument(
            flag.name, dest=flag.dest, required=flag.required, default=flag.default, **typed
        )


def reference_parser() -> argparse.ArgumentParser:
    """argparse over the CLI's flag tables: ``[--seed-manifest] COMMAND``
    with one subparser per command; a rejected argv raises CliError."""
    parser = _ReferenceParser(prog="symgen")
    _declare(parser, _TOP_FLAGS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help_text), flags)
    return parser
