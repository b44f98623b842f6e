"""Exact-arithmetic routines that only the tests use, as references.

The engine keeps rational functions coprime in every constructor, so it never
substitutes into one and reduces again, and it evaluates at a root of unity
without counting powers of Phi_k.  These are the direct versions: substitute,
then reduce through ``RatFunc.make``; count the Phi_k factors by trial
division.  The engine specializes a closed form factor by factor
(``Specialization.apply``); the direct version expands it to a RatFunc,
substitutes the point into its numerator and denominator and reduces, or at
a root of unity takes the residues of both parts.
"""

from fractions import Fraction

from symgen.exactalg import (
    CycloElem,
    Poly,
    RatFunc,
    ZeroDenominator,
    ZeroPolynomial,
    cyclotomic_poly,
    try_exact_div,
)


def specialized_by_expansion(spec, lam, mu, n):
    """The family's closed form <u_n, p_n> as a RatFunc, specialized without
    ``Specialization.apply``: None where the value is undefined."""
    fam, spz = spec.definition, spec.specialization
    f = fam.pairing(lam, mu, n)
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

