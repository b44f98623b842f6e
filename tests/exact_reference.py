"""Exact-arithmetic routines that only the tests use, as references.

The engine keeps rational functions coprime in every constructor, so it never
substitutes into one and reduces again, and it evaluates at a root of unity
without counting powers of Phi_k.  These are the direct versions: substitute,
then reduce through ``RatFunc.make``; count the Phi_k factors by trial
division.  The engine specializes a closed form key by key; the direct
version expands it to a RatFunc first.
"""

from symgen.exactalg import (
    Poly,
    RatFunc,
    ZeroDenominator,
    ZeroPolynomial,
    cyclotomic_poly,
    try_exact_div,
)


def specialized_by_expansion(spec, lam, mu, n):
    """The family's closed form <u_n, p_n> as a RatFunc, then
    ``Specialization.apply``: None where the value is undefined."""
    fam = spec.definition
    try:
        return spec.specialization.apply(fam.pairing(lam, mu, n), fam.variable)
    except ZeroDenominator:
        return None


def ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """Canonical reduced form of num/den (ZeroDenominator if den = 0)."""
    return RatFunc.make(num, den)


def ratfunc_subs(f: RatFunc, q=None, t=None) -> RatFunc:
    """f with rational values substituted for q and/or t (None leaves a
    variable), reduced again; raises ZeroDenominator on a pole."""
    if f.is_zero():
        return f
    return RatFunc.make(f.num.subs(q=q, t=t), f.den.subs(q=q, t=t), f.scale)


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

