"""Deformed inner products and the families they orthogonalize.

The t-inner product scales the power-sum norms by prod 1/(1-t^{lam_i}); the
(q,t) version multiplies by prod (1-q^{lam_i}).  Hall-Littlewood P/Q, big
Schur, Macdonald P/J and the q-Whittaker functions are all built here, along
with the exact closed forms of their pairings against p_n.

Construction of P (both t and q,t): Gram-Schmidt on the monomial basis along
any linear extension of dominance order, subtracting corrections only for
strictly dominance-smaller indices.  The result is the unique m-unitriangular
orthogonal family, independent of the extension chosen.

Skew Hall-Littlewood P: both forms are diagonal on the power sums, so the
adjoint of multiplication by P_mu is ``symfunc.skew_p`` under the t-norms,
with no Gram matrix of the P family to invert.

Closed forms: the Hall-Littlewood and Macdonald pairings are a sign times a
monomial times a quotient of products of binomials q^a t^b - q^c t^d, one
binomial per cell of lam or per factor of a phi_r(t).  A binomial without a
monomial factor is P^g - N^g, with P, N monomials of disjoint support and g
the gcd of the exponent differences, and so the product of the homogenized
cyclotomic polynomials H_d(P, N) over d | g.  Each key (d, P, N), oriented
so that P < N (the sign absorbs the swap), stands for one polynomial, and
distinct keys give coprime polynomials: their zero sets are the curves
P/N = zeta for distinct (direction, root) pairs.  Cancelling equal keys
between numerator and denominator by counting therefore leaves a coprime
numerator and denominator, which is already the reduced form ``RatFunc.make``
would reach through a bivariate gcd.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .exactalg import (
    P_ONE,
    P_ZERO,
    Poly,
    RF_ONE,
    RF_ZERO,
    RING_QQT,
    RING_QT,
    RatFunc,
    Specialization,
    cyclotomic_poly,
)
from .partitions import EMPTY, Partition, partitions_of, stats
from .symfunc import (
    SymFunc,
    dominance_lt,
    multiply,
    p_expansion,
    skew_p,
    sym,
    to_basis,
)
from .tabloids import SizeMismatch


def phi_factorial(r: int) -> Poly:
    """phi_r(t) = (1-t)(1-t^2)...(1-t^r); phi_0 = 1."""
    out = P_ONE
    for j in range(1, r + 1):
        out = out * (P_ONE - Poly.t(j))
    return out


@lru_cache(maxsize=None)
def _p_norm_weight(nu: Partition, kind: str) -> RatFunc:
    """<p_nu, p_nu>_* / z_nu: prod 1/(1-t^i) or prod (1-q^i)/(1-t^i).

    The internal kind "q0" is the (q,t) form at t = 0 (weights prod (1-q^i)),
    the form the q-Whittaker family is orthogonal under.
    """
    num, den = P_ONE, P_ONE
    for part in nu:
        if kind != "q0":
            den = den * (P_ONE - Poly.t(part))
        if kind in ("qt", "q0"):
            num = num * (P_ONE - Poly.q(part))
    return RatFunc.make(num, den)


def deformed_inner(x: SymFunc, y: SymFunc, kind: str = "t") -> RatFunc:
    """Bilinear form with <p_lam, p_mu>_* = delta * z_lam * weight(lam)."""
    if kind not in ("t", "qt"):
        raise ValueError("kind must be 't' or 'qt'")
    return _pexp_inner(p_expansion(x), p_expansion(y), kind)


# ---------------------------------------------------------------------------
# Gram-Schmidt families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gs_family(n: int, kind: str) -> tuple:
    """Orthogonal m-unitriangular family at degree n for the chosen form.

    Returns ((lam, m_coeffs, p_coeffs, norm), ...) in increasing processing
    order; coefficient maps are dicts Partition -> RatFunc.
    """
    ring = RING_QQT if kind == "qt" else RING_QT
    done: list = []
    for lam in reversed(partitions_of(n)):
        m_row = dict(p_expansion(sym("m", lam, ring)))
        m_coeffs = {lam: RF_ONE}
        p_coeffs = dict(m_row)
        for mu, mu_m, mu_p, mu_norm in done:
            if not dominance_lt(mu, lam):
                continue
            cross = _pexp_inner(m_row, mu_p, kind)
            if cross.is_zero():
                continue
            coef = cross / mu_norm
            for key, val in mu_m.items():
                m_coeffs[key] = m_coeffs.get(key, RF_ZERO) - coef * val
            for key, val in mu_p.items():
                p_coeffs[key] = p_coeffs.get(key, RF_ZERO) - coef * val
        m_coeffs = {k: v for k, v in m_coeffs.items() if not v.is_zero()}
        p_coeffs = {k: v for k, v in p_coeffs.items() if not v.is_zero()}
        norm = _pexp_inner(p_coeffs, p_coeffs, kind)
        done.append((lam, m_coeffs, p_coeffs, norm))
    return tuple(done)


def _pexp_inner(xp: dict, yp: dict, kind: str) -> RatFunc:
    """Dot product of two p-expansions under the deformed form.

    Accumulated lazily over a running common denominator so that only one
    reduction happens at the end (and none at all for a zero result).
    """
    num_acc, den_acc = P_ZERO, P_ONE
    for nu, cx in xp.items():
        cy = yp.get(nu)
        if cy is None:
            continue
        cx = cx if isinstance(cx, RatFunc) else RatFunc.from_fraction(cx)
        cy = cy if isinstance(cy, RatFunc) else RatFunc.from_fraction(cy)
        if cx.is_zero() or cy.is_zero():
            continue
        weight = _p_norm_weight(nu, kind)
        scalar = cx.scale * cy.scale * weight.scale * stats(nu).z
        term_num = cx.num * cy.num * weight.num * scalar
        term_den = cx.den * cy.den * weight.den
        num_acc = num_acc * term_den + term_num * den_acc
        den_acc = den_acc * term_den
    if num_acc.is_zero():
        return RF_ZERO
    return RatFunc.make(num_acc, den_acc)


def _family_entry(lam: Partition, kind: str):
    for entry in _gs_family(lam.size, kind):
        if entry[0] == lam:
            return entry
    raise KeyError(lam)


def hl_P(lam) -> SymFunc:
    """Hall-Littlewood P: m-unitriangular, orthogonal for the t-form."""
    lam = Partition(lam)
    return SymFunc("m", _family_entry(lam, "t")[1], RING_QT)


def hl_Q(lam) -> SymFunc:
    """Q = prod_i phi_{m_i(lam)}(t) * P."""
    lam = Partition(lam)
    factor = P_ONE
    for m in lam.multiplicities().values():
        factor = factor * phi_factorial(m)
    return hl_P(lam).scaled(RatFunc.make(factor))


def qn(n: int) -> SymFunc:
    """The one-row Q, the generators of the big Schur determinant."""
    if n == 0:
        return SymFunc("m", {EMPTY: RF_ONE}, RING_QT)
    return hl_Q((n,))


def mac_P(lam) -> SymFunc:
    """Macdonald P: m-unitriangular, orthogonal for the (q,t)-form."""
    lam = Partition(lam)
    return SymFunc("m", _family_entry(lam, "qt")[1], RING_QQT)


def arm_leg_product(lam) -> Poly:
    """c_lam(q,t) = prod over cells (1 - q^arm t^(leg+1))."""
    arm_leg = _cell_binomials(Partition(lam))[1]
    return _binomial_quotient(1, (0, 0), arm_leg, []).as_poly()


def mac_J(lam) -> SymFunc:
    """Integral form J = c_lam(q,t) * P."""
    lam = Partition(lam)
    return mac_P(lam).scaled(RatFunc.make(arm_leg_product(lam)))


def whittaker(lam) -> SymFunc:
    """q-Whittaker W: the Macdonald P with t set to 0.

    Constructed directly as the m-unitriangular family orthogonal under the
    t=0 form (polynomial weights prod (1-q^i)); coefficientwise agreement
    with the substituted Macdonald P is part of the acceptance checks.
    """
    lam = Partition(lam)
    return SymFunc("m", _family_entry(lam, "q0")[1], RING_QT)


# ---------------------------------------------------------------------------
# closed-form pairings against p_n
# ---------------------------------------------------------------------------

def _require_size(lam: Partition, n: int):
    if lam.size != n:
        raise SizeMismatch(f"|{lam}| = {lam.size} != n = {n}")


# A binomial q^a t^b - q^c t^d is written ((a, b), (c, d)).

def _binomial_keys(binomial) -> tuple[int, list]:
    """(sign, keys): the binomial is sign * prod H_d(P, N) over its keys."""
    e1, e2 = binomial
    if min(e1[0], e2[0]) or min(e1[1], e2[1]) or e1 == e2:
        raise ValueError(f"{binomial} is zero or has a monomial factor")
    g = gcd(e1[0] - e2[0], e1[1] - e2[1])
    pos, neg = (e1[0] // g, e1[1] // g), (e2[0] // g, e2[1] // g)
    sign = 1
    if pos > neg:
        pos, neg, sign = neg, pos, -1
    return sign, [(d, pos, neg) for d in range(1, g + 1) if g % d == 0]


@lru_cache(maxsize=None)
def _cyclotomic_factor(d: int, pos: tuple, neg: tuple) -> Poly:
    """H_d(P, N) = N^phi(d) Phi_d(P/N), with the monomials P and N given as
    exponent pairs (deg_q, deg_t)."""
    phi = cyclotomic_poly(d)
    top = phi.deg_t()
    return Poly({
        (k * pos[0] + (top - k) * neg[0], k * pos[1] + (top - k) * neg[1]): c
        for (_, k), c in phi.terms.items()
    })


def _binomial_quotient(sign: int, monomial: tuple, num_binomials, den_binomials) -> RatFunc:
    """sign * q^a t^b * prod(num_binomials) / prod(den_binomials) in reduced
    form, with monomial = (a, b): equal binomial keys cancel by counting and
    the survivors are coprime, so no gcd is taken (see the module docstring).
    """
    count: Counter = Counter()
    for side, binomials in ((1, num_binomials), (-1, den_binomials)):
        for binomial in binomials:
            flip, keys = _binomial_keys(binomial)
            sign *= flip
            for key in keys:
                count[key] += side
    num, den = Poly({monomial: 1}), P_ONE
    for key, mult in count.items():
        if mult > 0:
            num = num * _cyclotomic_factor(*key) ** mult
        elif mult < 0:
            den = den * _cyclotomic_factor(*key) ** -mult
    return RatFunc._make_coprime(num, den, Fraction(sign))


def _one_minus_t(j: int) -> tuple:
    return ((0, 0), (0, j))


def _hl_Q_factors(lam: Partition) -> tuple:
    """(sign, monomial, binomials) of t^{n(lam)} phi_{l-1}(t^{-1})."""
    st = stats(lam)
    # t^a * phi_r(1/t) = (-1)^r * t^(a - r(r+1)/2) * phi_r(t), a >= r(r+1)/2 here
    r = max(st.length - 1, 0)
    shift = st.n_lambda - r * (r + 1) // 2
    return (-1) ** r, (0, shift), [_one_minus_t(j) for j in range(1, r + 1)]


def hl_Q_pn_closed(lam, n: int) -> RatFunc:
    """<Q_lam, p_n>_t = t^{n(lam)} phi_{l-1}(t^{-1}), cleared of t^{-1} powers."""
    lam = Partition(lam)
    _require_size(lam, n)
    return _binomial_quotient(*_hl_Q_factors(lam), [])


def hl_P_pn_closed(lam, n: int) -> RatFunc:
    """<P_lam, p_n> = (1-t^n) t^{n(lam)} phi_{l-1}(t^{-1}) / prod phi_{m_i}(t)."""
    lam = Partition(lam)
    _require_size(lam, n)
    sign, monomial, num = _hl_Q_factors(lam)
    den = [
        _one_minus_t(j) for m in lam.multiplicities().values() for j in range(1, m + 1)
    ]
    return _binomial_quotient(sign, monomial, [_one_minus_t(n)] + num, den)


def big_schur(lam) -> SymFunc:
    """S_lam(x;t) = det(q_{lam_i - i + j}) over the one-row Q generators."""
    lam = Partition(lam)
    size = len(lam)
    if size == 0:
        return SymFunc("m", {EMPTY: RF_ONE}, RING_QT)

    rows = []
    for i in range(1, size + 1):
        rows.append([lam[i - 1] - i + j for j in range(1, size + 1)])

    zero = SymFunc("p", {}, RING_QT)

    def det(rows_left: tuple, cols: tuple) -> SymFunc:
        if not rows_left:
            return SymFunc("p", {EMPTY: RF_ONE}, RING_QT)
        i = rows_left[0]
        total = zero
        for pos, j in enumerate(cols):
            k = rows[i][j]
            if k < 0:
                continue
            sub = det(rows_left[1:], cols[:pos] + cols[pos + 1 :])
            if sub.is_zero():
                continue
            term = multiply(qn(k), sub) if k > 0 else sub
            total = total + (term if pos % 2 == 0 else term.scaled(-RF_ONE))
        return total

    return det(tuple(range(size)), tuple(range(size)))


def big_schur_pn_closed(lam, n: int) -> RatFunc:
    """(-1)^(n - lam_1) (1 - t^n) for hooks, 0 otherwise."""
    lam = Partition(lam)
    _require_size(lam, n)
    from .partitions import is_hook

    if not is_hook(lam):
        return RF_ZERO
    sign = (-1) ** (n - lam[0])
    return RatFunc.make(Poly.const(sign) * (P_ONE - Poly.t(n)))


def _cell_binomials(lam: Partition) -> tuple[list, list]:
    """The binomials of X_n^lam and of c_lam, one per cell (i, j) of lam:
    t^(i-1) - q^(j-1) for every cell but (1,1), and 1 - q^arm t^(leg+1)."""
    conj = lam.conjugate()
    excess, arm_leg = [], []
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            if (i, j) != (1, 1):
                excess.append(((0, i - 1), (j - 1, 0)))
            arm_leg.append(((0, 0), (row - j, conj[j - 1] - i + 1)))
    return excess, arm_leg


def mac_P_pn_closed(lam, n: int) -> RatFunc:
    """<P_lam(q,t), p_n> = (1-t^n) X_n^lam / c_lam."""
    lam = Partition(lam)
    _require_size(lam, n)
    excess, arm_leg = _cell_binomials(lam)
    return _binomial_quotient(1, (0, 0), [_one_minus_t(n)] + excess, arm_leg)


def mac_J_pn_closed(lam, n: int) -> RatFunc:
    """<J_lam(q,t), p_n> = (1-t^n) X_n^lam."""
    lam = Partition(lam)
    _require_size(lam, n)
    excess, _ = _cell_binomials(lam)
    return _binomial_quotient(1, (0, 0), [_one_minus_t(n)] + excess, [])


def whittaker_pn_closed(lam, n: int) -> RatFunc:
    """<W_lam(q), p_n> = (-1)^(n-lam_1) q^(n(lam') - C(lam_1,2)) prod_{i<lam_1}(1-q^i)."""
    lam = Partition(lam)
    _require_size(lam, n)
    st = stats(lam)
    head = lam[0] if lam else 0
    shift = st.n_lambda_conj - head * (head - 1) // 2
    out = Poly({(shift, 0): Fraction((-1) ** (n - head))})
    for i in range(1, head):
        out = out * (P_ONE - Poly.q(i))
    return RatFunc.make(out)


# ---------------------------------------------------------------------------
# skew Hall-Littlewood
# ---------------------------------------------------------------------------

def _t_norm(nu: Partition) -> RatFunc:
    """<p_nu, p_nu>_t = z_nu prod 1/(1-t^{nu_i})."""
    return _p_norm_weight(nu, "t") * stats(nu).z


@lru_cache(maxsize=None)
def _gram_inverse_t(n: int) -> dict:
    """1/<p_nu, p_nu>_t for every nu of n: the t-form's Gram matrix on the
    power sums is diagonal, so this is its inverse."""
    return {nu: RF_ONE / _t_norm(nu) for nu in partitions_of(n)}


def skew_hl_P(lam, mu) -> SymFunc:
    """P_{lam/mu}, defined by <P_{lam/mu}, f>_t = <P_lam, P_mu f>_t.

    That is the adjoint of multiplication by P_mu under the t-form applied to
    P_lam, computed on the power sums (``skew_p``, where the t-form is
    diagonal; the p-coefficients of P_lam and P_mu come from the cached
    Gram-Schmidt family) and given on the m-basis; |lam| < |mu| gives the
    zero element without building either family.
    At t=0 this is the skew Schur function.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.size < mu.size:
        return SymFunc("m", {}, RING_QT)
    coeffs = skew_p(
        _family_entry(lam, "t")[2], _family_entry(mu, "t")[2], RING_QT,
        norm=_t_norm, inverse=_gram_inverse_t(lam.size - mu.size),
    )
    return to_basis(SymFunc("p", coeffs, RING_QT), "m")


# ---------------------------------------------------------------------------
# coefficient specialization of whole elements
# ---------------------------------------------------------------------------

def specialize_coeffs(
    x: SymFunc, spz: Specialization | None = None, variable: str = "t", *, t=None
) -> SymFunc:
    """x with ``spz`` (by default t = ``t``) applied to the parameter
    ``variable`` of every coefficient, over Q or Q(zeta_k)."""
    spz = Specialization.at_value(t) if spz is None else spz
    return SymFunc(
        x.basis, {lam: spz.apply(c, variable) for lam, c in x.coeffs.items()}, spz.ring
    )


def specialize_coeffs_root(x: SymFunc, k: int) -> SymFunc:
    """Substitute a primitive k-th root of unity for t in every coefficient."""
    return specialize_coeffs(x, Specialization.at_root(k))


def subs_q_to_t(x: SymFunc) -> SymFunc:
    """Identify q with t in every coefficient (for the q=t degeneration)."""
    return SymFunc(
        x.basis, {lam: c.subs_q_to_t() for lam, c in x.coeffs.items()}, RING_QT
    )
