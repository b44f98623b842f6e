"""Deformed inner products and the families they orthogonalize.

The t-inner product scales the power-sum norms by prod 1/(1-t^{lam_i}); the
(q,t) version multiplies by prod (1-q^{lam_i}).  Hall-Littlewood P/Q, big
Schur, Macdonald P/J and the q-Whittaker functions are all built here, along
with the exact closed forms of their pairings against p_n.

Construction of P: the tableau sum P_lam = sum_T psi_T x^T over the
semistandard tableaux of shape lam (Macdonald, Symmetric Functions and Hall
Polynomials, VI (7.13')), psi_T being one factor psi per horizontal strip of
T; Hall-Littlewood P is its q = 0 case (III (5.11')), the q-Whittaker
functions its t = 0 case.  No inner product enters, and no gcd: every psi is
a quotient of binomials, and the sums run in polynomials (for Macdonald, in
the integral form J = c_lam P, whose m-coefficients they are, VI (8.11)).

Big Schur: S_lam = det(q_{lam_i - i + j}) is s_lam[(1-t)X], since q_r =
h_r[(1-t)X] (III (2.10)); on the power sums it is the Schur character
expansion with every p_nu scaled by prod (1 - t^{nu_i}).

Skew Hall-Littlewood P: the t-form is diagonal on the power sums, so the
adjoint of multiplication by P_mu is one sum over the polynomial power-sum
coordinates of P_lam and P_mu (``_skew_hl_coordinates``).  ``skew_hl_P``
takes every coordinate of P_{lam/mu}, and its pairing with p_n only one.

Polynomial coordinates: ``polynomial_p_coordinates`` gives an element over
Q(t) or Q(q,t) on the power sums as polynomials over one known
denominator, which is how the oracle and the probe take products and
pairings without rational-function arithmetic.

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
would reach through a bivariate gcd.  The key polynomials are irreducible (a
unimodular change of monomials takes P/N to one variable), so trial division
by the keys of a known denominator reduces a quotient too.  A closed form
stays a key count (``KeyQuotient``) until it is used: over Q(t) or Q(q,t)
it is multiplied out once, and at a specialization each key is evaluated
once and the values multiplied.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, gcd, prod

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
    poly_exact_div,
    poly_gcd,
    try_exact_div,
)
from .partitions import EMPTY, Partition, is_hook, partitions_of, stats, union
from .symfunc import SymFunc, _basis_to_p, p_expansion, to_basis
from .tabloids import SizeMismatch


def phi_factorial(r: int) -> Poly:
    """phi_r(t) = (1-t)(1-t^2)...(1-t^r); phi_0 = 1."""
    out = P_ONE
    for j in range(1, r + 1):
        out = out * (P_ONE - Poly.t(j))
    return out


@lru_cache(maxsize=None)
def _p_norm(nu: Partition, kind: str = "t") -> RatFunc:
    """<p_nu, p_nu>_*: z_nu prod 1/(1-t^i), or z_nu prod (1-q^i)/(1-t^i)."""
    num, den = Poly.const(stats(nu).z), P_ONE
    for part in nu:
        den = den * (P_ONE - Poly.t(part))
        if kind == "qt":
            num = num * (P_ONE - Poly.q(part))
    return RatFunc.make(num, den)


def deformed_inner(x: SymFunc, y: SymFunc, kind: str = "t") -> RatFunc:
    """Bilinear form with <p_lam, p_mu>_* = delta * z_lam * weight(lam)."""
    if kind not in ("t", "qt"):
        raise ValueError("kind must be 't' or 'qt'")
    return _pexp_inner(p_expansion(x), p_expansion(y), kind)


def _pexp_inner(xp: dict, yp: dict, kind: str) -> RatFunc:
    """Dot product of two p-expansions under the deformed form."""
    total = RF_ZERO
    for nu, cx in xp.items():
        if nu in yp:
            total = total + _p_norm(nu, kind) * cx * yp[nu]
    return total


def polynomial_p_coordinates(x: SymFunc) -> tuple[Poly, dict]:
    """(D, {nu: D [p_nu] x}) for a homogeneous x of degree k over Q(t) or
    Q(q,t): D is k! times the lcm of the denominators of x's coefficients.

    Every coordinate is a Poly, summed term by term from the coefficients
    scale * num * (lcm / den) and the rational p-expansions of x's basis,
    with no rational-function arithmetic; only the lcm takes gcds.  As z_nu
    divides k!, an x with coefficients in Z[t] or Z[q,t] on m has integer
    coordinates.
    """
    common = P_ONE
    for den in {c.den for c in x.coeffs.values()}:
        if den != P_ONE:
            common = common * poly_exact_div(den, poly_gcd(common, den))
    scale = factorial(x.degree())
    acc: dict = {}
    for lam, c in x.coeffs.items():
        num = c.num if c.den == common else c.num * poly_exact_div(common, c.den)
        for nu, fr in _basis_to_p(x.basis, lam):
            terms = acc.setdefault(nu, {})
            weight = c.scale * fr * scale
            for term, v in num.terms.items():
                terms[term] = terms.get(term, 0) + v * weight
    return common * scale, {
        nu: p for nu, terms in acc.items() if (p := Poly(terms))
    }


# ---------------------------------------------------------------------------
# binomials and their cyclotomic keys
# ---------------------------------------------------------------------------

# A binomial q^a t^b - q^c t^d is written ((a, b), (c, d)).

def _one_minus(a: int, b: int) -> tuple:
    """The binomial 1 - q^a t^b."""
    return ((0, 0), (a, b))


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


def _binomial_count(num_binomials, den_binomials) -> tuple[int, Counter]:
    """(sign, count) with prod(num_binomials) / prod(den_binomials) =
    sign * prod H_key^count[key]: equal keys cancel by counting."""
    sign, count = 1, Counter()
    for side, binomials in ((1, num_binomials), (-1, den_binomials)):
        for binomial in binomials:
            flip, keys = _binomial_keys(binomial)
            sign *= flip
            for key in keys:
                count[key] += side
    return sign, count


def _key_product(count: Counter, out: Poly = P_ONE) -> Poly:
    """out * prod H_key^count[key] over the keys counted positive."""
    for key, mult in count.items():
        if mult > 0:
            out = out * _cyclotomic_factor(*key) ** mult
    return out


class KeyQuotient:
    """sign * q^a t^b * prod H_key^count[key], with monomial = (a, b): a
    closed form kept as its key count, the keys counted negative forming
    the denominator.  Equal keys have cancelled, so numerator and
    denominator are coprime (see the module docstring).

    ``expand`` multiplies the keys out into the reduced RatFunc.
    ``factors`` lists the monomial and the key polynomials with their
    counts, which is what ``Specialization.apply`` evaluates, each once at
    the point: evaluation is a ring homomorphism, so the value is that of
    the expanded form, and no product of polynomials is built just to be
    evaluated.  A zero sign is the closed form 0.
    """

    __slots__ = ("sign", "monomial", "count")

    def __init__(self, sign: int, monomial: tuple, count: Counter):
        self.sign, self.monomial, self.count = sign, monomial, count

    def expand(self) -> RatFunc:
        num = _key_product(self.count, Poly({self.monomial: 1}))
        return RatFunc._make_coprime(num, _key_product(-self.count), Fraction(self.sign))

    def factors(self) -> tuple:
        """(sign, ((H_key, count[key]), ..., (q^a t^b, 1))) over the keys
        with a nonzero count; the monomial, which vanishes only where q or t
        is 0, comes last."""
        return self.sign, tuple(
            (_cyclotomic_factor(*key), mult) for key, mult in self.count.items() if mult
        ) + ((Poly({self.monomial: 1}), 1),)


def _binomial_quotient(sign: int, monomial: tuple, num_binomials, den_binomials) -> KeyQuotient:
    """sign * q^a t^b * prod(num_binomials) / prod(den_binomials), with
    monomial = (a, b), as a reduced key count (see the module docstring)."""
    flip, count = _binomial_count(num_binomials, den_binomials)
    return KeyQuotient(sign * flip, monomial, count)


# ---------------------------------------------------------------------------
# the families as sums over semistandard tableaux
# ---------------------------------------------------------------------------

def _horizontal_strips(mu: Partition, k: int):
    """Every lam with lam/mu a horizontal strip of k cells: mu_i <= lam_i <= mu_{i-1}."""
    rows = list(mu) + [0]
    bounds = zip(rows, [rows[0] + k] + list(mu))
    for parts in product(*(range(low, high + 1) for low, high in bounds)):
        if sum(parts) == mu.size + k:
            yield Partition(parts)


@lru_cache(maxsize=None)
def _strip_factor(mu: Partition, lam: Partition, kind: str) -> tuple:
    """(sign, key count) of psi_{lam/mu} c_lam / c_mu for a horizontal strip
    lam/mu; c is the arm-leg product for kind "qt" and 1 otherwise.

    psi_{lam/mu} = prod b_mu(s) / b_lam(s) over the cells s of mu in a row
    but not in a column that meets the strip (VI (6.24)); such an s keeps
    its leg l, and b(s) = (1 - q^a t^(l+1)) / (1 - q^(a+1) t^l) for its arm
    a.  At q = 0 ("t") the numerator survives only where a = 0, which makes
    psi the prod (1 - t^{m_j(mu)}) of III (5.8'); at t = 0 ("q0") the
    denominator survives only where l = 0.
    """
    mu_c, lam_c = mu.conjugate(), lam.conjugate()
    num, den = [], []
    for i, row in enumerate(mu, start=1):
        if lam[i - 1] == row:
            continue
        for j in range(1, row + 1):
            if lam_c[j - 1] > mu_c[j - 1]:  # column j meets the strip
                continue
            leg = mu_c[j - 1] - i
            for arm, above, below in ((row - j, num, den), (lam[i - 1] - j, den, num)):
                if kind == "qt" or (kind == "t" and arm == 0):
                    above.append(_one_minus(arm, leg + 1))
                if kind == "qt" or (kind == "q0" and leg == 0):
                    below.append(_one_minus(arm + 1, leg))
    if kind == "qt":
        num += _cell_binomials(lam)[1]
        den += _cell_binomials(mu)[1]
    return _binomial_count(num, den)


@lru_cache(maxsize=None)
def _tableau_states(content: tuple, kind: str) -> dict:
    """{lam: [x^content] c_lam P_lam}, the tableaux of each shape grown by
    the last part of the content as a horizontal strip.  The values are
    polynomials (for "qt" those of J_lam, VI (8.11)), so the lcm of the key
    denominators of the terms reaching one shape divides their sum exactly.
    """
    if not content:
        return {EMPTY: P_ONE}
    incoming: dict = {}
    for mu, coeff in _tableau_states(content[:-1], kind).items():
        for lam in _horizontal_strips(mu, content[-1]):
            incoming.setdefault(lam, []).append((coeff, _strip_factor(mu, lam, kind)))
    out = {}
    for lam, terms in incoming.items():
        lcm: Counter = Counter()
        for _, (_, count) in terms:
            lcm |= -count
        total = sum((c * s * _key_product(count + lcm) for c, (s, count) in terms), P_ZERO)
        out[lam] = poly_exact_div(total, _key_product(lcm)) if lcm else total
    return out


def _over_c(coeff: Poly, lam: Partition, kind: str) -> RatFunc:
    """coeff / c_lam (c as in ``_strip_factor``), reduced by trial division."""
    sign, count = _binomial_count(_cell_binomials(lam)[1] if kind == "qt" else [], [])
    den = P_ONE
    for key, mult in count.items():
        factor = _cyclotomic_factor(*key)
        while mult and (quotient := try_exact_div(coeff, factor)) is not None:
            coeff, mult = quotient, mult - 1
        den = den * factor ** mult
    return RatFunc._make_coprime(coeff, den, Fraction(sign))


@lru_cache(maxsize=None)
def _gs_family(n: int, kind: str) -> dict:
    """{lam: {nu: [m_nu] P_lam}} for every lam of n, read off the tableau
    sums (see the module docstring) at x^nu.  The name is historical (the
    families came from Gram-Schmidt); the traced benchmark looks it up.
    """
    family: dict = {lam: {} for lam in partitions_of(n)}
    for nu in partitions_of(n):
        for lam, coeff in _tableau_states(tuple(nu), kind).items():
            family[lam][nu] = _over_c(coeff, lam, kind)
    return family


def hl_P(lam) -> SymFunc:
    """Hall-Littlewood P: m-unitriangular, orthogonal for the t-form."""
    lam = Partition(lam)
    return SymFunc("m", _gs_family(lam.size, "t")[lam], RING_QT)


def hl_Q(lam) -> SymFunc:
    """Q = prod_i phi_{m_i(lam)}(t) * P."""
    lam = Partition(lam)
    factor = P_ONE
    for m in lam.multiplicities().values():
        factor = factor * phi_factorial(m)
    return hl_P(lam).scaled(RatFunc.make(factor))


def qn(n: int) -> SymFunc:
    """The one-row Q, the generators of the big Schur determinant."""
    return hl_Q((n,))


def mac_P(lam) -> SymFunc:
    """Macdonald P: m-unitriangular, orthogonal for the (q,t)-form."""
    lam = Partition(lam)
    return SymFunc("m", _gs_family(lam.size, "qt")[lam], RING_QQT)


def mac_J(lam) -> SymFunc:
    """Integral form J = c_lam(q,t) P: its m-coefficients are the tableau
    states themselves (VI (8.11)), polynomials in q and t."""
    lam = Partition(lam)
    return SymFunc("m", {
        nu: RatFunc.make(_tableau_states(tuple(nu), "qt").get(lam, P_ZERO))
        for nu in partitions_of(lam.size)
    }, RING_QQT)


def whittaker(lam) -> SymFunc:
    """q-Whittaker W: the Macdonald P at t = 0, from the tableau sum with psi
    at t = 0; the tests check it against the substituted Macdonald P."""
    lam = Partition(lam)
    return SymFunc("m", _gs_family(lam.size, "q0")[lam], RING_QT)


# ---------------------------------------------------------------------------
# closed-form pairings against p_n
# ---------------------------------------------------------------------------

def _require_size(lam: Partition, n: int):
    if lam.size != n:
        raise SizeMismatch(f"|{lam}| = {lam.size} != n = {n}")


def _hl_Q_factors(lam: Partition) -> tuple:
    """(sign, monomial, binomials) of t^{n(lam)} phi_{l-1}(t^{-1})."""
    st = stats(lam)
    # t^a * phi_r(1/t) = (-1)^r * t^(a - r(r+1)/2) * phi_r(t), a >= r(r+1)/2 here
    r = max(st.length - 1, 0)
    shift = st.n_lambda - r * (r + 1) // 2
    return (-1) ** r, (0, shift), [_one_minus(0, j) for j in range(1, r + 1)]


def hl_Q_pn_closed(lam, n: int) -> RatFunc:
    """<Q_lam, p_n>_t = t^{n(lam)} phi_{l-1}(t^{-1}), cleared of t^{-1} powers."""
    lam = Partition(lam)
    _require_size(lam, n)
    return _binomial_quotient(*_hl_Q_factors(lam), []).expand()


def hl_Q_pn_keys(lam, n: int) -> KeyQuotient:
    """<Q_lam, p_n> = (1 - t^n) <Q_lam, p_n>_t, one binomial more."""
    lam = Partition(lam)
    _require_size(lam, n)
    sign, monomial, binomials = _hl_Q_factors(lam)
    return _binomial_quotient(sign, monomial, [_one_minus(0, n)] + binomials, [])


def hl_P_pn_keys(lam, n: int) -> KeyQuotient:
    """<P_lam, p_n> = (1-t^n) t^{n(lam)} phi_{l-1}(t^{-1}) / prod phi_{m_i}(t)."""
    lam = Partition(lam)
    _require_size(lam, n)
    sign, monomial, num = _hl_Q_factors(lam)
    den = [_one_minus(0, j) for m in lam.multiplicities().values() for j in range(1, m + 1)]
    return _binomial_quotient(sign, monomial, [_one_minus(0, n)] + num, den)


def hl_P_pn_closed(lam, n: int) -> RatFunc:
    return hl_P_pn_keys(lam, n).expand()


def big_schur(lam) -> SymFunc:
    """S_lam(x;t) = s_lam[(1-t)X] (module docstring): [p_nu] S_lam is
    chi^lam(nu)/z_nu, read off ``_basis_to_p("s", lam)``, times
    prod (1 - t^{nu_i})."""
    return SymFunc("p", {
        nu: RatFunc.make(prod((P_ONE - Poly.t(r) for r in nu), start=P_ONE), P_ONE, c)
        for nu, c in _basis_to_p("s", Partition(lam))
    }, RING_QT)


def big_schur_pn_keys(lam, n: int) -> KeyQuotient:
    """(-1)^(n - lam_1) (1 - t^n) for hooks, 0 otherwise."""
    lam = Partition(lam)
    _require_size(lam, n)
    if not is_hook(lam):
        return KeyQuotient(0, (0, 0), Counter())
    return _binomial_quotient((-1) ** (n - lam[0]), (0, 0), [_one_minus(0, n)], [])


def big_schur_pn_closed(lam, n: int) -> RatFunc:
    return big_schur_pn_keys(lam, n).expand()


def _cell_binomials(lam: Partition) -> tuple[list, list]:
    """The binomials of X_n^lam and of c_lam, one per cell (i, j) of lam:
    t^(i-1) - q^(j-1) for every cell but (1,1), and 1 - q^arm t^(leg+1)."""
    conj = lam.conjugate()
    excess, arm_leg = [], []
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            if (i, j) != (1, 1):
                excess.append(((0, i - 1), (j - 1, 0)))
            arm_leg.append(_one_minus(row - j, conj[j - 1] - i + 1))
    return excess, arm_leg


def mac_P_pn_keys(lam, n: int) -> KeyQuotient:
    """<P_lam(q,t), p_n> = (1-t^n) X_n^lam / c_lam."""
    lam = Partition(lam)
    _require_size(lam, n)
    excess, arm_leg = _cell_binomials(lam)
    return _binomial_quotient(1, (0, 0), [_one_minus(0, n)] + excess, arm_leg)


def mac_P_pn_closed(lam, n: int) -> RatFunc:
    return mac_P_pn_keys(lam, n).expand()


def mac_J_pn_keys(lam, n: int) -> KeyQuotient:
    """<J_lam(q,t), p_n> = (1-t^n) X_n^lam."""
    lam = Partition(lam)
    _require_size(lam, n)
    excess, _ = _cell_binomials(lam)
    return _binomial_quotient(1, (0, 0), [_one_minus(0, n)] + excess, [])


def mac_J_pn_closed(lam, n: int) -> RatFunc:
    return mac_J_pn_keys(lam, n).expand()


def whittaker_pn_keys(lam, n: int) -> KeyQuotient:
    """<W_lam(q), p_n> = (-1)^(n-lam_1) q^(n(lam') - C(lam_1,2)) prod_{i<lam_1}(1-q^i)."""
    lam = Partition(lam)
    _require_size(lam, n)
    head = lam[0] if lam else 0
    shift = stats(lam).n_lambda_conj - head * (head - 1) // 2
    binomials = [_one_minus(i, 0) for i in range(1, head)]
    return _binomial_quotient((-1) ** (n - head), (shift, 0), binomials, [])


def whittaker_pn_closed(lam, n: int) -> RatFunc:
    return whittaker_pn_keys(lam, n).expand()


# ---------------------------------------------------------------------------
# skew Hall-Littlewood
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gram_inverse_t(n: int) -> dict:
    """1/<p_nu, p_nu>_t for every nu of n (the t-form is diagonal on p).  It
    stays for the tests and the tracer until the benchmark renames its spans."""
    return {nu: RF_ONE / _p_norm(nu) for nu in partitions_of(n)}


def _skew_hl_coordinates(lam: Partition, mu: Partition, gammas) -> tuple:
    """(D, {gamma: D [p_gamma] P_{lam/mu}}) for the partitions ``gammas`` of
    |lam| - |mu|, D = D_lam D_mu phi_{|mu|}(t) over the polynomial
    coordinates of P_lam and P_mu.  As <p_a, p_a>_t = z_a / prod
    (1 - t^{a_i}) (III.4), [p_gamma] P_{lam/mu} is the sum over beta |- |mu|
    of [p_beta] P_mu [p_{beta u gamma}] P_lam z_{beta u gamma} / (z_gamma
    prod (1 - t^{beta_i})), and each prod (1 - t^{beta_i}) divides
    phi_{|mu|}(t)."""
    d_lam, x = polynomial_p_coordinates(hl_P(lam))
    d_mu, y = polynomial_p_coordinates(hl_P(mu))
    phi = phi_factorial(mu.size)
    weighted = [
        (beta, cy * poly_exact_div(phi, prod((P_ONE - Poly.t(r) for r in beta), start=P_ONE)))
        for beta, cy in y.items()
    ]
    coords = {}
    for gamma in gammas:
        z_gamma, total = stats(gamma).z, P_ZERO
        for beta, cy in weighted:
            alpha = union(beta, gamma)
            cx = x.get(alpha)
            if cx is not None:
                total = total + cx * cy * (stats(alpha).z // z_gamma)
        coords[gamma] = total
    return d_lam * d_mu * phi, coords


def skew_hl_P(lam, mu) -> SymFunc:
    """P_{lam/mu}, defined by <P_{lam/mu}, f>_t = <P_lam, P_mu f>_t: the
    adjoint of multiplication by P_mu under the t-form applied to P_lam,
    taken on the power sums (``_skew_hl_coordinates``) and given on the
    m-basis; |lam| < |mu| gives zero without building either family.  At
    t=0 this is the skew Schur function.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.size < mu.size:
        return SymFunc("m", {}, RING_QT)
    scale, coords = _skew_hl_coordinates(lam, mu, partitions_of(lam.size - mu.size))
    coeffs = {gamma: RatFunc.make(c, scale) for gamma, c in coords.items()}
    return to_basis(SymFunc("p", coeffs, RING_QT), "m")


def skew_hl_P_pn_inner(lam, mu, n: int) -> RatFunc:
    """<P_{lam/mu}, p_n>_t = [p_n] P_{lam/mu} n / (1 - t^n), from that one
    coordinate (``_skew_hl_coordinates``) and reduced once; |lam| < |mu|
    gives zero without building either family."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size < mu.size:
        return RF_ZERO
    pn = Partition((n,))
    scale, coords = _skew_hl_coordinates(lam, mu, (pn,))
    return RatFunc.make(coords[pn] * n, scale * (P_ONE - Poly.t(n)))


# ---------------------------------------------------------------------------
# coefficient specialization of whole elements
# ---------------------------------------------------------------------------

def specialize_coeffs(x: SymFunc, spz: Specialization, variable: str = "t") -> SymFunc:
    """x with ``spz`` applied to the parameter ``variable`` of every
    coefficient, over Q or Q(zeta_k)."""
    return SymFunc(
        x.basis, {lam: spz.apply(c, variable) for lam, c in x.coeffs.items()}, spz.ring
    )


def specialize_coeffs_root(x: SymFunc, k: int) -> SymFunc:
    """Substitute a primitive k-th root of unity for t in every coefficient."""
    return specialize_coeffs(x, Specialization.at_root(k))
