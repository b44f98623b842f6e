"""Symmetric functions over a pluggable coefficient field.

The power-sum basis is the computational hub: products are index unions and
the Hall inner product is diagonal there.  Conversions route every basis
through p:

* ``m`` uses the domino-tabloid expansion of a monomial into power sums,
* ``h`` is a product of rows ``h_n = sum_{nu |- n} p_nu / z_nu``,
* ``s`` has the characters of the symmetric group as its coordinates,
  ``s_lam = sum_nu chi^lam(nu) p_nu / z_nu``, each chi^lam(nu) an integer
  from the Murnaghan-Nakayama rule (one rim hook per part of nu),
* ``e`` and ``f`` (forgotten) are the images of ``h`` and ``m`` under the
  involution omega, ``omega p_nu = eps_nu p_nu``,

and the reverse direction needs no inversion.  The coefficient of m_mu in
p_nu is counted: the ways to drop the parts of nu into the rows of mu so
that each row fills exactly.  For the other bases, the Hall inner product has
``<h_lam, m_mu> = delta`` and ``<p_lam, p_mu> = z_lam delta``, so the
coefficient of b_mu in p_nu is ``z_nu * [p_nu] d_mu``, where d is the dual
basis of b: h <-> m, e <-> f, s <-> s.  Those entries are integers; they are
read off the cached p-expansions of the dual basis, once per degree.

Skewing is the adjoint of multiplication.  The Hall form is diagonal on
the power sums, so that adjoint is one formula on p-coefficients,
``skew_p``: p_beta removes the parts of beta from p_alpha, rescaled by the
ratio of the norms z.  ``skew`` (every classical skew family) and
``pn_perp`` are built on it (``deformed`` has its t-form analogue).

Text format: ``-1*m[3] + 3*m[2,1]`` (coefficient always explicit, terms in
ascending canonical order: by degree, then reversed enumeration order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import RING_Q, CoeffRing
from .partitions import (
    EMPTY,
    Partition,
    difference,
    eps_of,
    format_partition,
    partitions_of,
    stats,
    union,
)
from .tabloids import SizeMismatch, w

BASES = ("m", "h", "e", "p", "s", "f")


class SymFunc:
    """A finite linear combination of basis elements of one classical basis."""

    __slots__ = ("basis", "ring", "coeffs")

    def __init__(self, basis: str, coeffs: dict, ring: CoeffRing = RING_Q):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for lam, c in coeffs.items():
            if not CoeffRing.is_zero(c):
                clean[Partition(lam)] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((lam.size for lam in self.coeffs), default=0)

    def __add__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis != self.basis or other.ring is not self.ring:
            raise ValueError("mixed bases or rings in SymFunc addition")
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            s = out.get(lam, self.ring.zero) + c
            if CoeffRing.is_zero(s):
                out.pop(lam, None)
            else:
                out[lam] = s
        return SymFunc(self.basis, out, self.ring)

    def __sub__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + other.scaled(self.ring.from_int(-1))

    def scaled(self, c) -> "SymFunc":
        if CoeffRing.is_zero(c):
            return SymFunc(self.basis, {}, self.ring)
        return SymFunc(
            self.basis, {lam: v * c for lam, v in self.coeffs.items()}, self.ring
        )

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.ring.name == other.ring.name
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"SymFunc({render_symfunc(self)})"


def sym(basis: str, lam, ring: CoeffRing = RING_Q, coeff=None) -> SymFunc:
    """A single basis element (optionally scaled)."""
    return SymFunc(basis, {Partition(lam): coeff if coeff is not None else ring.one}, ring)


# ---------------------------------------------------------------------------
# transitions into the power-sum basis (exact, over Q, cached)
# ---------------------------------------------------------------------------

def _p_convolve(a: dict, b: dict, zero=0) -> dict:
    """The product of two power-sum coordinate maps {nu: c}, as
    p_la p_lb = p_{la u lb}; ``zero`` is the coefficients' zero."""
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            key = union(la, lb)
            s = out.get(key, zero) + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _m_to_p(lam: Partition) -> tuple:
    """m_lam = sum over nu of eps_nu eps_lam w(nu, lam)/z_nu * p_nu."""
    el = eps_of(lam)
    out = []
    for nu in partitions_of(lam.size):
        weight = w(nu, lam)
        if weight:
            st = stats(nu)
            out.append((nu, Fraction(st.eps * el * weight, st.z)))
    return tuple(out)


@lru_cache(maxsize=None)
def _h_to_p(n: int) -> tuple:
    """h_n = sum over nu |- n of p_nu / z_nu (Macdonald I (2.14))."""
    return tuple((nu, Fraction(1, stats(nu).z)) for nu in partitions_of(n))


def _prod_row(rows: tuple) -> dict:
    out = {EMPTY: Fraction(1)}
    for row in rows:
        out = _p_convolve(out, dict(row))
    return out


def _beta_set(parts) -> tuple:
    """The beta-set of a partition: its first-column hook lengths
    lam_i + l - i, decreasing (l the number of nonzero parts)."""
    parts = [p for p in parts if p]
    return tuple(p + len(parts) - 1 - i for i, p in enumerate(parts))


@lru_cache(maxsize=None)
def _character(beta: tuple, nu: tuple) -> int:
    """The irreducible character chi^lam(nu) of S_|lam|, lam given by its
    beta-set, by the Murnaghan-Nakayama rule (Macdonald I.7, Ex. 5).

    Removing a rim hook of length r = nu_1 from lam moves one bead of the
    beta-set from b to a free b - r >= 0; the hook's height, and so the
    sign, is the number of beads strictly between b - r and b.
    """
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
        chi = _character(_beta_set(parts), rest)
        total += -chi if between % 2 else chi
    return total


@lru_cache(maxsize=None)
def _basis_to_p(basis: str, lam: Partition) -> tuple:
    """Power-sum expansion of one basis element, as ((nu, Fraction), ...),
    nu ascending.

    s_lam = sum_nu chi^lam(nu) p_nu / z_nu (``_character``); the other bases
    follow the module docstring.
    """
    if basis == "p":
        return ((lam, Fraction(1)),)
    if basis == "m":
        return _m_to_p(lam)
    if basis == "h":
        return tuple(sorted(_prod_row(tuple(_h_to_p(part) for part in lam)).items()))
    if basis in _OMEGA:
        return tuple((nu, stats(nu).eps * c) for nu, c in _basis_to_p(_OMEGA[basis], lam))
    if basis == "s":
        beta = _beta_set(lam)
        return tuple(
            (nu, Fraction(chi, stats(nu).z))
            for nu in reversed(partitions_of(lam.size))
            if (chi := _character(beta, nu))
        )
    raise ValueError(f"unknown basis {basis!r}")


# e = omega h and f = omega m, with omega p_nu = eps_nu p_nu
_OMEGA = {"e": "h", "f": "m"}

# the Hall-dual basis of each basis: <b_lam, dual(b)_mu> = delta_lam,mu
# (the p -> m entries are counted instead)
_DUAL = {"h": "m", "e": "f", "f": "e", "s": "s"}


def _p_to_m_counts(order: tuple) -> tuple:
    """The p -> m matrix on ``order`` (all partitions of one n): entry
    [j][i] is the coefficient of m_{mu_j} in p_{nu_i}.

    That coefficient counts the ways to drop the parts of nu into the
    labelled rows of mu so that every row fills exactly (Macdonald I.6).
    Parts go in one at a time, largest first; the count depends only on the
    parts left and the sorted capacities left, which is what ``counts``
    memoizes for this one matrix (a row of capacity c stands for all rows of
    capacity c).
    """
    counts: dict = {}

    def count(parts: tuple, caps: tuple) -> int:
        if not parts:
            return 1
        if len(parts) < len(caps):  # every row takes at least one part
            return 0
        key = (parts, caps)
        if key not in counts:
            first, rest = parts[0], parts[1:]
            total = 0
            for i, cap in enumerate(caps):
                if cap < first:
                    break
                if i and caps[i - 1] == cap:
                    continue
                left = cap - first
                shrunk = caps[:i] + caps[i + 1:]
                if left:
                    shrunk = tuple(sorted(shrunk + (left,), reverse=True))
                total += caps.count(cap) * count(rest, shrunk)
            counts[key] = total
        return counts[key]

    return tuple(tuple(count(tuple(nu), tuple(mu)) for nu in order) for mu in order)


@lru_cache(maxsize=None)
def _basis_matrix_inverse(basis: str, n: int) -> tuple:
    """The (p -> basis) change of basis at degree n, as Python ints.

    Entry [j][i] is the coefficient of basis_{mu_j} in p_{nu_i}, with both
    indices in canonical (reverse-lex) order.  For m the entries are counted
    (``_p_to_m_counts``).  For the other bases, pairing p_nu with the dual
    element d_mu and using <p_nu, p_rho> = z_nu delta gives them without any
    inversion: entry = z_{nu_i} * [p_{nu_i}] d_{mu_j}, an integer because
    p_nu lies in the integral ring.
    """
    order = partitions_of(n)
    if basis == "m":
        return _p_to_m_counts(order)
    idx = {lam: i for i, lam in enumerate(order)}
    z = [stats(nu).z for nu in order]
    rows = []
    for mu in order:
        row = [0] * len(order)
        for nu, c in _basis_to_p(_DUAL[basis], mu):
            i = idx[nu]
            entry = z[i] * c
            if entry.denominator != 1:
                raise ArithmeticError(f"non-integral p -> {basis} entry {entry}")
            row[i] = entry.numerator
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the public operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionMatrix:
    """Change-of-basis matrix at one degree, canonical partition order.

    ``entries[i][j]`` is the coefficient of ``to_basis``-element mu_i in the
    expansion of ``from_basis``-element lam_j; invertible for every pair of
    genuine bases at every degree.
    """

    from_basis: str
    to_basis: str
    degree: int
    entries: tuple


def transition_matrix(src: str, dst: str, degree: int) -> TransitionMatrix:
    order = partitions_of(degree)
    index = {lam: i for i, lam in enumerate(order)}
    size = len(order)
    cols = []
    for lam in order:
        expansion = to_basis(sym(src, lam), dst).coeffs
        col = [Fraction(0)] * size
        for mu, c in expansion.items():
            col[index[mu]] = c
        cols.append(col)
    entries = tuple(
        tuple(cols[j][i] for j in range(size)) for i in range(size)
    )
    return TransitionMatrix(src, dst, degree, entries)


def p_expansion(x: SymFunc) -> dict:
    """Coefficients of x on the power-sum basis, as ring values."""
    ring = x.ring
    if x.basis == "p":
        return dict(x.coeffs)
    out: dict = {}
    for lam, c in x.coeffs.items():
        for nu, fr in _basis_to_p(x.basis, lam):
            s = out.get(nu, ring.zero) + c * ring.from_fraction(fr)
            if CoeffRing.is_zero(s):
                out.pop(nu, None)
            else:
                out[nu] = s
    return out


def to_basis(x: SymFunc, target: str) -> SymFunc:
    """Re-express x in another classical basis (exact, round-trip stable)."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}")
    if target == x.basis:
        return x
    ring = x.ring
    pexp = p_expansion(x)
    if target == "p":
        return SymFunc("p", pexp, ring)
    degrees = sorted({lam.size for lam in pexp})
    out: dict = {}
    for n in degrees:
        order = partitions_of(n)
        inv = _basis_matrix_inverse(target, n)
        vec = [(i, pexp[lam]) for i, lam in enumerate(order) if lam in pexp]
        for mu, row in zip(order, inv):
            c = ring.zero
            for i, v in vec:
                if row[i]:
                    c = c + v * row[i]
            if not CoeffRing.is_zero(c):
                out[mu] = c
    return SymFunc(target, out, ring)


def multiply(x: SymFunc, y: SymFunc) -> SymFunc:
    """Product, computed on the power-sum basis (index unions)."""
    ring = x.ring
    if ring.name != y.ring.name:
        raise ValueError("mixed coefficient rings in multiply")
    return SymFunc("p", _p_convolve(p_expansion(x), p_expansion(y), ring.zero), ring)


def hall_inner(x: SymFunc, y: SymFunc):
    """The Hall inner product <h_lam, m_mu> = delta, i.e. <p_lam, p_mu> = z delta."""
    ring = x.ring
    xp, yp = p_expansion(x), p_expansion(y)
    if len(yp) < len(xp):
        xp, yp = yp, xp
    total = ring.zero
    for lam, cx in xp.items():
        cy = yp.get(lam)
        if cy is not None:
            total = total + ring.from_int(stats(lam).z) * cx * cy
    return total


def omega(x: SymFunc) -> SymFunc:
    """The involution with p_n -> (-1)^(n-1) p_n (so h <-> e, m <-> f)."""
    ring = x.ring
    out = {}
    for lam, c in p_expansion(x).items():
        out[lam] = c * ring.from_int(stats(lam).eps)
    return SymFunc("p", out, ring)


def skew_p(xp: dict, yp: dict, ring: CoeffRing) -> dict:
    """p-coefficients of y^perp x, the adjoint of multiplication by y under
    the Hall form: p_beta p_gamma = p_{beta u gamma} and <p_nu, p_nu> = z_nu
    give z_gamma [p_gamma] y^perp x = sum_beta y_beta x_{beta u gamma}
    z_{beta u gamma}.
    """
    out: dict = {}
    for alpha, cx in xp.items():
        weighted = cx * ring.from_int(stats(alpha).z)
        for beta, cy in yp.items():
            gamma = difference(alpha, beta)
            if gamma is not None:
                out[gamma] = out.get(gamma, ring.zero) + cy * weighted
    return {
        gamma: c * (ring.one / ring.from_int(stats(gamma).z))
        for gamma, c in out.items()
        if not CoeffRing.is_zero(c)
    }


def pn_perp(x: SymFunc, n: int) -> SymFunc:
    """Adjoint of multiplication by p_n (n d/dp_n), on the p-basis."""
    if n < 1:
        raise ValueError("n must be positive")
    yp = {Partition((n,)): x.ring.one}
    return SymFunc("p", skew_p(p_expansion(x), yp, x.ring), x.ring)


def skew(family: str, lam, mu, ring: CoeffRing = RING_Q) -> SymFunc:
    """The skew element u_{lam/mu} defined by <u_{lam/mu}, f> = <u_lam, u_mu f>.

    That is u_mu^perp u_lam, the adjoint of multiplication by u_mu applied to
    u_lam on the power sums (``skew_p``), given on the p-basis; pairs with
    |lam| < |mu| give the zero element.
    """
    if family not in ("m", "h", "e", "s", "f"):
        raise ValueError(f"no skew family for basis {family!r}")
    if Partition(lam).size < Partition(mu).size:
        return SymFunc("p", {}, ring)
    xp = p_expansion(sym(family, lam, ring))
    return SymFunc("p", skew_p(xp, p_expansion(sym(family, mu, ring)), ring), ring)


def skew_monomial_weight_sum(lam, mu, n: int) -> Fraction:
    """The z-weighted tabloid sum sum_xi w(xi,mu) w(xi+(n),lam) / z_xi.

    A priori rational; provably a nonnegative integer.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size + n:
        raise SizeMismatch(f"|{lam}| != |{mu}| + {n}")
    total = Fraction(0)
    for xi in partitions_of(mu.size):
        w1 = w(xi, mu)
        if not w1:
            continue
        w2 = w(union(xi, (n,)), lam)
        if w2:
            total += Fraction(w1 * w2, stats(xi).z)
    return total


def skew_monomial_pn_inner(lam, mu, n: int) -> Fraction:
    """Closed form for <m_{lam/mu}, p_n> from domino tabloids."""
    lam, mu = Partition(lam), Partition(mu)
    sign = (-1) ** (n - 1) * eps_of(mu) * eps_of(lam)
    return sign * skew_monomial_weight_sum(lam, mu, n)


def dominance_leq(mu, lam) -> bool:
    """Dominance order on partitions of the same size."""
    mu, lam = tuple(mu), tuple(lam)
    if sum(mu) != sum(lam):
        return False
    acc_m = acc_l = 0
    for i in range(max(len(mu), len(lam))):
        acc_m += mu[i] if i < len(mu) else 0
        acc_l += lam[i] if i < len(lam) else 0
        if acc_m > acc_l:
            return False
    return True


def dominance_lt(mu, lam) -> bool:
    return tuple(mu) != tuple(lam) and dominance_leq(mu, lam)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _term_sort_key(lam: Partition):
    order = partitions_of(lam.size)
    return (lam.size, -order.index(lam))


def render_symfunc(x: SymFunc) -> str:
    """Render as "-1*m[3] + 3*m[2,1]": ascending canonical term order."""
    if not x.coeffs:
        return "0"
    pieces = []
    for lam in sorted(x.coeffs, key=_term_sort_key):
        body = f"{x.ring.render(x.coeffs[lam])}*{x.basis}{format_partition(lam)}"
        if not pieces:
            pieces.append(body)
        elif body.startswith("-"):
            pieces.append(" - " + body[1:])
        else:
            pieces.append(" + " + body)
    return "".join(pieces)


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+(?:/\d+)?)\s*\*\s*)?"
    r"(?P<basis>[mhepsf])\s*\[(?P<parts>[\d,\s]*)\]"
)


def parse_symfunc(text: str, ring: CoeffRing = RING_Q) -> SymFunc:
    """Parse the rendering grammar (integer or fractional coefficients)."""
    pos = 0
    basis = None
    coeffs: dict = {}
    stripped = text.strip()
    if stripped == "0":
        return SymFunc("p", {}, ring)
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        # every term after the first starts with its sign
        if match is None or (basis is not None and match.group("sign") is None):
            if text[pos:].strip():
                raise ValueError(f"cannot parse symmetric function near {text[pos:]!r}")
            break
        if basis is None:
            basis = match.group("basis")
        elif basis != match.group("basis"):
            raise ValueError("mixed bases in one expression")
        sign = -1 if match.group("sign") == "-" else 1
        coeff_form = match.group("coeff") or "1"
        try:
            fr = Fraction(coeff_form)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {coeff_form}") from None
        lam = Partition(
            int(tok) for tok in match.group("parts").split(",") if tok.strip()
        )
        c = ring.from_fraction(sign * fr)
        prev = coeffs.get(lam, ring.zero)
        coeffs[lam] = prev + c
        pos = match.end()
    if basis is None:
        raise ValueError(f"empty symmetric function expression: {text!r}")
    return SymFunc(basis, coeffs, ring)
