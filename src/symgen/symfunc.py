"""Symmetric functions over a pluggable coefficient field.

The power-sum basis is the computational hub: products are index unions and
the Hall inner product is diagonal there.  Conversions route every basis
through p:

* ``m`` uses the domino-tabloid expansion of a monomial into power sums,
* ``h`` is read off the counted p -> m matrix by Hall duality,
  ``[p_nu] h_lam = [m_lam] p_nu / z_nu``, one row lam (``_p_in_m``),
* ``s`` has the characters of the symmetric group as its coordinates,
  ``s_lam = sum_nu chi^lam(nu) p_nu / z_nu``, each chi^lam(nu) an integer
  from the Murnaghan-Nakayama rule (one rim hook per part of nu),
* ``e`` and ``f`` (forgotten) are the images of ``h`` and ``m`` under the
  involution omega, ``omega p_nu = eps_nu p_nu``,

and the reverse direction needs no inversion.  The coefficient of m_mu in
p_nu is counted: the ways to drop the parts of nu into the rows of mu so
that each row fills exactly.  Column nu is p_{nu_1} times the column of nu
without nu_1 (``_p_in_m``), so one memo builds each column once across
degrees.  For the other bases, the Hall inner product has
``<h_lam, m_mu> = delta`` and ``<p_lam, p_mu> = z_lam delta``, so the
coefficient of b_mu in p_nu is ``z_nu * [p_nu] d_mu``, where d is the dual
basis of b: h <-> m, e <-> f, s <-> s.  Those entries are integers; they are
read off the cached p-expansions of the dual basis, once per degree.

Skewing is the adjoint of multiplication.  The Hall form is diagonal on
the power sums, so that adjoint is one formula on p-coefficients,
``skew_p``: p_beta removes the parts of beta from p_alpha, rescaled by the
ratio of the norms z.  ``skew`` (every classical skew family) and
``pn_perp`` are built on it (``deformed`` has its t-form analogue).

Coefficients are values of a ``CoeffRing``.  The rational coefficients of
these expansions and the weights z and eps multiply them as plain numbers
on every ring, and a rational read from text (``parse_symfunc``) is added
to the ring's zero; ``exactalg`` decides how a rational enters each ring.

Text format: ``-1*m[3] + 3*m[2,1]`` (coefficient always explicit, terms in
ascending canonical order: by degree, then reversed enumeration order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactalg import RING_Q, CoeffRing, render
from .partitions import (
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
            if c:
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
            if not s:
                out.pop(lam, None)
            else:
                out[lam] = s
        return SymFunc(self.basis, out, self.ring)

    def scaled(self, c) -> "SymFunc":
        if not c:
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


def sym(basis: str, lam, ring: CoeffRing = RING_Q) -> SymFunc:
    """A single basis element."""
    return SymFunc(basis, {Partition(lam): ring.one}, ring)


# ---------------------------------------------------------------------------
# transitions into the power-sum basis (exact, over Q, cached)
# ---------------------------------------------------------------------------

def _p_convolve(a: dict, b: dict) -> dict:
    """The product of two power-sum coordinate maps {nu: c}, as
    p_la p_lb = p_{la u lb}."""
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            key = union(la, lb)
            prev = out.get(key)
            s = ca * cb if prev is None else prev + ca * cb
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

    s_lam = sum_nu chi^lam(nu) p_nu / z_nu (``_character``), and by Hall
    duality h_lam = sum_nu c_nu p_nu / z_nu with c_nu = [m_lam] p_nu, read
    off the counted columns (``_p_in_m``); the other bases follow the
    module docstring.
    """
    if basis == "p":
        return ((lam, Fraction(1)),)
    if basis == "m":
        return _m_to_p(lam)
    if basis == "h":
        return tuple(
            (nu, Fraction(count, stats(nu).z))
            for nu in reversed(partitions_of(lam.size))
            if (count := _p_in_m(nu).get(lam))
        )
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


@lru_cache(maxsize=None)
def _p_in_m(nu: tuple) -> dict:
    """Column nu of the p -> m matrix, {kappa: [m_kappa] p_nu}, kappa as
    plain tuples.

    p_nu is p_r times p_rest, r = nu_1 and rest the other parts, and
    p_r m_kappa = sum over mu of m_{s+r}(mu) m_mu, mu being kappa with one
    part s (s = 0 included) raised to s + r and m_{s+r}(mu) the number of
    parts of mu equal to s + r (Macdonald I.6).  The column of rest has a
    lower degree, so the memo builds each column once across degrees."""
    if not nu:
        return {(): 1}
    r = nu[0]
    out: dict = {}
    for kappa, c in _p_in_m(nu[1:]).items():
        previous = None
        for i, s in enumerate(kappa + (0,)):  # each distinct part once
            if s == previous:
                continue
            previous = s
            mu = tuple(sorted(kappa[:i] + kappa[i + 1:] + (s + r,), reverse=True))
            out[mu] = out.get(mu, 0) + c * mu.count(s + r)
    return out


@lru_cache(maxsize=None)
def _basis_matrix_inverse(basis: str, n: int) -> tuple:
    """The (p -> basis) change of basis at degree n, as Python ints.

    Entry [j][i] is the coefficient of basis_{mu_j} in p_{nu_i}, with both
    indices in canonical (reverse-lex) order.  For m the entries are counted,
    column nu_i being ``_p_in_m(nu_i)``.  For the other bases, pairing p_nu
    with the dual element d_mu and using <p_nu, p_rho> = z_nu delta gives
    them without any inversion: entry = z_{nu_i} * [p_{nu_i}] d_{mu_j}, an
    integer because p_nu lies in the integral ring.
    """
    order = partitions_of(n)
    if basis == "m":
        cols = [_p_in_m(nu) for nu in order]
        return tuple(tuple(col.get(mu, 0) for col in cols) for mu in order)
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
            s = out.get(nu, ring.zero) + c * fr
            if not s:
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
            if c:
                out[mu] = c
    return SymFunc(target, out, ring)


def multiply(x: SymFunc, y: SymFunc) -> SymFunc:
    """Product, computed on the power-sum basis (index unions)."""
    ring = x.ring
    if ring.name != y.ring.name:
        raise ValueError("mixed coefficient rings in multiply")
    return SymFunc("p", _p_convolve(p_expansion(x), p_expansion(y)), ring)


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
            total = total + stats(lam).z * cx * cy
    return total


def omega(x: SymFunc) -> SymFunc:
    """The involution with p_n -> (-1)^(n-1) p_n (so h <-> e, m <-> f)."""
    out = {lam: c * stats(lam).eps for lam, c in p_expansion(x).items()}
    return SymFunc("p", out, x.ring)


def skew_p(xp: dict, yp: dict) -> dict:
    """p-coefficients of y^perp x, the adjoint of multiplication by y under
    the Hall form: p_beta p_gamma = p_{beta u gamma} and <p_nu, p_nu> = z_nu
    give z_gamma [p_gamma] y^perp x = sum_beta y_beta x_{beta u gamma}
    z_{beta u gamma}.
    """
    out: dict = {}
    for alpha, cx in xp.items():
        weighted = cx * stats(alpha).z
        for beta, cy in yp.items():
            gamma = difference(alpha, beta)
            if gamma is not None:
                out[gamma] = out.get(gamma, 0) + cy * weighted
    return {gamma: c * Fraction(1, stats(gamma).z) for gamma, c in out.items() if c}


def pn_perp(x: SymFunc, n: int) -> SymFunc:
    """Adjoint of multiplication by p_n (n d/dp_n), on the p-basis."""
    if n < 1:
        raise ValueError("n must be positive")
    yp = {Partition((n,)): x.ring.one}
    return SymFunc("p", skew_p(p_expansion(x), yp), x.ring)


def skew(family: str, lam, mu) -> SymFunc:
    """The skew element u_{lam/mu} defined by <u_{lam/mu}, f> = <u_lam, u_mu f>.

    That is u_mu^perp u_lam, the adjoint of multiplication by u_mu applied to
    u_lam on the power sums (``skew_p``), given on the p-basis over Q; pairs
    with |lam| < |mu| give the zero element.
    """
    if family not in ("m", "h", "e", "s", "f"):
        raise ValueError(f"no skew family for basis {family!r}")
    if Partition(lam).size < Partition(mu).size:
        return SymFunc("p", {})
    xp = p_expansion(sym(family, lam))
    return SymFunc("p", skew_p(xp, p_expansion(sym(family, mu))))


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
        body = f"{render(x.coeffs[lam])}*{x.basis}{format_partition(lam)}"
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
        coeffs[lam] = coeffs.get(lam, ring.zero) + sign * fr
        pos = match.end()
    if basis is None:
        raise ValueError(f"empty symmetric function expression: {text!r}")
    return SymFunc(basis, coeffs, ring)
