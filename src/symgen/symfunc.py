"""Symmetric functions over a pluggable coefficient field.

The power-sum basis is the computational hub: products are index unions and
the Hall inner product is diagonal there.  The p -> m columns and the
products (``_p_in_m``, ``_p_convolve``) key a partition by its multiplicity
code (``partitions.code``, 8 bits per part size), so a union of indices is
a sum of codes, refused (ValueError) where a slot would pass 255.  Every
classical basis reaches p through one integer table, its class values
<b_lam, p_nu> = z_nu [p_nu] b_lam (``_class_values``):

* ``s`` has the characters chi^lam(nu), by the Murnaghan-Nakayama rule on
  a bit mask of lam's beta-set (``_mn``: each part of nu moves one bead);
  with mu's mask as the target it gives the skew characters,
* ``m`` has eps_nu eps_lam w(nu, lam), w counting domino tabloids,
* ``h`` is read off the counted p -> m matrix by Hall duality,
  ``<h_lam, p_nu> = [m_lam] p_nu``, one row lam (``_p_in_m``),
* ``e`` and ``f`` (forgotten) are the images of ``h`` and ``m`` under the
  involution omega, ``omega p_nu = eps_nu p_nu``.

The rational p-expansions (``_basis_to_p``) are those values over z_nu,
and the reverse direction needs no inversion.  The coefficient of m_mu in
p_nu is counted: the ways to drop the parts of nu into the rows of mu so
that each row fills exactly.  Column nu is p_{nu_1} times the column of nu
without nu_1 (``_p_in_m``), so one memo builds each column once across
degrees.  For the other bases, the Hall inner product has
``<h_lam, m_mu> = delta`` and ``<p_lam, p_mu> = z_lam delta``, so the
coefficient of b_mu in p_nu is ``<d_mu, p_nu>``, where d is the dual basis
of b: h <-> m, e <-> f, s <-> s, read off the table once per degree.

Skewing is the adjoint of multiplication.  The Hall form is diagonal on
the power sums, so that adjoint is one formula on p-coefficients,
``skew_p``: p_beta removes the parts of beta from p_alpha, rescaled by the
ratio of the norms z.  ``pn_perp`` is built on it (``deformed`` has its
t-form analogue); ``skew`` (every classical skew family) takes the same
formula on class values, in integers.

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
from math import factorial

from .exactalg import RING_Q, CoeffRing, render
from .partitions import (
    SLOT_MAX,
    Partition,
    code,
    decode,
    difference,
    eps_of,
    format_partition,
    partitions_of,
    refuse_carry,
    union,
    z_of,
)
from .tabloids import SizeMismatch, _type_code, _w_rows, w

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
    """The product of two power-sum coordinate maps {code(nu): c}, as
    p_la p_lb = p_{la u lb}: the code of a union is the sum of the codes
    (``refuse_carry`` raises ValueError where a slot would pass 255)."""
    refuse_carry(a, b)
    out: dict = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            key = la + lb
            prev = out.get(key)
            s = ca * cb if prev is None else prev + ca * cb
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _bead_mask(parts, beads: int) -> int:
    """The beta-set of a partition padded to ``beads`` parts, as a bit mask:
    bit lam_i + beads - i for i = 1..beads."""
    padded = tuple(parts) + (0,) * (beads - len(parts))
    return sum(1 << (part + beads - 1 - i) for i, part in enumerate(padded))


@lru_cache(maxsize=None)
def _mn(mask: int, nu: tuple, target: int) -> int:
    """The skew character chi^{lam/mu}(nu) by the Murnaghan-Nakayama rule
    (Macdonald I.7, Ex. 5), lam and mu given as bead masks with one bead
    count (``_bead_mask``): ``mask`` for lam, ``target`` for mu.

    Removing a rim hook of length r = nu_1 moves one bead from b to a free
    b - r >= 0; the hook's height, and so the sign, is the number of beads
    strictly between b - r and b.  The removals reach mu or never do, so a
    mu outside lam gives 0; the empty mu gives chi^lam(nu).
    """
    if not nu:
        return int(mask == target)
    r, rest = nu[0], nu[1:]
    between = (1 << (r - 1)) - 1
    movable = mask & ~(mask << r) & ~((1 << r) - 1)
    total = 0
    while movable:
        b = movable.bit_length() - 1
        movable ^= 1 << b
        chi = _mn(mask ^ (1 << b) ^ (1 << (b - r)), rest, target)
        if chi:
            total += -chi if (mask >> (b - r + 1) & between).bit_count() & 1 else chi
    return total


@lru_cache(maxsize=None)
def _class_values(basis: str, lam: Partition) -> tuple:
    """((nu, <b_lam, p_nu>), ...) over the nu |- |lam| where it is nonzero,
    nu ascending: integers, the p-coordinates of b_lam times z_nu.

    For s the characters chi^lam(nu) (``_mn``), for m the tabloid counts
    eps_nu eps_lam w(nu, lam), for h the counted [m_lam] p_nu
    (``_p_in_m``), for e and f eps_nu times those of h and m, for p z_lam
    at nu = lam.
    """
    if basis == "p":
        return ((lam, z_of(lam)),)
    order = reversed(partitions_of(lam.size))
    if basis == "s":
        beads = len(lam)
        mask, target = _bead_mask(lam, beads), (1 << beads) - 1
        return tuple((nu, chi) for nu in order if (chi := _mn(mask, nu, target)))
    if basis == "m":
        el, (avail, bits) = eps_of(lam), _type_code(lam)
        return tuple(
            (nu, eps_of(nu) * el * c) for nu in order if (c := _w_rows(tuple(nu), avail, bits))
        )
    if basis == "h":
        key = code(lam)
        return tuple((nu, c) for nu in order if (c := _p_in_m(nu).get(key)))
    if basis in _OMEGA:
        return tuple((nu, eps_of(nu) * c) for nu, c in _class_values(_OMEGA[basis], lam))
    raise ValueError(f"unknown basis {basis!r}")


@lru_cache(maxsize=None)
def _basis_to_p(basis: str, lam: Partition) -> tuple:
    """Power-sum expansion of one basis element, as ((nu, Fraction), ...),
    nu ascending: [p_nu] b_lam = <b_lam, p_nu> / z_nu (``_class_values``)."""
    return tuple((nu, Fraction(c, z_of(nu))) for nu, c in _class_values(basis, lam))


# e = omega h and f = omega m, with omega p_nu = eps_nu p_nu
_OMEGA = {"e": "h", "f": "m"}

# the Hall-dual basis of each basis: <b_lam, dual(b)_mu> = delta_lam,mu
# (the p -> m entries are counted instead)
_DUAL = {"h": "m", "e": "f", "f": "e", "s": "s"}


@lru_cache(maxsize=None)
def _p_in_m(nu: tuple) -> dict:
    """Column nu of the p -> m matrix, {code(kappa): [m_kappa] p_nu}, kappa
    by its multiplicity code (``partitions.code``).

    p_nu is p_r times p_rest, r = nu_1 and rest the other parts, and
    p_r m_kappa = sum over mu of m_{s+r}(mu) m_mu, mu being kappa with one
    part s (s = 0 included) raised to s + r and m_{s+r}(mu) the number of
    parts of mu equal to s + r (Macdonald I.6).  On codes, mu moves one
    count of kappa from slot s to slot s + r (s = 0 adds one to slot r), and
    m_{s+r}(mu) is kappa's slot s + r plus one.  Every kappa has at most
    len(nu) parts, so a nu of 255 parts or fewer keeps each slot within
    its 8 bits (ValueError otherwise).  The column of rest has a lower
    degree, so the memo builds each column once across degrees."""
    if not nu:
        return {0: 1}
    if len(nu) > SLOT_MAX:
        raise ValueError(f"{len(nu)} parts: a multiplicity code holds at most {SLOT_MAX}")
    r = nu[0]
    width = sum(nu) + 1  # slots 0..|nu|: s + r <= |nu| for every part s
    new = 1 << (r << 3)  # one count in slot r
    out: dict = {}
    for kappa, c in _p_in_m(nu[1:]).items():
        slots = kappa.to_bytes(width, "little")
        mu = kappa + new
        out[mu] = out.get(mu, 0) + c * (slots[r] + 1)
        for s in range(1, width - r):
            if slots[s]:
                mu = kappa + ((new - 1) << (s << 3))  # slot s to slot s + r
                out[mu] = out.get(mu, 0) + c * (slots[s + r] + 1)
    return out


@lru_cache(maxsize=None)
def _basis_matrix_inverse(basis: str, n: int) -> tuple:
    """The (p -> basis) change of basis at degree n, as Python ints.

    Entry [j][i] is the coefficient of basis_{mu_j} in p_{nu_i}, with both
    indices in canonical (reverse-lex) order.  For m the entries are counted,
    column nu_i being ``_p_in_m(nu_i)``.  For the other bases, pairing p_nu
    with the dual element d_mu and using <p_nu, p_rho> = z_nu delta gives
    them without any inversion: entry = <d_{mu_j}, p_{nu_i}>, row mu_j read
    off ``_class_values`` of the dual basis.
    """
    order = partitions_of(n)
    if basis == "m":
        cols = [_p_in_m(nu) for nu in order]
        return tuple(tuple(col.get(key, 0) for col in cols) for key in map(code, order))
    idx = {lam: i for i, lam in enumerate(order)}
    rows = []
    for mu in order:
        row = [0] * len(order)
        for nu, c in _class_values(_DUAL[basis], mu):
            row[idx[nu]] = c
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
    """Product, computed on the power-sum basis (index unions, as sums of
    multiplicity codes)."""
    ring = x.ring
    if ring.name != y.ring.name:
        raise ValueError("mixed coefficient rings in multiply")
    xp, yp = ({code(nu): c for nu, c in p_expansion(f).items()} for f in (x, y))
    return SymFunc("p", {decode(key): c for key, c in _p_convolve(xp, yp).items()}, ring)


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
            total = total + z_of(lam) * cx * cy
    return total


def omega(x: SymFunc) -> SymFunc:
    """The involution with p_n -> (-1)^(n-1) p_n (so h <-> e, m <-> f)."""
    out = {lam: c * eps_of(lam) for lam, c in p_expansion(x).items()}
    return SymFunc("p", out, x.ring)


def skew_p(xp: dict, yp: dict) -> dict:
    """p-coefficients of y^perp x, the adjoint of multiplication by y under
    the Hall form: p_beta p_gamma = p_{beta u gamma} and <p_nu, p_nu> = z_nu
    give z_gamma [p_gamma] y^perp x = sum_beta y_beta x_{beta u gamma}
    z_{beta u gamma}.
    """
    out: dict = {}
    for alpha, cx in xp.items():
        weighted = cx * z_of(alpha)
        for beta, cy in yp.items():
            gamma = difference(alpha, beta)
            if gamma is not None:
                out[gamma] = out.get(gamma, 0) + cy * weighted
    return {gamma: c * Fraction(1, z_of(gamma)) for gamma, c in out.items() if c}


def pn_perp(x: SymFunc, n: int) -> SymFunc:
    """Adjoint of multiplication by p_n (n d/dp_n), on the p-basis."""
    if n < 1:
        raise ValueError("n must be positive")
    yp = {Partition((n,)): x.ring.one}
    return SymFunc("p", skew_p(p_expansion(x), yp), x.ring)


def skew(family: str, lam, mu) -> SymFunc:
    """The skew element u_{lam/mu} defined by <u_{lam/mu}, f> = <u_lam, u_mu f>,
    on the p-basis over Q (zero when |lam| < |mu|), from its integer class
    values: for s the skew characters (``_mn``, mu the target), else the
    adjoint of ``skew_p``, <u_{lam/mu}, p_gamma> = sum_beta Y(beta)
    X(beta u gamma) / z_beta for the class values X of u_lam and Y of u_mu,
    each term scaled by |mu|! and the sum divided exactly (a remainder
    raises ValueError).
    """
    if family not in ("m", "h", "e", "s", "f"):
        raise ValueError(f"no skew family for basis {family!r}")
    lam, mu = Partition(lam), Partition(mu)
    if lam.size < mu.size:
        return SymFunc("p", {})
    order = partitions_of(lam.size - mu.size)
    if family == "s":
        beads = max(len(lam), len(mu))
        mask, target = _bead_mask(lam, beads), _bead_mask(mu, beads)
        values = ((gamma, _mn(mask, gamma, target)) for gamma in order)
    else:
        x = dict(_class_values(family, lam))
        scale = factorial(mu.size)
        y = [(beta, c * (scale // z_of(beta))) for beta, c in _class_values(family, mu)]
        values = []
        for gamma in order:
            total = sum(c * x.get(union(beta, gamma), 0) for beta, c in y)
            value, remainder = divmod(total, scale)
            if remainder:
                raise ValueError(f"non-integral class value {Fraction(total, scale)}")
            values.append((gamma, value))
    return SymFunc("p", {gamma: Fraction(v, z_of(gamma)) for gamma, v in values if v})


def skew_monomial_weight_sum(lam, mu, n: int) -> Fraction:
    """The z-weighted tabloid sum sum_xi w(xi,mu) w(xi+(n),lam) / z_xi.

    A priori rational; provably a nonnegative integer.  Summed in integers,
    each term times k!/z_xi (z_xi divides k! = |mu|!), and divided by k!
    once.
    """
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size + n:
        raise SizeMismatch(f"|{lam}| != |{mu}| + {n}")
    scale, total = factorial(mu.size), 0
    for xi in partitions_of(mu.size):
        w1 = w(xi, mu)
        if not w1:
            continue
        w2 = w(union(xi, (n,)), lam)
        if w2:
            total += w1 * w2 * (scale // z_of(xi))
    return Fraction(total, scale)


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
