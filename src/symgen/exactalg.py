"""Exact coefficient arithmetic: sparse rational polynomials in q and t,
reduced rational functions, cyclotomic residue rings for evaluating at
roots of unity, and the parameter specializations that evaluate a rational
function at a rational value, a rational (q,t) pair or a root of unity.

Canonical forms
---------------
* ``Poly`` terms map an exponent pair ``(deg_q, deg_t)`` of non-negative
  ints to a nonzero coefficient: an ``int`` when it is integral, else a
  ``Fraction``.  Monomials are ordered graded-lex with t > q, i.e. by
  ``(deg_q + deg_t, deg_t)``.
* ``RatFunc`` is ``scale * num / den`` with ``num``/``den`` coprime primitive
  integer polynomials whose graded-lex leading coefficients are positive and
  with the whole rational content in ``scale``.  Equality of rational
  functions is structural equality of this form.
* ``CycloElem`` is a residue mod the k-th cyclotomic polynomial, stored as a
  vector of phi(k) rationals: ints, unless a division made a ``Fraction``.
* Each value gets its form once, from the arithmetic that makes it; no
  constructor normalizes it again.  A ``RatFunc`` product keeps the form
  as it is: after the cross-cancel its four parts are primitive with
  positive leading coefficients, and by Gauss's lemma so are their
  products.  An int or Fraction multiplies a ``CycloElem`` coefficient-wise
  (no residue product) and a ``RatFunc`` as a constant, so every other
  module passes the plain number.

GCD routes
----------
``poly_gcd`` serves general RatFunc arithmetic: ``RatFunc.make`` and the
cross-cancel of ``RatFunc.__mul__``, as in ``expand``/``to_basis`` over Q(t)
and Q(q,t), ``deformed_inner`` and the tests' ``det_gauss``; the deformed
families, the oracle and the probe divide by key counts, fibre by fibre,
instead (``deformed.KeyQuotient.divide``).  A constant argument gives 1 at once.
The cached core takes out the common monomial; then a pair in t alone takes
a dense integer primitive PRS (polynomial remainder sequence), and every
other pair the gcd of its q-contents times the primitive PRS in t over Z[q].

Specialization
--------------
``Specialization.apply`` is the one routine.  A value gives its
``factors()``: a ``RatFunc`` its numerator and, unless it is 1, its
denominator; a closed form kept as its key count (``deformed.KeyQuotient``)
its monomial and key polynomials.  ``Specialization.evaluate`` takes each
factor once to the point, as an integer sum over one denominator
(``Poly.value_at``) or as a residue mod Phi_k.  A one-parameter point reads
its variable off the factor: t, unless the factor is in q alone (the
q-Whittaker family); no caller names it.  Every ``RatFunc`` constructor
keeps its parts coprime, and so does a key count, so a specialization takes
no gcd and a vanishing denominator factor is a pole; it is checked before a
vanishing numerator factor makes the value 0 (at a root of unity Phi_k
divides at most one part, so the two never meet there).

Rendering grammar (golden files depend on it)
---------------------------------------------
``Poly``: terms in graded-lex t>q descending order, joined by `` + ``/`` - ``;
a term is ``c``, ``c*q^a*t^b``, ``q``, ``t^2``, ... with unit coefficients
omitted except on constants (e.g. ``-q*t + t - q + 1``).
``RatFunc``: ``(N)`` or ``(N)/(D)`` where N is scale*num expanded (rational
coefficients allowed) and D is den (integer, positive leading coefficient).
``CycloElem``: a plain rational for k <= 2, otherwise ``(P) mod Phi_k`` with
P the residue polynomial in t.  ``render`` shows any ring value: these
three by their own ``render``, an int or Fraction by ``str``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd


class ZeroDenominator(ZeroDivisionError):
    """A denominator vanishes: the value (or the specialized value) is undefined."""


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class PoleAtRootOfUnity(ZeroDenominator):
    """The rational function has a genuine pole at the requested root of unity."""


def _binary_power(base, n: int):
    """base ** n for n >= 1 by squaring: no product past the last bit."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _term_order(term):
    dq, dt = term
    return (dq + dt, dt)


def _render_monomial(dq: int, dt: int) -> str:
    parts = []
    if dq:
        parts.append("q" if dq == 1 else f"q^{dq}")
    if dt:
        parts.append("t" if dt == 1 else f"t^{dt}")
    return "*".join(parts)


class Poly:
    """Sparse polynomial in q and t with rational coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        # every producer makes non-negative int exponents (tests check it), so
        # only zeros are dropped and an integral Fraction is stored as an int,
        # which is far faster in the gcd kernels
        clean = {}
        if terms:
            for term, c in terms.items():
                if c:
                    if type(c) is not int and c.denominator == 1:
                        c = c.numerator
                    clean[term] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0): c})

    @staticmethod
    def t(power: int = 1) -> "Poly":
        return Poly({(0, power): 1})

    @staticmethod
    def q(power: int = 1) -> "Poly":
        return Poly({(power, 0): 1})

    # -- basic queries -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or self.terms.keys() == {(0, 0)}

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms[(0, 0)]

    def is_univariate_t(self) -> bool:
        return all(dq == 0 for dq, _ in self.terms)

    def deg_t(self) -> int:
        return max((dt for _, dt in self.terms), default=0)

    def deg_q(self) -> int:
        return max((dq for dq, _ in self.terms), default=0)

    def leading(self):
        """((deg_q, deg_t), coeff) of the graded-lex t>q leading term."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        term = max(self.terms, key=_term_order)
        return term, self.terms[term]

    def min_degs(self) -> tuple[int, int]:
        return (
            min(dq for dq, _ in self.terms),
            min(dt for _, dt in self.terms),
        )

    # -- arithmetic --------------------------------------------------------
    def _coerced(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for term, c in other.terms.items():
            s = out.get(term, 0) + c
            if s:
                out[term] = s
            else:
                out.pop(term, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({term: -c for term, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for (aq, at), ca in self.terms.items():
            for (bq, bt), cb in other.terms.items():
                term = (aq + bq, at + bt)
                s = out.get(term, 0) + ca * cb
                if s:
                    out[term] = s
                else:
                    del out[term]
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly")
        return _binary_power(self, n) if n else P_ONE

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(tuple(sorted(self.terms.items())))
            )
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- evaluation --------------------------------------------------------
    def value_at(self, q=None, t=None) -> Fraction:
        """The value at rational q and t, summed in integers over the one
        denominator b^deg_q e^deg_t (q = a/b, t = c/e).  A variable given as
        None must not occur: ValueError otherwise."""
        top_q = top_t = 0
        for dq, dt in self.terms:
            if dq > top_q:
                top_q = dq
            if dt > top_t:
                top_t = dt
        if (q is None and top_q) or (t is None and top_t):
            raise ValueError("not a constant polynomial")
        a, b = (1, 1) if q is None else (q.numerator, q.denominator)
        c, e = (1, 1) if t is None else (t.numerator, t.denominator)
        total = 0
        for (dq, dt), coeff in self.terms.items():
            total += coeff * a ** dq * b ** (top_q - dq) * c ** dt * e ** (top_t - dt)
        return Fraction(total, b ** top_q * e ** top_t)

    def swap_vars(self) -> "Poly":
        """Exchange the roles of q and t."""
        return Poly({(dt, dq): c for (dq, dt), c in self.terms.items()})

    # -- normal forms ------------------------------------------------------
    def split_content(self):
        """Write self = scale * prim with prim integer, content 1, leading > 0."""
        if not self.terms:
            return Fraction(0), P_ZERO
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = int_gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
        _, lead = self.leading()
        if lead < 0:
            num_gcd = -num_gcd
        if den_lcm == 1:
            # integer coefficients: exact floor division, no Fraction
            prim = Poly({term: c // num_gcd for term, c in self.terms.items()})
            return Fraction(num_gcd), prim
        scale = Fraction(num_gcd, den_lcm)
        prim = Poly({term: c / scale for term, c in self.terms.items()})
        return scale, prim

    def primitive(self) -> "Poly":
        return self.split_content()[1]

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for term in sorted(self.terms, key=_term_order, reverse=True):
            c = self.terms[term]
            mono = _render_monomial(*term)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append((" - " if c < 0 else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"Poly({self.render()})"


P_ZERO = Poly()
P_ONE = Poly.const(1)
T = Poly.t()
Q = Poly.q()


# ---------------------------------------------------------------------------
# division and gcd
# ---------------------------------------------------------------------------

def _coeff_div(a, b):
    """Exact field division of coefficients (never int floor/float)."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def try_exact_div(a: Poly, b: Poly):
    """Return a/b when b divides a exactly, else None."""
    if b.is_zero():
        raise ZeroDenominator("division by zero polynomial")
    if a.is_zero():
        return P_ZERO
    (bq, bt), blead = b.leading()
    quo: dict = {}
    rem = a
    while not rem.is_zero():
        (rq, rt), rlead = rem.leading()
        dq, dt = rq - bq, rt - bt
        if dq < 0 or dt < 0:
            return None
        c = _coeff_div(rlead, blead)
        quo[(dq, dt)] = quo.get((dq, dt), 0) + c
        rem = rem - Poly({(dq, dt): c}) * b
    return Poly(quo)


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    out = try_exact_div(a, b)
    if out is None:
        raise ValueError("polynomial division is not exact")
    return out


def _dense_uni(p: Poly, var: str) -> list:
    deg = p.deg_t() if var == "t" else p.deg_q()
    out = [0] * (deg + 1)
    for (dq, dt), c in p.terms.items():
        out[dt if var == "t" else dq] += c
    return out


def _from_dense_uni(coeffs, var: str) -> Poly:
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            terms[(0, i) if var == "t" else (i, 0)] = c
    return Poly(terms)


def _strip_trailing(v: list) -> list:
    while v and v[-1] == 0:
        v.pop()
    return v


def _int_primitive(v: list) -> list:
    """Strip integer content (sign-normalized to positive leading)."""
    v = _strip_trailing(v)
    if not v:
        return v
    g = 0
    for c in v:
        g = int_gcd(g, c)
    if v[-1] < 0:
        g = -g
    return [c // g for c in v]


def _int_prem(fa: list, fb: list) -> list:
    """Integer remainder sequence step for fa by fb (dense, little-endian).

    The result agrees with the pseudo-remainder up to integer content, which
    is all the primitive PRS needs; content is stripped every step to keep
    the integers small.
    """
    r = list(fa)
    lb = fb[-1]
    width = len(fb)
    while True:
        r = _strip_trailing(r)
        if len(r) < width:
            return r
        lead = r[-1]
        g = int_gcd(lb, lead)
        scale_r, scale_b = lb // g, lead // g
        if scale_r != 1:
            r = [c * scale_r for c in r]
        shift = len(r) - width
        for i, c in enumerate(fb):
            r[i + shift] -= scale_b * c
        del r[-1]  # the top coefficient cancels exactly
        cont = 0
        for c in r:
            cont = int_gcd(cont, c)
            if cont == 1:
                break
        if cont > 1:
            r = [c // cont for c in r]


def _dense_int_uni(p: Poly, var: str) -> list:
    """Dense integer coefficients (denominators cleared)."""
    dense = _dense_uni(p, var)
    lcm = 1
    for c in dense:
        d = c.denominator
        lcm = lcm * d // int_gcd(lcm, d)
    return [int(c * lcm) for c in dense]


def _uni_gcd(a: Poly, b: Poly, var: str) -> Poly:
    """Primitive positive-leading gcd of two univariate polynomials,
    by the integer primitive polynomial-remainder sequence."""
    fa = _int_primitive(_dense_int_uni(a, var))
    fb = _int_primitive(_dense_int_uni(b, var))
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        fa, fb = fb, _int_primitive(_int_prem(fa, fb))
    return _from_dense_uni(fa, var)


def _as_t_coeffs(p: Poly) -> dict[int, Poly]:
    """View p as a polynomial in t with q-polynomial coefficients."""
    out: dict[int, dict] = {}
    for (dq, dt), c in p.terms.items():
        out.setdefault(dt, {})[(dq, 0)] = c
    return {dt: Poly(terms) for dt, terms in out.items()}


def _from_t_coeffs(coeffs: dict[int, Poly]) -> Poly:
    terms = {}
    for dt, cp in coeffs.items():
        for (dq, _), c in cp.terms.items():
            terms[(dq, dt)] = c
    return Poly(terms)


def _t_content(coeffs: dict[int, Poly]) -> Poly:
    cont = P_ZERO
    for cp in coeffs.values():
        cont = _uni_gcd(cont, cp, "q") if not cont.is_zero() else cp.primitive()
        if cont.is_const() and not cont.is_zero():
            return P_ONE
    return cont if not cont.is_zero() else P_ONE

def _t_primitive(coeffs: dict[int, Poly]) -> dict[int, Poly]:
    cont = _t_content(coeffs)
    if cont == P_ONE:
        return coeffs
    return {dt: poly_exact_div(cp, cont) for dt, cp in coeffs.items()}


def _t_prem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of a by b in the main variable t."""
    da, db = max(a), max(b)
    lead_b = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lead_r = r[dr]
        shift = dr - db
        new: dict[int, Poly] = {}
        for dt, cp in r.items():
            new[dt] = cp * lead_b
        for dt, cp in b.items():
            cur = new.get(dt + shift, P_ZERO) - cp * lead_r
            if cur.is_zero():
                new.pop(dt + shift, None)
            else:
                new[dt + shift] = cur
        r = {dt: cp for dt, cp in new.items() if not cp.is_zero()}
        if max(r, default=-1) == dr:
            raise AssertionError("pseudo-division failed to lower degree")
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD of the primitive parts, returned primitive with positive leading."""
    if a.is_zero() and b.is_zero():
        return P_ZERO
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if a.is_const() or b.is_const():
        return P_ONE
    return _poly_gcd_prim(a.primitive(), b.primitive())


@lru_cache(maxsize=None)
def _poly_gcd_prim(a: Poly, b: Poly) -> Poly:
    if a == b:
        return a
    # common monomial factor
    amq, amt = a.min_degs()
    bmq, bmt = b.min_degs()
    mq, mt = min(amq, bmq), min(amt, bmt)
    if amq or amt:
        a = Poly({(dq - amq, dt - amt): c for (dq, dt), c in a.terms.items()})
    if bmq or bmt:
        b = Poly({(dq - bmq, dt - bmt): c for (dq, dt), c in b.terms.items()})
    mono = Poly({(mq, mt): 1})
    if a.is_const() or b.is_const():
        core = P_ONE
    elif a.is_univariate_t() and b.is_univariate_t():
        core = _uni_gcd(a, b, "t")
    else:
        # the gcd of the q-contents times that of the t-primitive parts; a
        # side free of t has t-primitive part 1, and the PRS ends at once
        ta, tb = _as_t_coeffs(a), _as_t_coeffs(b)
        cont = _uni_gcd(_t_content(ta), _t_content(tb), "q")
        fa, fb = _t_primitive(ta), _t_primitive(tb)
        if max(fa) < max(fb):
            fa, fb = fb, fa
        while fb:
            r = _t_prem(fa, fb)
            fa, fb = fb, (_t_primitive(r) if r else {})
        core = (_from_t_coeffs(_t_primitive(fa)) * cont).primitive()
    return (mono * core).primitive()


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phi_dense(k: int) -> tuple:
    """The k-th cyclotomic polynomial Phi_k(t) as its dense integer
    coefficients, constant first: t^k - 1 divided by Phi_d for each proper
    divisor d, each division by a monic divisor exact."""
    if k < 1:
        raise ValueError("k must be positive")
    rem = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            rem = _phi_divmod(rem, d)[0]
    return tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> Poly:
    """Phi_k(t) as a Poly (``_phi_dense``)."""
    return _from_dense_uni(_phi_dense(k), "t")


def euler_phi(k: int) -> int:
    return len(_phi_dense(k)) - 1


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class _Field:
    """Subtraction and division of a field's values, written once from the
    value type's ``_coerce``, ``+``, unary ``-``, ``*`` and ``inverse()``."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()


class RatFunc(_Field):
    """Reduced rational function scale*num/den in canonical form."""

    __slots__ = ("scale", "num", "den")

    def __init__(self, scale: Fraction, num: Poly, den: Poly, _raw: bool = False):
        if not _raw:
            raise TypeError("use RatFunc.make")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def make(num, den=P_ONE, scale=Fraction(1)) -> "RatFunc":
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = den if isinstance(den, Poly) else Poly.const(den)
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        scale = Fraction(scale)
        if num.is_zero() or scale == 0:
            return RF_ZERO
        cn, pn = num.split_content()
        cd, pd = den.split_content()
        scale = scale * cn / cd
        g = poly_gcd(pn, pd)
        if g != P_ONE:
            # Gauss's lemma: primitive over a primitive factor stays primitive;
            # the leading coefficients stay > 0, as graded-lex leading terms multiply
            pn = poly_exact_div(pn, g)
            pd = poly_exact_div(pd, g)
        return RatFunc(scale, pn, pd, _raw=True)

    @staticmethod
    def from_fraction(fr) -> "RatFunc":
        fr = Fraction(fr)
        if fr == 0:
            return RF_ZERO
        return RatFunc(fr, P_ONE, P_ONE, _raw=True)

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self.scale == 0

    def __bool__(self):
        return self.scale != 0

    def is_constant(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        if self.is_zero():
            return Fraction(0)
        return self.scale * self.num.as_fraction() / self.den.as_fraction()

    def is_univariate_t(self) -> bool:
        return self.num.is_univariate_t() and self.den.is_univariate_t()

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.from_fraction(x)
        if isinstance(x, Poly):
            return RatFunc.make(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            num = self.scale * self.num + other.scale * other.num
            return RatFunc.make(num, self.den)
        num = self.scale * self.num * other.den + other.scale * other.num * self.den
        return RatFunc.make(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero():
            return self
        return RatFunc(-self.scale, self.num, self.den, _raw=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        # cross-cancel before multiplying; the four parts are then pairwise
        # coprime and primitive with positive leading coefficients, and by
        # Gauss's lemma so are the two products: the form needs no gcd and
        # no content split
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1 == P_ONE else poly_exact_div(self.num, g1)
        d2 = other.den if g1 == P_ONE else poly_exact_div(other.den, g1)
        n2 = other.num if g2 == P_ONE else poly_exact_div(other.num, g2)
        d1 = self.den if g2 == P_ONE else poly_exact_div(self.den, g2)
        return RatFunc(self.scale * other.scale, n1 * n2, d1 * d2, _raw=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        """1/self: the parts swapped and the scale inverted, which keeps the form."""
        if self.is_zero():
            raise ZeroDenominator("division by zero rational function")
        return RatFunc(1 / self.scale, self.den, self.num, _raw=True)

    @staticmethod
    def _make_coprime(num: Poly, den: Poly, scale: Fraction) -> "RatFunc":
        """Canonicalize when num and den are already known to be coprime."""
        if num.is_zero() or scale == 0:
            return RF_ZERO
        cn, pn = num.split_content()
        cd, pd = den.split_content()
        return RatFunc(scale * cn / cd, pn, pd, _raw=True)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (
            self.scale == other.scale
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.scale, self.num, self.den))

    # -- substitution ------------------------------------------------------
    def swap_vars(self) -> "RatFunc":
        if self.is_zero():
            return self
        # an automorphism keeps coprime parts coprime: no gcd is needed
        return RatFunc._make_coprime(
            self.num.swap_vars(), self.den.swap_vars(), self.scale
        )

    def factors(self) -> tuple:
        """(scale, ((num, 1), (den, -1))), the den factor left out when it is 1."""
        if self.den == P_ONE:
            return self.scale, ((self.num, 1),)
        return self.scale, ((self.num, 1), (self.den, -1))

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        if self.is_zero():
            return "(0)"
        if self.scale == 1:
            shown = self.num
        elif self.scale == -1:
            shown = -self.num
        else:
            shown = Poly({term: self.scale * c for term, c in self.num.terms.items()})
        if self.den == P_ONE:
            return f"({shown.render()})"
        return f"({shown.render()})/({self.den.render()})"

    def __repr__(self):
        return f"RatFunc({self.render()})"


RF_ZERO = RatFunc(Fraction(0), P_ZERO, P_ONE, _raw=True)
RF_ONE = RatFunc(Fraction(1), P_ONE, P_ONE, _raw=True)


# ---------------------------------------------------------------------------
# cyclotomic residues
# ---------------------------------------------------------------------------

def _phi_divmod(coeffs, k: int) -> tuple[list, list]:
    """Dense coefficients (constant first) divided by the monic Phi_k."""
    phi = _phi_dense(k)
    d = len(phi) - 1
    r = list(coeffs)
    quo = [0] * max(len(r) - d, 0)
    for shift in reversed(range(len(quo))):
        if lead := r.pop():
            quo[shift] = lead
            for i in range(d):
                r[i + shift] -= lead * phi[i]
    return quo, r + [0] * (d - len(r))


def _poly_mod_phi(coeffs: list, k: int) -> list:
    return _phi_divmod(coeffs, k)[1]


class CycloElem(_Field):
    """An element of Q[t]/Phi_k(t): the exact value of t at a primitive
    k-th root of unity.  The coefficients (int or Fraction) are kept as the
    arithmetic leaves them."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        d = euler_phi(k)
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"residue vector must have length {d}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def zero(k: int) -> "CycloElem":
        return CycloElem(k, [0] * euler_phi(k))

    @staticmethod
    def one(k: int) -> "CycloElem":
        return CycloElem.from_fraction(1, k)

    @staticmethod
    def from_fraction(fr, k: int) -> "CycloElem":
        c = [0] * euler_phi(k)
        c[0] = fr
        return CycloElem(k, c)

    @staticmethod
    def from_poly(p: Poly, k: int) -> "CycloElem":
        """The residue of a polynomial in one variable, t or q (a polynomial
        in q alone is read as the same polynomial in t)."""
        var = "t"
        if not p.is_univariate_t():
            if p.deg_t():
                raise ValueError("polynomial must be univariate in t or in q")
            var = "q"
        return CycloElem(k, _poly_mod_phi(_dense_uni(p, var), k))

    def as_poly(self) -> Poly:
        """The residue as its polynomial in t, of degree < phi(k)."""
        return Poly({(0, i): c for i, c in enumerate(self.coeffs) if c})

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.k != self.k:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_fraction(other, self.k)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloElem(self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.k, [-a for a in self.coeffs])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the vector: no lift, no reduction
            return CycloElem(self.k, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return CycloElem(self.k, _poly_mod_phi(prod, self.k))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return _binary_power(self, n) if n else CycloElem.one(self.k)

    def inverse(self) -> "CycloElem":
        """Inverse modulo Phi_k via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")

        def poly_sub_scaled(a, b, factor, shift):
            # a fresh list, stripped: a - factor * t^shift * b
            out = a + [0] * (len(b) + shift - len(a))
            for i, c in enumerate(b):
                out[i + shift] -= factor * c
            return _strip_trailing(out)

        r0, r1 = list(_phi_dense(self.k)), _strip_trailing(list(self.coeffs))
        s0, s1 = [], [1]
        while r1:
            # full polynomial division r0 = q*r1 + r
            r, s = r0, s0
            while len(r) >= len(r1):
                shift = len(r) - len(r1)
                factor = _coeff_div(r[-1], r1[-1])
                r = poly_sub_scaled(r, r1, factor, shift)
                s = poly_sub_scaled(s, s1, factor, shift)
            r0, r1, s0, s1 = r1, r, s1, s
        # r0 is a nonzero constant gcd (Phi_k is irreducible over Q)
        g = r0[0]
        inv = [_coeff_div(c, g) for c in s0]
        return CycloElem(self.k, _poly_mod_phi(inv, self.k))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.k, self.coeffs))

    def as_fraction(self) -> Fraction:
        """Plain rational value; only for k <= 2 (t = 1 or t = -1)."""
        if len(self.coeffs) != 1:
            raise ValueError("not a rational cyclotomic element")
        return Fraction(self.coeffs[0])

    def render(self) -> str:
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        return f"({self.as_poly().render()}) mod Phi_{self.k}"

    def __repr__(self):
        return f"CycloElem({self.render()})"


def specialize_root_of_unity(f: RatFunc, k: int) -> CycloElem:
    """Exact value of a univariate-in-t rational function at a primitive k-th
    root of unity: ``Specialization.at_root(k).apply(f)``."""
    return Specialization.at_root(k).apply(f)


# ---------------------------------------------------------------------------
# coefficient-ring tags
# ---------------------------------------------------------------------------

class CoeffRing:
    """A coefficient field, named, with its zero.

    Ring values are plain Fraction / RatFunc / CycloElem objects (Poly for a
    numerator ring), zero exactly when falsy, and an int or Fraction adds
    to and multiplies each directly: a rational read from text enters the
    ring as ``zero + r``, through the value type's own coercion, and
    ``render`` shows every value.  So the symmetric function layer can stay
    generic.
    """

    def __init__(self, name, zero):
        self.name = name
        self.zero = zero

    @property
    def one(self):
        return self.zero + 1

    def __repr__(self):
        return f"CoeffRing({self.name})"


def render(value) -> str | None:
    """A ring value as text (see the rendering grammar); None stays None."""
    if value is None:
        return None
    if isinstance(value, (RatFunc, CycloElem)):
        return value.render()
    return str(value)


RING_Q = CoeffRing("Q", Fraction(0))
RING_QT = CoeffRing("Qt", RF_ZERO)
RING_QQT = CoeffRing("Qqt", RF_ZERO)


@lru_cache(maxsize=None)
def cyclo_ring(k: int) -> CoeffRing:
    return CoeffRing(f"C{k}", CycloElem.zero(k))


@dataclass(frozen=True)
class Specialization:
    """t = value, t = primitive k-th root of unity, or a (q,t) rational pair.

    A one-parameter specialization sets whichever of q and t occurs in the
    value: t, or q for a q-Whittaker value, which is in q alone.
    """

    kind: str  # "value" | "root" | "pair"
    value: Fraction | None = None
    root_order: int | None = None
    q_value: Fraction | None = None
    t_value: Fraction | None = None

    @staticmethod
    def at_value(v) -> "Specialization":
        return Specialization(kind="value", value=Fraction(v))

    @staticmethod
    def at_root(k: int) -> "Specialization":
        if k < 1:
            raise ValueError("root order must be positive")
        return Specialization(kind="root", root_order=k)

    @staticmethod
    def at_pair(q, t) -> "Specialization":
        return Specialization(kind="pair", q_value=Fraction(q), t_value=Fraction(t))

    @property
    def ring(self) -> CoeffRing:
        """The field of the specialized values: Q, or Q(zeta_k) at a root."""
        return cyclo_ring(self.root_order) if self.kind == "root" else RING_Q

    def evaluate(self, poly: Poly):
        """``poly`` at this point: a Fraction, or at a root of unity its
        residue.  A one-parameter point sets t, or q when ``poly`` is in q
        alone; a polynomial in both q and t raises ValueError there."""
        if self.kind == "root":
            return CycloElem.from_poly(poly, self.root_order)
        if self.kind == "value":
            try:
                return poly.value_at(t=self.value)
            except ValueError:  # q occurs: a value in q alone, else an error
                return poly.value_at(q=self.value)
        return poly.value_at(self.q_value, self.t_value)

    def apply(self, value):
        """``value`` specialized: a Fraction, or a CycloElem at a root of
        unity.  ``value`` is a RatFunc or a closed form kept as its key count
        (``deformed.KeyQuotient``); either gives its ``factors()``, and each
        factor is evaluated once and raised to its multiplicity once.  A
        zero scale is the value 0.  The denominator factors are evaluated
        first: one that vanishes raises ZeroDenominator (PoleAtRootOfUnity
        at a root), and only after them does a vanishing numerator factor
        give 0, before any product is taken."""
        scale, factors = value.factors()
        if not scale:
            return self.ring.zero
        points = []
        for poly, mult in sorted(factors, key=lambda factor: factor[1]):
            point = self.evaluate(poly)
            if not point:
                if mult > 0:
                    return self.ring.zero
                if self.kind == "root":
                    raise PoleAtRootOfUnity(
                        f"pole at a primitive {self.root_order}-th root of unity"
                    )
                raise ZeroDenominator("zero denominator")
            points.append((point, mult))
        top = bottom = None
        for point, mult in points:
            if abs(mult) != 1:
                point = point ** abs(mult)
            if mult > 0:
                top = point if top is None else top * point
            else:
                bottom = point if bottom is None else bottom * point
        top = scale * top
        return top if bottom is None else top / bottom
