"""Per-degree generating-set criteria and whole-sequence verdicts.

A FamilySpec names a symmetric-function family, a coefficient ring and an
optional parameter specialization.  Everything that depends on the family
(its rings, parameter, element constructor, closed-form pairing and clause)
is one ``Family`` record in the ``FAMILIES`` table, and every specialization
goes through ``Specialization.apply``.  ``criterion`` answers, for one degree,
whether <u_n, p_n> is a unit of the ring, together with a structured reason
naming the clause that fired.  ``check_sequence`` aggregates a graded (skew)
partition sequence and also reports the exact inner-product value from the
closed-form evaluators, and requires each degree's criterion to agree with
the unit test of that value (``CriterionMismatch`` otherwise).

Reason rules (machine-readable, rendered as ``rule`` or ``rule:case``):

==================================== =======================================
monomial-generates                   monomial family over a field
single-column                        lambda = (1^n) (Z units, monomial)
refines-degree                       some parts of lambda sum to n
skew-monomial-unit:1..4              the four Z-unit shapes for skew m
first-part-reaches-degree            lambda_1 >= n (skew h/e over a field)
skew-complete-unit:1..3              the three Z-unit shapes for skew h/e
hook                                 lambda is a hook
ribbon                               lambda/mu is a ribbon
deformed-generic                     generic deformation parameter(s)
nonroot-parameter                    rational parameter, not a root of unity
root-multiplicity-balance:1|2        floor-condition match at a k-th root
                                     (case 1: k | n, case 2: k does not)
root-q-nonvanishing                  k does not divide n and k > l(lambda)-1
hook-and-nondividing                 hook and k does not divide n
first-part-at-most-root-order        lambda_1 <= k (Whittaker at a root)
parameters-multiplicatively-independent  no (i, j) != 0 with xi^i = eta^j
                                     (decided exactly)
specialized-value                    decided by exact evaluation
specialization-undefined             the specialized family member does not
                                     exist (denominator vanishes)
==================================== =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from .deformed import (
    big_schur,
    big_schur_pn_closed,
    big_schur_pn_keys,
    hl_P,
    hl_P_pn_closed,
    hl_P_pn_keys,
    hl_Q,
    hl_Q_pn_keys,
    mac_J,
    mac_J_pn_closed,
    mac_J_pn_keys,
    mac_P,
    mac_P_pn_closed,
    mac_P_pn_keys,
    whittaker,
    whittaker_pn_closed,
    whittaker_pn_keys,
)
from .exactalg import (
    RING_Q,
    RING_QQT,
    RING_QT,
    CoeffRing,
    CycloElem,
    RatFunc,
    Specialization,
    ZeroDenominator,
)
from .partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    is_hook,
    is_ribbon,
    refines,
    ribbon_height,
)
from .symfunc import hall_inner, skew, skew_monomial_pn_inner, sym

# ring name -> the field its values are computed in (Z values lie in Q)
RINGS = {"Q": RING_Q, "Z": RING_Q, "Qt": RING_QT, "Qqt": RING_QQT}


class UnsupportedCombination(ValueError):
    """A family/ring/specialization combination outside the engine's scope."""


class CriterionMismatch(ValueError):
    """A criterion that disagrees with the unit test of its own exact value."""


class GradingViolation(ValueError):
    """A sequence entry whose size does not match its degree."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Family:
    """Everything the engine needs to know about one family.

    ``deformation`` is "" for a classical family (over Q or Z), "t" for a
    one-parameter family (generic over Q(t), or over Q at a rational value or
    a root of unity of ``variable``) and "qt" for a Macdonald family (generic
    over Q(q,t), or over Q at a rational (q,t) pair).  ``element(lam, mu)``
    builds u_n and ``pairing(lam, mu, n)`` is the closed form of <u_n, p_n>,
    both unspecialized; ``clause(spec, lam, mu, n)`` is the per-degree
    criterion, None leaving it to the value.  A deformed family also has
    ``keys(lam, mu, n)``, its pairing kept as a ``KeyQuotient`` for a
    specialization to evaluate key by key.  Straight families get mu = EMPTY.
    """

    name: str
    skew: bool
    deformation: str
    element: Callable
    pairing: Callable
    clause: Callable
    variable: str = "t"
    keys: Callable | None = None

    @property
    def rings(self) -> tuple:
        """The ring names the family is treated over, the generic one first."""
        return {"": ("Q", "Z"), "t": ("Qt", "Q"), "qt": ("Qqt", "Q")}[self.deformation]


def family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UnsupportedCombination(f"unknown family {name!r}") from None


@dataclass(frozen=True)
class FamilySpec:
    family: str
    ring: str
    specialization: Specialization | None = None

    def __post_init__(self):
        fam, ring, spz = family(self.family), self.ring, self.specialization
        if ring not in fam.rings:
            raise UnsupportedCombination(f"family {fam.name} is not treated over {ring}")
        if not fam.deformation or ring != "Q":
            if spz is not None:
                raise UnsupportedCombination(
                    f"family {fam.name} over {ring} takes no specialization"
                )
        elif spz is None or (spz.kind == "pair") != (fam.deformation == "qt"):
            wanted = (
                "(q,t) pair" if fam.deformation == "qt" else f"{fam.variable}=value or root"
            )
            raise UnsupportedCombination(
                f"family {fam.name} over Q needs a {wanted} specialization"
            )

    @property
    def definition(self) -> Family:
        return FAMILIES[self.family]

    @property
    def is_skew(self) -> bool:
        return self.definition.skew

    @property
    def coeff_ring(self) -> CoeffRing:
        """The field the family's elements and values are computed in."""
        spz = self.specialization
        return RINGS[self.ring] if spz is None else spz.ring


@dataclass(frozen=True)
class Reason:
    rule: str
    case: int | None = None

    def code(self) -> str:
        return self.rule if self.case is None else f"{self.rule}:{self.case}"


@dataclass(frozen=True)
class PerDegree:
    n: int
    criterion: bool
    reason: Reason
    value: str | None


@dataclass(frozen=True)
class SeqVerdict:
    per_n: tuple
    overall: bool


# ---------------------------------------------------------------------------
# shape helpers for the Z classifications
# ---------------------------------------------------------------------------

def _ones(m: int) -> Partition:
    return Partition([1] * m)


def _rectangle(mu: Partition):
    """(a, b) when mu = (a^b) is a nonempty rectangle, else None."""
    if not mu:
        return None
    if all(p == mu[0] for p in mu):
        return mu[0], len(mu)
    return None


def _column_plus_rectangle(lam: Partition, n: int):
    """(c, d) when lam = (c^d) + (1^n) with c > 1 and exactly n ones."""
    ones = sum(1 for p in lam if p == 1)
    if ones != n:
        return None
    big = [p for p in lam if p > 1]
    if not big or any(p != big[0] for p in big):
        return None
    return big[0], len(big)


# ---------------------------------------------------------------------------
# per-family criteria
# ---------------------------------------------------------------------------

def _crit_monomial(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    if spec.ring == "Q":
        return True, Reason("monomial-generates")
    return lam == _ones(n), Reason("single-column")


def _crit_skew_monomial(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    if spec.ring == "Q":
        return refines(lam, n), Reason("refines-degree")
    m = mu.size
    if mu == _ones(m):
        if lam == _ones(m + n):
            return True, Reason("skew-monomial-unit", 1)
        cd = _column_plus_rectangle(lam, n)
        if cd is not None and cd[0] > n:
            return True, Reason("skew-monomial-unit", 2)
    rect = _rectangle(mu)
    if rect is not None:
        if lam == _ones(m + n):
            return True, Reason("skew-monomial-unit", 3)
        cd = _column_plus_rectangle(lam, n)
        if cd is not None and cd[0] > n and gcd(rect[0], cd[0]) == 1:
            return True, Reason("skew-monomial-unit", 4)
    return False, Reason("skew-monomial-unit")


def _crit_skew_complete(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    reaches = bool(lam) and lam[0] >= n
    if spec.ring == "Q":
        return reaches, Reason("first-part-reaches-degree")
    if not reaches:
        return False, Reason("first-part-reaches-degree")
    m = lam.size - n
    second = lam[1] if len(lam) > 1 else 0
    if len(mu) <= 1 and second < n:
        return True, Reason("skew-complete-unit", 1)
    if 0 < m < n and lam == Partition((n, m)):
        return True, Reason("skew-complete-unit", 2)
    if lam == Partition((n + m,)):
        return True, Reason("skew-complete-unit", 3)
    return False, Reason("skew-complete-unit")


def _crit_hook(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    return is_hook(lam), Reason("hook")


def _crit_ribbon(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    return is_ribbon(SkewPartition(lam, mu)), Reason("ribbon")


def _one_parameter(spec: FamilySpec, lam: Partition, at_root, away=None):
    """The clause of a one-parameter family: ``at_root(k)`` when the parameter
    is a primitive k-th root of unity (1 and -1 are the rational ones), the
    hook rule at 0, and ``away`` when the parameter is generic or another
    rational (by default true, as deformed-generic or nonroot-parameter)."""
    spz = spec.specialization
    if spz is None:
        return away or (True, Reason("deformed-generic"))
    k = spz.root_order if spz.kind == "root" else {1: 1, -1: 2}.get(spz.value)
    if k is not None:
        return at_root(k)
    if spz.value == 0:
        return is_hook(lam), Reason("hook")
    return away or (True, Reason("nonroot-parameter"))


def _crit_hl_P(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    return _one_parameter(spec, lam, lambda k: _floor_condition(lam, n, k))


def _floor_condition(lam: Partition, n: int, k: int):
    """Multiplicity balance at a primitive k-th root of unity for hl-P."""
    mult_sum = sum(m // k for m in lam.multiplicities().values())
    length = len(lam)
    if n % k == 0:
        ok = mult_sum == (length + k - 1) // k
        return ok, Reason("root-multiplicity-balance", 1)
    ok = mult_sum == (length - 1) // k
    return ok, Reason("root-multiplicity-balance", 2)


def _crit_hl_Q(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    # the strict form k > l(lambda)-1 (equivalently k >= l) is forced by the
    # factorization: phi_{l-1} vanishes at a k-th root as soon as l-1 >= k
    return _one_parameter(
        spec,
        lam,
        lambda k: (n % k != 0 and k > len(lam) - 1, Reason("root-q-nonvanishing")),
    )


def _crit_big_schur(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    hook = is_hook(lam)
    return _one_parameter(
        spec,
        lam,
        lambda k: (hook and n % k != 0, Reason("hook-and-nondividing")),
        away=(hook, Reason("hook")),
    )


def _crit_whittaker(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    head = lam[0] if lam else 0
    return _one_parameter(
        spec, lam, lambda k: (head <= k, Reason("first-part-at-most-root-order"))
    )


def _coprime_base(numbers) -> list[int]:
    """Pairwise coprime integers > 1 such that every positive integer in
    ``numbers`` is a product of their powers.

    Refinement by gcd splitting alone, no factoring: a pending x meeting a
    base element b with g = gcd(x, b) > 1 is replaced, with b, by g, x/g and
    b/g.  The product of all pending and base numbers falls at each split.
    (Bernstein, "Factoring into coprimes in essentially linear time",
    J. Algorithms 54 (2005), gives a faster refinement of the same output.)
    """
    base: list[int] = []
    pending = list(numbers)
    while pending:
        x = pending.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                pending += [g, x // g, b // g]
                break
        else:
            base.append(x)
    return base


def _exponents(x: Fraction, base: list[int]) -> list[int]:
    """Exponent vector of a positive rational over a coprime base of its
    numerator and denominator."""
    out = []
    for b in base:
        e, num, den = 0, x.numerator, x.denominator
        while num % b == 0:
            num //= b
            e += 1
        while den % b == 0:
            den //= b
            e -= 1
        out.append(e)
    return out


def _parameters_collide(q: Fraction, t: Fraction) -> bool:
    """Whether q^i = t^j for some integers (i, j) != (0, 0), decided exactly.

    With a zero parameter only 0^1 = 0^1 and 0^0 = (+-1)^2 collide.  Otherwise
    q^i = t^j implies |q|^i = |t|^j, which implies q^(2i) = t^(2j), so the
    question is whether the exponent vectors of |q| and |t| over a common
    coprime base are linearly dependent.
    """
    if q == 0 or t == 0:
        return q == t or abs(q) == 1 or abs(t) == 1
    q, t = abs(q), abs(t)
    base = _coprime_base([q.numerator, q.denominator, t.numerator, t.denominator])
    u, w = _exponents(q, base), _exponents(t, base)
    return all(
        u[a] * w[b] == u[b] * w[a] for a in range(len(base)) for b in range(a)
    )


def _crit_mac(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    spz = spec.specialization
    if spz is None:
        return True, Reason("deformed-generic")
    # t = +-1 collides (t^2 = q^0), so a free pair also keeps 1 - t^n nonzero
    if not _parameters_collide(spz.q_value, spz.t_value):
        return True, Reason("parameters-multiplicatively-independent")
    # no shape clause applies once the parameters collide; the closed form is
    # exactly evaluable at rational points, so the value decides
    return None


# ---------------------------------------------------------------------------
# exact inner-product values (unspecialized)
# ---------------------------------------------------------------------------

def _omega(pairing):
    """The pairing of the omega image: <omega u, p_n> = (-1)^(n-1) <u, p_n>."""
    return lambda lam, mu, n: (-1) ** (n - 1) * pairing(lam, mu, n)


def _skew_complete_pn_value(lam: Partition, mu: Partition, n: int) -> Fraction:
    """<h_lam, h_mu p_n> = <p_n^perp h_lam, h_mu>, paired in degree |mu|:
    p_n^perp is a derivation with p_n^perp h_k = h_(k-n) (zero for k < n)."""
    lowered = [sorted(lam[:i] + (part - n,) + lam[i + 1:], reverse=True)
               for i, part in enumerate(lam) if part >= n]
    return sum((hall_inner(sym("h", nu), sym("h", mu)) for nu in lowered), Fraction(0))


def _schur_pn_value(lam: Partition, mu: Partition, n: int) -> Fraction:
    if not is_hook(lam):
        return Fraction(0)
    return Fraction((-1) ** (n - lam[0]))


def _skew_schur_pn_value(lam: Partition, mu: Partition, n: int) -> Fraction:
    sp = SkewPartition(lam, mu)
    if not is_ribbon(sp):
        return Fraction(0)
    return Fraction((-1) ** ribbon_height(sp))


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

# The deformed closed forms and key counts are called through their
# module-level names, so that swapping a module attribute (as a tracer or a
# test does) reaches them.
FAMILIES = {fam.name: fam for fam in (
    Family("m", False, "", lambda lam, mu: sym("m", lam),
           skew_monomial_pn_inner, _crit_monomial),
    Family("f", False, "", lambda lam, mu: sym("f", lam),
           _omega(skew_monomial_pn_inner), _crit_monomial),
    Family("skew-m", True, "", lambda lam, mu: skew("m", lam, mu),
           skew_monomial_pn_inner, _crit_skew_monomial),
    Family("skew-f", True, "", lambda lam, mu: skew("f", lam, mu),
           _omega(skew_monomial_pn_inner), _crit_skew_monomial),
    Family("skew-h", True, "", lambda lam, mu: skew("h", lam, mu),
           _skew_complete_pn_value, _crit_skew_complete),
    Family("skew-e", True, "", lambda lam, mu: skew("e", lam, mu),
           _omega(_skew_complete_pn_value), _crit_skew_complete),
    Family("s", False, "", lambda lam, mu: sym("s", lam),
           _schur_pn_value, _crit_hook),
    Family("skew-s", True, "", lambda lam, mu: skew("s", lam, mu),
           _skew_schur_pn_value, _crit_ribbon),
    Family("hl-P", False, "t", lambda lam, mu: hl_P(lam),
           lambda lam, mu, n: hl_P_pn_closed(lam, n), _crit_hl_P,
           keys=lambda lam, mu, n: hl_P_pn_keys(lam, n)),
    Family("hl-Q", False, "t", lambda lam, mu: hl_Q(lam),
           lambda lam, mu, n: hl_Q_pn_keys(lam, n).expand(), _crit_hl_Q,
           keys=lambda lam, mu, n: hl_Q_pn_keys(lam, n)),
    Family("big-S", False, "t", lambda lam, mu: big_schur(lam),
           lambda lam, mu, n: big_schur_pn_closed(lam, n), _crit_big_schur,
           keys=lambda lam, mu, n: big_schur_pn_keys(lam, n)),
    Family("whittaker", False, "t", lambda lam, mu: whittaker(lam),
           lambda lam, mu, n: whittaker_pn_closed(lam, n), _crit_whittaker,
           variable="q", keys=lambda lam, mu, n: whittaker_pn_keys(lam, n)),
    Family("mac-P", False, "qt", lambda lam, mu: mac_P(lam),
           lambda lam, mu, n: mac_P_pn_closed(lam, n), _crit_mac,
           keys=lambda lam, mu, n: mac_P_pn_keys(lam, n)),
    Family("mac-J", False, "qt", lambda lam, mu: mac_J(lam),
           lambda lam, mu, n: mac_J_pn_closed(lam, n), _crit_mac,
           keys=lambda lam, mu, n: mac_J_pn_keys(lam, n)),
)}


# ---------------------------------------------------------------------------
# per-degree entry points
# ---------------------------------------------------------------------------

def _graded(spec: FamilySpec, lam, mu, n: int) -> tuple[Partition, Partition]:
    """(lam, mu) as partitions, checked to form a degree-n entry of the
    spec's family (``GradingViolation`` otherwise): n >= 1, |lam| = n for a
    straight family, which takes no inner shape, |lam| - |mu| = n for a skew
    one.  ``mu`` None is the empty inner shape."""
    if n < 1:
        raise GradingViolation(n, f"degree {n}: degrees start at 1")
    lam = Partition(lam)
    mu = Partition(mu) if mu is not None else EMPTY
    if mu and not spec.is_skew:
        raise GradingViolation(n, f"degree {n}: family {spec.family} takes no inner shape")
    if lam.size - mu.size != n:
        shape = f"|{lam}| - |{mu}|" if spec.is_skew else f"|{lam}|"
        raise GradingViolation(n, f"degree {n}: {shape} = {lam.size - mu.size} != {n}")
    return lam, mu


def criterion(spec: FamilySpec, lam, mu, n: int, evaluate=None):
    """The per-degree criterion with a structured reason (shapes as in
    ``_graded``); a clause that defers to the value gets it from ``evaluate``."""
    lam, mu = _graded(spec, lam, mu, n)
    decided = spec.definition.clause(spec, lam, mu, n)
    if decided is None:
        value = (evaluate or inner_value)(spec, lam, mu, n)
        if value is None:
            return False, Reason("specialization-undefined")
        return value != 0, Reason("specialized-value")
    return decided


def inner_value(spec: FamilySpec, lam, mu, n: int):
    """<u_n, p_n> for the family, exactly, under any specialization (None
    where the specialization leaves it undefined).

    Deformed families pair with the Hall form (the form in the generation
    lemma); for hl-Q that is (1 - t^n) times the t-form closed evaluator.
    A specialization evaluates the family's key count, never its expansion.
    """
    lam, mu = _graded(spec, lam, mu, n)
    fam, spz = spec.definition, spec.specialization
    if spz is None:
        return fam.pairing(lam, mu, n)
    try:
        return spz.apply(fam.keys(lam, mu, n), fam.variable)
    except ZeroDenominator:
        return None


def render_value(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, (RatFunc, CycloElem)):
        return value.render()
    return str(value)


def value_is_unit(spec: FamilySpec, value) -> bool:
    """Unit test of an exact value (int, Fraction, RatFunc or CycloElem) in
    the spec's ring; an undefined value (None) is no unit."""
    if spec.ring == "Z":
        return isinstance(value, (int, Fraction)) and abs(value) == 1
    return bool(value)


def checked_criterion(spec: FamilySpec, lam, mu, n: int):
    """(criterion, reason, value) at one degree, where the criterion must
    equal the unit test of the exact value (``CriterionMismatch`` if not)."""
    value = inner_value(spec, lam, mu, n)
    ok, reason = criterion(spec, lam, mu, n, lambda *_: value)
    if ok != value_is_unit(spec, value):
        raise CriterionMismatch(
            f"degree {n}: criterion {ok} ({reason.code()}) disagrees with "
            f"the value {render_value(value)}"
        )
    return ok, reason, value


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def check_sequence(spec: FamilySpec, seq) -> SeqVerdict:
    """Per-degree criteria and values for a graded (skew) partition sequence.

    ``seq`` lists (lam, mu-or-None) for n = 1..N; each entry must be graded
    as ``criterion`` requires (``GradingViolation`` names the first that
    is not).
    """
    per = []
    for n, (lam, mu) in enumerate(seq, start=1):
        ok, reason, value = checked_criterion(spec, lam, mu, n)
        per.append(PerDegree(n=n, criterion=ok, reason=reason, value=render_value(value)))
    return SeqVerdict(per_n=tuple(per), overall=all(entry.criterion for entry in per))


def parse_sequence_file(text: str):
    """Parse the sequence format: lines "n: [lam]" or "n: [lam]/[mu]",
    '#' comments, degrees consecutive from 1."""
    from .partitions import parse_partition

    entries = []
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'n: [lam]' or 'n: [lam]/[mu]'")
        head, body = line.split(":", 1)
        try:
            n = int(head.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad degree {head.strip()!r}") from exc
        if n != expected:
            raise ValueError(
                f"line {lineno}: degree {n} out of order (expected {expected})"
            )
        body = body.strip()
        if "/" in body:
            outer, inner = body.split("/", 1)
            entries.append((parse_partition(outer), parse_partition(inner)))
        else:
            entries.append((parse_partition(body), None))
        expected += 1
    if not entries:
        raise ValueError("empty sequence file")
    return entries


def verdict_records(spec: FamilySpec, verdict: SeqVerdict) -> list[dict]:
    """Flatten a SeqVerdict into CLI/golden-file records (fixed field order)."""
    records = []
    for entry in verdict.per_n:
        records.append(
            {
                "n": entry.n,
                "family": spec.family,
                "ring": spec.ring,
                "criterion": entry.criterion,
                "reason": entry.reason.code(),
                "value": entry.value,
            }
        )
    return records
