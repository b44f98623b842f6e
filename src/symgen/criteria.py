"""Per-degree generating-set criteria and whole-sequence verdicts.

A FamilySpec names a symmetric-function family, a coefficient ring and an
optional parameter specialization.  ``criterion`` answers, for one degree,
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

from .exactalg import (
    CycloElem,
    RatFunc,
    ZeroDenominator,
    specialize_root_of_unity,
)
from .deformed import (
    big_schur_pn_closed,
    hl_P_pn_closed,
    hl_Q_pn_closed,
    mac_J_pn_closed,
    mac_P_pn_closed,
    whittaker_pn_closed,
)
from .exactalg import P_ONE, Poly
from .partitions import (
    EMPTY,
    Partition,
    SkewPartition,
    is_hook,
    is_ribbon,
    refines,
    ribbon_height,
)
from .symfunc import hall_inner, multiply, skew_monomial_pn_inner, sym

FAMILIES = (
    "m", "f", "skew-m", "skew-f", "skew-h", "skew-e", "s", "skew-s",
    "hl-P", "hl-Q", "big-S", "whittaker", "mac-P", "mac-J",
)
SKEW_FAMILIES = ("skew-m", "skew-f", "skew-h", "skew-e", "skew-s")
CLASSICAL_FAMILIES = ("m", "f", "skew-m", "skew-f", "skew-h", "skew-e", "s", "skew-s")
T_FAMILIES = ("hl-P", "hl-Q", "big-S", "whittaker")
QT_FAMILIES = ("mac-P", "mac-J")
RINGS = ("Q", "Z", "Qt", "Qqt")


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
class Specialization:
    """t = value, t = primitive k-th root of unity, or a (q,t) rational pair.

    For the Whittaker family the single parameter is q, not t.
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

    def describe(self) -> str:
        if self.kind == "value":
            return f"t={self.value}"
        if self.kind == "root":
            return f"t=zeta_{self.root_order}"
        return f"q={self.q_value},t={self.t_value}"


@dataclass(frozen=True)
class FamilySpec:
    family: str
    ring: str
    specialization: Specialization | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedCombination(f"unknown family {self.family!r}")
        if self.ring not in RINGS:
            raise UnsupportedCombination(f"unknown ring {self.ring!r}")
        fam, ring, spz = self.family, self.ring, self.specialization
        if fam in CLASSICAL_FAMILIES:
            if ring not in ("Q", "Z") or spz is not None:
                raise UnsupportedCombination(
                    f"family {fam} is only treated over Q or Z, unspecialized"
                )
        elif fam in T_FAMILIES:
            if ring == "Qt":
                if spz is not None:
                    raise UnsupportedCombination(
                        "generic deformed families take no specialization"
                    )
            elif ring == "Q":
                if spz is None or spz.kind == "pair":
                    raise UnsupportedCombination(
                        f"family {fam} over Q needs a t=value or root specialization"
                    )
            else:
                raise UnsupportedCombination(f"family {fam} is not treated over {ring}")
        else:  # mac families
            if ring == "Qqt":
                if spz is not None:
                    raise UnsupportedCombination(
                        "generic Macdonald families take no specialization"
                    )
            elif ring == "Q":
                if spz is None or spz.kind != "pair":
                    raise UnsupportedCombination(
                        f"family {fam} over Q needs a (q,t) pair specialization"
                    )
            else:
                raise UnsupportedCombination(f"family {fam} is not treated over {ring}")

    @property
    def is_skew(self) -> bool:
        return self.family in SKEW_FAMILIES


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

def _crit_monomial(ring: str, lam: Partition, n: int):
    if ring == "Q":
        return True, Reason("monomial-generates")
    return lam == _ones(n), Reason("single-column")


def _crit_skew_monomial(ring: str, lam: Partition, mu: Partition, n: int):
    if ring == "Q":
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


def _crit_skew_complete(ring: str, lam: Partition, mu: Partition, n: int):
    reaches = bool(lam) and lam[0] >= n
    if ring == "Q":
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


def _is_rational_root_of_unity(x: Fraction):
    """Order k when x is a rational root of unity (1 or -1), else None."""
    if x == 1:
        return 1
    if x == -1:
        return 2
    return None


def _crit_hl_P(spec: FamilySpec, lam: Partition, n: int):
    spz = spec.specialization
    if spz is None:
        return True, Reason("deformed-generic")
    if spz.kind == "root":
        return _floor_condition(lam, n, spz.root_order)
    v = spz.value
    if v == 0:
        return is_hook(lam), Reason("hook")
    k = _is_rational_root_of_unity(v)
    if k is not None:
        return _floor_condition(lam, n, k)
    return True, Reason("nonroot-parameter")


def _floor_condition(lam: Partition, n: int, k: int):
    """Multiplicity balance at a primitive k-th root of unity for hl-P."""
    mult_sum = sum(m // k for m in lam.multiplicities().values())
    length = len(lam)
    if n % k == 0:
        ok = mult_sum == (length + k - 1) // k
        return ok, Reason("root-multiplicity-balance", 1)
    ok = mult_sum == (length - 1) // k
    return ok, Reason("root-multiplicity-balance", 2)


def _crit_hl_Q(spec: FamilySpec, lam: Partition, n: int):
    spz = spec.specialization
    if spz is None:
        return True, Reason("deformed-generic")
    if spz.kind == "root":
        k = spz.root_order
    else:
        v = spz.value
        if v == 0:
            return is_hook(lam), Reason("hook")
        k = _is_rational_root_of_unity(v)
        if k is None:
            return True, Reason("nonroot-parameter")
    # the strict form k > l(lambda)-1 (equivalently k >= l) is forced by the
    # factorization: phi_{l-1} vanishes at a k-th root as soon as l-1 >= k
    ok = n % k != 0 and k > len(lam) - 1
    return ok, Reason("root-q-nonvanishing")


def _crit_big_schur(spec: FamilySpec, lam: Partition, n: int):
    spz = spec.specialization
    hook = is_hook(lam)
    if spz is None:
        return hook, Reason("hook")
    if spz.kind == "root":
        k = spz.root_order
    else:
        v = spz.value
        k = _is_rational_root_of_unity(v)
        if k is None:
            return hook, Reason("hook")
    return hook and n % k != 0, Reason("hook-and-nondividing")


def _crit_whittaker(spec: FamilySpec, lam: Partition, n: int):
    spz = spec.specialization
    if spz is None:
        return True, Reason("deformed-generic")
    if spz.kind == "root":
        k = spz.root_order
    else:
        v = spz.value
        if v == 0:
            return is_hook(lam), Reason("hook")
        k = _is_rational_root_of_unity(v)
        if k is None:
            return True, Reason("nonroot-parameter")
    head = lam[0] if lam else 0
    return head <= k, Reason("first-part-at-most-root-order")


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


def _crit_mac(spec: FamilySpec, lam: Partition, n: int):
    spz = spec.specialization
    if spz is None:
        return True, Reason("deformed-generic")
    qv, tv = spz.q_value, spz.t_value
    # t = +-1 collides (t^2 = q^0), so a free pair also keeps 1 - t^n nonzero
    if not _parameters_collide(qv, tv):
        return True, Reason("parameters-multiplicatively-independent")
    # no shape clause applies once the parameters collide; the closed form is
    # exactly evaluable at rational points, so decide by evaluation
    closed = mac_P_pn_closed if spec.family == "mac-P" else mac_J_pn_closed
    try:
        value = closed(lam, n).subs(q=qv, t=tv).as_fraction()
    except ZeroDenominator:
        return False, Reason("specialization-undefined")
    return value != 0, Reason("specialized-value")


def criterion(spec: FamilySpec, lam, mu, n: int):
    """The per-degree criterion with a structured reason.

    ``mu`` is required (possibly empty) for skew families and must be None or
    empty for straight ones; shapes must be sized consistently with n.
    """
    lam = Partition(lam)
    mu = Partition(mu) if mu is not None else EMPTY
    if spec.is_skew:
        if lam.size - mu.size != n:
            raise GradingViolation(n, f"|{lam}| - |{mu}| != {n}")
    else:
        if mu:
            raise ValueError(f"family {spec.family} takes no inner shape")
        if lam.size != n:
            raise GradingViolation(n, f"|{lam}| != {n}")
    fam = spec.family
    if fam in ("m", "f"):
        return _crit_monomial(spec.ring, lam, n)
    if fam in ("skew-m", "skew-f"):
        return _crit_skew_monomial(spec.ring, lam, mu, n)
    if fam in ("skew-h", "skew-e"):
        return _crit_skew_complete(spec.ring, lam, mu, n)
    if fam == "s":
        return is_hook(lam), Reason("hook")
    if fam == "skew-s":
        return is_ribbon(SkewPartition(lam, mu)), Reason("ribbon")
    if fam == "hl-P":
        return _crit_hl_P(spec, lam, n)
    if fam == "hl-Q":
        return _crit_hl_Q(spec, lam, n)
    if fam == "big-S":
        return _crit_big_schur(spec, lam, n)
    if fam == "whittaker":
        return _crit_whittaker(spec, lam, n)
    return _crit_mac(spec, lam, n)


# ---------------------------------------------------------------------------
# exact inner-product values
# ---------------------------------------------------------------------------

def _schur_pn_value(lam: Partition, n: int) -> Fraction:
    if not is_hook(lam):
        return Fraction(0)
    return Fraction((-1) ** (n - lam[0]))


def _skew_schur_pn_value(lam: Partition, mu: Partition) -> Fraction:
    sp = SkewPartition(lam, mu)
    if not is_ribbon(sp):
        return Fraction(0)
    return Fraction((-1) ** ribbon_height(sp))


def _skew_complete_pn_value(lam: Partition, mu: Partition, n: int) -> Fraction:
    return hall_inner(
        sym("h", lam), multiply(sym("h", mu), sym("p", (n,)))
    )


def _specialize(spec: FamilySpec, closed: RatFunc, variable: str):
    """Apply the spec's specialization to one closed-form value."""
    spz = spec.specialization
    if spz is None:
        return closed
    if spz.kind == "root":
        f = closed.swap_vars() if variable == "q" else closed
        return specialize_root_of_unity(f, spz.root_order)
    if spz.kind == "value":
        kw = {variable: spz.value}
        return closed.subs(**kw).as_fraction()
    return closed.subs(q=spz.q_value, t=spz.t_value).as_fraction()


def inner_value(spec: FamilySpec, lam, mu, n: int):
    """<u_n, p_n> for the family, exactly, under any specialization.

    Deformed families pair with the Hall form (the form in the generation
    lemma); for hl-Q that is (1 - t^n) times the t-form closed evaluator.
    """
    lam = Partition(lam)
    mu = Partition(mu) if mu is not None else EMPTY
    fam = spec.family
    if fam == "m":
        return skew_monomial_pn_inner(lam, EMPTY, n)
    if fam == "f":
        return (-1) ** (n - 1) * skew_monomial_pn_inner(lam, EMPTY, n)
    if fam == "skew-m":
        return skew_monomial_pn_inner(lam, mu, n)
    if fam == "skew-f":
        return (-1) ** (n - 1) * skew_monomial_pn_inner(lam, mu, n)
    if fam == "skew-h":
        return _skew_complete_pn_value(lam, mu, n)
    if fam == "skew-e":
        return (-1) ** (n - 1) * _skew_complete_pn_value(lam, mu, n)
    if fam == "s":
        return _schur_pn_value(lam, n)
    if fam == "skew-s":
        return _skew_schur_pn_value(lam, mu)
    if fam == "hl-P":
        return _specialize(spec, hl_P_pn_closed(lam, n), "t")
    if fam == "hl-Q":
        hall = hl_Q_pn_closed(lam, n) * RatFunc.make(P_ONE - Poly.t(n))
        return _specialize(spec, hall, "t")
    if fam == "big-S":
        return _specialize(spec, big_schur_pn_closed(lam, n), "t")
    if fam == "whittaker":
        return _specialize(spec, whittaker_pn_closed(lam, n), "q")
    closed = mac_P_pn_closed(lam, n) if fam == "mac-P" else mac_J_pn_closed(lam, n)
    if spec.specialization is None:
        return closed
    try:
        return closed.subs(
            q=spec.specialization.q_value, t=spec.specialization.t_value
        ).as_fraction()
    except ZeroDenominator:
        return None


def render_value(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (RatFunc, CycloElem)):
        return value.render()
    return str(value)


def value_is_unit(spec: FamilySpec, value) -> bool | None:
    """Unit test of a computed value in the spec's ring (None: undecidable)."""
    if value is None:
        return False
    if spec.ring == "Z":
        return isinstance(value, Fraction) and abs(value) == 1
    if isinstance(value, Fraction):
        return value != 0
    if isinstance(value, RatFunc):
        return not value.is_zero()
    if isinstance(value, CycloElem):
        return not value.is_zero()
    return None


def checked_criterion(spec: FamilySpec, lam: Partition, mu: Partition, n: int):
    """(criterion, reason, value) at one degree, where the criterion must
    equal the unit test of the exact value (``CriterionMismatch`` if not)."""
    ok, reason = criterion(spec, lam, mu if spec.is_skew else None, n)
    value = inner_value(spec, lam, mu, n)
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

    ``seq`` lists (lam, mu-or-None) for n = 1..N; degree n entries must
    satisfy |lam| = n (straight) or |lam| - |mu| = n (skew).
    """
    per = []
    overall = True
    for i, (lam, mu) in enumerate(seq):
        n = i + 1
        lam = Partition(lam)
        mu = Partition(mu) if mu is not None else EMPTY
        if spec.is_skew:
            if lam.size - mu.size != n:
                raise GradingViolation(
                    n, f"entry {n}: |{lam}| - |{mu}| = {lam.size - mu.size} != {n}"
                )
        else:
            if mu:
                raise GradingViolation(
                    n, f"entry {n}: family {spec.family} takes no inner shape"
                )
            if lam.size != n:
                raise GradingViolation(n, f"entry {n}: |{lam}| = {lam.size} != {n}")
        ok, reason, value = checked_criterion(spec, lam, mu, n)
        per.append(PerDegree(n=n, criterion=ok, reason=reason, value=render_value(value)))
        overall = overall and ok
    return SeqVerdict(per_n=tuple(per), overall=overall)


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
