"""Integer partitions, skew partitions, their statistics and predicates.

Partitions are immutable tuples of weakly decreasing positive integers and
serve as the index type for everything else in the package.  The text format
is ``[3,1,1]`` (empty: ``[]``), skew pairs render as ``[3,1]/[1]``.

The power-sum side (``symfunc``'s p -> m columns and products, ``oracle``'s
coordinates) indexes a partition by one integer instead, its multiplicity
code sum_p m_p(lam) 2^(8p) (``code``, ``decode``): slot p, bits 8p to 8p + 7,
holds the number of parts equal to p.  The union of two part multisets is
the sum of their codes, and raising one part s to s + r moves one count from
slot s to slot s + r.  A slot holds 0..255: ``code`` refuses a part that
occurs 256 times or more, and ``refuse_carry`` a sum of codes that would
carry into the next slot, each with ValueError.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_


class NotARibbon(ValueError):
    """Raised by ribbon_height when the skew shape is not a ribbon."""


class Partition(tuple):
    """A weakly decreasing tuple of positive integers (trailing zeros dropped).

    Parts from outside (a tuple, a list, a generator) are validated; a
    Partition is already valid and is returned as it is.
    """

    def __new__(cls, parts=()):
        if type(parts) is Partition:
            return parts
        parts = tuple(map(int, parts))
        for i, p in enumerate(parts):
            if p < 0:
                raise ValueError(f"negative part in partition: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and not parts[-1]:
            parts = parts[:parts.index(0)]
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return EMPTY
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __repr__(self):
        return f"Partition({tuple(self)})"

    def __str__(self):
        return format_partition(self)


EMPTY = Partition()


@dataclass(frozen=True)
class SkewPartition:
    """A pair outer/inner; containment is *not* required."""

    outer: Partition
    inner: Partition

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def __str__(self):
        return f"{format_partition(self.outer)}/{format_partition(self.inner)}"


@dataclass(frozen=True)
class PartitionStats:
    """The classical statistics of one partition."""

    z: int
    eps: int
    n_lambda: int
    n_lambda_conj: int
    length: int
    mult: dict


def format_partition(lam) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def parse_partition(text: str) -> Partition:
    """Parse "[3,1,1]" (whitespace tolerated) or a bare "3,1,1" / "" form."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return EMPTY
    return Partition(int(tok) for tok in s.split(","))


def parse_skew(text: str) -> SkewPartition:
    """Parse "[3,1]/[1]"; a missing "/[...]" part means an empty inner shape."""
    if "/" in text:
        outer, inner = text.split("/", 1)
        return SkewPartition(parse_partition(outer), parse_partition(inner))
    return SkewPartition(parse_partition(text), EMPTY)


@lru_cache(maxsize=None)
def _partitions_bounded(n: int, max_part: int) -> tuple[Partition, ...]:
    """The partitions of n with parts at most max_part, each built as a
    Partition without validation: its parts decrease by construction."""
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            out.append(tuple.__new__(Partition, (first,) + rest))
    return tuple(out)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order: (n) first, (1^n) last."""
    if n < 0:
        return ()
    return _partitions_bounded(n, n if n else 1)


def stats(lam: Partition) -> PartitionStats:
    lam = Partition(lam)
    mult = lam.multiplicities()
    z = z_of(lam)
    n_lam = sum(i * p for i, p in enumerate(lam))
    n_conj = sum(p * (p - 1) // 2 for p in lam)
    return PartitionStats(
        z=z,
        eps=(-1) ** (lam.size - len(lam)),
        n_lambda=n_lam,
        n_lambda_conj=n_conj,
        length=len(lam),
        mult=mult,
    )


def eps_of(lam) -> int:
    lam = tuple(lam)
    return (-1) ** (sum(lam) - len(lam))


def z_of(lam) -> int:
    """z_lam = prod_p p^m_p m_p! for a partition (equal parts adjacent): the
    i-th copy of a part p contributes p * i, in one pass."""
    z, previous, copies = 1, 0, 0
    for part in lam:
        copies = copies + 1 if part == previous else 1
        previous = part
        z *= part * copies
    return z


def refines(lam: Partition, k: int) -> bool:
    """True iff some sub-multiset of lam's parts sums to exactly k.

    Bitset subset-sum: bit j of ``reach`` is set when j is a reachable sum.
    """
    if k < 0:
        return False
    reach = 1
    for p in lam:
        reach |= reach << p
    return bool((reach >> k) & 1)


def is_hook(lam: Partition) -> bool:
    """True iff at most one part exceeds 1 (the empty partition is not a hook)."""
    lam = tuple(lam)
    return bool(lam) and (len(lam) < 2 or lam[1] <= 1)


def is_rectangular(lam: Partition) -> bool:
    lam = tuple(lam)
    return bool(lam) and all(p == lam[0] for p in lam)


def union(lam, mu) -> Partition:
    """Merge the part multisets and re-sort weakly decreasing.  The parts of
    two partitions are positive integers, so their merge is built as a
    Partition without validating it again."""
    return tuple.__new__(Partition, sorted((*lam, *mu), reverse=True))


# the largest count one 8-bit slot of a code holds
SLOT_MAX = 255


def code(parts) -> int:
    """The multiplicity code sum_p m_p 2^(8p) of a partition's parts (see
    the module docstring); ValueError for a part that occurs 256 times or
    more, which would carry into the next slot."""
    if len(parts) > SLOT_MAX and max(Counter(parts).values()) > SLOT_MAX:
        raise ValueError(f"a part occurs more than {SLOT_MAX} times: no multiplicity code")
    out = 0
    for part in parts:
        out += 1 << (part << 3)  # one count in slot part, at bit 8 * part
    return out


def _slots(c: int) -> bytes:
    """The slots of a code, slot p at index p."""
    return c.to_bytes((c.bit_length() + 7) >> 3, "little")


def decode(c: int) -> Partition:
    """The partition of a multiplicity code (``code``), parts decreasing."""
    parts: list = []
    for part, copies in reversed(tuple(enumerate(_slots(c)))):
        parts += [part] * copies
    return tuple.__new__(Partition, parts)


def refuse_carry(left, right) -> None:
    """ValueError if a code of ``left`` plus one of ``right`` would take
    some multiplicity past 255, so that their sum carries into the next
    slot.  Each slot of the bitwise or of all the codes bounds that slot of
    every code, so when every slot of the or is below 128 (its bytes are
    ASCII) no two slots add to 256; otherwise each pair is checked."""
    if _slots(reduce(or_, left, 0) | reduce(or_, right, 0)).isascii():
        return
    for a in left:
        for b in right:
            if any(x + y > SLOT_MAX for x, y in zip(_slots(a), _slots(b))):
                raise ValueError(
                    f"a part of {decode(a)} u {decode(b)} occurs more than {SLOT_MAX} times"
                )


def difference(lam, mu) -> Partition | None:
    """Remove mu's parts from lam's part multiset, the inverse of ``union``;
    None when mu's parts are not a sub-multiset of lam's."""
    rest = list(lam)
    for part in mu:
        if part not in rest:
            return None
        rest.remove(part)
    return Partition(rest)


def contains(mu, lam) -> bool:
    """True iff the diagram of mu fits inside the diagram of lam."""
    mu, lam = tuple(mu), tuple(lam)
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def skew_cells(sp: SkewPartition) -> tuple[tuple[int, int], ...]:
    """Cells (row, col), 1-based, of outer/inner; requires containment."""
    outer, inner = sp.outer, sp.inner
    cells = []
    for i, row in enumerate(outer, start=1):
        lo = inner[i - 1] if i - 1 < len(inner) else 0
        for j in range(lo + 1, row + 1):
            cells.append((i, j))
    return tuple(cells)


def is_ribbon(sp: SkewPartition) -> bool:
    """Edgewise connected skew shape with no 2x2 block of cells.

    Pairs without containment (legal data in this package) are never ribbons.
    """
    if not contains(sp.inner, sp.outer):
        return False
    cells = set(skew_cells(sp))
    if not cells:
        return False
    for (i, j) in cells:
        if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= cells:
            return False
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    return len(seen) == len(cells)


def ribbon_height(sp: SkewPartition) -> int:
    """Number of occupied rows minus one; only defined for ribbons."""
    if not is_ribbon(sp):
        raise NotARibbon(f"{sp} is not a ribbon")
    return len({i for i, _ in skew_cells(sp)}) - 1


def column_separated(sp: SkewPartition) -> bool:
    """True iff some empty column has cells of the shape on both sides."""
    if not contains(sp.inner, sp.outer):
        raise ValueError("column_separated requires inner contained in outer")
    cols = {j for _, j in skew_cells(sp)}
    if not cols:
        return False
    return any(j not in cols for j in range(min(cols), max(cols) + 1))


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence; independent of partitions_of."""
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts[m] = total
    return counts[n]


def z_reciprocal_sum(n: int) -> Fraction:
    """sum over lam |- n of 1/z_lam (equals 1 for every n >= 0)."""
    return sum((Fraction(1, z_of(lam)) for lam in partitions_of(n)), Fraction(0))
