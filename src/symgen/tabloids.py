"""Domino tabloids and their weight sums.

A domino tabloid of shape lambda and type mu fills each row of lambda with an
ordered sequence of horizontal dominoes whose lengths, over all rows, form
the multiset of parts of mu.  Its weight is the product of the lengths of the
leftmost domino in each row; w(shape, type) is the total weight over all
tabloids.

``w`` counts by dynamic programming over the rows left and the dominoes
left, memoized on the dominoes' multiplicity code (``partitions.code``:
slot p, bits 8p to 8p + 7, holds the number of dominoes of length p).
Removing a domino of length b subtracts 1 << 8b, and the distinct lengths
left are the nonzero bytes of the code.  A slot holds at most 255 dominoes;
a type with a part that occurs 256 times or more gets wider slots, whole
bytes each, so that ``w`` stays total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import Partition, code


class SizeMismatch(ValueError):
    """Shapes whose sizes disagree where equality is required."""


@dataclass(frozen=True)
class DominoTabloid:
    shape: Partition
    rows: tuple  # one tuple of domino lengths per row of the shape

    @property
    def weight(self) -> int:
        out = 1
        for row in self.rows:
            if row:
                out *= row[0]
        return out

    def render(self) -> str:
        body = "".join("[" + ",".join(str(d) for d in row) + "]" for row in self.rows)
        return f"{body} weight={self.weight}"


def _type_code(typ: Partition) -> tuple[int, int]:
    """(code, bits): the multiplicity code of the type with slots of ``bits``
    bits, 8 (``partitions.code``) unless a part occurs 256 times or more."""
    try:
        return code(typ), 8
    except ValueError:
        mult = typ.multiplicities()
        bits = 8 * (max(mult.values()).bit_length() // 8 + 1)
        return sum(m << bits * p for p, m in mult.items()), bits


def _per_slot(raw: bytes, bits: int) -> bytes:
    """The bytes ``raw`` of a code whose slots are ``bits`` > 8 bits wide,
    one byte per slot, nonzero if and only if the slot is."""
    size = bits >> 3
    return bytes(any(raw[i:i + size]) for i in range(0, len(raw), size))


@lru_cache(maxsize=None)
def _w_rows(rows: tuple, avail: int, bits: int) -> int:
    """The total weight of the tabloids filling ``rows`` with the dominoes of
    the code ``avail`` (slots of ``bits`` bits): the first domino of a row
    weighs its length."""
    if not rows:
        return 1 if not avail else 0
    top, rest, total = rows[0], rows[1:], 0
    slots = avail.to_bytes((avail.bit_length() + 7) >> 3, "little")
    if bits > 8:
        slots = _per_slot(slots, bits)
    for a in range(min(top, len(slots) - 1), 0, -1):
        if slots[a]:
            total += a * _w_fill(top - a, avail - (1 << bits * a), rest, bits)
    return total


@lru_cache(maxsize=None)
def _w_fill(rem: int, avail: int, rows: tuple, bits: int) -> int:
    """As ``_w_rows``, with ``rem`` cells of the current row still to fill."""
    if rem == 0:
        return _w_rows(rows, avail, bits)
    total = 0
    slots = avail.to_bytes((avail.bit_length() + 7) >> 3, "little")
    if bits > 8:
        slots = _per_slot(slots, bits)
    for b in range(min(rem, len(slots) - 1), 0, -1):
        if slots[b]:
            total += _w_fill(rem - b, avail - (1 << bits * b), rows, bits)
    return total


def w(shape, typ) -> int:
    """Total weight of all domino tabloids of the given shape and type.

    Computed by dynamic programming over (remaining rows, remaining
    dominoes as a multiplicity code) without materializing tabloids; the
    memo tables persist across calls.
    """
    shape, typ = Partition(shape), Partition(typ)
    if shape.size != typ.size:
        raise SizeMismatch(f"|{shape}| = {shape.size} != |{typ}| = {typ.size}")
    return _w_rows(tuple(shape), *_type_code(typ))


def enumerate_tabloids(shape, typ) -> list[DominoTabloid]:
    """All distinct domino tabloids, deterministically ordered (rows filled
    left to right, longer dominoes tried first at each choice point)."""
    shape, typ = Partition(shape), Partition(typ)
    if shape.size != typ.size:
        raise SizeMismatch(f"|{shape}| = {shape.size} != |{typ}| = {typ.size}")
    out: list[DominoTabloid] = []
    avail, bits = _type_code(typ)

    def fill_rows(row_idx: int, avail: int, done: tuple):
        if row_idx == len(shape):
            if not avail:
                out.append(DominoTabloid(shape, done))
            return
        fill_one(row_idx, shape[row_idx], avail, (), done)

    def fill_one(row_idx: int, rem: int, avail: int, row: tuple, done: tuple):
        if rem == 0:
            fill_rows(row_idx + 1, avail, done + (row,))
            return
        slots = avail.to_bytes((avail.bit_length() + 7) >> 3, "little")
        if bits > 8:
            slots = _per_slot(slots, bits)
        for d in range(min(rem, len(slots) - 1), 0, -1):
            if slots[d]:
                fill_one(row_idx, rem - d, avail - (1 << bits * d), row + (d,), done)

    fill_rows(0, avail, ())
    return out
