"""Finite closure operators: validated construction and exchange detection.

A closure operator is a total map on subsets satisfying reflexivity,
monotonicity and idempotence.  Finite character is automatic on a finite
ground set (it follows from monotonicity) and is reported as vacuous
rather than checked.  Operators whose exchange scan passes are wrapped
as Pregeometry; all dimension machinery requires that wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .lattice import GroundSet, format_mask


class LawViolation(Exception):
    """A closure law failed on the given witness subsets."""

    def __init__(self, law: str, witness: tuple[int, ...]):
        self.law = law
        self.witness = witness
        pretty = ", ".join(format_mask(w) for w in witness)
        super().__init__(f"{law} violated at {pretty}")


@dataclass(frozen=True)
class ClosureOperator:
    """A validated closure operator; table[mask] is the closure of mask."""

    ground: GroundSet
    table: tuple[int, ...]


@dataclass(frozen=True)
class Pregeometry:
    """A closure operator whose exchange scan passed."""

    op: ClosureOperator

    @property
    def ground(self) -> GroundSet:
        return self.op.ground


@dataclass(frozen=True)
class ExchangeFailure:
    """Least (A, a, b) with a in cl(A+b) \\ cl(A) but b not in cl(A+a)."""

    set_mask: int
    a: int
    b: int

    def __str__(self) -> str:
        return f"(A={format_mask(self.set_mask)}, a={self.a}, b={self.b})"


def _validate(ground: GroundSet, table: Sequence[int]) -> tuple[int, ...]:
    n = ground.size
    count = ground.subset_count
    if len(table) != count:
        raise LawViolation("Totality", (len(table),))
    for mask in range(count):
        closed = table[mask]
        if not 0 <= closed <= ground.full_mask:
            raise LawViolation("Range", (mask,))
        if mask & ~closed:
            raise LawViolation("Reflexivity", (mask,))
    # Single-element monotonicity implies the general law by chaining.
    for mask in range(count):
        for e in range(n):
            up = mask | 1 << e
            if table[mask] & ~table[up]:
                raise LawViolation("Monotonicity", (mask, up))
    for mask in range(count):
        if table[table[mask]] != table[mask]:
            raise LawViolation("Idempotence", (mask,))
    return tuple(table)


def from_table(
    ground: GroundSet, table: Union[Sequence[int], Mapping[int, int]]
) -> ClosureOperator:
    """Build an operator from a total mask -> mask table, validating the laws.

    Entries are stored as Python ints, so numpy integers are accepted."""
    if isinstance(table, Mapping):
        seq = [-1] * ground.subset_count
        for mask, closed in table.items():
            seq[mask] = int(closed)
        if any(v < 0 for v in seq):
            missing = next(m for m, v in enumerate(seq) if v < 0)
            raise LawViolation("Totality", (missing,))
    else:
        seq = [int(v) for v in table]
    return ClosureOperator(ground, _validate(ground, seq))


def trivial_closure(ground: GroundSet) -> ClosureOperator:
    """The identity operator cl(A) = A."""
    return ClosureOperator(ground, tuple(ground.masks()))


def has_exchange(op: ClosureOperator) -> Union[Pregeometry, ExchangeFailure]:
    """Exchange scan; returns the least failing (A, a, b) as a value."""
    n = op.ground.size
    table = op.table
    for mask in op.ground.masks():
        closed = table[mask]
        for a in range(n):
            bit_a = 1 << a
            if closed & bit_a:
                continue
            with_a = table[mask | bit_a]
            for b in range(n):
                bit_b = 1 << b
                if table[mask | bit_b] & bit_a and not with_a & bit_b:
                    return ExchangeFailure(mask, a, b)
    return Pregeometry(op)
