"""Finite closure operators: validated construction, exchange detection,
relativisation and restriction.

A closure operator is a total map on subsets satisfying reflexivity,
monotonicity and idempotence.  Finite character is automatic on a finite
ground set (it follows from monotonicity) and is reported as vacuous
rather than checked.  Operators whose exchange scan passes are wrapped
as Pregeometry; all dimension machinery requires that wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .lattice import GroundSet, SubsetCode, elements_of, format_mask

MaskLike = Union[int, SubsetCode]


def as_mask(value: MaskLike) -> int:
    return value.bits if isinstance(value, SubsetCode) else value


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

    def close(self, subset: MaskLike) -> int:
        return self.table[as_mask(subset)]

    def __call__(self, subset: MaskLike) -> int:
        return self.table[as_mask(subset)]

    def is_closed(self, subset: MaskLike) -> bool:
        m = as_mask(subset)
        return self.table[m] == m

    def closed_masks(self) -> list[int]:
        return [m for m in self.ground.masks() if self.table[m] == m]


@dataclass(frozen=True)
class Pregeometry:
    """A closure operator whose exchange scan passed."""

    op: ClosureOperator

    @property
    def ground(self) -> GroundSet:
        return self.op.ground

    def close(self, subset: MaskLike) -> int:
        return self.op.table[as_mask(subset)]


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
            seq[as_mask(mask)] = int(as_mask(closed))
        if any(v < 0 for v in seq):
            missing = next(m for m, v in enumerate(seq) if v < 0)
            raise LawViolation("Totality", (missing,))
    else:
        seq = [int(as_mask(v)) for v in table]
    return ClosureOperator(ground, _validate(ground, seq))


def from_spanner(
    ground: GroundSet, span: Callable[[int], int]
) -> ClosureOperator:
    """Closure as the least fixed point of a one-step generator map.

    span(A) must contain A; the fixed point is then reflexive and
    idempotent by construction, and validation catches non-monotone
    generators.
    """
    table = []
    for mask in ground.masks():
        cur = mask
        while True:
            nxt = span(cur)
            if cur & ~nxt:
                raise LawViolation("Reflexivity", (cur,))
            if nxt == cur:
                break
            cur = nxt
        table.append(cur)
    return ClosureOperator(ground, _validate(ground, table))


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


def relativize(op: ClosureOperator, base: MaskLike) -> ClosureOperator:
    """The operator A -> cl(A+B) on the same ground set."""
    b = as_mask(base)
    table = [op.table[mask | b] for mask in op.ground.masks()]
    return ClosureOperator(op.ground, _validate(op.ground, table))


def restrict(op: ClosureOperator, base: MaskLike) -> ClosureOperator:
    """The operator A -> cl(A) & B, relabeled onto a ground set of size |B|.

    Elements of B are renumbered in ascending order.
    """
    b = as_mask(base)
    elems = elements_of(b)
    small = GroundSet(len(elems))
    position = {e: i for i, e in enumerate(elems)}

    def down(mask: int) -> int:
        out = 0
        for e in elements_of(mask & b):
            out |= 1 << position[e]
        return out

    table = [0] * small.subset_count
    for sub_mask in small.masks():
        big = 0
        for i, e in enumerate(elems):
            if sub_mask >> i & 1:
                big |= 1 << e
        table[sub_mask] = down(op.table[big])
    return ClosureOperator(small, _validate(small, table))
