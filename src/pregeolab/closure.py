"""Finite closure operators: validated construction and exchange detection.

A closure operator is a total map on subsets satisfying reflexivity,
monotonicity and idempotence.  Finite character is automatic on a finite
ground set (it follows from monotonicity) and is reported as vacuous
rather than checked.  Operators whose exchange scan passes are wrapped
as Pregeometry; all dimension machinery requires that wrapper.

The table is stored once, as a read-only `np.intp` array indexed by
mask.  Each law, and exchange, is a boolean violation array whose least
witness is its first true cell (`lattice.first_true`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .lattice import GroundSet, first_true, format_mask


class LawViolation(Exception):
    """A closure law failed on the given witness subsets."""

    def __init__(self, law: str, witness: tuple[int, ...]):
        self.law = law
        self.witness = witness
        pretty = ", ".join(format_mask(w) for w in witness)
        super().__init__(f"{law} violated at {pretty}")


@dataclass(frozen=True, eq=False)
class ClosureOperator:
    """A validated closure operator; table[mask] is the closure of mask,
    a read-only `np.intp` array.  Operators compare by identity."""

    ground: GroundSet
    table: np.ndarray


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


def _validate(ground: GroundSet, table: np.ndarray) -> np.ndarray:
    if len(table) != ground.subset_count:
        raise LawViolation("Totality", (len(table),))
    masks = np.arange(ground.subset_count)
    out_of_range = (table < 0) | (table > ground.full_mask)
    cl = np.where(out_of_range, 0, table).astype(np.intp)
    bad = first_true(out_of_range | (masks & ~cl != 0))
    if bad is not None:
        raise LawViolation("Range" if out_of_range[bad] else "Reflexivity", bad)
    # Single-element monotonicity implies the general law by chaining.
    up = masks[:, None] | 1 << np.arange(ground.size)  # (X, e): X + e
    bad = first_true(cl[:, None] & ~cl[up] != 0)
    if bad is not None:
        raise LawViolation("Monotonicity", (bad[0], int(up[bad])))
    bad = first_true(cl[cl] != cl)
    if bad is not None:
        raise LawViolation("Idempotence", bad)
    cl.flags.writeable = False
    return cl


def from_table(
    ground: GroundSet, table: Union[Sequence[int], Mapping[int, int]]
) -> ClosureOperator:
    """Build an operator from a total mask -> mask table, validating the
    laws; any integer sequence, numpy arrays included, is accepted."""
    if isinstance(table, Mapping):
        seq = [-1] * ground.subset_count
        for mask, closed in table.items():
            seq[mask] = int(closed)
        missing = first_true(np.array(seq) < 0)
        if missing is not None:
            raise LawViolation("Totality", missing)
        table = seq
    return ClosureOperator(ground, _validate(ground, np.asarray(table)))


@functools.cache
def trivial_closure(ground: GroundSet) -> ClosureOperator:
    """The identity operator cl(A) = A: one operator per ground set, built
    on first use and shared for the life of the process."""
    identity = np.arange(ground.subset_count)
    return ClosureOperator(ground, _validate(ground, identity))


def has_exchange(op: ClosureOperator) -> Union[Pregeometry, ExchangeFailure]:
    """Exchange scan; returns the least failing (A, a, b) as a value."""
    elems = np.arange(op.ground.size)
    has = op.table[:, None] >> elems & 1 == 1  # (X, e): e in cl(X)
    up = np.arange(len(has))[:, None] | 1 << elems  # (A, x): A + x
    grown = has[up]  # (A, x, e): e in cl(A+x)
    # (A, a, b): a outside cl(A), inside cl(A+b), and b outside cl(A+a)
    bad = first_true(~has[:, :, None] & grown.transpose(0, 2, 1) & ~grown)
    if bad is None:
        return Pregeometry(op)
    return ExchangeFailure(*bad)
