"""Ternary relations over subset triples and the relation transformers.

A relation carries two evaluation routes: a scalar predicate on masks
(the definitional route, kept as the test oracle) and a vectorized
builder, the only route to the full 2^(3n) truth table.  The two routes
are independent implementations and are cross-checked in the test
suite; all heavy scanning (axiom checks, table comparisons) runs on the
materialized table.  A transformer's predicate calls its base's
predicate, so the scalar route never reads a table, built or not.

Table layout: every truth table is a C-contiguous `bool` array indexed
[A, B, C], so the (B, C) plane of one A is one contiguous block.
Builders fill the table one such A row, or one block of A rows, at a
time from (B, C) planes of closures, dimensions or maxima computed once;
the axiom scans read it the same way.

Transformer stacks materialize their base relation once.  The
monotonisations copy that table and AND it along the C axis in n
passes, one per element, each masked by the (B, C) plane of the
elements of cl(B+C) outside C: a superset-AND zeta transform over the
intervals [C, cl(B+C)] (Bjorklund, Husfeldt, Kaski and Koivisto,
"Fourier meets Mobius: fast subset convolution", STOC 2007).  The
passes run on blocks of A rows that fit in cache, all n on one block
before the next; a pass shifts the block by 2^i cells into one buffer,
ORs in the mask and ANDs the buffer into the block, on machine words of
up to 8 cells.  The dimension relation `cl` runs on the same blocks:
one `np.take` of a single (B, C) index plane of B+C gathers dim(A/B+C)
for every A row of a block into the table's own bytes, which the
comparison with dim(A/C) then overwrites in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .closure import ClosureOperator, Pregeometry, trivial_closure
from .geometry import dim_table
from .lattice import GroundSet

# Default budget: 2^24 truth-table cells, i.e. ground size up to 8.
DEFAULT_TABLE_CAP_BITS = 1 << 24

#: cells in one block of A rows of the `cl` and monotonisation builders
#: (256 KB of bool cells), so n <= 6 is one block
_BUILD_BLOCK_CELLS = 1 << 18


class CapExceeded(Exception):
    """Materialization would exceed the configured memory budget."""


@dataclass
class TernaryRelation:
    """A predicate over (A, B, C) subset triples; C is the base set."""

    ground: GroundSet
    name: str
    fn: Callable[[int, int, int], bool]
    builder: Callable[[], np.ndarray]
    table: Optional[np.ndarray] = field(default=None, repr=False)
    #: the table packed over A and over B, each with its source (axioms._packed)
    packed: dict = field(default_factory=dict, repr=False, compare=False)


def check_table_budget(ground: GroundSet) -> None:
    """Raise CapExceeded when a truth table on `ground` would have more
    than DEFAULT_TABLE_CAP_BITS cells (ground size above 8)."""
    cells = ground.subset_count ** 3
    if cells > DEFAULT_TABLE_CAP_BITS:
        raise CapExceeded(
            f"truth table needs {cells} cells, cap is {DEFAULT_TABLE_CAP_BITS}")


def materialize(r: TernaryRelation) -> TernaryRelation:
    """Build the truth table once, after `check_table_budget`: the table
    is kept on `r`, which is returned, and every later call returns `r`
    as it is."""
    if r.table is None:
        check_table_budget(r.ground)
        r.table = r.builder()
    return r


def from_table(ground: GroundSet, name: str, table: np.ndarray) -> TernaryRelation:
    """Wrap an explicit truth table (used for enumerated/random relations)."""
    count = ground.subset_count
    if table.shape != (count, count, count):
        raise ValueError("table shape does not match the ground set")
    t = table.astype(bool, order="C")
    return TernaryRelation(
        ground, name, lambda a, b, c: bool(t[a, b, c]), lambda: t, t
    )


def random_relation(ground: GroundSet, seed: int) -> TernaryRelation:
    rng = np.random.default_rng(seed)
    count = ground.subset_count
    table = rng.random((count, count, count)) < 0.5
    return from_table(ground, f"rand{seed}", table)


# ---------------------------------------------------------------------------
# Built-in relations


def _block_rows(count: int) -> int:
    """A rows per block of `_BUILD_BLOCK_CELLS` cells (at least one)."""
    return min(count, max(1, _BUILD_BLOCK_CELLS // count**2))


def _masks(count: int) -> np.ndarray:
    """All subset masks, ascending, in the narrowest unsigned dtype."""
    return np.arange(count, dtype=np.min_scalar_type(count - 1))


def rel_intersection(ground: GroundSet) -> TernaryRelation:
    """(A, B, C) |-> A & B <= C."""

    def fn(a: int, b: int, c: int) -> bool:
        return a & b & ~c == 0

    def build() -> np.ndarray:
        count = ground.subset_count
        masks = _masks(count)
        off_base = masks[:, None] & ~masks[None, :]  # (B, C): B \ C
        table = np.empty((count, count, count), dtype=bool)
        for a in range(count):
            np.equal(off_base & a, 0, out=table[a])
        return table

    return TernaryRelation(ground, "int", fn, build)


def rel_a(op: ClosureOperator) -> TernaryRelation:
    """(A, B, C) |-> cl(A+C) & cl(B+C) == cl(C)."""
    cl = op.table

    def fn(a: int, b: int, c: int) -> bool:
        return cl[a | c] & cl[b | c] == cl[c]

    def build() -> np.ndarray:
        count = op.ground.subset_count
        masks = _masks(count)
        cl_arr = cl.astype(masks.dtype)
        joined = cl_arr[masks[:, None] | masks[None, :]]  # (B, C): cl(B+C)
        table = np.empty((count, count, count), dtype=bool)
        for a in range(count):
            np.equal(joined & joined[a], cl_arr, out=table[a])
        return table

    return TernaryRelation(op.ground, "a", fn, build)


def rel_cl(pg: Pregeometry) -> TernaryRelation:
    """(A, B, C) |-> dim(A/B+C) == dim(A/C).

    On a finite ground set the finite-subset quantifier in the definition
    collapses to A itself; the collapse is verified as a test property.
    """
    check_table_budget(pg.ground)  # refuse before the count^2 dim_table
    dims = dim_table(pg)  # (A, X): dim(A/X)

    def fn(a: int, b: int, c: int) -> bool:
        return dims[a, b | c] == dims[a, c]

    def build() -> np.ndarray:
        count = pg.ground.subset_count
        masks = np.arange(count)
        joined = masks[:, None] | masks[None, :]  # (B, C): B+C
        rows = _block_rows(count)
        table = np.empty((count, count, count), dtype=bool)
        # dim(A/B+C) for a block of A rows goes into the table's own
        # bytes (dims is int8), and the comparison with dim(A/C)
        # overwrites them as 0/1 bytes; with the same array as input and
        # output numpy needs no temporary, so no block buffer is held.
        # "clip" spares `take` a buffered bounds check: every index is in
        # range.
        cells = table.view(dims.dtype)
        for a in range(0, count, rows):
            block = cells[a:a + rows]
            np.take(dims[a:a + rows], joined, axis=1, out=block, mode="clip")
            np.equal(block, dims[a:a + rows, None, :], out=block,
                     casting="unsafe")
        return table

    return TernaryRelation(pg.ground, "cl", fn, build)


# ---------------------------------------------------------------------------
# Transformers


def _suffix(base: TernaryRelation, suffix: str) -> str:
    name = base.name
    if name == "a" or name.startswith(("a", "int", "st", "div", "rand")):
        return name + suffix
    return f"({name}){suffix}"


def monotonise_M(r: TernaryRelation, op: ClosureOperator) -> TernaryRelation:
    """Force right base monotonicity with respect to op:
    (A, B, C) |-> r(A, B, X) for all X with C <= X <= cl(B+C).

    The table builder relies on op being reflexive, monotone and
    idempotent, as every operator that `closure.from_table` returns is."""
    if op.ground != r.ground:
        raise ValueError("relation and operator live on different ground sets")
    cl = op.table

    def fn(a: int, b: int, c: int) -> bool:
        free = int(cl[b | c]) & ~c
        sub = free
        while True:
            if not r.fn(a, b, c | sub):
                return False
            if sub == 0:
                return True
            sub = (sub - 1) & free

    def build() -> np.ndarray:
        # Superset-AND along C, one pass per element i: a cell (A, B, C)
        # with i in cl(B+C) \ C ANDs in the cell (A, B, C+i).  Every X in
        # [C, cl(B+C)] has cl(B+X) = cl(B+C), so after the passes for the
        # elements below i + 1 a cell holds the AND over [C, C + (cl(B+C)
        # & those elements)], and after all n the AND over [C, cl(B+C)].
        # A pass reads only cells with bit i and writes only cells without
        # it, so each (A, B) row is its own problem: a block of A rows is
        # copied from the base and runs all n passes while it is in
        # cache.  Pass i copies the block 2^i cells down into `up`, so
        # that cell C + 2^i lies under C, ORs in keep_i and ANDs `up`
        # into the block, on words of up to 8 cells.  keep_i is 1
        # wherever C has bit i, so what lies under those cells (the next
        # row, or stale bytes at the block's end) never reaches a 0/1 cell.
        base = materialize(r).table
        t = np.empty(base.shape, dtype=bool)
        count = len(t)
        masks = _masks(count)
        free = cl.astype(masks.dtype)[masks[:, None] | masks[None, :]] & ~masks
        word = np.dtype(f"u{min(count, 8)}")
        keeps = [  # (B, C): 1 where i is not in free = cl(B+C) \ C
            (free >> i & 1 == 0).ravel().view(word)
            for i in range(count.bit_length() - 1)
        ]
        rows = _block_rows(count)
        up = np.ones(rows * count * count, dtype=bool)
        up_words = up.view(word).reshape(rows, -1)
        for a in range(0, count, rows):
            t[a:a + rows] = base[a:a + rows]
            block = t[a:a + rows].reshape(-1)
            words = block.view(word).reshape(rows, -1)
            for i, keep in enumerate(keeps):
                up[:-(1 << i)] = block[1 << i:]
                up_words |= keep
                words &= up_words
        return t

    return TernaryRelation(r.ground, _suffix(r, "M"), fn, build)


def monotonise_m(r: TernaryRelation) -> TernaryRelation:
    """Naive monotonisation: X ranges over C <= X <= B+C."""
    out = monotonise_M(r, trivial_closure(r.ground))
    out.name = _suffix(r, "m")
    return out


def closure_extend_c(r: TernaryRelation, op: ClosureOperator) -> TernaryRelation:
    """Force right closure: (A, B, C) |-> r(A, cl(B+C), C)."""
    if op.ground != r.ground:
        raise ValueError("relation and operator live on different ground sets")
    cl = op.table

    def fn(a: int, b: int, c: int) -> bool:
        return r.fn(a, int(cl[b | c]), c)

    def build() -> np.ndarray:
        base = materialize(r).table
        count = r.ground.subset_count
        masks = np.arange(count)
        # (B, C): flat index of (cl(B+C), C) in one A row
        cells = cl[masks[:, None] | masks[None, :]] * count + masks
        table = np.empty((count, count, count), dtype=bool)
        for a in range(count):
            np.take(base[a], cells, out=table[a], mode="clip")  # in range
        return table

    return TernaryRelation(r.ground, _suffix(r, "c"), fn, build)


def opposite(r: TernaryRelation) -> TernaryRelation:
    """Swap the two sides: (A, B, C) |-> r(B, A, C)."""

    def fn(a: int, b: int, c: int) -> bool:
        return r.fn(b, a, c)

    def build() -> np.ndarray:
        return materialize(r).table.transpose(1, 0, 2).copy()

    return TernaryRelation(r.ground, f"opp({r.name})", fn, build)


def rel_sup(ground: GroundSet) -> TernaryRelation:
    """(A, B, C) |-> max A <= max C or max B <= max C, with max {} = -inf.

    Closed-form description of the closure-meeting relation under the
    initial-segment operator; the agreement is verified in tests.
    """

    def top(mask: int) -> int:
        return mask.bit_length()  # order-preserving stand-in for max

    def fn(a: int, b: int, c: int) -> bool:
        return top(a) <= top(c) or top(b) <= top(c)

    def build() -> np.ndarray:
        tops = np.array([m.bit_length() for m in ground.masks()], dtype=np.int8)
        below = tops[:, None] <= tops[None, :]  # (X, C): top(X) <= top(C)
        table = np.empty((ground.subset_count,) * 3, dtype=bool)
        for a in range(ground.subset_count):
            np.bitwise_or(below, below[a], out=table[a])
        return table

    return TernaryRelation(ground, "sup", fn, build)
