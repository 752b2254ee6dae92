"""Ternary relations over subset triples and the relation transformers.

A relation carries two evaluation routes: a scalar predicate on masks
(the definitional route, which `axioms.evaluate_axiom_body` reads) and
a vectorized builder, the only route to the rows and the 2^(3n) truth
table.  The two routes are independent implementations and are
cross-checked in the test suite, among other ways through one axiom
body evaluated on each; all heavy scanning (axiom checks, table
comparisons) runs on what the builder made.  A transformer's predicate
calls its base's predicate, so the scalar route never reads a table,
built or not.

Table layout: every truth table is a C-contiguous `bool` array indexed
[A, B, C], so the (B, C) plane of one A is one contiguous block.
Builders fill the table one such A row, or one block of A rows, at a
time from (B, C) planes of closures, dimensions or maxima computed once;
the axiom scans read it the same way.

Rows: a relation's one stored form is what its builder makes, built
once and kept read-only as `rows` (`built_rows`).  `a` and `cl` see A
only through cl(A).  For any closure cl(A+C) = cl(cl(A)+C), and in a
pregeometry dim(A/X) = dim(cl(A)/X).  So their builders make one A row
per closed set, k of them (9 of 256 on gebert8), with `classes` mapping
each A to the row of cl(A).  `sup` sees A only through max(A), so it
makes n + 1 rows.  M, m and c act on each A row alone, so they keep
their base's `classes` and build their rows from the base's rows, never
from its table.  `opposite` stores nothing: it keeps its base as
`opposite_of`, and the scans read its base's layouts and cells with A
and B swapped.  Every other relation, and `a` or `cl` under a closure
whose every set is closed, has `classes = None`, and its rows are the
whole table.  The table derives from the rows: `materialize` takes the
class rows by `classes` with one `take`, or uses the rows themselves,
and an opposite's builder transposes its base's table.  No scan or
comparison of `axioms` calls it: both packed layouts and every cell the
scans read come from the rows, so no relation builds its 2^(3n) table
unless a caller asks for it.

Transformer stacks build their base's rows once.  The monotonisations
copy those rows and AND them along the C axis in n passes, one per
element, each masked by the (B, C) plane of the elements of cl(B+C)
outside C: a superset-AND zeta transform over the intervals
[C, cl(B+C)] (Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets
Mobius: fast subset convolution", STOC 2007).  The passes run on blocks
of rows that fit in cache, all n on one block before the next; a pass
shifts the block by 2^i cells into one buffer, ORs in the mask and ANDs
the buffer into the block, on machine words of up to 8 cells.  The
dimension relation `cl` runs on the same blocks: its k x 2^n array of
dim(A/X) = rank(A+X) - rank(X), for the closed A, comes from the 2^n
ranks of `geometry.rank_vector`, never from `dim_table`, and one
`np.take` of a single (B, C) index plane of B+C gathers dim(A/B+C) for
every row of a block into the rows' own bytes, which the comparison with
dim(A/C) then overwrites in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .closure import ClosureOperator, Pregeometry, trivial_closure
from .geometry import dim_table, rank_vector
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
    #: axis -> the table packed over that axis, read-only (axioms._packed)
    packed: dict = field(default_factory=dict, repr=False, compare=False)
    #: A -> its row, when the builder makes one A row per class of A
    #: (per closed set cl(A), or per max(A)); None when it makes them all
    classes: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: the builder's rows, read-only: [k, B, C], one per class, when
    #: `classes` is set, and the whole table otherwise
    rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: r, when this relation is opposite(r): it stores no rows of its own
    opposite_of: Optional[TernaryRelation] = None


def check_table_budget(ground: GroundSet) -> None:
    """Raise CapExceeded when a truth table on `ground` would have more
    than DEFAULT_TABLE_CAP_BITS cells (ground size above 8)."""
    cells = ground.subset_count ** 3
    if cells > DEFAULT_TABLE_CAP_BITS:
        raise CapExceeded(
            f"truth table needs {cells} cells, cap is {DEFAULT_TABLE_CAP_BITS}")


def built_rows(r: TernaryRelation) -> np.ndarray:
    """The A rows r's builder makes, built once after `check_table_budget`,
    kept read-only as `r.rows` and returned: one row per closed set when
    `r.classes` is set, and the whole table otherwise."""
    if r.rows is None:
        check_table_budget(r.ground)
        r.rows = r.builder()
        r.rows.flags.writeable = False
    return r.rows


def materialize(r: TernaryRelation) -> TernaryRelation:
    """Derive the truth table from `built_rows` once, read-only: the rows
    themselves, or the class rows taken by `r.classes`.  The table is kept
    on `r`, which is returned, and every later call returns `r` as it is."""
    if r.table is None:
        rows = built_rows(r)
        # no out=: "take" into it buffers, 11 against 0.9 ms at n = 8
        r.table = rows if r.classes is None else rows.take(r.classes, axis=0)
        r.table.flags.writeable = False
    return r


def from_table(ground: GroundSet, name: str, table: np.ndarray) -> TernaryRelation:
    """Wrap a read-only copy of an explicit truth table (used for
    enumerated/random relations) as both its rows and its table."""
    count = ground.subset_count
    if table.shape != (count, count, count):
        raise ValueError("table shape does not match the ground set")
    t = table.astype(bool, order="C")
    t.flags.writeable = False
    return TernaryRelation(
        ground, name, lambda a, b, c: bool(t[a, b, c]), lambda: t, t, rows=t
    )


def random_relation(ground: GroundSet, seed: int) -> TernaryRelation:
    rng = np.random.default_rng(seed)
    count = ground.subset_count
    step = _block_rows(count)
    # the numbers of one draw of count^3 floats, in blocks of A rows, so
    # that no float array has the table's size (128 MB at n = 8)
    table = np.concatenate([rng.random((step, count, count)) < 0.5
                            for _ in range(0, count, step)])
    return from_table(ground, f"rand{seed}", table)


# ---------------------------------------------------------------------------
# Built-in relations


def _block_rows(count: int) -> int:
    """A rows per block of `_BUILD_BLOCK_CELLS` cells (at least one)."""
    return min(count, max(1, _BUILD_BLOCK_CELLS // count**2))


def _masks(count: int) -> np.ndarray:
    """All subset masks, ascending, in the narrowest unsigned dtype."""
    return np.arange(count, dtype=np.min_scalar_type(count - 1))


def _classes(op: ClosureOperator) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The closed sets of op, ascending, and A -> the index of cl(A) among
    them; None for the index when every set is closed."""
    closed = np.flatnonzero(op.table == np.arange(len(op.table)))
    if len(closed) == len(op.table):
        return closed, None
    return closed, np.searchsorted(closed, op.table)


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
    closed, classes = _classes(op)

    def fn(a: int, b: int, c: int) -> bool:
        return cl[a | c] & cl[b | c] == cl[c]

    def build() -> np.ndarray:
        count = op.ground.subset_count
        masks = _masks(count)
        cl_arr = cl.astype(masks.dtype)
        joined = cl_arr[masks[:, None] | masks[None, :]]  # (B, C): cl(B+C)
        rows = np.empty((len(closed), count, count), dtype=bool)
        for row, a in zip(rows, closed):
            np.equal(joined & joined[a], cl_arr, out=row)
        return rows

    return TernaryRelation(op.ground, "a", fn, build, classes=classes)


def rel_cl(pg: Pregeometry) -> TernaryRelation:
    """(A, B, C) |-> dim(A/B+C) == dim(A/C).

    On a finite ground set the finite-subset quantifier in the definition
    collapses to A itself; the collapse is verified as a test property.
    """
    # the rows have 2^(3n) cells at most: refuse an instance over budget
    # before any work, as every other relation is refused at build time
    check_table_budget(pg.ground)
    closed, classes = _classes(pg.op)
    dims = None

    def fn(a: int, b: int, c: int) -> bool:
        nonlocal dims
        if dims is None:  # the definition, through `dim_table`
            dims = dim_table(pg)  # (A, X): dim(A/X)
        return dims[a, b | c] == dims[a, c]

    def build() -> np.ndarray:
        count = pg.ground.subset_count
        masks = np.arange(count)
        joined = masks[:, None] | masks[None, :]  # (B, C): B+C
        # [closed A, X]: dim(A/X) = rank(A+X) - rank(X) in a pregeometry
        rank = rank_vector(pg)
        over = rank[closed[:, None] | masks] - rank
        step = _block_rows(count)
        rows = np.empty((len(closed), count, count), dtype=bool)
        # dim(A/B+C) for a block of closed A goes into the rows' own
        # bytes (`over` is int8), and the comparison with dim(A/C)
        # overwrites them as 0/1 bytes; with the same array as input and
        # output numpy needs no temporary, so no block buffer is held.
        # "clip" spares `take` a buffered bounds check: every index is in
        # range.
        cells = rows.view(over.dtype)
        for lo in range(0, len(closed), step):
            block, a = cells[lo:lo + step], over[lo:lo + step]
            np.take(a, joined, axis=1, out=block, mode="clip")
            np.equal(block, a[:, None, :], out=block, casting="unsafe")
        return rows

    return TernaryRelation(pg.ground, "cl", fn, build, classes=classes)


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
        # it, so each (A, B) row is its own problem: a block of the base's
        # rows is copied and runs all n passes while it is in cache.  Pass
        # i copies the block 2^i cells down into `up`, so that cell
        # C + 2^i lies under C, ORs in keep_i and ANDs `up` into the
        # block, on words of up to 8 cells.  keep_i is 1 wherever C has
        # bit i, so what lies under those cells (the next row, or stale
        # bytes at the block's end) never reaches a 0/1 cell.
        base = built_rows(r)
        t = np.empty(base.shape, dtype=bool)
        count = r.ground.subset_count
        masks = _masks(count)
        free = cl.astype(masks.dtype)[masks[:, None] | masks[None, :]] & ~masks
        word = np.dtype(f"u{min(count, 8)}")
        keeps = [  # (B, C): 1 where i is not in free = cl(B+C) \ C
            (free >> i & 1 == 0).ravel().view(word)
            for i in range(count.bit_length() - 1)
        ]
        rows = _block_rows(count)
        up = np.ones(rows * count * count, dtype=bool)
        for a in range(0, len(t), rows):  # the last block may be short
            block = t[a:a + rows]
            block[...] = base[a:a + rows]
            cells = block.reshape(-1)
            words = cells.view(word).reshape(len(block), -1)
            shifted = up[:len(cells)]
            shifted_words = shifted.view(word).reshape(words.shape)
            for i, keep in enumerate(keeps):
                shifted[:-(1 << i)] = cells[1 << i:]
                shifted_words |= keep
                words &= shifted_words
        return t

    return TernaryRelation(r.ground, _suffix(r, "M"), fn, build,
                           classes=r.classes)


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
        base = built_rows(r)
        count = r.ground.subset_count
        masks = np.arange(count)
        # (B, C): flat index of (cl(B+C), C) in one A row
        cells = cl[masks[:, None] | masks[None, :]] * count + masks
        table = np.empty(base.shape, dtype=bool)
        for a in range(len(base)):
            np.take(base[a], cells, out=table[a], mode="clip")  # in range
        return table

    return TernaryRelation(r.ground, _suffix(r, "c"), fn, build,
                           classes=r.classes)


def opposite(r: TernaryRelation) -> TernaryRelation:
    """Swap the two sides: (A, B, C) |-> r(B, A, C).  The scans read r's
    layouts and cells swapped (`axioms._packed`, `axioms._holds`), so only
    `materialize` runs the builder, which transposes r's table."""

    def fn(a: int, b: int, c: int) -> bool:
        return r.fn(b, a, c)

    return TernaryRelation(
        r.ground, f"opp({r.name})", fn,
        lambda: materialize(r).table.transpose(1, 0, 2).copy(), opposite_of=r)


def rel_sup(ground: GroundSet) -> TernaryRelation:
    """(A, B, C) |-> max A <= max C or max B <= max C, with max {} = -inf.

    Closed-form description of the closure-meeting relation under the
    initial-segment operator; the agreement is verified in tests.
    """

    def top(mask: int) -> int:
        return mask.bit_length()  # order-preserving stand-in for max

    def fn(a: int, b: int, c: int) -> bool:
        return top(a) <= top(c) or top(b) <= top(c)

    # A is seen only through top(A): row t, of the n + 1 rows, is every A
    # with top(A) = t
    tops = np.array([top(m) for m in ground.masks()], dtype=np.intp)

    def build() -> np.ndarray:
        below = tops[:, None] <= tops  # (X, C): top(X) <= top(C)
        ts = np.arange(ground.size + 1)
        return below | (ts[:, None] <= tops)[:, None, :]

    return TernaryRelation(ground, "sup", fn, build, classes=tops)
