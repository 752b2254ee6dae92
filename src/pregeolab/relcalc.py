"""Ternary relations over subset triples and the relation transformers.

A relation carries two evaluation routes: a scalar predicate on masks
(the definitional route, which `axioms.evaluate_axiom_body` reads) and
a vectorized one, its cube builder where it has a cube and its builder
otherwise, the only route to the cube, the rows and the 2^(3n) truth
table.  The two routes are independent implementations and are
cross-checked in the test suite, among other ways through one axiom
body evaluated on each; all heavy scanning (axiom checks, table
comparisons) runs on what the vectorized route made.  A transformer's
predicate calls its base's predicate, so the scalar route never reads a
table, built or not.

Table layout: every truth table is a C-contiguous `bool` array indexed
[A, B, C], so the (B, C) plane of one A is one contiguous block.
Builders fill the table one such A row, or one block of A rows, at a
time from (B, C) planes of closures, dimensions or maxima computed once;
the axiom scans read it the same way.

Cubes: `a`, `cl` and M and c of either under the same operator see A, B
and C only through their closures.  For any closure cl(A+C) =
cl(cl(A)+cl(C)), in a pregeometry dim(A/X) = dim(cl(A)/cl(X)), and
every X in M's interval [C, cl(B+C)] has its closure in the interval of
flats [cl(C), cl(B+C)].  So where the operator has fewer closed sets
than subsets each such relation is a k x k x k cube over the closed
sets, the flats of the lattice of flats (Oxley, "Matroid Theory", 2nd
ed., 2011).  `flats` computes the class structure once per operator:
the closed sets F, each mask's class, the least member of each class
and the join table J[i, j], the class of cl(F_i + F_j).  A relation with
a cube keeps `flats` and a `cube_builder`, and `built_cube` builds the
cube once, read-only, straight from the closed sets and never from the
rows: `a` is F[J[i, l]] & F[J[j, l]] == F[l] on masks of one byte, `cl`
compares dim(F_i/X) = rank(F_J[i, X]) - rank(F_X) at X = J[j, l] and l
from `rank_vector` at the flats, c gathers cube[i, J[j, l], l], and M
ANDs cube[i, j, m] over the flats F_m of [F_l, F_J[j, l]] by the passes
of `_and_passes`, run along the masks X of [F_l, cl(F_j + X)] on a
k x k x 2^n array and read at X = F_l.  No cube builder holds a
temporary wider than one byte a cube cell.  The cube has 729 cells on
gebert8 and 4,096 on gf2-7, against 2^21 to 2^24 for the table, and
`axioms` checks and compares on it where its grid is small enough (see
the `axioms` module docstring for the rule and the crossovers).  `am`,
`amc`, `sup`, `opp` and the whole tables keep no cube: m's interval
[C, B+C] depends on B and C themselves, `sup`'s classes are max-classes,
and an opposite reads its base's cells swapped.  Where every set is
closed `a` and `cl` are `int` cell for cell, (A+C) & (B+C) = (A & B) + C
and dim(A/X) = |A - X|, and they build its table.

Rows: a relation's one stored form is its A rows, built once and kept
read-only as `rows` (`built_rows`).  A relation with a cube takes them
from it, one row per closed set, k of them (9 of 256 on gebert8), with
`classes` mapping each A to the row of cl(A): rows[i, B, C] =
cube[i, class(B), class(C)], gathered along C and then taken as whole
rows of B in machine words, a block of i rows at a time.  Every other
relation runs its builder.  `sup` sees A only through max(A), so it
makes n + 1 rows.  M, m and c without a cube act on each A row alone, so
they keep their base's `classes` and build their rows from the base's
rows, never from its table.  `opposite` stores nothing: it keeps its
base as `opposite_of`, and the scans read its base's layouts and cells
with A and B swapped.  Every other relation has `classes = None`, and
its rows are the whole table.  The table derives from the rows:
`materialize` takes the class rows by `classes` with one `take`, or
uses the rows themselves, and an opposite's builder transposes its
base's table.  No scan or comparison of `axioms` calls it: both packed
layouts and every cell the scans read come from the rows, so no
relation builds its 2^(3n) table unless a caller asks for it.

The monotonisations AND their base along the C axis in n passes, one
per element, each masked by the (B, C) plane of the elements of cl(B+C)
outside C: a superset-AND zeta transform over the intervals
[C, cl(B+C)] (Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets
Mobius: fast subset convolution", STOC 2007).  One kernel,
`_and_passes`, runs them on the base's rows [A, B, C] and on M's cube
[i, j, X] alike.  The passes run on blocks of rows that fit in cache,
all n on one block before the next; a pass shifts the block by 2^i
cells into one buffer, ORs in the mask and ANDs the buffer into the
block, on machine words of up to 8 cells.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .closure import ClosureOperator, Pregeometry, trivial_closure
from .geometry import dim_table, rank_vector
from .lattice import GroundSet

# Default budget: 2^24 truth-table cells, i.e. ground size up to 8.
DEFAULT_TABLE_CAP_BITS = 1 << 24

#: cells in one block of rows of the gather of class rows from a cube and
#: of the monotonisation passes (256 KB of bool cells), so n <= 6 is one
#: block
_BUILD_BLOCK_CELLS = 1 << 18


class CapExceeded(Exception):
    """Materialization would exceed the configured memory budget."""


@dataclass
class TernaryRelation:
    """A predicate over (A, B, C) subset triples; C is the base set."""

    ground: GroundSet
    name: str
    fn: Callable[[int, int, int], bool]
    #: makes the rows, one per class when `classes` is set and the whole
    #: table otherwise; `built_rows` calls it only when `flats` is None
    builder: Callable[[], np.ndarray]
    table: Optional[np.ndarray] = field(default=None, repr=False)
    #: axis -> the table packed over that axis, read-only (axioms._packed)
    packed: dict = field(default_factory=dict, repr=False, compare=False)
    #: A -> its row, when the rows are one per class of A (per closed set
    #: cl(A), or per max(A)); None when they are the whole table
    classes: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: the rows, read-only (`built_rows`): [k, B, C], one per class, when
    #: `classes` is set, and the whole table otherwise; taken from the
    #: cube when `flats` is set
    rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: r, when this relation is opposite(r): it stores no rows of its own
    opposite_of: Optional[TernaryRelation] = None
    #: the closed sets of the relation's cube, when it sees A, B and C only
    #: through their closures under an operator with fewer closed sets
    #: than subsets, and the builder of that cube
    flats: Optional[Flats] = field(default=None, repr=False, compare=False)
    cube_builder: Optional[Callable[[], np.ndarray]] = field(
        default=None, repr=False, compare=False)
    #: the cube, read-only: [i, j, l] is r(F_i, F_j, F_l) (`built_cube`)
    cube: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


def check_table_budget(ground: GroundSet) -> None:
    """Raise CapExceeded when a truth table on `ground` would have more
    than DEFAULT_TABLE_CAP_BITS cells (ground size above 8)."""
    cells = ground.subset_count ** 3
    if cells > DEFAULT_TABLE_CAP_BITS:
        raise CapExceeded(
            f"truth table needs {cells} cells, cap is {DEFAULT_TABLE_CAP_BITS}")


def built_rows(r: TernaryRelation) -> np.ndarray:
    """r's A rows, built once after `check_table_budget`, kept read-only as
    `r.rows` and returned.  A relation with a cube takes them from it
    (`_cube_rows`), one row per closed set; any other runs its builder,
    which makes one row per class when `r.classes` is set and the whole
    table otherwise."""
    if r.rows is None:
        check_table_budget(r.ground)
        r.rows = (r.builder() if r.flats is None
                  else _cube_rows(built_cube(r), r.flats.classes))
        r.rows.flags.writeable = False
    return r.rows


def built_cube(r: TernaryRelation) -> np.ndarray:
    """r's cube over `r.flats`, built once after `check_table_budget` from
    the closed sets (or its base's cube), never from the rows, kept
    read-only as `r.cube` and returned."""
    if r.cube is None:
        check_table_budget(r.ground)
        r.cube = r.cube_builder()
        r.cube.flags.writeable = False
    return r.cube


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
    return _wrap(ground, name, table.astype(bool, order="C"))


def _wrap(ground: GroundSet, name: str, t: np.ndarray) -> TernaryRelation:
    """The relation whose rows and table are t, a C-contiguous bool table
    that this makes read-only, with no copy."""
    t.flags.writeable = False
    return TernaryRelation(
        ground, name, lambda a, b, c: bool(t[a, b, c]), lambda: t, t, rows=t
    )


def random_relation(ground: GroundSet, seed: int) -> TernaryRelation:
    rng = np.random.default_rng(seed)
    count = ground.subset_count
    step = _block_rows(count)
    # the numbers of one draw of count^3 floats, in blocks of A rows, so
    # that no float array has the table's size (128 MB at n = 8), into
    # the one table the relation keeps
    table = np.empty((count,) * 3, dtype=bool)
    for lo in range(0, count, step):
        np.less(rng.random((step, count, count)), 0.5,
                out=table[lo:lo + step])
    return _wrap(ground, f"rand{seed}", table)


# ---------------------------------------------------------------------------
# Built-in relations


def _block_rows(count: int) -> int:
    """A rows per block of `_BUILD_BLOCK_CELLS` cells (at least one)."""
    return min(count, max(1, _BUILD_BLOCK_CELLS // count**2))


def _masks(count: int) -> np.ndarray:
    """All subset masks, ascending, in the narrowest unsigned dtype."""
    return np.arange(count, dtype=np.min_scalar_type(count - 1))


@dataclass(frozen=True, eq=False)
class Flats:
    """The closed sets of an operator with fewer closed sets than subsets,
    and how the subsets fall into their classes: a relation that sees A, B
    and C only through their closures is a k x k x k cube over them."""

    #: the operator's table; not the operator, which keys `_FLATS` weakly
    cl: np.ndarray
    #: the k closed sets F_0 < ... < F_(k-1), ascending by mask
    closed: np.ndarray
    #: mask -> the index of its closure among `closed`
    classes: np.ndarray
    #: the least member of each class, ascending
    least: np.ndarray
    #: [i, j]: the index of cl(F_i + F_j)
    join: np.ndarray

    def closes(self, cl: np.ndarray) -> bool:
        """Whether cl is the closure table of these closed sets."""
        return cl is self.cl or np.array_equal(cl, self.cl)


#: operator -> its `Flats`, or None when every set is closed
_FLATS: "weakref.WeakKeyDictionary[ClosureOperator, Optional[Flats]]" = (
    weakref.WeakKeyDictionary())


def flats(op: ClosureOperator) -> Optional[Flats]:
    """The closed sets of op and their classes, computed once per operator;
    None when every set is closed."""
    if op not in _FLATS:
        cl = op.table
        closed = np.flatnonzero(cl == np.arange(len(cl)))
        fl = None
        if len(closed) < len(cl):
            classes = np.searchsorted(closed, cl)
            least = np.sort(np.unique(classes, return_index=True)[1])
            fl = Flats(cl, closed, classes, least,
                       classes[closed[:, None] | closed])
            for array in (closed, classes, least, fl.join):
                array.flags.writeable = False
        _FLATS[op] = fl
    return _FLATS[op]


def _cube_rows(cube: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """The class rows [i, B, C] = cube[i, classes[B], classes[C]].  A block
    of `_block_rows` i rows is gathered along C, then whole rows of B are
    taken as machine words of up to 8 cells, so no temporary holds more
    than one block of k x 2^n cells ("clip": every index is in range)."""
    count = len(classes)
    word = np.dtype(f"u{min(count, 8)}")
    rows = np.empty((len(cube), count, count), dtype=bool)
    words = rows.view(word)
    step = _block_rows(count)
    for lo in range(0, len(cube), step):
        across = cube[lo:lo + step].take(classes, axis=2)  # [i, class B, C]
        np.take(across.view(word), classes, axis=1, out=words[lo:lo + step],
                mode="clip")
    return rows


def _intersection_table(ground: GroundSet) -> np.ndarray:
    """The table of A & B <= C, one A row at a time: `int`, and `a` and
    `cl` under an operator whose every set is closed, where cl(A+C) &
    cl(B+C) = (A & B) + C and dim(A/X) = |A - X|."""
    count = ground.subset_count
    masks = _masks(count)
    off_base = masks[:, None] & ~masks[None, :]  # (B, C): B \ C
    table = np.empty((count, count, count), dtype=bool)
    for a in range(count):
        np.equal(off_base & a, 0, out=table[a])
    return table


def rel_intersection(ground: GroundSet) -> TernaryRelation:
    """(A, B, C) |-> A & B <= C."""

    def fn(a: int, b: int, c: int) -> bool:
        return a & b & ~c == 0

    return TernaryRelation(ground, "int", fn,
                           lambda: _intersection_table(ground))


def rel_a(op: ClosureOperator) -> TernaryRelation:
    """(A, B, C) |-> cl(A+C) & cl(B+C) == cl(C)."""
    cl = op.table
    fl = flats(op)

    def fn(a: int, b: int, c: int) -> bool:
        return cl[a | c] & cl[b | c] == cl[c]

    def cube() -> np.ndarray:
        # masks in their narrowest dtype: the AND is one byte a cell at n <= 8
        closed = fl.closed.astype(np.min_scalar_type(len(cl) - 1))
        up = closed[fl.join]  # [x, l]: cl(F_x + F_l)
        return up[:, None] & up == closed

    return TernaryRelation(op.ground, "a", fn,
                           lambda: _intersection_table(op.ground),
                           classes=None if fl is None else fl.classes,
                           flats=fl, cube_builder=cube)


def rel_cl(pg: Pregeometry) -> TernaryRelation:
    """(A, B, C) |-> dim(A/B+C) == dim(A/C).

    On a finite ground set the finite-subset quantifier in the definition
    collapses to A itself; the collapse is verified as a test property.
    """
    # the rows have 2^(3n) cells at most: refuse an instance over budget
    # before any work, as every other relation is refused at build time
    check_table_budget(pg.ground)
    fl = flats(pg.op)
    dims = None

    def fn(a: int, b: int, c: int) -> bool:
        nonlocal dims
        if dims is None:  # the definition, through `dim_table`
            dims = dim_table(pg)  # (A, X): dim(A/X)
        return dims[a, b | c] == dims[a, c]

    def cube() -> np.ndarray:
        # dim(F_i/X) = rank(cl(F_i + X)) - rank(X) at X = F_J[j,l] and F_l
        rank = rank_vector(pg)[fl.closed]
        join = fl.join
        over = rank[join] - rank  # [i, x]: dim(F_i/F_x), int8
        return over[:, join] == over[:, None, :]

    return TernaryRelation(pg.ground, "cl", fn,
                           lambda: _intersection_table(pg.ground),
                           classes=None if fl is None else fl.classes,
                           flats=fl, cube_builder=cube)


# ---------------------------------------------------------------------------
# Transformers


def _suffix(base: TernaryRelation, suffix: str) -> str:
    name = base.name
    if name == "a" or name.startswith(("a", "int", "st", "div", "rand")):
        return name + suffix
    return f"({name}){suffix}"


def _and_passes(base: np.ndarray, free: np.ndarray) -> np.ndarray:
    """base [., Y, X] with each cell ANDed over the X' of [X, X + free[Y, X]],
    for masks free[Y, X] outside X with X' + free[Y, X'] the same at every
    X' of that interval: a superset-AND zeta transform along X, masked per
    (Y, X) (Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007).

    One pass per element i: a cell with i in free ANDs in the cell at
    X + i.  After the passes for the elements below i + 1 a cell holds the
    AND over [X, X + (free & those elements)], and after all n the AND over
    the interval.  A pass reads only cells with bit i and writes only cells
    without it, so each [., Y] row is its own problem: a block of base's
    rows is copied and runs all n passes while it is in cache.  Pass i
    copies the block 2^i cells down into `up`, so that cell X + 2^i lies
    under X, ORs in keep_i and ANDs `up` into the block, on words of up to
    8 cells.  keep_i is 1 wherever X has bit i, so what lies under those
    cells (the next row, or stale bytes at the block's end) never reaches
    a 0/1 cell."""
    count = base.shape[-1]
    word = np.dtype(f"u{min(count, 8)}")
    keeps = [  # (Y, X): 1 where i is not in free
        (free >> i & 1 == 0).ravel().view(word)
        for i in range(count.bit_length() - 1)
    ]
    rows = min(len(base), max(1, _BUILD_BLOCK_CELLS // free.size))
    t = np.empty(base.shape, dtype=bool)
    up = np.ones(rows * free.size, dtype=bool)
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

    masks = _masks(len(cl))

    def build() -> np.ndarray:
        # (B, C): cl(B+C) \ C; every X in [C, cl(B+C)] has cl(B+X) = cl(B+C)
        free = cl.astype(masks.dtype)[masks[:, None] | masks] & ~masks
        return _and_passes(built_rows(r), free)

    fl = r.flats if r.flats is not None and r.flats.closes(cl) else None

    def cube() -> np.ndarray:
        # the AND over the flats of [F_l, cl(F_j + F_l)]: the passes along
        # the masks X of [F_l, cl(F_j + X)], on [i, j, X], read at X = F_l
        free = fl.closed.astype(masks.dtype)[fl.join[:, fl.classes]] & ~masks
        return _and_passes(built_cube(r).take(fl.classes, axis=2),  # [i, j, X]
                           free).take(fl.closed, axis=2)

    return TernaryRelation(r.ground, _suffix(r, "M"), fn, build,
                           classes=r.classes, flats=fl, cube_builder=cube)


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

    fl = r.flats if r.flats is not None and r.flats.closes(cl) else None

    def cube() -> np.ndarray:  # [i, j, l]: r(F_i, cl(F_j + F_l), F_l)
        return built_cube(r)[:, fl.join, np.arange(len(fl.closed))]

    return TernaryRelation(r.ground, _suffix(r, "c"), fn, build,
                           classes=r.classes, flats=fl, cube_builder=cube)


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
