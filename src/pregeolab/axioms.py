"""The axiom catalogue as executable predicates, exhaustive checking,
relation comparison, and counterexample search.

Every axiom is checked by a full quantifier scan over subset tuples.
Scan order is fixed: variables in statement order (A first, then the
base C, then B, then D where present), each ascending by mask, so the
reported witness is the lexicographically least violating tuple and is
identical across runs and platforms.

Witness tuple layout per axiom:
    EX                  (A, C)
    SYM, NOR-*, CLO-*, SCLO        (A, C, B)
    AREF                ({a}, C)
    MON-*, BMON-*, TRA-*, TRA-STRONG, BMON-STRONG, FREE    (A, C, B, D)

Each axiom's quantifier-free body is stated once, in `_BODIES`, over a
predicate holds(A, B, C) and the closure table.  The one statement runs
on scalar masks through the relation's predicate (`evaluate_axiom_body`,
the definitional route), on the vector of every D to complete a
four-variable witness (`_least_d`), on the (A, C) grid over the table as
the whole scan of EX and AREF, and, in the tests, on broadcast index
grids over the table as the reference every scan below is checked
against.  It also runs on the cube route, below, as that route's whole
scan.

Cube route.  `a`, `cl` and their M and c under the same operator see A,
B and C only through their closures, so they keep a k x k x k cube over
the k closed sets (`relcalc.built_cube`; k = 9 on gebert8 against 2^8
subsets).  Every body but FREE's, which reads the masks themselves,
reads holds, cl(X) and X + Y only through the classes of their
arguments, so a violation stays one when a variable moves within its
class, and the least witness has the least member of its class in each
place.  `_scan_cube` runs the body on the broadcast grid of the classes'
least members, ascending, with holds reading the cube through the class
map, and the first violating grid index is the witness.  AREF's A runs
over the singletons, whose bits its body reads.  The chains C <= B <= D
of BMON-* and TRA-* read the masks: their grid runs over A and the least
chain of each class pattern (l, j, m) with F_l <= F_j <= F_m (C the
least member of class l, B its least superset in class j, D B's least
superset in class m, `Flats.least_chains`), and the witness is the least A
with a violating pattern and the least packed key (C, B, D) among them.
`check_axioms` takes this route (`_takes_cube`) when the grid's k^arity
cells are at most 4^n, the rows (B, C) of one layout, and, for an axiom
that reads a closure, the operator given is the relation's own; all else
stays on the packed engine below.  On check-large's subjects every axiom
but FREE takes it on gebert8 (k = 9), the two- and three-variable ones on
gf2-7 (k = 16), and only EX and AREF on u36 (k = 23).  Measured in
process (best of 5; n, k, axiom: cube against packed, each with its
layout or cube built): gebert8 SYM 0.04 against 4.2 ms, TRA-L 0.21
against 5.4 ms, TRA-STRONG 0.19 against 21 ms, MON-R 0.10 against 0.15 ms.
At the bound (n = 8, k = 16, k^4 = 4^n) TRA-STRONG still takes 1.2
against 21 ms and TRA-L 0.30 against 4.9 ms, but MON-R, whose packed scan
runs on two bytes of class bits, 0.59 against 0.14 ms.  Past it the
packed engine wins: u36 SYM (k^3 = 3 * 4^n) 0.24 against 0.16 ms, and at
n = 8, k = 44 (k^4 = 57 * 4^n) MON-R 35 against 0.2 ms and TRA-STRONG 64
against 33 ms.  `compare` of two cubes over the same closed sets XORs
them, k^3 cells, and reads its least (A, B, C) the same way.  `sup`, `a`
under the initial-segment operator, and `amc`, built as (M a)c, have
cubes too; `opp`, `am` and the whole tables have none.

Packed engine.  Every scan except EX and AREF runs on the relation's
rows packed into bits along one axis (`_pack`), so that one word
operation on a row serves every value of that axis at once and no scan
loops over the 2^n A rows.  There are two layouts, each packed once per relation from its
rows (`relcalc.built_rows`) and kept read-only on it (`_packed`), so
every scan of a relation reads the same rows.  An opposite, r(B, A, C),
packs nothing: its layout over A is its base's layout over B with rows
(A, C), and its layout over B is its base's layout over A with bits over
A, each its base's stored array when the base has no class rows.  Each
layout has one extractor of the least (A, C, B) from a packed violation
array:

- right: rows (B, C), one bit per A row the relation stores: per A (2^n
  bits, 32 bytes at n = 8), or per class for class rows (k bits, 2 bytes
  for the 9 classes of gebert8 `a`).  `_least_right` takes the least A
  whose bit is set in the OR of all rows (`_least_members`: for class
  bits, the least member of a set class), then the least (C, B) whose
  row has that bit.  SYM, NOR-R, CLO-R, MON-R, FREE and TRA-STRONG use
  it, and BMON-STRONG applies the same rule to rows it never holds
  (below).  Every right-layout body but SYM's and FREE's reads A only
  through holds(A, ., .), so those scans run on class bits unchanged.
  SYM and FREE compare A's bits with something that depends on A
  itself, so they read the class bits expanded to A bits (`_over_a`,
  one lookup table per byte of class bits), which are never stored.
- left: B packed, 2^n bits per row, rows (A, C), or (class, C) for class
  rows: k x 2^n rows, 72 KB for gebert8 `a` in place of 2 MB.
  `_least_left` takes the least A whose block of rows C is nonzero, the
  block being A's own, or one that A shares with the other A of its
  class or of its pair of row indexes, then the block's first set bit as
  (C, B).  NOR-L, CLO-L, MON-L and SCLO use it.  On class rows NOR-L's
  second row (class(A+C), C) is a row of A's class wherever the class of
  A+C depends on A only through its class (`_union_classes`), as it does
  for closure classes, so NOR-L runs one block per class;
  CLO-L runs one block per distinct pair (class(A), class(cl(A))) and
  SCLO one per distinct pair (cl(A), class(A)) (`_pair_blocks`); and the
  chain scans of BMON-L and TRA-L gather rows (class(X), Y).  Only SYM,
  MON-L, and NOR-L under another class map take the rows by class into
  one row per (A, C) (`_left_over_a`), a fresh array each time: stored,
  it would lift a fresh gebert8 `a --all` from 36.8 to 38.8 MB.

Where the scans read cells (EX, AREF, SCLO's pair rows and the least
D), they read them through `_holds`: holds(A, B, C) is cell (B, C) of
the stored row of A's class, or of A's own row without classes, and an
opposite's holds(A, B, C) is its base's holds(B, A, C).  So no scan
builds a 2^(3n) table: not of class rows, and not of an opposite.

SYM takes the bits of the right layout that the left one, whose row
(B, C) is r(B, A, C), lacks.  NOR and CLO AND a layout with the negated
gather of the rows (X+C, C) or (cl(X), C), X the row's other variable
(`_scan_gather`).  SCLO XORs the left layout with the rows of its
right side, one packed row per pair of closed sets taken into a left
layout whose row (A, C) depends on A only through cl(A), one block of
rows C per distinct pair (cl(A), class(A)) (`_scan_sclo`).
`compare` XORs the two relations' left layouts, one block of rows C per
distinct pair (class1(A), class2(A)) where either has class rows, so it
builds no table from class rows, and its witness is the least (A, B, C),
not (A, C, B): `_least_abc` takes the least A with a nonzero block, then
the least bit B of the OR of that block, then the least C whose row has
bit B.
The four-variable axioms never build the 2^(4n) array:

- zeta scan (MON-*, FREE): one whole-row OR per element marks the
  (A, C, B) that some D violates (`_scan_mon`, `_scan_free`), and the
  least D completes the least marked (A, C, B).
- chain scan (BMON-*, TRA-*): on the right layout, or the left one for
  the left forms, whose A is the table's second variable, the violation
  rows of the 4^n chains C <= B <= D are two or three gathers of packed
  rows (`_scan_chain`).  The least A set in their OR, and the least (C,
  B, D) among the chains with A's bit, make the least (A, C, B, D).
- strong scan (TRA-STRONG, BMON-STRONG): on the right layout.  D splits
  into E, its part outside the base (B for TRA-STRONG, B+C for
  BMON-STRONG), and a part inside, which whole-row OR passes along B or
  C absorb.  Each element then takes one of a few states, such as in E,
  in B or in neither, so every row a scan reads is one gather by an
  index over the states (`_states`), and the OR over E is one pass per
  element that folds E's states into those without E (`_fold_into`):
  there is no loop over E.  BMON-STRONG gathers 5^n rows of f and of g,
  and TRA-STRONG 5^n rows for its zeta part and 6^n rows twice for its
  hit rows, with about n 5^n and n 6^n row ORs
  (`_scan_bmon_strong`, `_scan_tra_strong`).  Both run in blocks that
  fix the states of the top elements, so that a block's gathers stay
  within `_STRONG_BLOCK_BYTES`: n <= 6 is one block on every catalog
  subject and for rg-st's 34 lanes, and a whole n = 8 table takes 36
  blocks of TRA-STRONG's hit rows and 25 of BMON-STRONG's rows.
  BMON-STRONG keeps no marked rows: it ORs every block's rows into one
  word row, whose least set A is the least A, and then runs the blocks
  again on A's bit alone, E folded out into rows (B, C), for the least
  (C, B).  The least D completes the least marked (A, C, B), as for
  FREE.  In process (best of 7), against the loop over E: u36 `cl`
  TRA-STRONG 0.45 against 1.6 ms and BMON-STRONG 0.21 against 0.96 ms;
  gebert8 `int` 25 against 34 ms and 5.6 against 10 ms.

The OR passes are subset-lattice zeta transforms (Bjorklund, Husfeldt,
Kaski and Koivisto, "Fourier meets Mobius: fast subset convolution",
STOC 2007).

Lanes and batches.  `check_axioms` checks one axiom on many relations,
and `check_axiom` is its batch of one.  Relations of one ground size,
one number of rows and one class map (or none) form a batch
(`_batches`), and their stored layouts are set side by side along the
byte axis (`_lanes`): each relation owns the same whole bytes of every
row, its lane, padded to a byte as its own layout is.  An opposite has
no class map of its own, whatever its base's, so it shares a batch with
the whole tables of its ground size.  Their rows stand
for the same (X, Y), so every gather, OR, zeta and strong pass, SYM's
OR and XOR, FREE's mask of the A that lack i (the same in every lane)
and the class logic of the left layout (`_union_classes`, `_pair_blocks`,
`row_of`) run once over all the lanes, unchanged.  This is bit-slicing
(Biham, "A fast new DES implementation in software", FSE 1997), which
the scans already apply to A and to A's classes.  Only the extraction of
the least witness reads each lane alone: `_least_members`, the least
(C, B) and the chain key, `_least_blocks`, BMON-STRONG's second pass,
SCLO's gather of each lane's pair rows, the EX and AREF grids and
`_least_d`.  So every relation gets the witness it gets alone, byte for
byte.  A batch of one reads its stored layout itself, with no copy, and
a batch is split so that its layout stays within one n = 8 layout
(2 MB).  A caller that checks several axioms on the same relations can
pass one dict as `shared`, which keeps each batch's layouts side by side
for the next axiom, so they are set side by side once per axis.  The rg-st suite checks each axiom on its 34 graphs
(n = 5) in one call: with their layouts packed, its fifteen scanned
axioms take 4.7 ms so, against 18.5 ms as 34 calls each (NOR-R 0.20
against 0.88 ms; in process, best of 7).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .closure import ClosureOperator
from .lattice import GroundSet, first_true, format_witness
# `materialize` is read by perfbench/selftest.py only, which checks that
# a wrapped function imported from relcalc is wrapped here too
from .relcalc import (Flats, TernaryRelation, built_cube, built_rows,
                      from_table, materialize)

class MissingClosure(Exception):
    """The axiom needs an ambient closure operator and none was given."""


class AxiomId(enum.Enum):
    FIN = "FIN"
    EX = "EX"
    SYM = "SYM"
    LOC = "LOC"
    NOR_L = "NOR-L"
    NOR_R = "NOR-R"
    MON_L = "MON-L"
    MON_R = "MON-R"
    BMON_L = "BMON-L"
    BMON_R = "BMON-R"
    TRA_L = "TRA-L"
    TRA_R = "TRA-R"
    TRA_STRONG = "TRA-STRONG"
    BMON_STRONG = "BMON-STRONG"
    AREF = "AREF"
    CLO_L = "CLO-L"
    CLO_R = "CLO-R"
    SCLO = "SCLO"
    FREE = "FREE"

    @property
    def needs_closure(self) -> bool:
        return self in (AxiomId.AREF, AxiomId.CLO_L, AxiomId.CLO_R, AxiomId.SCLO)

    @classmethod
    def parse(cls, text: str) -> "AxiomId":
        key = text.strip().upper()
        for ax in cls:
            if ax.value == key:
                return ax
        raise ValueError(f"unknown axiom id: {text!r}")


#: Stable order used by check_all and suite reports.
AXIOM_ORDER: tuple[AxiomId, ...] = tuple(AxiomId)


def result_line(subject: str, check: str, status: str,
                witness: Optional[Sequence[int]]) -> str:
    """The machine-readable report line RESULT <subject> <check> <status>
    [witness=...]; every RESULT line of `check` and `verify` is built here."""
    line = f"RESULT {subject} {check} {status}"
    return line if witness is None else f"{line} witness={format_witness(witness)}"


@dataclass(frozen=True)
class AxiomReport:
    axiom: AxiomId
    relation: str
    status: str  # pass | fail | vacuous
    witness: Optional[tuple[int, ...]]

    def result_line(self) -> str:
        return result_line(self.relation, self.axiom.value, self.status,
                           self.witness)


def _chain(c, b, d):
    """C <= B <= D."""
    return (c & ~b == 0) & (b & ~d == 0)


#: axiom -> its quantifier-free body, true where the witness (A, C[, B[,
#: D]]), in the layout above, is no violation.  holds(A, B, C) reads r
#: and cl is the closure table.  A body uses only &, |, ~, == and !=, so
#: the one statement runs on scalar masks with np.bool_ cells
#: (`evaluate_axiom_body`), on the vector of every D (`_least_d`) and on
#: broadcast index grids over a table.
_BODIES = {
    AxiomId.EX: lambda h, cl, a, c: h(a, c, c),
    AxiomId.SYM: lambda h, cl, a, c, b: ~h(a, b, c) | h(b, a, c),
    AxiomId.NOR_L: lambda h, cl, a, c, b: ~h(a, b, c) | h(a | c, b, c),
    AxiomId.NOR_R: lambda h, cl, a, c, b: ~h(a, b, c) | h(a, b | c, c),
    AxiomId.MON_L: lambda h, cl, a, c, b, d: ~h(a | d, b, c) | h(a, b, c),
    AxiomId.MON_R: lambda h, cl, a, c, b, d: ~h(a, b | d, c) | h(a, b, c),
    AxiomId.BMON_L: lambda h, cl, a, c, b, d:
        ~(_chain(c, b, d) & h(d, a, c)) | h(d, a, b),
    AxiomId.BMON_R: lambda h, cl, a, c, b, d:
        ~(_chain(c, b, d) & h(a, d, c)) | h(a, d, b),
    AxiomId.TRA_L: lambda h, cl, a, c, b, d:
        ~(_chain(c, b, d) & h(b, a, c) & h(d, a, b)) | h(d, a, c),
    AxiomId.TRA_R: lambda h, cl, a, c, b, d:
        ~(_chain(c, b, d) & h(a, b, c) & h(a, d, b)) | h(a, d, c),
    AxiomId.TRA_STRONG: lambda h, cl, a, c, b, d:
        ~(h(a, b, c) & h(a, d, b | c)) | h(a, b | d, c),
    AxiomId.BMON_STRONG: lambda h, cl, a, c, b, d:
        ~h(a, b | d, c) | h(a, b, c | d),
    AxiomId.AREF: lambda h, cl, a, c: ~h(a, a, c) | (cl[c] & a != 0),
    AxiomId.CLO_L: lambda h, cl, a, c, b: ~h(a, b, c) | h(cl[a], b, c),
    AxiomId.CLO_R: lambda h, cl, a, c, b: ~h(a, b, c) | h(a, cl[b], c),
    AxiomId.SCLO: lambda h, cl, a, c, b:
        h(a, b, c) == h(cl[a | c], cl[b | c], cl[c]),
    AxiomId.FREE: lambda h, cl, a, c, b, d:
        ~(h(a, b, c) & (c & (a | b) & ~d == 0) & (d & ~c == 0)) | h(a, b, d),
}


def _arity(ax: AxiomId) -> int:
    """The number of masks in a witness of ax: its body's arguments after
    holds and cl."""
    return _BODIES[ax].__code__.co_argcount - 2


@functools.lru_cache(maxsize=16)
def _states(size: int, states: tuple[tuple[int, ...], ...], base: int = 2
            ) -> tuple[np.ndarray, ...]:
    """Every way to put each of `size` elements in one of `states`, as one
    read-only array per column of the states: the entry of the way that
    puts element i in state s_i is the sum over i of s_i's column value
    times base^i, element 0's state varying fastest and element size - 1's
    slowest.  So with 0 or 1 values and base 2 a column lists masks, and
    with values x * 2^n + y it lists the flat rows (X, Y) of a layout.  The
    arrays are in the narrowest unsigned dtype that holds their values and
    X * 2^size + Y for masks X, Y."""
    columns = tuple(zip(*states))
    top = (max(max(column) for column in columns)
           * (base**size - 1) // (base - 1))
    out = [np.zeros(1, dtype=np.min_scalar_type(max(top, 4**size - 1)))
           ] * len(columns)
    for i in range(size):
        step = base**i
        out = [np.concatenate([x + v * step for v in column])
               for x, column in zip(out, columns)]
    for array in out:
        array.flags.writeable = False
    return tuple(out)


def _chains(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4^n chains C <= B <= D as three read-only arrays (c, b, d), each
    element outside D, in D only, in B only, or in C (`_states`)."""
    return _states(size, ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)))


def _pack(t3: np.ndarray, axis: int) -> np.ndarray:
    """Rows t3[X, B, C] packed into bits along `axis` (0 or 1): rows
    indexed by the other two axes in row-major order, each row the bits
    of `axis` packed little-endian, as np.packbits(..., bitorder="little")
    lays them out, with the padding bits of the last byte 0.  X is A, or
    A's class for class rows, so axis 0 of class rows packs one bit per
    class, ceil(k / 8) bytes a row.

    An einsum weights the j-th of each 8 cells along the axis by 2^j:
    cells are 0 or 1, so the uint8 sum is the packed byte, and a last
    group of fewer than 8 cells gets only its own weights.  It runs on
    blocks of 64 rows of the other axis (one block up to n = 6)."""
    count = t3.shape[-1]
    # [X, Y, C]: Y the packed axis, X the other one of the first two
    cells = np.moveaxis(t3, 1 - axis, 0).view(np.uint8)
    full, tail = divmod(cells.shape[1], 8)
    weights = np.left_shift(1, np.arange(8, dtype=np.uint8))
    rows = np.empty((len(cells), count, full + (tail > 0)), dtype=np.uint8)
    for lo in range(0, len(cells), 64):
        block, out = cells[lo:lo + 64], rows[lo:lo + 64]
        if full:
            groups = block[:, :8 * full].reshape(len(block), full, 8, count)
            out[..., :full] = np.einsum("xgkc,k->xcg", groups, weights)
        if tail:
            out[..., full] = np.einsum("xkc,k->xc", block[:, 8 * full:],
                                       weights[:tail])
    return rows.reshape(-1, rows.shape[-1])


def _packed(r: TernaryRelation, axis: int) -> np.ndarray:
    """r's rows packed over `axis`, read-only, packed on first use and kept
    in `r.packed`, so every later scan of r reads the same rows.  Over
    axis 0 class rows keep one bit per class; over axis 1 their rows are
    (class, C), k x 2^n of them, and `_left_over_a` takes them by class
    for the scans that need rows (A, C).  Neither layout needs the table
    of class rows.  An opposite r(A, B, C) = base(B, A, C) takes its
    base's other layout, its rows (class, C) taken by class or its class
    bits expanded to A bits, and builds no rows."""
    p = r.packed.get(axis)
    if p is None:
        base = r.opposite_of
        if base is None:
            p = _pack(built_rows(r), axis)
        elif axis == 0:  # rows (B, C) over A: the base's rows (A, C) over B
            p = _left_over_a(_packed(base, 1), base.classes)
        else:  # rows (A, C) over B: the base's rows (B, C) over A
            p = _over_a(_packed(base, 0), base.classes)
        p.flags.writeable = False
        r.packed[axis] = p
    return p


class _Cells(NamedTuple):
    """Where a relation's cells are stored: cell (A, B, C) is rows[row[A],
    B, C], or rows[row[B], A, C] when `swap` is set, with row[X] read as X
    where `row` is None."""

    rows: np.ndarray  # a relation's `built_rows`
    row: Optional[np.ndarray]  # its class map
    swap: bool

    def where(self, a, b, c) -> tuple:
        """The index of cell (A, B, C) in `rows`, one index array, or mask,
        per axis of `rows`: those of A, B and C broadcast."""
        if self.swap:
            a, b = b, a
        return (a if self.row is None else self.row[a]), b, c

    def __call__(self, a, b, c):
        """holds(A, B, C)."""
        return self.rows[self.where(a, b, c)]


def _holds(r: TernaryRelation) -> _Cells:
    """The one reader of r's cells: its rows and class map, or for an
    opposite its base's cells with A and B swapped, so that an opposite
    builds no rows."""
    if r.opposite_of is not None:
        rows, row, swap = _holds(r.opposite_of)
        return _Cells(rows, row, not swap)
    return _Cells(built_rows(r), r.classes, False)


#: bytes of one n = 8 layout (4^8 rows of 32 bytes): a batch is split so
#: that its layout, its lanes side by side, stays within it
_BATCH_BYTES = 1 << 21


def _lanes(relations: Sequence[TernaryRelation], axis: int,
           shared: Optional[dict] = None) -> np.ndarray:
    """The relations' layouts over `axis` side by side, read-only: row i
    is row i of each `_packed` layout in turn, so relation j owns the
    same whole bytes of every row, its lane.  The relations share one
    class map (or none), so their rows stand for the same (X, Y).  A
    batch of one reads its stored layout itself.  Lanes made once are
    kept in `shared`, when given, by the batch's relations and `axis`."""
    if len(relations) == 1:
        return _packed(relations[0], axis)
    key = (axis, *map(id, relations))
    if shared is not None and key in shared:
        return shared[key]
    layouts = [_packed(r, axis) for r in relations]
    # in words: byte by byte the copy takes 3 times as long at 4-byte lanes
    p = np.concatenate([_words(x, x.shape[1]) for x in layouts], axis=1)
    p = p.view(np.uint8)
    p.flags.writeable = False
    if shared is not None:
        shared[key] = p
    return p


def _words(p: np.ndarray, width: int) -> np.ndarray:
    """The rows of p, lanes of `width` bytes, as the widest unsigned words
    (up to 8 bytes) that split every lane into whole words."""
    return p.view(f"u{min(width & -width, 8)}")


def _left_over_a(p: np.ndarray, classes: Optional[np.ndarray]) -> np.ndarray:
    """The left layout p with one row per (A, C): its rows (class, C) taken
    by class, a fresh array each call, or, without classes, p itself."""
    if classes is None:
        return p
    return p.reshape(-1, len(classes), p.shape[1]).take(
        classes, axis=0).reshape(-1, p.shape[1])


def _union_classes(classes: np.ndarray, k: int, count: int
                   ) -> Optional[np.ndarray]:
    """[class, C]: the class of A + C for the A of that class, when that
    class depends on A only through its class (classes is a union
    congruence: class(A) = class(A') gives class(A + C) = class(A' + C));
    None when it does not.  Closure classes are one, since cl(A + C) =
    cl(cl(A) + C).  One gather over (A, C) checks it; the rows of classes
    no A has are 0."""
    cls = classes.astype(np.min_scalar_type(k - 1))
    masks = np.arange(count, dtype=np.min_scalar_type(count - 1))
    union = cls[masks[:, None] | masks]  # [A, C]: class(A + C)
    used, first = np.unique(cls, return_index=True)
    table = np.zeros((k, count), dtype=cls.dtype)
    table[used] = union[first]
    if not np.array_equal(union, table[cls]):
        return None
    return table.astype(np.intp)


def _pair_blocks(p1: np.ndarray, rows1: Optional[np.ndarray],
                 p2: np.ndarray, rows2: Optional[np.ndarray], count: int
                 ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Left layouts p1 and p2 whose row (A, C) is row (rows1[A], C) and row
    (rows2[A], C), or row (A, C) where the map is None, as fresh blocks of
    `count` rows C, one per distinct pair (rows1[A], rows2[A]), with A ->
    its block.  When a map is None every A has a pair of its own, so the
    layouts come in A order, with index None: a layout without a map is
    returned itself, and one with a map as a fresh copy of its blocks taken
    by A (`_left_over_a`).  CLO-L, SCLO and `compare` read their left
    layouts through it."""
    if rows1 is None or rows2 is None:
        return _left_over_a(p1, rows1), _left_over_a(p2, rows2), None
    width = int(rows2.max()) + 1
    codes, index = np.unique(rows1 * width + rows2, return_inverse=True)
    return (*(p.reshape(-1, count, p.shape[1])[x].reshape(-1, p.shape[1])
              for p, x in ((p1, codes // width), (p2, codes % width))), index)


#: bytes of A bits in one block of rows of `_over_a`
_EXPAND_BLOCK_BYTES = 1 << 18


def _over_a(p: np.ndarray, classes: Optional[np.ndarray], lanes: int = 1
            ) -> np.ndarray:
    """Rows packed over classes re-packed over A: bit A of a lane is its
    bit classes[A].  Byte t of a lane stands for the classes 8t..8t+7, so
    lut[t, byte] holds the A bits of the classes set in it, and a lane over
    A is the OR over t of lut[t, byte t].  It runs on blocks of lanes, so
    no temporary has the size of the result.  Without classes the rows are
    over A already, and p itself is returned."""
    if classes is None:
        return p
    rows = len(p)
    p = p.reshape(rows * lanes, -1)  # one lane a row
    width = p.shape[1]
    # [class, A bits]: the A in each class, 8 * width classes
    members = np.packbits(classes == np.arange(8 * width)[:, None], axis=1,
                          bitorder="little")
    lut = np.zeros((width, 256, members.shape[1]), dtype=np.uint8)
    for j in range(8):  # bytes with bit j on: those without it, and class 8t+j
        lut[:, 1 << j:2 << j] = lut[:, :1 << j] | members[j::8, None]
    out = np.empty((len(p), members.shape[1]), dtype=np.uint8)
    step = max(1, _EXPAND_BLOCK_BYTES // members.shape[1])
    for lo in range(0, len(p), step):
        block, bytes_ = out[lo:lo + step], p[lo:lo + step]
        np.take(lut[0], bytes_[:, 0], axis=0, out=block, mode="clip")
        for t in range(1, width):
            block |= lut[t].take(bytes_[:, t], axis=0)
    return out.reshape(rows, -1)


def _planes(p: np.ndarray, count: int, i: int) -> np.ndarray:
    """Packed rows (X, Y) split by bit i of X and of Y: [:, s, :, :, t]
    are the rows whose X has bit i = s and whose Y has bit i = t."""
    half = count >> i + 1
    return p.reshape(half, 2, 1 << i, half, 2, 1 << i, -1)


def _or_rows(rows: np.ndarray, base: int = 2) -> np.ndarray:
    """The OR of base^j packed rows.  It runs over blocks of base^(j - j//2)
    rows first, so no reduction has a short inner loop."""
    half = 1
    while (half * base) ** 2 <= len(rows):
        half *= base
    found = np.bitwise_or.reduce(rows.reshape(half, -1), axis=0)
    return np.bitwise_or.reduce(found.reshape(-1, rows.shape[1]), axis=0)


def _least_members(found: np.ndarray, lanes: int,
                   classes: Optional[np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per lane of the packed row `found`, the least A whose bit is set,
    bit classes[A] or, without classes, bit A: the lanes that have one,
    their A, and the index of that bit in the whole row."""
    width = found.size // lanes
    if not found.any():  # the common case of a passing batch
        none = np.zeros(0, dtype=np.intp)
        return none, none, none
    bits = np.unpackbits(found, bitorder="little").reshape(lanes, -1)
    if classes is not None:
        bits = bits[:, classes]
    a = bits.argmax(axis=1)
    hit = np.flatnonzero(bits.max(axis=1))
    a = a[hit]
    bit = a if classes is None else classes[a]
    return hit, a, bit + 8 * width * hit


def _bits(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
    """[row, j]: bit at[j] of every packed row, as 0 or 1."""
    return rows[:, at >> 3] >> (at & 7).astype(np.uint8) & 1


def _least_cb(has: np.ndarray, count: int) -> np.ndarray:
    """[j]: the least (C, B), as C * count + B, whose row (B, C) has column
    j of `has` set."""
    cb = has.reshape(count, count, -1).transpose(1, 0, 2)
    return cb.reshape(count * count, -1).argmax(axis=0)


def _least_right(viol: np.ndarray, count: int, lanes: int,
                 classes: Optional[np.ndarray]
                 ) -> list[Optional[tuple[int, int, int]]]:
    """Per lane, the least (A, C, B) of violation rows (B, C) packed over
    A, or over A's class: the least A whose bit is set in any row, then
    the least (C, B) whose row has it."""
    out: list[Optional[tuple[int, int, int]]] = [None] * lanes
    hit, a, at = _least_members(_or_rows(viol), lanes, classes)
    if len(hit):
        for j, x, cb in zip(hit, a, _least_cb(_bits(viol, at), count)):
            out[j] = (int(x), *divmod(int(cb), count))
    return out


def _least_blocks(viol: np.ndarray, count: int, lanes: int,
                  index: Optional[np.ndarray]
                  ) -> list[Optional[tuple[int, np.ndarray]]]:
    """Per lane, the least A whose block of `count` rows is nonzero in that
    lane, and the lane's bytes of the block: block index[A], or block A
    when index is None.  None for a lane where no A's block is.  Padding
    bits of the rows must be 0."""
    width = viol.shape[1] // lanes
    # each lane's blocks as whole words, lane by lane, so that each max
    # runs over contiguous words: a max over a short inner axis of bytes
    # takes 20 times as long at 34 lanes of 4 bytes
    words = _words(viol, width).reshape(len(viol), lanes, -1)
    nonzero = words.transpose(1, 0, 2).reshape(lanes, len(viol) // count, -1)
    nonzero = nonzero.max(axis=2).T != 0  # [block, lane]
    out: list[Optional[tuple[int, np.ndarray]]] = [None] * lanes
    if not nonzero.any():
        return out
    if index is not None:
        nonzero = nonzero[index]
    least = nonzero.argmax(axis=0)
    for j in np.flatnonzero(nonzero[least, np.arange(lanes)]):
        a = int(least[j])
        block = a if index is None else int(index[a])
        out[j] = (a, viol[block * count:(block + 1) * count,
                          j * width:(j + 1) * width])
    return out


def _least_left(viol: np.ndarray, count: int, lanes: int = 1,
                index: Optional[np.ndarray] = None
                ) -> list[Optional[tuple[int, int, int]]]:
    """Per lane, the least (A, C, B) of violation rows (A, C) packed over
    B, or of blocks of rows C that A reads as block index[A]
    (`_least_blocks`): the least A with a nonzero block, then the first
    set bit of the block, which lies in the least C and is its least B."""
    out: list[Optional[tuple[int, int, int]]] = []
    for hit in _least_blocks(viol, count, lanes, index):
        if hit is None:
            out.append(None)
            continue
        a, block = hit
        first = int(np.argmax(np.unpackbits(block, bitorder="little")))
        out.append((a, *divmod(first, 8 * block.shape[1])))
    return out


def _scan_chain(p: np.ndarray, count: int, lanes: int, transitive: bool,
                classes: Optional[np.ndarray],
                row_of: Optional[np.ndarray] = None
                ) -> list[Optional[tuple[int, int, int, int]]]:
    """With t[x, y] = r(A, x, y), or r(x, A, y) for the left forms, a chain
    violates BMON by t[D, C] and not t[D, B], and TRA by t[B, C] and
    t[D, B] and not t[D, C].  The rows of t are packed over A, or over A's
    class (`classes`), so one gather of a row answers every A of every
    lane at once.  Row (x, y) of t is row (row_of[x], y) of p when row_of
    is given: the left layout of class rows, whose x is the table's first
    variable.  Per lane, the least A with a violating chain, and its
    least (C, B, D)."""
    size = count.bit_length() - 1
    c, b, d = _chains(size)
    if row_of is not None:  # x * count + y stays below k * 2^n
        row_of = row_of.astype(c.dtype)

    def at(x, y):
        if row_of is not None:
            x = row_of[x]
        return p.take(x * count + y, axis=0)

    # each word has a positive factor, so the zero padding bits of a row
    # (of class bits, or of A bits below n = 3) never mark a violation
    if transitive:
        viol = at(b, c)
        viol &= at(d, b)
        off = at(d, c)
    else:
        viol, off = at(d, c), at(d, b)
    viol &= np.invert(off, out=off)
    del off
    out: list[Optional[tuple[int, int, int, int]]] = [None] * lanes
    hit, a, bit = _least_members(_or_rows(viol), lanes, classes)
    if len(hit):  # per lane, the least key among the chains with its bit
        for j, x, has in zip(hit, a, _bits(viol, bit).T):
            chains = np.flatnonzero(has)
            key = (c[chains].astype(np.intp) << 2 * size
                   | b[chains] << size | d[chains])
            i = chains[np.argmin(key)]
            out[j] = (int(x), int(c[i]), int(b[i]), int(d[i]))
    return out


def _scan_gather(p: np.ndarray, count: int, x: np.ndarray) -> np.ndarray:
    """Violation rows (X, C), X being B on the right layout and A on the
    left one, where r holds and fails with X replaced by x[X, C]: the
    second cell is row (x[X, C], C), so one gather gives every such cell.
    X may also be a class of A, whose rows p holds (NOR-L on class rows)."""
    viol = p.take((x * count + np.arange(count)).ravel(), axis=0)
    np.invert(viol, out=viol)
    viol &= p
    return viol


#: pair cells (pair of closed sets, B) in one chunk of the SCLO scan, the
#: size of its flat index, so n <= 6 is one chunk
_SCLO_BLOCK_CELLS = 1 << 18


def _scan_sclo(
    relations: Sequence[TernaryRelation], classes: Optional[np.ndarray],
    left: np.ndarray, cl: np.ndarray
) -> list[Optional[tuple[int, int, int]]]:
    """SCLO: r(A, B, C) and r(cl(A+C), cl(B+C), cl(C)) differ.  For any
    closure cl(X+C) = cl(X+cl(C)), so the right side is r(X, cl(B+Z), Z)
    with Z = cl(C) and X = cl(cl(A)+Z), a pair Z <= X of closed sets: one
    row over B per pair, packed.  The pair rows are read through each
    relation's `_holds` in chunks of pairs, so no table is built.
    `relations` are the lanes of `left`: a chunk gathers each lane's pair
    rows into that lane's bytes, by one flat index per chunk for all the
    lanes that read their cells alike (`_Cells`: one class map object, or
    none, and A and B swapped or not), so the whole tables of a batch share
    one index.  Taken by (closed X, C) the pair rows are a left layout
    whose row (A, C) is its row (rank of cl(A), C), so one block of rows C
    per distinct pair (cl(A), class(A)) is XORed with `left`
    (`_pair_blocks`; under the identity closure, with no class rows, no
    block is copied), and the least (A, C, B) is the first set bit of the
    least A's block."""
    count = len(cl)
    lanes = len(relations)
    cells = [_holds(r) for r in relations]
    width = count + 7 >> 3
    masks = np.arange(count)
    closed = np.flatnonzero(cl == masks)
    zs, xs = np.nonzero(closed[:, None] & ~closed == 0)  # the pairs Z <= X
    up = cl[closed[:, None] | masks]  # [Z, B]: cl(B+Z)
    # [pair, B]: r(X, cl(B+Z), Z), packed over B
    right = np.empty((len(zs), lanes * width), dtype=np.uint8)
    step = max(1, _SCLO_BLOCK_CELLS // count)
    for lo in range(0, len(zs), step):
        z, x = zs[lo:lo + step], xs[lo:lo + step]
        x, y, z = closed[x, None], up[z], closed[z, None]
        flat: dict[tuple, np.ndarray] = {}
        for j, h in enumerate(cells):
            key = (h.swap, id(h.row))  # one class map object, one index
            if key not in flat:
                flat[key] = np.ravel_multi_index(h.where(x, y, z), h.rows.shape)
            right[lo:lo + step, j * width:(j + 1) * width] = np.packbits(
                h.rows.take(flat[key]), axis=-1, bitorder="little")
    pair = np.zeros((len(closed),) * 2, dtype=np.min_scalar_type(len(zs) - 1))
    pair[zs, xs] = np.arange(len(zs))
    base = np.searchsorted(closed, cl)  # C -> the rank of cl(C)
    # rows (closed X, C): the pair (cl(C), cl(X+cl(C)))
    at = pair[base, np.searchsorted(closed, up[:, cl])].ravel()
    viol, other, index = _pair_blocks(
        right.take(at, axis=0), None if len(closed) == count else base,
        left, classes, count)
    viol ^= other
    return _least_left(viol, count, lanes, index)


def _scan_mon(p: np.ndarray, count: int) -> np.ndarray:
    """MON-R (MON-L): r(A, B, C) fails and holds with a superset of B (of
    A) in its place.  On the table packed over A (over B), rows (B, C)
    ((A, C)), a superset-OR along the first row variable is one whole-row
    OR per element.  p lies under its superset-OR, so XOR with p keeps the
    cells of the OR where r fails."""
    bad = p.copy()
    for i in range(count.bit_length() - 1):
        rows = _planes(bad, count, i)
        rows[:, 0] |= rows[:, 1]
    bad ^= p
    return bad


#: bytes of the rows one block of a strong scan gathers at once: 6^m rows
#: over m low elements for TRA-STRONG, 5^m for BMON-STRONG, so n <= 6 is
#: one block on every catalog subject and for the 34 lanes of rg-st (n = 5)
_STRONG_BLOCK_BYTES = 1 << 21


def _low_size(size: int, states: int, width: int) -> int:
    """The most low elements whose states^low rows of `width` bytes, each
    with the 8-byte index that `take` reads it by, stay within
    `_STRONG_BLOCK_BYTES`: all `size` of them where they do."""
    low = size
    while low and states**low * (width + 8) > _STRONG_BLOCK_BYTES:
        low -= 1
    return low


def _fold_into(out: np.ndarray, count: int, grid: np.ndarray, b: int, c: int
               ) -> None:
    """OR rows over the states of the low elements into the rows (B, C) of
    `out`, packed rows (B, C), that they stand for.  grid[s_(m-1), ...,
    s_0] is the row of the way that puts low element i in state s_i
    (`_states`).  Each element's states are none, C, B, B and C, then E
    and, for TRA-STRONG, E and C: one pass per element ORs each E state
    into the one without E, the OR over E, and keeps the first four, (B, C)
    bits 2b + c.  The bits of B and C above the low elements are those of
    b and c."""
    size = count.bit_length() - 1
    low = grid.ndim - 1
    for axis in range(low):
        lead = (slice(None),) * axis
        e = grid.shape[axis] - 4
        grid[lead + (slice(0, e),)] |= grid[lead + (slice(4, 4 + e),)]
        grid = grid[lead + (slice(0, 4),)]
    # (b, c) per element to all b bits, then all c bits: the rows (B, C)
    grid = grid.reshape((2, 2) * low + grid.shape[-1:]).transpose(
        *range(0, 2 * low, 2), *range(1, 2 * low, 2), 2 * low)
    top = range(size - 1, low - 1, -1)
    rest = (slice(None),) * low
    at = (*(b >> j & 1 for j in top), *rest, *(c >> j & 1 for j in top), *rest)
    target = out.reshape((2,) * 2 * size + (out.shape[1],))[at]
    target |= grid


#: BMON-STRONG's states of one element for (B, C, E), E outside B + C:
#: none, C, B, B and C, or E, as its bits of B, C and E
_BMON_STATES = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1))


def _scan_bmon_strong(p: np.ndarray, count: int, lanes: int,
                      classes: Optional[np.ndarray]
                      ) -> list[Optional[tuple[int, int, int]]]:
    """BMON-STRONG: r(A, B+D, C) holds and r(A, B, C+D) fails.  With E the
    part of D outside B+C, the body is r(A, B+E+P, C) and not r(A, B,
    C+E+Q), P and Q any subsets of C and of B.  On the table packed over A,
    rows (B, C), f ORs r over the supersets of B by elements of C, g ORs
    not r over the supersets of C by elements of B, one whole-row OR per
    element each, and (A, C, B) violates for some D where bit A of
    f[B+E, C] & g[B, C+E] is set for some E.  Each element is in one of
    five states of (B, C, E) (`_BMON_STATES`), so the 5^n rows f[B+E, C] &
    g[B, C+E] are two gathers, in blocks that fix the states of the
    elements above the low ones (`_low_size`): a block's rows sit at one
    offset from cached indexes of the low elements.  The least A is the
    least bit of the OR of every block's rows; the same blocks on bit A of
    f and g, with E folded out of each (`_fold_into`), give the rows
    (B, C) with that bit and so the least (C, B), and no array of violation
    rows is held.  The rows may be packed over A's class (`classes`), as
    for `_least_right`, and the second pass runs on the bit of each lane's
    least A at once."""
    size = count.bit_length() - 1
    f = p.copy()
    g = np.invert(p)
    for i in range(size):
        fv, gv = _planes(f, count, i), _planes(g, count, i)
        fv[:, 0, :, :, 1] |= fv[:, 1, :, :, 1]  # C has i: B takes B+i
        gv[:, 1, :, :, 0] |= gv[:, 1, :, :, 1]  # B has i: C takes C+i
    low = _low_size(size, len(_BMON_STATES), p.shape[1])
    f_at, g_at = _states(low, tuple(((b | e) * count + c, b * count + (c | e))
                                    for b, c, e in _BMON_STATES))
    top = range(size - 1, low - 1, -1)
    blocks = []  # per block: f's and g's row offsets, and its bits of B, C
    for states in itertools.product(_BMON_STATES, repeat=size - low):
        b, c, e = (sum(s[k] << j for s, j in zip(states, top))
                   for k in range(3))
        blocks.append(((b | e) * count + c, b * count + (c | e), b, c))
    found = np.zeros(p.shape[1], dtype=np.uint8)
    for at_f, at_g, _, _ in blocks:
        hit = f[at_f:].take(f_at, axis=0)
        hit &= g[at_g:].take(g_at, axis=0)
        found |= _or_rows(hit, len(_BMON_STATES))
    out: list[Optional[tuple[int, int, int]]] = [None] * lanes
    hit, a, bit = _least_members(found, lanes, classes)
    if len(hit):
        f, g = _bits(f, bit), _bits(g, bit)
        has = np.zeros_like(f)
        for at_f, at_g, b, c in blocks:
            rows = f[at_f:].take(f_at, axis=0)
            rows &= g[at_g:].take(g_at, axis=0)
            _fold_into(has, count, rows.reshape(
                (len(_BMON_STATES),) * low + (-1,)), b, c)
        for j, x, cb in zip(hit, a, _least_cb(has, count)):
            out[j] = (int(x), *divmod(int(cb), count))
    return out


#: TRA-STRONG's states of one element.  U[E, B, Z] is held for E and B
#: disjoint and B <= Z, where an element is in none, E, Z, E and Z, or B,
#: and gathered as the row (E + B, Z): each state's bits of E + B and Z.
_TRA_U = ((0, 0), (1, 0), (0, 1), (1, 1), (1, 1))
#: The hit rows (E, B, C), E and B disjoint, where an element is in none,
#: C, B, B and C, E, or E and C: each state's state in U[E, B, B + C] and
#: its bits of E, B and C.
_TRA_HIT = ((0, 0, 0, 0), (2, 0, 0, 1), (4, 0, 1, 0), (4, 0, 1, 1),
            (1, 1, 0, 0), (3, 1, 0, 1))


def _scan_tra_strong(p: np.ndarray, count: int) -> np.ndarray:
    """TRA-STRONG: r(A, B, C) and r(A, D, B+C) hold and r(A, B+D, C) fails.
    With E the part of D outside B and V the part inside, that is r(A, B,
    C), not r(A, B+E, C), and r(A, E+V, B+C) for some V <= B.  On the table
    packed over A, rows (B, C), U[E, B, Z] ORs the rows (E+V, Z) over the
    subsets V of B: one gather of the 5^n (E, B, Z) with E and B disjoint
    and B <= Z (`_TRA_U`), each element in state B gathered with V, then
    one pass per element ORs state B without V in.  The 6^n hit rows U[E,
    B, B+C] & not r(A, B+E, C) (`_TRA_HIT`) are a gather of U and one of
    the table, and one pass per element ORs them over E into rows (B, C)
    (`_fold_into`), which are ANDed with the table.  It runs in blocks that
    fix the states of the elements above the low ones (`_low_size`), whose
    gathers sit at one offset from cached indexes of the low elements.  A
    block of U that puts a top element in B ORs in the gathers with and
    without it in V, and its hit blocks are those whose top states it
    holds, so each block folds its own E."""
    size = count.bit_length() - 1
    low = _low_size(size, len(_TRA_HIT), p.shape[1])
    top = range(size - 1, low - 1, -1)
    u_at = _states(low, tuple((x * count + z,) for x, z in _TRA_U))[0]
    hit_u = _states(low, tuple((u,) for u, *_ in _TRA_HIT), len(_TRA_U))[0]
    hit_at = _states(low, tuple(((e | b) * count + c,)
                                for _, e, b, c in _TRA_HIT))[0]
    viol = np.zeros_like(p)
    for ups in itertools.product(range(len(_TRA_U)), repeat=size - low):
        u = None  # this block of U: top elements in B (4) with and without V
        for xs in itertools.product(*[(0, 1) if s == 4 else (_TRA_U[s][0],)
                                      for s in ups]):
            at = sum((x * count + _TRA_U[s][1]) << j
                     for x, s, j in zip(xs, ups, top))
            rows = p[at:].take(u_at, axis=0)
            u = rows if u is None else np.bitwise_or(u, rows, out=u)
        for i in range(low):  # state B (4) ORs in B without V's i: Z (2)
            grid = u.reshape(-1, len(_TRA_U), len(_TRA_U) ** i * p.shape[1])
            grid[:, 4] |= grid[:, 2]
        for states in itertools.product(*[[st for st in _TRA_HIT if st[0] == s]
                                          for s in ups]):
            e, b, c = (sum(st[k] << j for st, j in zip(states, top))
                       for k in (1, 2, 3))
            hit = u.take(hit_u, axis=0)
            off = p[(e | b) * count + c:].take(hit_at, axis=0)
            hit &= np.invert(off, out=off)
            del off
            _fold_into(viol, count,
                       hit.reshape((len(_TRA_HIT),) * low + (-1,)), b, c)
    viol &= p
    return viol


def _scan_free(p: np.ndarray, count: int) -> np.ndarray:
    """Violation rows (B, C) where r(A, B, C) holds and r(A, B, D) fails for
    some D in [C & (A+B), C].  On the table packed over A, rows (B, C), this
    is a subset-OR of not r along C, for each element i over the rows whose
    B lacks i and in each word over the A that lack i.  A lane of A bits
    is a power of two bits wide, at least 2^n, so bit i < n of a bit's
    place in the row is bit i of its A, in every lane."""
    size = count.bit_length() - 1
    bad = np.invert(p)
    bits = np.arange(8 * p.shape[1]) >> np.arange(size)[:, None] & 1
    lack = np.packbits(bits == 0, axis=-1, bitorder="little")  # A lacks i
    words = np.empty(bad.size >> 2, dtype=np.uint8)
    for i in range(size):
        rows = _planes(bad, count, i)[:, 0]
        src = rows[:, :, :, 0]  # [B, C]: B and C without i
        rows[:, :, :, 1] |= np.bitwise_and(src, lack[i],
                                           out=words.reshape(src.shape))
    del words
    bad &= p
    return bad


def _least_d(holds, count: int, ax: AxiomId, a: int, c: int, b: int):
    """Complete a violating (A, C, B) with the least D its body fails at."""
    ok = _BODIES[ax](holds, None, a, c, b, np.arange(count))
    return (a, c, b, int(np.argmax(~ok)))


#: the axioms scanned on the table packed over B, rows (A, C); the others
#: run on the table packed over A, rows (B, C)
_LEFT_FORMS = frozenset((AxiomId.NOR_L, AxiomId.CLO_L, AxiomId.MON_L,
                         AxiomId.BMON_L, AxiomId.TRA_L, AxiomId.SCLO))

_CHAIN_AXIOMS = {  # axiom -> whether it is a transitive form
    AxiomId.BMON_R: False, AxiomId.BMON_L: False,
    AxiomId.TRA_R: True, AxiomId.TRA_L: True,
}

_D_SCANS = {  # axiom -> the violation rows of the (A, C, B) some D violates
    AxiomId.MON_R: _scan_mon, AxiomId.MON_L: _scan_mon,
    AxiomId.TRA_STRONG: _scan_tra_strong, AxiomId.FREE: _scan_free,
}


def _require_op(ax: AxiomId, op: Optional[ClosureOperator]) -> ClosureOperator:
    if op is None:
        raise MissingClosure(f"axiom {ax.value} needs a closure operator")
    return op


def _takes_cube(r: TernaryRelation, ax: AxiomId, cl: Optional[np.ndarray]
                ) -> bool:
    """Whether ax is checked on r's cube (`_scan_cube`): r has one, ax has
    a body other than FREE's, which reads the masks themselves, its grid of
    k^arity cells has no more than the 4^n rows (B, C) of a layout, and the
    closure table cl that an axiom reads, if any, is that of r's cube."""
    fl = r.flats
    return (fl is not None and ax is not AxiomId.FREE
            and len(fl.closed) ** _arity(ax) <= r.ground.subset_count ** 2
            and (cl is None or fl.closes(cl)))


def _scan_cube(r: TernaryRelation, ax: AxiomId, cl: Optional[np.ndarray]
               ) -> Optional[tuple[int, ...]]:
    """The least violation of ax on r's cube.  Every body reads holds(A, B,
    C) only through the classes of its arguments, and cl(X) and X + Y only
    through theirs, so a violation stays one when a variable moves within
    its class: the body runs on the broadcast grid of the least members of
    the classes, ascending, and the first violating grid index names the
    least witness.  AREF's A runs over the singletons, whose own bits its
    body reads.  A chain axiom's C <= B <= D reads the masks, so its grid
    runs over A and the least chain of each class pattern: the least A
    with a violating pattern, then the least packed key (C, B, D) among
    them."""
    fl = r.flats
    cube, classes = built_cube(r), fl.classes

    def holds(a, b, c):
        return cube[classes[a], classes[b], classes[c]]

    least = fl.least
    if ax in _CHAIN_AXIOMS:
        c, b, d = fl.least_chains
        bad = ~_BODIES[ax](holds, cl, least[:, None], c, b, d)
        rows = np.flatnonzero(bad.any(axis=1))
        if not len(rows):
            return None
        chains = np.flatnonzero(bad[rows[0]])
        size = r.ground.size
        key = c[chains] << 2 * size | b[chains] << size | d[chains]
        i = chains[np.argmin(key)]
        return (int(least[rows[0]]), int(c[i]), int(b[i]), int(d[i]))
    firsts = 1 << np.arange(r.ground.size) if ax is AxiomId.AREF else least
    grid = (firsts, *[least] * (_arity(ax) - 1))
    hit = first_true(~_BODIES[ax](holds, cl, *np.ix_(*grid)))
    return None if hit is None else tuple(
        int(values[i]) for values, i in zip(grid, hit))


def _find_violations(
    relations: Sequence[TernaryRelation], ax: AxiomId,
    cl: Optional[np.ndarray], shared: Optional[dict] = None
) -> list[Optional[tuple[int, ...]]]:
    """The least violation of ax in each of a batch of relations that
    share one ground size, one number of rows and one class map
    (`_batches`): one scan over their layouts side by side (`_lanes`,
    kept in `shared` when given), then each lane's least witness."""
    first = relations[0]
    count = first.ground.subset_count
    masks = np.arange(count)
    classes = first.classes
    lanes = len(relations)

    if ax in (AxiomId.EX, AxiomId.AREF):  # the body on the (A, C) grid;
        # AREF's A runs over the singletons {a}
        firsts = (1 << np.arange(first.ground.size) if ax is AxiomId.AREF
                  else masks)
        out = []
        for r in relations:
            ok = _BODIES[ax](_holds(r), cl, firsts[:, None], masks)
            hit = first_true(~ok)
            out.append(None if hit is None else (int(firsts[hit[0]]), hit[1]))
        return out

    left = ax in _LEFT_FORMS
    p = _lanes(relations, int(left), shared)
    bits = None if left else classes  # A -> its bit in the lanes of p
    if ax is AxiomId.SCLO:
        return _scan_sclo(relations, classes, p, cl)
    if ax in _CHAIN_AXIOMS:  # a left form reads rows (class(x), y)
        return _scan_chain(p, count, lanes, _CHAIN_AXIOMS[ax], bits,
                           classes if left else None)
    if left and classes is not None:  # p's rows are (class, C)
        if ax is AxiomId.NOR_L:
            union = _union_classes(classes, len(built_rows(first)), count)
            if union is not None:  # one block of rows C per class
                viol = _scan_gather(p, count, union)
                return _least_left(viol, count, lanes, classes)
        elif ax is AxiomId.CLO_L:  # one block per (class(A), class(cl(A)))
            p, off, index = _pair_blocks(p, classes, p, classes[cl], count)
            np.invert(off, out=off)
            off &= p
            return _least_left(off, count, lanes, index)
        p = _left_over_a(p, classes)  # MON-L ORs along A, NOR-L reads every A
    if ax is AxiomId.BMON_STRONG:  # no violation rows: it finds (A, C, B)
        hits = _scan_bmon_strong(p, count, lanes, bits)
    else:
        if ax in (AxiomId.SYM, AxiomId.FREE):  # they read bits over A
            p, bits = _over_a(p, bits, lanes), None
        if ax is AxiomId.SYM:  # bit A of row (B, C) packed over B: r(B, A, C)
            other = _left_over_a(_lanes(relations, 1, shared), classes)
            # r(A, B, C) and not r(B, A, C), in place on the A bits that
            # `_over_a` made for this scan, never on a stored layout
            viol = np.bitwise_or(p, other, out=p if p.flags.writeable else None)
            viol ^= other
        elif ax in (AxiomId.NOR_R, AxiomId.NOR_L):  # X replaced by X+C
            viol = _scan_gather(p, count, masks[:, None] | masks)
        elif ax in (AxiomId.CLO_R, AxiomId.CLO_L):  # X replaced by cl(X)
            viol = _scan_gather(p, count, cl[:, None])
        else:
            viol = _D_SCANS[ax](p, count)
        hits = (_least_left(viol, count, lanes) if left
                else _least_right(viol, count, lanes, bits))
    if _arity(ax) == 3:
        return hits
    return [hit if hit is None else _least_d(_holds(r), count, ax, *hit)
            for r, hit in zip(relations, hits)]


def _batches(relations: Sequence[TernaryRelation]) -> Iterable[list[int]]:
    """The indexes of `relations` grouped into batches, each in input
    order: one ground size, one number of rows and one class map (or none)
    per batch, and as many relations as keep the batch's layout within
    `_BATCH_BYTES`, at least one."""
    if len(relations) == 1:  # every single check: no key to build
        yield [0]
        return
    groups: dict[tuple, list[int]] = {}
    for i, r in enumerate(relations):
        classes = None if r.classes is None else r.classes.tobytes()
        # a whole table has 2^n rows, stored or not (an opposite's)
        rows = r.ground.subset_count if classes is None else len(built_rows(r))
        key = (r.ground.size, rows, classes)
        groups.setdefault(key, []).append(i)
    for (size, k, _), members in groups.items():
        count = 1 << size
        # the larger of the right layout, rows (B, C) of k bits, and the
        # left one, rows (class, C) of 2^n bits
        layout = max(count * count * -(-k // 8), k * count * -(-count // 8))
        step = max(1, _BATCH_BYTES // layout)
        for lo in range(0, len(members), step):
            yield members[lo:lo + step]


def check_axioms(
    relations: Iterable[TernaryRelation], ax: AxiomId,
    op: Optional[ClosureOperator] = None, shared: Optional[dict] = None
) -> list[AxiomReport]:
    """Exhaustively check one axiom on each relation, one report per
    relation in input order, each with the first violation in scan order.
    A relation that `_takes_cube` is checked on its cube.  The others that
    can share a batch (`_batches`) are scanned at once, their layouts side
    by side, and each gets the witness it gets alone.  `shared`, a dict
    that the caller passes to its checks of several axioms on the same
    relations, keeps each batch's layouts side by side for the next."""
    relations = list(relations)
    # on a finite ground set every subset is finite (FIN), and LOC holds
    # with cardinal bound n + 1
    if ax in (AxiomId.FIN, AxiomId.LOC):
        return [AxiomReport(ax, r.name, "vacuous", None) for r in relations]
    cl = _require_op(ax, op).table if ax.needs_closure else None
    witnesses: list[Optional[tuple[int, ...]]] = [None] * len(relations)
    packed = []
    for i, r in enumerate(relations):
        if _takes_cube(r, ax, cl):
            witnesses[i] = _scan_cube(r, ax, cl)
        else:
            packed.append(i)
    for batch in _batches([relations[i] for i in packed]):
        found = _find_violations([relations[packed[i]] for i in batch], ax,
                                 cl, shared)
        for i, witness in zip(batch, found):
            witnesses[packed[i]] = witness
    return [AxiomReport(ax, r.name, "pass" if w is None else "fail", w)
            for r, w in zip(relations, witnesses)]


def check_axiom(
    r: TernaryRelation, ax: AxiomId, op: Optional[ClosureOperator] = None
) -> AxiomReport:
    """Exhaustively check one axiom; first violation in scan order is
    reported.  The batch of one of `check_axioms`."""
    return check_axioms([r], ax, op)[0]


def check_all(
    r: TernaryRelation, op: Optional[ClosureOperator] = None
) -> list[AxiomReport]:
    """One report per axiom in `AXIOM_ORDER`, skipping the axioms that
    need a closure operator when `op` is None."""
    return [check_axiom(r, ax, op) for ax in AXIOM_ORDER
            if op is not None or not ax.needs_closure]


def evaluate_axiom_body(r: TernaryRelation, ax: AxiomId,
                        witness: Sequence[int],
                        op: Optional[ClosureOperator] = None) -> bool:
    """Evaluate the axiom's body in `_BODIES` on one witness tuple.

    Returns True when the tuple satisfies the body (i.e. is NOT a
    violation).  Reads only the scalar predicate `r.fn`, never a table,
    and passes it Python ints.  Used for witness soundness checks.
    Raises ValueError for FIN and LOC, which have no body, and for a
    witness of the wrong length.
    """
    if ax not in _BODIES or len(witness) != _arity(ax):
        raise ValueError(f"{ax.value} has no body on {len(witness)} masks")
    cl = _require_op(ax, op).table if ax.needs_closure else None
    holds = lambda *abc: np.bool_(r.fn(*map(int, abc)))  # noqa: E731
    return bool(_BODIES[ax](holds, cl, *map(int, witness)))


# ---------------------------------------------------------------------------
# Relation comparison


@dataclass(frozen=True)
class Comparison:
    verdict: str  # equal | implies | implied | incomparable
    witness: Optional[tuple[int, int, int]]  # least differing (A, B, C)


def _least_abc(viol: np.ndarray, count: int, index: Optional[np.ndarray]
               ) -> Optional[tuple[int, int, int]]:
    """Least (A, B, C) of violation rows (A, C) packed over B, or of blocks
    as for `_least_left`: the least A with a nonzero block, then the least
    (B, C) among its bits, which is the least bit B of the block's OR and
    the least C whose row has it."""
    hit = _least_blocks(viol, count, 1, index)[0]
    if hit is None:
        return None
    a, block = hit
    bits = np.unpackbits(block, axis=1, bitorder="little")
    b, c = divmod(int(np.argmax(bits.T)), count)
    return (a, b, c)


def _least_cube_abc(diff: np.ndarray, fl: Flats
                    ) -> Optional[tuple[int, int, int]]:
    """Least (A, B, C) of a cube of differences over the classes of `fl`:
    the first set cell of the cube with each axis in the order of the
    classes' least members, read as those members."""
    order = fl.classes[fl.least]
    hit = first_true(diff[np.ix_(order, order, order)])
    return None if hit is None else tuple(int(fl.least[i]) for i in hit)


def compare(r1: TernaryRelation, r2: TernaryRelation) -> Comparison:
    """Table-level comparison; "implies" means r1 is stronger (r1 <= r2).
    Two cubes over the same closed sets are one XOR of k^3 cells.
    Otherwise it XORs the two left layouts, so it never builds a class-row
    table.  Where a relation has class rows, row (A, C) depends on A only
    through the pair of row indexes (class1(A), class2(A)), so one block of
    rows C per distinct pair is compared, 26 on gf2-7 `a` against
    `sup`."""
    if r1.ground != r2.ground:
        raise ValueError("relations live on different ground sets")
    count = r1.ground.subset_count
    cubes = (r1.flats is not None and r2.flats is not None
             and r1.flats.closes(r2.flats.cl))  # over one operator
    if cubes:
        p1, p2 = built_cube(r1), built_cube(r2)
    else:
        p1, p2, index = _pair_blocks(_packed(r1, 1), r1.classes,
                                     _packed(r2, 1), r2.classes, count)
    diff = p1 ^ p2
    witness = (_least_cube_abc(diff, r1.flats) if cubes
               else _least_abc(diff, count, index))
    if witness is None:
        return Comparison("equal", None)
    more = bool((diff & p1).any())  # some cell with r1 and not r2
    less = bool((diff & p2).any())  # some cell with r2 and not r1
    verdict = "implies" if not more else ("implied" if not less else "incomparable")
    return Comparison(verdict, witness)


# ---------------------------------------------------------------------------
# Counterexample search


@dataclass(frozen=True)
class Goal:
    """Find a relation passing all premise axioms and failing the target."""

    premises: tuple[AxiomId, ...]
    target: AxiomId


@dataclass(frozen=True)
class SearchHit:
    instance: str
    witness: tuple[int, ...]


Candidate = tuple[str, TernaryRelation, Optional[ClosureOperator]]


def search_counterexample(
    goal: Goal, candidates: Iterable[Candidate]
) -> Optional[SearchHit]:
    """Deterministic scan; first candidate meeting the goal wins."""
    for name, relation, op in candidates:
        if any(
            check_axiom(relation, p, op).status == "fail" for p in goal.premises
        ):
            continue
        report = check_axiom(relation, goal.target, op)
        if report.status == "fail":
            assert report.witness is not None
            return SearchHit(name, report.witness)
    return None


def enumerate_all_relations() -> Iterable[TernaryRelation]:
    """All 256 relations on a one-element ground set, by ascending
    truth-table code (the only size whose relations can be listed)."""
    ground = GroundSet(1)
    for code in range(256):
        bits = [(code >> k) & 1 for k in range(8)]
        table = np.array(bits, dtype=bool).reshape((2, 2, 2))
        yield from_table(ground, f"rel{code}", table)
