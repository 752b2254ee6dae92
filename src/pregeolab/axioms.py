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

Every scan except EX and AREF runs on the table packed into bits along
one axis (`_pack`: 2^n bits per row, 32 bytes at n = 8), so that one
word operation on a row serves every value of that axis at once and no
scan loops over the 2^n A rows.  There are two layouts, each packed once
per table and kept read-only on the relation (`_packed`), so every scan
of a table reads the same rows.  Each layout has one extractor of the
least (A, C, B) from a packed violation array:

- right: A packed, rows (B, C).  `_least_right` takes the least bit of
  the OR of all rows as A, then the least (C, B) whose row has that bit.
  SYM, NOR-R, CLO-R, MON-R, FREE, TRA-STRONG and BMON-STRONG use it.
- left: B packed, rows (A, C).  `_least_left` takes the first nonzero
  row as (A, C) and its least bit as B.  NOR-L, CLO-L, MON-L and SCLO
  use it.

SYM takes the bits of the right layout that the left one, whose row
(B, C) is r(B, A, C), lacks.  NOR and CLO AND a layout with the negated
gather of the rows (X+C, C) or (cl(X), C), X the row's other variable
(`_scan_gather`).  SCLO XORs the left layout with the rows of its
right side, one packed row per pair of closed sets (`_scan_sclo`).
The four-variable axioms never build the 2^(4n) array:

- zeta scan (MON-*, FREE): one whole-row OR per element marks the
  (A, C, B) that some D violates (`_scan_mon`, `_scan_free`), and the
  least D completes the least marked (A, C, B).
- chain scan (BMON-*, TRA-*): on the right layout, or the left one for
  the left forms, whose A is the table's second variable, the violation
  rows of the 4^n chains C <= B <= D are two or three gathers of packed
  rows (`_scan_chain`).  The least bit of their OR is the least A, and
  the least (C, B, D) among the chains with that bit completes the
  least (A, C, B, D).
- strong scan (TRA-STRONG, BMON-STRONG): on the right layout, a loop
  over E, the part of D outside the base (B for TRA-STRONG, B+C for
  BMON-STRONG), ORs into row (B, C) the rows that some D with that part
  violates (`_scan_tra_strong`, `_scan_bmon_strong`).  The rest of D
  ranges over the subsets of the base, so whole-row OR passes along B or
  C absorb it.  BMON-STRONG gathers 5^n rows in all, and TRA-STRONG 6^n
  rows and about n 6^n row ORs.  The least D completes the least
  marked (A, C, B), as for FREE.

The OR passes are subset-lattice zeta transforms (Bjorklund, Husfeldt,
Kaski and Koivisto, "Fourier meets Mobius: fast subset convolution",
STOC 2007).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .closure import ClosureOperator
from .lattice import GroundSet, first_true, format_witness
from .relcalc import TernaryRelation, from_table, materialize

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


@dataclass(frozen=True)
class AxiomReport:
    axiom: AxiomId
    relation: str
    status: str  # pass | fail | vacuous
    witness: Optional[tuple[int, ...]]

    def result_line(self) -> str:
        """Machine-readable line: RESULT <relation> <axiom> <status> [witness=...]."""
        parts = [f"RESULT {self.relation} {self.axiom.value} {self.status}"]
        if self.witness is not None:
            parts.append("witness=" + format_witness(self.witness))
        return " ".join(parts)


def _chains(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4^n chains C <= B <= D as three arrays, in no particular order:
    each element in turn is outside D, in D only, in B only, or in C."""
    c = b = d = np.zeros(1, dtype=np.intp)
    for i in range(size):
        bit = 1 << i
        c = np.concatenate((c, c, c, c | bit))
        b = np.concatenate((b, b, b | bit, b | bit))
        d = np.concatenate((d, d | bit, d | bit, d | bit))
    return c, b, d


def _pack(t3: np.ndarray, axis: int) -> np.ndarray:
    """The table's `axis` (0 or 1) packed into bits: rows indexed by the
    other two axes in row-major order, each row the bits of `axis` packed
    little-endian, as np.packbits(..., bitorder="little") lays them out.

    An einsum weights the j-th of each k = min(2^n, 8) cells along the
    axis by 2^j: cells are 0 or 1, so the uint8 sum is the packed byte,
    and below n = 3 the one byte per row has zero padding bits.  It runs
    on blocks of 64 rows of the other axis (one block up to n = 6)."""
    count = len(t3)
    k = min(count, 8)  # cells per byte
    # [X, g, k, C]: the k cells of byte g along the axis, X the other one
    # of A and B
    cells = np.moveaxis(t3, 1 - axis, 0).view(np.uint8)
    cells = cells.reshape(count, count // k, k, count)
    weights = np.left_shift(1, np.arange(k, dtype=np.uint8))
    rows = np.empty((count, count, count // k), dtype=np.uint8)
    for lo in range(0, count, 64):
        rows[lo:lo + 64] = np.einsum("xgkc,k->xcg", cells[lo:lo + 64], weights)
    return rows.reshape(-1, count // k)


def _packed(r: TernaryRelation, t3: np.ndarray, axis: int) -> np.ndarray:
    """r's table t3 packed over `axis`, read-only.  It is packed on first
    use and kept in `r.packed` next to t3, so every later scan of t3 reads
    the same rows, and a table that replaces t3 is packed again."""
    source, p = r.packed.get(axis, (None, None))
    if source is not t3:
        p = _pack(t3, axis)
        p.flags.writeable = False
        r.packed[axis] = (t3, p)
    return p


def _planes(p: np.ndarray, count: int, i: int) -> np.ndarray:
    """Packed rows (X, Y) split by bit i of X and of Y: [:, s, :, :, t]
    are the rows whose X has bit i = s and whose Y has bit i = t."""
    half = count >> i + 1
    return p.reshape(half, 2, 1 << i, half, 2, 1 << i, -1)


def _least_a(
    viol: np.ndarray, count: int
) -> Optional[tuple[int, np.ndarray]]:
    """The least bit A set in any of the count^2 packed rows of viol, and
    bit A of every row; None when no row has a bit.  The OR runs over
    blocks of count rows first, so no reduction has a short inner loop."""
    found = np.bitwise_or.reduce(viol.reshape(count, -1), axis=0)
    found = np.bitwise_or.reduce(found.reshape(count, -1), axis=0)
    if not found.any():
        return None
    a = int(np.argmax(np.unpackbits(found, bitorder="little")))
    return a, viol[:, a >> 3] >> (a & 7) & 1


def _least_right(viol: np.ndarray, count: int) -> Optional[tuple[int, int, int]]:
    """Least (A, C, B) of violation rows (B, C) packed over A: the least A
    set in any row, then the least (C, B) whose row has it."""
    hit = _least_a(viol, count)
    if hit is None:
        return None
    a, has = hit
    c, b = divmod(int(np.argmax(has.reshape(count, count).T)), count)
    return (a, c, b)


def _least_left(viol: np.ndarray, count: int) -> Optional[tuple[int, int, int]]:
    """Least (A, C, B) of violation rows (A, C) packed over B: the least A
    with a nonzero row, then the first set bit of its rows, which lies in
    the least C and is its least B.  Padding bits of the rows must be 0."""
    width = viol.shape[1]
    a = int(np.argmax(viol.reshape(-1, count * width).max(axis=1) != 0))
    bits = np.unpackbits(viol[a * count:(a + 1) * count], bitorder="little")
    k = int(np.argmax(bits))
    if not bits[k]:
        return None
    c, b = divmod(k, 8 * width)
    return (a, c, b)


def _scan_chain(p: np.ndarray, count: int, transitive: bool):
    """With t[x, y] = r(A, x, y), or r(x, A, y) for the left forms, a chain
    violates BMON by t[D, C] and not t[D, B], and TRA by t[B, C] and
    t[D, B] and not t[D, C].  The rows of t are packed over A, so one
    gather of a row answers every A at once."""
    size = count.bit_length() - 1
    c, b, d = _chains(size)

    def at(x, y):
        return p.take(x * count + y, axis=0)

    # each word has a positive factor, so the zero padding bits of a row
    # (n < 3) never mark a violation
    if transitive:
        viol = at(b, c)
        viol &= at(d, b)
        off = at(d, c)
    else:
        viol, off = at(d, c), at(d, b)
    viol &= np.invert(off, out=off)
    del off
    hit = _least_a(viol, count)
    if hit is None:
        return None
    a, has = hit
    chains = np.flatnonzero(has)
    key = (c[chains] << 2 * size) | (b[chains] << size) | d[chains]
    i = chains[np.argmin(key)]
    return (a, int(c[i]), int(b[i]), int(d[i]))


def _scan_gather(p: np.ndarray, count: int, x: np.ndarray) -> np.ndarray:
    """Violation rows (X, C), X being B on the right layout and A on the
    left one, where r holds and fails with X replaced by x[X, C]: the
    second cell is row (x[X, C], C), so one gather gives every such cell."""
    viol = p.take((x * count + np.arange(count)).ravel(), axis=0)
    np.invert(viol, out=viol)
    viol &= p
    return viol


#: cells of the table in the first block of A rows of the SCLO scan, so
#: n <= 6 is one block; blocks double up to 8 times this
_SCLO_BLOCK_CELLS = 1 << 18


def _scan_sclo(
    t3: np.ndarray, left: np.ndarray, cl: np.ndarray
) -> Optional[tuple[int, int, int]]:
    """SCLO: r(A, B, C) and r(cl(A+C), cl(B+C), cl(C)) differ.  For any
    closure cl(X+C) = cl(X+cl(C)), so the right side is r(X, cl(B+Z), Z)
    with Z = cl(C) and X = cl(A+Z), a pair Z <= X of closed sets: one
    row over B per pair, packed, and taken by (A, C) gives the right side
    as rows (A, C) with bits over B, the layout of `left`.  The first
    nonzero row of their XOR is the least (A, C), and its least bit is B.
    The scan runs in blocks of A rows that double, and a block gathers
    only the pair rows it reaches that no earlier block gathered, so an
    early A stays cheap."""
    count = len(t3)
    masks = np.arange(count)
    closed = np.flatnonzero(cl == masks)
    rank = np.empty(count, dtype=np.intp)
    rank[closed] = np.arange(len(closed))
    zs, xs = np.nonzero(closed[:, None] & ~closed == 0)  # the pairs Z <= X
    pair = np.zeros((len(closed),) * 2, dtype=np.intp)  # [Z, X] -> its row
    pair[zs, xs] = np.arange(len(zs))
    up = cl[closed[:, None] | masks]  # [Z, B]: cl(B+Z)
    reach = pair[np.arange(len(closed)), rank[up.T]]  # [A, Z]: (Z, cl(A+Z))
    base = rank[cl]  # C -> the rank of cl(C)
    right_cells = up * count + closed[:, None]  # [Z, B]: (cl(B+Z), Z)
    # [pair, B]: r(X, cl(B+Z), Z), packed over B
    right = np.empty((len(zs), count + 7 >> 3), dtype=np.uint8)
    done = np.zeros(len(zs), dtype=bool)  # the rows of right gathered so far
    step = max(1, _SCLO_BLOCK_CELLS // count**2)
    lo = 0
    while lo < count:
        hi = min(count, lo + min(8 * step, max(step, lo)))
        at = reach[lo:hi, base].ravel()
        want = np.zeros_like(done)
        want[at] = True
        new = np.flatnonzero(want > done)
        done[new] = True
        cells = right_cells[zs[new]]
        cells += closed[xs[new], None] * count**2
        right[new] = np.packbits(t3.take(cells), axis=-1, bitorder="little")
        rows = right.take(at, axis=0)
        rows ^= left[lo * count:hi * count]
        hit = _least_left(rows, count)
        if hit is not None:
            return (lo + hit[0],) + hit[1:]
        lo = hi
    return None


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


def _scan_bmon_strong(p: np.ndarray, count: int) -> np.ndarray:
    """BMON-STRONG: r(A, B+D, C) holds and r(A, B, C+D) fails.  With E the
    part of D outside B+C, the body is r(A, B+E+P, C) and not r(A, B,
    C+E+Q), P and Q any subsets of C and of B.  On the table packed over A,
    rows (B, C), f ORs r over the supersets of B by elements of C, g ORs
    not r over the supersets of C by elements of B, one whole-row OR per
    element each, and each E ORs f[B+E, C] & g[B, C+E] into row (B, C)."""
    masks = np.arange(count)
    f = p.copy()
    g = np.invert(p)
    for i in range(count.bit_length() - 1):
        fv, gv = _planes(f, count, i), _planes(g, count, i)
        fv[:, 0, :, :, 1] |= fv[:, 1, :, :, 1]  # C has i: B takes B+i
        gv[:, 1, :, :, 0] |= gv[:, 1, :, :, 1]  # B has i: C takes C+i
    viol = f & g  # E = {}
    for e in range(1, count):
        rest = masks[masks & e == 0]  # B and C outside E
        rows = (rest[:, None] * count + rest).ravel()
        hit = f.take(rows + e * count, axis=0)
        hit &= g.take(rows + e, axis=0)
        viol[rows] |= hit
    return viol


def _scan_tra_strong(p: np.ndarray, count: int) -> np.ndarray:
    """TRA-STRONG: r(A, B, C) and r(A, D, B+C) hold and r(A, B+D, C) fails.
    With E the part of D outside B and V the part inside, that is r(A, B,
    C), not r(A, B+E, C), and r(A, E+V, B+C) for some V <= B.  On the table
    packed over A, rows (B, C), each E gathers the rows (B+E, Z) of the B
    outside E, ORs them over the subsets of B, one whole-row OR per element
    outside E, and takes row (B, B+C) of the result."""
    masks = np.arange(count)
    width = p.shape[1]
    table = p.reshape(count, count, width)
    viol = np.zeros_like(table)
    for e in range(count):
        rest = masks[masks & e == 0]  # B outside E
        below = table[rest | e]  # [B, Z]: r(A, B+E, Z), then ORed over B's subsets
        for j in range(len(rest).bit_length() - 1):  # no view keeps below alive
            pairs = (len(rest) >> j + 1, 2, -1)
            below.reshape(pairs)[:, 1] |= below.reshape(pairs)[:, 0]
        at = rest[:, None] | masks  # [B, C]: row (B, B+C) of below
        at += np.arange(0, at.size, count)[:, None]
        hit = below.reshape(-1, width).take(at, axis=0)
        del below
        off = table[rest | e]
        hit &= np.invert(off, out=off)
        del off
        viol[rest] |= hit
    viol &= table
    return viol.reshape(p.shape)


def _scan_free(p: np.ndarray, count: int) -> np.ndarray:
    """Violation rows (B, C) where r(A, B, C) holds and r(A, B, D) fails for
    some D in [C & (A+B), C].  On the table packed over A, rows (B, C), this
    is a subset-OR of not r along C, for each element i over the rows whose
    B lacks i and in each word over the A that lack i."""
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


def _least_d(t3: np.ndarray, ax: AxiomId, a: int, c: int, b: int):
    """Complete a violating (A, C, B) with its least D."""
    d = np.arange(len(t3))
    if ax is AxiomId.MON_R:
        ok = t3[a, b | d, c]
    elif ax is AxiomId.MON_L:
        ok = t3[a | d, b, c]
    elif ax is AxiomId.TRA_STRONG:
        ok = t3[a, d, b | c] & ~t3[a, b | d, c]
    elif ax is AxiomId.BMON_STRONG:
        ok = t3[a, b | d, c] & ~t3[a, b, c | d]
    else:  # FREE
        ok = (c & (a | b) & ~d == 0) & (d & ~c == 0) & ~t3[a, b]
    return (a, c, b, int(np.argmax(ok)))


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
    AxiomId.TRA_STRONG: _scan_tra_strong,
    AxiomId.BMON_STRONG: _scan_bmon_strong, AxiomId.FREE: _scan_free,
}


def _require_op(ax: AxiomId, op: Optional[ClosureOperator]) -> ClosureOperator:
    if op is None:
        raise MissingClosure(f"axiom {ax.value} needs a closure operator")
    return op


def _find_violation(
    r: TernaryRelation, ax: AxiomId, op: Optional[ClosureOperator]
) -> Optional[tuple[int, ...]]:
    cl = _require_op(ax, op).table if ax.needs_closure else None
    t3 = materialize(r).table
    count = r.ground.subset_count
    masks = np.arange(count)

    if ax is AxiomId.EX:
        return first_true(~t3[:, masks, masks])
    if ax is AxiomId.AREF:  # (a, C) with r({a}, {a}, C) and a outside cl(C)
        elems = np.arange(r.ground.size)[:, None]
        bits = 1 << elems
        hit = first_true(t3[bits, bits, masks] & (cl >> elems & 1 == 0))
        return None if hit is None else (1 << hit[0], hit[1])

    left = ax in _LEFT_FORMS
    p = _packed(r, t3, int(left))
    if ax is AxiomId.SCLO:
        return _scan_sclo(t3, p, cl)
    if ax in _CHAIN_AXIOMS:
        return _scan_chain(p, count, _CHAIN_AXIOMS[ax])
    if ax is AxiomId.SYM:  # bit A of row (B, C) packed over B: r(B, A, C)
        viol = _packed(r, t3, 1) ^ p
        viol &= p
    elif ax in (AxiomId.NOR_R, AxiomId.NOR_L):  # X replaced by X+C
        viol = _scan_gather(p, count, masks[:, None] | masks)
    elif ax in (AxiomId.CLO_R, AxiomId.CLO_L):  # X replaced by cl(X)
        viol = _scan_gather(p, count, cl[:, None])
    else:
        viol = _D_SCANS[ax](p, count)
    hit = (_least_left if left else _least_right)(viol, count)
    if hit is None or ax not in _D_SCANS:
        return hit
    return _least_d(t3, ax, *hit)


def check_axiom(
    r: TernaryRelation, ax: AxiomId, op: Optional[ClosureOperator] = None
) -> AxiomReport:
    """Exhaustively check one axiom; first violation in scan order is reported."""
    # on a finite ground set every subset is finite (FIN), and LOC holds
    # with cardinal bound n + 1
    if ax in (AxiomId.FIN, AxiomId.LOC):
        return AxiomReport(ax, r.name, "vacuous", None)
    witness = _find_violation(r, ax, op)
    status = "pass" if witness is None else "fail"
    return AxiomReport(ax, r.name, status, witness)


def check_all(
    r: TernaryRelation, op: Optional[ClosureOperator] = None
) -> list[AxiomReport]:
    """One report per axiom in `AXIOM_ORDER`, skipping the axioms that
    need a closure operator when `op` is None."""
    return [check_axiom(r, ax, op) for ax in AXIOM_ORDER
            if op is not None or not ax.needs_closure]


def evaluate_axiom_body(
    r: TernaryRelation,
    ax: AxiomId,
    witness: Sequence[int],
    op: Optional[ClosureOperator] = None,
) -> bool:
    """Re-evaluate the quantifier-free body of an axiom on one tuple.

    Returns True when the tuple satisfies the implication (i.e. is NOT a
    violation).  Reads only the scalar predicate `r.fn`, never a table.
    Used for witness soundness checks.
    """
    i = lambda k: int(witness[k])  # noqa: E731

    def holds(a: int, b: int, c: int) -> bool:
        return bool(r.fn(a, b, c))

    def sub(x: int, y: int) -> bool:
        return x & ~y == 0

    if ax is AxiomId.EX:
        return holds(i(0), i(1), i(1))
    if ax is AxiomId.SYM:
        return not holds(i(0), i(2), i(1)) or holds(i(2), i(0), i(1))
    if ax is AxiomId.NOR_R:
        return not holds(i(0), i(2), i(1)) or holds(i(0), i(2) | i(1), i(1))
    if ax is AxiomId.NOR_L:
        return not holds(i(0), i(2), i(1)) or holds(i(0) | i(1), i(2), i(1))
    if ax is AxiomId.AREF:
        cl = _require_op(ax, op).table
        a = i(0).bit_length() - 1
        return not holds(i(0), i(0), i(1)) or bool(cl[i(1)] >> a & 1)
    if ax is AxiomId.CLO_R:
        cl = _require_op(ax, op).table
        return not holds(i(0), i(2), i(1)) or holds(i(0), int(cl[i(2)]), i(1))
    if ax is AxiomId.CLO_L:
        cl = _require_op(ax, op).table
        return not holds(i(0), i(2), i(1)) or holds(int(cl[i(0)]), i(2), i(1))
    if ax is AxiomId.SCLO:
        cl = _require_op(ax, op).table
        a, c, b = i(0), i(1), i(2)
        return holds(a, b, c) == holds(
            int(cl[a | c]), int(cl[b | c]), int(cl[c]))
    a, c, b, d = i(0), i(1), i(2), i(3)
    if ax is AxiomId.MON_R:
        return not holds(a, b | d, c) or holds(a, b, c)
    if ax is AxiomId.MON_L:
        return not holds(a | d, b, c) or holds(a, b, c)
    if ax is AxiomId.BMON_R:
        in_chain = sub(c, b) and sub(b, d)
        return not (in_chain and holds(a, d, c)) or holds(a, d, b)
    if ax is AxiomId.BMON_L:
        in_chain = sub(c, b) and sub(b, d)
        return not (in_chain and holds(d, a, c)) or holds(d, a, b)
    if ax is AxiomId.TRA_R:
        in_chain = sub(c, b) and sub(b, d)
        prem = in_chain and holds(a, b, c) and holds(a, d, b)
        return not prem or holds(a, d, c)
    if ax is AxiomId.TRA_L:
        in_chain = sub(c, b) and sub(b, d)
        prem = in_chain and holds(b, a, c) and holds(d, a, b)
        return not prem or holds(d, a, c)
    if ax is AxiomId.TRA_STRONG:
        prem = holds(a, b, c) and holds(a, d, b | c)
        return not prem or holds(a, b | d, c)
    if ax is AxiomId.BMON_STRONG:
        return not holds(a, b | d, c) or holds(a, b, c | d)
    if ax is AxiomId.FREE:
        prem = holds(a, b, c) and sub(c & (a | b), d) and sub(d, c)
        return not prem or holds(a, b, d)
    raise ValueError(f"axiom {ax} has no body")  # pragma: no cover


# ---------------------------------------------------------------------------
# Relation comparison


@dataclass(frozen=True)
class Comparison:
    verdict: str  # equal | implies | implied | incomparable
    witness: Optional[tuple[int, int, int]]  # least differing (A, B, C)


def compare(r1: TernaryRelation, r2: TernaryRelation) -> Comparison:
    """Table-level comparison; "implies" means r1 is stronger (r1 <= r2)."""
    if r1.ground != r2.ground:
        raise ValueError("relations live on different ground sets")
    t1 = materialize(r1).table
    t2 = materialize(r2).table
    count = len(t1)
    witness = None
    more = less = False  # some cell with r1 and not r2; with r2 and not r1
    for a in range(count):  # one A row at a time: no 2^(3n) temporaries
        diff = t1[a] != t2[a]
        if not diff.any():
            continue
        if witness is None:
            b, c = divmod(int(np.argmax(diff)), count)
            witness = (a, b, c)
        more = more or bool(np.greater(t1[a], t2[a]).any())
        less = less or bool(np.greater(t2[a], t1[a]).any())
        if more and less:
            break
    if witness is None:
        return Comparison("equal", None)
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
