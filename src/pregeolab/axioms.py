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

The three-variable axioms scan the table one contiguous A row at a time:
each row gives the (B, C) violation plane of that A, the first row with
a violation holds the least witness, and the least (C, B) within it is
the first true entry of the transposed plane.  The four-variable axioms
never build the 2^(4n) array; one of three scans runs at every
ground-set size, chosen by axiom family:

- chain scan (BMON-*, TRA-*): the 4^n chains C <= B <= D are listed in
  (C, B, D) order.  A runs ascending and each A gets one violation
  vector over all chains, so the first A with a violation and the first
  true entry of its vector are the least (A, C, B, D).
- zeta scan (MON-*): some D violates the body at (A, C, B) exactly when
  r fails at (A, B, C) and holds with a superset of B (of A for MON-L)
  in its place.  A superset-OR transform along that axis marks these
  triples; the least one in (A, C, B) order fixes the prefix, and the
  first D that makes r hold with B+D (A+D) completes it.
- interval scan (TRA-STRONG, BMON-STRONG, FREE): the D that could
  violate the body at (A, C, B) fall into intervals of the subset
  lattice, and one OR pass per element over such an interval marks the
  violating triples: for FREE the interval C & (A+B) <= D <= C, for
  TRA-STRONG the D with the same part W outside B, the interval
  [W, W+B], and for BMON-STRONG the interval [E, E+C] of the D with the
  same part E outside C, coded in base 3 (see `_interval_table`).  The
  least marked (A, C, B) fixes the prefix and a scan of the 2^n sets D
  completes it, so the witness is still the least (A, C, B, D).  The
  base-3 codes make TRA-STRONG and BMON-STRONG about 12^n work, done in
  blocks of A rows; FREE is about n 8^n.

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
from .relcalc import CapExceeded, TernaryRelation, from_table, materialize

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

_VACUOUS_NOTES = {
    AxiomId.FIN: "every subset of a finite ground set is finite",
    AxiomId.LOC: "holds with cardinal bound n+1 on a finite ground set",
}


@dataclass(frozen=True)
class AxiomReport:
    axiom: AxiomId
    relation: str
    status: str  # pass | fail | vacuous
    witness: Optional[tuple[int, ...]]
    note: str = ""

    def result_line(self) -> str:
        """Machine-readable line: RESULT <relation> <axiom> <status> [witness=...]."""
        parts = [f"RESULT {self.relation} {self.axiom.value} {self.status}"]
        if self.witness is not None:
            parts.append("witness=" + format_witness(self.witness))
        return " ".join(parts)


def _least_acb(viol: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Least (A, C, B) of an [A, B, C] violation array, without the
    (A, C, B)-ordered copy that argmax on a transposed view would make."""
    rows = viol.reshape(len(viol), -1).any(axis=1)
    if not rows.any():
        return None
    a = int(np.argmax(rows))
    c, b = divmod(int(np.argmax(viol[a].T)), viol.shape[1])
    return a, c, b


def _scan_3var(count: int, plane) -> Optional[tuple[int, int, int]]:
    """Row scan in (A, C, B) order; plane(a) returns the (B, C) violation
    plane of row A = a."""
    for a in range(count):
        viol = plane(a)
        if viol.any():
            c, b = divmod(int(np.argmax(viol.T)), count)
            return (a, c, b)
    return None


def _chains(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chains C <= B <= D sorted by (C, B, D); base-4 digit i of the
    code places element i outside D, in D only, in B only, or in C.

    Not cached: arrays kept alive above a freed 2^24-cell table stop the
    heap from shrinking, which raised peak RSS by 20 MB at n = 8.
    """
    code = np.arange(4**size)
    key = np.zeros_like(code)  # C, B, D side by side: sorts as (C, B, D)
    for i in range(size):
        place = code >> 2 * i & 3
        bits = (place == 3) << 2 * size | (place >= 2) << size | (place >= 1)
        key |= bits << i
    key.sort()
    full = (1 << size) - 1
    return key >> 2 * size, key >> size & full, key & full


def _scan_chain(t3: np.ndarray, left: bool, transitive: bool):
    """With t[x, y] = r(A, x, y), or r(x, A, y) for the left forms, a chain
    violates BMON by t[D, C] and not t[D, B], and TRA by t[B, C] and
    t[D, B] and not t[D, C]."""
    count = t3.shape[0]
    c, b, d = _chains(count.bit_length() - 1)
    dc, db, bc = d * count + c, d * count + b, b * count + c
    for a in range(count):
        t = (t3[:, a] if left else t3[a]).ravel()
        if transitive:
            viol = t[bc] & t[db] & ~t[dc]
        else:
            viol = t[dc] & ~t[db]
        if viol.any():
            i = int(np.argmax(viol))
            return (a, int(c[i]), int(b[i]), int(d[i]))
    return None


def _zeta_or(t: np.ndarray, var: int, up: bool, clear: tuple[int, ...] = ()):
    """OR each cell of an [A, B, C] table, in place, over the supersets
    (up) or subsets of its `var` index, one pass per bit i; the pass for
    bit i skips the cells where a variable in `clear` has bit i."""
    size = len(t).bit_length() - 1
    cube = t.reshape((2,) * (3 * size))
    for i in range(size):
        at = [slice(None)] * (3 * size)
        for v in clear:
            at[v * size + size - 1 - i] = 0
        src, dst = list(at), at
        src[var * size + size - 1 - i] = 1 if up else 0
        dst[var * size + size - 1 - i] = 0 if up else 1
        cube[tuple(dst)] |= cube[tuple(src)]
    return t


def _scan_mon(t3: np.ndarray, left: bool):
    masks = np.arange(t3.shape[0])
    bad = _zeta_or(t3.copy(), 0 if left else 1, up=True)
    np.greater(bad, t3, out=bad)
    hit = _least_acb(bad)
    if hit is None:
        return None
    a, c, b = hit
    grown = t3[a | masks, b, c] if left else t3[a, b | masks, c]
    return (a, c, b, int(np.argmax(grown)))


#: cells of the base-3 table of one block of A rows; with its temporaries a
#: block then takes about 10 MB
_BLOCK_CELLS = 1 << 21


def _halves(v: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the cells of v whose last index lacks, and has, bit i."""
    v = v.reshape(v.shape[:-1] + (v.shape[-1] >> i + 1, 2, 1 << i))
    return v[..., 0, :], v[..., 1, :]


def _interval_table(rows: np.ndarray, ax: AxiomId) -> np.ndarray:
    """Rows [A, X, Y] of r recoded to [A, code, Y], where the code puts a
    pair of disjoint sets in base 3: digit i is 0 when element i is in
    neither set, 1 when it is in the first, 2 when it is in the second.

    TRA-STRONG: X = B, the pair is (W, B) and the cell is T[A, (W, B), C],
    the OR of r(A, W+V, B+C) over V <= B.  BMON-STRONG: X = C, Y = B, the
    pair is (E, C) and the cell is U[A, (E, C), B], the OR of r(A, B+E+S,
    C) over S <= C.  Both ORs are intervals of the subset lattice, so one
    pass per element i builds them: it turns each 2 x 2 block of bit i of
    (X, Y) into a 3 x 2 block of (digit i, bit i of Y)."""
    count = rows.shape[1]
    size = count.bit_length() - 1
    x = rows
    for i in range(size):  # digits below i are done, bits i and up are not
        x = x.reshape(-1, 2, 3**i, count)
        out = np.empty((len(x), 3, 3**i, count), dtype=bool)
        out[:, 0] = x[:, 0]
        if ax is AxiomId.TRA_STRONG:
            out[:, 1] = x[:, 1]  # i in W
            np.logical_or(x[:, 0], x[:, 1], out=out[:, 2])  # i in V or not
            lack, has = _halves(out[:, 2], i)
            lack[...] = has  # i in B, so in B+C
        else:
            out[:, 1] = x[:, 0]
            lack, has = _halves(out[:, 1], i)
            lack[...] = has  # i in E, so in B+E+S
            out[:, 2] = x[:, 1]
            lack, has = _halves(out[:, 2], i)
            lack |= has  # i in C, and in S or not
        x = out
    return x.reshape(len(rows), 3**size, count)


def _scan_interval(t3: np.ndarray, ax: AxiomId):
    """Least violating (A, C, B) of TRA-STRONG or BMON-STRONG, in blocks of
    A rows that start at one row and double, so an early A stays cheap.

    Some D violates TRA-STRONG at (A, C, B) exactly when r(A, B, C) holds
    and some W outside B has T[A, (W, B), C] and not r(A, B+W, C); some D
    violates BMON-STRONG exactly when some E outside C has U[A, (E, C), B]
    and not r(A, B, C+E).  So a block marks the codes whose cell holds
    while r fails at the union of the pair, then ORs each digit's values
    0 and 1 into bit value 0, leaving B (C) as the second set."""
    count = len(t3)
    size = count.bit_length() - 1
    code = np.arange(3**size)
    union = np.zeros_like(code)  # W+B (E+C): the elements of nonzero digit
    for i in range(size):
        union |= (code // 3**i % 3 != 0).astype(union.dtype) << i
    cap = max(1, _BLOCK_CELLS // (3**size * count))
    lo = 0
    while lo < count:
        hi = min(count, lo + min(cap, max(lo, 1)))
        rows = t3[lo:hi]
        if ax is AxiomId.BMON_STRONG:
            rows = np.ascontiguousarray(rows.transpose(0, 2, 1))
        marked = np.greater(_interval_table(rows, ax), rows[:, union])
        for i in range(size):  # digit i from the top: 0 and 1 OR into bit 0
            marked = marked.reshape(len(rows) << i, 3, -1)
            merged = np.empty((len(marked), 2, marked.shape[2]), dtype=bool)
            np.logical_or(marked[:, 0], marked[:, 1], out=merged[:, 0])
            merged[:, 1] = marked[:, 2]
            marked = merged
        viol = marked.reshape(rows.shape)
        if ax is AxiomId.TRA_STRONG:
            viol &= rows
            hit = _least_acb(viol)
        else:  # [A, C, B] already
            hit = first_true(viol)
        if hit is not None:
            return (lo + hit[0],) + hit[1:]
        lo = hi
    return None


def _scan_free(t3: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Least (A, C, B) where r(A, B, C) holds and r(A, B, D) fails for some
    D in [C & (A+B), C]: a subset-OR of not r along C over the bits outside
    A+B."""
    bad = _zeta_or(~t3, 2, up=False, clear=(0, 1))
    bad &= t3
    return _least_acb(bad)


def _least_d(t3: np.ndarray, ax: AxiomId, a: int, c: int, b: int):
    """Complete a violating (A, C, B) with its least D."""
    d = np.arange(len(t3))
    if ax is AxiomId.TRA_STRONG:
        ok = t3[a, d, b | c] & ~t3[a, b | d, c]
    elif ax is AxiomId.BMON_STRONG:
        ok = t3[a, b | d, c] & ~t3[a, b, c | d]
    else:  # FREE
        ok = (c & (a | b) & ~d == 0) & (d & ~c == 0) & ~t3[a, b]
    return (a, c, b, int(np.argmax(ok)))


_CHAIN_AXIOMS = {  # axiom -> (left form, transitive form)
    AxiomId.BMON_R: (False, False),
    AxiomId.BMON_L: (True, False),
    AxiomId.TRA_R: (False, True),
    AxiomId.TRA_L: (True, True),
}


def _require_op(ax: AxiomId, op: Optional[ClosureOperator]) -> ClosureOperator:
    if op is None:
        raise MissingClosure(f"axiom {ax.value} needs a closure operator")
    return op


def _find_violation(
    r: TernaryRelation, ax: AxiomId, op: Optional[ClosureOperator]
) -> Optional[tuple[int, ...]]:
    t3 = materialize(r).table
    count = r.ground.subset_count
    masks = np.arange(count)

    if ax is AxiomId.EX:
        return first_true(~t3[:, masks, masks])

    # Planes are (B, C); t3[a] is the row of r(a, B, C).
    orm = masks[:, None] | masks[None, :]  # (B, C): B+C

    if ax is AxiomId.SYM:
        return _scan_3var(count, lambda a: t3[a] & ~t3[:, a])

    if ax is AxiomId.NOR_R:
        cells = orm * count + masks  # flat index of (B+C, C) in a row
        return _scan_3var(count, lambda a: t3[a] & ~t3[a].ravel()[cells])

    if ax is AxiomId.NOR_L:
        return _scan_3var(count, lambda a: t3[a] & ~t3[a | masks, :, masks].T)

    if ax in (AxiomId.CLO_R, AxiomId.CLO_L, AxiomId.SCLO, AxiomId.AREF):
        cl = _require_op(ax, op).table
        if ax is AxiomId.CLO_R:
            return _scan_3var(count, lambda a: t3[a] & ~t3[a][cl])
        if ax is AxiomId.CLO_L:
            return _scan_3var(count, lambda a: t3[a] & ~t3[cl[a]])
        if ax is AxiomId.SCLO:
            rows = t3.reshape(count, -1)
            cells = cl[orm] * count + cl  # (cl(B+C), cl(C)) in a row
            return _scan_3var(
                count, lambda a: t3[a] ^ rows[cl[a | masks], cells]
            )
        # AREF: (a, C) with r({a}, {a}, C) and a outside cl(C)
        elems = np.arange(r.ground.size)[:, None]
        bits = 1 << elems
        hit = first_true(t3[bits, bits, masks] & (cl >> elems & 1 == 0))
        return None if hit is None else (1 << hit[0], hit[1])

    if ax in _CHAIN_AXIOMS:
        return _scan_chain(t3, *_CHAIN_AXIOMS[ax])

    if ax in (AxiomId.MON_R, AxiomId.MON_L):
        return _scan_mon(t3, left=ax is AxiomId.MON_L)

    if ax in (AxiomId.TRA_STRONG, AxiomId.BMON_STRONG, AxiomId.FREE):
        hit = _scan_free(t3) if ax is AxiomId.FREE else _scan_interval(t3, ax)
        return None if hit is None else _least_d(t3, ax, *hit)

    raise ValueError(f"axiom {ax} has no scan")  # pragma: no cover


def check_axiom(
    r: TernaryRelation, ax: AxiomId, op: Optional[ClosureOperator] = None
) -> AxiomReport:
    """Exhaustively check one axiom; first violation in scan order is reported."""
    if ax in (AxiomId.FIN, AxiomId.LOC):
        return AxiomReport(ax, r.name, "vacuous", None, _VACUOUS_NOTES[ax])
    if ax.needs_closure:
        _require_op(ax, op)
    witness = _find_violation(r, ax, op)
    status = "pass" if witness is None else "fail"
    return AxiomReport(ax, r.name, status, witness)


def check_all(
    r: TernaryRelation,
    op: Optional[ClosureOperator] = None,
    axiom_ids: Optional[Sequence[AxiomId]] = None,
) -> list[AxiomReport]:
    """One report per applicable axiom, in stable catalogue order."""
    selected = list(axiom_ids) if axiom_ids is not None else list(AXIOM_ORDER)
    reports = []
    for ax in selected:
        if ax.needs_closure and op is None:
            continue
        reports.append(check_axiom(r, ax, op))
    return reports


def evaluate_axiom_body(
    r: TernaryRelation,
    ax: AxiomId,
    witness: Sequence[int],
    op: Optional[ClosureOperator] = None,
) -> bool:
    """Re-evaluate the quantifier-free body of an axiom on one tuple.

    Returns True when the tuple satisfies the implication (i.e. is NOT a
    violation).  Used for witness soundness checks.
    """
    i = lambda k: int(witness[k])  # noqa: E731

    def sub(x: int, y: int) -> bool:
        return x & ~y == 0

    if ax is AxiomId.EX:
        return r.holds(i(0), i(1), i(1))
    if ax is AxiomId.SYM:
        return not r.holds(i(0), i(2), i(1)) or r.holds(i(2), i(0), i(1))
    if ax is AxiomId.NOR_R:
        return not r.holds(i(0), i(2), i(1)) or r.holds(i(0), i(2) | i(1), i(1))
    if ax is AxiomId.NOR_L:
        return not r.holds(i(0), i(2), i(1)) or r.holds(i(0) | i(1), i(2), i(1))
    if ax is AxiomId.AREF:
        cl = _require_op(ax, op).table
        a = i(0).bit_length() - 1
        return not r.holds(i(0), i(0), i(1)) or bool(cl[i(1)] >> a & 1)
    if ax is AxiomId.CLO_R:
        cl = _require_op(ax, op).table
        return not r.holds(i(0), i(2), i(1)) or r.holds(i(0), int(cl[i(2)]), i(1))
    if ax is AxiomId.CLO_L:
        cl = _require_op(ax, op).table
        return not r.holds(i(0), i(2), i(1)) or r.holds(int(cl[i(0)]), i(2), i(1))
    if ax is AxiomId.SCLO:
        cl = _require_op(ax, op).table
        a, c, b = i(0), i(1), i(2)
        return r.holds(a, b, c) == r.holds(
            int(cl[a | c]), int(cl[b | c]), int(cl[c]))
    a, c, b, d = i(0), i(1), i(2), i(3)
    if ax is AxiomId.MON_R:
        return not r.holds(a, b | d, c) or r.holds(a, b, c)
    if ax is AxiomId.MON_L:
        return not r.holds(a | d, b, c) or r.holds(a, b, c)
    if ax is AxiomId.BMON_R:
        in_chain = sub(c, b) and sub(b, d)
        return not (in_chain and r.holds(a, d, c)) or r.holds(a, d, b)
    if ax is AxiomId.BMON_L:
        in_chain = sub(c, b) and sub(b, d)
        return not (in_chain and r.holds(d, a, c)) or r.holds(d, a, b)
    if ax is AxiomId.TRA_R:
        in_chain = sub(c, b) and sub(b, d)
        prem = in_chain and r.holds(a, b, c) and r.holds(a, d, b)
        return not prem or r.holds(a, d, c)
    if ax is AxiomId.TRA_L:
        in_chain = sub(c, b) and sub(b, d)
        prem = in_chain and r.holds(b, a, c) and r.holds(d, a, b)
        return not prem or r.holds(d, a, c)
    if ax is AxiomId.TRA_STRONG:
        prem = r.holds(a, b, c) and r.holds(a, d, b | c)
        return not prem or r.holds(a, b | d, c)
    if ax is AxiomId.BMON_STRONG:
        return not r.holds(a, b | d, c) or r.holds(a, b, c | d)
    if ax is AxiomId.FREE:
        prem = r.holds(a, b, c) and sub(c & (a | b), d) and sub(d, c)
        return not prem or r.holds(a, b, d)
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


def enumerate_all_relations(ground: GroundSet) -> Iterable[TernaryRelation]:
    """All relations on the ground set, by ascending truth-table code.

    Only feasible for ground size 1 (256 relations); larger sizes are
    rejected.
    """
    count = ground.subset_count
    cells = count**3
    if cells > 8:
        raise CapExceeded(
            f"relation enumeration needs 2^{cells} tables; only size <= 1 supported"
        )
    for code in range(1 << cells):
        bits = [(code >> k) & 1 for k in range(cells)]
        table = np.array(bits, dtype=bool).reshape((count, count, count))
        yield from_table(ground, f"rel{code}", table)
