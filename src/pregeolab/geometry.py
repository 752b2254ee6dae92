"""Independence, bases, dimension and the modularity test.

Dimension is defined only on pregeometries: without exchange, maximal
independent subsets need not all have the same size, so the greedy basis
is meaningless.  `independence_table` works for any closure operator.

Like the closure table, the layer is arrays over pairs of masks, each
built in n passes: `independence_table` [I, X], and `dim_table`, dim(A/X)
as one read-only int8 array [A, X].  The `dim-laws` suite and
modularity conditions 4 and 5 index `dim_table`.  The dimension
relation reads only `rank_vector`, dim(A) for every A, since in a
pregeometry dim(A/X) = dim(A + X) - dim(X); its scalar predicate still
reads `dim_table`, so the two routes stay independent.  Every law is a
boolean violation array whose least witness is its first true cell
(`lattice.first_true`).  `basis_of` stays scalar for the `dim` and
`basis` queries and as a test reference, and `brute_dim_oracle`, a
maximum over all independent subsets rather than the greedy, is the
independent oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .closure import ClosureOperator, Pregeometry
from .lattice import elements_of, first_true, format_witness


@dataclass(frozen=True)
class DimResult:
    """Dimension together with the greedy basis witnessing it."""

    value: int
    basis: int


def independence_table(op: ClosureOperator) -> np.ndarray:
    """(I, X): no a in I lies in cl(X + (I - a)), as a bool array; the
    pass for element i clears the (I, X) with i in I and cl(X + (I - i))."""
    count = op.ground.subset_count
    masks = np.arange(count)
    independent = np.ones((count, count), dtype=bool)
    for i in range(op.ground.size):
        rows = (count >> i + 1, 2, 1 << i)  # [:, 1]: the I with i
        rest = masks.reshape(rows)[:, 0, :, None]  # I - i
        independent.reshape(rows + (count,))[:, 1] &= (
            op.table[rest | masks] >> i & 1 == 0)
    return independent


def basis_of(pg: Pregeometry, subset: int, over: int = 0) -> DimResult:
    """Greedy basis of A over B, scanning elements of A in ascending order."""
    table = pg.op.table
    basis = 0
    for a in elements_of(subset):
        if not table[over | basis] >> a & 1:
            basis |= 1 << a
    return DimResult(basis.bit_count(), basis)


def brute_dim_oracle(pg: Pregeometry) -> np.ndarray:
    """dim(A/X) as the largest |I| over ALL independent I <= A over X,
    an int8 array [A, X]; the test oracle for `dim_table`, no greedy.
    |I| on the independent (I, X) is maximised over I <= A, one pass
    per element i from each A - i to A."""
    count = pg.ground.subset_count
    sizes = np.arange(count)[:, None] >> np.arange(pg.ground.size) & 1
    best = np.where(independence_table(pg.op), sizes.sum(1)[:, None], 0)
    best = best.astype(np.int8)
    for i in range(pg.ground.size):
        rows = best.reshape(count >> i + 1, 2, 1 << i, count)
        np.maximum(rows[:, 1], rows[:, 0], out=rows[:, 1])
    return best


class CacheInfo(NamedTuple):
    hits: int
    misses: int


#: dim_table per closure operator, dropped with the operator
_DIMS: "weakref.WeakKeyDictionary[ClosureOperator, np.ndarray]" = (
    weakref.WeakKeyDictionary())
_dim_calls = {"hits": 0, "misses": 0}


def dim_table(pg: Pregeometry) -> np.ndarray:
    """dim(A/X) for every pair of masks: a read-only, C-contiguous int8
    array indexed [A, X].

    The greedy of `basis_of` runs on every cell at once, one pass per
    element i in ascending order: a cell (A, X) with i in A takes i into
    its basis when i is outside cl(X + the basis so far).  So every cell
    is basis_of(pg, A, X).value.  The table is cached for as long as the
    closure operator of `pg` lives, which for a catalog operator is the
    whole process; `dim_table.cache_info()` counts the calls it answered
    and the tables it built.
    """
    dims = _DIMS.get(pg.op)
    if dims is None:
        _dim_calls["misses"] += 1
        dims = _DIMS[pg.op] = _build_dim_table(pg)
    else:
        _dim_calls["hits"] += 1
    return dims


dim_table.cache_info = lambda: CacheInfo(**_dim_calls)  # type: ignore[attr-defined]


def _build_dim_table(pg: Pregeometry) -> np.ndarray:
    count = pg.ground.subset_count
    masks = np.arange(count, dtype=np.min_scalar_type(count - 1))
    span = np.tile(masks, (count, 1))  # (A, X): X + the basis so far
    dims = np.zeros((count, count), dtype=np.int8)
    for i in range(pg.ground.size):
        rows = (count >> i + 1, 2, 1 << i, count)  # [:, 1]: the A with i
        grow, dim_rows = span.reshape(rows)[:, 1], dims.reshape(rows)[:, 1]
        take = pg.op.table[grow] >> i & 1 == 0
        np.bitwise_or(grow, 1 << i, out=grow, where=take)
        np.add(dim_rows, 1, out=dim_rows, where=take)
    dims.flags.writeable = False
    return dims


def rank_vector(pg: Pregeometry) -> np.ndarray:
    """dim(A) for every mask A, an int8 array: n passes, the one for
    element t filling the masks whose top element is t from the masks
    below 2^t, rank(A + t) = rank(A) + (t not in cl(A)).  In a
    pregeometry dim(A/X) = rank(A + X) - rank(X), so with 2^n cells this
    stands in for the 2^(2n) cells of `dim_table`."""
    cl = pg.op.table
    rank = np.zeros(pg.ground.subset_count, dtype=np.int8)
    for t in range(pg.ground.size):
        lo = 1 << t
        np.add(rank[:lo], cl[:lo] >> t & 1 == 0, out=rank[lo:2 * lo])
    return rank


def closed_pair_excess(pg: Pregeometry) -> np.ndarray:
    """(A, B): dim(A+B) + dim(A&B) - dim(A) - dim(B) when A and B are
    closed, 0 elsewhere.  The modular law says that it is 0 everywhere,
    submodularity that it is never positive."""
    rank = dim_table(pg)[:, 0]
    masks = np.arange(len(rank))
    excess = (rank[masks[:, None] | masks] + rank[masks[:, None] & masks]
              - rank[:, None] - rank)
    closed = pg.op.table == masks
    return np.where(closed[:, None] & closed, excess, 0)


def least_unreached(op: ClosureOperator) -> Optional[tuple[int, int, int]]:
    """Least (A, B, {x}) with x in cl(A+B) but in no cl(i+j) with i, j
    parts of at most one element of cl(A) and cl(B); None if none.

    The empty part keeps the statement meaningful when cl(A) is empty.
    reach(A, B), the OR of those cl(i+j), is two masked OR-reductions of
    the (n+1)^2 matrix of pair closures, and x is the lowest bit of
    cl(A+B) outside it.
    """
    count = op.ground.subset_count
    cl = op.table
    parts = np.array([0] + [1 << e for e in range(op.ground.size)])
    pair = cl[parts[:, None] | parts[None, :]]  # (i, j): cl(i+j)
    inside = cl[:, None] & parts == parts  # (X, i): part i lies in cl(X)
    # (A, j): the OR of cl(i+j) over the parts i of cl(A)
    left = np.bitwise_or.reduce(np.where(inside[:, :, None], pair, 0), axis=1)
    reach = np.bitwise_or.reduce(
        np.where(inside[None, :, :], left[:, None, :], 0), axis=2
    )  # (A, B)
    masks = np.arange(count)
    unreached = cl[masks[:, None] | masks[None, :]] & ~reach
    hit = first_true(unreached != 0)
    if hit is None:
        return None
    a, b = hit
    x = int(unreached[a, b])
    return (a, b, x & -x)


@dataclass(frozen=True)
class ModularityVerdict:
    """Outcome of the five equivalent modularity conditions.

    conditions[k] is the truth value of condition k (1-based);
    witnesses[k] is the least failing tuple when condition k is false.
    """

    conditions: dict[int, bool]
    witnesses: dict[int, tuple[int, ...]]

    @property
    def modular(self) -> bool:
        return all(self.conditions.values())

    @property
    def agree(self) -> bool:
        return len(set(self.conditions.values())) == 1

    def describe(self) -> str:
        lines = []
        for k in sorted(self.conditions):
            if self.conditions[k]:
                lines.append(f"condition-{k} pass")
            else:
                w = format_witness(self.witnesses[k])
                lines.append(f"condition-{k} fail witness={w}")
        return "\n".join(lines)


def check_modular(pg: Pregeometry) -> ModularityVerdict:
    """Evaluate the five modularity conditions exhaustively.

    (1) x in cl(AB) implies x in cl(ab) for singletons a in cl(A), b in cl(B);
    (2) the closure-intersection relation satisfies right base monotonicity;
    (3) that relation coincides with the dimension relation as truth tables;
    (4) A is dimension-independent from B over cl(A) & cl(B), for all A, B;
    (5) modular law dim(AB) + dim(A&B) = dim(A) + dim(B) on closed pairs.
    """
    # Imported here: relcalc builds on geometry for the dimension relation.
    from . import relcalc
    from .axioms import AxiomId, check_axiom, compare

    # conditions 2 and 3 build relations of 2^(3n) cells; refuse before
    # any count^2 work
    relcalc.check_table_budget(pg.ground)
    op = pg.op
    rel_a = relcalc.rel_a(op)
    cl = op.table
    base = cl[:, None] & cl  # (A, B): cl(A) & cl(B), the base of (4)
    dims = dim_table(pg)
    masks = np.arange(len(cl))
    a = masks[:, None]
    found = {
        1: least_unreached(op),
        2: check_axiom(rel_a, AxiomId.BMON_R, op).witness,
        3: compare(rel_a, relcalc.rel_cl(pg)).witness,
        4: first_true(dims[a, masks | base] != dims[a, base]),
        5: first_true(closed_pair_excess(pg) != 0),
    }
    conditions = {k: w is None for k, w in found.items()}
    witnesses = {k: w for k, w in found.items() if w is not None}
    return ModularityVerdict(conditions, witnesses)
