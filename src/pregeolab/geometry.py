"""Independence, bases, dimension and the modularity test.

Dimension is defined only on pregeometries: without exchange, maximal
independent subsets need not all have the same size, so the greedy basis
is meaningless.  is_independent works for any closure operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closure import ClosureOperator, MaskLike, Pregeometry, as_mask
from .lattice import elements_of, format_witness, submasks


@dataclass(frozen=True)
class DimResult:
    """Dimension together with the greedy basis witnessing it."""

    value: int
    basis: int


def is_independent(op: ClosureOperator, subset: MaskLike, over: MaskLike = 0) -> bool:
    """True iff every a in A satisfies a not in cl(B + (A - a))."""
    a_mask = as_mask(subset)
    b_mask = as_mask(over)
    for a in elements_of(a_mask):
        if op.table[b_mask | (a_mask & ~(1 << a))] >> a & 1:
            return False
    return True


def basis_of(pg: Pregeometry, subset: MaskLike, over: MaskLike = 0) -> DimResult:
    """Greedy basis of A over B, scanning elements of A in ascending order."""
    a_mask = as_mask(subset)
    b_mask = as_mask(over)
    table = pg.op.table
    basis = 0
    for a in elements_of(a_mask):
        if not table[b_mask | basis] >> a & 1:
            basis |= 1 << a
    return DimResult(basis.bit_count(), basis)


def dim(pg: Pregeometry, subset: MaskLike, over: MaskLike = 0) -> int:
    return basis_of(pg, subset, over).value


def brute_dim_oracle(pg: Pregeometry, subset: MaskLike, over: MaskLike = 0) -> int:
    """Max cardinality over ALL independent X <= A; test oracle, no greedy."""
    a_mask = as_mask(subset)
    b_mask = as_mask(over)
    best = 0
    for x in submasks(a_mask):
        if x.bit_count() > best and is_independent(pg.op, x, b_mask):
            best = x.bit_count()
    return best


@functools.lru_cache(maxsize=64)
def dim_table(pg: Pregeometry) -> tuple[tuple[int, ...], ...]:
    """dim(A/B) for every pair of masks; row index A, column index B."""
    count = pg.ground.subset_count
    return tuple(
        tuple(dim(pg, a, b) for b in range(count)) for a in range(count)
    )


def least_unreached(op: ClosureOperator) -> Optional[tuple[int, int, int]]:
    """Least (A, B, {x}) with x in cl(A+B) but in no cl(i+j) with i, j
    parts of at most one element of cl(A) and cl(B); None if none.

    The empty part keeps the statement meaningful when cl(A) is empty.
    reach(A, B), the OR of those cl(i+j), is two masked OR-reductions of
    the (n+1)^2 matrix of pair closures, and x is the lowest bit of
    cl(A+B) outside it.
    """
    count = op.ground.subset_count
    cl = np.array(op.table, dtype=np.int64)
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
    hits = np.flatnonzero(unreached)
    if len(hits) == 0:
        return None
    a, b = divmod(int(hits[0]), count)
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

    op = pg.op
    table = op.table
    count = pg.ground.subset_count
    conditions: dict[int, bool] = {}
    witnesses: dict[int, tuple[int, ...]] = {}

    w1 = least_unreached(op)
    conditions[1] = w1 is None
    if w1:
        witnesses[1] = w1

    rel_a = relcalc.rel_a(op)
    report = check_axiom(rel_a, AxiomId.BMON_R, op)
    conditions[2] = report.status == "pass"
    if report.witness is not None:
        witnesses[2] = report.witness

    cmp = compare(rel_a, relcalc.rel_cl(pg))
    conditions[3] = cmp.verdict == "equal"
    if cmp.witness is not None:
        witnesses[3] = cmp.witness

    dims = dim_table(pg)
    w4 = None
    for a_mask in range(count):
        for b_mask in range(count):
            base = table[a_mask] & table[b_mask]
            if dims[a_mask][b_mask | base] != dims[a_mask][base]:
                w4 = (a_mask, b_mask)
                break
        if w4:
            break
    conditions[4] = w4 is None
    if w4:
        witnesses[4] = w4

    closed = op.closed_masks()
    w5 = None
    for a_mask in closed:
        for b_mask in closed:
            lhs = dims[a_mask | b_mask][0] + dims[a_mask & b_mask][0]
            rhs = dims[a_mask][0] + dims[b_mask][0]
            if lhs != rhs:
                w5 = (a_mask, b_mask)
                break
        if w5:
            break
    conditions[5] = w5 is None
    if w5:
        witnesses[5] = w5

    return ModularityVerdict(conditions, witnesses)
