"""Concrete instances: closure operators, graphs with their stationary
independence relation, linear orders with the dividing relation, and a
line-oriented instance file format.

Element conventions:
  * linear instances: elements are column indices into the vector list
  * graph instances: vertices 0..n-1, edges unordered pairs
  * order instances: element i carries the i-th point of a strictly
    increasing rational sequence
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .closure import ClosureOperator, Pregeometry, from_table as operator_from_table, trivial_closure
from .lattice import GroundSet, elements_of, parse_mask
from .relcalc import (
    DEFAULT_TABLE_CAP_BITS,
    TernaryRelation,
    closure_extend_c,
    monotonise_M,
    monotonise_m,
    opposite,
    rel_a,
    rel_cl,
    rel_intersection,
    rel_sup,
)


# ---------------------------------------------------------------------------
# Closure operator constructors


def gebert_closure(size: int) -> ClosureOperator:
    """Initial-segment closure: cl(A) = {0, ..., max A}, cl(empty) = empty.

    A closure operator that is not a pregeometry; its nonempty
    independent sets are exactly the singletons, so sets of two or more
    elements have no basis inside their own closure.
    """
    if size < 1:
        raise ValueError("initial-segment closure needs at least one element")
    ground = GroundSet(size)
    table = [0] + [
        (1 << m.bit_length()) - 1 for m in range(1, ground.subset_count)
    ]
    return operator_from_table(ground, table)


def uniform_pregeometry(rank: int, size: int) -> Pregeometry:
    """Sets with fewer than `rank` elements are closed; the rest span everything."""
    if not 0 <= rank <= size:
        raise ValueError("need 0 <= rank <= size")
    ground = GroundSet(size)
    table = [
        m if bin(m).count("1") < rank else ground.full_mask
        for m in range(ground.subset_count)
    ]
    return Pregeometry(operator_from_table(ground, table))


def linear_pregeometry(vectors: Sequence[Sequence[int]], modulus: int) -> Pregeometry:
    """Span closure on a list of column vectors over GF(modulus).

    cl(A) = { i : vectors[i] lies in the span of {vectors[j] : j in A} }.
    Supported moduli: 2 and 3.

    The spans grow by batched Gaussian elimination.  red[A, i] is
    vectors[i] reduced against an echelon basis of the span of A, so it
    is zero exactly when vectors[i] lies in that span.  Level t fills the
    masks with top element t from the masks below 2^t in one step: the
    pivot of A + t is the first nonzero coordinate p of red[A, t], and
    every red[A, i] sheds red[A, i, p] * w times red[A, t], w = red[A, t,
    p], which is its own inverse mod 2 and mod 3, so that red[A + t, i, p]
    is 0.  Coordinates beyond n are first cut by row-reducing the
    vectors, which keeps every linear relation among them.

    A ValueError refuses the input by what storing every span as a list
    of its vectors would cost: `dim` coordinates for the empty span, and
    modulus * q^rank(A) * dim more for each A + t whose top element t
    grows the span of A.  Once a level adds to that count and it exceeds
    `DEFAULT_TABLE_CAP_BITS`, the input is refused before the level is
    written (`red` is `np.empty`, so no page of the levels above is
    touched).
    """
    if modulus not in (2, 3):
        raise ValueError("only GF(2) and GF(3) are supported")
    cols = (np.array([list(v) for v in vectors], dtype=np.int64).T
            % modulus).astype(np.int8)  # sums below stay at most 18
    if cols.ndim != 2 or cols.shape[1] == 0:
        raise ValueError("need at least one vector")
    dim, n = cols.shape
    ground = GroundSet(n)
    if dim > n:
        cols = _row_reduce(cols, modulus)
    if not len(cols):  # no coordinates: every vector is zero
        cols = np.zeros((1, n), dtype=np.int8)
    table = _span_closure(cols, modulus, dim)
    return Pregeometry(operator_from_table(ground, table))


def _span_closure(cols: np.ndarray, modulus: int, dim: int) -> np.ndarray:
    """cl(A) for every mask A, as `linear_pregeometry` says, from the
    columns `cols` reduced mod `modulus`; `dim` coordinates count towards
    the budget."""
    n = cols.shape[1]
    count = 1 << n
    red = np.empty((count, n, len(cols)), dtype=np.int8)  # [A, i, coordinate]
    red[0] = cols.T
    rank = np.zeros(count, dtype=np.intp)  # rank[A]: the dimension of span(A)
    # modulus^(rank + 1): the vectors t adds to the span of A, over each
    # of the modulus^rank vectors of the span
    grown = np.array([modulus ** (j + 1) for j in range(n + 1)])
    stored = dim  # coordinates the span lists would hold
    for t in range(n):
        lo = 1 << t
        row = red[:lo, t]  # [A, coordinate]: vectors[t] reduced against A
        grows = row.any(axis=1)
        added = dim * int(grown[rank[:lo][grows]].sum())
        stored += added
        if added and stored > DEFAULT_TABLE_CAP_BITS:
            raise ValueError(
                f"the spans of {n} vectors need more than"
                f" {DEFAULT_TABLE_CAP_BITS} coordinates")
        at = np.arange(lo)
        pivot = (row != 0).argmax(axis=1)  # the first nonzero coordinate
        # -red[A, i, p] * w mod q; 0 where vectors[t] is in span(A)
        factor = red[at, :, pivot] * (row[at, pivot] * (modulus - 1))[:, None]
        step = red[lo:2 * lo]
        np.multiply(factor[:, :, None], row[:, None, :], out=step)
        np.add(step, red[:lo], out=step)
        np.remainder(step, modulus, out=step)
        rank[lo:2 * lo] = rank[:lo] + grows
    inside = ~red.any(axis=2)  # [A, i]: vectors[i] in span(A)
    return (inside << np.arange(n)).sum(axis=1)


def _row_reduce(cols: np.ndarray, modulus: int) -> np.ndarray:
    """The nonzero rows of an echelon form of `cols` (coordinates x
    vectors) over GF(modulus): at most one row per vector, and the same
    linear relations among the columns."""
    m = cols.copy()
    rank = 0
    for j in range(m.shape[1]):
        below = np.flatnonzero(m[rank:, j])
        if not len(below):
            continue
        k = rank + below[0]
        m[[rank, k]] = m[[k, rank]]
        m[rank] = m[rank] * m[rank, j] % modulus  # the pivot becomes 1
        m[rank + 1:] = (m[rank + 1:] - m[rank + 1:, j, None] * m[rank]) % modulus
        rank += 1
        if rank == len(m):
            break
    return m[:rank]


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..size-1."""

    size: int
    edges: frozenset[frozenset[int]]

    @classmethod
    def build(cls, size: int, pairs: Sequence[tuple[int, int]]) -> "Graph":
        GroundSet(size)  # raises ValueError on a size out of range
        edges = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < size and 0 <= v < size):
                raise ValueError(f"edge {u}-{v} out of range")
            edges.add(frozenset((u, v)))
        return cls(size, frozenset(edges))

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.size
        for e in self.edges:
            u, v = sorted(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.size)


def rel_st(graph: Graph) -> TernaryRelation:
    """Stationary independence on a graph.

    A is independent from B over C when A and B meet inside C and every
    edge between A and B has an endpoint in C (no new connections appear
    when A and B are put together over C).
    """
    ground = graph.ground
    adj = graph.adjacency_masks()
    count = ground.subset_count

    def fn(a: int, b: int, c: int) -> bool:
        if a & b & ~c:
            return False
        for u in elements_of(a & ~c):
            if adj[u] & b & ~c:
                return False
        return True

    def builder() -> np.ndarray:
        # A and its neighbourhood off C must miss B \ C.
        masks = np.arange(count, dtype=np.min_scalar_type(count - 1))
        reach = np.zeros_like(masks)  # reach[m]: neighbourhood of m
        for u in range(graph.size):
            reach[masks >> u & 1 == 1] |= adj[u]
        off_base = masks[:, None] & ~masks[None, :]  # (X, C): X \ C
        blocked = masks[:, None] | reach[off_base]  # (A, C): A + N(A \ C)
        # (A, B, C): B \ C misses what A blocks over C; one byte per cell,
        # tested for 0 in place, so the table is the one 2^(3n) array
        table = np.bitwise_and(off_base, blocked[:, None, :])
        return np.equal(table, 0, out=table.view(bool))

    return TernaryRelation(ground, "st", fn, builder=builder)


class BaseMismatch(Exception):
    """The two graphs disagree on their shared base part."""


def free_amalgam(g1: Graph, g2: Graph, base: Sequence[int]) -> Graph:
    """Glue g1 and g2 along a common base, adding no new edges.

    `base` lists the vertices of the base inside g1; inside g2 the base
    occupies vertices 0..len(base)-1 in the same order, and both graphs
    must induce the same edges on it.  Non-base vertices of g2 are
    relabelled to fresh vertices after g1.
    """
    k = len(base)
    if sorted(set(base)) != sorted(base):
        raise ValueError("base vertices must be distinct")
    if any(not 0 <= v < g1.size for v in base):
        raise ValueError("base vertex out of range in first graph")
    if k > g2.size:
        raise ValueError("base larger than second graph")
    for i in range(k):
        for j in range(i + 1, k):
            if g1.has_edge(base[i], base[j]) != g2.has_edge(i, j):
                raise BaseMismatch(
                    f"edge {base[i]}-{base[j]} disagrees between the parts"
                )
    relabel = {i: base[i] for i in range(k)}
    nxt = g1.size
    for v in range(k, g2.size):
        relabel[v] = nxt
        nxt += 1
    pairs = [tuple(sorted(e)) for e in g1.edges]
    for e in g2.edges:
        u, v = sorted(e)
        ru, rv = relabel[u], relabel[v]
        if ru in base and rv in base:
            continue
        pairs.append((min(ru, rv), max(ru, rv)))
    return Graph.build(nxt, pairs)


def isomorphic_over_base(g1: Graph, g2: Graph, base: Sequence[int]) -> bool:
    """True when some isomorphism g1 -> g2 fixes every base vertex.

    Brute force over permutations of the non-base vertices, looking each
    mapped edge of g1 up in the adjacency masks of g2.  The degree
    sequences agree first, so the edge counts are equal and a permutation
    that maps every edge onto an edge is an isomorphism.  The scalar
    definition that `canonical_codes` is tested against; small graphs
    only (at most ~6 free vertices).
    """
    if g1.size != g2.size:
        return False
    adj1, adj2 = g1.adjacency_masks(), g2.adjacency_masks()
    if sorted(map(int.bit_count, adj1)) != sorted(map(int.bit_count, adj2)):
        return False
    edges1 = [tuple(e) for e in g1.edges]
    fixed = set(base)
    free = [v for v in range(g1.size) if v not in fixed]
    mapping = list(range(g1.size))
    for perm in permutations(free):
        for v, w in zip(free, perm):
            mapping[v] = w
        if all(adj2[mapping[u]] >> mapping[v] & 1 for u, v in edges1):
            return True
    return False


# ---------------------------------------------------------------------------
# Edge codes: a labeled graph on `size` vertices as one integer, bit k set
# when the graph has the k-th vertex pair in `combinations` order.  Arrays
# of codes let the graph checks run many graphs per numpy call.


def graph_of_code(size: int, code: int) -> Graph:
    """The labeled graph on `size` vertices with edge code `code`."""
    slots = list(combinations(range(size), 2))
    return Graph.build(size, [slots[k] for k in range(len(slots)) if code >> k & 1])


def _relabel_tables(
    size: int, maps: Sequence[Sequence[int]], target_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lookup tables moving codes on `size` vertices along vertex maps.

    Row i relabels a code by the injective map `maps[i]` (vertex v goes
    to `maps[i][v]`, below `target_size`) as
    `lo[i, code & 255] | hi[i, code >> 8]`.  Splitting off the low byte
    keeps the tables small: 256 + 128 entries per map at six vertices
    instead of 2^15.
    """
    slots = list(combinations(range(size), 2))
    us, vs = np.array(slots, dtype=np.int64).reshape(len(slots), 2).T
    maps = np.asarray(maps, dtype=np.int64).reshape(len(maps), size)
    lo = np.minimum(maps[:, us], maps[:, vs])
    hi = np.maximum(maps[:, us], maps[:, vs])
    # the slot of pair (lo, hi) in `combinations` order on target_size vertices
    bits = np.int64(1) << (lo * target_size - lo * (lo + 1) // 2 + hi - lo - 1)
    low = min(len(us), 8)

    def table(part: np.ndarray) -> np.ndarray:
        count = part.shape[1]
        digits = np.arange(1 << count)[:, None] >> np.arange(count) & 1
        return (digits @ part.T).T  # (maps, 2^count): OR of disjoint bits

    return table(bits[:, :low]), table(bits[:, low:])


def relabel_codes(
    codes: np.ndarray, size: int, maps: Sequence[Sequence[int]],
    target_size: Optional[int] = None,
) -> np.ndarray:
    """`codes` (graphs on `size` vertices) relabelled by each vertex map
    in `maps`, as codes on `target_size` vertices (default `size`); the
    result has shape (len(maps), *codes.shape)."""
    codes = np.asarray(codes, dtype=np.int64)
    lo, hi = _relabel_tables(size, maps, target_size or size)
    return lo[:, codes & 255] | hi[:, codes >> 8]


def canonical_codes(codes: np.ndarray, size: int, fixed: int) -> np.ndarray:
    """The least code each of `codes` takes under the permutations of the
    vertices fixed..size-1 that fix vertices 0..fixed-1.

    Two graphs on `size` vertices are isomorphic over the base 0..fixed-1
    (`isomorphic_over_base`) exactly when their canonical codes are
    equal.  Brute force over the (size - fixed)! permutations, one numpy
    pass each; for the general technique see McKay and Piperno,
    "Practical graph isomorphism II", 2014.
    """
    codes = np.asarray(codes, dtype=np.int64)
    head = tuple(range(fixed))
    perms = [head + p for p in permutations(range(fixed, size))]
    lo, hi = _relabel_tables(size, perms, size)
    low, high = codes & 255, codes >> 8
    least = codes.copy()
    for lo_row, hi_row in zip(lo, hi):
        np.minimum(least, lo_row[low] | hi_row[high], out=least)
    return least


def st_holds(codes: np.ndarray, size: int, a: int, b: int, c: int) -> np.ndarray:
    """`rel_st(graph).fn(a, b, c)` for the graph of every code.

    The triple is fixed, so `st` is one mask test: A and B must not meet
    off C, and the code must miss every pair that joins a vertex of A
    off C to a vertex of B off C.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if a & b & ~c:
        return np.zeros(codes.shape, dtype=bool)
    a_off = elements_of(a & ~c)
    b_off = elements_of(b & ~c)
    cross = sum(
        1 << k
        for k, (u, v) in enumerate(combinations(range(size), 2))
        if (u in a_off and v in b_off) or (v in a_off and u in b_off)
    )
    return codes & cross == 0


def free_amalgam_codes(
    left: np.ndarray, right: np.ndarray, base_size: int, n1: int, n2: int
) -> np.ndarray:
    """The codes of `free_amalgam(g1, g2, range(base_size))` for every
    left code g1 (on n1 vertices) against every right code g2 (on n2).

    The last axes of `left` and `right` are crossed and the leading axes
    broadcast, so the result has shape (..., left.shape[-1],
    right.shape[-1]).  Left vertices keep their numbers, the free
    vertices of the right part follow them, and both parts must induce
    the same edges on the base (not checked).
    """
    size = n1 + n2 - base_size
    lefts = relabel_codes(left, n1, [range(n1)], size)[0]
    right_map = list(range(base_size)) + list(range(n1, size))
    rights = relabel_codes(right, n2, [right_map], size)[0]
    return lefts[..., :, None] | rights[..., None, :]


# ---------------------------------------------------------------------------
# Linear orders and dividing


@dataclass(frozen=True)
class OrderedConfig:
    """Finite set of rational points on a dense linear order without ends."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")

    @property
    def ground(self) -> GroundSet:
        return GroundSet(len(self.points))


def rel_div(config: OrderedConfig, include_degenerate: bool = True) -> TernaryRelation:
    """Dividing independence on a dense linear order.

    A is independent from B over C when every closed interval with
    endpoints in B (including degenerate one-point intervals, unless
    disabled) that meets A also meets C.  Because the points are stored
    in increasing order, the interval spanned by points i <= j contains
    exactly the points i..j.
    """
    ground = config.ground
    n = len(config.points)
    name = "div" if include_degenerate else "div-strict"
    spans = [
        (i, j, ((1 << (j + 1)) - 1) & ~((1 << i) - 1))
        for i in range(n)
        for j in range(i if include_degenerate else i + 1, n)
    ]

    def fn(a: int, b: int, c: int) -> bool:
        for i, j, span in spans:
            if b >> i & 1 and b >> j & 1 and a & span and not c & span:
                return False
        return True

    def builder() -> np.ndarray:
        # A must miss forbidden[B, C], the union of the spans with both
        # ends in B that miss C.
        count = ground.subset_count
        masks = np.arange(count, dtype=np.min_scalar_type(count - 1))
        forbidden = np.zeros((count, count), dtype=masks.dtype)
        for i, j, span in spans:
            b_has = masks >> i & masks >> j & 1 == 1
            forbidden[np.ix_(b_has, masks & span == 0)] |= span
        table = np.empty((count, count, count), dtype=bool)
        for a in range(count):
            np.equal(forbidden & a, 0, out=table[a])
        return table

    return TernaryRelation(ground, name, fn, builder=builder)


# ---------------------------------------------------------------------------
# Catalogue and file format


@dataclass(frozen=True)
class Instance:
    name: str
    op: Optional[ClosureOperator] = None
    pg: Optional[Pregeometry] = field(default=None, compare=False)
    graph: Optional[Graph] = None
    config: Optional[OrderedConfig] = None

    @property
    def kind(self) -> str:
        """pregeometry, closure, graph or order."""
        if self.pg is not None:
            return "pregeometry"
        if self.op is not None:
            return "closure"
        return "graph" if self.graph is not None else "order"

    @property
    def ground(self) -> GroundSet:
        for obj in (self.op, self.graph, self.config):
            if obj is not None:
                return obj.ground
        assert self.pg is not None
        return self.pg.ground


def dlo_config(n: int) -> OrderedConfig:
    """The points 0, 1, ..., n-1 of the rationals, in increasing order."""
    return OrderedConfig(tuple(Fraction(i) for i in range(n)))


#: name -> (description, instance file text) of each built-in instance,
#: in catalog order
CATALOG: dict[str, tuple[str, str]] = {
    "trivial3": ("trivial closure on 3 elements", "type = trivial\nsize = 3"),
    "trivial4": ("trivial closure on 4 elements", "type = trivial\nsize = 4"),
    "trivial5": ("trivial closure on 5 elements", "type = trivial\nsize = 5"),
    "gebert4": ("initial-segment closure on 4 elements",
                "type = gebert\nsize = 4"),
    "gebert8": ("initial-segment closure on 8 elements",
                "type = gebert\nsize = 8"),
    "u23": ("uniform rank 2 on 3 elements", "type = uniform\nsize = 3\nrank = 2"),
    "u34": ("uniform rank 3 on 4 elements", "type = uniform\nsize = 4\nrank = 3"),
    "u36": ("uniform rank 3 on 6 elements", "type = uniform\nsize = 6\nrank = 3"),
    "gf2-3": ("all nonzero vectors of GF(2)^2",
              "type = linear\nfield = gf2\nvectors = 10 01 11"),
    "gf3-4": ("one vector per line of GF(3)^2",
              "type = linear\nfield = gf3\nvectors = 10 01 11 12"),
    "gf2-7": ("all nonzero vectors of GF(2)^3",
              "type = linear\nfield = gf2\nvectors = 001 010 011 100 101 110 111"),
    "path3": ("graph on 3 vertices with 2 edges",
              "type = graph\nsize = 3\nedges = 0-1 1-2"),
    "path4": ("graph on 4 vertices with 3 edges",
              "type = graph\nsize = 4\nedges = 0-1 1-2 2-3"),
    "triangle3": ("graph on 3 vertices with 3 edges",
                  "type = graph\nsize = 3\nedges = 0-1 1-2 0-2"),
    "star4": ("graph on 4 vertices with 3 edges",
              "type = graph\nsize = 4\nedges = 0-1 0-2 0-3"),
    "empty4": ("graph on 4 vertices with 0 edges", "type = graph\nsize = 4"),
    "dlo4": ("4 rational points in increasing order",
             "type = order\npoints = 0 1 2 3"),
    "dlo5": ("5 rational points in increasing order",
             "type = order\npoints = 0 1 2 3 4"),
    "dlo6": ("6 rational points in increasing order",
             "type = order\npoints = 0 1 2 3 4 5"),
}

#: the names of the built-in instances, in catalog order
CATALOG_NAMES: tuple[str, ...] = tuple(CATALOG)


@functools.cache
def catalog_instance(name: str) -> Instance:
    """One built-in instance, built without the others on first use and
    then shared for the life of the process, so what is computed once per
    operator (`relcalc.flats`, `geometry.dim_table`) is computed once per
    process; KeyError when no instance has that name."""
    return parse_instance(CATALOG[name][1], name)


def catalog() -> dict[str, Instance]:
    """The built-in instance library, keyed by short name: a fresh dict of
    the shared instances of `catalog_instance`."""
    return {name: catalog_instance(name) for name in CATALOG}


# ---------------------------------------------------------------------------
# Relation ids


class RelationError(ValueError):
    """A relation id is unknown, or names a relation the instance lacks."""


def instance_operator(inst: Instance) -> ClosureOperator:
    """The operator of the closure-dependent axioms and the transformers:
    the instance's own, or the identity closure for graphs and orders."""
    if inst.op is not None:
        return inst.op
    return trivial_closure(inst.ground)


#: what an `Instance` field holds, as a relation's error message says it
_NEEDS = {"pg": "a pregeometry", "op": "a closure instance",
          "graph": "a graph instance", "config": "an order instance"}

#: relation id -> (help text, the `Instance` field it needs or None,
#: builder), in `list` order; opp(<id>) wraps any of them.  A builder
#: looks its relation function up by name when it is called, so a module
#: attribute rebound after import (perfbench/tracer.py does) sees the call.
RELATIONS: dict[
    str, tuple[str, Optional[str], Callable[[Instance], TernaryRelation]]
] = {
    "int": ("sets intersect inside the base", None,
            lambda i: rel_intersection(i.ground)),
    "a": ("closures over the base meet exactly in the closed base", None,
          lambda i: rel_a(instance_operator(i))),
    "cl": ("relative dimension does not drop against the base", "pg",
           lambda i: rel_cl(i.pg)),
    "aM": ("monotonisation of `a` over closure-bounded extensions", "op",
           lambda i: monotonise_M(rel_a(i.op), i.op)),
    "am": ("naive monotonisation of `a` over plain extensions", "op",
           lambda i: monotonise_m(rel_a(i.op))),
    "ac": ("closure extension of `a`", "op",
           lambda i: closure_extend_c(rel_a(i.op), i.op)),
    "amc": ("closure extension of the naive monotonisation of `a`", "op",
            lambda i: closure_extend_c(monotonise_m(rel_a(i.op)), i.op)),
    "sup": ("one side's maximum stays below the base's maximum", None,
            lambda i: rel_sup(i.ground)),
    "st": ("graph independence: no meeting and no cross edges off the base",
           "graph", lambda i: rel_st(i.graph)),
    "div": ("order independence: intervals meeting one side meet the base",
            "config", lambda i: rel_div(i.config)),
    "div-strict": ("like div, but degenerate one-point intervals ignored",
                   "config",
                   lambda i: rel_div(i.config, include_degenerate=False)),
}


def relation_id(text: str) -> tuple[str, int]:
    """The id of `RELATIONS` that `text` names, and how many opp(...)
    wrap it; RelationError when it names none.  The only parser of
    opp(...)."""
    rid, opps = text.strip(), 0
    while rid.startswith("opp(") and rid.endswith(")"):
        rid, opps = rid[4:-1].strip(), opps + 1
    if rid not in RELATIONS:
        raise RelationError(f"unknown relation id {rid!r}")
    return rid, opps


def defines(inst: Instance, rid: str) -> bool:
    """Whether `inst` has what the relation `rid` of `RELATIONS` needs."""
    needs = RELATIONS[rid][1]
    return needs is None or getattr(inst, needs) is not None


def relation(inst: Instance, text: str) -> TernaryRelation:
    """The relation that `text`, an id of `RELATIONS` or opp(<id>), names
    on `inst`, with no table yet; RelationError when the id is unknown or
    `inst` lacks what it needs."""
    rid, opps = relation_id(text)
    if not defines(inst, rid):
        needs = _NEEDS[RELATIONS[rid][1]]
        raise RelationError(f"{rid} needs {needs}, got {inst.kind}")
    r = RELATIONS[rid][2](inst)
    for _ in range(opps):
        r = opposite(r)
    return r


class InstanceFormatError(ValueError):
    """Malformed instance file."""


def parse_instance(text: str, name: str = "file") -> Instance:
    """Parse the line-oriented instance format; the only way an
    `Instance` is built (the catalog is a table of such files, see
    `CATALOG`).

    Lines are `key = value`; `#` starts a comment; each key appears at
    most once.  The `type` key picks a row of `_TYPES`, which names the
    keys that type requires and the keys it may take; any other key is
    refused.  Only `type = table` takes `cl {..} = {..}` lines.
    """
    fields: dict[str, str] = {}
    cl_lines: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InstanceFormatError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("cl "):
            cl_lines.append((lineno, key[3:], value))
            continue
        if key in fields:
            raise InstanceFormatError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value
    kind = fields.pop("type", None)
    if kind is None:
        raise InstanceFormatError("missing required key 'type'")
    if kind not in _TYPES:
        raise InstanceFormatError(f"unknown instance type {kind!r}")
    required, optional, build = _TYPES[kind]
    for key in fields:  # in file order, so the message is deterministic
        if key not in required + optional:
            raise InstanceFormatError(f"unknown key {key!r} for type = {kind}")
    for key in required:
        if key not in fields:
            raise InstanceFormatError(f"missing required key {key!r}")
    if cl_lines and kind != "table":
        raise InstanceFormatError("cl lines only allowed for type = table")
    try:
        return Instance(name, **build(fields, cl_lines))
    except InstanceFormatError:
        raise
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def _int_field(fields: dict[str, str], key: str) -> int:
    try:
        return int(fields[key])
    except ValueError:
        raise InstanceFormatError(f"key {key!r} must be an integer") from None


def _pregeometry(pg: Pregeometry) -> dict:
    return {"op": pg.op, "pg": pg}


def _linear(fields: dict[str, str], cl_lines: list) -> dict:
    fld = fields.get("field", "gf2")
    if fld not in ("gf2", "gf3"):
        raise InstanceFormatError(f"unknown field {fld!r}")
    modulus = 2 if fld == "gf2" else 3
    chunks = fields["vectors"].split()
    for chunk in chunks:  # linear_pregeometry would reduce a digit mod q
        if not set(chunk) <= set("012"[:modulus]):
            raise InstanceFormatError(
                f"key 'vectors' must hold the digits 0..{modulus - 1} of"
                f" {fld}, got {chunk!r}")
    vectors = [tuple(map(int, chunk)) for chunk in chunks]
    if len({len(v) for v in vectors}) > 1:
        raise InstanceFormatError("vectors must share a dimension")
    return _pregeometry(linear_pregeometry(vectors, modulus))


def _table(fields: dict[str, str], cl_lines: list) -> dict:
    ground = GroundSet(_int_field(fields, "size"))
    mapping: dict[int, int] = {}
    for lineno, key_text, value_text in cl_lines:
        try:
            arg = parse_mask(key_text, ground.size)
            val = parse_mask(value_text, ground.size)
        except ValueError as exc:
            raise InstanceFormatError(f"line {lineno}: {exc}") from exc
        if arg in mapping:
            raise InstanceFormatError(f"line {lineno}: duplicate cl line")
        mapping[arg] = val
    return {"op": operator_from_table(ground, mapping)}


def _graph(fields: dict[str, str], cl_lines: list) -> dict:
    size = _int_field(fields, "size")
    pairs = []
    for chunk in fields.get("edges", "").replace(",", " ").split():
        u, _, v = chunk.partition("-")
        try:
            pairs.append((int(u), int(v)))
        except ValueError:
            raise InstanceFormatError(f"bad edge {chunk!r}") from None
    return {"graph": Graph.build(size, pairs)}


def _order(fields: dict[str, str], cl_lines: list) -> dict:
    try:
        pts = tuple(Fraction(p) for p in fields["points"].split())
    except ZeroDivisionError:
        raise InstanceFormatError("points: zero denominator") from None
    return {"config": OrderedConfig(pts)}


#: instance type -> (the keys it requires, the keys it may take, the
#: builder of the keyword arguments of its `Instance` from the key values
#: and the (line number, subset, closure) cl lines).
#: Values: `size` and `rank` are integers; `field` is gf2 (the default)
#: or gf3; `vectors` are digit strings of one length such as `10 01 11`;
#: `edges` are pairs `u-v`, space or comma separated (default none);
#: `points` are strictly increasing rationals such as `0 1/2 3`.
_TYPES: dict[str, tuple[tuple[str, ...], tuple[str, ...],
                        Callable[[dict[str, str], list], dict]]] = {
    "trivial": (("size",), (), lambda f, _: _pregeometry(
        Pregeometry(trivial_closure(GroundSet(_int_field(f, "size")))))),
    "gebert": (("size",), (),
               lambda f, _: {"op": gebert_closure(_int_field(f, "size"))}),
    "uniform": (("size", "rank"), (), lambda f, _: _pregeometry(
        uniform_pregeometry(size=_int_field(f, "size"),
                            rank=_int_field(f, "rank")))),
    "linear": (("vectors",), ("field",), _linear),
    "table": (("size",), (), _table),
    "graph": (("size",), ("edges",), _graph),
    "order": (("points",), (), _order),
}
