import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from pregeolab.axioms import compare
from pregeolab.cli import main, resolve_relation
from pregeolab.closure import (
    ClosureOperator,
    Pregeometry,
    initial_segment_closure,
    trivial_closure,
)
from pregeolab.geometry import basis_of, dim_table, independence_table
from pregeolab import instances
from pregeolab.instances import (
    CATALOG,
    CATALOG_NAMES,
    BaseMismatch,
    Graph,
    InstanceFormatError,
    RELATIONS,
    OrderedConfig,
    RelationError,
    canonical_codes,
    catalog,
    catalog_instance,
    defines,
    dlo_config,
    free_amalgam,
    free_amalgam_codes,
    graph_of_code,
    isomorphic_over_base,
    linear_pregeometry,
    parse_instance,
    rel_div,
    rel_st,
    relabel_codes,
    relation,
    st_holds,
    uniform_pregeometry,
)
from pregeolab.lattice import GroundSet, elements_of, mask_of
from pregeolab.relcalc import flats, materialize, rel_intersection

GF2_LINE = ((1, 0), (0, 1), (1, 1))
GF3_LINE = ((1, 0), (0, 1), (1, 1), (1, 2))
GF2_PLANE = tuple(
    (x, y, z)
    for x in (0, 1)
    for y in (0, 1)
    for z in (0, 1)
    if (x, y, z) != (0, 0, 0)
)


def test_gebert_closure_values():
    op = initial_segment_closure(GroundSet(4))
    assert op.table[0] == 0
    assert op.table[mask_of([2], 4)] == mask_of([0, 1, 2], 4)
    assert op.table[mask_of([1, 3], 4)] == mask_of([0, 1, 2, 3], 4)


def test_gebert_independent_sets_are_small():
    op = initial_segment_closure(GroundSet(5))
    indep = independence_table(op)[:, 0].nonzero()[0].tolist()
    # empty set plus one singleton per element
    assert indep == [0] + [1 << i for i in range(5)]


def test_uniform_closure_table():
    pg = uniform_pregeometry(2, 4)
    assert pg.op.table[mask_of([3], 4)] == mask_of([3], 4)
    assert pg.op.table[mask_of([0, 2], 4)] == 0b1111
    with pytest.raises(ValueError):
        uniform_pregeometry(5, 4)


def _brute_span(vectors, modulus, members):
    """All vectors reachable as linear combinations of the members."""
    span = set()
    coeffs = range(modulus)
    dim = len(vectors[0])
    from itertools import product

    for combo in product(coeffs, repeat=len(members)):
        vec = tuple(
            sum(c * vectors[m][k] for c, m in zip(combo, members)) % modulus
            for k in range(dim)
        )
        span.add(vec)
    return span


@pytest.mark.parametrize("modulus,vectors", [
    (2, GF2_LINE),
    (3, GF3_LINE),
    (2, GF2_PLANE),
])
def test_linear_closure_matches_span(modulus, vectors):
    pg = linear_pregeometry(vectors, modulus)
    n = len(vectors)
    for m in range(1 << n):
        span = _brute_span(vectors, modulus, list(elements_of(m)))
        expect = mask_of([j for j in range(n) if tuple(vectors[j]) in span], n)
        assert pg.op.table[m] == expect


def test_linear_elimination_matches_brute_span_on_random_inputs():
    """The batched elimination of `linear_pregeometry` gives the closure
    that listing every span gives, on random GF(2) and GF(3) inputs at
    n <= 7 with zero vectors, repeated vectors and vectors of 65
    coordinates, which are first row-reduced to at most n."""
    rng = np.random.default_rng(29)
    reduced = 0
    for trial in range(60):
        modulus = (2, 3)[trial % 2]
        n = int(rng.integers(1, 8))
        dim = int(rng.choice([1, 2, 3, 4, 65]))
        if modulus == 3 and n > 5:  # keeps the brute spans quick
            dim = min(dim, 3)
        vectors = rng.integers(0, modulus, (n, dim))
        if trial % 3 == 0:
            vectors[rng.integers(0, n)] = 0
        if trial % 4 == 0:
            vectors[rng.integers(0, n)] = vectors[rng.integers(0, n)]
        vectors = [tuple(map(int, v)) for v in vectors]
        table = linear_pregeometry(vectors, modulus).op.table
        for m in range(1 << n):
            span = _brute_span(vectors, modulus, list(elements_of(m)))
            want = mask_of([j for j in range(n) if vectors[j] in span], n)
            assert table[m] == want, (modulus, vectors, m)
        reduced += dim > n
    assert reduced >= 10


def test_graph_build_validation():
    with pytest.raises(ValueError):
        Graph.build(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.build(3, [(0, 3)])
    g = Graph.build(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_rel_st_separates_edges():
    g = Graph.build(4, [(0, 3)])
    r = rel_st(g)
    # the edge 0-3 makes its endpoints dependent over the empty set
    assert not r.fn(1 << 0, 1 << 3, 0)
    # non-adjacent vertices are independent
    assert r.fn(1 << 0, 1 << 1, 0)
    # over a base containing an endpoint the edge is allowed
    assert r.fn(mask_of([0, 3], 4), 1 << 3, 1 << 3)
    # overlap outside the base is forbidden
    assert not r.fn(1 << 1, 1 << 1, 0)


def test_graph_a_is_plain_intersection():
    """On a graph instance `a` uses the identity closure, so it is the
    plain intersection relation."""
    path4 = catalog()["path4"]
    r = resolve_relation(path4, "a")
    assert r.name == "a"
    assert compare(r, rel_intersection(path4.ground)).verdict == "equal"


def test_relation_ids_resolve_by_instance_kind():
    for inst in catalog().values():
        for rid in RELATIONS:
            if defines(inst, rid):
                assert relation(inst, rid).name == rid
            else:
                with pytest.raises(RelationError):
                    relation(inst, rid)
    refused = {
        ("gebert4", "cl"): "cl needs a pregeometry, got closure",
        ("path4", "aM"): "aM needs a closure instance, got graph",
        ("u34", "st"): "st needs a graph instance, got pregeometry",
        ("path4", "div-strict"): "div-strict needs an order instance, got graph",
        ("u34", "opp(opp(nope))"): "unknown relation id 'nope'",
    }
    for (name, text), message in refused.items():
        with pytest.raises(RelationError) as err:
            relation(catalog_instance(name), text)
        assert str(err.value) == message
    r = relation(catalog_instance("dlo4"), " opp( opp(div) ) ")
    assert r.name == "opp(opp(div))" and r.table is None


def test_free_amalgam_of_two_edges_is_a_path():
    # c-a and c-b glued over {c} must give the path a-c-b
    g1 = Graph.build(2, [(0, 1)])  # base vertex 0, free vertex 1
    g2 = Graph.build(2, [(0, 1)])
    glued = free_amalgam(g1, g2, [0])
    assert glued.size == 3
    assert glued.edges == Graph.build(3, [(0, 1), (0, 2)]).edges


def test_free_amalgam_disjoint_union_over_empty_base():
    g1 = Graph.build(2, [(0, 1)])
    g2 = Graph.build(2, [(0, 1)])
    glued = free_amalgam(g1, g2, [])
    assert glued.size == 4
    assert glued.edges == Graph.build(4, [(0, 1), (2, 3)]).edges


def test_free_amalgam_base_mismatch():
    g1 = Graph.build(3, [(0, 1)])
    g2 = Graph.build(3, [])  # disagrees on the base edge 0-1
    with pytest.raises(BaseMismatch):
        free_amalgam(g1, g2, [0, 1])
    with pytest.raises(ValueError):
        free_amalgam(g1, g2, [0, 0])


def test_isomorphic_over_base():
    base = [0]
    g1 = Graph.build(3, [(0, 1)])
    g2 = Graph.build(3, [(0, 2)])
    assert isomorphic_over_base(g1, g2, base)
    assert not isomorphic_over_base(g1, g2, [0, 1, 2])
    assert not isomorphic_over_base(g1, Graph.build(4, []), base)


def _isomorphic_over_base_by_edges(g1, g2, base):
    """Reference: some permutation of the free vertices maps every vertex
    pair of g1 to a pair of g2 with the same adjacency."""
    free = [v for v in range(g1.size) if v not in base]
    for perm in permutations(free):
        mapping = {v: v for v in base}
        mapping.update(zip(free, perm))
        if all(g2.has_edge(mapping[u], mapping[v]) == g1.has_edge(u, v)
               for u, v in combinations(range(g1.size), 2)):
            return True
    return False


def test_isomorphic_over_base_matches_edge_reference():
    slots = list(combinations(range(4), 2))
    graphs = [Graph.build(4, [slots[k] for k in range(6) if code >> k & 1])
              for code in range(64)]
    for base_size in (0, 1, 2):
        base = list(range(base_size))
        hits = 0
        for g1 in graphs:
            for g2 in graphs:
                found = isomorphic_over_base(g1, g2, base)
                assert found == _isomorphic_over_base_by_edges(g1, g2, base)
                hits += found
        assert 0 < hits < 64 * 64


def _code_of(graph):
    """The edge code of `graph`: bit k for the k-th pair in
    `combinations` order."""
    slots = list(combinations(range(graph.size), 2))
    return sum(1 << slots.index(tuple(sorted(e))) for e in graph.edges)


def test_graph_of_code_round_trips():
    for size in range(6):
        for code in range(1 << size * (size - 1) // 2):
            g = graph_of_code(size, code)
            assert g.size == size and _code_of(g) == code
    assert graph_of_code(4, 0b100001) == Graph.build(4, [(0, 1), (2, 3)])


def test_relabel_codes_matches_relabelled_graphs():
    """Every map of 3 or 6 vertices into 6 vertices, on every graph, at
    both table halves (6 and 15 pairs)."""
    for size in (3, 6):
        maps = list(permutations(range(6), size))[::37]
        codes = np.arange(1 << size * (size - 1) // 2)[::97]
        out = relabel_codes(codes, size, maps, 6)
        assert out.shape == (len(maps), len(codes))
        for i, m in enumerate(maps):
            for j, code in enumerate(codes.tolist()):
                g = graph_of_code(size, code)
                image = Graph.build(6, [(m[u], m[v]) for u, v in
                                        (sorted(e) for e in g.edges)])
                assert out[i, j] == _code_of(image)


def test_canonical_codes_match_isomorphic_over_base():
    """Equal canonical codes over the base 0..k-1 exactly when
    `isomorphic_over_base` holds, on every pair of graphs with at most
    four vertices and base sizes 0 to 2."""
    for size in range(5):
        codes = np.arange(1 << size * (size - 1) // 2)
        graphs = [graph_of_code(size, c) for c in codes.tolist()]
        for base_size in range(min(size, 2) + 1):
            canon = canonical_codes(codes, size, base_size).tolist()
            base = list(range(base_size))
            for i, g1 in enumerate(graphs):
                assert canon[i] <= i
                for j, g2 in enumerate(graphs):
                    assert ((canon[i] == canon[j])
                            == isomorphic_over_base(g1, g2, base)), (i, j)


def test_st_holds_matches_rel_st():
    """The code-level `st` agrees with `rel_st(g).fn` (the scalar
    definition: no table is built) on every graph and every triple with
    at most four vertices."""
    for size in range(5):
        codes = np.arange(1 << size * (size - 1) // 2)
        relations = [rel_st(graph_of_code(size, c)) for c in codes.tolist()]
        count = 1 << size
        for a in range(count):
            for b in range(count):
                for c in range(count):
                    got = st_holds(codes, size, a, b, c).tolist()
                    assert got == [r.fn(a, b, c) for r in relations]
        assert all(r.table is None for r in relations)


@pytest.mark.parametrize("base_size,n1,n2", [(0, 2, 3), (1, 3, 4), (2, 4, 4)])
def test_free_amalgam_codes_match_free_amalgam(base_size, n1, n2):
    base = list(range(base_size))

    def parts(size):  # a two-vertex base is the edge 0-1 in both parts
        return [c for c in range(1 << size * (size - 1) // 2)
                if base_size < 2 or graph_of_code(size, c).has_edge(0, 1)]

    lefts, rights = parts(n1), parts(n2)
    got = free_amalgam_codes(np.array(lefts), np.array(rights),
                             base_size, n1, n2)
    assert got.shape == (len(lefts), len(rights))
    for i, left in enumerate(lefts):
        for j, right in enumerate(rights):
            h = free_amalgam(graph_of_code(n1, left),
                             graph_of_code(n2, right), base)
            assert got[i, j] == _code_of(h)


def test_ordered_config_requires_increasing_points():
    with pytest.raises(ValueError):
        OrderedConfig((Fraction(1), Fraction(1)))
    cfg = OrderedConfig((Fraction(0), Fraction(1, 2), Fraction(1)))
    assert cfg.ground.size == 3


def test_rel_div_interval_semantics():
    cfg = OrderedConfig(tuple(Fraction(i) for i in range(4)))
    r = rel_div(cfg)
    # B spans the interval [p0, p2], which traps p1 away from an empty base
    assert not r.fn(1 << 1, mask_of([0, 2], 4), 0)
    assert r.fn(1 << 1, mask_of([0, 2], 4), 1 << 1)
    # a point of A outside every B-interval is free
    assert r.fn(1 << 3, mask_of([0, 2], 4), 0)


def test_rel_div_degenerate_intervals():
    cfg = OrderedConfig(tuple(Fraction(i) for i in range(3)))
    inclusive = rel_div(cfg)
    strict = rel_div(cfg, include_degenerate=False)
    # the one-point interval [p1, p1] meets A = {p1} but not C = {}
    assert not inclusive.fn(1 << 1, 1 << 1, 0)
    assert strict.fn(1 << 1, 1 << 1, 0)
    assert strict.name == "div-strict"


def test_rel_div_builder_matches_fn():
    cfg = OrderedConfig(tuple(Fraction(i) for i in range(4)))
    r = rel_div(cfg)
    table = materialize(r).table
    count = cfg.ground.subset_count
    for a, b, c in combinations(range(count), 3):
        assert table[a, b, c] == r.fn(a, b, c)


def div_reference_table(size, include_degenerate):
    """The whole-table formula that the row builder of `rel_div` replaced:
    for each span of points i..j, both ends in B, clear every cell whose
    A meets the span and whose C misses it."""
    count = 1 << size
    masks = np.arange(count)
    table = np.ones((count, count, count), dtype=bool)
    for i in range(size):
        for j in range(i if include_degenerate else i + 1, size):
            span = ((1 << (j + 1)) - 1) & ~((1 << i) - 1)
            b_has = ((masks >> i & 1) & (masks >> j & 1)).astype(bool)
            a_meets = (masks & span) != 0
            c_misses = (masks & span) == 0
            table &= ~(a_meets[:, None, None] & b_has[None, :, None]
                       & c_misses[None, None, :])
    return table


@pytest.mark.parametrize("include_degenerate", [True, False])
def test_rel_div_rows_match_whole_table_formula(include_degenerate):
    for n in range(9):
        r = materialize(rel_div(dlo_config(n), include_degenerate))
        assert np.array_equal(
            r.table, div_reference_table(n, include_degenerate)), n


def same_operator(op1, op2):
    """Operators compare by identity; two builds of one operator have
    the same ground set and equal tables."""
    if op1 is None or op2 is None:
        return op1 is op2
    return op1.ground == op2.ground and np.array_equal(op1.table, op2.table)


def test_catalog_contents():
    cat = catalog()
    assert set(cat) >= {"trivial3", "gebert4", "gebert8", "u23", "u34", "u36",
                        "gf2-3", "gf3-4", "gf2-7", "path3", "triangle3",
                        "star4", "empty4", "dlo4", "dlo5", "dlo6"}
    assert tuple(cat) == CATALOG_NAMES
    for name, inst in cat.items():
        assert inst.name == name
        assert CATALOG[name][0]  # a description for `pregeolab list`
        alone = catalog_instance(name)  # built alone, the same
        assert (alone.name, alone.kind) == (inst.name, inst.kind)
        assert (alone.graph, alone.config) == (inst.graph, inst.config)
        assert same_operator(alone.op, inst.op)
        assert same_operator(alone.pg and alone.pg.op, inst.pg and inst.pg.op)
    with pytest.raises(KeyError):
        catalog_instance("nope")


def _path(n):
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


#: name -> the direct constructor call each catalog entry's file stands for
REFERENCE = {
    "trivial3": lambda: Pregeometry(trivial_closure(GroundSet(3))),
    "trivial4": lambda: Pregeometry(trivial_closure(GroundSet(4))),
    "trivial5": lambda: Pregeometry(trivial_closure(GroundSet(5))),
    "gebert4": lambda: initial_segment_closure(GroundSet(4)),
    "gebert8": lambda: initial_segment_closure(GroundSet(8)),
    "u23": lambda: uniform_pregeometry(2, 3),
    "u34": lambda: uniform_pregeometry(3, 4),
    "u36": lambda: uniform_pregeometry(3, 6),
    "gf2-3": lambda: linear_pregeometry(GF2_LINE, 2),
    "gf3-4": lambda: linear_pregeometry(GF3_LINE, 3),
    "gf2-7": lambda: linear_pregeometry(GF2_PLANE, 2),
    "path3": lambda: _path(3),
    "path4": lambda: _path(4),
    "triangle3": lambda: Graph.build(3, [(0, 1), (1, 2), (0, 2)]),
    "star4": lambda: Graph.build(4, [(0, 1), (0, 2), (0, 3)]),
    "empty4": lambda: Graph.build(4, []),
    "dlo4": lambda: dlo_config(4),
    "dlo5": lambda: dlo_config(5),
    "dlo6": lambda: dlo_config(6),
}


def test_parse_instance_matches_catalog():
    """Each catalog entry, parsed from its file text, builds the same
    closure table, pregeometry-or-not, graph and order as the direct
    constructor call."""
    assert tuple(REFERENCE) == CATALOG_NAMES
    kinds = set()
    for name, inst in catalog().items():
        want = REFERENCE[name]()
        pg = want if isinstance(want, Pregeometry) else None
        op = pg.op if pg else want if isinstance(want, ClosureOperator) else None
        assert (inst.pg is None) == (pg is None), name
        assert same_operator(inst.op, op), name
        assert same_operator(inst.pg and inst.pg.op, pg and op), name
        assert inst.graph == (want if isinstance(want, Graph) else None), name
        assert inst.config == (
            want if isinstance(want, OrderedConfig) else None), name
        kinds.add(inst.kind)
    assert kinds == {"pregeometry", "closure", "graph", "order"}


def test_parse_instance_kinds():
    inst = parse_instance("type = uniform\nsize = 4\nrank = 2\n")
    assert inst.kind == "pregeometry"
    assert inst.pg is not None and basis_of(inst.pg, 0b1111).value == 2
    inst = parse_instance("type = linear\nfield = gf2\nvectors = 10 01 11\n")
    assert inst.pg is not None and basis_of(inst.pg, 0b111).value == 2
    inst = parse_instance("type = order\npoints = 0 1/2 3\n")
    assert inst.config == OrderedConfig((Fraction(0), Fraction(1, 2),
                                         Fraction(3)))
    inst = parse_instance("type = graph\nsize = 3\nedges = 0-1, 1-2\n")
    assert inst.graph == Graph.build(3, [(0, 1), (1, 2)])


def test_parse_instance_errors():
    with pytest.raises(InstanceFormatError, match="unknown key"):
        parse_instance("type = trivial\nsize = 3\ncolour = red\n")
    with pytest.raises(InstanceFormatError, match="duplicate"):
        parse_instance("type = trivial\nsize = 3\nsize = 4\n")
    with pytest.raises(InstanceFormatError, match="type"):
        parse_instance("size = 3\n")
    with pytest.raises(InstanceFormatError, match="bad edge"):
        parse_instance("type = graph\nsize = 3\nedges = 0:1\n")
    with pytest.raises(InstanceFormatError, match="cl lines"):
        parse_instance("type = trivial\nsize = 2\ncl {} = {}\n")
    with pytest.raises(InstanceFormatError, match="key = value"):
        parse_instance("type trivial\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("type = mystery\n")


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_readme_instance_examples_parse():
    """Every fenced block of the README that is an instance file builds."""
    blocks = re.findall(r"^```\n(type = .*?)^```$", README, re.M | re.S)
    assert len(blocks) >= 2
    for text in blocks:
        parse_instance(text)


def test_readme_key_table_mirrors_types():
    """The README's instance-format table lists, per type, exactly the
    required and optional keys of `instances._TYPES`, in its order."""
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|", README, re.M)
    table = {kind: (tuple(re.findall(r"`(\w+)`", req)),
                    tuple(re.findall(r"`(\w+)`", opt)))
             for kind, req, opt in rows if kind in instances._TYPES}
    assert table == {kind: (required, optional) for kind, (
        required, optional, _) in instances._TYPES.items()}
    assert list(table) == list(instances._TYPES)


def test_parse_instance_table_with_comments():
    text = """
    # a two-element trivial closure
    type = table
    size = 2
    cl {} = {}
    cl {0} = {0}
    cl {1} = {1}
    cl {0,1} = {0,1}
    """
    inst = parse_instance(text)
    assert inst.kind == "closure"  # an explicit table is never promoted
    assert inst.op is not None and inst.pg is None
    assert inst.op.table.tolist() == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Catalog instances and identity closures live as long as the process


def test_catalog_instance_is_built_once_per_process(capsys, monkeypatch):
    """Commands on gf2-7, each run twice, parse it once and build its
    dimension table (which `modular` reads) once: later commands read the
    first one's instance and its caches."""
    catalog_instance.cache_clear()
    parsed = []
    real = instances.parse_instance
    monkeypatch.setattr(instances, "parse_instance",
                        lambda *args: parsed.append(args) or real(*args))
    before = dim_table.cache_info().misses
    commands = [["check", "--instance", "gf2-7", "--relation", "cl", "--all"],
                ["modular", "--instance", "gf2-7"]]
    outputs = []
    for argv in commands * 2:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert [name for _, name in parsed] == ["gf2-7"]
    assert dim_table.cache_info().misses == before + 1


def test_catalog_holds_the_shared_instances():
    shared = catalog()
    assert list(shared) == list(CATALOG_NAMES)
    for name, inst in shared.items():
        assert inst is catalog_instance(name)
    assert catalog() is not shared  # a fresh dict each call


def test_identity_closure_is_one_per_ground_size():
    assert trivial_closure(GroundSet(4)) is trivial_closure(GroundSet(4))
    assert trivial_closure(GroundSet(4)) is not trivial_closure(GroundSet(3))
    by_size: dict = {}
    for inst in catalog().values():
        if inst.op is None:  # graphs and orders
            by_size.setdefault(inst.ground.size, set()).add(
                id(instances.instance_operator(inst)))
    assert {3, 4} <= set(by_size)
    assert all(len(ids) == 1 for ids in by_size.values())
    assert (instances.instance_operator(catalog_instance("path3"))
            is catalog_instance("trivial3").op)


def test_initial_segment_closure_is_shared_by_gebert_and_sup():
    """The gebert instances and `sup` on every instance read one
    initial-segment operator per ground size, and so one `Flats`: on
    gebert8, `sup` and `a` are cubes over the same closed sets."""
    for inst in catalog().values():
        op = initial_segment_closure(inst.ground)
        if inst.name.startswith("gebert"):
            assert inst.op is op, inst.name
        sup = resolve_relation(inst, "sup")
        assert sup.flats is flats(op), inst.name
    gebert8 = catalog_instance("gebert8")
    assert (resolve_relation(gebert8, "sup").flats
            is resolve_relation(gebert8, "a").flats)
    with pytest.raises(instances.InstanceFormatError, match="at least one"):
        instances.parse_instance("type = gebert\nsize = 0")


def test_instance_files_are_read_on_every_load(capsys, tmp_path):
    """A file can change between two commands of one process, so a file
    instance is parsed afresh each time it is named."""
    path = tmp_path / "two.txt"
    head = "type = table\nsize = 2\ncl {} = {}\ncl {0,1} = {0,1}\n"
    argv = ["check", "--instance", str(path), "--relation", "a", "--all"]
    path.write_text(head + "cl {0} = {0}\ncl {1} = {1}\n")
    assert main(argv) == 0
    identity = capsys.readouterr().out
    path.write_text(head + "cl {0} = {0,1}\ncl {1} = {0,1}\n")
    assert main(argv) == 0
    joined = capsys.readouterr().out
    assert joined != identity
    assert "RESULT a FREE fail" in joined and "FREE fail" not in identity


def test_shared_catalog_state_is_read_only():
    """What one command computes for a catalog operator is shared with
    every later command, so no array it reaches may be written: the
    operator's table, the identity closures' tables, every `Flats` array
    and its least chains, and the dimension tables."""
    for inst in catalog().values():
        assert all(type(obj).__dataclass_params__.frozen
                   for obj in (inst, inst.op, inst.pg, inst.graph,
                               inst.config) if obj is not None)
        op = instances.instance_operator(inst)
        arrays = [op.table]
        fl = flats(op)
        if fl is not None:
            arrays += [fl.cl, fl.closed, fl.classes, fl.least, fl.join,
                       *fl.least_chains]
        if inst.pg is not None:
            arrays.append(dim_table(inst.pg))
        for array in arrays:
            assert not array.flags.writeable, inst.name
    for size in range(9):
        assert not trivial_closure(GroundSet(size)).table.flags.writeable
        assert not initial_segment_closure(
            GroundSet(size)).table.flags.writeable


def test_import_builds_no_catalog_instance():
    """Nothing is built at import: the shared instances, identity closures
    and initial-segment closures are built on first use, in a fresh
    process."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import pregeolab.cli, pregeolab.verify\n"
            "from pregeolab import closure, instances\n"
            "print(instances.catalog_instance.cache_info().currsize,"
            " closure.trivial_closure.cache_info().currsize,"
            " closure.initial_segment_closure.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 0 0\n"
