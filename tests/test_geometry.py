import gc

import numpy as np
import pytest

from pregeolab import geometry, verify
from pregeolab.closure import (
    Pregeometry,
    from_table,
    has_exchange,
    trivial_closure,
)
from pregeolab.geometry import (
    basis_of,
    brute_dim_oracle,
    check_modular,
    dim_table,
    independence_table,
    least_unreached,
)
from pregeolab.instances import catalog, linear_pregeometry, uniform_pregeometry
from pregeolab.lattice import GroundSet, elements_of


@pytest.fixture(scope="module")
def u34():
    return uniform_pregeometry(3, 4)


def test_is_independent_uniform(u34):
    independent = independence_table(u34.op)  # (I, X)
    assert independent[0b0111, 0]
    assert not independent[0b1111, 0]
    assert independent[0, 0]  # vacuously
    assert independent[0b0001, 0b0010]
    # over a spanning base nothing is independent
    assert not independent[0b1000, 0b0111]


def scalar_is_independent(op, subset, over):
    """True iff every a in A satisfies a not in cl(B + (A - a))."""
    for a in elements_of(subset):
        if op.table[over | (subset & ~(1 << a))] >> a & 1:
            return False
    return True


def scalar_submasks(mask):
    """All submasks of mask, in descending order, ending with 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def scalar_dim_oracle(pg, subset, over):
    """Max cardinality over ALL independent X <= A over B, cell by cell."""
    best = 0
    for x in scalar_submasks(subset):
        if x.bit_count() > best and scalar_is_independent(pg.op, x, over):
            best = x.bit_count()
    return best


def test_independence_table_matches_scalar_definition():
    ops = [inst.op for inst in catalog().values()
           if inst.op is not None and inst.ground.size <= 6]
    rng = np.random.default_rng(5)
    ops += [random_closure(size, rng) for size in [0, 1, 2, 3, 4, 5] * 5]
    for op in ops:
        independent = independence_table(op)
        assert independent.dtype == bool
        count = op.ground.subset_count
        assert independent.tolist() == [
            [scalar_is_independent(op, i, x) for x in range(count)]
            for i in range(count)
        ], op.ground


def test_dim_and_basis(u34):
    res = basis_of(u34, 0b1111)
    assert res.value == 3
    assert res.basis == 0b0111  # greedy picks ascending elements
    assert basis_of(u34, 0b1111, over=0b0011).value == 1
    assert basis_of(u34, 0b1111, over=0b0011).basis == 0b0100


def test_dim_matches_brute_oracle_everywhere():
    for inst in catalog().values():
        if inst.pg is None or inst.ground.size > 6:
            continue
        assert np.array_equal(brute_dim_oracle(inst.pg), dim_table(inst.pg)), (
            inst.name)


def test_dim_additivity():
    pg = linear_pregeometry(((1, 0), (0, 1), (1, 1)), 2)
    dims = dim_table(pg)
    for a in range(8):
        for b in range(8):
            assert dims[a | b][0] == dims[a][b] + dims[b][0]


def test_dim_antitone_in_base(u34):
    dims = dim_table(u34)
    for a in range(16):
        for b in range(16):
            for extra in range(16):
                assert dims[a][b] >= dims[a][b | extra]


def test_submodularity_on_closed_sets(u34):
    dims = dim_table(u34)
    closed = [m for m in range(16) if u34.op.table[m] == m]
    for a in closed:
        for b in closed:
            assert dims[a | b][0] + dims[a & b][0] <= dims[a][0] + dims[b][0]


def test_modularity_uniform_rank3(u34):
    verdict = check_modular(u34)
    assert verdict.agree
    assert not verdict.modular
    assert verdict.conditions == {k: False for k in range(1, 6)}
    # modular-law witness: two disjoint closed pairs, 3 + 0 vs 2 + 2
    a, b = verdict.witnesses[5]
    assert (a, b) == (0b0011, 0b1100)
    dims = dim_table(u34)
    assert dims[a | b][0] + dims[a & b][0] == 3
    assert dims[a][0] + dims[b][0] == 4


def test_modularity_positive_cases():
    for name in ("trivial4", "u23", "gf2-3", "gf3-4", "gf2-7"):
        verdict = check_modular(catalog()[name].pg)
        assert verdict.modular and verdict.agree, name


def test_modularity_agreement_everywhere():
    for inst in catalog().values():
        if inst.pg is None:
            continue
        assert check_modular(inst.pg).agree, inst.name


def test_describe_mentions_every_condition(u34):
    text = check_modular(u34).describe()
    for k in range(1, 6):
        assert f"condition-{k}" in text


def test_trivial_dim_is_cardinality_outside_base():
    pg = Pregeometry(trivial_closure(GroundSet(5)))
    assert basis_of(pg, 0b10101).value == 3
    assert basis_of(pg, 0b10101, over=0b00100).value == 2
    assert brute_dim_oracle(pg)[0b10101, 0b00100] == 2


def scalar_least_unreached(op):
    """Modularity condition 1 by its definition: the least (A, B, {x})
    with x in cl(A+B) and in no cl(i+j), i and j empty or a point of
    cl(A) and cl(B)."""
    table = op.table.tolist()
    count = op.ground.subset_count
    for a_mask in range(count):
        parts_a = [0] + [1 << i for i in elements_of(table[a_mask])]
        for b_mask in range(count):
            parts_b = [0] + [1 << j for j in elements_of(table[b_mask])]
            for x in elements_of(table[a_mask | b_mask]):
                if not any(
                    table[i | j] >> x & 1 for i in parts_a for j in parts_b
                ):
                    return (a_mask, b_mask, 1 << x)
    return None


def random_closure(size, rng):
    """The closure whose closed sets are the ground set and the
    intersections of a random family; each subset joins the family with
    a probability drawn once per family."""
    count = 1 << size
    p = rng.random()
    family = [count - 1] + [m for m in range(count) if rng.random() < p]
    table = []
    for x in range(count):
        closed = count - 1
        for f in family:
            if x & ~f == 0:
                closed &= f
        table.append(closed)
    return from_table(GroundSet(size), table)


def test_least_unreached_matches_scalar_definition():
    ops = [inst.op for inst in catalog().values() if inst.op is not None]
    rng = np.random.default_rng(11)
    ops += [random_closure(size, rng) for size in [0, 1, 2, 3] * 15 + [4] * 240]
    witnesses = [least_unreached(op) for op in ops]
    for op, w in zip(ops, witnesses):
        assert w == scalar_least_unreached(op), op
    # both verdicts occur, and failures at several (A, B)
    assert None in witnesses
    assert len({w[:2] for w in witnesses if w is not None}) >= 3


# ---------------------------------------------------------------------------
# The dimension table and the laws read from it, against scalar references:
# the cell-by-cell loops that checked modularity conditions 4 and 5 and the
# dim-laws before they became violation arrays.


def closed_sets(pg):
    return [m for m in pg.ground.masks() if pg.op.table[m] == m]


def scalar_condition_4(pg, dims):
    table = pg.op.table
    for a in pg.ground.masks():
        for b in pg.ground.masks():
            base = table[a] & table[b]
            if dims[a][b | base] != dims[a][base]:
                return (a, b)
    return None


def scalar_condition_5(pg, dims):
    for a in closed_sets(pg):
        for b in closed_sets(pg):
            if dims[a | b][0] + dims[a & b][0] != dims[a][0] + dims[b][0]:
                return (a, b)
    return None


def scalar_dim_laws(pg, dims):
    """law -> least witness (None when the law holds), as in `dim-laws`."""
    masks = pg.ground.masks()
    additivity = next(
        ((a, b) for a in masks for b in masks
         if dims[a | b][0] != dims[a][b] + dims[b][0]),
        None,
    )
    antitone = next(
        ((a, b, d) for a in masks for b in masks for d in masks
         if b & ~d == 0 and dims[a][b] < dims[a][d]),
        None,
    )
    closed = closed_sets(pg)
    submodular = next(
        ((a, b) for a in closed for b in closed
         if dims[a | b][0] + dims[a & b][0] > dims[a][0] + dims[b][0]),
        None,
    )
    return {"additivity": additivity, "base-antitone": antitone,
            "submodular-closed": submodular}


def verdicts(pg):
    """Conditions 4 and 5 and the three dim-laws, from the library."""
    modular = check_modular(pg)
    out = {k: modular.witnesses.get(k) for k in (4, 5)}
    assert all(modular.conditions[k] == (out[k] is None) for k in (4, 5))
    for check in verify._dim_law_checks("x", pg)[1:]:
        assert (check.status == "fail") == (check.witness is not None)
        out[check.check] = check.witness
    return out


def scalar_verdicts(pg, dims):
    return {4: scalar_condition_4(pg, dims), 5: scalar_condition_5(pg, dims),
            **scalar_dim_laws(pg, dims)}


def random_pregeometries(rng, count):
    out = {}
    while len(out) < count:
        size = int(rng.integers(1, 6))
        pg = has_exchange(random_closure(size, rng))
        if isinstance(pg, Pregeometry):
            out[pg.op.table.tobytes()] = pg
    return list(out.values())


@pytest.fixture(scope="module")
def subjects():
    """Catalog pregeometries with at most five points, two more uniform
    ones and 40 random ones."""
    pgs = [inst.pg for inst in catalog().values()
           if inst.pg is not None and inst.ground.size <= 5]
    pgs += [uniform_pregeometry(3, 5), uniform_pregeometry(2, 5)]
    return pgs + random_pregeometries(np.random.default_rng(3), 40)


def test_dim_table_cache_lives_as_long_as_its_operator():
    pg = uniform_pregeometry(2, 4)
    before = dim_table.cache_info()
    dims = dim_table(pg)
    assert dim_table(Pregeometry(pg.op)) is dims  # same operator: a hit
    after = dim_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
    cached = len(geometry._DIMS)
    del pg
    gc.collect()
    assert len(geometry._DIMS) == cached - 1


def test_dim_table_is_a_read_only_int8_array_equal_to_basis_of(subjects):
    pgs = subjects + [inst.pg for inst in catalog().values()
                      if inst.pg is not None and inst.ground.size > 5]
    assert max(pg.ground.size for pg in pgs) == 7
    for pg in pgs:
        dims = dim_table(pg)
        count = pg.ground.subset_count
        assert dims.dtype == np.int8 and dims.shape == (count, count)
        assert dims.flags.c_contiguous and not dims.flags.writeable
        expected = [[basis_of(pg, a, x).value for x in range(count)]
                    for a in range(count)]
        assert dims.tolist() == expected, pg
    with pytest.raises(ValueError):
        dims[0, 0] = 1


def test_dimension_laws_match_scalar_references(subjects):
    pgs = subjects + [catalog()["u36"].pg]  # condition 4 and 5 only at n = 6
    for pg in pgs:
        want = scalar_verdicts(pg, dim_table(pg))
        got = verdicts(pg)
        if pg.ground.size > 5:  # dim-laws checks only the oracle there
            want = {k: want[k] for k in (4, 5)}
        assert got == want, pg
    assert verdicts(catalog()["u34"].pg)[5] == (0b0011, 0b1100)


def test_corrupted_dimension_tables_match_scalar_references(monkeypatch,
                                                            subjects):
    """Raise or lower a few cells of true tables: every check then fails
    somewhere, and the least witness must be the scalar loop's."""
    rng = np.random.default_rng(7)
    failures = {k: set() for k in (4, 5, "additivity", "base-antitone",
                                   "submodular-closed")}
    for pg in subjects:
        if pg.ground.size < 2:
            continue
        for _ in range(4):
            bad = dim_table(pg).copy()
            count = len(bad)
            cells = rng.integers(0, count, size=(int(rng.integers(1, 4)), 2))
            for a, x in cells:
                bad[a, x] += rng.choice([-1, 1])
            bad.flags.writeable = False
            monkeypatch.setattr(geometry, "dim_table", lambda _, t=bad: t)
            monkeypatch.setattr(verify, "dim_table", lambda _, t=bad: t)
            want = scalar_verdicts(pg, bad)
            assert verdicts(pg) == want, (pg, cells)
            for law, witness in want.items():
                if witness is not None:
                    failures[law].add(witness)
    # every fail path ran, each at several distinct least witnesses
    assert all(len(w) >= 5 for w in failures.values()), failures


def test_brute_dim_oracle_matches_scalar_oracle(subjects):
    """The oracle table against the cell-by-cell maximum over independent
    subsets, on the catalog pregeometries with at most six points and the
    random ones."""
    pgs = subjects + [inst.pg for inst in catalog().values()
                      if inst.pg is not None and inst.ground.size == 6]
    for pg in pgs:
        oracle = brute_dim_oracle(pg)
        assert oracle.dtype == np.int8
        count = pg.ground.subset_count
        assert oracle.tolist() == [
            [scalar_dim_oracle(pg, a, x) for x in range(count)]
            for a in range(count)
        ], pg
