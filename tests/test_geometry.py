import numpy as np
import pytest

from pregeolab.closure import Pregeometry, from_table, trivial_closure
from pregeolab.geometry import (
    basis_of,
    brute_dim_oracle,
    check_modular,
    dim,
    dim_table,
    is_independent,
    least_unreached,
)
from pregeolab.instances import catalog, linear_pregeometry, uniform_pregeometry
from pregeolab.lattice import GroundSet, elements_of


@pytest.fixture(scope="module")
def u34():
    return uniform_pregeometry(3, 4)


def test_is_independent_uniform(u34):
    assert is_independent(u34.op, 0b0111)
    assert not is_independent(u34.op, 0b1111)
    assert is_independent(u34.op, 0)  # vacuously
    assert is_independent(u34.op, 0b0001, over=0b0010)
    # over a spanning base nothing is independent
    assert not is_independent(u34.op, 0b1000, over=0b0111)


def test_dim_and_basis(u34):
    res = basis_of(u34, 0b1111)
    assert res.value == 3
    assert res.basis == 0b0111  # greedy picks ascending elements
    assert dim(u34, 0b1111, over=0b0011) == 1
    assert basis_of(u34, 0b1111, over=0b0011).basis == 0b0100


def test_dim_matches_brute_oracle_everywhere():
    for inst in catalog().values():
        if inst.pg is None or inst.ground.size > 6:
            continue
        dims = dim_table(inst.pg)
        count = inst.ground.subset_count
        for a in range(count):
            for b in range(count):
                assert dims[a][b] == brute_dim_oracle(inst.pg, a, b), (
                    inst.name, a, b,
                )


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
    closed = u34.op.closed_masks()
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
    assert dim(pg, 0b10101) == 3
    assert dim(pg, 0b10101, over=0b00100) == 2
    assert brute_dim_oracle(pg, 0b10101, 0b00100) == 2


def scalar_least_unreached(op):
    """Modularity condition 1 by its definition: the least (A, B, {x})
    with x in cl(A+B) and in no cl(i+j), i and j empty or a point of
    cl(A) and cl(B)."""
    table = op.table
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
