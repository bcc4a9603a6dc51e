import random

import pytest

from fmrep.chartab import character_table
from fmrep.fusion import (
    InvalidPartition,
    fusion_from_partition,
    fusion_pattern,
)
from fmrep.intlin import lattice_contains
from fmrep.permcore import group_from_generators, parse_perm, sylow_subgroup

from .oracles import is_invariant


@pytest.mark.parametrize(
    "name,expected",
    [("S3", 2), ("S4", 4), ("S9", 5), ("S6", 6), ("A9", 6)],
)
def test_fusion_class_counts(name, expected, pipelines):
    F = pipelines.run(name)[3]
    assert F.class_count == expected


def test_fusion_labels_are_canonical(pipelines):
    F = pipelines.run("S9")[3]
    seen = []
    for lab in F.labels:
        if lab not in seen:
            seen.append(lab)
    assert seen == list(range(1, F.class_count + 1))
    assert F.labels[0] == 1 and F.labels.count(1) == 1


def test_self_fusion_is_discrete(pipelines):
    _, S, T, _, _, _ = pipelines.run("S6")
    F = fusion_pattern(S, S, T)
    assert F == fusion_from_partition([[i + 1] for i in range(T.class_count)], T)
    assert F.class_count == T.class_count


def test_fusion_requires_subgroup():
    s4 = group_from_generators([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    a4 = group_from_generators([parse_perm("(1,2,3)", 4), parse_perm("(1,2)(3,4)", 4)])
    T = character_table(s4 if False else sylow_subgroup(s4, 2))
    with pytest.raises(ValueError):
        fusion_pattern(a4, sylow_subgroup(s4, 2), T)


# -- partition input ---------------------------------------------------------


def test_partition_all_separate(pipelines):
    T = pipelines.run("S4")[2]
    F = fusion_from_partition([[i] for i in range(1, T.class_count + 1)], T)
    assert F.class_count == T.class_count


def test_partition_transitive_extraspecial(pipelines):
    S = pipelines.group("E125")
    T = character_table(S)
    F = fusion_from_partition([[1], list(range(2, T.class_count + 1))], T)
    assert F.class_count == 2


def test_partition_rejects_mixed_orders(pipelines):
    T = pipelines.run("S4")[2]
    orders = [c.element_order for c in T.classes]
    i = orders.index(2) + 1
    j = orders.index(4) + 1
    rest = [[k] for k in range(1, T.class_count + 1) if k not in (i, j)]
    with pytest.raises(InvalidPartition):
        fusion_from_partition([[i, j]] + rest, T)


def test_partition_rejects_identity_fusion(pipelines):
    T = pipelines.run("S4")[2]
    rest = [[k] for k in range(3, T.class_count + 1)]
    with pytest.raises(InvalidPartition):
        fusion_from_partition([[1, 2]] + rest, T)


def test_partition_rejects_bad_cover(pipelines):
    T = pipelines.run("S4")[2]
    with pytest.raises(InvalidPartition):
        fusion_from_partition([[1, 1], [2, 3, 4, 5]], T)
    with pytest.raises(InvalidPartition):
        fusion_from_partition([[1], [2, 3]], T)
    with pytest.raises(InvalidPartition):
        fusion_from_partition([[1], [2, 3, 4, 5, 6]], T)


def test_partition_rejects_empty_block(pipelines):
    T = pipelines.run("S4")[2]
    rest = [[k] for k in range(2, T.class_count + 1)]
    for at in (0, 1, len(rest) + 1):
        blocks = [[1]] + rest
        blocks.insert(at, [])
        with pytest.raises(InvalidPartition, match=f"^block {at + 1} is empty$"):
            fusion_from_partition(blocks, T)


# -- invariance ----------------------------------------------------------------


def test_trivial_and_reduced_regular_always_invariant(pipelines):
    for name in ("S3", "S4", "S6", "S9"):
        _, _, T, F, _, _ = pipelines.run(name)
        triv = T.trivial_vector()
        assert is_invariant(triv, F, T)
        redreg = tuple(r - t for r, t in zip(T.regular_vector(), triv))
        assert is_invariant(redreg, F, T)


def test_cyclic3_invariance(pipelines):
    _, _, T, F, _, _ = pipelines.run("S3")
    assert F.labels == (1, 2, 2)
    triv = T.trivial_index
    rho1 = [0, 0, 0]
    rho1[(triv + 1) % 3] = 1
    assert not is_invariant(rho1, F, T)
    both = [1, 1, 1]
    both[triv] = 0
    assert is_invariant(both, F, T)


def test_invariance_closure_properties(pipelines):
    _, _, T, F, L, A = pipelines.run("S6")
    rng = random.Random(6)
    atoms = list(A.atoms)
    for _ in range(40):
        a = [0] * T.irr_count
        b = [0] * T.irr_count
        for _ in range(3):
            a = [x + y for x, y in zip(a, rng.choice(atoms))]
            b = [x + y for x, y in zip(b, rng.choice(atoms))]
        assert is_invariant(a, F, T) and is_invariant(b, F, T)
        assert is_invariant([x + y for x, y in zip(a, b)], F, T)
        # a and a+b invariant with nonnegative difference b: b invariant
        assert is_invariant(b, F, T)


def test_invariant_iff_in_lattice(pipelines):
    _, _, T, F, L, _ = pipelines.run("S4")
    rng = random.Random(4)
    for _ in range(200):
        v = [rng.randrange(0, 4) for _ in range(T.irr_count)]
        assert is_invariant(v, F, T) == lattice_contains(L.basis, v)
