import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import fmrep.repring
from fmrep.catalog import CATALOG, traditional_labels
from fmrep.chartab import character_table
from fmrep.fusion import fusion_from_partition, fusion_pattern
from fmrep.intlin import integer_kernel, lattice_contains, solve_integer
from fmrep.permcore import CertificateError, sylow_subgroup
from fmrep.repring import difference_matrix, format_virtual, fusing_pairs, rep_lattice

from .groups_zoo import _perm_group, borel
from .oracles import full_difference_matrix, is_invariant, lattices_equal, two_hnf_kernel

# Sylow subgroups whose stable partitions are checked against the oracle:
# P3(S9) = C3 wr C3 (k = 17) and D32, the Sylow 2-subgroup of PSL2_31 (k = 11).
PARTITION_GROUPS = {
    "P3(S9)": ("(1,2,3)", "(1,4,7)(2,5,8)(3,6,9)", 9),
    "D32": ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16)",
            "(2,16)(3,15)(4,14)(5,13)(6,12)(7,11)(8,10)", 16),
}


def test_discrete_pattern_gives_no_rows_and_full_lattice(pipelines):
    T = pipelines.run("S4")[2]
    D = fusion_from_partition([[i + 1] for i in range(T.class_count)], T)
    assert difference_matrix(D, T) == [[] for _ in range(T.irr_count)]
    L = rep_lattice(D, T)
    assert L.rank == T.irr_count
    assert list(L.basis) == [
        tuple(1 if i == j else 0 for j in range(T.irr_count))
        for i in range(T.irr_count)
    ]


def test_fusing_pairs_spanning_tree(pipelines):
    F = pipelines.run("S9")[3]
    pairs = fusing_pairs(F)
    assert len(pairs) == len(F.labels) - F.class_count
    for c1, c2 in pairs:
        assert F.labels[c1] == F.labels[c2] and c1 < c2


def test_cyclic3_kernel_shape(pipelines):
    _, _, T, F, L, _ = pipelines.run("S3")
    triv = T.trivial_index
    other = [i for i in range(3) if i != triv]
    expected = [[0] * 3 for _ in range(2)]
    expected[0][triv] = 1
    expected[1][other[0]] = 1
    expected[1][other[1]] = 1
    assert lattices_equal([list(r) for r in L.basis], expected)


def test_sigma4_lattice_matches_named_generators(pipelines):
    _, _, T, F, L, _ = pipelines.run("S4")
    names = traditional_labels("d8", T)
    by_name = {v: k for k, v in names.items()}
    r = T.irr_count

    def unit(*idxs):
        v = [0] * r
        for i in idxs:
            v[i] += 1
        return v

    # the X / XY naming is only pinned up to an outer swap; accept either
    candidates = []
    for x_name, xy_name in (("X", "XY"), ("XY", "X")):
        rows = [
            unit(by_name["1"]),
            unit(by_name[x_name], by_name["Z"]),
            unit(by_name["Y"], by_name["Z"]),
            unit(by_name[xy_name]),
        ]
        candidates.append(lattices_equal([list(b) for b in L.basis], rows))
    assert any(candidates)


def test_sigma6_kernel_rank(pipelines):
    L = pipelines.run("S6")[4]
    assert L.rank == 6


@pytest.mark.parametrize(
    "name", [n for n, e in CATALOG.items() if e.tier in ("fast", "table")]
)
def test_rank_equals_fusion_class_count(name, pipelines):
    _, _, _, F, L, _ = pipelines.run(name)
    assert L.rank == F.class_count


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.tier == "fast"])
def test_lattice_rows_invariant_and_contains_units(name, pipelines):
    _, _, T, F, L, _ = pipelines.run(name)
    for row in L.basis:
        assert is_invariant(row, F, T)
    assert lattice_contains(L.basis, T.trivial_vector())
    assert lattice_contains(L.basis, T.regular_vector())


def test_difference_rows_match_oracle_invariance(pipelines):
    """A unit vector has zero difference row exactly when its
    irreducible is constant on fused classes."""
    _, _, T, F, _, _ = pipelines.run("S9")
    diff = difference_matrix(F, T)
    assert len(diff) == T.irr_count
    for j, row in enumerate(diff):
        unit = [int(i == j) for i in range(T.irr_count)]
        assert (not any(row)) == is_invariant(unit, F, T)


def _assert_matches_full_matrix(F, T):
    """The kernel is the oracle's, and the columns are exactly the
    oracle's distinct nonzero columns, sorted."""
    diff = difference_matrix(F, T)
    full = full_difference_matrix(F, T)
    assert len(diff) == T.irr_count
    assert integer_kernel(diff) == integer_kernel(full)
    assert list(zip(*diff)) == sorted(set(zip(*full)) - {(0,) * T.irr_count})


@pytest.mark.parametrize(
    "name", [n for n, e in CATALOG.items() if e.tier in ("fast", "table")]
)
def test_difference_matrix_matches_full_oracle(name, pipelines):
    _, _, T, F, _, _ = pipelines.run(name)
    _assert_matches_full_matrix(F, T)


@pytest.mark.parametrize("p,torus", [(3, "full"), (3, "one"), (5, "full"), (5, "one")])
def test_borel_lattice_matches_full_oracle(p, torus):
    """B3(p) = U3(p) x| T' fuses classes of S = U3(p) with values in
    Z[zeta_p]; at p = 5 the difference matrix is 29 x 84 (full torus) or
    29 x 60 (one entry), wider than tall.  The lattice is the oracle's
    kernel of all the columns."""
    G = borel(3, p, torus)
    S = sylow_subgroup(G, p)
    T = character_table(S)
    F = fusion_pattern(G, S, T)
    _assert_matches_full_matrix(F, T)
    assert [list(row) for row in rep_lattice(F, T).basis] == two_hnf_kernel(full_difference_matrix(F, T))


def _stable_partitions(T, rng, draws):
    """The Galois orbits of T's classes, one block per element order, and
    `draws` random unions of orbits within each order (1-based blocks)."""
    by_order, seen = {}, set()
    for j, c in enumerate(T.classes):
        if j not in seen:
            o = c.element_order
            orbit = {j} | {T.power_class[j][t] for t in range(1, o) if gcd(t, o) == 1}
            seen |= orbit
            by_order.setdefault(o, []).append(sorted(i + 1 for i in orbit))
    orbits = [orbit for o in sorted(by_order) for orbit in by_order[o]]
    out = [orbits, [sum(by_order[o], []) for o in sorted(by_order)]]
    for _ in range(draws):
        blocks = []
        for o in sorted(by_order):
            bins = [[] for _ in range(rng.randint(1, len(by_order[o])))]
            for orbit in by_order[o]:
                rng.choice(bins).extend(orbit)
            blocks += [sorted(b) for b in bins if b]
        out.append(blocks)
    return out


@pytest.mark.parametrize("name", sorted(PARTITION_GROUPS))
def test_difference_matrix_matches_full_oracle_on_partitions(name):
    T = character_table(_perm_group(*PARTITION_GROUPS[name]))
    for partition in _stable_partitions(T, random.Random(name), draws=4):
        _assert_matches_full_matrix(fusion_from_partition(partition, T), T)


def test_certificate_value_not_in_cyclotomic_integers(pipelines):
    """A character value with a coefficient 1/2 is not an algebraic
    integer; its linearization raises instead of rounding."""
    _, _, T, F, _, _ = pipelines.run("S4")
    c = fusing_pairs(F)[0][0]
    chars = [list(row) for row in T.chars]
    chars[-1][c] = chars[-1][c] + Fraction(1, 2)
    bad = dataclasses.replace(T, chars=tuple(tuple(row) for row in chars))
    with pytest.raises(CertificateError, match=r"not in Z\[zeta"):
        rep_lattice(F, bad)


def _patched_kernel(monkeypatch, edit):
    def kernel(diff):
        return edit([list(r) for r in integer_kernel(diff)], diff)

    monkeypatch.setattr(fmrep.repring, "integer_kernel", kernel)


def test_certificate_kernel_row_breaks_condition(monkeypatch, pipelines):
    _, _, T, F, _, _ = pipelines.run("S4")

    def swap_in_unit(rows, diff):
        j = next(j for j, d in enumerate(diff) if any(d))
        rows[-1] = [int(i == j) for i in range(len(diff))]
        return rows

    _patched_kernel(monkeypatch, swap_in_unit)
    with pytest.raises(CertificateError, match="breaks a fusion condition"):
        rep_lattice(F, T)


def test_certificate_kernel_missing_row(monkeypatch, pipelines):
    _, _, T, F, _, _ = pipelines.run("S4")
    _patched_kernel(monkeypatch, lambda rows, diff: rows[:-1])
    with pytest.raises(CertificateError, match="rank"):
        rep_lattice(F, T)


def test_certificate_kernel_sublattice(monkeypatch, pipelines):
    _, _, T, F, _, _ = pipelines.run("S4")
    _patched_kernel(monkeypatch, lambda rows, diff: [[2 * x for x in r] for r in rows])
    with pytest.raises(CertificateError, match="misses the trivial vector"):
        rep_lattice(F, T)


def test_lattice_solves_and_coordinates(pipelines):
    _, _, T, F, L, _ = pipelines.run("S9")
    basis = [list(r) for r in L.basis]
    # every basis row solves over the kernel basis (mutual containment)
    for row in basis:
        assert solve_integer(basis, row) is not None
    x = solve_integer(basis, list(T.regular_vector()))
    assert x is not None
    assert L.to_multiplicities(x) == T.regular_vector()
    unit = [1] + [0] * (T.irr_count - 1)
    assert solve_integer(basis, unit) is None or is_invariant(unit, F, T)


def test_lattice_equals_atom_span(pipelines):
    for name in ("S4", "S6", "S9", "A9", "PSL2_17"):
        _, _, _, _, L, A = pipelines.run(name)
        assert lattices_equal([list(a) for a in A.atoms], [list(r) for r in L.basis])


def test_invariant_vectors_lie_in_lattice(pipelines):
    _, _, T, F, L, _ = pipelines.run("S6")
    # bounded exhaustive search over small nonnegative vectors
    small = [range(0, 2)] * T.irr_count
    hits = 0
    for v in itertools.product(*small):
        if is_invariant(v, F, T):
            hits += 1
            assert lattice_contains(L.basis, v)
    assert hits > 1


def test_format_virtual():
    assert format_virtual((1, 0, -2, 1)) == "r1 - 2*r3 + r4"
    assert format_virtual((0, 0)) == "0"
    assert format_virtual((-1, 1)) == "-r1 + r2"
    names = ["1", "X", "Y", "XY", "Z"]
    assert format_virtual((1, 0, -1, 0, 2), names) == "1 - Y + 2*Z"
    assert format_virtual((0, -3, 0, 1, 0), names) == "-3*X + XY"
