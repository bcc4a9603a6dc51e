import itertools

import pytest

import fmrep.repring
from fmrep.catalog import CATALOG, traditional_labels
from fmrep.fusion import discrete_pattern
from fmrep.intlin import integer_kernel, solve_integer
from fmrep.permcore import CertificateError
from fmrep.repring import difference_matrix, format_virtual, fusing_pairs, rep_lattice

from .oracles import is_invariant, lattices_equal


def test_discrete_pattern_gives_no_rows_and_full_lattice(pipelines):
    T = pipelines.run("S4")[2]
    D = discrete_pattern(T)
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
    assert L.contains(T.trivial_vector())
    assert L.contains(T.regular_vector())


def test_difference_rows_match_oracle_invariance(pipelines):
    """A unit vector has zero difference row exactly when its
    irreducible is constant on fused classes."""
    _, _, T, F, _, _ = pipelines.run("S9")
    diff = difference_matrix(F, T)
    assert len(diff) == T.irr_count
    for j, row in enumerate(diff):
        unit = [int(i == j) for i in range(T.irr_count)]
        assert (not any(row)) == is_invariant(unit, F, T)


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
    # every basis row solves over the kernel basis (mutual containment)
    for row in L.basis:
        assert solve_integer([list(r) for r in L.basis], list(row)) is not None
    x = L.coordinates(T.regular_vector())
    assert x is not None
    assert L.to_multiplicities(x) == T.regular_vector()
    assert L.coordinates([1] + [0] * (T.irr_count - 1)) is None or is_invariant(
        [1] + [0] * (T.irr_count - 1), F, T
    )


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
            assert L.contains(v)
    assert hits > 1


def test_format_virtual():
    assert format_virtual((1, 0, -2, 1)) == "r1 - 2*r3 + r4"
    assert format_virtual((0, 0)) == "0"
    assert format_virtual((-1, 1)) == "-r1 + r2"
    names = ["1", "X", "Y", "XY", "Z"]
    assert format_virtual((1, 0, -1, 0, 2), names) == "1 - Y + 2*Z"
    assert format_virtual((0, -3, 0, 1, 0), names) == "-3*X + XY"
