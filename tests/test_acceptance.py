"""Acceptance suite: one test per criterion, every value exact.

Each criterion prints a single PASS line when its assertions hold (a
failing assertion aborts the test before the line prints, so the
printed output carries one pass/fail verdict per criterion).  Runtime
bounds are measured around fresh pipeline runs, not cached fixtures.
"""

import time

import pytest

from fmrep.catalog import CATALOG, load_group, traditional_labels
from fmrep.chartab import character_table
from fmrep.cyclonum import from_rational
from fmrep.cli import run_analysis
from fmrep.fimonoid import (
    analyze,
    atoms_hilbert,
    check_regular_conjecture,
)
from fmrep.fusion import fusion_from_partition, fusion_pattern
from fmrep.permcore import sylow_subgroup
from fmrep.repring import rep_lattice

from .oracles import (
    atoms_bounded_search,
    check_disjoint_basis,
    factorization_lengths,
    inner_product,
    monoid_elements_up_to_dimension,
)


def timed_run(name, prime=None):
    entry = CATALOG[name]
    prime = prime if prime is not None else entry.prime
    start = time.perf_counter()
    G = load_group(name)
    S = sylow_subgroup(G, prime)
    T = character_table(S)
    F = fusion_pattern(G, S, T)
    L = rep_lattice(F, T)
    A = analyze(L, T, F)
    elapsed = time.perf_counter() - start
    return G, S, T, F, L, A, elapsed


def _unit(r, *idxs):
    v = [0] * r
    for i in idxs:
        v[i] += 1
    return tuple(v)


def _sum_atoms(atoms, idxs):
    out = [0] * len(atoms[0])
    for i in idxs:
        out = [x + y for x, y in zip(out, atoms[i])]
    return out


def test_criterion_01_sigma3():
    G, S, T, F, L, A, elapsed = timed_run("S3")
    assert F.class_count == 2
    triv = T.trivial_index
    rest = [i for i in range(3) if i != triv]
    assert set(A.atoms) == {_unit(3, triv), _unit(3, *rest)}
    assert A.factorial
    assert elapsed < 1.0
    print(f"criterion 1 PASS: Sigma3 p=3 (2 classes, atoms {{1, rho1+rho2}}, factorial, {elapsed:.2f}s)")


def test_criterion_02_sigma4():
    G, S, T, F, L, A, elapsed = timed_run("S4")
    assert F.class_count == 4
    names = traditional_labels("d8", T)
    by = {v: k for k, v in names.items()}
    matched = False
    for x_name, xy_name in (("X", "XY"), ("XY", "X")):
        expected = {
            _unit(5, by["1"]),
            _unit(5, by[x_name], by["Z"]),
            _unit(5, by["Y"], by["Z"]),
            _unit(5, by[xy_name]),
        }
        matched = matched or set(A.atoms) == expected
    assert matched
    assert A.factorial
    assert not check_disjoint_basis(A.atoms, L)
    assert elapsed < 1.0
    print(f"criterion 2 PASS: Sigma4 p=2 (4 classes, atoms {{1, X+Z, Y+Z, XY}}, factorial, no disjoint basis, {elapsed:.2f}s)")


def test_criterion_03_a6_and_sl2_3():
    G, S, T, F, L, A, elapsed_a6 = timed_run("A6")
    assert F.class_count == 3
    names = traditional_labels("d8", T)
    by = {v: k for k, v in names.items()}
    matched = False
    for x_name, xy_name in (("X", "XY"), ("XY", "X")):
        expected = {
            _unit(5, by["1"]),
            _unit(5, by[x_name], by[xy_name], by["Z"]),
            _unit(5, by["Y"], by["Z"]),
        }
        matched = matched or set(A.atoms) == expected
    assert matched and A.factorial
    assert elapsed_a6 < 1.0

    G, S, T, F, L, A, elapsed_sl = timed_run("SL2_3")
    assert F.class_count == 3
    names = traditional_labels("d8", T)
    by = {v: k for k, v in names.items()}
    expected = {
        _unit(5, by["1"]),
        _unit(5, by["X"], by["Y"], by["XY"]),
        _unit(5, by["Z"]),
    }
    assert set(A.atoms) == expected and A.factorial
    assert elapsed_sl < 1.0
    print(f"criterion 3 PASS: A6 (3 classes, atoms {{1, X+XY+Z, Y+Z}}) and SL2(3) (3 classes, atoms {{1, X+Y+XY, Z}}), both factorial ({elapsed_a6:.2f}s, {elapsed_sl:.2f}s)")


def test_criterion_04_sigma9():
    G, S, T, F, L, A, elapsed = timed_run("S9")
    assert F.class_count == 5
    assert len(A.atoms) == 6
    assert not A.factorial
    w = A.factorization_witness
    assert w is not None
    lhs = _sum_atoms(A.atoms, w.decomp_a)
    rhs = _sum_atoms(A.atoms, w.decomp_b)
    assert lhs == rhs == list(w.element)
    assert sorted(w.decomp_a) != sorted(w.decomp_b)
    assert A.half_factorial
    assert elapsed < 60.0
    print(f"criterion 4 PASS: Sigma9 p=3 (5 classes, 6 atoms, non-factorial witness re-sums, half-factorial, {elapsed:.1f}s)")


def test_criterion_05_sigma6():
    G, S, T, F, L, A, elapsed = timed_run("S6")
    assert F.class_count == 6
    assert len(A.atoms) == 7
    assert not A.factorial
    assert not A.half_factorial
    w = A.length_witness
    assert w is not None
    lhs = _sum_atoms(A.atoms, w.decomp_a)
    rhs = _sum_atoms(A.atoms, w.decomp_b)
    assert lhs == rhs == list(w.element)
    assert len(w.decomp_a) != len(w.decomp_b)
    # the witness is the documented relation: three atoms of dimensions
    # {4, 4, 6} against two of dimensions {7, 7}
    dims = [T.dimension_of(a) for a in A.atoms]
    sides = sorted((w.decomp_a, w.decomp_b), key=len)
    assert sorted(dims[i] for i in sides[0]) == [7, 7]
    assert sorted(dims[i] for i in sides[1]) == [4, 4, 6]
    # alpha7 membership: subtracting one dimension-7 atom from the
    # three-atom side yields the other dimension-7 atom
    sevens = [i for i, d in enumerate(dims) if d == 7]
    lhs3 = _sum_atoms(A.atoms, sides[1])
    a, b = (A.atoms[i] for i in sevens)
    assert [x - y for x, y in zip(lhs3, a)] == list(b)
    # both dimension-7 atoms are multiplicity-free with five constituents
    # of degrees {1, 1, 1, 2, 2}, the composition of alpha2 and alpha7
    for i in sevens:
        atom = A.atoms[i]
        assert max(atom) == 1 and sum(atom) == 5
        assert sorted(T.degrees[j] for j, m in enumerate(atom) if m) == [1, 1, 1, 2, 2]
    assert elapsed < 30.0
    print(f"criterion 5 PASS: Sigma6 p=2 (6 classes, 7 atoms incl. alpha7, not half-factorial, unequal-length witness, {elapsed:.1f}s)")


def test_criterion_06_a9():
    G, S, T, F, L, A, elapsed = timed_run("A9")
    assert F.class_count == 6
    assert len(A.atoms) == 7
    assert elapsed < 120.0
    print(f"criterion 6 PASS: A9 p=3 (6 classes, 7 atoms, {elapsed:.1f}s)")


TABLE_ROWS = [
    ("PSL2_17", 5, 7),
    ("PSU3_5", 5, 8),
    ("M10", 6, 8),
    ("SL3_3", 5, 8),
    ("PSL3_5", 7, 8),
    ("PSL2_31", 9, 21),
    ("GL3_3", 10, 16),
]


def test_criterion_07_appendix_table():
    total = 0.0
    results = []
    for name, classes, atoms in TABLE_ROWS:
        G, S, T, F, L, A, elapsed = timed_run(name)
        total += elapsed
        assert F.class_count == classes, name
        assert len(A.atoms) == atoms, name
        results.append(f"{name}({F.class_count},{len(A.atoms)})")
    assert total < 1800.0
    print(f"criterion 7 PASS: appendix table {' '.join(results)} in {total:.1f}s")


def test_criterion_08_factorial_positives():
    _, _, _, _, _, A8, t8 = timed_run("A8")
    assert A8.factorial
    _, _, _, _, _, AP, tp = timed_run("PSp4_3")
    assert AP.factorial
    print(f"criterion 8 PASS: A8 p=2 and PSp4(3) p=3 factorial ({t8:.1f}s, {tp:.1f}s)")


def test_criterion_09_property_suites(pipelines):
    one, nil = from_rational(1), from_rational(0)
    names = [n for n, e in CATALOG.items() if e.tier in ("fast", "table")]
    for name in names:
        _, S, T, F, L, A = pipelines.run(name)
        for i in range(T.irr_count):
            for j in range(i, T.irr_count):
                expected = one if i == j else nil
                assert inner_product(T.chars[i], T.chars[j], T) == expected
        assert L.rank == F.class_count
        assert len(A.atoms) >= L.rank
        assert check_regular_conjecture(A.atoms, T)
        if S.order <= 81:
            found = atoms_bounded_search(L, T)
            assert [tuple(v) for v in found] == [tuple(a) for a in A.atoms]
    # transitive partition on the extraspecial group of order 125
    S = load_group("E125")
    T = character_table(S)
    F = fusion_from_partition([[1], list(range(2, T.class_count + 1))], T)
    L = rep_lattice(F, T)
    atoms = atoms_hilbert(L, T.degrees)
    triv = T.trivial_vector()
    redreg = tuple(r - t for r, t in zip(T.regular_vector(), triv))
    assert set(map(tuple, atoms)) == {triv, redreg}
    print(f"criterion 9 PASS: orthogonality/rank/atom-bound/regular-bound on {len(names)} entries; search paths agree on |S|<=81; transitive 5^(1+2) atoms = {{1, reduced regular}}")


def test_criterion_10_factorization_brute_force(pipelines):
    # Sigma9: every element of dimension <= 30 factors with one length
    _, _, T9, _, _, A9 = pipelines.run("S9")
    elements = monoid_elements_up_to_dimension(A9.atoms, T9.degrees, 30)
    assert elements
    memo = {}
    for v in elements:
        lengths = factorization_lengths(v, A9.atoms, memo)
        assert len(lengths) == 1, (v, lengths)
    # Sigma6: some element of dimension <= 30 has two factorization lengths
    _, _, T6, _, _, A6 = pipelines.run("S6")
    elements6 = monoid_elements_up_to_dimension(A6.atoms, T6.degrees, 30)
    memo6 = {}
    unequal = [
        v for v in elements6 if len(factorization_lengths(v, A6.atoms, memo6)) > 1
    ]
    assert unequal
    w = pipelines.run("S6")[5].length_witness
    assert tuple(w.element) in set(elements6)
    assert len(factorization_lengths(tuple(w.element), A6.atoms, memo6)) > 1
    print(f"criterion 10 PASS: brute-force factorizations confirm half-factoriality verdicts (Sigma9: {len(elements)} elements single-length; Sigma6: {len(unequal)} unequal-length elements)")
