import random
import time
from dataclasses import replace
from math import lcm

import numpy as np
import pytest

from fmrep import chartab
from fmrep.catalog import CATALOG
from fmrep.chartab import character_table
from fmrep.cyclonum import from_rational, zeta
from fmrep.permcore import (
    CapExceeded,
    CertificateError,
    class_partition,
    group_from_generators,
    parse_perm,
)

from .groups_zoo import all_groups_up_to_16, cyclic_data, direct_data, regular_group, sylow_products
from .oracles import (
    character_of,
    class_matrices,
    inner_product,
    lambda_scan_eigenvectors,
    numeric_character_table,
)

Z3 = group_from_generators([parse_perm("(1,2,3)", 3)])
D8 = group_from_generators([parse_perm("(1,2,3,4)", 4), parse_perm("(1,3)", 4)])


def test_cyclic3_values():
    T = character_table(Z3)
    assert T.degrees == (1, 1, 1)
    rows = {tuple(str(v) for v in row) for row in T.chars}
    z = zeta(3, 1)
    expected = {
        tuple(str(v) for v in (from_rational(1), from_rational(1), from_rational(1))),
        tuple(str(v) for v in (from_rational(1), z, z * z)),
        tuple(str(v) for v in (from_rational(1), z * z, z)),
    }
    assert rows == expected


def test_d8_degrees(pipelines):
    T = pipelines.run("S4")[2]
    assert T.degrees == (1, 1, 1, 1, 2)


def test_wreath_z3_degrees(pipelines):
    T = pipelines.run("S9")[2]
    assert T.irr_count == 17
    assert sorted(T.degrees) == [1] * 9 + [3] * 8
    assert sum(d * d for d in T.degrees) == 81


def test_character_of_trivial_and_regular(pipelines):
    T = pipelines.run("S9")[2]
    ones = character_of(T.trivial_vector(), T)
    assert all(v == 1 for v in ones)
    reg = character_of(T.regular_vector(), T)
    assert reg[0] == T.group.order
    assert all(v == 0 for v in reg[1:])


def test_character_of_sum_on_cyclic3():
    T = character_table(Z3)
    triv = T.trivial_index
    mult = [1, 1, 1]
    mult[triv] = 0
    values = character_of(mult, T)
    assert values[0] == 2
    assert values[1] == -1 and values[2] == -1


def test_inner_products_cyclic3():
    T = character_table(Z3)
    for i in range(3):
        for j in range(3):
            expected = from_rational(1 if i == j else 0)
            assert inner_product(T.chars[i], T.chars[j], T) == expected
    reg = character_of(T.regular_vector(), T)
    triv = character_of(T.trivial_vector(), T)
    assert inner_product(reg, triv, T) == 1
    mult = [1, 1, 1]
    mult[T.trivial_index] = 0
    assert inner_product(character_of(mult, T), triv, T) == 0


@pytest.mark.parametrize(
    "name", [n for n, e in CATALOG.items() if e.tier in ("fast", "table")]
)
def test_orthogonality_catalog(name, pipelines):
    T = pipelines.run(name)[2]
    one, nil = from_rational(1), from_rational(0)
    for i in range(T.irr_count):
        for j in range(i, T.irr_count):
            expected = one if i == j else nil
            assert inner_product(T.chars[i], T.chars[j], T) == expected
    # column orthogonality: sum_i chi_i(c) conj(chi_i(c')) = |S|/|C| on the
    # diagonal, 0 off it
    for a in range(T.class_count):
        for b in range(T.class_count):
            total = from_rational(0)
            for i in range(T.irr_count):
                total = total + T.chars[i][a] * T.chars[i][b].conjugate()
            if a == b:
                assert total == from_rational(T.group.order // T.classes[a].size)
            else:
                assert total == nil


@pytest.mark.parametrize(
    "name", [n for n, e in CATALOG.items() if e.tier in ("fast", "table")]
)
def test_regular_character_catalog(name, pipelines):
    T = pipelines.run(name)[2]
    reg = character_of(T.regular_vector(), T)
    assert reg[0] == T.group.order
    assert all(v == 0 for v in reg[1:])
    assert tuple(v.rational_value() for v in (row[0] for row in T.chars)) == T.degrees


def test_deterministic_construction(pipelines):
    S = pipelines.run("S6")[1]
    T1 = character_table(S)
    T2 = character_table(S)
    assert T1.chars == T2.chars
    assert T1.classes == T2.classes


@pytest.mark.parametrize("name,G", all_groups_up_to_16())
def test_against_numeric_oracle_all_groups_up_to_16(name, G):
    T = character_table(G)
    assert sum(d * d for d in T.degrees) == G.order
    oracle_rows = numeric_character_table(G)
    assert list(T.chars) == oracle_rows, f"table mismatch for {name}"


@pytest.mark.parametrize("name,G", sylow_products())
def test_against_numeric_oracle_sylow_products(name, G):
    assert list(character_table(G).chars) == numeric_character_table(G)


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.tier in ("fast", "table")])
def test_against_numeric_oracle_random_subgroups_of_catalog_sylow(name, pipelines):
    """Three subgroups of a catalog Sylow subgroup S, generated by one,
    two and two random elements of S (orders 1 to |S|, k up to 17)."""
    S = pipelines.run(name)[1]
    rng = random.Random(name)
    elements = list(S.elements())
    for k in (1, 2, 2):
        H = group_from_generators([rng.choice(elements) for _ in range(k)], S.degree)
        assert list(character_table(H).chars) == numeric_character_table(H), (name, k)


def _split_inputs(G):
    classes, lookup = class_partition(G)
    k = len(classes)
    ell = chartab._dixon_prime(lcm(*(c.element_order for c in classes)), G.order)
    return chartab._class_elements(lookup, k), [c.representative for c in classes], lookup, ell


@pytest.mark.parametrize("name,G", all_groups_up_to_16() + sylow_products())
def test_split_matches_lambda_scan(name, G):
    args = _split_inputs(G)
    assert chartab._split_eigenvectors(*args) == lambda_scan_eigenvectors(*args)


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.tier == "fast"])
def test_split_matches_lambda_scan_catalog_sylow(name, pipelines):
    args = _split_inputs(pipelines.run(name)[1])
    assert chartab._split_eigenvectors(*args) == lambda_scan_eigenvectors(*args)


@pytest.mark.parametrize("name,G", all_groups_up_to_16() + sylow_products())
def test_split_gives_common_eigenvectors(name, G):
    """Every vector of the split is an eigenvector mod ell of every dense
    class matrix built from the definition, and the k vectors are
    independent."""
    args = _split_inputs(G)
    ell = args[-1]
    vecs = chartab._split_eigenvectors(*args)
    assert len(chartab._rref_mod(vecs, ell)[0]) == len(vecs) == len(args[1])
    V = np.array(vecs, dtype=np.int64)
    for A in class_matrices(G):
        images = V @ np.array(A, dtype=np.int64).T % ell
        for v, w in zip(V, images):
            p = int(np.flatnonzero(v)[0])
            lam = int(w[p]) * pow(int(v[p]), -1, ell) % ell
            assert np.array_equal(w, lam * v % ell), f"not a common eigenvector for {name}"


@pytest.mark.parametrize(
    "name,data",
    [
        ("C16", cyclic_data(16)),
        ("C64", cyclic_data(64)),
        ("C4xC8", direct_data(cyclic_data(4), cyclic_data(8))),
    ],
)
def test_centre_split_of_abelian_groups(name, data):
    """On an abelian group every class is central, so the split is all
    closed form: its generators have orders 2, 4, ..., 64 on C64, and
    trying every tuple of their roots (2^21 tuples) took 13 s there."""
    G = regular_group(*data)
    args = _split_inputs(G)
    t0 = time.perf_counter()
    omegas = chartab._split_eigenvectors(*args)
    T = character_table(G)
    assert time.perf_counter() - t0 < 1.0
    assert omegas == lambda_scan_eigenvectors(*args)
    assert T.degrees == (1,) * G.order


def test_centre_split_keeps_the_charpoly_small(monkeypatch):
    """On D8 x C2 x D8 x C2 (k = 100, centre C2^4) the central classes
    split F_ell^100 into joint eigenspaces of dimension at most 16, so no
    characteristic polynomial is taken of more than 20 x 20; without the
    centre first the first one was 100 x 100."""
    [G] = [G for name, G in sylow_products() if name == "D8xC2xD8xC2"]
    sizes = []
    real = chartab._charpoly_mod
    monkeypatch.setattr(chartab, "_charpoly_mod", lambda M, ell: sizes.append(len(M)) or real(M, ell))
    assert character_table(G).class_count == 100
    assert sizes and max(sizes) <= 20


def test_against_numeric_oracle_wreath(pipelines):
    S = pipelines.run("S9")[1]
    T = character_table(S)
    assert list(T.chars) == numeric_character_table(S)


def test_size_cap():
    from fmrep.chartab import SIZE_CAP
    from fmrep.permcore import CapExceeded, group_from_generators, parse_perm

    big = group_from_generators(
        [parse_perm("(1,2)", 9), parse_perm("(1,2,3,4,5,6,7,8,9)", 9)]
    )
    assert big.order > SIZE_CAP
    with pytest.raises(CapExceeded):
        character_table(big)


def test_value_lift_certificate(monkeypatch):
    # with 1 as the primitive root every eigenvalue reads as 1, so the
    # lifted multiplicities of a nontrivial class cannot sum to the degree
    from fmrep import chartab
    from fmrep.permcore import CertificateError

    monkeypatch.setattr(chartab, "_primitive_root", lambda ell: 1)
    with pytest.raises(CertificateError, match="multiplicit"):
        character_table(Z3)


def _identity_matrices(elements, reps, lookup):
    return [((m, 1),) for m in range(len(reps))]


def _shift_after_first(real):
    calls = []

    def class_matrix(elements, reps, lookup):
        calls.append(None)
        if len(calls) == 1:
            return real(elements, reps, lookup)
        return [(((m + 1) % len(reps), 1),) for m in range(len(reps))]

    return class_matrix


def _raise_one_entry(real):
    """Entry 1 of common eigenvector 1 raised by 1 mod ell: on D8 (ell = 5)
    its squared degree is 3 mod 5, which no d <= sqrt(8) has."""

    def split(class_elements, reps, lookup, ell):
        vectors = [list(v) for v in real(class_elements, reps, lookup, ell)]
        vectors[1][1] = (vectors[1][1] + 1) % ell
        return vectors

    return split


@pytest.mark.parametrize(
    "attr,patch,match",
    [
        # after the central class splits off the degree-2 character, a
        # cyclic shift of the classes does not keep the 4-dim eigenspace
        ("_class_matrix", _shift_after_first, "does not preserve an eigenspace"),
        ("_class_matrix", lambda real: _identity_matrices, "do not split"),
        ("_split_eigenvectors", lambda real: lambda *a: real(*a)[1:], "found 4 common eigenvectors"),
        ("_split_eigenvectors", lambda real: lambda *a: [real(*a)[0]] * 5, "squared degrees"),
        ("_split_eigenvectors", _raise_one_entry, "no degree d <= sqrt"),
        ("Cyclotomic", lambda real: lambda o, m: real(o, [x + (o == 1) for x in m]), "lifted degree"),
    ],
    ids=["eigenspace", "split", "count", "degrees", "degree-root", "degree"],
)
def test_table_certificates(monkeypatch, attr, patch, match):
    monkeypatch.setattr(chartab, attr, patch(getattr(chartab, attr)))
    with pytest.raises(CertificateError, match=match):
        character_table(D8)


V4 = group_from_generators([parse_perm("(1,2)", 4), parse_perm("(3,4)", 4)])


def _central_matrix_after(calls_real, sigma):
    """A `_class_matrix` patch: the first `calls_real` calls are real,
    later ones return the permutation sigma of the classes."""
    real, calls = chartab._class_matrix, []

    def class_matrix(elements, reps, lookup):
        calls.append(None)
        if len(calls) <= calls_real:
            return real(elements, reps, lookup)
        return [((j, 1),) for j in sigma]

    return class_matrix


@pytest.mark.parametrize(
    "group,calls_real,sigma,match",
    [
        # D8's centre has order 2, so a 5-cycle of its classes has only the
        # eigenvalue 1 among the roots of x^2 - 1: one vector on 5 classes
        (D8, 0, [1, 2, 3, 4, 0], "1 central eigenvectors on an orbit of 5 classes"),
        (D8, 0, [0] * 5, "central class matrix 1 is not a permutation"),
        # a swap of classes 0 and 2 of V4 does not commute with the real
        # first matrix (0 1)(2 3): the layers it adds overlap
        (V4, 1, [2, 1, 0, 3], "fails an edge equation"),
    ],
    ids=["count", "permutation", "edge"],
)
def test_centre_certificates(monkeypatch, group, calls_real, sigma, match):
    monkeypatch.setattr(chartab, "_class_matrix", _central_matrix_after(calls_real, sigma))
    with pytest.raises(CertificateError, match=match):
        character_table(group)


def test_trivial_index_certificate():
    T = character_table(D8)
    rows = tuple(r for r in T.chars if any(v != 1 for v in r))
    with pytest.raises(CertificateError, match="no trivial character"):
        replace(T, chars=rows).trivial_index


def test_root_without_eigenvector_certificate(monkeypatch):
    # a linear factor x - lam at a lam that is no eigenvalue makes lam a root
    # whose nullspace is empty
    real = chartab._charpoly_mod

    def with_false_root(M, ell):
        poly = real(M, ell)
        lam = next(x for x in range(ell) if _evaluate(poly, x, ell))
        return [(a - lam * b) % ell for a, b in zip(poly + [0], [0] + poly)]

    monkeypatch.setattr(chartab, "_charpoly_mod", with_false_root)
    with pytest.raises(CertificateError, match="has no eigenvector"):
        character_table(D8)


def test_primitive_root_certificate(monkeypatch):
    # with 1 among the prime divisors of ell - 1 no g passes the test
    monkeypatch.setattr(chartab, "prime_divisors", lambda n: [1])
    with pytest.raises(CertificateError, match="no primitive root mod 7"):
        chartab._primitive_root(7)


# -- characteristic polynomial ------------------------------------------------


def _evaluate(poly, x, ell):
    value = 0
    for c in poly:
        value = (value * x + c) % ell
    return value


def _matmul(A, B, ell):
    return [[sum(a * b for a, b in zip(row, col)) % ell for col in zip(*B)] for row in A]


def _poly_at_matrix(poly, M, ell):
    """poly(M) mod ell by Horner on matrices."""
    n = len(M)
    P = [[0] * n for _ in range(n)]
    for c in poly:
        P = _matmul(P, M, ell)
        for i in range(n):
            P[i][i] = (P[i][i] + c) % ell
    return P


def _singular(M, ell):
    return len(chartab._rref_mod(M, ell)[0]) < len(M)


@pytest.mark.parametrize("ell", [2, 3, 37, 41])
def test_charpoly_cayley_hamilton(ell):
    rnd = random.Random(ell)
    for n in range(1, 9):
        for _ in range(4):
            M = [[rnd.randrange(ell) for _ in range(n)] for _ in range(n)]
            poly = chartab._charpoly_mod(M, ell)
            assert len(poly) == n + 1 and poly[0] == 1
            assert _poly_at_matrix(poly, M, ell) == [[0] * n for _ in range(n)]


@pytest.mark.parametrize("ell", [2, 3, 37, 41])
def test_charpoly_of_companion_matrix(ell):
    rnd = random.Random(100 + ell)
    for n in range(1, 9):
        poly = [1] + [rnd.randrange(ell) for _ in range(n)]
        # companion matrix of x^n + poly[1] x^(n-1) + ... + poly[n]
        C = [[int(i == j + 1) for j in range(n)] for i in range(n)]
        for i in range(n):
            C[i][n - 1] = -poly[n - i] % ell
        assert chartab._charpoly_mod(C, ell) == poly


@pytest.mark.parametrize("ell", [3, 37])
def test_charpoly_roots_are_the_eigenvalues(ell):
    rnd = random.Random(200 + ell)
    for n in range(1, 6):
        for _ in range(6):
            M = [[rnd.randrange(ell) for _ in range(n)] for _ in range(n)]
            poly = chartab._charpoly_mod(M, ell)
            for lam in range(ell):
                shifted = [[(x - lam * (i == j)) % ell for j, x in enumerate(row)]
                           for i, row in enumerate(M)]
                assert (_evaluate(poly, lam, ell) == 0) == _singular(shifted, ell)


@pytest.mark.parametrize(
    "M,poly",
    [
        ([], [1]),
        ([[5]], [1, 36 - 5 + 1]),
        ([[1, 2], [3, 4]], [1, 37 - 5, 37 - 2]),  # x^2 - 5x - 2
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [1, 0, 0, 0]),
        ([[0, 1, 7], [0, 0, 1], [0, 0, 0]], [1, 0, 0, 0]),  # nilpotent
        # column 0 is zero on the subdiagonal, so the reduction swaps rows 1 and 2
        ([[1, 2, 3], [0, 4, 5], [6, 7, 8]], None),
    ],
    ids=["dim0", "dim1", "dim2", "zero", "nilpotent", "swap"],
)
def test_charpoly_small_cases(M, poly):
    ell = 37
    got = chartab._charpoly_mod(M, ell)
    if poly is None:
        # det(xI - M) by cofactor expansion along the first row, at each x
        def det(A):
            if not A:
                return 1
            return sum((-1) ** j * A[0][j] * det([r[:j] + r[j + 1:] for r in A[1:]])
                       for j in range(len(A)))

        for x in range(ell):
            shifted = [[(x * (i == j) - a) for j, a in enumerate(row)] for i, row in enumerate(M)]
            assert _evaluate(got, x, ell) == det(shifted) % ell
    else:
        assert got == poly


@pytest.mark.parametrize("ell", [2, 37])
def test_nullspace_basis(ell):
    rnd = random.Random(300 + ell)
    for n in range(1, 8):
        for _ in range(6):
            rank = rnd.randrange(n + 1)
            L = [[rnd.randrange(ell) for _ in range(rank)] for _ in range(n)]
            R = [[rnd.randrange(ell) for _ in range(n)] for _ in range(rank)]
            M = _matmul(L, R, ell) if rank else [[0] * n for _ in range(n)]
            basis, free = chartab._nullspace_mod(M, ell)
            assert len(basis) == n - len(chartab._rref_mod(M, ell)[0])
            for y in basis:
                assert all(sum(a * b for a, b in zip(row, y)) % ell == 0 for row in M)
            if basis:
                assert len(chartab._rref_mod(basis, ell)[0]) == len(basis)
            # the basis is the identity at the free columns
            assert [[y[f] for f in free] for y in basis] == [
                [int(s == t) for s in range(len(free))] for t in range(len(free))]


# -- class-algebra closure ----------------------------------------------------


def _closure(derived, products, k, ell):
    """`derived` after processing each (idx, {j: {m: n}}) of `products`,
    where K_idx * K_j = sum_m n * K_m, as a column-form class matrix."""
    derived, tables = set(derived), []
    for idx, rows in products:
        A = [[] for _ in range(k)]
        for j, row in rows.items():
            for m, n in row.items():
                A[m].append((j, n))
        chartab._derive(tables, derived, idx, A, ell)
    return derived


def test_closure_derives_the_one_unknown_class():
    # K_1 * K_1 = 2 K_0 + 3 K_2: K_2 is a polynomial in K_1 mod 5
    assert _closure({0}, [(1, {0: {1: 1}, 1: {0: 2, 2: 3}})], 3, 5) == {0, 1, 2}


def test_closure_skips_a_coefficient_divisible_by_ell():
    # K_1 * K_1 = 2 K_0 + 5 K_2: mod 5 the product says nothing of K_2
    assert _closure({0}, [(1, {0: {1: 1}, 1: {0: 2, 2: 5}})], 3, 5) == {0, 1}


def test_closure_derives_neither_of_two_unknown_classes():
    assert _closure({0}, [(1, {0: {1: 1}, 1: {2: 1, 3: 1}})], 4, 5) == {0, 1}


def test_closure_through_a_derived_class():
    # K_1^2 = K_2, then K_1 * K_2 = K_0 + K_3 with K_2 derived
    products = [(1, {0: {1: 1}, 1: {2: 1}, 2: {0: 1, 3: 1}})]
    assert _closure({0}, products, 4, 7) == {0, 1, 2, 3}


def test_closure_skips_most_class_matrices_of_a_product(monkeypatch):
    """On D8 x C2 x D8 x C2 (k = 100) the split builds at most 10 class
    matrices; without the closure it built 40."""
    [G] = [G for name, G in sylow_products() if name == "D8xC2xD8xC2"]
    calls = []
    real = chartab._class_matrix
    monkeypatch.setattr(chartab, "_class_matrix", lambda *a: calls.append(a) or real(*a))
    assert character_table(G).class_count == 100
    assert len(calls) <= 10


# -- class count cap ----------------------------------------------------------


def _elementary_abelian_2(n):
    gens = []
    for i in range(n):
        g = list(range(2 * n))
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(g))
    return group_from_generators(gens, 2 * n)


def test_class_count_cap_admits_the_largest_benchmarked_table():
    assert chartab.CLASS_COUNT_CAP >= 289


def test_class_count_cap_fires_before_any_class_matrix(monkeypatch):
    def no_class_matrix(*args):
        raise AssertionError("a class matrix was built")

    monkeypatch.setattr(chartab, "_class_matrix", no_class_matrix)
    G = _elementary_abelian_2(10)
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match="class count 1024 exceeds table cap"):
        character_table(G)
    assert time.perf_counter() - t0 < 1.0
