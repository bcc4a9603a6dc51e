import itertools
import random

import pytest

import fmrep.fimonoid

from fmrep.catalog import CATALOG, traditional_labels
from fmrep.chartab import character_table
from fmrep.fimonoid import (
    analyze,
    atoms_hilbert,
    extreme_rays,
    factoriality,
    half_factoriality,
    check_regular_conjecture,
    _parallelepiped_points,
    _reduce_candidates,
    _triangulate_cone,
)
from fmrep.fusion import fusion_from_partition
from fmrep.intlin import det, integer_kernel, rank
from fmrep.permcore import CapExceeded, CertificateError
from fmrep.repring import RepLattice, rep_lattice

from .oracles import (
    BudgetExceeded,
    NotALatticeBasis,
    _lattice_points_in_box,
    atoms_bounded_search,
    brute_force_extreme_rays,
    certify_irreducible,
    check_convex_basis,
    check_disjoint_basis,
    check_private_irreducible_basis,
    rank_pulling_triangulation,
    solve_rational,
)


def _unit(r, *idxs):
    v = [0] * r
    for i in idxs:
        v[i] += 1
    return tuple(v)


# -- cone machinery ------------------------------------------------------------


def test_extreme_rays_quadrant():
    rays = extreme_rays([(1, 0), (0, 1)], 2)
    assert rays == [(0, 1), (1, 0)]


def test_extreme_rays_redundant_constraint():
    rays = extreme_rays([(1, 0), (0, 1), (1, 1)], 2)
    assert rays == [(0, 1), (1, 0)]


def test_extreme_rays_square_cone():
    # cone over a square: 4 extreme rays in R^3
    constraints = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    rays = extreme_rays(constraints, 3)
    assert len(rays) == 4
    assert set(rays) == {(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)}
    simplices = _triangulate_cone(rays, constraints, 3)
    assert len(simplices) == 2


def test_parallelepiped_point_counts():
    assert _parallelepiped_points([(1, 0), (0, 1)]) == []
    pts = _parallelepiped_points([(2, 1), (0, 1)])
    assert pts == [(1, 1)]
    pts = _parallelepiped_points([(3, 0), (0, 1)])
    assert sorted(pts) == [(1, 0), (2, 0)]


def test_parallelepiped_points_random():
    rng = random.Random(53)
    negative = 0
    for _ in range(80):
        d = rng.randrange(1, 5)
        gens = [tuple(rng.randrange(-4, 5) for _ in range(d)) for _ in range(d)]
        vol = det([list(g) for g in gens])
        if vol == 0:
            continue
        negative += vol < 0
        pts = _parallelepiped_points(gens)
        assert len(pts) == len(set(pts)) == abs(vol) - 1
        for pt in pts:
            t = solve_rational(gens, pt)
            assert all(0 <= x < 1 for x in t)
    assert negative > 10


def test_parallelepiped_certificate(monkeypatch):
    """A wrong simplex volume leaves a nonzero remainder, which is
    reported even under python -O."""
    real = fmrep.fimonoid.adjugate

    def doubled(A):
        d, adj = real(A)
        return 2 * d, adj

    monkeypatch.setattr(fmrep.fimonoid, "adjugate", doubled)
    with pytest.raises(CertificateError, match="not integral"):
        _parallelepiped_points([(2, 1), (0, 1)])


def test_parallelepiped_coset_count_certificate(monkeypatch):
    """Adjugate rows that generate too small a subgroup of (Z/vol)^d miss
    cosets: the count is checked even under python -O."""
    real = fmrep.fimonoid.adjugate

    def doubled_rows(A):
        d, adj = real(A)
        return d, [[2 * x for x in row] for row in adj]

    monkeypatch.setattr(fmrep.fimonoid, "adjugate", doubled_rows)
    with pytest.raises(CertificateError, match="cosets"):
        _parallelepiped_points([(2, 1), (0, 1)])


def test_extreme_rays_match_brute_force():
    """Random cones, d <= 4 and up to 8 constraints, with repeated,
    scaled and redundant (sum of two) constraints mixed in."""
    rng = random.Random(17)
    nonempty = 0
    for _ in range(400):
        d = rng.randrange(1, 5)
        constraints = [tuple(rng.randrange(-2, 4) for _ in range(d)) for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(3)):
            a, b = rng.choice(constraints), rng.choice(constraints)
            extra = rng.choice((a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b))))
            constraints.insert(rng.randrange(len(constraints) + 1), extra)
        constraints = constraints[:8]
        if rank([list(c) for c in constraints]) < d:
            with pytest.raises(CertificateError, match="not pointed"):
                extreme_rays(constraints, d)
            continue
        rays = extreme_rays(constraints, d)
        assert rays == brute_force_extreme_rays(constraints, d), constraints
        nonempty += bool(rays)
    assert nonempty >= 100


def _random_cones(seed, count, max_d, max_constraints):
    """Random constraint lists with repeated, scaled and redundant (sum
    of two) constraints mixed in; seed 17, 400 draws, d <= 4 and up to 8
    constraints repeat the draw of test_extreme_rays_match_brute_force."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randrange(1, max_d + 1)
        constraints = [tuple(rng.randrange(-2, 4) for _ in range(d)) for _ in range(rng.randrange(1, max_constraints - 1))]
        for _ in range(rng.randrange(3)):
            a, b = rng.choice(constraints), rng.choice(constraints)
            extra = rng.choice((a, tuple(2 * x for x in a), tuple(x + y for x, y in zip(a, b))))
            constraints.insert(rng.randrange(len(constraints) + 1), extra)
        yield constraints[:max_constraints], d


@pytest.mark.parametrize("seed, count, max_d, max_constraints", [(17, 400, 4, 8), (5, 1000, 5, 11)])
def test_triangulation_matches_rank_per_face(seed, count, max_d, max_constraints):
    """On random full-dimensional cones, facets by inclusion give the
    simplices that facets by rank gave."""
    cones = 0
    for constraints, d in _random_cones(seed, count, max_d, max_constraints):
        if rank([list(c) for c in constraints]) < d:
            continue
        rays = extreme_rays(constraints, d)
        if rank([list(r) for r in rays]) < d:
            continue
        expected = sorted(rank_pulling_triangulation(rays, constraints, d))
        assert sorted(_triangulate_cone(rays, constraints, d)) == expected, constraints
        cones += 1
    assert cones >= 100


def test_ray_feasibility_certificate(monkeypatch):
    """A determinant of the wrong sign flips the initial rays off the
    constraints that chose them."""
    real = fmrep.fimonoid.adjugate

    def wrong_sign(A):
        d, adj = real(A)
        return -d, adj

    monkeypatch.setattr(fmrep.fimonoid, "adjugate", wrong_sign)
    with pytest.raises(CertificateError, match="infeasible"):
        extreme_rays([(1, 0), (0, 1)], 2)


@pytest.mark.parametrize("stage", ["lattice", "rays", "triangulation"])
def test_pointed_cone_certificates(monkeypatch, stage):
    """With every rank read one too low, and the last pivot column
    dropped, each check that the cone is pointed and full-dimensional
    fires."""
    lattice = RepLattice(irr_count=2, rank=2, basis=((1, 1), (0, 2)))
    constraints = [(1, 0), (1, 2)]  # the columns of the basis
    rays = extreme_rays(constraints, 2)
    real_rank, real_pivots = fmrep.fimonoid.rank, fmrep.fimonoid.pivot_columns
    monkeypatch.setattr(fmrep.fimonoid, "rank", lambda rows: real_rank(rows) - 1)
    monkeypatch.setattr(fmrep.fimonoid, "pivot_columns", lambda rows: real_pivots(rows)[:-1])
    runs = {
        "lattice": lambda: atoms_hilbert(lattice, (1, 1)),
        "rays": lambda: extreme_rays(constraints, 2),
        "triangulation": lambda: _triangulate_cone(rays, constraints, 2),
    }
    with pytest.raises(CertificateError, match="not pointed|not full-dimensional"):
        runs[stage]()


def test_atom_count_certificate(monkeypatch, pipelines):
    _, _, T, F, L, _ = pipelines.run("S4")
    real = fmrep.fimonoid.atoms_hilbert
    monkeypatch.setattr(fmrep.fimonoid, "atoms_hilbert", lambda lat, deg: real(lat, deg)[:-1])
    with pytest.raises(CertificateError, match="3 atoms cannot generate a lattice of rank 4"):
        analyze(L, T, F)


def test_factorial_implies_half_factorial_certificate(monkeypatch, pipelines):
    _, _, T, F, L, _ = pipelines.run("S4")
    monkeypatch.setattr(fmrep.fimonoid, "half_factoriality", lambda atoms, relations: (False, None))
    with pytest.raises(CertificateError, match="factorial but not half-factorial"):
        analyze(L, T, F)


def test_dependent_simplex_certificate():
    """Dependent generators have volume 0; the check stops them before
    any coordinate is taken modulo that volume."""
    with pytest.raises(CertificateError, match=r"simplex generators \[\(1, 0\), \(2, 0\)\] are dependent"):
        _parallelepiped_points([(1, 0), (2, 0)])


def test_negative_candidate_certificate():
    """A candidate whose multiplicity vector has a negative entry lies
    outside the cone: it is no representation, and is not silently
    dropped by the minimality filter."""
    lattice = RepLattice(irr_count=2, rank=2, basis=((1, 1), (0, 2)))
    assert _reduce_candidates({(1, 0), (0, 1), (1, 1)}, lattice, (1, 1)) == [(0, 2), (1, 1)]
    with pytest.raises(CertificateError, match=r"candidate \(1, -1\) is not a genuine representation"):
        _reduce_candidates({(1, -1)}, lattice, (1, 1))


def test_split_relation_certificate():
    """A relation with no negative coefficient cannot give two
    factorizations of one element."""
    atoms = [(1, 0), (0, 1)]
    with pytest.raises(CertificateError, match=r"relation \(1, 1\) is not a split relation"):
        half_factoriality(atoms, [(1, 1)])


def test_relation_count_certificate():
    """More atoms than the rank force a relation among them; an empty
    relation basis is refused."""
    lattice = RepLattice(irr_count=2, rank=2, basis=((1, 0), (0, 1)))
    with pytest.raises(CertificateError, match="3 atoms in rank 2 without a relation"):
        factoriality([(1, 0), (0, 1), (1, 1)], lattice, [])


def test_hilbert_basis_unimodular_lattice_is_free():
    # a unimodular lattice makes the monoid all of N^2
    lattice = RepLattice(irr_count=2, rank=2, basis=((1, 2), (0, 1)))
    atoms = atoms_hilbert(lattice, degrees=(1, 1))
    assert sorted(atoms) == [(0, 1), (1, 0)]


def test_hilbert_basis_even_coordinate_sum():
    # index-2 sublattice {v : v1 + v2 even}: atoms (0,2), (1,1), (2,0)
    lattice = RepLattice(irr_count=2, rank=2, basis=((1, 1), (0, 2)))
    atoms = atoms_hilbert(lattice, degrees=(1, 1))
    assert sorted(atoms) == [(0, 2), (1, 1), (2, 0)]


# -- atoms on the worked examples ------------------------------------------------


def test_atoms_sigma3(pipelines):
    _, _, T, F, L, A = pipelines.run("S3")
    triv = T.trivial_index
    rest = [i for i in range(3) if i != triv]
    assert set(A.atoms) == {_unit(3, triv), _unit(3, *rest)}
    assert A.factorial and A.half_factorial and A.transitive


def _labeled_at323(T, x_name, xy_name):
    names = traditional_labels("d8", T)
    by = {v: k for k, v in names.items()}
    return by["1"], by[x_name], by["Y"], by[xy_name], by["Z"]


def test_atoms_sigma4(pipelines):
    _, _, T, F, L, A = pipelines.run("S4")
    matches = []
    for x_name, xy_name in (("X", "XY"), ("XY", "X")):
        one, x, y, xy, z = _labeled_at323(T, x_name, xy_name)
        expected = {_unit(5, one), _unit(5, x, z), _unit(5, y, z), _unit(5, xy)}
        matches.append(set(A.atoms) == expected)
    assert any(matches)
    assert A.factorial


def test_atoms_a6(pipelines):
    _, _, T, F, L, A = pipelines.run("A6")
    assert F.class_count == 3
    matches = []
    for x_name, xy_name in (("X", "XY"), ("XY", "X")):
        one, x, y, xy, z = _labeled_at323(T, x_name, xy_name)
        expected = {_unit(5, one), _unit(5, x, xy, z), _unit(5, y, z)}
        matches.append(set(A.atoms) == expected)
    assert any(matches)
    assert A.factorial


def test_atoms_sl2_3(pipelines):
    _, _, T, F, L, A = pipelines.run("SL2_3")
    assert F.class_count == 3
    one, x, y, xy, z = _labeled_at323(T, "X", "XY")
    expected = {_unit(5, one), _unit(5, x, y, xy), _unit(5, z)}
    assert set(A.atoms) == expected
    assert A.factorial


def test_atoms_sigma9_structure(pipelines):
    _, _, T, F, L, A = pipelines.run("S9")
    assert len(A.atoms) == 6
    dims = sorted(T.dimension_of(a) for a in A.atoms)
    supports = sorted(sum(1 for m in a if m) for a in A.atoms)
    assert dims == [1, 8, 10, 16, 18, 20]
    assert supports == [1, 4, 6, 6, 6, 8]
    assert not A.factorial and A.half_factorial


def test_atoms_sigma6_structure(pipelines):
    _, _, T, F, L, A = pipelines.run("S6")
    assert len(A.atoms) == 7
    dims = sorted(T.dimension_of(a) for a in A.atoms)
    assert dims == [1, 1, 4, 4, 6, 7, 7]
    assert not A.factorial and not A.half_factorial


def test_atoms_a9_structure(pipelines):
    _, _, T, F, L, A = pipelines.run("A9")
    assert len(A.atoms) == 7
    supports = sorted(sum(1 for m in a if m) for a in A.atoms)
    assert supports == [1, 4, 4, 4, 6, 6, 8]
    assert all(max(a) == 1 for a in A.atoms)  # multiplicity-free atom list


def test_atom_minimality_exhaustive(pipelines):
    for name in ("S4", "S6", "S9"):
        _, _, T, F, L, A = pipelines.run(name)
        for a in A.atoms:
            inside = _lattice_points_in_box(L, list(a), budget=10**7)
            assert inside == [tuple(a)]


def test_atoms_canonical_order(pipelines):
    _, _, T, _, _, A = pipelines.run("S6")
    keys = [(T.dimension_of(a), a) for a in A.atoms]
    assert keys == sorted(keys)


# -- bounded search ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        n
        for n, e in CATALOG.items()
        if e.tier in ("fast", "table") and n != "S8"
    ],
)
def test_bounded_search_matches_hilbert(name, pipelines):
    _, S, T, F, L, A = pipelines.run(name)
    assert S.order <= 81 or name == "S8"
    found = atoms_bounded_search(L, T)
    assert [tuple(v) for v in found] == [tuple(a) for a in A.atoms]


def test_bounded_search_abelian_discrete():
    from fmrep.permcore import group_from_generators, parse_perm

    z8 = group_from_generators([parse_perm("(1,2,3,4,5,6,7,8)", 8)])
    T = character_table(z8)
    F = fusion_from_partition([[i + 1] for i in range(T.class_count)], T)
    L = rep_lattice(F, T)
    found = atoms_bounded_search(L, T)
    assert sorted(found) == sorted(_unit(8, i) for i in range(8))
    assert sorted(map(tuple, atoms_hilbert(L, T.degrees))) == sorted(found)


def test_bounded_search_budget(pipelines):
    _, _, T, F, L, _ = pipelines.run("S9")
    with pytest.raises(BudgetExceeded):
        atoms_bounded_search(L, T, budget=3)


def test_rank_cap():
    r = 13
    lattice = RepLattice(
        irr_count=r,
        rank=r,
        basis=tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r)),
    )
    with pytest.raises(CapExceeded, match="rank 13 exceeds cap 12"):
        atoms_hilbert(lattice, degrees=(1,) * r)


# -- verdicts and witnesses ---------------------------------------------------------


def _relations(atoms):
    return integer_kernel([list(a) for a in atoms])


def _check_witness(w, atoms, expect_unequal=False):
    def total(idxs):
        out = [0] * len(atoms[0])
        for i in idxs:
            out = [x + y for x, y in zip(out, atoms[i])]
        return out

    assert total(w.decomp_a) == list(w.element)
    assert total(w.decomp_b) == list(w.element)
    assert w.decomp_a != w.decomp_b
    if expect_unequal:
        assert len(w.decomp_a) != len(w.decomp_b)


def test_factoriality_witness_sigma9(pipelines):
    _, _, T, F, L, A = pipelines.run("S9")
    ok, witness = factoriality(A.atoms, L, _relations(A.atoms))
    assert not ok
    _check_witness(witness, A.atoms)
    assert (len(witness.decomp_a), len(witness.decomp_b)) == (2, 2)


def test_half_factoriality_witness_sigma6(pipelines):
    _, _, T, F, L, A = pipelines.run("S6")
    ok, witness = half_factoriality(A.atoms, _relations(A.atoms))
    assert not ok
    _check_witness(witness, A.atoms, expect_unequal=True)
    assert sorted([len(witness.decomp_a), len(witness.decomp_b)]) == [2, 3]
    # the relation matches the documented one: the three atoms of
    # dimensions {4, 4, 6} re-sum to the two of dimensions {7, 7}
    dims = [T.dimension_of(a) for a in A.atoms]
    small = sorted((witness.decomp_a, witness.decomp_b), key=len)
    two, three = small[0], small[1]
    assert sorted(dims[i] for i in three) == [4, 4, 6]
    assert sorted(dims[i] for i in two) == [7, 7]


def test_alpha7_is_relation_derived(pipelines):
    _, _, T, F, L, A = pipelines.run("S6")
    dims = [T.dimension_of(a) for a in A.atoms]
    sevens = [i for i, d in enumerate(dims) if d == 7]
    assert len(sevens) == 2
    lhs_idx = [i for i, d in enumerate(dims) if d in (4, 6)]
    assert sorted(dims[i] for i in lhs_idx) == [4, 4, 6]
    lhs = [0] * len(A.atoms[0])
    for i in lhs_idx:
        lhs = [x + y for x, y in zip(lhs, A.atoms[i])]
    a, b = (A.atoms[i] for i in sevens)
    assert [x - y for x, y in zip(lhs, a)] == list(b)


def test_factorial_cases_have_no_witness(pipelines):
    for name in ("S3", "S4", "A6", "SL2_3", "D8", "Q8"):
        _, _, T, F, L, A = pipelines.run(name)
        ok, witness = factoriality(A.atoms, L, _relations(A.atoms))
        assert ok and witness is None
        ok, witness = half_factoriality(A.atoms, _relations(A.atoms))
        assert ok and witness is None


def test_atom_count_lower_bound(pipelines):
    for name, entry in CATALOG.items():
        if entry.tier in ("fast", "table"):
            _, _, _, F, L, A = pipelines.run(name)
            assert len(A.atoms) >= L.rank
            assert A.factorial == (len(A.atoms) == L.rank)


# -- certificate criteria -------------------------------------------------------------


def test_private_basis_sigma4(pipelines):
    _, _, T, F, L, A = pipelines.run("S4")
    assert check_private_irreducible_basis(A.atoms, L)


def test_private_basis_unit_vectors():
    from fmrep.permcore import group_from_generators, parse_perm

    z4 = group_from_generators([parse_perm("(1,2,3,4)", 4)])
    T = character_table(z4)
    L = rep_lattice(fusion_from_partition([[i + 1] for i in range(T.class_count)], T), T)
    units = [_unit(4, i) for i in range(4)]
    assert check_private_irreducible_basis(units, L)
    assert check_disjoint_basis(units, L)


def test_sigma9_convenient_bases(pipelines):
    """Dropping any one of the four relation atoms from the six leaves a
    lattice basis of nonnegative representations; each such basis
    certifies exactly four of its five members, and together the bases
    certify all six atoms.  No basis certifies all of its members (the
    monoid is not factorial)."""
    _, _, T, F, L, A = pipelines.run("S9")
    atoms = list(A.atoms)
    certified = set()
    bases_found = 0
    for drop in range(len(atoms)):
        rows = [a for i, a in enumerate(atoms) if i != drop]
        try:
            certs = [
                i for i in range(len(rows)) if certify_irreducible(i, rows, L)
            ]
        except NotALatticeBasis:
            continue
        bases_found += 1
        assert not check_private_irreducible_basis(rows, L)
        certified.update(tuple(rows[i]) for i in certs)
        assert len(certs) == 4  # exactly one member stays uncertified
    assert bases_found == 4
    assert certified == {tuple(a) for a in atoms}


def test_disjoint_basis_examples(pipelines):
    _, _, T, F, L, A = pipelines.run("S4")
    assert not check_disjoint_basis(A.atoms, L)
    # transitive extraspecial case: {trivial, reduced regular} is disjoint
    S = pipelines.group("E125")
    TE = character_table(S)
    FE = fusion_from_partition([[1], list(range(2, TE.class_count + 1))], TE)
    LE = rep_lattice(FE, TE)
    AE = analyze(LE, TE, FE)
    assert check_disjoint_basis(AE.atoms, LE)
    assert AE.factorial and AE.transitive


def test_criteria_validate_basis(pipelines):
    _, _, T, F, L, A = pipelines.run("S4")
    bad = [list(A.atoms[0])] * len(A.atoms)
    with pytest.raises(NotALatticeBasis):
        check_disjoint_basis(bad, L)
    with pytest.raises(NotALatticeBasis):
        check_private_irreducible_basis(bad, L)
    negative = [list(r) for r in L.basis]
    negative[0] = [-x for x in negative[0]]
    with pytest.raises(NotALatticeBasis):
        check_private_irreducible_basis(negative, L)


def test_convex_basis_examples(pipelines):
    # factorial case: the atoms themselves, unit coefficients
    _, _, T4, F4, L4, A4 = pipelines.run("S4")
    assert check_convex_basis(A4.atoms, A4.atoms)
    # Sigma9: some five-atom subset is a basis through which every atom is
    # an integral combination with coefficient sum one
    _, _, T, F, L, A = pipelines.run("S9")
    passing = []
    for drop in range(len(A.atoms)):
        rows = [a for i, a in enumerate(A.atoms) if i != drop]
        try:
            passing.append(check_convex_basis(rows, A.atoms))
        except NotALatticeBasis:
            continue
    assert any(passing)
    # Sigma6 is not half-factorial: no candidate basis can pass
    _, _, T6, F6, L6, A6 = pipelines.run("S6")
    assert not check_convex_basis([list(r) for r in L6.basis], A6.atoms)
    for drop in range(len(A6.atoms)):
        rows = [a for i, a in enumerate(A6.atoms) if i != drop]
        try:
            assert not check_convex_basis(rows, A6.atoms)
        except NotALatticeBasis:
            continue


def test_transitivity_flag(pipelines):
    assert pipelines.run("S3")[5].transitive
    assert not pipelines.run("S4")[5].transitive


def test_transitive_partition_atoms(pipelines):
    S = pipelines.group("E125")
    T = character_table(S)
    F = fusion_from_partition([[1], list(range(2, T.class_count + 1))], T)
    L = rep_lattice(F, T)
    atoms = atoms_hilbert(L, T.degrees)
    triv = T.trivial_vector()
    redreg = tuple(r - t for r, t in zip(T.regular_vector(), triv))
    assert set(map(tuple, atoms)) == {triv, redreg}
    assert T.dimension_of(redreg) == 124


def test_regular_conjecture_on_catalog(pipelines):
    for name, entry in CATALOG.items():
        if entry.tier in ("fast", "table"):
            _, _, T, _, _, A = pipelines.run(name)
            assert check_regular_conjecture(A.atoms, T)


def test_private_basis_certifies_factoriality(pipelines):
    # wherever the atom set is a basis with private constituents, the
    # monoid must be factorial (and the basis is then the atom set)
    for name, entry in CATALOG.items():
        if entry.tier not in ("fast", "table"):
            continue
        _, _, T, F, L, A = pipelines.run(name)
        if len(A.atoms) != L.rank:
            continue
        if check_private_irreducible_basis(A.atoms, L):
            assert A.factorial
    # and a factorial case where the certificate fires
    _, _, _, _, L4, A4 = pipelines.run("S4")
    assert check_private_irreducible_basis(A4.atoms, L4) and A4.factorial


def test_private_hnf_basis_is_the_atom_set(pipelines):
    """The criterion as an oracle on the pipeline's own basis: whenever
    the HNF basis of the lattice has private constituents, the run is
    factorial and its atoms are that basis."""
    certified = []
    for name, entry in CATALOG.items():
        if entry.tier not in ("fast", "table"):
            continue
        _, _, _, _, L, A = pipelines.run(name)
        try:
            if not check_private_irreducible_basis(L.basis, L):
                continue
        except NotALatticeBasis:  # a row with a negative entry: no verdict
            continue
        assert A.factorial, name
        assert set(A.atoms) == set(L.basis), name
        certified.append(name)
    assert certified
