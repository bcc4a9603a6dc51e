import ast
import itertools
import os
import random
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmrep import permcore
from fmrep.catalog import CATALOG, load_group
from fmrep.cli import EXIT_CERTIFICATE, main
from fmrep.permcore import (
    CapExceeded,
    CertificateError,
    PermGroup,
    _conjugator_search,
    _orbital_counts,
    _renamed_chain,
    class_partition,
    conjugate,
    cycle_lengths,
    format_perm,
    fuse_by_conjugacy,
    group_from_generators,
    identity,
    inverse,
    mul,
    parse_perm,
    perm_order,
    power,
    sylow_subgroup,
)

from .groups_zoo import all_groups_up_to_16, groups_fixing_first_points
from .oracles import closure, orbit_walk_conjugates, orbital_counts, schreier_sims_chain

NON_STRETCH = [n for n, e in CATALOG.items() if e.tier != "stretch"]


def S(n):
    cyc = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    return group_from_generators([parse_perm("(1,2)", n), parse_perm(cyc, n)])


def A(n):
    cyc = ",".join(map(str, range(1, n + 1) if n % 2 else range(2, n + 1)))
    return group_from_generators([parse_perm("(1,2,3)", n), parse_perm(f"({cyc})", n)])


# -- permutation basics ----------------------------------------------------


def test_parse_format_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 12)
        images = list(range(n))
        rng.shuffle(images)
        p = tuple(images)
        assert parse_perm(format_perm(p), n) == p
    assert format_perm(identity(5)) == "()"
    assert parse_perm("()", 4) == identity(4)
    assert parse_perm("(1,2)(3,4)", 4) == (1, 0, 3, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_perm("(1,2)(2,3)", 3)  # not disjoint
    with pytest.raises(ValueError):
        parse_perm("(1,5)", 3)  # out of range
    with pytest.raises(ValueError):
        parse_perm("garbage", 3)


def test_generator_degree_mismatch():
    with pytest.raises(ValueError):
        group_from_generators([parse_perm("(1,2)", 3), parse_perm("(1,2)", 4)], 3)


def test_group_algebra_identities():
    rng = random.Random(5)
    n = 8
    perms = []
    for _ in range(30):
        images = list(range(n))
        rng.shuffle(images)
        perms.append(tuple(images))
    for p in perms:
        assert mul(p, inverse(p)) == identity(n)
        assert power(p, perm_order(p)) == identity(n)
    for p, q, r in zip(perms, perms[1:], perms[2:]):
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert conjugate(p, q) == mul(mul(inverse(q), p), q)
        assert cycle_lengths(conjugate(p, q)) == cycle_lengths(p)


# -- group construction ----------------------------------------------------


def test_symmetric_3_order():
    assert S(3).order == 6


def test_empty_generators_trivial_group():
    assert group_from_generators([], degree=4).order == 1
    assert PermGroup([], 4).order == 1


def test_m10_order_and_exhaustive_enumeration():
    G = load_group("M10")
    assert G.order == 720
    elems = closure(G.generators, G.degree)
    assert len(elems) == 720
    assert sorted(elems) == sorted(G.elements())


def _perm(data, n, label):
    return tuple(data.draw(st.permutations(range(n)), label=label))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_matches_closure(data):
    """Order, elements and membership of a chain built from random
    generators of degree <= 7 agree with the closure by multiplication."""
    n = data.draw(st.integers(1, 7), label="degree")
    gens = [_perm(data, n, "generator") for _ in range(data.draw(st.integers(0, 3), label="count"))]
    G, elems = group_from_generators(gens, n), closure(gens, n)
    assert G.order == len(elems)
    assert sorted(G.elements()) == sorted(elems)
    for _ in range(5):
        x = _perm(data, n, "x")
        assert (x in G) == (x in elems)


def test_membership_rejects_non_permutations():
    s4 = S(4)
    for x in [(0, 0, 2, 3), (3, 3, 3, 3), (1, 0, 3, 3), (1, 2, 0, 0)]:
        assert x not in s4


def test_membership():
    s3 = S(3)
    assert parse_perm("(1,2)", 3) in s3
    a3 = group_from_generators([parse_perm("(1,2,3)", 3)])
    assert parse_perm("(1,2)", 3) not in a3
    with pytest.raises(ValueError):
        parse_perm("(1,2)", 4) in s3  # noqa: B015


def test_membership_random_products():
    syl = sylow_subgroup(S(6), 2)
    rng = random.Random(3)
    x = identity(6)
    for _ in range(20):
        x = mul(x, rng.choice(syl.generators))
    assert x in syl


# -- Sylow subgroups ---------------------------------------------------------


def test_sylow_sigma3():
    syl = sylow_subgroup(S(3), 3)
    assert syl.order == 3


def test_sylow_sigma4_is_dihedral():
    syl = sylow_subgroup(S(4), 2)
    assert syl.order == 8
    involutions = sum(1 for x in syl.elements() if perm_order(x) == 2)
    assert involutions == 5  # dihedral, not quaternion


def test_sylow_sigma9():
    syl = sylow_subgroup(S(9), 3)
    assert syl.order == 81


def test_sylow_prime_not_dividing():
    assert sylow_subgroup(S(4), 5).order == 1


def test_sylow_nonprime_rejected():
    with pytest.raises(ValueError):
        sylow_subgroup(S(4), 4)


def certificate_tests(root):
    """Node ids of the test functions that expect a CertificateError or
    CapExceeded, directly or as the command line's exit code 5 or 3."""
    names = {"CertificateError", "CapExceeded", "EXIT_CERTIFICATE", "EXIT_CAP"}
    for path in sorted((root / "tests").glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_") and any(
                isinstance(n, ast.Name) and n.id in names for n in ast.walk(node)
            ):
                yield f"tests/{path.name}::{node.name}"


def test_sylow_certificates_survive_optimized_mode():
    """Every certificate and cap test, under python -O: the checks they
    expect are explicit raises, which -O cannot strip."""
    root = Path(__file__).resolve().parents[1]
    selection = list(certificate_tests(root))
    assert "tests/test_sylow.py::test_growth_certificate_raises" in selection
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout


@pytest.mark.parametrize(
    "name", [n for n, e in CATALOG.items() if e.tier in ("fast", "table")]
)
def test_sylow_order_is_p_part(name, pipelines):
    entry = CATALOG[name]
    G = pipelines.group(name)
    syl = pipelines.run(name)[1]
    p = entry.prime
    remaining = G.order
    p_part = 1
    while remaining % p == 0:
        remaining //= p
        p_part *= p
    assert syl.order == p_part
    assert syl.order * remaining == G.order
    assert all(g in G for g in syl.generators)


# -- conjugacy classes -------------------------------------------------------


def test_classes_cyclic3():
    z3 = group_from_generators([parse_perm("(1,2,3)", 3)])
    classes = class_partition(z3)[0]
    assert [c.size for c in classes] == [1, 1, 1]


def test_classes_d8():
    classes = class_partition(sylow_subgroup(S(4), 2))[0]
    assert len(classes) == 5


def test_classes_sylow2_sigma6():
    classes = class_partition(sylow_subgroup(S(6), 2))[0]
    assert len(classes) == 10


def test_classes_partition_and_canonical_order():
    syl = sylow_subgroup(S(6), 2)
    classes = class_partition(syl)[0]
    assert sum(c.size for c in classes) == syl.order
    assert all(syl.order % c.size == 0 for c in classes)
    assert classes[0].representative == identity(6)
    keys = [(c.element_order, c.size, c.representative) for c in classes]
    assert keys == sorted(keys)
    # every class element has the order of the representative
    for c in classes:
        orbit = {c.representative}
        queue = [c.representative]
        for y in queue:
            for g in syl.generators:
                z = conjugate(y, g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        assert len(orbit) == c.size
        assert {perm_order(y) for y in orbit} == {c.element_order}


# -- conjugacy testing -------------------------------------------------------


def _conjugate_in(G, x, y):
    """Whether fuse_by_conjugacy gives x and y one label."""
    labels = fuse_by_conjugacy(G, [x, y])
    return labels[0] == labels[1]


def test_conjugate_inverse_pair_in_s3():
    s3 = S(3)
    assert _conjugate_in(s3, parse_perm("(1,2,3)", 3), parse_perm("(1,3,2)", 3))


def test_different_orders_never_conjugate():
    s4 = S(4)
    assert not _conjugate_in(s4, parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4))


def test_d8_fusion_in_sigma4():
    s4 = S(4)
    d8 = sylow_subgroup(s4, 2)
    reps = [c.representative for c in class_partition(d8)[0]]
    labels = fuse_by_conjugacy(s4, reps)
    assert len(set(labels)) == 4
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            assert (labels[i] == labels[j]) == _conjugate_in(s4, x, y)


def test_is_conjugate_equivalence_relation():
    G = load_group("M10")
    syl = sylow_subgroup(G, 2)
    reps = [c.representative for c in class_partition(syl)[0]]
    for x in reps:
        assert _conjugate_in(G, x, x)
        for y in reps:
            assert _conjugate_in(G, x, y) == _conjugate_in(G, y, x)
    for x in reps:
        for y in reps:
            for z in reps:
                if _conjugate_in(G, x, y) and _conjugate_in(G, y, z):
                    assert _conjugate_in(G, x, z)


def _bfs_class_lookup(G):
    elems = sorted(G.elements())
    lookup = {}
    for x in elems:
        if x in lookup:
            continue
        orbit = {x}
        queue = [x]
        for y in queue:
            for g in G.generators:
                z = conjugate(y, g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        for y in orbit:
            lookup[y] = x
    return lookup


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_symmetric_fast_path_exhaustive(n):
    G = S(n)
    assert G.order == factorial(n)
    lookup = _bfs_class_lookup(G)
    elems = sorted(G.elements())
    for x in elems:
        rep_x = lookup[x]
        type_x = cycle_lengths(x)
        for y in elems:
            fast = type_x == cycle_lengths(y)
            assert fast == (rep_x == lookup[y])
            if n <= 5:
                assert _conjugate_in(G, x, y) == fast


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_alternating_fast_path_exhaustive(n):
    G = A(n)
    assert 2 * G.order == factorial(n)
    lookup = _bfs_class_lookup(G)
    elems = sorted(G.elements())
    rng = random.Random(n)
    pairs = (
        [(x, y) for x in elems for y in elems]
        if G.order <= 150
        else [(rng.choice(elems), rng.choice(elems)) for _ in range(3000)]
    )
    # always include all class-representative pairs (covers split classes)
    reps = sorted(set(lookup.values()))
    pairs += [(x, y) for x in reps for y in reps]
    for x, y in pairs:
        assert _conjugate_in(G, x, y) == (lookup[x] == lookup[y])


def test_alternating_split_classes():
    # 5-cycles split into two classes of A5; (1,2,3,4,5) ~ its square only in S5
    G = A(5)
    five = parse_perm("(1,2,3,4,5)", 5)
    assert _conjugate_in(G, five, conjugate(five, parse_perm("(1,2,3)", 5)))
    assert not _conjugate_in(G, five, power(five, 2))
    assert _conjugate_in(S(5), five, power(five, 2))


def test_conjugacy_cap_exceeded(monkeypatch):
    G = load_group("M10")
    x = next(g for g in G.generators if perm_order(g) > 1)
    y = next(
        conjugate(x, g) for g in G.generators if conjugate(x, g) != x
    )
    monkeypatch.setattr(permcore, "CONJUGACY_CAP", 1)
    with pytest.raises(CapExceeded, match="fusion: conjugacy search exceeds cap 1 node-points"):
        fuse_by_conjugacy(G, [x, y])


@pytest.mark.parametrize("rule_group", [S, A])
def test_is_conjugate_moves_points_g_fixes(rule_group):
    # S5 and A5 acting on 6 points: point 6 is fixed by G, so (5,6) is
    # conjugate only to transpositions through 6, never to (1,2), though
    # both have one cycle type
    G = group_from_generators([g + (5,) for g in rule_group(5).generators])
    x, y = parse_perm("(5,6)", 6), parse_perm("(1,2)", 6)
    assert orbit_walk_conjugates(G, x, [y]) == []
    assert not _conjugate_in(G, x, y)
    assert not _conjugate_in(G, y, x)
    assert _conjugate_in(G, x, parse_perm("(1,6)", 6))
    assert fuse_by_conjugacy(G, [y, x, parse_perm("(3,4)", 6)]) == [0, 1, 0]


def _blocks(labels):
    return sorted(tuple(i for i, lab in enumerate(labels) if lab == b) for b in set(labels))


def _oracle_labels(G, reps):
    """fuse_by_conjugacy's labelling, with every decision made by the
    orbit-walk oracle."""
    labels = [None] * len(reps)
    for i, x in enumerate(reps):
        if labels[i] is None:
            labels[i] = i
            rest = [y for j, y in enumerate(reps) if j > i and labels[j] is None]
            for y in orbit_walk_conjugates(G, x, [y for y in rest if cycle_lengths(y) == cycle_lengths(x)]):
                labels[reps.index(y)] = i
    return labels


def test_fusion_dispatch_matches_orbit_walk(pipelines):
    """Fusion labels, by the cycle-type filter and the search, against
    the orbit-walk oracle on every fast and table catalog entry, the
    symmetric and alternating groups among them."""
    for name, entry in CATALOG.items():
        if entry.tier not in ("fast", "table"):
            continue
        G = pipelines.group(name)
        reps = [c.representative for c in class_partition(sylow_subgroup(G, entry.prime))[0]]
        assert _blocks(fuse_by_conjugacy(G, reps)) == _blocks(_oracle_labels(G, reps)), name


@pytest.mark.parametrize("name", ["S8", "M10", "PSp4_3"])
def test_fusion_builds_one_search_per_opening_representative(monkeypatch, pipelines, name):
    """fuse_by_conjugacy sets up _conjugator_search once for each
    representative that opens a label and has a later unlabelled one of
    its cycle type and orbital counts, and for no other; the labels are
    the oracle's."""
    G, _, T, _, _, _ = pipelines.run(name)
    reps = [c.representative for c in T.classes]
    calls = []
    real = permcore._conjugator_search
    monkeypatch.setattr(permcore, "_conjugator_search", lambda G, x: calls.append(x) or real(G, x))
    labels = fuse_by_conjugacy(G, reps)
    oracle = _oracle_labels(G, reps)
    assert _blocks(labels) == _blocks(oracle)
    # at the turn of opener i, j > i is unlabelled unless an earlier opener
    # took it; it is searched when its cycle type and orbital counts are x's
    # (all three groups are transitive)
    counts = orbital_counts(G)
    key = [(cycle_lengths(x), counts(x)) for x in reps]
    expected = [
        x
        for i, x in enumerate(reps)
        if oracle[i] == i and any(oracle[j] >= i and key[j] == key[i] for j in range(i + 1, len(reps)))
    ]
    assert calls == expected
    assert 0 < len(expected) < len(reps)


def _random_element(G, rng):
    """A uniformly random element: one random transversal element per level."""
    g = identity(G.degree)
    for trans in G._transversals:
        g = mul(rng.choice(list(trans.values())), g)
    return g


def _assert_conjugator(G, x, y, g):
    assert g is not None and g in G and conjugate(x, g) == y


# S4 x S3 on 7 points, intransitive: the stabilizer of its lex base
# points 1, 2, 3 is S3 on {5, 6, 7}, which also fixes point 4
S4xS3 = group_from_generators([parse_perm(c, 7) for c in ("(1,2)", "(1,2,3,4)", "(5,6)", "(5,6,7)")])
# the groups beyond the catalog; in those that fix their first points, x = 1
# is searched first, as the only x whose search checks a non-empty root
# window (x's cycles come first in the relabelling, so G moves point 1 for
# any other x)
SMALL = {"S4xS3": S4xS3, **dict(groups_fixing_first_points())}


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.tier != "stretch"] + list(SMALL))
def test_conjugator_search_random_pairs(name):
    """The search alone, with no cycle-type filter in front of it, on every
    catalog group outside the stretch tier (|G| <= 372000), on S4 x S3,
    and on S5 and S4 x S3 fixing their first points (x = 1 first there):
    y = x^g for random g is always found, and for random y of x's cycle
    type it agrees with the orbit-walk oracle."""
    G = SMALL[name] if name in SMALL else load_group(name)
    rng = random.Random(name)
    fixing = G.base[0] > 0
    for k in range(3):
        x = identity(G.degree) if fixing and k == 0 else _random_element(G, rng)
        find = _conjugator_search(G, x)
        y = conjugate(x, _random_element(G, rng))
        _assert_conjugator(G, x, y, find(y))
        same_type = (z for z in (_random_element(G, rng) for _ in range(50)) if cycle_lengths(z) == cycle_lengths(x))
        z = next(same_type, None)
        if z is not None:
            g = find(z)
            if orbit_walk_conjugates(G, x, [z]):
                _assert_conjugator(G, x, z, g)
            else:
                assert g is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_conjugator_search_random_groups(data):
    """Random groups of degree <= 8, x and h random permutations of the
    points: x^g for g in G is found, and x^h is found exactly when the
    orbit-walk oracle finds it; fuse_by_conjugacy on [x, y, z], cycle-type
    filter included, gives y and z x's label as the oracle decides."""
    n = data.draw(st.integers(1, 8))
    perm = st.permutations(range(n)).map(tuple)
    G = group_from_generators(data.draw(st.lists(perm, max_size=3)), n)
    x, h = data.draw(perm), data.draw(perm)
    y = conjugate(x, _random_element(G, data.draw(st.randoms(use_true_random=False))))
    z = conjugate(x, h)
    find = _conjugator_search(G, x)
    _assert_conjugator(G, x, y, find(y))
    if orbit_walk_conjugates(G, x, [z]):
        _assert_conjugator(G, x, z, find(z))
    else:
        assert find(z) is None
    labels = fuse_by_conjugacy(G, [x, y, z])
    assert [w for w, lab in zip([y, z], labels[1:]) if lab == labels[0]] == orbit_walk_conjugates(G, x, [y, z])


def test_conjugator_certificate_raises(monkeypatch, capsys):
    """A search that returns a wrong conjugator is caught by the check
    after it, also under python -O, and a run exits 5."""
    real = permcore._conjugator_search

    def corrupted(G, x):
        find = real(G, x)
        return lambda y: None if find(y) is None else identity(G.degree)

    monkeypatch.setattr(permcore, "_conjugator_search", corrupted)
    G = load_group("M10")
    x = next(g for g in G.generators if perm_order(g) > 1)
    y = next(conjugate(x, g) for g in G.generators if conjugate(x, g) != x)
    with pytest.raises(CertificateError, match="does not conjugate"):
        fuse_by_conjugacy(G, [x, y])
    assert main(["run", "--group", "M10"]) == EXIT_CERTIFICATE
    assert "certificate failed: fusion: " in capsys.readouterr().err


# -- the renamed chain -------------------------------------------------------


def _random_renaming(G, rng):
    """p -> p with its points renamed by a random permutation."""
    sigma = list(range(G.degree))
    rng.shuffle(sigma)
    return lambda p: conjugate(p, tuple(sigma))


@pytest.mark.parametrize("name", NON_STRETCH)
def test_renamed_chain_matches_schreier_sims_chain(name):
    """_renamed_chain, read off G's chain, under two random renamings of
    every catalog group outside the stretch tier: its base and the point
    set of each transversal are those of the Schreier-Sims chain of the
    renamed generators, and the element keyed pt maps the base point to
    pt, fixes every point before it and lies in the renamed group."""
    G = load_group(name)
    rng = random.Random(name)
    ident = identity(G.degree)
    for _ in range(2):
        rename = _random_renaming(G, rng)
        levels = _renamed_chain(G, rename)
        oracle = schreier_sims_chain(G, rename)
        assert [(b, set(left)) for b, left in levels] == [(b, set(left)) for b, left in oracle]
        H = PermGroup([rename(g) for g in G.generators], G.degree)
        for b, left in levels:
            for pt, u in left.items():
                u = u(ident)
                assert u[b] == pt and all(u[i] == i for i in range(b)) and u in H


@pytest.mark.parametrize("name", NON_STRETCH)
def test_conjugator_search_walks_as_on_schreier_sims_chain(monkeypatch, name):
    """Each find returns the same conjugator, after the same node-points,
    as the same search on the Schreier-Sims chain of the renamed
    generators (the walk reads only cosets: it visits the children of an
    unforced level in increasing order of their image).  Checked for every S-class representative x of
    every catalog group outside the stretch tier, against each later one
    of its cycle type and against x^g for a random g."""
    G = load_group(name)
    reps = [c.representative for c in class_partition(sylow_subgroup(G, CATALOG[name].prime))[0]]
    rng = random.Random(name)
    ys = [[y for y in reps[i + 1:] if cycle_lengths(y) == cycle_lengths(x)] + [conjugate(x, _random_element(G, rng))]
          for i, x in enumerate(reps)]
    real = permcore._walk
    works = []

    def walk(*args):
        g, work = real(*args)
        works.append(work)
        return g, work

    monkeypatch.setattr(permcore, "_walk", walk)
    runs = []
    for chain in (_renamed_chain, schreier_sims_chain):
        monkeypatch.setattr(permcore, "_renamed_chain", chain)
        finds = [_conjugator_search(G, x) for x in reps]
        runs.append([[(find(y), works[-1]) for y in candidates] for find, candidates in zip(finds, ys)])
    assert runs[0] == runs[1]
    assert all(found[-1][0] is not None for found in runs[0])  # x^g


def test_renamed_chain_certificate_raises(monkeypatch):
    """Elements that all lie in a proper subgroup never complete the
    chain: after SIFT_STREAK trivial sifts in a row the set-up raises,
    also under python -O."""
    G = load_group("M10")
    x = next(g for g in G.generators if perm_order(g) > 1)
    monkeypatch.setattr(permcore, "_random_elements", lambda G: itertools.repeat(x))
    with pytest.raises(CertificateError, match="64 trivial sifts short of order 720"):
        _renamed_chain(G, lambda p: p)


# -- orbital counts ----------------------------------------------------------

ORBITAL = [(name, None) for name in NON_STRETCH] + list(SMALL.items()) + all_groups_up_to_16()


@pytest.mark.parametrize("name,G", ORBITAL, ids=[n for n, _ in ORBITAL])
def test_orbital_counts_are_a_class_invariant(name, G):
    """_orbital_counts on the catalog groups outside the stretch tier, the
    groups beyond the catalog and the groups of order at most 16: equal
    on x and x^g for random x and g in G, equal on every pair of random
    elements of one cycle type that the orbit-walk oracle finds
    conjugate, and, for transitive G, splitting random elements as the
    counts of the orbital oracle do; () for intransitive G."""
    G = load_group(name) if G is None else G
    counts = _orbital_counts(G)
    transitive = G.order > 1 and len(G._transversals[0]) == G.degree
    oracle = orbital_counts(G)
    rng = random.Random(name)
    xs = [_random_element(G, rng) for _ in range(8)]
    for x in xs:
        assert counts(x) == counts(conjugate(x, _random_element(G, rng)))
        same_type = [y for y in xs if cycle_lengths(y) == cycle_lengths(x)]
        for y in orbit_walk_conjugates(G, x, same_type):
            assert counts(y) == counts(x)
        for y in xs:
            assert (counts(x) == counts(y)) == (oracle(x) == oracle(y) or not transitive)
    if not transitive:
        assert {counts(x) for x in xs} == {()}


def test_orbital_counts_refute_before_search(monkeypatch, pipelines):
    """PSp4_3 acts with rank 3 on 27 points: its orbital counts refute 12
    of the 16 pairs of its S-class representatives that searches refuted
    without them, so fusion runs at most 14 conjugacy searches (26
    before), with the oracle's labels."""
    G, _, T, _, _, _ = pipelines.run("PSp4_3")
    reps = [c.representative for c in T.classes]
    real = permcore._walk
    searches = []
    monkeypatch.setattr(permcore, "_walk", lambda *args: searches.append(1) or real(*args))
    assert _blocks(fuse_by_conjugacy(G, reps)) == _blocks(_oracle_labels(G, reps))
    assert len(searches) <= 14
