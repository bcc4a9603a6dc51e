"""Oracles from fusion-system theory: groups with the same p-fusion
system give the same report.

Sym(2m) and Sym(2m+1) have the same Sylow 2-subgroup and the same
2-fusion (the extra point is fixed by a Sylow 2-subgroup of the larger
group), and likewise Sym(9), Sym(10) and Sym(11) at p = 3.  The
2-fusion system of PSL2(q), q an odd prime, depends only on the order
of its dihedral Sylow 2-subgroup (Craven, The Theory of Fusion Systems,
2011), and with it the class count, the atom count and the verdicts.

The paper's theorem: when |S| <= p^3, the monoid of a saturated fusion
system on S is factorial.  Fusion systems realized by finite groups
are saturated, so every group and prime with |G|_p <= p^3 must give a
factorial monoid whose atoms are a basis of the lattice.

Counts and verdicts depend only on the fusion system, so they survive a
relabelling of the points and a reordering of the generators, though
the lex-defined S may change.
"""

import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fmrep.catalog import CATALOG
from fmrep.cli import run_analysis
from fmrep.cyclonum import prime_divisors
from fmrep.permcore import CapExceeded, conjugate, group_from_generators

from .groups_zoo import borel, psl2, symmetric_group
from .oracles import factorization_lengths

# fields that name or size the ambient group, not its fusion system
AMBIENT = ("group", "source", "degree", "group_order")


def payload(G, p):
    data = run_analysis(G, p, name="G", source="file").to_json_dict(include_timings=False)
    return {k: v for k, v in data.items() if k not in AMBIENT}


@pytest.mark.parametrize("p,degrees", [(2, (6, 7)), (2, (8, 9)), (3, (9, 10, 11))])
def test_symmetric_groups_with_one_sylow_share_the_report(p, degrees):
    first, *rest = (payload(symmetric_group(n), p) for n in degrees)
    assert all(other == first for other in rest)


@pytest.mark.parametrize(
    "qs,classes,atoms,factorial",
    [((7, 23, 41, 71, 73), 3, 3, True), ((17, 47, 79), 5, 7, False), ((31, 97), 9, 21, False)],
)
def test_psl2_at_2_depends_on_the_sylow_order(qs, classes, atoms, factorial):
    for q in qs:
        G = psl2(q)
        assert G.order == q * (q * q - 1) // 2
        report = run_analysis(G, 2, name=f"PSL2_{q}", source="file")
        assert (report.fusion_class_count, len(report.atoms), report.factorial) == (
            classes, atoms, factorial), q


def _random_gens(draw, lo, hi):
    degree = draw(st.integers(lo, hi), label="degree")
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3), label="generators")
    return [tuple(g) for g in gens], degree


@st.composite
def small_permutation_groups(draw):
    """A group of 1-3 random generators of degree <= 8, a direct product
    of two such groups of degree <= 6 on disjoint points, or the wreath
    product C_a wr C_b on a*b <= 12 points (random generators mostly give
    small groups or the symmetric and alternating groups)."""
    kind = draw(st.sampled_from(["random", "direct", "wreath"]), label="kind")
    if kind == "random":
        return group_from_generators(*_random_gens(draw, 2, 8))
    if kind == "direct":
        (ga, na), (gb, nb) = _random_gens(draw, 1, 6), _random_gens(draw, 1, 6)
        gens = [g + tuple(range(na, na + nb)) for g in ga] + [tuple(range(na)) + tuple(na + i for i in h) for h in gb]
        return group_from_generators(gens, na + nb)
    a = draw(st.integers(2, 6), label="a")
    b = draw(st.integers(2, 12 // a), label="b")
    n = a * b
    base = tuple((i + 1) % a if i < a else i for i in range(n))  # an a-cycle on the first block
    top = tuple((i + a) % n for i in range(n))  # moves block k onto block k + 1
    return group_from_generators([base, top], n)


@settings(max_examples=40, deadline=None)
@given(G=small_permutation_groups())
@example(G=symmetric_group(10))  # at p = 5, |S| = 25
@example(G=symmetric_group(14))  # at p = 7, |S| = 49 with k = 49 irreducibles
@example(G=borel(3, 3, "full"))  # |S| = 3^3, lattice rank 5
@example(G=borel(3, 3, "one"))  # rank 7
@example(G=borel(3, 5, "full"))  # |S| = 5^3, rank 5
@example(G=borel(3, 5, "one"))  # rank 11
def test_sylow_of_order_at_most_p_cubed_is_factorial(G):
    for p in prime_divisors(G.order):
        p_part = p ** next(e for e in range(G.order) if G.order % p ** (e + 1))
        if p_part > p**3:
            continue
        try:
            report = run_analysis(G, p, name="G", source="file")
        except CapExceeded as ex:  # only the atom stage's rank cap leaves p undecided
            if not str(ex).startswith("rank "):
                raise
            event(f"atoms cap at p = {p}")
            continue
        event(f"checked at p = {p}")
        assert report.factorial, (G.generators, p)
        assert len(report.atoms) == report.lattice_rank, (G.generators, p)


@pytest.mark.parametrize(
    "make,p,order,k",
    [(lambda: borel(3, 7, "full"), 7, 7**3, 55), (lambda: psl2(37), 37, 37, 37)],
    ids=["B3(7)-full", "PSL2(37)"],
)
def test_theorem_cases_with_many_irreducibles(make, p, order, k):
    """|S| <= p^3 with more irreducibles than the atom stage once
    admitted: the monoid is factorial, its atoms as many as the rank."""
    report = run_analysis(make(), p, name="G", source="file")
    assert (report.sylow_order, report.sylow_class_count) == (order, k)
    assert report.factorial and report.half_factorial
    assert len(report.atoms) == report.lattice_rank


def test_symmetric_12_at_3_is_not_half_factorial():
    """S12 at p = 3 (|S| = 243, 51 irreducibles): its length witness
    has sides of lengths 3 and 2, and a brute-force factorization of the
    witness element finds both lengths."""
    report = run_analysis(symmetric_group(12), 3, name="S12", source="file")
    assert (report.sylow_class_count, report.lattice_rank, len(report.atoms)) == (51, 7, 13)
    assert (report.factorial, report.half_factorial) == (False, False)
    w = report.length_witness
    assert sorted(map(len, (w["decomp_a"], w["decomp_b"]))) == [2, 3]
    atoms = [tuple(a) for a in report.atoms]
    assert {2, 3} <= factorization_lengths(tuple(w["element"]), atoms)


@pytest.mark.parametrize("name", [n for n, e in CATALOG.items() if e.tier == "fast"])
def test_counts_and_verdicts_survive_relabelling(name, pipelines):
    G, p = pipelines.group(name), CATALOG[name].prime
    sigma = list(range(G.degree))
    random.Random(name).shuffle(sigma)
    H = group_from_generators([conjugate(g, tuple(sigma)) for g in reversed(G.generators)], G.degree)
    reports = [run_analysis(K, p, name=name, source="file") for K in (G, H)]
    assert H.order == G.order
    assert len({(r.fusion_class_count, len(r.atoms), r.factorial, r.half_factorial) for r in reports}) == 1
