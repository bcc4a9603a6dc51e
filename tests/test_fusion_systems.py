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
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmrep.cli import run_analysis
from fmrep.cyclonum import prime_divisors
from fmrep.permcore import group_from_generators

from .groups_zoo import psl2, symmetric_group

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


@st.composite
def small_permutation_groups(draw):
    degree = draw(st.integers(2, 8), label="degree")
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3), label="generators")
    return group_from_generators([tuple(g) for g in gens], degree)


@settings(max_examples=40, deadline=None)
@given(G=small_permutation_groups())
def test_sylow_of_order_at_most_p_cubed_is_factorial(G):
    for p in prime_divisors(G.order):
        p_part = p ** next(e for e in range(G.order) if G.order % p ** (e + 1))
        if p_part > p**3:
            continue
        report = run_analysis(G, p, name="G", source="file")
        assert report.factorial, (G.generators, p)
        assert len(report.atoms) == report.lattice_rank, (G.generators, p)
