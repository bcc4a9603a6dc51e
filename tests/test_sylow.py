"""Sylow subgroups against the full-scan oracle, and the kernels under them.

Its certificate and cap tests also run under `python -O` (see
test_permcore.test_sylow_certificates_survive_optimized_mode), so they
check raises that `-O` cannot strip.
"""

import random
from math import gcd, prod

import pytest

from fmrep import permcore
from fmrep.catalog import CATALOG, load_group
from fmrep.permcore import (
    CapExceeded,
    CertificateError,
    _lex_chain,
    _lex_first,
    _p_order_guess,
    conjugate,
    group_from_generators,
    identity,
    inverse,
    mul,
    parse_perm,
    perm_order,
    sylow_subgroup,
)

from .groups_zoo import all_groups_up_to_16, groups_fixing_first_points
from .oracles import full_scan_growth, full_scan_sylow, is_p_element

ZOO = all_groups_up_to_16()
FIXING = groups_fixing_first_points()


def S(n):
    cyc = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    gens = [parse_perm("(1,2)", n), parse_perm(cyc, n)] if n > 1 else []
    return group_from_generators(gens, n)


def primes_dividing(n):
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


def assert_same_as_oracle(G, p):
    assert sylow_subgroup(G, p).generators == full_scan_sylow(G, p).generators


# -- the lex walk ------------------------------------------------------------


def p_limit(G, p):
    """Largest power of p dividing |G| and at most the degree."""
    limit = 1
    while G.order % (limit * p) == 0 and limit * p <= G.degree:
        limit *= p
    return limit


CATALOG_GROUPS = [
    (name, load_group(name))
    for name, entry in CATALOG.items()
    if entry.tier in ("fast", "table")
]
WALKED = ZOO + FIXING + [(f"S{n}", S(n)) for n in range(1, 8)] + [
    (name, G) for name, G in CATALOG_GROUPS if G.order <= 2 * 10**4
]


def relabelled(name, G):
    """G, and G with its points relabelled at random."""
    sigma = list(range(G.degree))
    random.Random(name).shuffle(sigma)
    return [G, group_from_generators([conjugate(g, tuple(sigma)) for g in G.generators], G.degree)]


@pytest.mark.parametrize("name,G", WALKED, ids=[n for n, _ in WALKED])
def test_walk_yields_p_elements_in_lex_order(name, G):
    """The start search of _lex_first yields the lex-least element of
    order m, for every prime p and every power m of p up to the limit,
    as a scan of G in lex order does (None when there is none)."""
    for H in relabelled(name, G):
        levels = _lex_chain(H)
        elements = sorted(H.elements())
        for p in primes_dividing(H.order):
            m = 1
            while p_limit(H, p) % m == 0:
                expected = next((x for x in elements if perm_order(x) == m), None)
                found, _ = _lex_first(levels, H.degree, m, lambda x: perm_order(x) == m)
                assert found == expected, (p, m)
                m *= p


@pytest.mark.parametrize("name,G", WALKED, ids=[n for n, _ in WALKED])
def test_lex_first_finds_the_next_growth_step(name, G):
    """The growth search (the lex-first p-element of N_G(P) outside P),
    at every P that the full-scan oracle grows, against the oracle."""
    for H in relabelled(name, G):
        levels = _lex_chain(H)
        for p in primes_dividing(H.order):
            for gens, expected in full_scan_growth(H, p):
                pset = set(group_from_generators(gens, H.degree).elements())

                def keep(x):
                    return x not in pset and is_p_element(x, p) and all(conjugate(s, x) in pset for s in gens)

                found, _ = _lex_first(levels, H.degree, p_limit(H, p), keep, (gens, pset))
                assert found == expected, (p, len(gens))


def test_start_search_prunes_by_points_left_for_the_cycle():
    """S9 at p = 3 starts from the lex-least 9-cycle.  A node with no
    closed 9-cycle and fewer than 9 points outside its closed cycles is
    pruned, so the search builds 44 nodes (396 node-points); a lex scan
    of S9 meets 1,314 3-elements before it, 1,233 of them fixing 0."""
    G = S(9)
    levels = _lex_chain(G)
    found, work = _lex_first(levels, 9, 9, lambda x: perm_order(x) == 9)
    assert found == (1, 2, 3, 4, 5, 6, 7, 8, 0)
    assert work <= 1000


LEX_CHECKED = WALKED + [(name, None) for name in CATALOG if name not in dict(WALKED)]


@pytest.mark.parametrize("name,G", LEX_CHECKED, ids=[n for n, _ in LEX_CHECKED])
def test_lex_chain_has_lex_base(name, G):
    """Every PermGroup chain is lex, on G (the catalog groups beyond
    WALKED, stretch tier too, are loaded here) and on G under two random
    renamings: the base increases, each strong generator at level l
    fixes every point before base[l], some one moves base[l], and the
    transversal sizes multiply to |G|.  _lex_chain reads the chain: the
    level-l transversal element keyed pt maps base[l] to pt and fixes
    every point before base[l].  (The chains read off G's chain are
    checked against these in test_permcore.)"""
    G = load_group(name) if G is None else G
    rng = random.Random(name)
    builds = [G]
    for _ in range(2):
        sigma = list(range(G.degree))
        rng.shuffle(sigma)
        builds.append(group_from_generators([conjugate(g, tuple(sigma)) for g in G.generators], G.degree))
    ident = identity(G.degree)
    for H in builds:
        assert H.base == sorted(set(H.base))
        for b, strong in zip(H.base, H._strong):
            assert all(s[i] == i for s in strong for i in range(b))
            assert any(s[b] != b for s in strong)
        assert prod(map(len, H._transversals)) == G.order
        for b, left in _lex_chain(H):
            for pt, u in left.items():
                u = u(ident)
                assert u[b] == pt and all(u[i] == i for i in range(b))


# -- same subgroup as the full scan -------------------------------------------


@pytest.mark.parametrize("n", range(1, 8))
def test_symmetric_groups_every_prime(n):
    G = S(n)
    for p in primes_dividing(G.order):
        assert_same_as_oracle(G, p)


@pytest.mark.parametrize("name,G", ZOO, ids=[n for n, _ in ZOO])
def test_zoo_every_prime(name, G):
    for p in primes_dividing(G.order):
        assert_same_as_oracle(G, p)


@pytest.mark.parametrize("name,G", FIXING, ids=[n for n, _ in FIXING])
def test_groups_fixing_first_points_every_prime(name, G):
    # G fixes the points before its first base point, so every walk
    # checks them in the root window before it builds a child
    assert _lex_chain(G)[0][0] > 1
    for p in primes_dividing(G.order):
        assert_same_as_oracle(G, p)


@pytest.mark.parametrize("name,G", CATALOG_GROUPS, ids=[n for n, _ in CATALOG_GROUPS])
def test_guess_is_the_sylow_exponent(name, G):
    """The guessed largest p-element order is the exponent of the Sylow
    subgroup on every fast and table catalog entry, so none restarts."""
    p = CATALOG[name].prime
    S = full_scan_sylow(G, p) if G.order <= 2 * 10**4 else sylow_subgroup(G, p)
    exponent = max(perm_order(x) for x in S.elements())
    assert _p_order_guess(G, p, p_limit(G, p)) == exponent


def test_restart_when_exponent_exceeds_guess(monkeypatch):
    # guessed from the generators alone, as the random draws would find
    # order 4: the generators of A6 have orders 3 and 5, so the guessed
    # maximal 2-order is 2; the Sylow subgroup grown from there has
    # exponent 4, and the search restarts from the lex-least element of
    # order 4
    G = load_group("A6")
    assert [perm_order(g) % 2 for g in G.generators] == [1, 1]
    monkeypatch.setattr(
        permcore, "_p_order_guess",
        lambda G, p, limit: max(p, *(gcd(perm_order(g), limit) for g in G.generators)),
    )
    starts = []
    real = permcore.group_from_generators

    def spy(gens, degree):
        if len(gens) == 1:
            starts.append(perm_order(gens[0]))
        return real(gens, degree)

    monkeypatch.setattr(permcore, "group_from_generators", spy)
    assert_same_as_oracle(G, 2)
    assert starts == [2, 4]


@pytest.mark.parametrize("n,p,order", [(14, 7, 49), (15, 5, 125)])
def test_growth_prunes_by_p_orbit_length(n, p, order):
    # P moves only the last points, so a growth walk that checked only
    # the pairs (i, s(i)) would try every map of the points before them;
    # the P-orbit lengths prune those maps at once
    assert sylow_subgroup(S(n), p).order == order


# -- stream cap and certificates -----------------------------------------------


def test_stream_cap_names_stage_and_value(monkeypatch):
    # S9 at p = 3 needs about 2,000 node-points (217 nodes of degree 9)
    monkeypatch.setattr(permcore, "SYLOW_STREAM_CAP", 10**3)
    with pytest.raises(CapExceeded, match=r"sylow: lex walk exceeds cap 1000 node-points"):
        sylow_subgroup(S(9), 3)


def test_order_certificate_raises(monkeypatch):
    # a constructor that returns all of S4 for any generators ends the
    # growth at once, with a subgroup of the wrong order
    G = S(4)
    monkeypatch.setattr(permcore, "group_from_generators", lambda gens, degree: G)
    with pytest.raises(CertificateError, match="order 24, not 8"):
        sylow_subgroup(G, 2)


def test_growth_certificate_raises(monkeypatch):
    real = permcore._p_part
    monkeypatch.setattr(permcore, "_p_part", lambda n, p: p * real(n, p))
    with pytest.raises(CertificateError, match="stalled"):
        sylow_subgroup(S(4), 2)


# -- kernels -----------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_mul_and_conjugate_small_degrees(degree):
    perms = [identity(degree)] + ([(1, 0)] if degree == 2 else [])
    for p in perms:
        assert mul(p, identity(degree)) == p == mul(identity(degree), p)
        assert mul(p, inverse(p)) == identity(degree)
        for g in perms:
            assert conjugate(p, g) == mul(mul(inverse(g), p), g)
            assert type(mul(p, g)) is tuple and type(conjugate(p, g)) is tuple


def test_mul_matches_definition():
    rng = random.Random(2)
    for n in (3, 9, 40):
        p, q = list(range(n)), list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        assert mul(p, q) == tuple(q[i] for i in p)
        assert conjugate(p, q) == tuple(
            q[p[inverse(q)[j]]] for j in range(n)
        )
