"""The monoid of nonnegative invariant representations inside a
RepLattice: atom enumeration and factorization analysis.

In lattice coordinates the monoid is the set of lattice points of a
pointed full-dimensional rational cone {x in R^d : x*B >= 0}, with B
the HNF basis of the lattice.  Atoms (the minimal generating set, i.e.
the Hilbert basis) are enumerated by the classical certified pipeline:

    extreme rays (double description)
    -> pulling triangulation of the cone
    -> lattice points of each simplicial fundamental parallelepiped
    -> global reduction of the candidate set.

Every step is integer arithmetic: the simplex cones are inverted
through their adjugates, so a parallelepiped point is an exact
quotient by the simplex volume.  The tests check the atoms against an
independent bounded search (tests/oracles.py).

Downstream of the atoms, a monoid is factorial iff the atom count
equals the lattice rank, and half-factorial iff the coefficient-sum
functional vanishes on the relation lattice of the atoms; witnesses
are split relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional

from .chartab import CharacterTable
from .fusion import FusionPattern
from .intlin import (
    adjugate,
    hermite_normal_form,  # noqa: F401  (traced by perfbench/bench_trace.py)
    integer_kernel,
    pivot_columns,
    rank,
)
from .intlin import solve_integer  # noqa: F401  (traced by perfbench/bench_trace.py)
from .permcore import CapExceeded, CertificateError
from .repring import RepLattice

RANK_CAP = 12


@dataclass(frozen=True)
class FactorizationWitness:
    """Two distinct factorizations of one monoid element into atoms.

    decomp_a and decomp_b are sorted tuples of atom indices with
    multiplicity; their atom sums both equal `element`.
    """

    element: tuple
    decomp_a: tuple
    decomp_b: tuple


@dataclass(frozen=True)
class MonoidAnalysis:
    atoms: tuple
    factorial: bool
    half_factorial: bool
    factorization_witness: Optional[FactorizationWitness]
    length_witness: Optional[FactorizationWitness]
    regular_conjecture_holds: bool
    transitive: bool


# ------------------------------------------------------------ cone tools


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def extreme_rays(constraints, d):
    """Extreme rays of the pointed cone {x in R^d : x . c >= 0 for all c}.

    Incremental double description with the combinatorial adjacency
    test.  The constraint list must have rank d (pointedness); its first
    d independent constraints cut out the initial simplicial cone.  Each
    ray carries the processed constraints it is tight on: a new ray, a
    positive combination of rp and rm, is tight on their common ones and
    on the round's constraint only, as elsewhere one of them is > 0.
    """
    init = pivot_columns([[c[i] for c in constraints] for i in range(d)])
    if len(init) != d:
        raise CertificateError("constraints do not span: cone not pointed")
    A = [[constraints[j][i] for j in init] for i in range(d)]  # columns = chosen constraints
    det, adj = adjugate(A)
    # adj * A = det * I: row i of sign(det) * adj meets constraint i
    # positively and lies on the other d - 1 facets
    rays = {
        _primitive(row if det > 0 else [-x for x in row]): frozenset(init[:i] + init[i + 1:])
        for i, row in enumerate(adj)
    }  # ray -> the processed constraints it is tight on
    for j, c in enumerate(constraints):
        if j in init:
            continue
        vals = {r: _dot(r, c) for r in rays}
        minus = [r for r in rays if vals[r] < 0]
        plus = [r for r in rays if vals[r] > 0]
        new_rays = {}
        for rp in plus:
            for rm in minus:
                common = rays[rp] & rays[rm]
                if any(
                    r3 is not rp and r3 is not rm and common <= tight
                    for r3, tight in rays.items()
                ):
                    continue
                w = tuple(vals[rp] * x - vals[rm] * y for x, y in zip(rm, rp))
                new_rays[_primitive(w)] = common | {j}
        rays = {r: tight | {j} if vals[r] == 0 else tight for r, tight in rays.items() if vals[r] >= 0}
        rays.update(new_rays)
    rays = sorted(rays)
    for r in rays:
        if any(_dot(r, c) < 0 for c in constraints):
            raise CertificateError(f"ray {r} is infeasible: it violates a constraint")
    return rays


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _triangulate_cone(rays, constraints, d):
    """Pulling triangulation; returns simplices as tuples of ray indices.

    Faces are handled combinatorially, as sets of rays.  The facets of a
    face F are the maximal proper nonempty sets F & tight(c): every face
    is an intersection of tight sets, a facet G of F is F & tight(c) for
    any c tight on G but not on all of F, and every other proper face
    lies inside a facet.
    """
    ray_list = [tuple(r) for r in rays]
    if rank([list(r) for r in ray_list]) != d:
        raise CertificateError("cone is not full-dimensional")
    tight = [frozenset(i for i, r in enumerate(ray_list) if _dot(r, c) == 0) for c in constraints]

    @lru_cache(maxsize=None)
    def triangulate(face, dim):
        idxs = sorted(face)
        if len(idxs) == dim:
            return (tuple(idxs),)
        v0 = idxs[0]
        proper = [face & t for t in tight if not face <= t]
        facets = dict.fromkeys(sub for sub in proper if sub and not any(sub < other for other in proper))
        return tuple((v0,) + simplex for sub in facets if v0 not in sub for simplex in triangulate(sub, dim - 1))

    return list(triangulate(frozenset(range(len(ray_list))), d))


def _parallelepiped_points(gens):
    """Nonzero lattice points of {sum t_i g_i : 0 <= t_i < 1}.

    One point per coset of Z^d modulo the row lattice of `gens`.  With
    adj * gens = vol * I, adj carrying the sign of det, the point of the
    coset of z has t = z * adj / vol, so vol * frac(t) runs over the
    subgroup of (Z/vol)^d that the rows of adj generate; it is
    enumerated by closure and must have exactly vol elements.
    """
    d = len(gens)
    det, adj = adjugate([list(g) for g in gens])
    if det == 0:
        raise CertificateError(f"simplex generators {gens} are dependent")
    vol = abs(det)
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    cosets = [(0,) * d]
    seen = set(cosets)
    for t in cosets:
        for row in adj:
            u = tuple((a + b) % vol for a, b in zip(t, row))
            if u not in seen:
                seen.add(u)
                cosets.append(u)
    points = []
    for t in cosets[1:]:
        pt = [divmod(sum(x * g[i] for x, g in zip(t, gens)), vol) for i in range(d)]
        if any(rem for _, rem in pt):
            raise CertificateError(f"parallelepiped point {t}/{vol} of {gens} is not integral")
        points.append(tuple(x for x, _ in pt))
    if len(cosets) != vol:
        raise CertificateError(f"the adjugate of {gens} gives {len(cosets)} cosets, not {vol}")
    return points


def atoms_hilbert(lattice: RepLattice, degrees):
    """Complete atom list of the monoid N^r intersect lattice.

    Canonical order: by total dimension (degree-weighted coordinate
    sum), then lexicographically on the multiplicity vector.
    """
    d = lattice.rank
    if d > RANK_CAP:
        raise CapExceeded(f"rank {d} exceeds cap {RANK_CAP}")
    constraints = list(dict.fromkeys(map(_primitive, zip(*lattice.basis))))  # one per direction
    rays = extreme_rays(constraints, d)
    simplices = _triangulate_cone(rays, constraints, d)
    candidates = set(rays)
    for simplex in simplices:
        candidates.update(_parallelepiped_points([rays[i] for i in simplex]))
    return _reduce_candidates(candidates, lattice, degrees)


def _reduce_candidates(xs, lattice, degrees):
    """Keep the monoid-minimal candidates; returns multiplicity vectors."""
    seen = set()
    items = []
    for x in xs:
        v = lattice.to_multiplicities(x)
        if any(c < 0 for c in v):
            raise CertificateError(f"candidate {v} is not a genuine representation")
        if any(v) and v not in seen:
            seen.add(v)
            items.append(v)
    items.sort(key=lambda v: (sum(m * d for m, d in zip(v, degrees)), v))
    atoms = []
    for v in items:
        if not any(all(a <= b for a, b in zip(h, v)) for h in atoms):
            atoms.append(v)
    return atoms


# ----------------------------------------------------- verdicts, witnesses


def _pick_relation(rows, want_nonzero_sum=False):
    pool = [r for r in rows if sum(r) != 0] if want_nonzero_sum else rows
    if not pool:
        return None
    return min(pool, key=lambda r: (sum(abs(x) for x in r), r))


def _witness_from_relation(relation, atoms):
    decomp_a = []
    decomp_b = []
    element = [0] * len(atoms[0])
    for i, n in enumerate(relation):
        if n > 0:
            decomp_a.extend([i] * n)
            for j in range(len(element)):
                element[j] += n * atoms[i][j]
        elif n < 0:
            decomp_b.extend([i] * (-n))
    if not (decomp_a and decomp_b):
        raise CertificateError(f"relation {relation} is not a split relation")
    return FactorizationWitness(
        element=tuple(element),
        decomp_a=tuple(sorted(decomp_a)),
        decomp_b=tuple(sorted(decomp_b)),
    )


def factoriality(atoms, lattice: RepLattice, relations):
    """(is_factorial, witness): factorial iff #atoms equals the rank.

    `relations` is the canonical basis of the relation lattice of the
    atoms, as computed in analyze.
    """
    if len(atoms) == lattice.rank:
        return True, None
    relation = _pick_relation(relations)
    if relation is None:
        raise CertificateError(f"{len(atoms)} atoms in rank {lattice.rank} without a relation")
    return False, _witness_from_relation(relation, atoms)


def half_factoriality(atoms, relations):
    """(is_half_factorial, witness): half-factorial iff every atom
    relation (see factoriality) has coefficient sum zero."""
    if all(sum(r) == 0 for r in relations):
        return True, None
    relation = _pick_relation(relations, want_nonzero_sum=True)
    return False, _witness_from_relation(relation, atoms)


def check_regular_conjecture(atoms, table: CharacterTable) -> bool:
    """Every atom a subrepresentation of the regular representation."""
    degrees = table.degrees
    return all(all(m <= d for m, d in zip(a, degrees)) for a in atoms)


def analyze(lattice: RepLattice, table: CharacterTable, pattern: FusionPattern) -> MonoidAnalysis:
    atoms = atoms_hilbert(lattice, table.degrees)
    if len(atoms) < lattice.rank:
        raise CertificateError(f"{len(atoms)} atoms cannot generate a lattice of rank {lattice.rank}")
    relations = integer_kernel([list(a) for a in atoms])
    fact, fact_wit = factoriality(atoms, lattice, relations)
    half, half_wit = half_factoriality(atoms, relations)
    if fact and not half:
        raise CertificateError("factorial but not half-factorial")
    return MonoidAnalysis(
        atoms=tuple(atoms),
        factorial=fact,
        half_factorial=half,
        factorization_witness=fact_wit,
        length_witness=half_wit,
        regular_conjecture_holds=check_regular_conjecture(atoms, table),
        transitive=pattern.class_count == 2,
    )
