"""Independent oracles used only by the tests.

The character-table oracle follows the class-algebra eigenvector method
over the complex numbers (numpy), then snaps the eigenvalue
multiplicities to integers and rebuilds exact cyclotomic rows; exact
orthogonality of the rebuilt table certifies the numeric step.  It
shares no code path with the finite-field computation in fmrep.chartab.
Its class matrices come from class_matrices, which builds each one
densely from the definition; the tests also check the eigenvectors of
the sparse split in fmrep.chartab against them mod ell.

The eigenvector oracle is the split fmrep.chartab used before it took
eigenvalues from the characteristic polynomial: it scans every lambda
in F_ell and solves one nullspace, by reduced row echelon form, for
each, keeping the nonzero ones.

The factorization oracle enumerates, by exhaustive search, every way of
writing a monoid element as a sum of atoms.

The group oracle is the closure of the generators under multiplication,
with no stabilizer chain.

The Sylow oracle is the lex-ordered growth of fmrep.permcore run on all
of G, with p-elements recognized from cycle types: no descent and no
power-based order test.

The conjugacy oracle walks the conjugation orbit of x under G's
generators until every candidate has been seen, or the orbit ends: the
decision fmrep.permcore made before its backtrack search.

The chain oracle is the chain fmrep.permcore's conjugacy search walked
before it read each renamed chain off G's chain: a deterministic
Schreier-Sims run on the renamed generators.

The orbital oracle finds G's orbits on ordered pairs by a walk of every
pair under G's generators, with no stabilizer chain.

The atoms oracle walks the lattice points inside the box bounded by the
regular representation and keeps the minimal ones.  It is complete only
when every atom is a subrepresentation of the regular representation,
so it cross-checks fmrep.fimonoid's Hilbert basis instead of replacing
it.

The character oracles evaluate an integer combination of irreducibles
class by class as a cyclotomic sum: invariance is then constancy on
fused classes, checked value by value, independently of the integer
linearization in fmrep.repring.

The difference-matrix oracle is the linearization fmrep.repring used
before it read each value once in integers: every (chi, touched class)
goes through rational_coordinates, every pair's columns are kept, zero
and repeated ones included.

The descent oracle finds the minimal conductor of a cyclotomic number
by Gauss-Jordan elimination over Fraction, independently of the
integer solve in fmrep.cyclonum.

The reduction oracle is the long division by Phi_n that fmrep.cyclonum
used before it summed rows of its table of powers of zeta_n.

The extreme-ray oracle tries every d - 1 constraints: their generalized
cross product, with either sign, is an extreme ray when it is nonzero
and feasible.  It shares no step with the double description in
fmrep.fimonoid.  The triangulation oracle is the pulling triangulation
fmrep.fimonoid used before it found facets by inclusion: a facet of a
face is a tight set of the face's rank minus one, ranks by the forward
elimination below.

The integer linear-algebra oracles are the eliminations fmrep.intlin
used before it kept one HNF and one Gauss-Jordan loop: the HNF that
carries its transform U, the kernel read from U and put into HNF a
second time, and the forward Bareiss elimination that gave rank and
determinant.

The basis criteria of the paper decide from one lattice basis of
nonnegative representations: private constituents or disjoint supports
certify factoriality (and the basis is then the atom set), and
coefficient sum one certifies half-factoriality.  fmrep.fimonoid never
uses them; the tests hold its verdicts against them.

to_complex, galois_trace, is_unimodular, lattices_equal and
report_from_json_dict are helpers that only the tests need.
"""

import cmath
import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from fmrep.cyclonum import (
    _descent_matrix,
    cyclotomic_polynomial,
    euler_phi,
    from_rational,
    prime_divisors,
    rational_coordinates,
    zeta,
)
from fmrep.intlin import det, hermite_normal_form, solve_integer
from fmrep.permcore import (
    CertificateError,
    PermGroup,
    _left,
    _lex_chain,
    class_partition,
    conjugate,
    cycle_lengths,
    group_from_generators,
    identity,
    inverse,
    mul,
    perm_order,
)
from fmrep.repring import fusing_pairs
from fmrep.report import RunReport


DEFAULT_SEARCH_BUDGET = 10**8


class BudgetExceeded(Exception):
    pass


def numeric_character_table(S, seed=0):
    """Exact character rows computed via complex numerics; returns the
    rows sorted with the same canonical key as fmrep.chartab."""
    classes, lookup = class_partition(S)
    k = len(classes)
    reps = [c.representative for c in classes]
    sizes = [c.size for c in classes]
    mats = [np.array(A, dtype=float) for A in class_matrices(S)]

    rng = np.random.default_rng(seed)
    for attempt in range(10):
        weights = rng.normal(size=k)
        M = sum(w * A for w, A in zip(weights, mats))
        eigvals, eigvecs = np.linalg.eig(M)
        gap = min(
            (abs(a - b) for i, a in enumerate(eigvals) for b in eigvals[i + 1 :]),
            default=1.0,
        )
        if gap > 1e-6:
            break
    else:
        raise AssertionError("no generic combination found")

    inv_class = [lookup[inverse(r)] for r in reps]
    orders = [c.element_order for c in classes]
    power_class = [
        [lookup[_power(reps[j], t)] for t in range(orders[j])] for j in range(k)
    ]

    rows = []
    for col in range(k):
        v = eigvecs[:, col]
        v = v / v[0]
        s = sum(v[j] * v[inv_class[j]] / sizes[j] for j in range(k))
        d_sq = S.order / s
        d = int(round(abs(d_sq) ** 0.5))
        assert abs(d_sq - d * d) < 1e-6
        chi = [d * v[j] / sizes[j] for j in range(k)]
        row = []
        for j in range(k):
            o = orders[j]
            value = from_rational(0)
            total = 0
            for m_exp in range(o):
                n_m = sum(
                    chi[power_class[j][t]] * cmath.exp(-2j * cmath.pi * m_exp * t / o)
                    for t in range(o)
                ) / o
                n_int = int(round(n_m.real))
                assert abs(n_m - n_int) < 1e-6, "eigen multiplicity not integral"
                total += n_int
                if n_int:
                    value = value + n_int * zeta(o, m_exp)
            assert total == d
            row.append(value)
        rows.append(row)

    rows.sort(key=lambda r: (r[0].rational_value(), tuple(str(x) for x in r)))
    return [tuple(r) for r in rows]


def class_matrices(S):
    """Dense class matrices, straight from the definition:
    (A_i)[j][m] = #{x in C_i : x^-1 z_m in C_j}, z_m the representative
    of class m, in the class order of class_partition."""
    classes, lookup = class_partition(S)
    k = len(classes)
    by_class = [[] for _ in range(k)]
    for x in lookup:
        by_class[lookup[x]].append(x)
    mats = []
    for i in range(k):
        A = [[0] * k for _ in range(k)]
        for m, c in enumerate(classes):
            for x in by_class[i]:
                A[lookup[mul(inverse(x), c.representative)]][m] += 1
        mats.append(A)
    return mats


def lambda_scan_eigenvectors(class_elements, reps, lookup, ell):
    """Common eigenvectors of the class matrices over F_ell, as the sorted
    list that fmrep.chartab._split_eigenvectors returns: each eigenspace of
    dimension > 1 with a non-scalar restriction X is split by trying every
    lambda in F_ell as an eigenvalue of X."""
    from fmrep.chartab import _class_matrix, _combination, _rref_mod

    def nullspace(M):
        rref, pivots = _rref_mod(M, ell)
        basis = []
        for fc in (c for c in range(len(M)) if c not in pivots):
            y = [0] * len(M)
            y[fc] = 1
            for row, pc in zip(rref, pivots):
                y[pc] = -row[fc] % ell
            basis.append(y)
        return basis

    k = len(reps)
    spaces = [_rref_mod([[int(i == j) for j in range(k)] for i in range(k)], ell)]
    for idx in range(1, k):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        A = _class_matrix(class_elements[idx], reps, lookup)
        new_spaces = []
        for rows, pivots in spaces:
            dim = len(rows)
            X = []
            for b in rows:
                img = [0] * k
                for x, col in zip(b, A):
                    for r, a in col:
                        img[r] += a * x
                X.append([img[pc] % ell for pc in pivots])
            if X == [[X[0][0] * (t == s) for s in range(dim)] for t in range(dim)]:
                new_spaces.append((rows, pivots))
                continue
            Xt = [list(col) for col in zip(*X)]
            for lam in range(ell):
                ys = nullspace([[(x - lam * (s == t)) % ell for s, x in enumerate(row)]
                                for t, row in enumerate(Xt)])
                if ys:
                    new_spaces.append(_rref_mod([_combination(y, rows, ell) for y in ys], ell))
        spaces = new_spaces
    return sorted(rows[0] for rows, _ in spaces)


def _power(p, t):
    q = identity(len(p))
    for _ in range(t):
        q = mul(q, p)
    return q


def character_of(mult, table):
    """Character vector of an integer combination of the irreducibles."""
    if len(mult) != table.irr_count:
        raise ValueError("multiplicity vector length mismatch")
    out = [from_rational(0)] * table.class_count
    for m, row in zip(mult, table.chars):
        if m:
            out = [acc + m * v for acc, v in zip(out, row)]
    return out


def inner_product(a, b, table):
    """(1/|S|) * sum over classes of |C| * a(C) * conj(b(C))."""
    if len(a) != table.class_count or len(b) != table.class_count:
        raise ValueError("character vector length mismatch")
    total = from_rational(0)
    for cls, x, y in zip(table.classes, a, b):
        total = total + cls.size * (x * y.conjugate())
    return total * Fraction(1, table.group.order)


def is_invariant(mult, pattern, table):
    """Character constancy across fused classes, with early exit."""
    values = character_of(mult, table)
    first_of = {}
    for idx, lab in enumerate(pattern.labels):
        if lab in first_of:
            if values[idx] != values[first_of[lab]]:
                return False
        else:
            first_of[lab] = idx
    return True


def full_difference_matrix(pattern, table):
    """One row per irreducible chi_j: over the fusing pairs (c1, c2), the
    concatenated coordinates of chi_j(c1) - chi_j(c2) over Z[zeta_e],
    read per (chi, class) by rational_coordinates; all columns kept."""
    e = table.exponent
    pairs = fusing_pairs(pattern)
    touched = sorted({c for pair in pairs for c in pair})
    rows = []
    for chi in table.chars:
        coords = {c: rational_coordinates(chi[c], e) for c in touched}
        for c in touched:
            if any(x.denominator != 1 for x in coords[c]):
                raise CertificateError(f"character value {chi[c]} is not in Z[zeta_{e}]")
        rows.append([int(a - b) for c1, c2 in pairs for a, b in zip(coords[c1], coords[c2])])
    return rows


def assert_orthogonal(rows, table):
    one = from_rational(1)
    nil = from_rational(0)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert inner_product(a, b, table) == (one if i == j else nil)


def all_factorizations(element, atoms):
    """Every multiset of atom indices summing to `element` (exhaustive)."""
    r = len(element)
    out = []

    def rec(v, start, chosen):
        if not any(v):
            out.append(tuple(chosen))
            return
        for i in range(start, len(atoms)):
            if all(a <= x for a, x in zip(atoms[i], v)):
                rec(tuple(x - a for x, a in zip(v, atoms[i])), i, chosen + [i])

    rec(tuple(element), 0, [])
    return out


def factorization_lengths(element, atoms, memo=None):
    """Set of factorization lengths of `element` over `atoms`."""
    if memo is None:
        memo = {}

    def rec(v, start):
        if not any(v):
            return frozenset([0])
        key = (v, start)
        if key in memo:
            return memo[key]
        lengths = set()
        for i in range(start, len(atoms)):
            if all(a <= x for a, x in zip(atoms[i], v)):
                sub = rec(tuple(x - a for x, a in zip(v, atoms[i])), i)
                lengths.update(n + 1 for n in sub)
        memo[key] = frozenset(lengths)
        return memo[key]

    return rec(tuple(element), 0)


def monoid_elements_up_to_dimension(atoms, degrees, max_dim):
    """All monoid elements (atom sums) of dimension <= max_dim."""
    dims = [sum(m * d for m, d in zip(a, degrees)) for a in atoms]
    seen = set()

    def rec(v, dim, start):
        for i in range(start, len(atoms)):
            if dim + dims[i] <= max_dim:
                w = tuple(x + a for x, a in zip(v, atoms[i]))
                if w not in seen:
                    seen.add(w)
                rec(w, dim + dims[i], i)

    rec(tuple([0] * len(degrees)), 0, 0)
    return sorted(seen)


def closure(gens, degree):
    """Every element of the group that gens generate, as a set: the
    identity multiplied on the right by generators until nothing new
    appears."""
    elems = {identity(degree)}
    frontier = list(elems)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def is_p_element(p, prime):
    """True iff every cycle length is a power of prime (identity included)."""
    for n in set(cycle_lengths(p)):
        while n % prime == 0:
            n //= prime
        if n != 1:
            return False
    return True


def full_scan_growth(G, p):
    """The steps of full_scan_sylow: (gens, x) for each P = <gens> it
    grows, x the lex-first p-element of N_G(P) outside P; the last gens
    generate the Sylow subgroup, with x None."""
    target = 1
    while G.order % (target * p) == 0:
        target *= p
    if target == 1:
        yield [], None
        return
    ident = identity(G.degree)
    pelems = sorted(x for x in G.elements() if x != ident and is_p_element(x, p))
    start = max(pelems, key=lambda x: (perm_order(x), [-i for i in x]))
    gens = [start]
    S = group_from_generators(gens, G.degree)
    while S.order < target:
        pset = set(S.elements())
        x = next(
            x for x in pelems
            if x not in pset and all(conjugate(s, x) in pset for s in gens)
        )
        yield list(gens), x
        gens.append(x)
        S = group_from_generators(gens, G.degree)
    assert S.order == target
    yield gens, None


def full_scan_sylow(G, p):
    """Sylow p-subgroup by lex-ordered growth over every p-element of G."""
    *_, (gens, _) = full_scan_growth(G, p)
    return group_from_generators(gens, G.degree)


def orbit_walk_conjugates(G, x, ys):
    """The members of ys that are conjugate to x in G, by a walk of the
    conjugation orbit of x that stops once every member has been seen."""
    conj = [(_left(inverse(g)), g) for g in G.generators]  # y^g = g^-1 * y * g
    orbit = {x}
    queue = [x]
    waiting = set(ys) - orbit
    for y in queue:
        if not waiting:
            break
        y_left = _left(y)
        for g_inv, g in conj:
            z = g_inv(y_left(g))
            if z not in orbit:
                orbit.add(z)
                queue.append(z)
                waiting.discard(z)
    return [y for y in ys if y in orbit]


def schreier_sims_chain(G, rename):
    """The lex chain of G with its points renamed by `rename`, from a
    Schreier-Sims run on the renamed generators; a stand-in for
    fmrep.permcore._renamed_chain."""
    return _lex_chain(PermGroup([rename(g) for g in G.generators], G.degree))


def orbital_counts(G):
    """x -> the multiset of G-orbits on ordered pairs that the pairs
    (i, x(i)) lie in, as a sorted tuple of orbit numbers."""
    n = G.degree
    orbital = {}
    for start in ((i, j) for i in range(n) for j in range(n)):
        if start in orbital:
            continue
        orbital[start] = len(orbital)
        queue = [start]
        for i, j in queue:
            for g in G.generators:
                pair = (g[i], g[j])
                if pair not in orbital:
                    orbital[pair] = orbital[start]
                    queue.append(pair)
    return lambda x: tuple(sorted(orbital[i, x[i]] for i in range(n)))


def atoms_bounded_search(lattice, table, budget=None):
    """Atoms among the invariant subrepresentations of the regular
    representation (multiplicities bounded by the degrees).

    Enumerates box-bounded lattice points in ascending dimension order
    and keeps those not dominating an earlier survivor.  Complete only
    when every atom fits under the regular representation.
    """
    degrees = table.degrees
    if budget is None:
        product = 1
        for dd in degrees:
            product *= dd + 1
            if product > DEFAULT_SEARCH_BUDGET:
                raise BudgetExceeded(
                    "regular-representation box beyond default budget; pass an explicit budget"
                )
        budget = DEFAULT_SEARCH_BUDGET
    candidates = _lattice_points_in_box(lattice, degrees, budget)
    candidates.sort(key=lambda v: (sum(m * d for m, d in zip(v, degrees)), v))
    found = []
    for v in candidates:
        if not any(all(a <= b for a, b in zip(f, v)) for f in found):
            found.append(v)
    return found


def _lattice_points_in_box(lattice, bounds, budget):
    """All nonzero lattice vectors v with 0 <= v <= bounds, via the HNF
    pivot structure of the basis."""
    B = lattice.basis
    d, r = lattice.rank, lattice.irr_count
    pivots = []
    for row in B:
        j = next(c for c in range(r) if row[c])
        pivots.append(j)
    out = []
    visited = 0

    def rec(i, partial):
        nonlocal visited
        visited += 1
        if visited > budget:
            raise BudgetExceeded(f"bounded search budget {budget} exceeded")
        if i == d:
            v = tuple(partial)
            if all(0 <= x <= b for x, b in zip(v, bounds)) and any(v):
                out.append(v)
            return
        j = pivots[i]
        p = B[i][j]
        # later rows are zero in column j: 0 <= partial[j] + x_i * p <= bounds[j]
        lo = _ceil_div(-partial[j], p)
        hi = (bounds[j] - partial[j]) // p
        limit = pivots[i + 1] if i + 1 < d else r
        for xi in range(lo, hi + 1):
            if xi:
                new = [a + xi * b for a, b in zip(partial, B[i])]
            else:
                new = list(partial)
            if all(0 <= new[c] <= bounds[c] for c in range(limit)):
                rec(i + 1, new)

    rec(0, [0] * r)
    return out


def _ceil_div(a, b):
    return -((-a) // b)


def fraction_descent(n, coeffs):
    """Minimal-conductor form of a coefficient list over the power basis
    of Q(zeta_n): repeatedly solve, by Gauss-Jordan over Fraction, for
    coordinates over zeta_(n/p) for some prime p | n."""
    coeffs = [Fraction(c) for c in coeffs]
    while n > 1:
        for p in prime_divisors(n):
            sol = solve_rational(_descent_matrix(n, n // p), coeffs)
            if sol is not None:
                n, coeffs = n // p, sol
                break
        else:
            break
    return n, coeffs


def solve_rational(rows, target):
    """Solve sum_i x_i * rows[i] = target over Q; None when unsolvable."""
    k = len(rows)
    width = len(target)
    aug = [[Fraction(r) for r in row] + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, k) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(k):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == k:
            break
    t = [Fraction(x) for x in target]
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        coef = t[c]
        if coef:
            for j in range(width):
                t[j] -= coef * aug[i][j]
            for j in range(k):
                sol[j] += coef * aug[i][width + j]
    if any(t):
        return None
    return sol


def polynomial_reduce_mod_phi(coeffs, n):
    """Remainder of sum_i coeffs[i] x^i by Phi_n, by long division from the
    top degree down, padded to phi(n) coefficients."""
    phi = euler_phi(n)
    poly = list(cyclotomic_polynomial(n))
    coeffs = list(coeffs)
    if len(coeffs) < phi:
        coeffs += [Fraction(0)] * (phi - len(coeffs))
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(len(poly) - 1):
                coeffs[i - len(poly) + 1 + j] -= c * poly[j]
        coeffs.pop()
    return coeffs


def brute_force_extreme_rays(constraints, d):
    """Sorted extreme rays of {x in R^d : x . c >= 0 for all c}: the feasible
    primitive x whose tight constraints have rank d - 1.  Each such x spans
    the kernel of some d - 1 constraints, which is their generalized cross
    product when that is nonzero."""
    rays = set()
    for sub in itertools.combinations(constraints, d - 1):
        x = [(-1) ** i * det([[c[j] for j in range(d) if j != i] for c in sub]) for i in range(d)]
        g = gcd(*x)
        for sign in (1, -1) if g else ():
            r = tuple(sign * v // g for v in x)
            if all(sum(a * b for a, b in zip(r, c)) >= 0 for c in constraints):
                rays.add(r)
    return sorted(rays)


def rank_pulling_triangulation(rays, constraints, d):
    """Pulling triangulation, simplices as tuples of ray indices: a facet
    of a face is a tight set restricted to the face whose rank is one
    less than the face's."""
    ray_list = [tuple(r) for r in rays]
    tight = [frozenset(i for i, r in enumerate(ray_list) if sum(a * b for a, b in zip(r, c)) == 0)
             for c in constraints]

    def face_rank(face):
        return echelon([list(ray_list[i]) for i in sorted(face)])[0]

    def triangulate(face, dim):
        idxs = sorted(face)
        if len(idxs) == dim:
            return [tuple(idxs)]
        v0 = idxs[0]
        out, seen = [], set()
        for t in tight:
            sub = face & t
            if v0 in sub or sub in seen or sub == face or not sub:
                continue
            seen.add(sub)
            if face_rank(sub) == dim - 1:
                out += [(v0,) + simplex for simplex in triangulate(sub, dim - 1)]
        return out

    top = frozenset(range(len(ray_list)))
    if face_rank(top) != d:
        raise CertificateError("cone is not full-dimensional")
    return triangulate(top, d)


def transform_hermite_normal_form(A):
    """(H, U) with U unimodular and U*A = H in canonical row HNF, the
    pivot in each column of least absolute value."""
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def sub(i, r, q):
        H[i] = [x - q * y for x, y in zip(H[i], H[r])]
        U[i] = [x - q * y for x, y in zip(U[i], U[r])]

    r = 0
    for c in range(n):
        while True:
            rows = [i for i in range(r, m) if H[i][c]]
            if not rows:
                break
            piv = min(rows, key=lambda i: (abs(H[i][c]), i))
            H[r], H[piv], U[r], U[piv] = H[piv], H[r], U[piv], U[r]
            if len(rows) == 1:
                break
            for i in range(r + 1, m):
                if H[i][c]:
                    sub(i, r, H[i][c] // H[r][c])
        if r < m and H[r][c]:
            if H[r][c] < 0:
                H[r], U[r] = [-x for x in H[r]], [-x for x in U[r]]
            for i in range(r):
                sub(i, r, H[i][c] // H[r][c])
            r += 1
            if r == m:
                break
    return H, U


def two_hnf_kernel(A):
    """Canonical HNF basis of the left integer kernel of A: the transform
    rows of the zero rows of H, put into HNF a second time."""
    H, U = transform_hermite_normal_form(A)
    rows = [U[i] for i in range(len(H)) if not any(H[i])]
    if not rows:
        return []
    return [r for r in transform_hermite_normal_form(rows)[0] if any(r)]


def echelon(A):
    """Forward fraction-free (Bareiss) row echelon of A: (rank, sign, last
    pivot), the sign that of the row permutation and the last pivot the
    determinant of the row-permuted leading rank x rank minor on the
    pivot columns."""
    M = [list(row) for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    r, sign, prev = 0, 1, 1
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        p = top[c]
        for i in range(r + 1, m):
            f = M[i][c]
            M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], top)]
        prev = p
        r += 1
        if r == m:
            break
    return r, sign, prev


def to_complex(a):
    """Float evaluation of a Cyclotomic; a sanity check only."""
    z = cmath.exp(2j * cmath.pi / a.n)
    return sum(float(c) * z**i for i, c in enumerate(a.coeffs))


def galois_trace(a):
    """Sum of the Galois conjugates of a Cyclotomic; an exact rational."""
    total = from_rational(0)
    for t in range(1, a.n + 1):
        if gcd(t, a.n) == 1:
            total = total + a.galois(t)
    return total.rational_value()


def is_unimodular(U):
    return abs(det(U)) == 1


def report_from_json_dict(data):
    """The RunReport that RunReport.to_json_dict serialized to `data`."""
    data = dict(data)
    data.setdefault("timings", {})
    if data.get("fusion_labels") is not None:
        data["fusion_labels"] = list(data["fusion_labels"])
    return RunReport(**data)


def lattices_equal(rows_a, rows_b):
    """Whether two row sets span the same integer lattice."""
    Ha = [r for r in hermite_normal_form(rows_a) if any(r)] if rows_a else []
    Hb = [r for r in hermite_normal_form(rows_b) if any(r)] if rows_b else []
    return Ha == Hb


class NotALatticeBasis(ValueError):
    pass


def _require_basis(basis, lattice):
    rows = [list(b) for b in basis]
    if len(rows) != lattice.rank or not lattices_equal(rows, [list(r) for r in lattice.basis]):
        raise NotALatticeBasis("rows do not form a basis of the lattice")


def _require_genuine_basis(basis, lattice):
    _require_basis(basis, lattice)
    if any(min(b) < 0 for b in basis):
        raise NotALatticeBasis("basis members must be genuine (nonnegative) representations")


def _has_private_constituent(j, basis):
    support = {c for c, m in enumerate(basis[j]) if m}
    for i, b in enumerate(basis):
        if i != j:
            support -= {c for c, m in enumerate(b) if m}
    return bool(support)


def check_private_irreducible_basis(basis, lattice):
    """Each basis member owns a constituent appearing in no other member.

    A passing nonnegative basis certifies factoriality and is then
    exactly the atom set.
    """
    _require_genuine_basis(basis, lattice)
    return all(_has_private_constituent(j, basis) for j in range(len(basis)))


def certify_irreducible(j, basis, lattice):
    """Whether basis[j] has a constituent absent from every other member."""
    _require_genuine_basis(basis, lattice)
    return _has_private_constituent(j, basis)


def check_disjoint_basis(basis, lattice):
    """Pairwise-disjoint supports; a passing basis certifies factoriality."""
    _require_basis(basis, lattice)
    seen = set()
    for b in basis:
        supp = {c for c, m in enumerate(b) if m}
        if supp & seen:
            return False
        seen |= supp
    return True


def check_convex_basis(basis, atoms):
    """Every atom an integral combination of the basis with coefficient
    sum one; a passing basis certifies half-factoriality.

    The integral combination is not required to be nonnegative: only
    the sum condition enters the certificate.
    """
    rows = [list(b) for b in basis]
    if not lattices_equal(rows, [list(a) for a in atoms]):
        raise NotALatticeBasis("rows do not form a basis of the lattice spanned by the atoms")
    for a in atoms:
        lam = solve_integer(rows, list(a))
        if lam is None or sum(lam) != 1:
            return False
    return True
