"""Exact irreducible character tables of small groups.

The table is computed by Dixon's method: the class-multiplication
matrices are simultaneously diagonalized over a prime field F_l with
l = 1 (mod exponent) and l > 2*sqrt(|S|), the central ones in closed
form from the orbits of Z(S) on the classes, and the eigenvector data
is lifted to exact cyclotomic values through discrete logarithms
against a fixed primitive root.  No numerical linear algebra is involved.

Row order is canonical: by degree, then lexicographically on the
serialized values, so multiplicity vectors are stable across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import isqrt, lcm
import operator

from .cyclonum import Cyclotomic, from_rational, prime_divisors
from .cyclonum import zeta  # noqa: F401  (traced by perfbench/bench_trace.py)
from .permcore import (
    CapExceeded,
    CertificateError,
    PermGroup,
    _left,
    class_partition,
    identity,
    inverse,
    is_prime,
    mul,
    perm_order,
)

SIZE_CAP = 10**4
CLASS_COUNT_CAP = 300


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters of S: rows = characters, columns = classes."""

    group: PermGroup
    classes: tuple  # ConjClass, canonical order (identity first)
    chars: tuple  # tuple of rows, each a tuple of Cyclotomic
    degrees: tuple  # chars[i][0] as plain integers
    exponent: int
    power_class: tuple  # power_class[j][t]: class index of x^t, x in class j, 0 <= t < ord x

    @property
    def class_count(self):
        return len(self.classes)

    @property
    def irr_count(self):
        return len(self.chars)

    @cached_property
    def trivial_index(self):
        one = from_rational(1)
        for i, row in enumerate(self.chars):
            if all(v == one for v in row):
                return i
        raise CertificateError("no trivial character")

    def trivial_vector(self):
        v = [0] * self.irr_count
        v[self.trivial_index] = 1
        return tuple(v)

    def regular_vector(self):
        """Multiplicities of the regular representation: the degrees."""
        return tuple(self.degrees)

    def dimension_of(self, mult):
        return sum(m * d for m, d in zip(mult, self.degrees))


def character_table(S: PermGroup) -> CharacterTable:
    if S.order > SIZE_CAP:
        raise CapExceeded(f"group order {S.order} exceeds table cap {SIZE_CAP}")
    classes, lookup = class_partition(S)
    k = len(classes)
    if k > CLASS_COUNT_CAP:
        raise CapExceeded(f"class count {k} exceeds table cap {CLASS_COUNT_CAP}")
    reps = [c.representative for c in classes]
    sizes = [c.size for c in classes]
    exponent = lcm(*(c.element_order for c in classes))

    ell = _dixon_prime(exponent, S.order)
    class_elements = _class_elements(lookup, k)
    inv_class = [lookup[inverse(r)] for r in reps]

    omegas = _split_eigenvectors(class_elements, reps, lookup, ell)
    if len(omegas) != k:
        raise CertificateError(f"found {len(omegas)} common eigenvectors for {k} classes")

    g = _primitive_root(ell)
    z_e = pow(g, (ell - 1) // exponent, ell)
    inv_sizes = [pow(s % ell, ell - 2, ell) for s in sizes]
    order_of = [c.element_order for c in classes]
    power_class = []
    for r, o in zip(reps, order_of):
        row, q = [], identity(S.degree)
        for _ in range(o):
            row.append(lookup[q])
            q = mul(q, r)
        power_class.append(tuple(row))

    # per element order o: the inverse Fourier matrix [z^(-m*t) / o] mod ell, z = zeta_o
    fourier = {}
    for o in set(order_of):
        z, inv_o = [pow(z_e, exponent // o * t, ell) for t in range(o)], pow(o, ell - 2, ell)
        fourier[o] = [[z[-m * t % o] * inv_o % ell for t in range(o)] for m in range(o)]
    # chi(x), x of order o, is fixed by chis = chi mod ell at x^0, ..., x^(o-1),
    # so each distinct chis is lifted, certified and printed once per table
    values = {}
    rows = []
    for v in omegas:
        inv_v0 = pow(v[0], ell - 2, ell)
        v = [x * inv_v0 % ell for x in v]
        s = sum(v[j] * v[inv_class[j]] * inv_sizes[j] for j in range(k)) % ell
        rhs = S.order * pow(s, ell - 2, ell) % ell
        degree = next(d for d in range(1, isqrt(S.order) + 1) if d * d % ell == rhs)
        chi_mod = [degree * v[j] * inv_sizes[j] % ell for j in range(k)]
        row = []
        for j in range(k):
            chis = tuple(map(chi_mod.__getitem__, power_class[j]))
            if chis not in values:
                # mults[m]: multiplicity of zeta_o^m among the eigenvalues at class j;
                # chis[0] = chi(1) is the degree
                mults = [sum(map(operator.mul, chis, f)) % ell for f in fourier[len(chis)]]
                if sum(mults) != chis[0]:
                    raise CertificateError("eigenvalue multiplicities do not sum to the degree")
                value = Cyclotomic(len(chis), mults)
                values[chis] = (value, str(value))
            row.append(values[chis])
        if row[0][0] != degree:
            raise CertificateError(f"lifted degree {row[0][0]} is not {degree}")
        rows.append(row)

    if sum(r[0][0].rational_value() ** 2 for r in rows) != S.order:
        raise CertificateError(f"squared degrees do not sum to |S| = {S.order}")
    rows.sort(key=lambda r: (r[0][0].rational_value(), tuple(text for _, text in r)))
    rows = [tuple(value for value, _ in r) for r in rows]
    return CharacterTable(
        group=S,
        classes=tuple(classes),
        chars=tuple(rows),
        degrees=tuple(int(r[0].rational_value()) for r in rows),
        exponent=exponent,
        power_class=tuple(power_class),
    )


# ------------------------------------------------------------ internals


def _class_elements(lookup, k):
    out = [[] for _ in range(k)]
    for x in sorted(lookup):
        out[lookup[x]].append(x)
    return out


def _dixon_prime(exponent, order):
    bound = 2 * isqrt(order)
    ell = exponent + 1
    while not (is_prime(ell) and ell > bound):
        ell += exponent
    return ell


def _primitive_root(ell):
    factors = prime_divisors(ell - 1)
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // f, ell) != 1 for f in factors):
            return g
    raise CertificateError(f"no primitive root mod {ell}")


def _rref_mod(rows, ell):
    """Reduced row echelon form mod ell; returns (rows, pivot_cols)."""
    rows = [[x % ell for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # rows r, r+1, ... are zero left of column c, so only columns c, c+1, ... change
        inv = pow(rows[r][c], ell - 2, ell)
        pivot_row = rows[r][c:] = [x * inv % ell for x in rows[r][c:]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i][c:] = [(x - f * y) % ell for x, y in zip(rows[i][c:], pivot_row)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _nullspace_mod(M, ell):
    """(basis, free columns): a basis of {y : M*y = 0 mod ell} for square
    M, one vector per free column fc of the RREF R of M (1 there, 0 at
    the other free columns), y[p_i] = -R[i][fc] at the pivot column p_i
    of row i.  The basis is the identity at the free columns, so it
    needs no echelon form of its own."""
    n = len(M)
    rref, pivots = _rref_mod(M, ell)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        y = [int(c == fc) for c in range(n)]
        for row, pc in zip(rref, pivots):
            y[pc] = -row[fc] % ell
        basis.append(y)
    return basis, free


def _combination(coeffs, rows, ell):
    """sum_t coeffs[t] * rows[t] mod ell."""
    vec = None
    for c, row in zip(coeffs, rows):
        if c:
            vec = [c * x for x in row] if vec is None else [v + c * x for v, x in zip(vec, row)]
    return [v % ell for v in vec] if vec else [0] * len(rows[0])


def _class_matrix(elements, reps, lookup):
    """Class matrix (A_i)[j][m] = #{x in C_i : x^-1 z_m in C_j} of the
    class C_i = `elements`, as the nonzero (j, count) pairs of each column m."""
    products = [_left(inverse(x)) for x in elements]
    return [tuple(Counter(lookup[y_times(z)] for y_times in products).items()) for z in reps]


def _charpoly_mod(M, ell):
    """Coefficients of det(xI - M) mod ell, leading term first, for square M:
    a Hessenberg form H of M by similarity, then the leading principal minors
    p_m of xI - H by the Hessenberg recurrence; O(n^3).  With h = H, 1-based,
    p_m = (x - h_mm) p_(m-1) - sum_i h_(m-i,m) h_(m,m-1) ... h_(m-i+1,m-i) p_(m-i-1)."""
    n = len(M)
    H = [[x % ell for x in row] for row in M]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        H[piv], H[j + 1] = H[j + 1], H[piv]
        for row in H:
            row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], ell - 2, ell)
        for i in range(j + 2, n):
            u = H[i][j] * inv % ell
            if u:  # row i -= u * row j+1, then column j+1 += u * column i
                H[i] = [(a - u * b) % ell for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + u * row[i]) % ell
    p = [[1]]
    for m in range(1, n + 1):
        q = [a - H[m - 1][m - 1] * b for a, b in zip(p[m - 1] + [0], [0] + p[m - 1])]
        sub = 1
        for i in range(1, m):
            sub = sub * H[m - i][m - i - 1] % ell
            if not sub:
                break
            f = H[m - 1 - i][m - 1] * sub
            q[i + 1:] = [a - f * b for a, b in zip(q[i + 1:], p[m - 1 - i])]
        p.append([c % ell for c in q])
    return p[n]


def _derive(tables, derived, idx, A, ell):
    """Record class idx, with A = `_class_matrix` of it, as processed, and
    grow `derived`: classes whose sums lie in the F_ell-algebra that the
    processed class sums generate.  A holds the structure constants,
    K_idx * K_j = sum_m n * K_m over the (j, n) pairs of its column m;
    `tables` keeps each processed A transposed.  If K_i * K_j, i processed
    and j derived, has exactly one class m outside `derived` with
    n != 0 mod ell, then K_m = (K_i * K_j - derived terms) / n joins."""
    table = [[] for _ in A]
    for m, col in enumerate(A):
        for j, n in col:
            table[j].append((m, n))
    tables.append(table)
    todo = [(table, j) for j in derived] + [(t, idx) for t in tables]
    derived.add(idx)
    while todo:
        t, j = todo.pop()
        unknown = [m for m, n in t[j] if n % ell and m not in derived]
        if len(unknown) == 1:
            derived.add(unknown[0])
            todo += [(u, unknown[0]) for u in tables]


def _split_eigenvectors(class_elements, reps, lookup, ell):
    """Common eigenvectors of the class matrices over F_ell, each scaled
    to a leading 1.

    Each eigenspace is kept as basis rows that are the identity at its
    pivot columns.  The split starts from the joint eigenspaces of the
    central classes, in closed form.  A central class {z} that `_derive`
    does not yet place in the algebra maps class m to sigma(m), the class
    of z^-1 z_m.  An orbit O of these sigmas, least class c, carries |O|
    eigenvectors w, w[c] = 1, mu * w[sigma(m)] = w[m]: a new sigma of
    order o joins O, sigma(O), ..., sigma^(t-1)(O), t least with
    sigma^t(c) in O, and sets w[sigma^s(m)] = mu^-s w[m] for each mu^o = 1
    with mu^t = 1 / w[sigma^t(c)].  Certified: sigma permutes, every edge
    holds, and each O has |O| vectors; their eigenvalue tuples differ, so
    they span F_ell^O.  Grouped by tuple, they have disjoint supports and
    are 1 at their orbits' least classes, their pivots.

    Then a class matrix is built only when the split reaches it, and
    restricted to every eigenspace of dimension > 1.  A class that
    `_derive` puts in the algebra generated by the class sums already
    processed is skipped unbuilt: it is a polynomial in matrices certified
    to preserve every eigenspace, each acting on each as a scalar, so it
    could split nothing.  A scalar restriction keeps the whole eigenspace,
    in the same rows.  Otherwise the eigenvalues are the roots in F_ell of
    the restriction's characteristic polynomial, and each root's
    eigenspace is one nullspace; its basis is the identity at the pivots
    of the nullspace's free columns.
    """
    k = len(reps)
    tables, derived = [], {0}
    least = list(range(k))  # least class of each class's orbit
    orbits = {c: ([c], [((), [1])]) for c in range(k)}  # c: (classes, [(mus, w on them)])
    sigmas = []
    for idx in range(1, k):
        if len(class_elements[idx]) != 1 or idx in derived:
            continue
        A = _class_matrix(class_elements[idx], reps, lookup)
        sigma = [j for [(j, _)] in A]
        if sorted(sigma) != list(range(k)):
            raise CertificateError(f"central class matrix {idx} is not a permutation")
        o = perm_order(reps[idx])
        roots = [mu for mu in range(1, ell) if pow(mu, o, ell) == 1]
        grown = {}
        for c, (members, vecs) in orbits.items():
            if least[c] == c:
                layers = [members]
                while least[sigma[layers[-1][0]]] != c:
                    layers.append([sigma[m] for m in layers[-1]])
                t, at = len(layers), members.index(sigma[layers[-1][0]])
                grown[c] = (sum(layers, []), [
                    (mus + (mu,), [f * x % ell for f in [pow(mu, -s, ell) for s in range(t)] for x in w])
                    for mus, w in vecs for mu in roots if pow(mu, t, ell) * w[at] % ell == 1])
                for m in grown[c][0]:
                    least[m] = c
        orbits, sigmas = grown, sigmas + [sigma]
        _derive(tables, derived, idx, A, ell)
    groups = {}
    for c, (members, vecs) in orbits.items():
        if len(vecs) != len(members):
            raise CertificateError(f"{len(vecs)} central eigenvectors on an orbit of {len(members)} classes")
        for mus, w in vecs:
            w = dict(zip(members, w))
            if any(mu * w.get(sigma[m], 0) % ell != x for sigma, mu in zip(sigmas, mus) for m, x in w.items()):
                raise CertificateError("a central eigenvector fails an edge equation")
            groups.setdefault(mus, []).append(([w.get(m, 0) for m in range(k)], c))
    spaces = [list(zip(*group)) for group in groups.values()]
    for idx in range(1, k):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        if idx in derived:
            continue
        A = _class_matrix(class_elements[idx], reps, lookup)
        new_spaces = []
        for rows, pivots in spaces:
            dim = len(rows)
            if dim == 1:
                new_spaces.append((rows, pivots))
                continue
            # restriction X: A * b_t = sum_s X[t][s] * b_s
            X = []
            for b in rows:
                img = [0] * k
                for x, col in zip(b, A):
                    if x:
                        for r, a in col:
                            img[r] += a * x
                img = [y % ell for y in img]
                coords = [img[pc] for pc in pivots]
                if _combination(coords, rows, ell) != img:
                    raise CertificateError(f"class matrix {idx} does not preserve an eigenspace")
                X.append(coords)
            if X == [[X[0][0] if t == s else 0 for s in range(dim)] for t in range(dim)]:
                new_spaces.append((rows, pivots))
                continue
            # the left eigenvectors of X for a root lam span the nullspace of X^T - lam*I
            values = [0] * ell  # Horner, at every lam in F_ell at once
            for c in _charpoly_mod(X, ell):
                values = [(v * lam + c) % ell for lam, v in enumerate(values)]
            Xt = [list(col) for col in zip(*X)]
            for lam in (lam for lam, v in enumerate(values) if not v):
                shifted = [row[:t] + [(row[t] - lam) % ell] + row[t + 1:]
                           for t, row in enumerate(Xt)]
                ys, free = _nullspace_mod(shifted, ell)
                if not ys:
                    raise CertificateError(f"root {lam} of a restriction has no eigenvector")
                # a k-dim eigenspace is all of F_ell^k, with the identity as its basis
                basis = ys if dim == k else [_combination(y, rows, ell) for y in ys]
                new_spaces.append((basis, [pivots[f] for f in free]))
        spaces = new_spaces
        _derive(tables, derived, idx, A, ell)
    if any(len(rows) != 1 for rows, _ in spaces):
        raise CertificateError("class matrices do not split F_ell^k into lines")
    lines = []
    for [v], _ in spaces:
        inv = pow(next(x for x in v if x), ell - 2, ell)
        lines.append([x * inv % ell for x in v])
    return sorted(lines)
