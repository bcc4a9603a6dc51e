"""Exact irreducible character tables of small groups.

The table is computed by Dixon's method: the class-multiplication
matrices are simultaneously diagonalized over a prime field F_l with
l = 1 (mod exponent) and l > 2*sqrt(|S|), and the eigenvector data is
lifted to exact cyclotomic values through discrete logarithms against a
fixed primitive root.  No numerical linear algebra is involved.

Row order is canonical: by degree, then lexicographically on the
serialized values, so multiplicity vectors are stable across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt, lcm

from .cyclonum import Cyclotomic, from_rational, prime_divisors
from .cyclonum import zeta  # noqa: F401  (traced by perfbench/bench_trace.py)
from .permcore import (
    CapExceeded,
    CertificateError,
    PermGroup,
    class_partition,
    identity,
    inverse,
    is_prime,
    mul,
)

SIZE_CAP = 10**4


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

    @property
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
    reps = [c.representative for c in classes]
    sizes = [c.size for c in classes]
    exponent = 1
    for c in classes:
        exponent = lcm(exponent, c.element_order)

    ell = _dixon_prime(exponent, S.order)
    class_elements = _class_elements(S, lookup, k)
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

    # per element order o: the powers of a primitive o-th root of unity mod ell, and 1/o
    roots = {
        o: ([pow(z_e, exponent // o * t, ell) for t in range(o)], pow(o, ell - 2, ell))
        for o in set(order_of)
    }
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
            o = order_of[j]
            z_o, inv_o = roots[o]
            # mults[m]: multiplicity of zeta_o^m among the eigenvalues at class j
            mults = [
                sum(chi_mod[c] * z_o[-m * t % o] for t, c in enumerate(power_class[j])) * inv_o % ell
                for m in range(o)
            ]
            if max(mults) > degree:
                raise CertificateError("eigenvalue multiplicity lift out of range")
            if sum(mults) != degree:
                raise CertificateError("eigenvalue multiplicities do not sum to the degree")
            row.append(Cyclotomic(o, mults))
        if row[0] != degree:
            raise CertificateError(f"lifted degree {row[0]} is not {degree}")
        rows.append(row)

    if sum(r[0].rational_value() ** 2 for r in rows) != S.order:
        raise CertificateError(f"squared degrees do not sum to |S| = {S.order}")
    rows.sort(key=lambda r: (r[0].rational_value(), tuple(str(v) for v in r)))
    table = CharacterTable(
        group=S,
        classes=tuple(classes),
        chars=tuple(tuple(r) for r in rows),
        degrees=tuple(int(r[0].rational_value()) for r in rows),
        exponent=exponent,
        power_class=tuple(power_class),
    )
    return table


# ------------------------------------------------------------ internals


def _class_elements(S, lookup, k):
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
    raise AssertionError


def _rref_mod(rows, ell):
    """Reduced row echelon form mod ell; returns (rows, pivot_cols)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % ell), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], ell - 2, ell)
        rows[r] = [x * inv % ell for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % ell:
                f = rows[i][c]
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _nullspace_mod(M, ell):
    """Basis of {y : M*y = 0 mod ell} for square M, via RREF of M."""
    n = len(M)
    rref, pivots = _rref_mod(M, ell)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        y = [0] * n
        y[fc] = 1
        for row, pc in zip(rref, pivots):
            y[pc] = (-row[fc]) % ell
        basis.append(y)
    return basis


def _combination(coeffs, rows, ell):
    """sum_t coeffs[t] * rows[t] mod ell."""
    vec = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            vec = [v + c * x for v, x in zip(vec, row)]
    return [v % ell for v in vec]


def _class_matrix(elements, reps, lookup):
    """Class matrix (A_i)[j][m] = #{x in C_i : x^-1 z_m in C_j} of the
    class C_i = `elements`, as the nonzero (j, count) pairs of each column m."""
    inverses = [inverse(x) for x in elements]
    return [tuple(Counter(lookup[mul(y, z)] for y in inverses).items()) for z in reps]


def _split_eigenvectors(class_elements, reps, lookup, ell):
    """Common eigenvectors (up to scale) of the class matrices over F_ell.

    Each eigenspace is kept as RREF rows with their pivot columns.  A
    class matrix is built only when the split reaches it, and restricted
    to every eigenspace of dimension > 1; the eigenspace is split by the
    lambda scan only when that restriction is not scalar, since a scalar
    restriction has the whole eigenspace, in the same RREF rows, as its
    one eigenspace.
    """
    k = len(reps)
    full = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    spaces = [(_rref_mod(full, ell))]
    for idx in range(1, k):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
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
            # the left eigenvectors of X for lam span the nullspace of X^T - lam*I
            Xt = [list(col) for col in zip(*X)]
            for lam in range(ell):
                shifted = [
                    row[:t] + [(row[t] - lam) % ell] + row[t + 1:] for t, row in enumerate(Xt)
                ]
                ys = _nullspace_mod(shifted, ell)
                if not ys:
                    continue
                new_spaces.append(_rref_mod([_combination(y, rows, ell) for y in ys], ell))
        spaces = new_spaces
    if any(len(rows) != 1 for rows, _ in spaces):
        raise CertificateError("class matrices do not split F_ell^k into lines")
    return sorted(rows[0] for rows, _ in spaces)
