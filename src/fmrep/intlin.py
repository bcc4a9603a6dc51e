"""Exact integer linear algebra: row Hermite normal form, integer
kernels and integer solvability, and fraction-free (Bareiss) rank,
determinant and adjugate.  Every elimination stays in Z; no rational
arithmetic is needed.

Matrices are lists of lists of Python ints (arbitrary precision), never
mutated by these functions.  Lattices are always handed around as
canonical HNF bases so that lattice equality is matrix equality.

HNF convention (row-style): U * A = H with U unimodular; pivots are
positive, entries above a pivot are reduced into [0, pivot), zero rows
sit at the bottom.
"""

from __future__ import annotations


def hermite_normal_form(A):
    """Return (H, U) with U unimodular and U*A = H in canonical row HNF.

    Pivot selection inside a column picks the entry of least absolute
    value, which keeps intermediate growth moderate.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        while True:
            rows = [i for i in range(r, m) if H[i][c]]
            if not rows:
                break
            piv = min(rows, key=lambda i: (abs(H[i][c]), i))
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            if len(rows) == 1:
                break
            for i in range(r + 1, m):
                if H[i][c]:
                    q = H[i][c] // H[r][c]
                    if q:
                        _row_sub(H[i], H[r], q)
                        _row_sub(U[i], U[r], q)
        if H[r][c] if r < m else 0:
            if H[r][c] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            for i in range(r):
                q = H[i][c] // H[r][c]
                if q:
                    _row_sub(H[i], H[r], q)
                    _row_sub(U[i], U[r], q)
            r += 1
            if r == m:
                break
    return H, U


def _row_sub(row, other, q):
    for j in range(len(row)):
        row[j] -= q * other[j]


def nonzero_rows(H):
    return [row for row in H if any(row)]


def integer_kernel(A):
    """Canonical HNF basis of the left kernel {x in Z^m : x*A = 0}.

    The basis spans the full (saturated) kernel lattice: any integer
    vector annihilating A is an integer combination of the rows.
    """
    H, U = hermite_normal_form(A)
    rows = [U[i] for i in range(len(H)) if not any(H[i])]
    if not rows:
        return []
    K, _ = hermite_normal_form(rows)
    return nonzero_rows(K)


def solve_integer(A, b):
    """Some integer x with x*A = b, or None when no such x exists."""
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != n:
        raise ValueError("dimension mismatch")
    H, U = hermite_normal_form(A)
    residual = list(b)
    coeff = [0] * m
    for i in range(m):
        piv = next((c for c in range(n) if H[i][c]), None)
        if piv is None:
            break
        q, rem = divmod(residual[piv], H[i][piv])
        if rem:
            return None
        if q:
            coeff[i] = q
            _row_sub(residual, H[i], q)
    if any(residual):
        return None
    x = [0] * m
    for i, q in enumerate(coeff):
        if q:
            for j in range(m):
                x[j] += q * U[i][j]
    return x


def lattice_contains(basis_rows, v):
    """Whether v lies in the integer row span of basis_rows."""
    if not basis_rows:
        return not any(v)
    return solve_integer(basis_rows, v) is not None


def _echelon(A):
    """Fraction-free (Bareiss) row echelon of A.

    Returns (rank, sign, pivot): the sign of the row permutation used
    and the last pivot, which is the determinant of the row-permuted
    leading rank x rank minor on the pivot columns.  Every division is
    exact by Sylvester's identity (Bareiss, Math. Comp. 22, 1968).
    """
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


def rank(A):
    """Rank over Q, computed exactly."""
    return _echelon(A)[0]


def det(A):
    """Determinant of a square integer matrix."""
    n = len(A)
    r, sign, pivot = _echelon(A)
    return sign * pivot if r == n else 0


def adjugate(A):
    """(d, adj) with d = det A and adj * A = A * adj = d * I.

    Fraction-free Gauss-Jordan on [A | I] ends at [e * I | E] with
    E * A = e * I, where e = +-d by the parity of the row swaps, so +-E
    is the adjugate.  A singular A gives d = 0 and the zero matrix.
    """
    n = len(A)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c]), None)
        if piv is None:
            return 0, [[0] * n for _ in range(n)]
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        top = M[c]
        p = top[c]
        for i in range(n):
            f = M[i][c]
            if i != c and (f or p != prev):  # else the update leaves the row as it is
                M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], top)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in M]
