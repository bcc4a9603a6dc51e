"""Exact integer linear algebra: one forward echelon that serves the
row Hermite normal form (HNF), integer kernels and integer solvability,
and one fraction-free (Bareiss) Gauss-Jordan loop for pivot columns,
rank, determinant and adjugate.  Every elimination stays in Z.

Matrices are lists of lists of Python ints (arbitrary precision), never
mutated by these functions.  Lattices are always handed around as
canonical HNF bases so that lattice equality is matrix equality.

HNF convention (row-style): pivots are positive, entries above a pivot
are reduced into [0, pivot), zero rows sit at the bottom.  The kernel
and the solver read a forward echelon of [A | I], whose right block
does the transform's work; a row operation walks only the nonzero
entries of the row it subtracts."""

from __future__ import annotations


def _echelon(H, n):
    """Reduce H in place to a row echelon form on its first n columns and
    return the pivot columns; rows below them are zero there.  Each
    column's pivot is its entry of least absolute value, which keeps
    intermediate growth moderate.  Forward only: nothing above a pivot
    is touched."""
    m = len(H)
    pivots = []
    for c in range(n):
        r = len(pivots)
        while True:
            rows = [i for i in range(r, m) if H[i][c]]
            if not rows:
                break
            piv = min(rows, key=lambda i: (abs(H[i][c]), i))
            H[r], H[piv] = H[piv], H[r]
            if len(rows) == 1:
                pivots.append(c)
                break
            p, support = H[r][c], _support(H[r])
            for i in rows:
                if i != r and H[i][c]:  # |H[i][c]| >= |p|, so the quotient is nonzero
                    _row_sub(H[i], support, H[i][c] // p)
    return pivots


def _support(row):
    """The (column, entry) pairs of row's nonzero entries."""
    return [(j, x) for j, x in enumerate(row) if x]


def _row_sub(row, support, q):
    """row -= q * other, where support lists other's nonzero entries."""
    for j, x in support:
        row[j] -= q * x


def hermite_normal_form(A):
    """The canonical row HNF of A, with as many rows as A: the forward
    echelon, then each pivot made positive and the entries above it
    reduced, column by column."""
    H = [list(row) for row in A]
    for r, c in enumerate(_echelon(H, len(H[0]) if H else 0)):
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
        support = _support(H[r])
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                _row_sub(H[i], support, q)
    return H


def _with_identity(A):
    """[A | I]: row operations on it keep u * A = h in each row (h | u)."""
    return [list(row) + [int(i == j) for j in range(len(A))] for i, row in enumerate(A)]


def integer_kernel(A):
    """Canonical HNF basis of the left kernel {x in Z^m : x*A = 0}, which
    it spans over Z: the right blocks of the rows of a forward echelon
    of [A | I] whose A-part is zero, put into HNF.  The pivot rows are
    never back-reduced."""
    n = len(A[0]) if A else 0
    H = _with_identity(A)
    rank = len(_echelon(H, n))
    return hermite_normal_form([row[n:] for row in H[rank:]])


def solve_integer(A, b):
    """Some integer x with x*A = b, or None when no such x exists."""
    m = len(A)
    n = len(A[0]) if m else 0
    if len(b) != n:
        raise ValueError("dimension mismatch")
    # reducing (b | 0) by the rows (h | u) of an echelon of [A | I] leaves (b - x*A | -x)
    M = _with_identity(A)
    _echelon(M, n)
    residual = list(b) + [0] * m
    if not _reduce(M, residual, n) or any(residual[:n]):
        return None
    return [-y for y in residual[n:]]


def lattice_contains(hnf_rows, v):
    """Whether v lies in the integer row span of hnf_rows, a row echelon
    basis such as `hermite_normal_form` returns."""
    residual = list(v)
    return _reduce(hnf_rows, residual, len(residual)) and not any(residual)


def _reduce(rows, residual, n):
    """Subtract from `residual`, in place, the multiple of each echelon row
    that clears it at the row's pivot, its first nonzero among the first
    n columns; stop at a row with none.  False when a pivot does not
    divide the residual there, so it is outside the rows' span."""
    for row in rows:
        piv = next((c for c in range(n) if row[c]), None)
        if piv is None:
            break
        q, rem = divmod(residual[piv], row[piv])
        if rem:
            return False
        if q:
            _row_sub(residual, _support(row), q)
    return True


def _bareiss(M):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of M, in place.

    Returns (pivots, sign, pivot): the pivot columns, the sign of the
    row permutation used and the last pivot, which is the determinant
    of the row-permuted leading rank x rank minor on the pivot columns.
    Every division is exact by Sylvester's identity (Bareiss, Math.
    Comp. 22, 1968).
    """
    m = len(M)
    n = len(M[0]) if m else 0
    pivots, sign, prev = [], 1, 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        top = M[r]
        p = top[c]
        for i in range(m):
            f = M[i][c]
            if i != r and (f or p != prev):  # else the update leaves the row as it is
                M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], top)]
        pivots.append(c)
        prev = p
        if r + 1 == m:
            break
    return pivots, sign, prev


def pivot_columns(A):
    """The first independent columns of A, in order: each is the first
    column outside the span of the ones before it."""
    return _bareiss([list(row) for row in A])[0]


def rank(A):
    """Rank over Q, computed exactly."""
    return len(pivot_columns(A))


def det(A):
    """Determinant of a square integer matrix."""
    pivots, sign, pivot = _bareiss([list(row) for row in A])
    return sign * pivot if len(pivots) == len(A) else 0


def adjugate(A):
    """(d, adj) with d = det A and adj * A = A * adj = d * I.

    Fraction-free Gauss-Jordan on [A | I] ends at [e * I | E] with
    E * A = e * I, where e = +-d by the parity of the row swaps, so +-E
    is the adjugate.  A singular A gives d = 0 and the zero matrix.
    """
    n = len(A)
    M = _with_identity(A)
    pivots, sign, pivot = _bareiss(M)
    if pivots != list(range(n)):
        return 0, [[0] * n for _ in range(n)]
    return sign * pivot, [[sign * x for x in row[n:]] for row in M]
