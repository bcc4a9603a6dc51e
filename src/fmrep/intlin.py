"""Exact integer linear algebra: one forward echelon serves the row
Hermite normal form (HNF), integer kernels, integer solvability, pivot
columns, rank, determinant and adjugate.  Every elimination stays in Z.

Matrices are lists of lists of Python ints (arbitrary precision), never
mutated by these functions.  Lattices are always handed around as
canonical HNF bases so that lattice equality is matrix equality.

HNF convention (row-style): pivots are positive, entries above a pivot
are reduced into [0, pivot), zero rows sit at the bottom.  The kernel,
the solver and the adjugate read a forward echelon of [A | I], whose
right block does the transform's work; a row operation walks only the
nonzero entries of the row it subtracts."""

from __future__ import annotations

from math import prod


def _echelon(H, n):
    """Reduce H in place to a row echelon form on its first n columns and
    return (pivots, sign): the pivot columns, below which the rows are
    zero there, and the sign of the row permutation used.  Each column's
    pivot is its entry of least absolute value, which keeps intermediate
    growth moderate.  Forward only: nothing above a pivot is touched."""
    m = len(H)
    pivots, sign = [], 1
    for c in range(n):
        r = len(pivots)
        while True:
            rows = [i for i in range(r, m) if H[i][c]]
            if not rows:
                break
            piv = min(rows, key=lambda i: (abs(H[i][c]), i))
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                sign = -sign
            if len(rows) == 1:
                pivots.append(c)
                break
            p, support = H[r][c], _support(H[r])
            for i in rows:
                if i != r and H[i][c]:  # |H[i][c]| >= |p|, so the quotient is nonzero
                    _row_sub(H[i], support, H[i][c] // p)
    return pivots, sign


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
    for r, c in enumerate(_echelon(H, len(H[0]) if H else 0)[0]):
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
    return [list(row) + [0] * i + [1] + [0] * (len(A) - 1 - i) for i, row in enumerate(A)]


def integer_kernel(A):
    """Canonical HNF basis of the left kernel {x in Z^m : x*A = 0}, which
    it spans over Z: the right blocks of the rows of a forward echelon
    of [A | I] whose A-part is zero, put into HNF.  The pivot rows are
    never back-reduced."""
    n = len(A[0]) if A else 0
    H = _with_identity(A)
    rank = len(_echelon(H, n)[0])
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


def pivot_columns(A):
    """The first independent columns of A, in order: each is the first
    column outside the span of the ones before it."""
    return _echelon([list(row) for row in A], len(A[0]) if A else 0)[0]


def rank(A):
    """Rank over Q, computed exactly."""
    return len(pivot_columns(A))


def det(A):
    """Determinant of a square integer matrix: the sign of the echelon's
    row permutation times its diagonal, which holds a zero when A is
    singular.  The pipeline does not call it; it stays because
    perfbench/bench_trace.py wraps it by name and the tests use it."""
    H = [list(row) for row in A]
    sign = _echelon(H, len(H))[1]
    return sign * prod(H[i][i] for i in range(len(H)))


def adjugate(A):
    """(d, adj) with d = det A and adj * A = A * adj = d * I.

    The echelon of [A | I] is [H | U] with U * A = H upper triangular
    and det U the sign of its row permutation, so d is that sign times
    H's diagonal.  A singular A gives d = 0 and the zero matrix; else
    adj = d * A^-1 solves H * adj = d * U, which back substitution reads
    off row by row, each division exact since adj is integral.
    """
    n = len(A)
    M = _with_identity(A)
    d = _echelon(M, n)[1] * prod(M[i][i] for i in range(n))
    if not d:
        return 0, [[0] * n for _ in range(n)]
    adj, supports = [None] * n, [None] * n
    for j in reversed(range(n)):
        h = M[j]
        row = [d * u for u in h[n:]]
        for k in range(j + 1, n):
            if h[k]:
                _row_sub(row, supports[k], h[k])
        adj[j] = row if h[j] == 1 else [x // h[j] for x in row]
        supports[j] = _support(adj[j])
    return d, adj
