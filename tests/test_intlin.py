import random

from fmrep import intlin
from fmrep.chartab import character_table
from fmrep.fusion import fusion_from_partition
from fmrep.intlin import (
    adjugate,
    det,
    hermite_normal_form,
    integer_kernel,
    lattice_contains,
    pivot_columns,
    rank,
    solve_integer,
)
from fmrep.repring import difference_matrix

from .groups_zoo import sylow_products
from .oracles import echelon, is_unimodular, lattices_equal, transform_hermite_normal_form, two_hnf_kernel


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def random_matrix(rng, m, n, span=9):
    return [[rng.randrange(-span, span + 1) for _ in range(n)] for _ in range(m)]


def random_unimodular(rng, m):
    # product of elementary row operations
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(m):
            U[i][k] += c * U[j][k]
    return U


def hnf_with_transform(A):
    """(H, U) read off the HNF of [A | I]: H = HNF(A) and U * A = H."""
    n = len(A[0])
    HU = hermite_normal_form([list(row) + [int(i == j) for j in range(len(A))] for i, row in enumerate(A)])
    H = [row[:n] for row in HU]
    assert H == hermite_normal_form(A)
    return H, [row[n:] for row in HU]


def test_hnf_identity():
    H, U = hnf_with_transform([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]]
    assert U == [[1, 0], [0, 1]]


def test_hnf_rank_one_example():
    H, U = hnf_with_transform([[2, 4], [1, 2]])
    assert H == [[1, 2], [0, 0]]
    assert is_unimodular(U)


def test_hnf_canonical_shape():
    rng = random.Random(17)
    for _ in range(150):
        A = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 11))
        H, U = hnf_with_transform(A)
        assert mat_mul(U, A) == H
        assert is_unimodular(U)
        pivots = []
        rows = [row for row in H if any(row)]
        for row in rows:
            c = next(j for j, x in enumerate(row) if x)
            assert row[c] > 0
            pivots.append((c, row[c]))
        assert [c for c, _ in pivots] == sorted(c for c, _ in pivots)
        for i, (c, p) in enumerate(pivots):
            for above in rows[:i]:
                assert 0 <= above[c] < p


def test_hnf_unimodular_invariance():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randrange(1, 6), rng.randrange(1, 8)
        A = random_matrix(rng, m, n)
        P = random_unimodular(rng, m)
        assert lattices_equal(A, mat_mul(P, A))


def test_kernel_of_zero_matrix():
    K = integer_kernel([[0, 0], [0, 0], [0, 0]])
    assert K == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_simple_example():
    assert integer_kernel([[1], [1]]) == [[1, -1]]


def test_kernel_properties_random():
    rng = random.Random(29)
    for _ in range(120):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        A = random_matrix(rng, m, n)
        K = integer_kernel(A)
        assert len(K) == m - rank(A)
        assert rank(A) == rank([list(col) for col in zip(*A)])
        for row in K:
            assert all(
                sum(row[k] * A[k][j] for k in range(m)) == 0 for j in range(n)
            )
        # saturation: random kernel vectors solve over the basis
        if K:
            v = [0] * m
            for row in K:
                c = rng.randrange(-4, 5)
                v = [x + c * y for x, y in zip(v, row)]
            assert solve_integer(K, v) is not None


def test_solve_trivial_and_parity():
    assert solve_integer([[2, 0], [0, 3]], [0, 0]) == [0, 0]
    assert solve_integer([[2]], [1]) is None
    x = solve_integer([[2]], [6])
    assert x == [3]


def test_solve_random_consistency():
    rng = random.Random(31)
    for _ in range(120):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        A = random_matrix(rng, m, n)
        y = [rng.randrange(-4, 5) for _ in range(m)]
        b = [sum(y[k] * A[k][j] for k in range(m)) for j in range(n)]
        x = solve_integer(A, b)
        assert x is not None
        assert [sum(x[k] * A[k][j] for k in range(m)) for j in range(n)] == b
        assert lattice_contains(hermite_normal_form(A), b)


def test_solve_unsolvable():
    assert solve_integer([[2, 0], [0, 2]], [1, 1]) is None
    assert not lattice_contains([[2, 0], [0, 2]], [1, 1])


def test_lattice_contains_matches_solve_integer_on_hnf_bases():
    """Membership read off an HNF basis equals the solvability of x*H = v,
    for lattice vectors, their perturbations and random vectors."""
    rng = random.Random(97)
    for _ in range(400):
        m, n = rng.randrange(1, 6), rng.randrange(1, 7)
        H = hermite_normal_form(random_matrix(rng, m, n, span=rng.choice([1, 4, 30])))
        y = [rng.randrange(-3, 4) for _ in range(m)]
        in_span = [sum(y[k] * H[k][j] for k in range(m)) for j in range(n)]
        near = [x + (j == rng.randrange(n)) for j, x in enumerate(in_span)]
        for v in (in_span, near, [rng.randrange(-20, 21) for _ in range(n)]):
            assert lattice_contains(H, v) == (solve_integer(H, v) is not None)
        assert lattice_contains(H, in_span)
    assert lattice_contains([], [0, 0]) and not lattice_contains([], [0, 1])


def test_bigint_stress():
    rng = random.Random(37)
    A = [[rng.randrange(-(10**30), 10**30) for _ in range(4)] for _ in range(4)]
    H, U = hnf_with_transform(A)
    assert mat_mul(U, A) == H
    assert is_unimodular(U)
    assert abs(det(A)) == abs(
        H[0][0] * H[1][1] * H[2][2] * H[3][3]
    ) or rank(A) < 4


def test_det_matches_elimination():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randrange(1, 6)
        A = random_matrix(rng, n, n, span=6)
        H = hermite_normal_form(A)
        prod = 1
        for i in range(n):
            prod *= H[i][i] if i < len(H) else 0
        assert abs(det(A)) == abs(prod)


def transpose(A):
    return [list(col) for col in zip(*A)]


def identity_times(d, n):
    return [[d * (i == j) for j in range(n)] for i in range(n)]


def test_adjugate_random():
    rng = random.Random(43)
    singular = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        A = random_matrix(rng, n, n, span=rng.choice([1, 3, 9]))
        if rng.random() < 0.3 and n > 1:
            # a dependent row: the matrix is singular
            A[-1] = [x - 2 * y for x, y in zip(A[0], A[n // 2])]
        d, adj = adjugate(A)
        assert mat_mul(adj, A) == identity_times(d, n)
        assert mat_mul(A, adj) == identity_times(d, n)
        assert abs(d) == abs(det(A))
        assert (d == 0) == (rank(A) < n)
        singular += d == 0
    assert singular > 20


def test_adjugate_bigint():
    rng = random.Random(47)
    A = [[rng.randrange(-(10**30), 10**30) for _ in range(5)] for _ in range(5)]
    d, adj = adjugate(A)
    assert d != 0
    assert abs(d) == abs(det(A))
    assert mat_mul(adj, A) == identity_times(d, 5)
    # the adjugate of the transpose is the transpose of the adjugate
    assert adjugate(transpose(A)) == (d, transpose(adj))


def test_adjugate_small_cases():
    assert adjugate([]) == (1, [])
    assert adjugate([[-3]]) == (-3, [[1]])
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[1, 2], [2, 4]])[0] == 0


def oracle_hnf_basis(A):
    return [row for row in transform_hermite_normal_form(A)[0] if any(row)]


def greedy_pivot_columns(A):
    """Each column that raises the rank of the columns before it."""
    cols = []
    for c in range(len(A[0]) if A else 0):
        if echelon([[row[j] for j in cols + [c]] for row in A])[0] > len(cols):
            cols.append(c)
    return cols


def test_against_the_transform_hnf_and_forward_elimination():
    """2000 seeded random matrices, wide, tall and square, 0-8 rows and
    1-8 columns, entries up to 10^12; a quarter are products through a
    narrower middle (rank-deficient), and a third gain a dependent row.  Kernel, HNF, rank, det, adjugate, pivot columns and integer
    solvability agree with the oracles."""
    rng = random.Random(53)
    square = deficient = solvable = 0
    for _ in range(2000):
        m, n = rng.randrange(0, 9), rng.randrange(1, 9)
        span = rng.choice([1, 3, 30, 10**4, 10**12])
        A = random_matrix(rng, m, n, span=span)
        if m > 1 and n > 1 and rng.random() < 1 / 4:
            k = rng.randrange(1, min(m, n))
            A = mat_mul(random_matrix(rng, m, k, span=3), random_matrix(rng, k, n, span=span))
        if m and rng.random() < 1 / 3:
            i, j = rng.randrange(m), rng.randrange(m)
            A.append([rng.randrange(-3, 4) * x - y for x, y in zip(A[i], A[j])])
            m += 1
        r, sign, pivot = echelon(A)
        deficient += r < min(m, n)
        assert integer_kernel(A) == two_hnf_kernel(A)
        H = transform_hermite_normal_form(A)[0]
        assert hermite_normal_form(A) == H
        assert rank(A) == r
        assert pivot_columns(A) == greedy_pivot_columns(A)
        if m == n:
            square += 1
            d = sign * pivot if r == n else 0
            assert det(A) == d
            assert adjugate(A)[0] == d
            adj = adjugate(A)[1]
            if d:
                assert mat_mul(adj, A) == identity_times(d, n) == mat_mul(A, adj)
            else:
                assert adj == [[0] * n for _ in range(n)]
        if not m:
            continue
        basis = [row for row in H if any(row)]
        y = [rng.randrange(-5, 6) for _ in range(m)]
        for b in ([sum(c * row[j] for c, row in zip(y, A)) for j in range(n)],
                  [rng.randrange(-span, span + 1) for _ in range(n)]):
            x = solve_integer(A, b)
            assert (x is not None) == (oracle_hnf_basis(basis + [b]) == basis)
            if x is not None:
                solvable += 1
                assert [sum(c * row[j] for c, row in zip(x, A)) for j in range(n)] == b
    assert square > 200 and deficient > 300 and solvable > 1000


def difference_like(rng, m, span):
    """An m-row matrix shaped like a difference matrix: up to 4m columns,
    each entry nonzero with one probability in [0.3, 0.6], some columns
    repeated or multiplied by a small integer, and some rows zero or
    integer combinations of others, so the left kernel is nontrivial."""
    density = rng.uniform(0.3, 0.6)
    n = rng.randrange(1, 4 * m + 1)
    cols = [[rng.choice([-1, 1]) * rng.randrange(1, span + 1) if rng.random() < density else 0
             for _ in range(m)] for _ in range(rng.randrange(1, n + 1))]
    while len(cols) < n:
        c = rng.choice([-3, -2, -1, 1, 1, 2, 3])  # repeated (c = 1) and parallel columns
        cols.append([c * x for x in rng.choice(cols)])
    rng.shuffle(cols)
    A = [list(row) for row in zip(*cols)]
    dependent = rng.sample(range(m), rng.randrange(1, m))
    free = [i for i in range(m) if i not in dependent]
    for i in dependent:
        others = [(rng.randrange(-2, 3), rng.choice(free)) for _ in range(rng.randrange(0, 3))]
        A[i] = [sum(c * A[j][k] for c, j in others) for k in range(n)]
    return A


def test_kernel_hnf_and_solver_on_difference_shaped_matrices():
    """Kernel, HNF and integer solvability agree with the transform-HNF
    oracles on 300 seeded difference-shaped matrices (2-12 rows, up to
    4x as many columns, rank-deficient) and on 10 with 70-bit entries."""
    rng = random.Random(59)
    wide = unsolvable = 0
    for trial in range(310):
        m = rng.randrange(2, 13) if trial < 300 else rng.randrange(2, 7)
        A = difference_like(rng, m, span=9 if trial < 300 else 2**70)
        n = len(A[0])
        wide += n > m
        K = integer_kernel(A)
        assert K == two_hnf_kernel(A)
        assert len(K) == m - rank(A) > 0
        H = hermite_normal_form(A)
        assert H == transform_hermite_normal_form(A)[0]
        basis = [row for row in H if any(row)]
        y = [rng.randrange(-5, 6) for _ in range(m)]
        in_span = [sum(c * row[j] for c, row in zip(y, A)) for j in range(n)]
        for b in (in_span, [x + (j == 0) for j, x in enumerate(in_span)]):
            x = solve_integer(A, b)
            assert (x is not None) == (oracle_hnf_basis(basis + [b]) == basis)
            if x is not None:
                assert [sum(c * row[j] for c, row in zip(x, A)) for j in range(n)] == b
            unsolvable += x is None
    assert wide > 200 and unsolvable > 100


def test_kernel_row_operations_touch_only_pivot_supports(monkeypatch):
    """Work guard: the kernel of the k = 100 difference matrix (D8 x C2 x
    D8 x C2, one block per element order, 100 x 97) subtracts rows whose
    supports sum to at most 60,000 entries.  Row operations over whole
    rows of [A | I], back-reduced at every pivot, touched 557,116."""
    [G] = [G for name, G in sylow_products() if name == "D8xC2xD8xC2"]
    T = character_table(G)
    blocks = {}
    for i, c in enumerate(T.classes):
        blocks.setdefault(c.element_order, []).append(i + 1)
    A = difference_matrix(fusion_from_partition([blocks[o] for o in sorted(blocks)], T), T)
    touched = []
    real = intlin._row_sub
    monkeypatch.setattr(intlin, "_row_sub", lambda row, support, q: touched.append(len(support)) or real(row, support, q))
    K = integer_kernel(A)
    assert (len(A), len(A[0]), len(K)) == (100, 97, len(blocks))
    assert 0 < sum(touched) <= 60_000
