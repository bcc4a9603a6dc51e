"""All groups of order at most 16, as permutation groups.

Each abstract group is specified by an element list and a verified
multiplication rule (closure, identity, inverses and full associativity
are checked), then realized through its regular representation.
"""

import itertools

from fmrep.cyclonum import prime_divisors
from fmrep.permcore import group_from_generators, identity, parse_perm


def regular_group(elements, mul):
    """Permutation group of right multiplications on the element list."""
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    assert len(idx) == n
    # identity and group laws
    ident = next(e for e in elements if all(mul(x, e) == x and mul(e, x) == x for x in elements))
    for a in elements:
        assert sorted(idx[mul(a, b)] for b in elements) == list(range(n))
        assert any(mul(a, b) == ident for b in elements)
    for a in elements:
        for b in elements:
            for c in elements:
                assert mul(mul(a, b), c) == mul(a, mul(b, c)), "not associative"
    perms = [tuple(idx[mul(x, g)] for x in elements) for g in elements]
    gens = [p for p in perms if p != identity(n)]
    G = group_from_generators(gens or [identity(n)], n)
    assert G.order == n
    return G


def cyclic_data(n):
    return list(range(n)), lambda a, b: (a + b) % n


def direct_data(data_a, data_b):
    ea, ma = data_a
    eb, mb = data_b
    elements = [(x, y) for x in ea for y in eb]
    return elements, lambda p, q: (ma(p[0], q[0]), mb(p[1], q[1]))


def twisted_z2_data(n, t):
    """Z_n semidirect Z_2 where the involution acts by a -> t*a (t^2 = 1 mod n)."""
    assert (t * t) % n == 1
    elements = [(i, j) for i in range(n) for j in range(2)]

    def mul(p, q):
        (i, j), (k, l) = p, q
        return ((i + (t**j % n) * k) % n, (j + l) % 2)

    return elements, mul


def dicyclic_data(n):
    """Order 4n: <a, b | a^(2n) = 1, b^2 = a^n, b a b^-1 = a^-1>."""
    elements = [(i, j) for i in range(2 * n) for j in range(2)]

    def mul(p, q):
        (i, j), (k, l) = p, q
        if j == 0:
            return ((i + k) % (2 * n), l)
        if l == 0:
            return ((i - k) % (2 * n), 1)
        return ((i - k + n) % (2 * n), 0)

    return elements, mul


def z4_rtimes_z4_data():
    elements = [(i, j) for i in range(4) for j in range(4)]

    def mul(p, q):
        (i, j), (k, l) = p, q
        return ((i + ((-1) ** j) * k) % 4, (j + l) % 4)

    return elements, mul


def klein_rtimes_z4_data():
    elements = [((x, y), j) for x in range(2) for y in range(2) for j in range(4)]

    def mul(p, q):
        (v, j), (w, l) = p, q
        if j % 2:
            w = (w[1], w[0])
        return (((v[0] + w[0]) % 2, (v[1] + w[1]) % 2), (j + l) % 4)

    return elements, mul


def central_product_d8_z4_data():
    """(D8 x Z4) / <(r^2, 2)>, the sixteen-element central product."""
    d8_elems, d8_mul = twisted_z2_data(4, 3)  # D8 as Z4 : Z2 with inversion (3 = -1 mod 4)

    def canon(d, k):
        if k >= 2:
            return (d8_mul(d, (2, 0)), k - 2)
        return (d, k)

    elements = sorted((d, k) for d in d8_elems for k in range(2))

    def mul(p, q):
        (d1, k1), (d2, k2) = p, q
        return canon(d8_mul(d1, d2), k1 + k2)

    return elements, mul


def _perm_group(*cycles_and_degree):
    *cycles, degree = cycles_and_degree
    return group_from_generators([parse_perm(c, degree) for c in cycles], degree)


def all_groups_up_to_16():
    """(name, PermGroup) pairs covering every group of order <= 16."""
    out = []

    def add(name, data):
        out.append((name, regular_group(*data)))

    add("1", cyclic_data(1))
    add("Z2", cyclic_data(2))
    add("Z3", cyclic_data(3))
    add("Z4", cyclic_data(4))
    add("Z2xZ2", direct_data(cyclic_data(2), cyclic_data(2)))
    add("Z5", cyclic_data(5))
    add("Z6", cyclic_data(6))
    out.append(("S3", _perm_group("(1,2)", "(1,2,3)", 3)))
    add("Z7", cyclic_data(7))
    add("Z8", cyclic_data(8))
    add("Z4xZ2", direct_data(cyclic_data(4), cyclic_data(2)))
    add("Z2^3", direct_data(cyclic_data(2), direct_data(cyclic_data(2), cyclic_data(2))))
    add("D8", twisted_z2_data(4, 3))
    add("Q8", dicyclic_data(2))
    add("Z9", cyclic_data(9))
    add("Z3xZ3", direct_data(cyclic_data(3), cyclic_data(3)))
    add("Z10", cyclic_data(10))
    add("D10", twisted_z2_data(5, 4))
    add("Z11", cyclic_data(11))
    add("Z12", cyclic_data(12))
    add("Z6xZ2", direct_data(cyclic_data(6), cyclic_data(2)))
    add("D12", twisted_z2_data(6, 5))
    out.append(("A4", _perm_group("(1,2,3)", "(1,2)(3,4)", 4)))
    add("Dic3", dicyclic_data(3))
    add("Z13", cyclic_data(13))
    add("Z14", cyclic_data(14))
    add("D14", twisted_z2_data(7, 6))
    add("Z15", cyclic_data(15))
    # the fourteen groups of order 16
    add("Z16", cyclic_data(16))
    add("Z8xZ2", direct_data(cyclic_data(8), cyclic_data(2)))
    add("Z4xZ4", direct_data(cyclic_data(4), cyclic_data(4)))
    add("Z4xZ2^2", direct_data(cyclic_data(4), direct_data(cyclic_data(2), cyclic_data(2))))
    add("Z2^4", direct_data(direct_data(cyclic_data(2), cyclic_data(2)), direct_data(cyclic_data(2), cyclic_data(2))))
    add("D16", twisted_z2_data(8, 7))
    add("SD16", twisted_z2_data(8, 3))
    add("M4(2)", twisted_z2_data(8, 5))
    add("Q16", dicyclic_data(4))
    add("D8xZ2", direct_data(twisted_z2_data(4, 3), cyclic_data(2)))
    add("Q8xZ2", direct_data(dicyclic_data(2), cyclic_data(2)))
    add("D8oZ4", central_product_d8_z4_data())
    add("Z4:Z4", z4_rtimes_z4_data())
    add("Z2^2:Z4", klein_rtimes_z4_data())
    return out


def sylow_products():
    """(name, PermGroup) pairs: products of small Sylow subgroups with
    k = 20, 51, 40 and 100 classes."""
    return [
        ("D8xC2xC2", _perm_group("(1,2)", "(1,3)(2,4)", "(5,6)", "(7,8)", 8)),
        ("C3wrC3xC3", _perm_group("(1,2,3)", "(1,4,7)(2,5,8)(3,6,9)", "(10,11,12)", 12)),
        ("C2wrC2wrC2xC2", _perm_group("(1,2)", "(1,3)(2,4)", "(1,5)(2,6)(3,7)(4,8)", "(9,10)", 10)),
        ("D8xC2xD8xC2", _perm_group("(1,2)", "(1,3)(2,4)", "(5,6)", "(7,8)", "(7,9)(8,10)", "(11,12)", 12)),
    ]


def symmetric_group(n):
    """Sym(n) on 1..n, generated by (1,2) and (1,...,n)."""
    cyc = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    return _perm_group("(1,2)", cyc, n)


def psl2(q):
    """PSL2(q), q an odd prime, by its Moebius action on the projective
    line: point 0 is infinity and point i + 1 is i mod q.  Generated by
    x -> x + 1 and x -> -1/x."""

    def perm(f):
        return tuple(0 if y is None else y + 1 for y in map(f, [None, *range(q)]))

    shift = perm(lambda x: None if x is None else (x + 1) % q)
    invert = perm(lambda x: 0 if x is None else None if x == 0 else -pow(x, -1, q) % q)
    return group_from_generators([shift, invert], q + 1)


def borel(n, p, torus):
    """B_n(p) = U_n(p) x| T' acting on the p^n vectors of F_p^n, each
    vector the point of its place in lex order.  U_n(p) is generated by
    the transvections v[i] += v[i + 1]; T' by the diagonal matrices with
    a primitive root g at one place: every place for torus="full", the
    first place only for torus="one"."""
    g = next(a for a in range(1, p) if all(pow(a, (p - 1) // q, p) != 1 for q in prime_divisors(p - 1)))
    vectors = list(itertools.product(range(p), repeat=n))
    point = {v: k for k, v in enumerate(vectors)}

    def perm(i, f):
        return tuple(point[(*v[:i], f(v) % p, *v[i + 1:])] for v in vectors)

    places = range(n) if torus == "full" else range(1)
    gens = [perm(i, lambda v, i=i: v[i] + v[i + 1]) for i in range(n - 1)]
    gens += [perm(i, lambda v, i=i: g * v[i]) for i in places]
    return group_from_generators(gens, p**n)


def groups_fixing_first_points():
    """(name, PermGroup) pairs that fix their first points, so a walk of
    their chain checks a non-empty root window: S5 on the points 3..7 of
    7, and S4 x S3 on the points 4..10 of 10."""
    return [
        ("S5on3-7", _perm_group("(3,4)", "(3,4,5,6,7)", 7)),
        ("S4xS3on4-10", _perm_group("(4,5)", "(4,5,6,7)", "(8,9)", "(8,9,10)", 10)),
    ]
