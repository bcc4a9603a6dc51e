#!/usr/bin/env python3
"""Regenerate src/fmrep/data/groups.txt.

Builds explicit permutation generators for every catalog group from
first principles (cycles, matrix actions on vectors / projective points
/ isotropic points and lines), verifies each desk-scale group's order
with the package's own BSGS engine, and writes the versioned text
asset.  Stretch entries (beyond desk scale) carry orders derived from
the standard order formulas instead of a BSGS run.

Usage: python tools/build_catalog_data.py [outfile]
"""

import sys
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fmrep.permcore import (
    PermGroup,
    format_perm,
    group_from_generators,
    identity,
    inverse,
    mul,
    parse_perm,
    perm_order,
)


# ---------------------------------------------------------------- fields


class GF:
    """Small finite field GF(p^k) with log-table arithmetic.

    Elements are integers 0..q-1; 0 is zero and the others index the
    powers of a fixed primitive element g: element i+1 = g^i.
    """

    def __init__(self, p, k=1):
        self.p, self.k, self.q = p, k, p**k
        if k == 1:
            self._from_poly = None
            # primitive root mod p
            g = next(
                g
                for g in range(2, p)
                if all(pow(g, (p - 1) // r, p) != 1 for r in _prime_divisors(p - 1))
            ) if p > 2 else 1
            self.exp = [pow(g, i, p) for i in range(p - 1)]
        else:
            mod = _find_primitive_poly(p, k)
            polys = [tuple(reversed(divmod_digits(i, p, k))) for i in range(p**k)]
            index = {poly: i for i, poly in enumerate(polys)}
            for cand in range(p, p**k):
                powers = [index[_poly_one(k)]]
                cur = polys[cand]
                seen = {polys[cand]}
                while cur != _poly_one(k):
                    powers.append(index[cur])
                    cur = _poly_mul(cur, polys[cand], mod, p)
                    if cur in seen and cur != _poly_one(k):
                        break
                    seen.add(cur)
                if len(powers) == p**k - 1 and cur == _poly_one(k):
                    break
            else:
                raise AssertionError("no primitive element found")
            # powers[i] = integer code of g^i with powers[0] = 1
            self.exp = powers
        self.log = {}
        for i, code in enumerate(self.exp):
            self.log[code] = i
        # remap to canonical encoding 0, then exp codes
        self._codes = [0] + self.exp

    def zero(self):
        return 0

    def one(self):
        return self.log_to_elt(0)

    def log_to_elt(self, i):
        return 1 + (i % (self.q - 1))

    def elt_log(self, a):
        assert a != 0
        return a - 1

    def add(self, a, b):
        ca = 0 if a == 0 else self.exp[a - 1]
        cb = 0 if b == 0 else self.exp[b - 1]
        if self.k == 1:
            code = (ca + cb) % self.p
        else:
            code = _poly_code_add(ca, cb, self.p, self.k)
        if code == 0:
            return 0
        return 1 + self.log[code]

    def neg(self, a):
        if a == 0 or self.p == 2:
            return a
        half = (self.q - 1) // 2
        return self.log_to_elt(self.elt_log(a) + half)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.log_to_elt(self.elt_log(a) + self.elt_log(b))

    def inv(self, a):
        assert a != 0
        return self.log_to_elt(-self.elt_log(a))

    def pow(self, a, n):
        if a == 0:
            assert n > 0
            return 0
        return self.log_to_elt(self.elt_log(a) * n)

    def elements(self):
        return range(self.q)

    def generator(self):
        return self.log_to_elt(1)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divmod_digits(i, p, k):
    out = []
    for _ in range(k):
        i, r = divmod(i, p)
        out.append(r)
    return out


def _poly_one(k):
    return tuple([0] * (k - 1) + [1])


def _poly_code_add(ca, cb, p, k):
    da = tuple(reversed(divmod_digits(ca, p, k)))
    db = tuple(reversed(divmod_digits(cb, p, k)))
    ds = tuple((x + y) % p for x, y in zip(da, db))
    code = 0
    for d in ds:
        code = code * p + d
    return code


def _poly_mul(a, b, mod, p):
    # a, b, mod: coefficient tuples, highest degree first; deg(mod) = k
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    # reduce by mod (monic, degree k): prod has degree <= 2k-2
    for i in range(len(prod) - k):
        c = prod[i]
        if c:
            for j in range(1, k + 1):
                prod[i + j] = (prod[i + j] - c * mod[j]) % p
            prod[i] = 0
    return tuple(prod[-k:])


def _find_primitive_poly(p, k):
    # monic irreducible of degree k over F_p, found by trial division
    for code in range(p**k):
        coeffs = [1] + list(reversed(divmod_digits(code, p, k)))
        if _poly_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError


def _poly_irreducible(coeffs, p):
    # coeffs highest-first, monic, degree k: check no roots & no factors via
    # brute division by all monic polys of degree <= k//2
    k = len(coeffs) - 1
    for dcode in range(p, p ** (k // 2 + 1)):
        digits = []
        c = dcode
        while c:
            c, r = divmod(c, p)
            digits.append(r)
        div = list(reversed(digits))
        if div[0] != 1 or len(div) < 2:
            continue
        rem = list(coeffs)
        while len(rem) >= len(div):
            lead = rem[0]
            if lead:
                for i in range(len(div)):
                    rem[i] = (rem[i] - lead * div[i]) % p
            rem.pop(0)
        if not any(rem):
            return False
    return True


# ------------------------------------------------------- matrix actions


def mat_mul(F, A, B):
    n = len(A)
    return tuple(
        tuple(
            _dot(F, [A[i][k] for k in range(n)], [B[k][j] for k in range(n)])
            for j in range(n)
        )
        for i in range(n)
    )


def _dot(F, xs, ys):
    s = 0
    for x, y in zip(xs, ys):
        s = F.add(s, F.mul(x, y))
    return s


def mat_vec(F, A, v):
    return tuple(_dot(F, row, v) for row in A)


def mat_det(F, A):
    n = len(A)
    M = [list(r) for r in A]
    det = F.one()
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = F.neg(det)
        det = F.mul(det, M[c][c])
        inv = F.inv(M[c][c])
        for r in range(c + 1, n):
            if M[r][c]:
                f = F.mul(M[r][c], inv)
                for cc in range(c, n):
                    M[r][cc] = F.add(M[r][cc], F.neg(F.mul(f, M[c][cc])))
    return det


def normalize_proj(F, v):
    piv = next(x for x in v if x != 0)
    inv = F.inv(piv)
    return tuple(F.mul(inv, x) for x in v)


def proj_points(F, n):
    pts = set()
    for code in range(F.q**n):
        v = tuple(divmod_digits(code, F.q, n))
        if any(v):
            pts.add(normalize_proj(F, v))
    return sorted(pts)


def nonzero_vectors(F, n):
    out = []
    for code in range(F.q**n):
        v = tuple(divmod_digits(code, F.q, n))
        if any(v):
            out.append(v)
    return sorted(out)


def perm_from_matrix(F, A, domain, index, projective):
    images = []
    for v in domain:
        w = mat_vec(F, A, v)
        if projective:
            w = normalize_proj(F, w)
        images.append(index[w])
    return tuple(images)


# ------------------------------------------------- unitary group helpers


def conj_elt(F, a, q0):
    """Field conjugation x -> x^q0 of GF(q0^2)."""
    return F.pow(a, q0) if a else 0


def herm_antidiag(F, q0, x, y):
    # h(x, y) = x1*conj(y3) + x2*conj(y2) + x3*conj(y1)
    n = len(x)
    s = 0
    for i in range(n):
        s = F.add(s, F.mul(x[i], conj_elt(F, y[n - 1 - i], q0)))
    return s


def herm_identity(F, q0, x, y):
    s = 0
    for xi, yi in zip(x, y):
        s = F.add(s, F.mul(xi, conj_elt(F, yi, q0)))
    return s


def is_unitary(F, q0, A, herm):
    n = len(A)
    basis = [tuple(F.one() if j == i else 0 for j in range(n)) for i in range(n)]
    imgs = [mat_vec(F, A, e) for e in basis]
    for i in range(n):
        for j in range(n):
            if herm(F, q0, imgs[i], imgs[j]) != herm(F, q0, basis[i], basis[j]):
                return False
    return True


def su3_generators(q0):
    """Generators of SU(3, q0) acting on isotropic projective points."""
    F = GF(_char(q0), 2 * _deg(q0))
    herm = herm_antidiag
    pts = [
        v
        for v in proj_points(F, 3)
        if herm(F, q0, v, v) == 0
    ]
    assert len(pts) == q0**3 + 1, len(pts)
    index = {v: i for i, v in enumerate(pts)}
    one, zero = F.one(), F.zero()
    gens = []
    # one nontrivial upper-unitriangular unitary matrix with a != 0
    found = None
    for a in F.elements():
        if a == 0:
            continue
        for b in F.elements():
            for c in F.elements():
                A = ((one, a, b), (zero, one, c), (zero, zero, one))
                if is_unitary(F, q0, A, herm) and mat_det(F, A) == one:
                    found = A
                    break
            if found:
                break
        if found:
            break
    gens.append(found)
    # and one with a == 0 (center of the Sylow subgroup)
    found = None
    for b in F.elements():
        if b == 0:
            continue
        A = ((one, zero, b), (zero, one, zero), (zero, zero, one))
        if is_unitary(F, q0, A, herm) and mat_det(F, A) == one:
            found = A
            break
    gens.append(found)
    lam = F.generator()
    torus = (
        (lam, zero, zero),
        (zero, F.pow(lam, q0 - 1), zero),
        (zero, zero, F.inv(F.pow(lam, q0))),
    )
    assert is_unitary(F, q0, torus, herm) and mat_det(F, torus) == one
    w = ((zero, zero, one), (zero, F.neg(one), zero), (one, zero, zero))
    assert is_unitary(F, q0, w, herm) and mat_det(F, w) == one
    gens.append(torus)
    gens.append(w)
    return [perm_from_matrix(F, A, pts, index, projective=True) for A in gens], len(pts)


def _char(q0):
    for p in (2, 3, 5, 7, 11, 13):
        k = 1
        while p**k < q0:
            k += 1
        if p**k == q0:
            return p
    raise ValueError(q0)


def _deg(q0):
    p = _char(q0)
    k = 0
    while p**k < q0:
        k += 1
    return k


def su4_2_generators():
    """SU(4,2) acting on the 27 totally isotropic lines of the hermitian
    surface over GF(4); this permutation image realizes PSp(4,3)."""
    F = GF(2, 2)
    q0 = 2
    herm = herm_identity
    pts = [v for v in proj_points(F, 4) if herm(F, q0, v, v) == 0]
    assert len(pts) == 45, len(pts)
    ptset = set(pts)
    # totally isotropic lines: pairs of orthogonal isotropic points
    lines = set()
    for i, u in enumerate(pts):
        for v in pts[i + 1 :]:
            if herm(F, q0, u, v) == 0:
                line = {u, v}
                for lam in F.elements():
                    if lam:
                        w = normalize_proj(
                            F, tuple(F.add(a, F.mul(lam, b)) for a, b in zip(u, v))
                        )
                        line.add(w)
                assert line <= ptset
                lines.add(tuple(sorted(line)))
    lines = sorted(lines)
    assert len(lines) == 27, len(lines)
    index = {l: i for i, l in enumerate(lines)}

    def line_perm(A):
        images = []
        for line in lines:
            img = tuple(
                sorted(normalize_proj(F, mat_vec(F, A, v)) for v in line)
            )
            images.append(index[img])
        return tuple(images)

    # unitary transvections x -> x + h(x,v) v for isotropic v
    one = F.one()
    gens = []
    group = None
    for v in pts:
        A = tuple(
            tuple(
                F.add(one if i == j else 0, F.mul(v[i], conj_elt(F, v[j], q0)))
                for j in range(4)
            )
            for i in range(4)
        )
        assert is_unitary(F, q0, A, herm)
        p = line_perm(A)
        if p == identity(27):
            continue
        gens.append(p)
        group = group_from_generators(gens, 27)
        if group.order == 25920:
            break
    assert group is not None and group.order == 25920, group and group.order
    return gens, 27


# --------------------------------------------------------- constructions


def sym_gens(n):
    return [parse_perm("(1,2)", n), parse_perm("(" + ",".join(map(str, range(1, n + 1))) + ")", n)]


def alt_gens(n):
    if n % 2:
        cyc = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    else:
        cyc = "(" + ",".join(map(str, range(2, n + 1))) + ")"
    return [parse_perm("(1,2,3)", n), parse_perm(cyc, n)]


def psl2_gens(q):
    F = GF(q)
    # points: infinity, then field elements 0..q-1 (as GF codes)
    pts = ["inf"] + list(F.elements())
    index = {p: i for i, p in enumerate(pts)}

    def moebius(f):
        images = []
        for p in pts:
            images.append(index[f(p)])
        return tuple(images)

    one = F.one()

    def trans(p):
        return "inf" if p == "inf" else F.add(p, one)

    def sinv(p):
        if p == "inf":
            return 0
        if p == 0:
            return "inf"
        return F.neg(F.inv(p))

    return [moebius(trans), moebius(sinv)], q + 1


def sl3_gens(p, projective, extra_det=False):
    F = GF(p)
    one, zero = F.one(), F.zero()
    if projective:
        domain = proj_points(F, 3)
    else:
        domain = nonzero_vectors(F, 3)
    index = {v: i for i, v in enumerate(domain)}
    E12 = ((one, one, zero), (zero, one, zero), (zero, zero, one))
    CYC = ((zero, one, zero), (zero, zero, one), (one, zero, zero))
    mats = [E12, CYC]
    if extra_det:
        g = F.generator()
        mats.append(((g, zero, zero), (zero, one, zero), (zero, zero, one)))
    return [perm_from_matrix(F, A, domain, index, projective) for A in mats], len(domain)


def sl4_gens(p):
    F = GF(p)
    one, zero = F.one(), F.zero()
    domain = proj_points(F, 4)
    index = {v: i for i, v in enumerate(domain)}
    E12 = (
        (one, one, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, one, zero),
        (zero, zero, zero, one),
    )
    CYC = (
        (zero, zero, zero, F.neg(one)),
        (one, zero, zero, zero),
        (zero, one, zero, zero),
        (zero, zero, one, zero),
    )
    return [perm_from_matrix(F, A, domain, index, True) for A in [E12, CYC]], len(domain)


def sl2_3_gens():
    F = GF(3)
    domain = nonzero_vectors(F, 2)
    index = {v: i for i, v in enumerate(domain)}
    one, zero = F.one(), F.zero()
    E = ((one, one), (zero, one))
    S = ((zero, one), (F.neg(one), zero))
    return [perm_from_matrix(F, A, domain, index, False) for A in [E, S]], len(domain)


def q8_gens():
    # left multiplications by i and j on {1,-1,i,-i,j,-j,k,-k}
    return [parse_perm("(1,3,2,4)(5,7,6,8)", 8), parse_perm("(1,5,2,6)(3,8,4,7)", 8)]


def m10_gens():
    m11 = group_from_generators(
        [
            parse_perm("(1,2,3,4,5,6,7,8,9,10,11)", 11),
            parse_perm("(3,7,11,8)(4,10,5,6)", 11),
        ]
    )
    assert m11.order == 7920
    # point stabilizer of 11 (0-based 10) via Schreier generators
    fixed = 10
    orbit = {fixed: identity(11)}
    queue = [fixed]
    for pt in queue:
        u = orbit[pt]
        for s in m11.generators:
            q = s[pt]
            if q not in orbit:
                orbit[q] = mul(u, s)
                queue.append(q)
    assert len(orbit) == 11
    schreier = []
    for pt in sorted(orbit):
        u = orbit[pt]
        for s in m11.generators:
            g = mul(mul(u, s), inverse(orbit[s[pt]]))
            if g != identity(11):
                schreier.append(g)
    # greedy generating subset
    gens = []
    for g in sorted(set(schreier)):
        gens.append(g)
        if group_from_generators(gens, 11).order == 720:
            break
    stab = group_from_generators(gens, 11)
    assert stab.order == 720 and all(g[fixed] == fixed for g in gens)
    relabel = [i for i in range(11) if i != fixed]
    pos = {p: i for i, p in enumerate(relabel)}
    out = [tuple(pos[g[p]] for p in relabel) for g in gens]
    return out, 10


def heisenberg5_gens():
    # order-125 extraspecial group of exponent 5 acting on 25 points (u, v)
    pts = [(u, v) for u in range(5) for v in range(5)]
    index = {p: i for i, p in enumerate(pts)}
    a = tuple(index[((u + v) % 5, v)] for (u, v) in pts)
    b = tuple(index[(u, (v + 1) % 5)] for (u, v) in pts)
    return [a, b], 25


# ----------------------------------------------------------------- main


def verified_entry(name, gens, degree, order):
    G = group_from_generators(gens, degree)
    assert G.order == order, f"{name}: got order {G.order}, expected {order}"
    return name, degree, order, gens


def main(out_path):
    entries = []

    entries.append(verified_entry("S3", sym_gens(3), 3, 6))
    entries.append(verified_entry("S4", sym_gens(4), 4, 24))
    entries.append(verified_entry("S6", sym_gens(6), 6, 720))
    entries.append(verified_entry("S8", sym_gens(8), 8, 40320))
    entries.append(verified_entry("S9", sym_gens(9), 9, 362880))
    entries.append(verified_entry("A6", alt_gens(6), 6, 360))
    entries.append(verified_entry("A8", alt_gens(8), 8, 20160))
    entries.append(verified_entry("A9", alt_gens(9), 9, 181440))
    entries.append(
        verified_entry("D8", [parse_perm("(1,2,3,4)", 4), parse_perm("(1,3)", 4)], 4, 8)
    )
    entries.append(verified_entry("Q8", q8_gens(), 8, 8))

    gens, deg = sl2_3_gens()
    entries.append(verified_entry("SL2_3", gens, deg, 24))

    gens, deg = m10_gens()
    entries.append(verified_entry("M10", gens, deg, 720))

    gens, deg = psl2_gens(17)
    entries.append(verified_entry("PSL2_17", gens, deg, 2448))
    gens, deg = psl2_gens(31)
    entries.append(verified_entry("PSL2_31", gens, deg, 14880))

    gens, deg = sl3_gens(3, projective=True)
    entries.append(verified_entry("SL3_3", gens, deg, 5616))
    gens, deg = sl3_gens(3, projective=False, extra_det=True)
    entries.append(verified_entry("GL3_3", gens, deg, 11232))
    gens, deg = sl3_gens(5, projective=True)
    entries.append(verified_entry("PSL3_5", gens, deg, 372000))

    gens, deg = su3_generators(5)
    entries.append(verified_entry("PSU3_5", gens, deg, 126000))

    gens, deg = su4_2_generators()
    entries.append(verified_entry("PSp4_3", gens, deg, 25920))

    gens, deg = heisenberg5_gens()
    entries.append(verified_entry("E125", gens, deg, 125))

    # stretch entries: orders from the standard formulas, no BSGS run
    gens, deg = su3_generators(9)
    entries.append(("PSU3_9", deg, 9**3 * (9**2 - 1) * (9**3 + 1) // 1, gens))
    gens, deg = sl3_gens(19, projective=True)
    entries.append(("PSL3_19", deg, 19**3 * (19**3 - 1) * (19**2 - 1) // 3, gens))
    gens, deg = sl4_gens(7)
    order_sl47 = 7**6 * (7**2 - 1) * (7**3 - 1) * (7**4 - 1) // 2
    entries.append(("PSL4_7", deg, order_sl47, gens))

    lines = ["# Permutation generators for the built-in group catalog."]
    lines.append("# Cycle notation is 1-based; order is asserted when an entry is loaded.")
    for name, degree, order, gens in entries:
        lines.append("")
        lines.append(f"[{name}]")
        lines.append(f"degree {degree}")
        lines.append(f"order {order}")
        for g in gens:
            lines.append("gen " + format_perm(g))
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(entries)} entries)")


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "fmrep" / "data" / "groups.txt"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    main(out)
