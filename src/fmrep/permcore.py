"""Permutation group engine for desk-scale groups.

Permutations are tuples of images on the points 0..degree-1 (0-based
internally; cycle notation in all I/O is 1-based).  Groups carry a
deterministic base and strong generating set, so membership, order and
element enumeration are exact.  Everything here is immutable after
construction and all operations are pure.

The product convention is left-to-right: mul(p, q) applies p first,
then q.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from math import gcd, isqrt, lcm, prod
from operator import itemgetter

Perm = tuple


class CapExceeded(Exception):
    """An enumeration cap was hit; the result is undecided."""


class CertificateError(RuntimeError):
    """A computed result failed the explicit check that certifies it."""


def identity(degree):
    return tuple(range(degree))


def mul(p, q):
    """Product "apply p, then q"."""
    return _left(p)(q)


def _left(p):
    """q -> mul(p, q) in C; itemgetter needs two points to return a tuple."""
    return itemgetter(*p) if len(p) > 1 else lambda q: tuple(map(q.__getitem__, p))


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate(x, g):
    """g * x * g^-1 in the left-to-right convention: maps g[i] to g[x[i]]."""
    return mul(inverse(g), mul(x, g))


def power(p, n):
    if n < 0:
        return power(inverse(p), -n)
    q = identity(len(p))
    while n:
        if n & 1:
            q = mul(q, p)
        p = mul(p, p)
        n >>= 1
    return q


def cycles(p):
    """Cycles of p as point lists, each starting at its least point, in
    ascending order of that point; fixed points are 1-cycles."""
    seen = bytearray(len(p))
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc, j = [i], p[i]
        seen[i] = 1
        while j != i:
            seen[j] = 1
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def cycle_lengths(p):
    """Sorted (descending) cycle lengths, fixed points included."""
    return tuple(sorted(map(len, cycles(p)), reverse=True))


def perm_order(p):
    return lcm(*map(len, cycles(p)))


_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*[, ]\s*[0-9]+)*)?\s*\)")


def parse_perm(text, degree):
    """Parse disjoint-cycle notation with 1-based points, e.g. "(1,2)(3,4)".

    The identity is written "()".
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    pos = 0
    images = list(range(degree))
    for m in _CYCLE_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"could not parse permutation {text!r}")
        pos = m.end()
        if not m.group(1):
            continue
        pts = [int(t) - 1 for t in re.split(r"[,\s]+", m.group(1).strip())]
        if any(not 0 <= t < degree for t in pts):
            raise ValueError(f"point out of range in {text!r} (degree {degree})")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle in {text!r}")
        for a, b in zip(pts, pts[1:]):
            images[a] = b
        images[pts[-1]] = pts[0]
    if pos != len(text):
        raise ValueError(f"could not parse permutation {text!r}")
    if sorted(images) != list(range(degree)):
        raise ValueError(f"cycles in {text!r} are not disjoint")
    return tuple(images)


def max_point(text):
    """Largest 1-based point mentioned in a cycle string, 0 if none."""
    pts = [int(t) for t in re.findall(r"[0-9]+", text)]
    return max(pts, default=0)


def format_perm(p):
    """Disjoint-cycle notation, 1-based; identity is "()"."""
    parts = ["(" + ",".join(str(k + 1) for k in c) + ")" for c in cycles(p) if len(c) > 1]
    return "".join(parts) or "()"


class PermGroup:
    """Finite permutation group with a base and strong generating set.

    Built by a deterministic (non-randomized) Schreier-Sims run, so
    repeated constructions from the same generators give identical
    internal state.  The base is the lex base: base[i] is the least point
    moved by the stabilizer of base[:i], so the Sylow and conjugacy walks
    read this chain as it is (_lex_chain).  Instances are immutable.
    """

    __slots__ = ("degree", "generators", "base", "_transversals", "_strong", "order")

    def __init__(self, generators, degree):
        for g in generators:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        self.base = []
        self._transversals = []
        self._strong = []
        self._build()
        self.order = prod(map(len, self._transversals))

    # -- construction ---------------------------------------------------
    #
    # _strong[i] holds the strong generators fixing base[:i]; the sets are
    # cumulative (a generator fixing base[:j] appears in levels 0..j).
    # _transversals[i] maps each point of the orbit of base[i] to an element
    # taking base[i] there; no inverse is kept, as _sift runs on x^-1.
    # Levels are verified bottom-up: verifying level i assumes all deeper
    # levels already satisfy the Schreier condition, so sifting through
    # them is a correct membership test.
    #
    # The chain built is the lex chain: base[l] is the least point moved
    # by the group H_l of _strong[l], so the base increases and H_l fixes
    # every point before base[l].  The invariant kept is that the base
    # increases, that every strong generator at level l fixes every point
    # before base[l], and that some one moves base[l].  _install keeps it:
    # it joins s only to levels whose base points are at most s's least
    # moved point m, and s fixes every point before m.  If m is no base
    # point, a level is inserted at its place j: every strong generator at
    # old level j or deeper has its base point above m and fixes m, so a
    # copy of old level j's set is valid for the new level, and old level
    # j, now below it, stays valid.  A residue of level i lies in H_i and
    # fixes base[i], so m > base[i] and it joins levels i+1..j.
    #
    # The product of the transversal lengths never exceeds the group
    # order: the group of _strong[i+1] is a subgroup of the group of
    # _strong[i] that fixes base[i], so the latter has at least
    # len(transversal i) times as many elements.  Each residue grows a
    # transversal or inserts one of length at least 2, so the run ends.
    # The product reaches the order only when each of those is an
    # equality, that is when every level meets the Schreier condition.

    def _build(self):
        for g in self.generators:
            if g != identity(self.degree):
                self._install(g, 0)
        i = len(self.base) - 1
        while i >= 0:
            deeper = self._verify_level(i)
            i = i - 1 if deeper is None else deeper

    def _install(self, s, start):
        """Join s to the strong generators of levels start..j, where base[j]
        is its least moved point (a new level when that point was no base
        point), and grow each orbit and transversal in place, the element of
        g(pt) being trans[pt] * g: s moves the points already in the orbit,
        every generator the new ones.  Returns j."""
        m = next(p for p, q in enumerate(s) if p != q)
        j = bisect_left(self.base, m)
        if self.base[j:j + 1] != [m]:
            self._strong.insert(j, list(self._strong[j]) if j < len(self._strong) else [])
            self.base.insert(j, m)
            self._transversals.insert(j, {m: identity(self.degree)})  # the copied generators fix m
        for l in range(start, j + 1):
            self._strong[l].append(s)
            trans = self._transversals[l]
            queue = list(trans)
            old, gens = len(queue), [s]
            for k, pt in enumerate(queue):
                if k == old:
                    gens = self._strong[l]
                for g in gens:
                    if g[pt] not in trans:
                        trans[g[pt]] = mul(trans[pt], g)
                        queue.append(g[pt])
        return j

    def _verify_level(self, i):
        """Sift every Schreier generator h = u * s * v^-1 of level i (u, v
        the elements of pt and s(pt)) through deeper levels, as _sift takes
        it: h^-1 = v * (u * s)^-1.  u * s == v is a tree edge (h is the
        identity) and is skipped.  Install the first nontrivial residue at
        levels i+1.. and return _install's j, the level to re-verify from,
        or None when the level passes."""
        trans = self._transversals[i]
        for pt in sorted(trans):
            u = trans[pt]
            for s in self._strong[i]:
                us, v = mul(u, s), trans[s[pt]]
                if us == v:
                    continue
                residue = self._sift(mul(v, inverse(us)), i + 1)
                if residue is not None:
                    return self._install(residue, i + 1)
        return None

    def _sift(self, z, start=0):
        """Sift z^-1 through levels >= start: at base point b, with u the
        element of pt = z^-1(b), z becomes u * z, which fixes b.  Returns
        the residue, the inverse of z^-1's, or None when z^-1 (and so z)
        sifts to the identity."""
        ident, level = identity(self.degree), start
        while z != ident:
            if level == len(self.base):
                return z
            trans = self._transversals[level]
            pt = z.index(self.base[level])
            if pt not in trans:
                return z
            z = mul(trans[pt], z)
            level += 1
        return None

    # -- queries ---------------------------------------------------------

    def __contains__(self, x):
        if len(x) != self.degree:
            raise ValueError("degree mismatch in membership test")
        return sorted(x) == list(range(self.degree)) and self._sift(tuple(x)) is None

    def __len__(self):
        raise TypeError("use .order (may exceed index range)")

    def elements(self):
        """Stream all elements in a deterministic order."""
        yield from self._elements_level(0)

    def _elements_level(self, level):
        if level == len(self.base):
            yield identity(self.degree)
            return
        reps = [self._transversals[level][pt] for pt in sorted(self._transversals[level])]
        for h in self._elements_level(level + 1):
            yield from map(_left(h), reps)


def group_from_generators(gens, degree=None):
    """Group generated by `gens`; empty list gives the trivial group."""
    gens = [tuple(g) for g in gens]
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    return PermGroup(gens, degree)


# -- Sylow subgroups ------------------------------------------------------


# Most work the walks of one sylow_subgroup call may do, in node-points (each
# child tried costs the degree): PSL3_19 needs 6.2e6, S16 at p = 3 3.4e5 and
# S17 at p = 2 1.8e5 (0.4 s; 9e6 and 4 s when a generators-only guess made it
# restart), and PSL4_7 stops here after a 2.5 s walk on a 2-core x86-64 VM.
SYLOW_STREAM_CAP = 5 * 10**7
# Random elements of G the guess of the largest p-element order draws.
SYLOW_SAMPLES = 32
# Trivial sifts in a row that end _renamed_chain; each has chance <= 1/2.
SIFT_STREAK = 64
# Most work one conjugacy search of a fusion decision may do, in node-points:
# the largest search of PSL3_19 (degree 381) needs 4.7e7 in about 1 s.
CONJUGACY_CAP = 4 * 10**8


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _p_part(n, p):
    e = 1
    while n % p == 0:
        n //= p
        e *= p
    return e


def _lex_chain(H):
    """H's stabilizer chain in the form the walks read: (b_i, {point:
    q -> mul(u, q)}) per level, where u in H_i maps b_i to point.  Every
    PermGroup chain is lex (see PermGroup._build): b_i is the least point
    moved by the stabilizer H_i of b_0, ..., b_(i-1), so b_0 < b_1 < ...,
    and H_i fixes every point before b_i."""
    return [(b, {pt: _left(u) for pt, u in trans.items()}) for b, trans in zip(H.base, H._transversals)]


def _windows(levels, n, perms):
    """Per window w = [b_(w-1), b_w) of the chain `levels` (b_(-1) = 0 and
    b_w = n past the last level): its points, and for each p in perms
    the pairs (i, p(i)) whose larger end lies in it."""
    bounds = [0] + [b for b, _ in levels] + [n]
    return [
        (range(lo, hi), [[(i, p[i]) for i in range(n) if lo <= max(i, p[i]) < hi] for p in perms])
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _walk(levels, n, children, accept, leaf, state, work, cap, what):
    """(x, work): the first element x, in depth-first order, of the group
    whose _lex_chain is `levels` that passes every check on the way down
    and leaf(x), or None.

    A node at depth d is a coset map c: every element below it agrees
    with c before b_d (H_d fixes those points; b_d is the degree n at
    the leaves, depth len(levels)).  Its children are u * c for the
    transversal elements u of level d; the child keyed pt in `left` maps
    b_d to c[pt], and children(c, d, left) lists the keys to try, in
    visiting order.  A node x at depth w is checked on the window
    w = [b_(w-1), b_w) it newly fixes (the root on [0, b_0), which the
    group fixes): accept(x, w, state) takes the state of x's parent (the
    root's is `state`) and returns x's own, or None when the check rules
    out every element below x.  So pruning loses no wanted element, and
    as the windows cover every point, a leaf has passed every check.
    work carries over between walks and grows by n per child tried;
    CapExceeded once it exceeds cap.
    """
    stack = [(identity(n), 0, state)]
    while stack:
        c, d, state = stack.pop()
        state = accept(c, d, state)
        if state is None:
            continue
        if d == len(levels):
            if leaf(c):
                return c, work
            continue
        left = levels[d][1]
        pts = children(c, d, left)
        work += len(pts) * n
        if work > cap:
            raise CapExceeded(f"{what} exceeds cap {cap} node-points")
        stack += [(left[pt](c), d + 1, state) for pt in reversed(pts)]  # the first child is popped first
    return None, work


def _lex_first(levels, n, bound, keep_leaf, normalizing=None, work=0):
    """(x, work) from one _walk: x is the lex-least element (by image
    tuples) of the group whose _lex_chain is `levels`, among those whose
    cycle lengths all divide bound and that keep_leaf accepts, or None.

    Children keyed pt map the base point b to distinct points c[pt] and
    share the images before b, so visiting them in increasing c[pt]
    makes depth-first order lex order.  A window prunes a node when:
    - a cycle that closes there, counted once at its largest point, has
      a length not dividing bound;
    - normalizing None (order exactly bound): no closed cycle has length
      bound, and fewer than bound points lie outside closed cycles;
    - normalizing = (gens, elements) of P (s^x in P for s in gens): each
      pair (i, s(i)) is checked where its larger end lies, by ANDing
      masks[x(i)][x(s(i))], the bitmask of the h in P that map x(i)
      there, into the mask s carries down; an empty mask prunes, and so
      does x(j) in a P-orbit of another length than j's (len(masks[j])),
      as every normalizer of P maps P-orbits onto P-orbits.
    So at a leaf s^x is in P.  Raises CapExceeded once work exceeds
    SYLOW_STREAM_CAP node-points.
    """
    gens, elements = normalizing or ((), ())
    masks = [{} for _ in range(n)]
    for bit, h in enumerate(elements):
        for a, b in enumerate(h):
            masks[a][b] = masks[a].get(b, 0) | 1 << bit
    windows = _windows(levels, n, gens)

    def accept(x, w, state):
        shut, has, cands = state
        window, pairs = windows[w]
        for j in window:
            if elements and len(masks[x[j]]) != len(masks[j]):
                return None
            k, length = x[j], 1
            while k < j:
                k, length = x[k], length + 1
            if k == j:
                if bound % length:
                    return None
                shut, has = shut + length, has or length == bound
        cands = list(cands)
        for g, ps in enumerate(pairs):
            for i, j in ps:
                cands[g] &= masks[x[i]].get(x[j], 0)
        if not all(cands) or (normalizing is None and not has and n - shut < bound):
            return None
        return shut, has, cands

    return _walk(levels, n, lambda c, d, left: sorted(left, key=c.__getitem__), accept, keep_leaf,
                 (0, False, [(1 << len(elements)) - 1] * len(gens)), work, SYLOW_STREAM_CAP, "sylow: lex walk")


def _random_elements(G):
    """Uniform random elements of G, drawn from a fixed seed: every element
    is one product of one transversal element per level."""
    rng, levels = random.Random(0), [list(trans.values()) for trans in reversed(G._transversals)]
    while True:
        yield reduce(mul, map(rng.choice, levels), identity(G.degree))


def _p_order_guess(G, p, limit):
    """The largest p-part of the order of G's generators and of
    SYLOW_SAMPLES random elements, at least p; the draws stop at limit,
    which no p-element order (the p-part of an element's) exceeds."""
    m = p
    for g in chain(G.generators, islice(_random_elements(G), SYLOW_SAMPLES)):
        if m == limit:
            break
        m = max(m, gcd(perm_order(g), limit))
    return m


def sylow_subgroup(G, p):
    """A Sylow p-subgroup of G, deterministically chosen.

    Defined on G's lex order: start from the lex-least p-element of
    maximal order; while P is not yet Sylow, adjoin the lex-first
    p-element normalizing P but outside it (one exists: a proper
    p-subgroup has a larger normalizer in any Sylow subgroup over it).
    Each search is one _lex_first walk of G's own chain, so a walk stops
    at the element the definition picks.

    The maximal order m is guessed as the largest p-part order of G's
    generators and of a fixed sample of uniform random elements of G
    (_p_order_guess), which some element has.  S grown from the
    lex-least element of order m is Sylow, and all Sylow subgroups are
    conjugate, so its exponent e is the largest p-element order in G:
    e = m certifies the guess, and e > m redoes the search from the
    lex-least element of order e.  The sample makes that restart rare:
    on the fast and table catalog entries the guess is e.

    Raises CapExceeded when the walks together exceed SYLOW_STREAM_CAP
    node-points, and CertificateError unless the result has order |G|_p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = _p_part(G.order, p)
    if target == 1:
        return PermGroup([], G.degree)
    limit = p  # a cycle of length p^e needs p^e <= degree
    while limit * p <= G.degree and G.order % (limit * p) == 0:
        limit *= p
    n, levels, work = G.degree, _lex_chain(G), 0
    m = _p_order_guess(G, p, limit)

    def keep(x):  # outside P = <gens>, normalizing P; _lex_first yields only p-elements
        return x not in pset and all(conjugate(s, x) in pset for s in gens)

    while True:
        x, work = _lex_first(levels, n, m, lambda x: True, None, work)  # x has order m
        gens = [x]
        S = group_from_generators(gens, n)
        while S.order < target:
            pset = set(S.elements())
            x, work = _lex_first(levels, n, limit, keep, (gens, pset), work)
            if x is None:
                raise CertificateError("Sylow growth stalled; group data inconsistent")
            gens.append(x)
            S = group_from_generators(gens, n)
        e = max(map(perm_order, S.elements()))
        if e <= m:
            break
        m = e
    if S.order != target:
        raise CertificateError(f"Sylow candidate has order {S.order}, not {target}")
    return S


# -- conjugacy classes -----------------------------------------------------


@dataclass(frozen=True)
class ConjClass:
    representative: Perm
    size: int
    element_order: int


def conjugation_orbit(x, gens):
    """Orbit of x under conjugation by a generator list."""
    orbit = {x}
    queue = [x]
    conj = [(_left(inverse(g)), g) for g in gens]  # y^g = g_inv(mul(y, g))
    for y in queue:
        y_left = _left(y)
        for g_inv, g in conj:
            z = g_inv(y_left(g))
            if z not in orbit:
                orbit.add(z)
                queue.append(z)
    return orbit


def class_partition(S):
    """Conjugacy classes of S by full element enumeration, as (classes,
    element -> class index).

    Classes are ordered canonically: by element order, then class size,
    then lexicographically minimal representative (so the identity class
    is always first).
    """
    remaining = set(S.elements())
    orbits = []
    for x in sorted(remaining):
        if x in remaining:
            orbit = conjugation_orbit(x, S.generators)
            remaining -= orbit
            orbits.append((ConjClass(representative=x, size=len(orbit), element_order=perm_order(x)), orbit))
    orbits.sort(key=lambda co: (co[0].element_order, co[0].size, co[0].representative))
    lookup = {y: idx for idx, (_, orbit) in enumerate(orbits) for y in orbit}
    return [c for c, _ in orbits], lookup


# -- conjugacy testing -----------------------------------------------------


def _cycle_length_map(p):
    """Length of the cycle of p through each point."""
    lengths = {i: len(cyc) for cyc in cycles(p) for i in cyc}
    return [lengths[i] for i in range(len(p))]


def _renamed_chain(G, rename):
    """_lex_chain of G with its points renamed by `rename`, with no
    Schreier-Sims run: random elements of G, renamed, are sifted into a
    chain, each residue installed from level 0.  The chain is always one
    of a subgroup, so transversal lengths that multiply to |G| certify
    it complete.  CertificateError after SIFT_STREAK trivial sifts in a
    row short of that."""
    H, streak, elements = PermGroup([], G.degree), 0, map(rename, _random_elements(G))
    while prod(map(len, H._transversals)) < G.order:
        residue = H._sift(next(elements))
        if residue is not None:
            H._install(residue, 0)
            streak = 0
        elif (streak := streak + 1) == SIFT_STREAK:
            raise CertificateError(f"renamed chain: {SIFT_STREAK} trivial sifts short of order {G.order}")
    return _lex_chain(H)


def _conjugator_search(G, x):
    """find(y) -> some g in G with conjugate(x, g) == y, or None.

    Set-up, once per x: relabel the points so that x's cycles are
    consecutive runs, longest first, and take the lex chain of G under
    that renaming (_renamed_chain).  Its base points b_0 < b_1 < ... then
    follow x's cycles, and most base points find their x-preimage before
    them.  find is one _walk of that chain; g conjugates x to y exactly
    when y[g[i]] = g[x[i]] for every point i, so at a node c:
    - Forced child: if x^-1(b) < b, every conjugator g below c has
      g(b) = y(c(x^-1 b)), so at most one child is kept, by lookup.
    - Otherwise a conjugator maps b's x-cycle onto a y-cycle of the same
      length, so only children that send b onto such a y-cycle are kept,
      in increasing order of the image of b: the walk reads only cosets,
      and find returns the lex-least conjugator in the renamed points.
    - A window checks the x-cycle length of each of its points against
      the y-cycle length of its image, and y[g[i]] = g[x[i]] for every
      pair (i, x[i]) whose later end lies in it.
    So every leaf is a conjugator.  Raises CapExceeded once one find
    exceeds CONJUGACY_CAP node-points.
    """
    n = G.degree
    order = tuple(i for cyc in sorted(cycles(x), key=len, reverse=True) for i in cyc)
    pos = inverse(order)  # point i is renamed pos[i]
    pick, unpick = _left(order), _left(pos)

    def relabel(p):  # p with its points renamed
        return _left(pick(p))(pos)

    levels = _renamed_chain(G, relabel)
    xr = relabel(x)
    xinv = inverse(xr)
    xlen = _cycle_length_map(xr)
    windows = _windows(levels, n, [xr])

    def find(y):
        yr = relabel(y)
        ylen = _cycle_length_map(yr)

        def children(c, d, left):
            b = levels[d][0]
            if xinv[b] < b:
                pt = c.index(yr[c[xinv[b]]])
                return [pt] if pt in left else []
            return sorted((pt for pt in left if ylen[c[pt]] == xlen[b]), key=c.__getitem__)

        def accept(g, w, state):
            window, (pairs,) = windows[w]
            ok = all(ylen[g[j]] == xlen[j] for j in window) and all(yr[g[i]] == g[j] for i, j in pairs)
            return state if ok else None

        g, _ = _walk(levels, n, children, accept, lambda g: True, True, 0, CONJUGACY_CAP, "fusion: conjugacy search")
        return None if g is None else _left(unpick(g))(order)  # in G's point names

    return find


def _orbital_counts(G):
    """x -> the sorted orbital labels of the pairs (i, x(i)) for transitive
    G, else (): a G-class invariant, as g in G maps (i, x(i)) to the pair
    (g(i), x^g(g(i))) of the same orbital.  The orbital of (i, j) is the
    suborbit (orbit of G_0, generated by level 1) of u^-1(j), where u is
    the level-0 transversal element mapping 0 to i."""
    n, strong = G.degree, G._strong[1] if len(G.base) > 1 else ()
    if not G.base or len(G._transversals[0]) < n:
        return lambda x: ()
    suborbit = [None] * n
    for a in range(n):
        queue = [a] if suborbit[a] is None else []
        for b in queue:
            if suborbit[b] is None:
                suborbit[b] = a
                queue += [s[b] for s in strong]
    trans = G._transversals[0]
    return lambda x: sorted(suborbit[trans[i].index(x[i])] for i in range(n))


def fuse_by_conjugacy(G, reps):
    """Partition `reps` by G-conjugacy; returns a list of group labels 0..k-1.

    Each representative x not yet labelled opens the next label.  A
    later unlabelled representative y with another cycle type or other
    orbital counts (_orbital_counts) is not conjugate to x; every other
    one is decided by one backtrack search over one chain built for x
    (_conjugator_search, set up at the first such y).  Each g found is
    certified before y takes x's label: CertificateError unless g is in
    G and conjugate(x, g) == y.
    """
    labels = [None] * len(reps)
    counts = _orbital_counts(G)
    keys = [(cycle_lengths(x), counts(x)) for x in reps]
    next_label = 0
    for i, x in enumerate(reps):
        if labels[i] is not None:
            continue
        labels[i], find = next_label, None
        for j, y in enumerate(reps[i + 1:], i + 1):
            if labels[j] is not None or keys[j] != keys[i]:
                continue
            find = find or _conjugator_search(G, x)
            g = find(y)
            if g is None:
                continue
            if g not in G or conjugate(x, g) != y:
                raise CertificateError(f"fusion: {format_perm(g)} does not conjugate {format_perm(x)} to {format_perm(y)}")
            labels[j] = next_label
        next_label += 1
    return labels
