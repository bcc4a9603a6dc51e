"""Inputs for the three benchmark workloads.

catalog     every `fast` and `table` catalog entry in full mode, from
            its generator words (the set `fmrep verify --tier all` runs).
tables      partition-mode runs in lattice mode on direct products of
            Sylow subgroups, one block per element order.
partitions  fusion_from_partition -> rep_lattice -> analyze on a pool
            of partitions of three precomputed Sylow tables, stratified
            by lattice rank, plus a fixed share of partitions that meet
            every documented rule but are not stable under power maps.

The workload seed orders the inputs and changes nothing else.  Inputs
that differ cost different amounts: on a 2-core x86-64 virtual machine,
relabelling the points of P2(S6) x P2(S6) moved its table time by 25%,
and partition pools drawn from the seed moved the pass time by 10-14%
from seed to seed.  A
benchmark whose seeds disagree that much cannot hold a useful bound.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import gcd
from typing import Optional

DEFAULT_SEED = 1

# Sylow subgroups as generator words, isomorphic to the catalog's:
# P2(S8) = C2 wr C2 wr C2, P3(S9) = C3 wr C3, P2(S6) = D8 x C2, and
# P2(PSL2_31) = D32 (31 = -1 mod 32, so the Sylow 2-subgroup is dihedral).
SYLOW_WORDS = {
    "P2(S8)": (8, ["(1,2)", "(1,3)(2,4)", "(1,5)(2,6)(3,7)(4,8)"]),
    "P3(S9)": (9, ["(1,2,3)", "(1,4,7)(2,5,8)(3,6,9)"]),
    "P2(S6)": (6, ["(1,2)", "(1,3)(2,4)", "(5,6)"]),
    "P2(PSL2_31)": (16, ["(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16)",
                         "(2,16)(3,15)(4,14)(5,13)(6,12)(7,11)(8,10)"]),
    "C2": (2, ["(1,2)"]),
    "C3": (3, ["(1,2,3)"]),
}

# tables: (prime, factors).  k = 51, 100 and 40 classes; IRR_CAP = 32
# keeps the atoms stage out of every one of them.
TABLE_PRODUCTS = [
    (3, ("P3(S9)", "C3")),
    (2, ("P2(S6)", "P2(S6)")),
    (2, ("P2(S8)", "C2")),
]

# partitions: (name, prime, ranks drawn, draws per rank per round).
# P2(S8) stops at rank 5: at rank 6 one partition takes 0.04 s to more
# than 9 s, which no run length here can average out.  P3(S9) and
# P2(PSL2_31) cover every rank they have.
PARTITION_STRATA = [
    ("P2(S8)", 2, (4, 5), (4, 12)),
    ("P3(S9)", 3, (3, 4, 5, 6, 7, 8, 9), (3,) * 7),
    ("P2(PSL2_31)", 2, (5, 6, 7), (2, 3, 3)),
]
# Unstable partitions per round, by table: 3 of 48 inputs, a share of 1/16.
UNSTABLE_DRAWS = (("P3(S9)", 2), ("P2(PSL2_31)", 1))
# Rounds of PARTITION_STRATA and UNSTABLE_DRAWS in the pool.
POOL_ROUNDS = 2


@dataclass
class Input:
    """One pipeline run: a group, a prime and optionally a partition."""

    id: str
    group: object
    prime: int
    partition: Optional[list] = None
    table: object = None  # precomputed character table (partitions only)
    stable: bool = True
    entry: object = None  # catalog entry (catalog only)
    table_name: str = ""  # key into SYLOW_WORDS (partitions only)


def shift_word(word, offset):
    """Cycle word with every point p replaced by p + offset."""
    return re.sub(r"\d+", lambda m: str(int(m.group()) + offset), word)


def product_words(factors):
    """Degree and generator words of the direct product of named factors."""
    degree, words = 0, []
    for name in factors:
        d, ws = SYLOW_WORDS[name]
        words += [shift_word(w, degree) for w in ws]
        degree += d
    return degree, words


def build(api, degree, words):
    return api.group_from_generators([api.parse_perm(w, degree) for w in words], degree)


# -- catalog ---------------------------------------------------------------


def setup_catalog(api):
    return {e.name: api.load_group(e.name) for e in api.CATALOG.values()
            if e.tier in ("fast", "table")}


def catalog_inputs(api, groups, seed):
    names = list(groups)
    random.Random(f"catalog:{seed}").shuffle(names)
    out = []
    for name in names:
        entry = api.CATALOG[name]
        out.append(Input(id=name, group=groups[name], prime=entry.prime, entry=entry))
    return out


# -- tables ----------------------------------------------------------------


def setup_tables(api):
    out = []
    for prime, factors in TABLE_PRODUCTS:
        degree, words = product_words(factors)
        out.append(("x".join(factors), prime, build(api, degree, words)))
    return out


def order_blocks(classes):
    """One block of 1-based class indices per element order."""
    blocks = {}
    for i, c in enumerate(classes):
        blocks.setdefault(c.element_order, []).append(i + 1)
    return [blocks[o] for o in sorted(blocks)]


def tables_inputs(api, groups, seed):
    out = []
    for name, prime, S in groups:
        classes, _ = api.class_partition(S)
        out.append(Input(id=name, group=S, prime=prime, partition=order_blocks(classes)))
    random.Random(f"tables:{seed}").shuffle(out)
    return out


# -- partitions ------------------------------------------------------------


def setup_partitions(api):
    """Build each Sylow subgroup of PARTITION_STRATA and compute its table."""
    out = {}
    for name, prime, _, _ in PARTITION_STRATA:
        degree, words = SYLOW_WORDS[name]
        S = build(api, degree, words)
        out[name] = (prime, api.character_table(S))
    return out


@dataclass
class GaloisData:
    """Rational classes of a table: Galois orbits grouped by element
    order, and the class-level power maps x -> x^t for t prime to |S|."""

    orbits: dict  # element order -> list of orbits (sorted 1-based indices)
    power_maps: list  # per unit t, 0-based class index -> class index of x^t


def galois_data(api, table):
    S = table.group
    classes, lookup = api.class_partition(S)
    if [c.representative for c in classes] != [c.representative for c in table.classes]:
        raise RuntimeError("class_partition order differs from the table's class order")
    reps = [c.representative for c in classes]
    units = [t for t in range(1, table.exponent) if gcd(t, table.exponent) == 1]
    power_maps = [[lookup[api.power(r, t)] for r in reps] for t in units]
    orbits, seen = {}, set()
    for j, c in enumerate(classes):
        if j in seen:
            continue
        orbit = sorted({pm[j] for pm in power_maps})
        seen.update(orbit)
        orbits.setdefault(c.element_order, []).append([i + 1 for i in orbit])
    return GaloisData(orbits=orbits, power_maps=power_maps)


def rank_range(gd):
    """Fewest and most blocks a stable partition can have."""
    orders = [o for o in gd.orbits if o != 1]
    return 1 + len(orders), 1 + sum(len(gd.orbits[o]) for o in orders)


def draw_stable(rng, gd, rank):
    """A union-of-Galois-orbits partition with exactly `rank` blocks,
    each block within one element order, the identity alone."""
    orders = sorted(o for o in gd.orbits if o != 1)
    lo, hi = rank_range(gd)
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} outside {lo}..{hi}")
    counts = {o: 1 for o in orders}
    slots = [o for o in orders for _ in range(len(gd.orbits[o]) - 1)]
    for o in rng.sample(slots, rank - lo):
        counts[o] += 1
    blocks = [[1]]
    for o in orders:
        orbits = [list(x) for x in gd.orbits[o]]
        rng.shuffle(orbits)
        parts = orbits[:counts[o]]
        for orbit in orbits[counts[o]:]:
            parts[rng.randrange(counts[o])].extend(orbit)
        blocks += parts
    return sorted(sorted(b) for b in blocks)


def is_power_stable(partition, gd):
    """Whether every power map x -> x^t permutes the blocks."""
    blocks = {frozenset(i - 1 for i in b) for b in partition}
    return all(frozenset(pm[i] for i in b) in blocks
               for pm in gd.power_maps for b in blocks)


def draw_unstable(rng, gd, attempts=1000):
    """A partition meeting every documented rule (identity alone, one
    element order per block, each class once) whose blocks some power
    map does not permute: one Galois orbit is split across blocks."""
    lo, hi = rank_range(gd)
    split_orders = [o for o in sorted(gd.orbits) if any(len(x) > 1 for x in gd.orbits[o])]
    if not split_orders:
        raise ValueError("every Galois orbit is a single class; no unstable partition")
    for _ in range(attempts):
        blocks = [list(b) for b in draw_stable(rng, gd, rng.randint(lo, hi))]
        order = rng.choice(split_orders)
        orbit = rng.choice([x for x in gd.orbits[order] if len(x) > 1])
        moved = rng.sample(orbit, rng.randint(1, len(orbit) - 1))
        home = next(b for b in blocks if moved[0] in b)
        for i in moved:
            home.remove(i)
        same_order = {i for x in gd.orbits[order] for i in x}
        peers = [b for b in blocks if b is not home and b[0] in same_order]
        if peers and rng.random() < 0.5:
            rng.choice(peers).extend(moved)
        else:
            blocks.append(list(moved))
        partition = sorted(sorted(b) for b in blocks if b)
        if not is_power_stable(partition, gd):
            return partition
    raise RuntimeError("no unstable partition found")


def partition_pool(tables, galois):
    """The stratified draw, the same for every seed (see the module
    docstring)."""
    rng = random.Random("partitions:pool:0")
    pool = []

    def add(name, part, stable):
        prime, table = tables[name]
        kind = "" if stable else ":unstable"
        pool.append(Input(id=f"{name}:r{len(part)}{kind}:{len(pool)}", group=table.group,
                          prime=prime, partition=part, table=table, stable=stable,
                          table_name=name))

    for _ in range(POOL_ROUNDS):
        for name, _, ranks, draws in PARTITION_STRATA:
            for rank, n in zip(ranks, draws):
                for _ in range(n):
                    add(name, draw_stable(rng, galois[name], rank), True)
        for name, n in UNSTABLE_DRAWS:
            for _ in range(n):
                add(name, draw_unstable(rng, galois[name]), False)
    return pool


def partition_inputs(tables, galois, seed):
    pool = partition_pool(tables, galois)
    random.Random(f"partitions:{seed}").shuffle(pool)
    return pool
