#!/usr/bin/env python3
"""Time `chartab.character_table` and `repring.rep_lattice` on products
of Sylow subgroups.

Builds P3(S9) x C3 (k = 51), P3(S9) x C3 x C3 (k = 153),
P3(S9) x P3(S9) (k = 289) and C2^8 (k = 256, every class central),
times the table of each, then the lattice of the partition with one
block per element order, then that lattice's integer kernel alone
(best of N runs each).  The table rows, the lattice basis and the
kernel are checked against pinned SHA-256 digests, each taken over one
line per row with its entries joined by ", "; the kernel is the
lattice basis and shares its digest.  Exits 1 if any digest differs.

Usage: python tools/table_sweep.py [--repeat N]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fmrep.chartab import character_table
from fmrep.fusion import fusion_from_partition
from fmrep.intlin import integer_kernel
from fmrep.permcore import group_from_generators, parse_perm
from fmrep.repring import difference_matrix, rep_lattice

C3WRC3 = ["(1,2,3)", "(1,4,7)(2,5,8)(3,6,9)"]
C3 = ["(1,2,3)"]
C2 = ["(1,2)"]

# (name, expected class count, factors as generator words on points 1..d,
#  table digest, lattice digest)
PRODUCTS = [
    ("P3(S9)xC3", 51, [(9, C3WRC3), (3, C3)],
     "459f7910b3bee3f9942b61fd0ac794ab478b2e7a3fb3c6a2271c148dbc906781",
     "9bbe1ad3d60603edd3760756fdb7dc96a8bdd3fe4ba77763e2299d64a642f3be"),
    ("P3(S9)xC3xC3", 153, [(9, C3WRC3), (3, C3), (3, C3)],
     "e48fd13a87f0f3f077ff09a0296f8c89499a704e0925b234dbdc443ace534788",
     "03099472de685ba5f3bd08ac51fe93ba696178de523a266fb4e660b8923e3db6"),
    ("P3(S9)xP3(S9)", 289, [(9, C3WRC3), (9, C3WRC3)],
     "d6c6092f0534f142c96d7fd83deb4146a1fa42b522a8095fdb09c86ab69dfb63",
     "f07ec8b9fbfc66253fe628194a03f82db2eaa40770650360d274cf0644b37f42"),
    ("C2^8", 256, [(2, C2)] * 8,
     "3c38eb34e408104126387e075303b3bfdd6d184d3314aa6c26357e950b8b4bd9",
     "f9e587a87f23fad40db555c0c1fee3bd8b2e43adb9bf976f6933c1eda3f2848d"),
]


def direct_product(factors):
    """Direct product of the factors, each moved onto its own points."""
    degree = sum(d for d, _ in factors)
    gens, offset = [], 0
    for d, words in factors:
        for w in words:
            p = parse_perm(w, d)
            gens.append(tuple(range(offset)) + tuple(x + offset for x in p)
                        + tuple(range(offset + d, degree)))
        offset += d
    return group_from_generators(gens, degree)


def rows_digest(rows):
    text = "\n".join(", ".join(str(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def order_partition(table):
    """One block of 1-based class indices per element order."""
    blocks = {}
    for i, c in enumerate(table.classes):
        blocks.setdefault(c.element_order, []).append(i + 1)
    return [blocks[o] for o in sorted(blocks)]


def best_of(repeat, f, *args):
    """(least wall time over `repeat` calls, result of the last call)."""
    best = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = f(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def report(name, k, stage, best, digest, pin):
    match = digest == pin
    print(f"{name:14s} k={k:4d}  {stage:7s} best {best:7.3f} s  "
          f"rows {digest[:16]}  {'ok' if match else 'MISMATCH ' + digest}", flush=True)
    return match


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per stage; the best is printed")
    args = ap.parse_args(argv)
    ok = True
    for name, k, factors, table_pin, lattice_pin in PRODUCTS:
        S = direct_product(factors)
        best, T = best_of(args.repeat, character_table, S)
        ok &= T.class_count == k
        ok &= report(name, T.class_count, "table", best, rows_digest(T.chars), table_pin)
        F = fusion_from_partition(order_partition(T), T)
        best, L = best_of(args.repeat, rep_lattice, F, T)
        ok &= report(name, T.class_count, "lattice", best, rows_digest(L.basis), lattice_pin)
        best, K = best_of(args.repeat, integer_kernel, difference_matrix(F, T))
        ok &= report(name, T.class_count, "kernel", best, rows_digest(K), lattice_pin)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
