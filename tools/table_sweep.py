#!/usr/bin/env python3
"""Time `chartab.character_table` on products of Sylow subgroups.

Builds P3(S9) x C3 (k = 51), P3(S9) x C3 x C3 (k = 153) and
P3(S9) x P3(S9) (k = 289), times the table of each (best of N runs),
and checks the rows against a pinned SHA-256 digest, taken over one
line per character with its values joined by ", ".  Exits 1 if any
digest differs.

Usage: python tools/table_sweep.py [--repeat N]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fmrep.chartab import character_table
from fmrep.permcore import group_from_generators, parse_perm

C3WRC3 = ["(1,2,3)", "(1,4,7)(2,5,8)(3,6,9)"]
C3 = ["(1,2,3)"]

# (name, expected class count, factors as generator words on points 1..d, digest)
PRODUCTS = [
    ("P3(S9)xC3", 51, [(9, C3WRC3), (3, C3)],
     "459f7910b3bee3f9942b61fd0ac794ab478b2e7a3fb3c6a2271c148dbc906781"),
    ("P3(S9)xC3xC3", 153, [(9, C3WRC3), (3, C3), (3, C3)],
     "e48fd13a87f0f3f077ff09a0296f8c89499a704e0925b234dbdc443ace534788"),
    ("P3(S9)xP3(S9)", 289, [(9, C3WRC3), (9, C3WRC3)],
     "d6c6092f0534f142c96d7fd83deb4146a1fa42b522a8095fdb09c86ab69dfb63"),
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


def rows_digest(table):
    text = "\n".join(", ".join(str(v) for v in row) for row in table.chars)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per table; the best is printed")
    args = ap.parse_args(argv)
    ok = True
    for name, k, factors, pin in PRODUCTS:
        S = direct_product(factors)
        best = None
        for _ in range(max(1, args.repeat)):
            t0 = time.perf_counter()
            T = character_table(S)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        digest = rows_digest(T)
        match = digest == pin and T.class_count == k
        ok &= match
        print(f"{name:14s} k={T.class_count:4d}  best {best:7.3f} s  "
              f"rows {digest[:16]}  {'ok' if match else 'MISMATCH ' + digest}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
