#!/usr/bin/env python3
"""Time permcore's Sylow and fusion stages on catalog groups.

For each fast and table catalog entry, then PSU3_9 and PSL3_19 (or for
the entries named on the command line), builds the Sylow subgroup S and
fuses the representatives of S's classes by G-conjugacy, best of N runs
each.  Prints, per entry:
- Sylow: time and the number of lex walks (_lex_first calls);
- fusion: time, the time spent building the renamed chains
  (_renamed_chain), the conjugacy searches run, and the pairs of one
  cycle type that the orbital counts refuted with no search.

S's generators and the fusion labels are checked against pinned SHA-256
digests: of S's generators in cycle notation, one per line, and of the
labels joined by ", ".  Exits 1 if any digest differs.

Usage: python tools/permcore_sweep.py [--repeat N] [NAME ...]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fmrep import permcore
from fmrep.catalog import CATALOG, load_group
from fmrep.permcore import class_partition, cycle_lengths, format_perm, fuse_by_conjugacy, sylow_subgroup

# name -> (digest of S's generators, digest of the fusion labels)
PINS = {
    "S3": ("f2c3dd3603e7a7619fad6b98db59dfbcb5f3b38ac02da6f0265aeff476976081",
        "db27a1806e075a061fb9953b10aa0a3a3f3dfec5fada6668a94a32dfc3d9d3d1"),
    "S4": ("e2587bf849f65a31ba06148e7c7a39d4d8f8c1fc54cc7e525c17c504496a50ea",
        "cc052e78e11e6075345705a0c8126c3c834f3c023a899507308e20d30ff3dc32"),
    "S6": ("3f405071200df816c5e24b22716eacf84cac9a8b0a0fba2485d108e9098f44da",
        "3c767d6b16d2f425067d58c404ab560876a1ef145cbfe9e1a31a8a2798760d2a"),
    "S8": ("bc86f53fddfb63bf1cdffd916c3c90afdc71a49d5eee6d72cbd21b9b5eaf2c14",
        "271aee73c90213742a0a14306af02707ce5c2660718b558e94cbf8a43be1299e"),
    "S9": ("ad2f1c3ea7da7f8f99b23001e5ee151ac4baa25e3318d13986bfa6214918dc11",
        "b04cd2f7ce6657cdeae0997ce48290a2a8417ae33016553caaccf7de7d0ca189"),
    "A6": ("4953ea47eb6527c24852fae0b47b462e2da9d45938681275c9804281b0e99b64",
        "c2c448a78096c5b34a69f2ca7a1ff5c11118ec205b313024f572d8c2fa55acd9"),
    "A8": ("75652a0d991c24cb7640eb301eb7e7ef07f7bca08134ce2670d1875f9ec00152",
        "a73b9fc7a6b7d170d895a452dd9fd078f5dfda17889917f2f4637bbd502478cd"),
    "A9": ("ad2f1c3ea7da7f8f99b23001e5ee151ac4baa25e3318d13986bfa6214918dc11",
        "64d5059214f8259763a2698b0dfc412a0dbf7a1075537bde5b240f17f4077e9b"),
    "D8": ("e2587bf849f65a31ba06148e7c7a39d4d8f8c1fc54cc7e525c17c504496a50ea",
        "2bfbce1a0740cd2a0d520a9cf413336f495179b142ba0f8627ffaa9cef189316"),
    "Q8": ("381a40d8fadc83829d128bd0d6c60a6f8f1543c234902eb9d1b1711c646a1ea0",
        "2bfbce1a0740cd2a0d520a9cf413336f495179b142ba0f8627ffaa9cef189316"),
    "SL2_3": ("94baa7ed0fda3756198f93f7e696bb34969a6a52dece1894310e65bdce6bb151",
        "20373450af43dadc3aa9ad0b3de3b5ae30eef31e866f1b27ab2f6acd5601e806"),
    "M10": ("1cb1e6b02fee900f7f383ff2ccad737c77f18876a4646c21e41e0db55b4e8273",
        "da74bcd77b65af0a25a9b9e69ae02655b9d7495b0896b6a664606365402369f3"),
    "PSL2_17": ("84f9759cd1ffe8783c57584dbfa00b174046312b0a44b218ac5599dedfdcc504",
        "98026d83171b83f34e3c58c609f4bde6705c43060ab6117f44001b6236b880b4"),
    "PSL2_31": ("cf8ea14e3788e455eb34d4cc9ad098bfb2bc5f055125d3633353eb632ce1f280",
        "0ad6964422084e5eef20b4371fa37a30f58a70e02b1717ae536974d34617b148"),
    "SL3_3": ("4ea7f9d0eef0130c00ed0fedf2aab27da8ab422f55354a11faab9be602cadfaa",
        "35c3627774964d2f9ace76660ee6991bab2a4555922bf286c727e0076d5eb95a"),
    "GL3_3": ("586df7d27699b7b45aa1c6c5a54031ed537bc59d398f556f5f76fea43ae7a9e7",
        "a1b7e65715e0da6cbce5553137885b55a60f8070dfb71ddb7046f3fa6b470ace"),
    "PSL3_5": ("b221c4ac101c6756a5e4b20201df56c795ed0998d2ba97ca45654eb46081e77e",
        "ee4b3119c7e6c4c54c2d811c6be7e219e86626513aa2e6d562243448a92539bc"),
    "PSU3_5": ("1b63df316057b9a5edcce41b37b0b0da9d95e189fedeccb3e6520741c8815fe4",
        "35c3627774964d2f9ace76660ee6991bab2a4555922bf286c727e0076d5eb95a"),
    "PSp4_3": ("4974aef7f923ef05c04ce9e42c9e8e8cc221d7ffbc1a1f7205e13224c3aef6af",
        "b92ba7f1b1c58ed6c8b9b4bb54c0feb68e587826bf11e1b0209c9f34ce1431ad"),
    "PSU3_9": ("3d0f18794740aa4645d7dc75c56c5dd6c05a653ec87efc747f1b769cd0161099",
        "7b9764d01cb3334a9c215d4931e9abb3b81017a62538bacd7bb49b46256ea5f4"),
    "PSL3_19": ("56ba747e90601d8cd8ce480dee4fcc6ace295b92811666f1c2301fd2dc142913",
        "29b4955d766ee390a4a37b1aa1ffaa33fba0f593796ad81af34005deb4fff6a7"),
}
DEFAULT = [n for n, e in CATALOG.items() if e.tier in ("fast", "table")] + ["PSU3_9", "PSL3_19"]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Meter:
    """Counts the calls of permcore functions, and the time spent in them,
    while they are wrapped."""

    def __init__(self, *names):
        self.calls = dict.fromkeys(names, 0)
        self.seconds = dict.fromkeys(names, 0.0)
        self.real = {name: getattr(permcore, name) for name in names}
        for name in names:
            setattr(permcore, name, self._wrap(name))

    def _wrap(self, name):
        def wrapped(*args):
            t0 = time.perf_counter()
            try:
                return self.real[name](*args)
            finally:
                self.calls[name] += 1
                self.seconds[name] += time.perf_counter() - t0
        return wrapped

    def close(self):
        for name, f in self.real.items():
            setattr(permcore, name, f)


def timed(repeat, f, *names):
    """(least wall time over `repeat` calls of f(), its result, the Meter
    of the fastest call)."""
    best = None
    for _ in range(max(1, repeat)):
        meter = Meter(*names)
        t0 = time.perf_counter()
        try:
            result = f()
        finally:
            meter.close()
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, result, meter)
    return best


def candidate_pairs(reps, labels):
    """The pairs (x, y) that fuse_by_conjugacy meets with y unlabelled and
    of x's cycle type: y comes after an opener x and was not taken by an
    earlier opener (labels are numbered in opening order)."""
    openers = {}
    for i, label in enumerate(labels):
        openers.setdefault(label, i)
    return sum(
        1
        for i in openers.values()
        for j in range(i + 1, len(reps))
        if labels[j] >= labels[i] and cycle_lengths(reps[j]) == cycle_lengths(reps[i])
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="runs per stage; the best is printed")
    ap.add_argument("names", nargs="*", default=DEFAULT, help="catalog entries (default: fast, table, PSU3_9, PSL3_19)")
    args = ap.parse_args(argv)
    ok = True
    totals = [0.0, 0.0]
    for name in args.names:
        G, p = load_group(name), CATALOG[name].prime
        sylow_s, S, sylow = timed(args.repeat, lambda: sylow_subgroup(G, p), "_lex_first")
        reps = [c.representative for c in class_partition(S)[0]]
        fusion_s, labels, fusion = timed(args.repeat, lambda: fuse_by_conjugacy(G, reps), "_renamed_chain", "_walk")
        searches = fusion.calls["_walk"]
        pins = (digest("\n".join(map(format_perm, S.generators))), digest(", ".join(map(str, labels))))
        match = PINS.get(name) == pins
        ok &= match
        totals[0] += sylow_s
        totals[1] += fusion_s
        print(f"{name:8s} sylow {sylow_s:7.4f} s  walks {sylow.calls['_lex_first']:2d}   "
              f"fusion {fusion_s:7.4f} s  chains {fusion.seconds['_renamed_chain']:7.4f} s  "
              f"searches {searches:3d}  refuted {candidate_pairs(reps, labels) - searches:3d}  "
              f"{'ok' if match else 'MISMATCH ' + ' '.join(pins)}", flush=True)
    print(f"{'total':8s} sylow {totals[0]:7.4f} s            fusion {totals[1]:7.4f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
