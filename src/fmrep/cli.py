"""Command-line interface and run orchestration.

    fmrep run --group <name|file> --prime <p> [--partition file]
              [--mode full|fusion|lattice] [--out report.json]
    fmrep verify [--tier fast|table|all]
    fmrep catalog list

Exit codes: 0 ok, 2 invalid input, 3 enumeration cap exceeded,
4 catalog expectation mismatch, 5 failed certificate (a fault in fmrep).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import catalog as cat
from .chartab import character_table
from .fimonoid import analyze
from .fusion import InvalidPartition, fusion_from_partition, fusion_pattern
from .permcore import (
    CapExceeded,
    CertificateError,
    _p_part,
    group_from_generators,
    is_prime,
    max_point,
    parse_perm,
    sylow_subgroup,
)
from .report import RunReport, witness_dict
from .repring import rep_lattice

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_CERTIFICATE = 5

# points of a group read from a file, checked before any permutation is built
DEGREE_CAP = 10**5


class InputError(ValueError):
    pass


def read_generator_file(path):
    """Text format: optional `degree N` header, then one generator per
    line in 1-based disjoint-cycle notation; `()` is the identity.
    Degree defaults to the largest point mentioned; above DEGREE_CAP it
    raises CapExceeded before any permutation is parsed."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as ex:
        raise InputError(f"cannot read group file {path}: {ex}")
    degree = None
    gen_lines = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("degree"):
            parts = line.split()
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise InputError(f"bad degree header: {line!r}")
            degree = int(parts[1])
        else:
            gen_lines.append(line)
    if not gen_lines:
        raise InputError("group file contains no generators")
    if degree is None:
        degree = max(max_point(g) for g in gen_lines)
        if degree == 0:
            raise InputError("cannot infer degree from identity-only input")
    if degree > DEGREE_CAP:
        raise CapExceeded(f"degree {degree} exceeds cap {DEGREE_CAP}")
    try:
        return [parse_perm(g, degree) for g in gen_lines], degree
    except ValueError as ex:
        raise InputError(str(ex))


def read_partition_file(path):
    """JSON list of lists of 1-based class indices, e.g. [[1],[2,3]]."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as ex:
        raise InputError(f"cannot read partition file {path}: {ex}")
    if not isinstance(data, list) or not all(
        isinstance(block, list) and all(type(i) is int for i in block)  # bool is an int
        for block in data
    ):
        raise InputError("partition must be a list of lists of integers")
    return data


def resolve_group(source):
    """Return (group, name, kind, default_prime) from a catalog name or path."""
    if source in cat.CATALOG:
        return cat.load_group(source), source, "catalog", cat.CATALOG[source].prime
    if Path(source).exists():
        gens, degree = read_generator_file(source)
        return group_from_generators(gens, degree), Path(source).name, "file", None
    raise InputError(f"{source!r} is neither a catalog name nor a readable file")


def run_analysis(G, prime, mode="full", partition=None, name="?",
                 source="catalog", label_style=None):
    """Run the pipeline on one group and assemble the RunReport.

    With a partition, G itself is taken as the Sylow subgroup and the
    fusion comes from the partition instead of ambient conjugacy.
    """
    timings = {}
    t0 = time.perf_counter()
    if partition is not None:
        S = G
        if _p_part(S.order, prime) != S.order:
            raise InputError(
                f"--partition needs the input group to be a {prime}-group; order is {S.order}"
            )
    else:
        S = sylow_subgroup(G, prime)
        if S.order == 1:
            raise InputError(f"{prime} does not divide the group order {G.order}")
    timings["sylow"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    table = character_table(S)
    timings["character_table"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if partition is not None:
        pattern = fusion_from_partition(partition, table)
    else:
        pattern = fusion_pattern(G, S, table)
    timings["fusion"] = time.perf_counter() - t0

    names = None
    labels = cat.traditional_labels(label_style, table)
    if labels:
        names = [labels.get(i, f"r{i + 1}") for i in range(table.irr_count)]

    report = RunReport(
        group=name,
        source=source,
        prime=prime,
        mode=mode,
        degree=G.degree,
        group_order=G.order,
        sylow_order=S.order,
        sylow_class_count=table.class_count,
        fusion_labels=list(pattern.labels),
        fusion_class_count=pattern.class_count,
        partition=partition,
        irr_degrees=list(table.degrees),
        irr_names=names,
        timings=timings,
    )
    if mode == "fusion":
        return report

    t0 = time.perf_counter()
    lattice = rep_lattice(pattern, table)
    timings["lattice"] = time.perf_counter() - t0
    report.lattice_rank = lattice.rank
    report.lattice_basis = [list(r) for r in lattice.basis]
    if mode == "lattice":
        return report

    t0 = time.perf_counter()
    result = analyze(lattice, table, pattern)
    timings["atoms"] = time.perf_counter() - t0
    report.atoms = [list(a) for a in result.atoms]
    report.atom_dimensions = [table.dimension_of(a) for a in result.atoms]
    report.factorial = result.factorial
    report.half_factorial = result.half_factorial
    report.factorization_witness = witness_dict(result.factorization_witness)
    report.length_witness = witness_dict(result.length_witness)
    report.regular_conjecture_holds = result.regular_conjecture_holds
    report.transitive = result.transitive
    return report


def verify_catalog(tier="all", out=None):
    """Run catalog entries and diff the computed values against the
    pinned expectations; returns the list of mismatch strings."""
    out = out if out is not None else sys.stdout
    tiers = ("fast", "table") if tier == "all" else (tier,)
    mismatches = []
    for entry in cat.CATALOG.values():
        if entry.tier not in tiers:
            continue
        G = cat.load_group(entry.name)
        report = run_analysis(
            G, entry.prime, mode="full", name=entry.name,
            source="catalog", label_style=entry.label_style,
        )
        computed = {
            "fusion classes": report.fusion_class_count,
            "atoms": len(report.atoms),
            "factorial": report.factorial,
            "half-factorial": report.half_factorial,
        }
        diffs = []
        for key, expected in entry.expect.items():
            if expected is not None and computed[key] != expected:
                diffs.append(f"{key}: expected {expected}, computed {computed[key]}")
        status = "ok" if not diffs else "MISMATCH"
        out.write(
            f"{entry.name:<9} p={entry.prime}  classes={computed['fusion classes']:<3}"
            f"atoms={computed['atoms']:<4}factorial={str(computed['factorial']):<6}"
            f"half-factorial={str(computed['half-factorial']):<6} {status}\n"
        )
        for d in diffs:
            mismatches.append(f"{entry.name}: {d}")
            out.write(f"    {d}\n")
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fmrep",
        description="Monoids of fusion-invariant representations of Sylow subgroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="analyze one group")
    p_run.add_argument("--group", required=True, help="catalog name or generator file")
    p_run.add_argument("--prime", type=int, help="prime p (defaults to the catalog entry's)")
    p_run.add_argument("--partition", help="fusion partition file (group is taken as the Sylow subgroup)")
    p_run.add_argument("--mode", choices=["full", "fusion", "lattice"], default="full")
    p_run.add_argument("--out", help="write the full JSON report here")
    p_run.add_argument("--timings", action="store_true", help="append timings to the text output")

    p_verify = sub.add_parser("verify", help="check catalog expectations")
    p_verify.add_argument("--tier", choices=["fast", "table", "all"], default="all")

    p_cat = sub.add_parser("catalog", help="catalog inspection")
    p_cat.add_argument("action", choices=["list"])

    args = parser.parse_args(argv)

    if args.command == "catalog":
        for entry in cat.CATALOG.values():
            expect = ", ".join(
                f"{k}={v}" for k, v in entry.expect.items() if v is not None
            )
            note = f"  [{entry.note}]" if entry.note else ""
            print(f"{entry.name:<9} p={entry.prime}  tier={entry.tier:<7} {expect}{note}")
        return EXIT_OK

    try:
        if args.command == "verify":
            mismatches = verify_catalog(args.tier)
            if mismatches:
                print(f"{len(mismatches)} expectation mismatch(es)", file=sys.stderr)
                return EXIT_MISMATCH
            return EXIT_OK
        G, name, kind, default_prime = resolve_group(args.group)
        prime = args.prime if args.prime is not None else default_prime
        if prime is None:
            raise InputError("--prime is required for file-based groups")
        # before the primality test, whose trial division of a huge prime takes
        # minutes; with --partition, the trivial group is a p-group for every p
        if prime > 1 and G.order % prime and (not args.partition or G.order > 1):
            raise InputError(f"{prime} does not divide the group order {G.order}")
        if not is_prime(prime):
            raise InputError(f"{prime} is not prime")
        partition = read_partition_file(args.partition) if args.partition else None
        label_style = cat.CATALOG[name].label_style if kind == "catalog" else None
        report = run_analysis(
            G, prime, mode=args.mode, partition=partition, name=name,
            source=kind, label_style=label_style,
        )
    except (InputError, InvalidPartition) as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as ex:
        print(f"cap exceeded: {ex}", file=sys.stderr)
        return EXIT_CAP
    except CertificateError as ex:
        print(f"certificate failed: {ex}", file=sys.stderr)
        return EXIT_CERTIFICATE

    sys.stdout.write(report.to_text(include_timings=args.timings))
    if args.out:
        try:
            Path(args.out).write_text(
                json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"
            )
        except OSError as ex:
            print(f"input error: cannot write report {args.out}: {ex}", file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
