#!/usr/bin/env python3
"""fmrep benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog|tables|partitions \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; fmrep is imported from its `src/`.
With --trace 0 the run repeats whole passes over the workload's inputs
until --seconds have passed and prints the end-to-end metrics, taking
each input's median time over the passes.  With --trace 1 it makes one
untraced and one traced pass and prints the per-layer metrics.  Every
output is checked (see bench_checks.py).
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A record
of the run (metadata, every input and, when traced, every span) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bench_checks
import bench_inputs as bi
from bench_trace import Tracer, wrap_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"
SETUP_REPEATS = 7
MODULES = ("permcore", "cyclonum", "chartab", "fusion", "intlin", "repring",
           "fimonoid", "catalog", "report", "cli")
END_TO_END_UNITS = {"wall_s": "s", "run_max_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here: no fmrep sources under src/."""


def import_fmrep():
    """Import every fmrep module afresh from SRC; returns (modules, api).

    `api` holds the functions the benchmark itself calls, so that the
    traced run can wrap the benchmark's own call sites too.
    """
    if not (SRC / "fmrep" / "__init__.py").is_file():
        raise BenchError(f"no fmrep sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "fmrep" or m.startswith("fmrep.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"fmrep.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"fmrep imported from {mods['cli'].__file__}, not {SRC}")
    permcore, fusion, report = mods["permcore"], mods["fusion"], mods["report"]
    api = types.SimpleNamespace(
        CATALOG=mods["catalog"].CATALOG,
        load_group=mods["catalog"].load_group,
        group_from_generators=permcore.group_from_generators,
        parse_perm=permcore.parse_perm,
        power=permcore.power,
        class_partition=permcore.class_partition,
        character_table=mods["chartab"].character_table,
        fusion_from_partition=fusion.fusion_from_partition,
        InvalidPartition=fusion.InvalidPartition,
        rep_lattice=mods["repring"].rep_lattice,
        analyze=mods["fimonoid"].analyze,
        run_analysis=mods["cli"].run_analysis,
        RunReport=report.RunReport,
        witness_dict=report.witness_dict,
    )
    return mods, api


# -- workloads -------------------------------------------------------------


def run_catalog(api, inp):
    return api.run_analysis(inp.group, inp.prime, mode="full", name=inp.id,
                            source="catalog", label_style=inp.entry.label_style)


def run_tables(api, inp):
    return api.run_analysis(inp.group, inp.prime, mode="lattice",
                            partition=inp.partition, name=inp.id, source="bench")


def run_partition(api, inp):
    pattern = api.fusion_from_partition(inp.partition, inp.table)
    lattice = api.rep_lattice(pattern, inp.table)
    return pattern, lattice, api.analyze(lattice, inp.table, pattern)


def partition_report(api, inp, raw):
    """The RunReport that run_analysis would assemble for this input
    in full mode, from the precomputed table."""
    pattern, lattice, result = raw
    table, S = inp.table, inp.group
    return api.RunReport(
        group=inp.table_name, source="bench", prime=inp.prime, mode="full",
        degree=S.degree, group_order=S.order, sylow_order=S.order,
        sylow_class_count=table.class_count, fusion_labels=list(pattern.labels),
        fusion_class_count=pattern.class_count, partition=inp.partition,
        irr_degrees=list(table.degrees), lattice_rank=lattice.rank,
        lattice_basis=[list(r) for r in lattice.basis],
        atoms=[list(a) for a in result.atoms],
        atom_dimensions=[table.dimension_of(a) for a in result.atoms],
        factorial=result.factorial, half_factorial=result.half_factorial,
        factorization_witness=api.witness_dict(result.factorization_witness),
        length_witness=api.witness_dict(result.length_witness),
        regular_conjecture_holds=result.regular_conjecture_holds,
        transitive=result.transitive,
    )


def partitions_inputs(api, tables, seed):
    galois = {name: bi.galois_data(api, table) for name, (_, table) in tables.items()}
    return bi.partition_inputs(tables, galois, seed)


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (api) -> state; timed as setup_s with the import
    inputs: Callable  # (api, state, seed) -> the inputs of one pass
    run: Callable  # (api, input) -> raw result; the timed call
    report: Callable  # (api, input, raw) -> RunReport


WORKLOADS = {
    "catalog": Workload(
        setup=bi.setup_catalog,
        inputs=bi.catalog_inputs,
        run=run_catalog, report=lambda api, inp, raw: raw),
    "tables": Workload(
        setup=bi.setup_tables,
        inputs=bi.tables_inputs,
        run=run_tables, report=lambda api, inp, raw: raw),
    "partitions": Workload(
        setup=bi.setup_partitions,
        inputs=partitions_inputs,
        run=run_partition, report=partition_report),
}


# -- one pass --------------------------------------------------------------


def input_meta(inp, report):
    """|G|, |S|, k, fusion classes, rank and atoms, as far as known."""
    if report is None:  # no result: what the input itself tells
        return {"group_order": inp.group.order,
                "classes": inp.table.class_count if inp.table is not None else None,
                "blocks": len(inp.partition) if inp.partition else None}
    return {"group_order": report.group_order, "sylow_order": report.sylow_order,
            "classes": report.sylow_class_count,
            "fusion_classes": report.fusion_class_count, "rank": report.lattice_rank,
            "atoms": len(report.atoms) if report.atoms is not None else None}


class Runner:
    """Runs and checks inputs.  An input seen before must reproduce its
    first digest byte for byte, and then keeps its first check verdict."""

    def __init__(self, api, workload, pins, tracer=None):
        self.api, self.workload, self.pins, self.tracer = api, workload, pins, tracer
        self.digests = {}
        self.checked = {}
        self.records = []

    def execute(self, inp, pass_no):
        if self.tracer is not None:
            self.tracer.input_id = inp.id
        start = time.perf_counter()
        try:
            raw, error = self.workload.run(self.api, inp), None
        except Exception as ex:  # any error fails this input; the run goes on
            raw, error = None, ex
        seconds = time.perf_counter() - start
        rec = {"pass": pass_no, "id": inp.id, "seconds": seconds}
        report, problems = None, []
        if error is not None:
            if inp.stable or not isinstance(error, self.api.InvalidPartition):
                rec["error"] = f"{type(error).__name__}: {error}"
        elif not inp.stable:
            problems.append("unstable partition accepted")
        else:
            report = self.workload.report(self.api, inp, raw)
            rec["digest"] = bench_checks.digest(report)
            if self.digests.setdefault(inp.id, rec["digest"]) != rec["digest"]:
                problems.append("digest differs from this input's earlier pass")
            if inp.id not in self.checked:  # equal bytes get the same verdict
                pin = self.pins.get(inp.id, "") if self.pins is not None else None
                self.checked[inp.id] = bench_checks.check_report(report, inp.entry, pin)
            problems += self.checked[inp.id]
        rec.update(input_meta(inp, report))
        if inp.partition is not None:
            rec["partition"] = inp.partition
            rec["stable"] = inp.stable
        if problems:
            rec["problems"] = problems
        rec["ok"] = "error" not in rec and not problems
        self.records.append(rec)
        return rec

    def run_pass(self, inputs, pass_no):
        """Runs every input once; returns the summed input time."""
        return sum(self.execute(inp, pass_no)["seconds"] for inp in inputs)


# -- runs ------------------------------------------------------------------


def load_pins(name):
    """Pinned digests of this workload's reports, by input id."""
    return json.loads(PINS.read_text())[name]


def measure(name, seed, seconds):
    """Untraced run: SETUP_REPEATS set-ups, then whole passes until
    `seconds` have passed.  Returns (runner, metrics, samples)."""
    wl = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _, api = import_fmrep()
        state = wl.setup(api)
        setups.append(time.perf_counter() - start)
    inputs = wl.inputs(api, state, seed)
    runner = Runner(api, wl, load_pins(name))
    totals = []
    start = time.perf_counter()
    while not totals or time.perf_counter() - start < seconds:
        totals.append(runner.run_pass(inputs, len(totals)))
    # Each input counts with its median time over the passes, which filters
    # out the slowdowns that other tenants of a shared machine cause in
    # bursts from half a second to many seconds long.
    times = {}
    for r in runner.records:
        times.setdefault(r["id"], []).append(r["seconds"])
    medians = [statistics.median(t) for t in times.values()]
    ok = sum(r["ok"] for r in runner.records)
    metrics = {
        "wall_s": sum(medians),
        "run_max_s": max(medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok / len(runner.records),
    }
    samples = {"setup_s": setups, "pass_s": totals}
    return runner, metrics, samples


def trace(name, seed):
    """Traced run: one untraced pass, then the set-up and the same pass
    again with every layer wrapped.  Returns (runner, metrics, spans)."""
    wl = WORKLOADS[name]
    mods, api = import_fmrep()
    inputs = wl.inputs(api, wl.setup(api), seed)
    pins = load_pins(name)
    plain = Runner(api, wl, pins)
    untraced = plain.run_pass(inputs, 0)
    tracer = Tracer()
    traced_runner = Runner(api, wl, pins, tracer)
    tracer.install(wrap_targets(mods, api))
    try:
        tracer.input_id = "setup"
        start = time.perf_counter()
        wl.setup(api)
        setup_s = time.perf_counter() - start
        traced = traced_runner.run_pass(inputs, 1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(setup_s + traced)
    metrics["traced.wall_s"] = setup_s + traced
    metrics["traced.overhead_s"] = traced - untraced
    plain.records += traced_runner.records
    return plain, metrics, tracer.spans


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc():
    """Processors this process may run on, as `nproc` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def metric_unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def summarize(name, seed, runner, metrics):
    """Human-readable lines: metrics, failures, output digest."""
    records = runner.records
    failed = [r for r in records if not r["ok"]]
    lines = [f"workload {name}  seed {seed}  inputs run {len(records)}  failed {len(failed)}"]
    for key, value in metrics.items():
        lines.append(f"  {key:<22} {value:>14.6f} {metric_unit(key)}")
    lines.append(f"  {'fail_ratio':<22} {len(failed) / len(records):>14.6f} ratio")
    causes = {}
    for r in failed:
        kind = "stable" if r.get("stable", True) else "unstable"
        cause = r["error"].split(":")[0] if "error" in r else "; ".join(r["problems"])
        causes[(kind, cause)] = causes.get((kind, cause), 0) + 1
    for (kind, cause), n in sorted(causes.items()):
        expect = " (expected InvalidPartition)" if kind == "unstable" else ""
        lines.append(f"  failed {n} x {kind} input: {cause}{expect}")
    joined = "\n".join(f"{i} {d}" for i, d in sorted(runner.digests.items()))
    lines.append(f"  output digest {hashlib.sha256(joined.encode()).hexdigest()}"
                 f" over {len(runner.digests)} reports")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=bi.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            runner, metrics, spans = trace(args.workload, args.seed)
            samples = {}
        else:
            runner, metrics, samples = measure(args.workload, args.seed, args.seconds)
            spans = None
    except BenchError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    records = runner.records
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc(),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": git_commit(), "setup_repeats": SETUP_REPEATS,
    }
    OUT.mkdir(exist_ok=True)
    record_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps({"meta": meta, "metrics": metrics, "samples": samples,
                                       "inputs": records, "spans": spans}) + "\n")
    print("\n".join(summarize(args.workload, args.seed, runner, metrics)))
    print(f"  record written to {record_file.relative_to(ROOT)}")
    result = {
        "correct": not any(r.get("problems") for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
