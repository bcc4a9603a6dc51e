"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import math

import pytest

import bench_checks
import bench_inputs as bi
import run
from run import HERE, WORKLOADS, import_fmrep


@pytest.fixture(scope="module")
def fm():
    return import_fmrep()


@pytest.fixture(scope="module")
def partition_tables(fm):
    _, api = fm
    return api, bi.setup_partitions(api)


def test_stable_partitions_have_rank_equal_to_block_count(partition_tables):
    api, tables = partition_tables
    galois = {name: bi.galois_data(api, table) for name, (_, table) in tables.items()}
    pool = bi.partition_pool(tables, galois)
    unstable = bi.POOL_ROUNDS * sum(n for _, n in bi.UNSTABLE_DRAWS)
    assert sum(not i.stable for i in pool) * 16 == len(pool) == unstable * 16
    for inp in pool:
        assert bi.is_power_stable(inp.partition, galois[inp.table_name]) == inp.stable
        if inp.stable:
            pattern = api.fusion_from_partition(inp.partition, inp.table)
            assert api.rep_lattice(pattern, inp.table).rank == len(inp.partition)


def test_rank_strata_are_reachable(partition_tables):
    api, tables = partition_tables
    for name, _, ranks, _ in bi.PARTITION_STRATA:
        lo, hi = bi.rank_range(bi.galois_data(api, tables[name][1]))
        assert lo <= min(ranks) and max(ranks) <= hi


def describe(name, seed, api):
    """Every input of a workload's pass, as plain data."""
    wl = WORKLOADS[name]
    inputs = wl.inputs(api, wl.setup(api), seed)
    return [(i.id, i.prime, i.group.generators, i.partition) for i in inputs]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(fm, name):
    _, api = fm
    first = describe(name, 5, api)
    other = describe(name, 6, api)
    assert describe(name, 5, api) == first
    assert other != first and sorted(other) == sorted(first)


def test_sylow_words_match_catalog_sylow_subgroups(fm):
    mods, api = fm
    for catalog_name, word_name in (("S6", "P2(S6)"), ("S8", "P2(S8)"), ("PSL2_31", "P2(PSL2_31)")):
        entry = api.CATALOG[catalog_name]
        P = mods["permcore"].sylow_subgroup(api.load_group(catalog_name), entry.prime)
        Q = bi.build(api, *bi.SYLOW_WORDS[word_name])
        assert P.order == Q.order
        assert len(api.class_partition(P)[0]) == len(api.class_partition(Q)[0])


def test_checks_catch_broken_reports(fm):
    _, api = fm
    entry = api.CATALOG["S6"]
    report = api.run_analysis(api.load_group("S6"), entry.prime, name="S6")
    pin = bench_checks.digest(report)
    assert bench_checks.check_report(report, entry, pin) == []
    report.atoms = report.atoms[1:]
    problems = bench_checks.check_report(report, entry, pin)
    assert any("atoms: expected" in p for p in problems)
    assert any("differs from pin" in p for p in problems)
    report.atoms = [[a + 1 for a in report.atoms[0]]] + report.atoms
    assert any("comparable" in p or "outside" in p for p in bench_checks.check_atoms(report))
    report.atoms[0] = [-1] + report.atoms[0][1:]
    assert any("negative" in p for p in bench_checks.check_atoms(report))


def test_traced_self_times_add_up_to_traced_wall():
    runner, metrics, spans = run.trace("partitions", bi.DEFAULT_SEED)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    self_times = [v for k, v in metrics.items()
                  if k.endswith("_s") or k.endswith(".s")
                  if not k.startswith("traced.")]
    assert math.isclose(sum(self_times), metrics["traced.wall_s"], rel_tol=1e-9)
    assert metrics["other.self_s"] >= 0
    assert metrics["permcore.sylow_s"] == 0 and metrics["fimonoid.atoms_s"] > 0
    assert {s[4] for s in spans} >= {"setup"}
    assert all(r["ok"] or not r["stable"] for r in runner.records)
