"""The checked-in tools, run as a user runs them."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import fmrep
from fmrep.catalog import CATALOG

ROOT = Path(__file__).resolve().parents[1]


def test_build_catalog_data_regenerates_the_asset(tmp_path):
    """tools/build_catalog_data.py rebuilds every catalog group from first
    principles and checks each desk-scale order with PermGroup; its output
    is the committed asset, byte for byte."""
    out = tmp_path / "groups.txt"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "build_catalog_data.py"), str(out)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    asset = Path(fmrep.__file__).parent / "data" / "groups.txt"
    assert out.read_bytes() == asset.read_bytes()


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("k", [51, 153, 289, 256])
def test_table_sweep_digests(k):
    """tools/table_sweep.py's pinned table and lattice digests hold for
    its k = 51, 153, 289 and 256 products."""
    sweep = _load_tool("table_sweep")
    [(_, _, factors, table_pin, lattice_pin)] = [p for p in sweep.PRODUCTS if p[1] == k]
    T = sweep.character_table(sweep.direct_product(factors))
    assert T.class_count == k
    assert sweep.rows_digest(T.chars) == table_pin
    L = sweep.rep_lattice(sweep.fusion_from_partition(sweep.order_partition(T), T), T)
    assert sweep.rows_digest(L.basis) == lattice_pin


def test_permcore_sweep_digests():
    """tools/permcore_sweep.py's pinned digests of S's generators and of
    the fusion labels hold on every fast and table catalog entry."""
    names = [name for name, entry in CATALOG.items() if entry.tier in ("fast", "table")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "permcore_sweep.py"), "--repeat", "1", *names],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert [line.split()[0] for line in proc.stdout.splitlines() if line.endswith(" ok")] == names
