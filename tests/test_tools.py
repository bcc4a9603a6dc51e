"""The checked-in tools, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

import fmrep

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
