"""Built-in catalog: named groups, default primes, and pinned expectations.

Generator words live in data/groups.txt (regenerated by
tools/build_catalog_data.py); the group order recorded there is
checked every time an entry is loaded.  Expectations hold only the
externally known values for each case; fields left as None are
reported but never diffed.

Tiers: "fast" entries finish in about a second, "table" covers the
larger catalog runs, "extra" is for groups meant to be driven through
the partition input mode, and "stretch" entries are not run by
`fmrep verify` (each takes seconds, or stops at a cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Optional

from .permcore import CertificateError, PermGroup, group_from_generators, parse_perm


@dataclass(frozen=True)
class Expectation:
    classes: Optional[int] = None
    atoms: Optional[int] = None
    factorial: Optional[bool] = None
    half_factorial: Optional[bool] = None

    def items(self):
        return [
            ("fusion classes", self.classes),
            ("atoms", self.atoms),
            ("factorial", self.factorial),
            ("half-factorial", self.half_factorial),
        ]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    prime: int
    tier: str
    expect: Expectation
    label_style: Optional[str] = None
    note: str = ""


CATALOG = {
    e.name: e
    for e in [
        CatalogEntry("S3", 3, "fast", Expectation(2, 2, True, True), "z3"),
        CatalogEntry("S4", 2, "fast", Expectation(4, 4, True, True), "d8"),
        CatalogEntry("S6", 2, "fast", Expectation(6, 7, False, False)),
        CatalogEntry("S8", 2, "table", Expectation(10, None, False, None)),
        CatalogEntry("S9", 3, "fast", Expectation(5, 6, False, True)),
        CatalogEntry("A6", 2, "fast", Expectation(3, 3, True, True), "d8"),
        CatalogEntry("A8", 2, "fast", Expectation(None, None, True, True)),
        CatalogEntry("A9", 3, "fast", Expectation(6, 7, False, None)),
        CatalogEntry("D8", 2, "fast", Expectation(5, 5, True, True), "d8"),
        CatalogEntry("Q8", 2, "fast", Expectation(5, 5, True, True), "d8"),
        CatalogEntry("SL2_3", 2, "fast", Expectation(3, 3, True, True), "d8"),
        CatalogEntry("M10", 2, "table", Expectation(6, 8, False, None)),
        CatalogEntry("PSL2_17", 2, "table", Expectation(5, 7, False, None)),
        CatalogEntry("PSL2_31", 2, "table", Expectation(9, 21, False, None)),
        CatalogEntry("SL3_3", 2, "table", Expectation(5, 8, False, None)),
        CatalogEntry("GL3_3", 2, "table", Expectation(10, 16, False, None)),
        CatalogEntry("PSL3_5", 2, "table", Expectation(7, 8, False, None)),
        CatalogEntry("PSU3_5", 2, "table", Expectation(5, 8, False, None)),
        CatalogEntry("PSp4_3", 3, "table", Expectation(None, None, True, True)),
        CatalogEntry(
            "E125", 5, "extra", Expectation(),
            note="extraspecial 5^(1+2); meant for --partition runs",
        ),
        CatalogEntry(
            "PSU3_9", 2, "stretch", Expectation(9, 53, False, None),
            note="not run by verify; completes in a few seconds",
        ),
        CatalogEntry(
            "PSL3_19", 3, "stretch", Expectation(7, 16, False, None),
            note="not run by verify; completes in a few seconds",
        ),
        CatalogEntry(
            "PSL4_7", 3, "stretch", Expectation(None, None, True, None),
            note="not run by verify: stops at the Sylow cap",
        ),
    ]
}


def _read_asset():
    return resources.files("fmrep").joinpath("data/groups.txt").read_text()


@cache
def _parse_asset():
    entries = {}
    current = None
    for raw in _read_asset().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            entries[current] = {"gens": []}
        elif line.startswith("degree "):
            entries[current]["degree"] = int(line.split()[1])
        elif line.startswith("order "):
            entries[current]["order"] = int(line.split()[1])
        elif line.startswith("gen "):
            entries[current]["gens"].append(line[4:])
        else:
            raise ValueError(f"bad catalog data line: {raw!r}")
    return entries


def load_group(name: str) -> PermGroup:
    """Construct a catalog group; its stored order is checked here
    (CertificateError on a mismatch)."""
    data = _parse_asset()
    if name not in data:
        raise KeyError(f"unknown catalog group {name!r}")
    record = data[name]
    gens = [parse_perm(g, record["degree"]) for g in record["gens"]]
    G = group_from_generators(gens, record["degree"])
    if G.order != record["order"]:
        raise CertificateError(
            f"catalog entry {name}: generators give order {G.order}, "
            f"asset says {record['order']}"
        )
    return G


def traditional_labels(style, table):
    """Map canonical irreducible indices to traditional names, when pinned.

    "z3": the cyclic group of order three (1, rho1, rho2).
    "d8": eight-element dihedral/quaternion tables (1, X, Y, XY, Z) with
    XY forced to be the product character of X and Y.
    Returns None when no pinned correspondence exists.
    """
    if style is None:
        return None
    if style == "z3" and table.irr_count == 3:
        triv = table.trivial_index
        rest = [i for i in range(3) if i != triv]
        return {triv: "1", rest[0]: "rho1", rest[1]: "rho2"}
    if style == "d8" and table.irr_count == 5:
        triv = table.trivial_index
        two = next(i for i, d in enumerate(table.degrees) if d == 2)
        linears = [i for i in range(5) if i not in (triv, two)]
        rows = table.chars
        order4 = [c for c, cls in enumerate(table.classes) if cls.element_order == 4]
        # Y is the linear character trivial on the cyclic maximal subgroup,
        # i.e. +1 on every order-4 class; the X / XY split is only fixed up
        # to an outer automorphism, so it falls to canonical row order.
        flat = [i for i in linears if all(rows[i][c] == 1 for c in order4)]
        if len(flat) == 1:
            y = flat[0]
            x, xy = [i for i in linears if i != y]
        else:
            x, y, xy = linears
        return {triv: "1", x: "X", y: "Y", xy: "XY", two: "Z"}
    return None
