"""Run reports: lossless JSON plus an aligned human-readable rendering.

The deterministic payload excludes wall-clock timings; canonical_bytes()
serializes exactly that payload, so byte-identical output across
repeated runs is testable while the full JSON still carries timing
data.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from .repring import format_virtual


@dataclass
class RunReport:
    group: str
    source: str  # "catalog" or "file"
    prime: int
    mode: str
    degree: int
    group_order: int
    sylow_order: int
    sylow_class_count: int
    fusion_labels: list
    fusion_class_count: int
    partition: Optional[list] = None
    irr_degrees: Optional[list] = None
    irr_names: Optional[list] = None
    lattice_rank: Optional[int] = None
    lattice_basis: Optional[list] = None
    atoms: Optional[list] = None
    atom_dimensions: Optional[list] = None
    factorial: Optional[bool] = None
    half_factorial: Optional[bool] = None
    factorization_witness: Optional[dict] = None
    length_witness: Optional[dict] = None
    regular_conjecture_holds: Optional[bool] = None
    transitive: Optional[bool] = None
    timings: dict = field(default_factory=dict)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self, include_timings=True):
        out = asdict(self)
        if not include_timings:
            out.pop("timings")
        return out

    def canonical_bytes(self):
        """Deterministic serialization (timings stripped)."""
        return json.dumps(
            self.to_json_dict(include_timings=False), sort_keys=True, indent=1
        ).encode()

    # -- text rendering ----------------------------------------------------

    def _vec_name(self, v):
        text = format_virtual(v)
        if self.irr_names:
            named = format_virtual(v, self.irr_names)
            if named != text:
                text += f"   [{named}]"
        return text

    def to_text(self, include_timings=False):
        lines = []
        lines.append(f"group            {self.group} ({self.source}), degree {self.degree}, order {self.group_order}")
        lines.append(f"prime            {self.prime}")
        lines.append(f"sylow subgroup   order {self.sylow_order}, {self.sylow_class_count} classes")
        if self.partition is not None:
            lines.append(f"partition input  {self.partition}")
        fused = list(self.fusion_labels) + [self.fusion_class_count]
        lines.append(f"fusion pattern   {fused}")
        lines.append(f"fusion classes   {self.fusion_class_count}")
        if self.lattice_basis is not None:
            lines.append(f"lattice rank     {self.lattice_rank}")
            for row in self.lattice_basis:
                lines.append(f"  basis  {self._vec_name(row)}")
        if self.atoms is not None:
            lines.append(f"atoms            {len(self.atoms)}")
            for v, dim in zip(self.atoms, self.atom_dimensions):
                lines.append(f"  atom   dim {dim:>4}  {self._vec_name(v)}")
            lines.append(f"factorial        {self.factorial}")
            if self.factorization_witness:
                lines.append(f"  witness {describe_witness(self.factorization_witness)}")
            lines.append(f"half-factorial   {self.half_factorial}")
            if self.length_witness:
                lines.append(f"  witness {describe_witness(self.length_witness)}")
            lines.append(f"regular bound    {'holds' if self.regular_conjecture_holds else 'VIOLATED'} (every atom inside the regular representation)")
            lines.append(f"transitive       {self.transitive}")
        if include_timings and self.timings:
            parts = ", ".join(f"{k} {v:.3f}s" for k, v in self.timings.items())
            lines.append(f"timings          {parts}")
        return "\n".join(lines) + "\n"


def witness_dict(w):
    if w is None:
        return None
    return {
        "element": list(w.element),
        "decomp_a": list(w.decomp_a),
        "decomp_b": list(w.decomp_b),
    }


def describe_witness(w):
    def side(idxs):
        return " + ".join(f"atom{i + 1}" for i in idxs)

    return (
        f"{side(w['decomp_a'])} = {side(w['decomp_b'])}"
        f"  (lengths {len(w['decomp_a'])} vs {len(w['decomp_b'])})"
    )
