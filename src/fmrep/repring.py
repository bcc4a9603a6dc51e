"""The lattice of fusion-invariant virtual representations.

An integer vector a = (a_1..a_r) of multiplicities over the
irreducibles of S is invariant for a fusion pattern exactly when the
character sum_j a_j chi_j is constant across fused classes.  Writing
one character-difference condition per fused class pair and linearizing
the cyclotomic entries over the integral power basis of Z[zeta_e]
(e = exponent of S) turns invariance into an integer kernel problem.
Character values are algebraic integers: each distinct value is read
once, in integers, and only distinct nonzero columns reach the kernel.

The kernel is free abelian of rank equal to the number of fusion
classes; its canonical HNF basis is the RepLattice, certified by
integer checks against the same difference rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub

from .chartab import CharacterTable
from .cyclonum import integer_coordinates, signed_sum
from .cyclonum import rational_coordinates  # noqa: F401  (traced by perfbench/bench_trace.py)
from .fusion import FusionPattern
from .intlin import (
    hermite_normal_form,  # noqa: F401  (traced by perfbench/bench_trace.py)
    integer_kernel,
    lattice_contains,
    solve_integer,  # noqa: F401  (traced by perfbench/bench_trace.py)
)
from .permcore import CertificateError


@dataclass(frozen=True)
class RepLattice:
    irr_count: int
    rank: int
    basis: tuple  # rank x irr_count, canonical HNF rows (virtual reps)

    def to_multiplicities(self, x):
        """Map lattice coordinates x back to a multiplicity vector."""
        v = [0] * self.irr_count
        for c, row in zip(x, self.basis):
            if c:
                for j in range(self.irr_count):
                    v[j] += c * row[j]
        return tuple(v)


def fusing_pairs(pattern: FusionPattern):
    """Spanning-tree pairs of class indices determining all fusions.

    Within each label the first class is paired with each later one;
    those pairs already force every equality inside the label.
    """
    pairs = []
    for block in pattern.groups():
        for other in block[1:]:
            pairs.append((block[0], other))
    return pairs


def difference_matrix(pattern: FusionPattern, table: CharacterTable):
    """One row per irreducible chi_j.  The columns are the distinct nonzero
    ones, sorted, among the power-basis coordinates over Z[zeta_e] of
    chi_j(c1) - chi_j(c2) for the fusing pairs (c1, c2); the left kernel
    is that of all of them.  Each value object is linearized once a call."""
    e = table.exponent
    pairs = fusing_pairs(pattern)
    coords = {}  # id(value) -> integer coordinates; the table keeps the values alive
    blocks = {}  # class c -> the coordinate columns of (chi_j(c))_j
    for c in sorted({c for pair in pairs for c in pair}):
        for chi in table.chars:
            if id(chi[c]) not in coords:
                coords[id(chi[c])] = integer_coordinates(chi[c], e)
        blocks[c] = list(zip(*(coords[id(chi[c])] for chi in table.chars)))
    columns = {tuple(map(sub, a, b)) for c1, c2 in pairs for a, b in zip(blocks[c1], blocks[c2])}
    columns.discard((0,) * table.irr_count)
    return [list(r) for r in zip(*sorted(columns))] or [[] for _ in table.chars]


def rep_lattice(pattern: FusionPattern, table: CharacterTable) -> RepLattice:
    """Integral left kernel of the difference rows, in canonical HNF.

    Certified by integer checks that survive python -O: every basis row
    annihilates the difference rows, the rank is the fusion class
    count, and the trivial and regular vectors lie in the lattice.
    """
    diff = difference_matrix(pattern, table)
    kernel = integer_kernel(diff)
    columns = list(zip(*diff))
    for row in kernel:
        if any(sum(map(mul, row, col)) for col in columns):
            raise CertificateError(f"lattice row {row} breaks a fusion condition")
    if len(kernel) != pattern.class_count:
        raise CertificateError(
            f"lattice rank {len(kernel)} != fusion class count {pattern.class_count}"
        )
    for name, v in (("trivial", table.trivial_vector()), ("regular", table.regular_vector())):
        if not lattice_contains(kernel, list(v)):
            raise CertificateError(f"lattice misses the {name} vector {v}")
    return RepLattice(
        irr_count=table.irr_count,
        rank=len(kernel),
        basis=tuple(tuple(row) for row in kernel),
    )


def format_virtual(v, names=None):
    """Signed combination of irreducible labels, e.g. "-r2 - r3 + 2*r6";
    names[j], when given, replaces the label r(j+1)."""
    return signed_sum((c, names[j] if names else f"r{j + 1}") for j, c in enumerate(v))
