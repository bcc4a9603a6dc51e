"""The lattice of fusion-invariant virtual representations.

An integer vector a = (a_1..a_r) of multiplicities over the
irreducibles of S is invariant for a fusion pattern exactly when the
character sum_j a_j chi_j is constant across fused classes.  Writing
one character-difference condition per fused class pair and linearizing
the cyclotomic entries over the integral power basis of Z[zeta_e]
(e = exponent of S) turns invariance into an integer kernel problem.

The kernel is free abelian of rank equal to the number of fusion
classes; its canonical HNF basis is the RepLattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartab import CharacterTable
from .cyclonum import euler_phi, rational_coordinates
from .fusion import FusionPattern, is_invariant
from .intlin import (
    hermite_normal_form,
    integer_kernel,
    lattice_contains,
    nonzero_rows,
    solve_integer,
)


class RankMismatch(RuntimeError):
    """Kernel rank disagrees with the fusion class count."""


@dataclass(frozen=True)
class RepLattice:
    irr_count: int
    rank: int
    basis: tuple  # rank x irr_count, canonical HNF rows (virtual reps)

    def contains(self, v):
        return lattice_contains([list(r) for r in self.basis], list(v))

    def coordinates(self, v):
        """Integer coordinates of v over the basis, or None."""
        return solve_integer([list(r) for r in self.basis], list(v))

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
    """One row per fusing pair (c1, c2); the j-th block of the row holds
    the power-basis coordinates of chi_j(c1) - chi_j(c2) over
    Z[zeta_e].  Character values are algebraic integers, so the
    coordinates are integers with nothing to clear."""
    e = table.exponent
    phi = euler_phi(e)
    rows = []
    for c1, c2 in fusing_pairs(pattern):
        row = []
        for j in range(table.irr_count):
            delta = table.chars[j][c1] - table.chars[j][c2]
            coords = rational_coordinates(delta, e)
            assert all(c.denominator == 1 for c in coords)
            row.extend(int(c) for c in coords)
        assert len(row) == table.irr_count * phi
        rows.append(row)
    return rows


def rep_lattice(pattern: FusionPattern, table: CharacterTable) -> RepLattice:
    """Integral kernel of the character-difference conditions, in HNF.

    The kernel lives in Z^r with r = number of irreducibles, so the
    difference matrix (rows = fusing pairs) is regrouped with one row
    per irreducible before taking the integer kernel.
    """
    r = table.irr_count
    diff = difference_matrix(pattern, table)
    e = table.exponent
    phi = euler_phi(e)
    if diff:
        by_irr = [
            [diff[p][j * phi + c] for p in range(len(diff)) for c in range(phi)]
            for j in range(r)
        ]
        kernel = integer_kernel(by_irr)
    else:
        kernel = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    kernel = nonzero_rows(hermite_normal_form(kernel)[0]) if kernel else []
    if len(kernel) != pattern.class_count:
        raise RankMismatch(
            f"lattice rank {len(kernel)} != fusion class count {pattern.class_count}"
        )
    lattice = RepLattice(
        irr_count=r,
        rank=len(kernel),
        basis=tuple(tuple(row) for row in kernel),
    )
    for row in lattice.basis:
        assert is_invariant(row, pattern, table)
    assert lattice.contains(table.trivial_vector())
    assert lattice.contains(table.regular_vector())
    return lattice


def format_virtual(v, names=None):
    """Signed combination of irreducible labels, e.g. "-r2 - r3 + 2*r6";
    names[j], when given, replaces the label r(j+1)."""
    parts = []
    for j, c in enumerate(v):
        if not c:
            continue
        name = names[j] if names else f"r{j + 1}"
        mono = name if abs(c) == 1 else f"{abs(c)}*{name}"
        parts.append((c, mono))
    if not parts:
        return "0"
    out = ""
    for c, mono in parts:
        if not out:
            out = ("-" if c < 0 else "") + mono
        else:
            out += (" - " if c < 0 else " + ") + mono
    return out
