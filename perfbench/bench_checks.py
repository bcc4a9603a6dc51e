"""Output checks made from outside the program.

Each check reads only the RunReport payload (plain integers and lists)
and returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def digest(report):
    """SHA-256 of the report's deterministic serialization."""
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def lattice_coordinates(basis, v):
    """Rational x with x * basis = v, or None when v is outside the
    rational span.  The rows of `basis` must be linearly independent."""
    d = len(basis)
    # one equation per column: sum_i x_i * basis[i][j] = v[j]
    rows = [[Fraction(basis[i][j]) for i in range(d)] + [Fraction(v[j])]
            for j in range(len(v))]
    pivots = []
    r = 0
    for c in range(d):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[d] for row in rows[r:]) or len(pivots) != d:
        return None
    x = [Fraction(0)] * d
    for i, c in enumerate(pivots):
        x[c] = rows[i][d]
    return x


def in_lattice(basis, v):
    x = lattice_coordinates(basis, v)
    return x is not None and all(c.denominator == 1 for c in x)


def check_lattice(report):
    """The lattice has the claimed rank, one basis row per fusion class,
    and contains the regular representation (the vector of degrees)."""
    problems = []
    basis = report.lattice_basis
    if report.lattice_rank != len(basis):
        problems.append(f"rank {report.lattice_rank} but {len(basis)} basis rows")
    if report.lattice_rank != report.fusion_class_count:
        problems.append(f"rank {report.lattice_rank} != fusion classes {report.fusion_class_count}")
    if not in_lattice(basis, report.irr_degrees):
        problems.append("regular representation outside the lattice")
    return problems


def check_atoms(report):
    """Atoms are nonnegative, lie in the lattice and are pairwise
    incomparable; there are at least rank of them; factorial holds
    exactly when there are rank of them."""
    problems = []
    atoms = [tuple(a) for a in report.atoms]
    rank = report.lattice_rank
    if any(c < 0 for a in atoms for c in a):
        problems.append("negative atom coordinate")
    if len(set(atoms)) != len(atoms):
        problems.append("repeated atom")
    for a in atoms:
        if not in_lattice(report.lattice_basis, a):
            problems.append(f"atom {list(a)} outside the lattice")
    for i, a in enumerate(atoms):
        for b in atoms[i + 1:]:
            if all(x <= y for x, y in zip(a, b)) or all(y <= x for x, y in zip(a, b)):
                problems.append(f"comparable atoms {list(a)} and {list(b)}")
    if len(atoms) < rank:
        problems.append(f"{len(atoms)} atoms below rank {rank}")
    if report.factorial != (len(atoms) == rank):
        problems.append(f"factorial={report.factorial} with {len(atoms)} atoms at rank {rank}")
    return problems


def check_expectations(report, entry):
    """Diff against the catalog entry's pinned values, as verify does."""
    computed = {
        "fusion classes": report.fusion_class_count,
        "atoms": len(report.atoms),
        "factorial": report.factorial,
        "half-factorial": report.half_factorial,
    }
    return [f"{key}: expected {want}, computed {computed[key]}"
            for key, want in entry.expect.items()
            if want is not None and computed[key] != want]


def check_report(report, entry=None, pin=None):
    """All checks that apply to the report.  `pin` is the pinned digest,
    "" when the input should have one but has none, or None."""
    problems = check_lattice(report)
    if report.atoms is not None:
        problems += check_atoms(report)
    if entry is not None:
        problems += check_expectations(report, entry)
    if pin == "":
        problems.append("no pinned digest for this input")
    elif pin is not None and digest(report) != pin:
        problems.append(f"digest {digest(report)[:16]} differs from pin {pin[:16]}")
    return problems
