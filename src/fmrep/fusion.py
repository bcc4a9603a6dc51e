"""Fusion patterns on the conjugacy classes of a Sylow subgroup.

A fusion pattern records which classes of S merge under conjugacy in an
ambient group (or under a user-supplied partition standing in for a
more general fusion structure).  The pattern is stored as one positive
label per S-class, numbered in order of first occurrence, plus the
number of distinct labels.

A representation of S is invariant for the pattern exactly when its
character takes one value on every set of classes sharing a label.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .chartab import CharacterTable
from .permcore import PermGroup, fuse_by_conjugacy


class InvalidPartition(ValueError):
    pass


@dataclass(frozen=True)
class FusionPattern:
    labels: tuple  # one positive integer per S-class; equal label = fused
    class_count: int

    def groups(self):
        """Class indices grouped by label, in label order."""
        out = {}
        for idx, lab in enumerate(self.labels):
            out.setdefault(lab, []).append(idx)
        return [out[lab] for lab in sorted(out)]


def _canonical_labels(raw):
    seen = {}
    out = []
    for x in raw:
        if x not in seen:
            seen[x] = len(seen) + 1
        out.append(seen[x])
    return tuple(out)


def _validate(labels, table: CharacterTable):
    """Each block keeps one element order and is mapped onto a block by
    every power map x -> x^t, gcd(t, ord x) = 1 (else the invariant
    lattice loses rank); the identity class stays alone.

    Units t mod a block's own order cover every unit mod the exponent,
    and maps closed under inverses that send each block into a block
    send it onto one.
    """
    classes = table.classes
    by_label = {}
    for idx, lab in enumerate(labels):
        by_label.setdefault(lab, []).append(idx)
    for lab, idxs in by_label.items():
        orders = {classes[i].element_order for i in idxs}
        if len(orders) != 1:
            raise InvalidPartition(
                f"classes {sorted(i + 1 for i in idxs)} fused across element orders {sorted(orders)}"
            )
        o = orders.pop()
        for t in (t for t in range(2, o) if gcd(t, o) == 1):
            images = {table.power_class[i][t] for i in idxs}
            if len({labels[i] for i in images}) > 1:
                raise InvalidPartition(
                    f"power map x -> x^{t} sends block {[i + 1 for i in idxs]} "
                    f"to classes {sorted(i + 1 for i in images)} in different blocks"
                )
    identity_label = labels[0]
    if sum(1 for lab in labels if lab == identity_label) != 1:
        raise InvalidPartition("identity class fused with a non-identity class")


def fusion_pattern(G: PermGroup, S: PermGroup, table: CharacterTable) -> FusionPattern:
    """Fusion of the S-classes under conjugacy in G.

    Labels agree in two positions exactly when the class representatives
    are conjugate in G.  Every generator of S must sift into G.
    """
    if S.degree != G.degree:
        raise ValueError("S and G act on different degrees")
    for g in S.generators:
        if g not in G:
            raise ValueError("S is not a subgroup of G (generator fails membership)")
    reps = [c.representative for c in table.classes]
    labels = _canonical_labels(fuse_by_conjugacy(G, reps))
    _validate(labels, table)
    return FusionPattern(labels=labels, class_count=max(labels))


def fusion_from_partition(partition, table: CharacterTable) -> FusionPattern:
    """Fusion pattern from an explicit grouping of 1-based S-class indices.

    The blocks must be nonempty, cover every class exactly once, keep the
    identity class alone, never fuse classes of different element orders,
    and be permuted by the power maps x -> x^t with t prime to the order.
    """
    k = table.class_count
    labels = [0] * k
    for lab, block in enumerate(partition, start=1):
        if not block:
            raise InvalidPartition(f"block {lab} is empty")
        for idx in block:
            if not 1 <= idx <= k:
                raise InvalidPartition(f"class index {idx} out of range 1..{k}")
            if labels[idx - 1]:
                raise InvalidPartition(f"class index {idx} listed twice")
            labels[idx - 1] = lab
    if any(lab == 0 for lab in labels):
        missing = [i + 1 for i, lab in enumerate(labels) if lab == 0]
        raise InvalidPartition(f"classes {missing} not covered by the partition")
    labels = _canonical_labels(labels)
    _validate(labels, table)
    return FusionPattern(labels=labels, class_count=max(labels))
