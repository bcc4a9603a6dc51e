"""Spans around the public entry points of each fmrep layer.

Wrappers are installed only for the traced run, on the names that the
calling modules imported (for example `fmrep.cli.sylow_subgroup`), and
removed afterwards.  Every call records a span (name, start, end,
parent, input id) in memory; self times are computed at the end.
"""

from __future__ import annotations

import functools
import time

# Metric reported for each span name: the span's self time, summed.
SELF_TIME_METRICS = {
    "permcore.build": "permcore.build_s",
    "permcore.sylow": "permcore.sylow_s",
    "permcore.conjugacy": "permcore.conjugacy_s",
    "permcore.classes": "permcore.classes_s",
    "chartab": "chartab.self_s",
    "cyclonum": "cyclonum.s",
    "fusion": "fusion.self_s",
    "repring": "repring.self_s",
    "intlin": "intlin.s",
    "fimonoid": "fimonoid.self_s",
    "fimonoid.rays": "fimonoid.rays_s",
    "fimonoid.atoms": "fimonoid.atoms_s",
    "fimonoid.factor": "fimonoid.factor_s",
}
COUNT_METRICS = (
    "chartab.classes",
    "cyclonum.calls",
    "repring.fusing_pairs",
    "intlin.calls",
    "intlin.max_entries",
    "fimonoid.rank",
    "fimonoid.rays",
    "fimonoid.atoms",
)
# Leaf layers counted once per call from outside the layer.
CALL_COUNTED = {"cyclonum": "cyclonum.calls", "intlin": "intlin.calls"}

CYCLOTOMIC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                  "__mul__", "__rmul__", "__neg__", "galois")


def _entries(matrix):
    return len(matrix) * len(matrix[0]) if matrix else 0


def wrap_targets(mods, api):
    """(owner, attribute, span name, counter) for every traced call site.

    A counter is called as counter(counts, args, result) after the call.
    """
    def add(key, f):
        def count(counts, args, result):
            counts[key] += f(args, result)
        return count

    def max_entries(counts, args, result):
        counts["intlin.max_entries"] = max(counts["intlin.max_entries"], _entries(args[0]))

    classes = add("chartab.classes", lambda a, r: r.class_count)
    pairs = add("repring.fusing_pairs", lambda a, r: a[1].class_count - a[0].class_count)
    rank = add("fimonoid.rank", lambda a, r: a[0].rank)
    cli, chartab, repring, fimonoid = mods["cli"], mods["chartab"], mods["repring"], mods["fimonoid"]
    targets = [
        (mods["catalog"], "group_from_generators", "permcore.build", None),
        (api, "group_from_generators", "permcore.build", None),
        (cli, "sylow_subgroup", "permcore.sylow", None),
        (mods["fusion"], "fuse_by_conjugacy", "permcore.conjugacy", None),
        (chartab, "class_partition", "permcore.classes", None),
        (cli, "character_table", "chartab", classes),
        (api, "character_table", "chartab", classes),
        (chartab, "zeta", "cyclonum", None),
        (chartab, "from_rational", "cyclonum", None),
        (repring, "rational_coordinates", "cyclonum", None),
        (cli, "fusion_pattern", "fusion", None),
        (cli, "fusion_from_partition", "fusion", None),
        (api, "fusion_from_partition", "fusion", None),
        (cli, "rep_lattice", "repring", pairs),
        (api, "rep_lattice", "repring", pairs),
        (cli, "analyze", "fimonoid", rank),
        (api, "analyze", "fimonoid", rank),
        (fimonoid, "extreme_rays", "fimonoid.rays", add("fimonoid.rays", lambda a, r: len(r))),
        (fimonoid, "atoms_hilbert", "fimonoid.atoms", add("fimonoid.atoms", lambda a, r: len(r))),
        (fimonoid, "factoriality", "fimonoid.factor", None),
        (fimonoid, "half_factoriality", "fimonoid.factor", None),
        (mods["intlin"], "det", "intlin", max_entries),
    ]
    targets += [(mods["cyclonum"].Cyclotomic, op, "cyclonum", None) for op in CYCLOTOMIC_OPS]
    for name in ("hermite_normal_form", "integer_kernel", "lattice_contains", "solve_integer"):
        targets.append((repring, name, "intlin", max_entries))
    for name in ("hermite_normal_form", "integer_kernel", "rank", "solve_integer"):
        targets.append((fimonoid, name, "intlin", max_entries))
    return targets


class Tracer:
    """Span recorder; spans are [name, start, end, parent, input id]."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.input_id = None
        self._stack = []
        self._patches = []

    def _wrap(self, f, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        call_key = CALL_COUNTED.get(name)

        @functools.wraps(f)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if call_key and (parent is None or spans[parent][0] != name):
                counts[call_key] += 1
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, parent, self.input_id])
            stack.append(idx)
            try:
                result = f(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self, targets):
        for owner, attr, name, counter in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Summed self time per span name: duration minus the time its
        child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def top_level_time(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def metrics(self, traced_wall):
        """Per-layer metrics; `other.self_s` is the traced wall time that
        no span covers, so all self times add up to `traced_wall`."""
        out = {SELF_TIME_METRICS[k]: v for k, v in self.self_times().items()}
        out["other.self_s"] = traced_wall - self.top_level_time()
        out.update(self.counts)
        return out
