"""Per-layer metrics of the traced run.

`X.calls` is calls per timed operation and `X.self_ms` self time per timed
operation, over the spans of timed requests. Kernel counts are per timed
operation too, except `locks_held_max` and `grant_ratio`. `setup.*` figures
are per set-up. Every workload reports every metric; a layer a workload does
not run reads 0.
"""

from __future__ import annotations

from ssd import semantics

import spans

# (name, unit, better). BENCHMARK.json lists the same names.
PER_LAYER = [
    ("synckernel.tree_copy.calls", "calls/op", "lower"),
    ("synckernel.tree_copy.self_ms", "ms/op", "lower"),
    ("synckernel.replay_onto.calls", "calls/op", "lower"),
    ("synckernel.replay_onto.self_ms", "ms/op", "lower"),
    ("synckernel.request_edit.self_ms", "ms/op", "lower"),
    ("synckernel.try_commit.self_ms", "ms/op", "lower"),
    ("depcore.build_ref_index.self_ms", "ms/op", "lower"),
    ("depcore.union_tables.self_ms", "ms/op", "lower"),
    ("depcore.dependency_rule.calls", "calls/op", "lower"),
    ("depcore.build_element_table.calls", "calls/op", "lower"),
    ("depcore.build_element_table.self_ms", "ms/op", "lower"),
    ("depcore.ref_edges.calls", "calls/op", "lower"),
    ("depcore.ref_edges.self_ms", "ms/op", "lower"),
    ("depcore.descendants.calls", "calls/op", "lower"),
    ("depcore.descendants.self_ms", "ms/op", "lower"),
    ("semantics.resolve.calls", "calls/op", "lower"),
    ("semantics.resolve.self_ms", "ms/op", "lower"),
    ("semantics.build_gate.calls", "calls/op", "lower"),
    ("semantics.build_gate.self_ms", "ms/op", "lower"),
    ("editops.prepare.self_ms", "ms/op", "lower"),
    ("editops.apply_op.self_ms", "ms/op", "lower"),
    ("minilang.print_unit.calls", "calls/op", "lower"),
    ("minilang.print_unit.self_ms", "ms/op", "lower"),
    ("minilang.parse_unit.calls", "calls/op", "lower"),
    ("minilang.parse_unit.self_ms", "ms/op", "lower"),
    ("minilang.parse_statement.calls", "calls/op", "lower"),
    ("minilang.parse_statement.self_ms", "ms/op", "lower"),
    ("minilang.parse_expression.calls", "calls/op", "lower"),
    ("minilang.parse_expression.self_ms", "ms/op", "lower"),
    ("synckernel.grants", "count/op", "higher"),
    ("synckernel.denials.rule1", "count/op", "lower"),
    ("synckernel.denials.rule2", "count/op", "lower"),
    ("synckernel.denials.rule3", "count/op", "lower"),
    ("synckernel.gate_failures", "count/op", "lower"),
    ("synckernel.commits", "count/op", "higher"),
    ("synckernel.rebase_failures", "count/op", "lower"),
    ("synckernel.locks_held_max", "count", "lower"),
    ("synckernel.grant_ratio", "ratio", "higher"),
    ("baseline.edit.self_ms", "ms/op", "lower"),
    ("baseline.checkin.self_ms", "ms/op", "lower"),
    ("baseline.merge_trees.self_ms", "ms/op", "lower"),
    ("baseline.tree_copy.calls", "calls/op", "lower"),
    ("baseline.tree_copy.self_ms", "ms/op", "lower"),
    ("baseline.merge_invocations", "count/op", "lower"),
    ("baseline.conflicts", "count/op", "lower"),
    ("simbench.run_scenario.self_ms", "ms/op", "lower"),
    ("netwire.kernel_ms", "ms/op", "lower"),
    ("netwire.json.self_ms", "ms/op", "lower"),
    ("netwire.lines_sent", "lines/op", "lower"),
    ("netwire.bytes_sent", "B/op", "lower"),
    ("netwire.transport_ms", "ms/op", "lower"),
    ("setup.minilang.parse_unit.self_ms", "ms/setup", "lower"),
    ("setup.semantics.build_gate.self_ms", "ms/setup", "lower"),
    ("setup.depcore.build_element_table.self_ms", "ms/setup", "lower"),
    ("setup.synckernel.tree_copy.self_ms", "ms/setup", "lower"),
    ("setup.synckernel.register.self_ms", "ms/setup", "lower"),
    ("trace.overhead_ms", "ms/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

_KERNEL_COUNTS = {
    "grants": "synckernel.grants",
    "rule1": "synckernel.denials.rule1",
    "rule2": "synckernel.denials.rule2",
    "rule3": "synckernel.denials.rule3",
    "gate_failures": "synckernel.gate_failures",
    "commits": "synckernel.commits",
    "rebase_failures": "synckernel.rebase_failures",
    "merge_invocations": "baseline.merge_invocations",
    "baseline_conflicts": "baseline.conflicts",
}


def kernel_counts(events) -> dict[str, int]:
    """Grants, denials by rule, gate failures, commits and rebase failures
    in a run of kernel events."""
    counts = {"grants": 0, "rule1": 0, "rule2": 0, "rule3": 0, "gate_failures": 0, "commits": 0,
              "rebase_failures": 0}
    for e in events:
        if e.kind == "lock_granted":
            counts["grants"] += 1
        elif e.kind == "lock_denied":
            counts[f"rule{e.details['rule']}"] += 1
        elif e.kind == "build_status" and e.details["status"] != semantics.BUILDABLE:
            counts["gate_failures"] += 1
        elif e.kind == "committed":
            counts["commits"] += 1
        elif e.kind == "reverted" and e.details.get("reason") == "rebase-failure":
            counts["rebase_failures"] += 1
    return counts


def empty() -> dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def layer_metrics(
    tracer: spans.Tracer,
    timed_kinds,
    ops: int,
    setups: int,
    counts: dict[str, int],
    locks_held_max: int,
) -> dict[str, float]:
    """Fill PER_LAYER from the spans of the requests of `timed_kinds` (per
    timed op), the `setup` requests (per set-up) and the kernel's counts."""
    out = empty()
    selfs = spans.self_times(tracer.parent, tracer.start, tracer.end)
    ops = max(ops, 1)
    timed = spans.layer_totals(tracer, selfs, timed_kinds)
    for name, (calls, ns) in timed.items():
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls / ops
        if f"{name}.self_ms" in out:
            out[f"{name}.self_ms"] = ns / 1e6 / ops
    if setups:
        for name, (_calls, ns) in spans.layer_totals(tracer, selfs, ["setup"]).items():
            if f"setup.{name}.self_ms" in out:
                out[f"setup.{name}.self_ms"] = ns / 1e6 / setups
    out["depcore.dependency_rule.calls"] = (
        sum(n for (kind, name), n in tracer.counts.items() if kind in timed_kinds and name == "depcore.dependency_rule")
        / ops
    )
    for key, name in _KERNEL_COUNTS.items():
        out[name] = counts.get(key, 0) / ops
    attempts = timed.get("synckernel.request_edit", (0, 0))[0]
    out["synckernel.grant_ratio"] = counts.get("grants", 0) / attempts if attempts else 0.0
    out["synckernel.locks_held_max"] = float(locks_held_max)
    return out


def overhead(untraced: dict[str, list[float]], traced: dict[str, list[float]]) -> dict[str, float]:
    """Tracing overhead per operation: for each kind of operation, traced
    minus untraced mean latency (ms), weighted by the traced phase's mix so
    that a different mix of cheap and dear operations in the two phases
    does not show as overhead."""
    kinds = [k for k in traced if untraced.get(k)]
    n = sum(len(traced[k]) for k in kinds)
    if not n:
        return {"trace.overhead_ms": 0.0, "trace.overhead_pct": 0.0}

    def mean(values):
        return sum(values) / len(values)

    base = sum(len(traced[k]) * mean(untraced[k]) for k in kinds) / n
    diff = sum(len(traced[k]) * (mean(traced[k]) - mean(untraced[k])) for k in kinds) / n
    return {"trace.overhead_ms": diff, "trace.overhead_pct": 100 * diff / base if base else 0.0}
