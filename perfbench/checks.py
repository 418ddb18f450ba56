"""Correctness checks on what the program produced. Each returns a list of
problems; an empty list means the check passed."""

from __future__ import annotations

from ssd import depcore, semantics, synckernel

import spans


def snapshots_buildable(kernel: synckernel.Kernel) -> list[str]:
    """Every published snapshot passes the build gate."""
    return [
        f"snapshot v{snap.version} does not build: {gate.report.errors[0].message}"
        for snap in kernel.history
        for gate in [semantics.build_gate(snap.tree)]
        if not gate.report.buildable
    ]


def replay_matches(kernel: synckernel.Kernel) -> list[str]:
    """Replaying the committed events alone reproduces the live snapshot
    text byte for byte."""
    replayed = synckernel.Kernel.replay_committed(kernel.initial_text, kernel.events)
    if replayed != kernel.snapshot.text:
        return [f"replay differs from snapshot v{kernel.snapshot.version}"]
    return []


def locks_independent(kernel: synckernel.Kernel) -> list[str]:
    """No two developers hold dependent elements. Tables and reference
    edges are rebuilt from the snapshot and on-record overlay trees rather
    than taken from the kernel's caches."""
    trees = [kernel.snapshot.tree] + [
        ov.tree for _, ov in sorted(kernel.devs.items()) if ov.mode == synckernel.ON_RECORD
    ]
    table = depcore.union_tables(depcore.build_element_table(tree) for tree in trees)
    index = depcore.RefIndex()
    for tree in trees:
        for a, b in depcore.ref_edges(tree):
            index.add(a, b, "rebuilt")
    held = sorted(kernel.lock_holder.items())
    problems = []
    for i, (a, holder_a) in enumerate(held):
        if a not in table:
            continue
        for b, holder_b in held[i + 1 :]:
            if holder_a == holder_b or b not in table:
                continue
            rule = depcore.dependency_rule(a, b, index, table)
            if rule is not None:
                problems.append(f"{holder_a} holds {a}, {holder_b} holds {b}: dependent by rule {rule}")
    return problems


def sweep_conflicts(outcomes) -> list[str]:
    """The kernel records no conflict on any seed, and conflicts_prevented
    equals the baseline's conflict count."""
    problems = []
    for outcome in outcomes:
        kernel_conflicts = outcome.results["ssd"].metrics.conflicts
        baseline_conflicts = outcome.results["baseline"].metrics.conflicts
        if kernel_conflicts:
            problems.append(f"{outcome.scenario}: {kernel_conflicts} kernel conflicts")
        if outcome.conflicts_prevented != baseline_conflicts:
            problems.append(
                f"{outcome.scenario}: conflicts_prevented {outcome.conflicts_prevented} "
                f"!= baseline conflicts {baseline_conflicts}"
            )
    return problems


def span_problems(tracer: spans.Tracer) -> list[str]:
    selfs = spans.self_times(tracer.parent, tracer.start, tracer.end)
    return spans.check_requests(tracer, selfs)
