"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# -- the tail percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (39, None),  # p75 of 39 leaves 9 beyond
        (40, 75),
        (99, 75),  # p90 of 99 leaves 9 beyond
        (100, 90),
        (999, 90),  # p99 of 999 leaves 9 beyond
        (1000, 99),
        (50000, 99),
    ],
)
def test_tail_percentile_is_the_highest_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    for n in range(1, 3000):
        p = stats.tail_percentile(n)
        if p is not None:
            values = list(range(n))
            cut = stats.percentile(values, p)
            assert sum(1 for v in values if v > cut) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == 5.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summary_names_percentile_and_sample_count():
    text = stats.tail(list(map(float, range(100))), 90).describe()
    assert "p90" in text and "n=100" in text and "10 beyond" in text


# -- self time of nested spans -----------------------------------------------


def _spans(rows):
    """rows: (parent, start, end)"""
    parent, start, end = zip(*rows)
    return list(parent), list(start), list(end)


def test_self_time_subtracts_direct_children_only():
    # 0 [0,100] > 1 [10,60] > 2 [20,30]; 0 > 3 [70,90]
    parent, start, end = _spans([(-1, 0, 100), (0, 10, 60), (1, 20, 30), (0, 70, 90)])
    assert spans.self_times(parent, start, end) == [30, 40, 10, 20]


def test_self_times_of_a_request_sum_to_its_duration():
    tracer = spans.Tracer()
    with tracer.request("edit"):
        outer = tracer.open("a")
        inner = tracer.open("b")
        tracer.close(inner)
        tracer.close(outer)
        tracer.close(tracer.open("c"))
    selfs = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert spans.check_requests(tracer, selfs) == []
    root = 0
    assert sum(selfs) == tracer.end[root] - tracer.start[root]
    assert [tracer.names[i] for i in tracer.name] == ["request.edit", "a", "b", "c"]
    assert list(tracer.rid) == [0, 0, 0, 0]


def test_check_requests_reports_a_child_outside_its_parent():
    tracer = spans.Tracer()
    with tracer.request("edit"):
        tracer.close(tracer.open("a"))
    tracer.end[1] = tracer.end[0] + 5  # child now ends after its parent
    selfs = spans.self_times(tracer.parent, tracer.start, tracer.end)
    problems = spans.check_requests(tracer, selfs)
    assert any("not inside its parent" in p for p in problems)


def test_layer_totals_count_only_the_requested_kinds():
    tracer = spans.Tracer()
    with tracer.request("setup"):
        tracer.close(tracer.open("x"))
    for _ in range(3):
        with tracer.request("edit"):
            tracer.close(tracer.open("x"))
    selfs = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert spans.layer_totals(tracer, selfs, ["edit"])["x"][0] == 3
    assert spans.layer_totals(tracer, selfs, ["setup"])["x"][0] == 1


def test_counts_outside_a_request_are_dropped():
    tracer = spans.Tracer()
    tracer.count("n")
    with tracer.request("edit"):
        tracer.count("n")
        tracer.count("n", 4)
    assert tracer.counts == {("edit", "n"): 5}


def test_overhead_weights_by_the_traced_mix():
    # same per-kind latency in both phases, different mix: no overhead
    untraced = {"edit": [10.0] * 9, "commit": [1000.0]}
    traced = {"edit": [10.0] * 5, "commit": [1000.0] * 5}
    assert layers.overhead(untraced, traced)["trace.overhead_ms"] == 0.0
    slower = {"edit": [12.0] * 5, "commit": [1000.0] * 5}
    assert layers.overhead(untraced, slower)["trace.overhead_ms"] == pytest.approx(1.0)


# -- failure counting --------------------------------------------------------


def test_denials_are_attempts_but_not_failures():
    tally = stats.Tally()
    tally.record(stats.OK, 3)
    tally.record(stats.DENIED, 2)
    assert (tally.attempted, tally.failed, tally.error_share) == (5, 0, 0.0)


@pytest.mark.parametrize(
    "outcome",
    [stats.KERNEL_ERROR, stats.PROTO_ERROR, stats.TIMEOUT, stats.REBASE_FAILURE, stats.WRONG_OUTCOME],
)
def test_each_failure_kind_counts_as_failed(outcome):
    tally = stats.Tally()
    tally.record(stats.OK, 3)
    tally.record(outcome)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_share == pytest.approx(0.25)


def test_unknown_outcome_is_rejected():
    with pytest.raises(ValueError):
        stats.Tally().record("granted-ish")


# -- the timed copy shim -----------------------------------------------------


class _Node:
    def __init__(self, children=()):
        self.children = list(children)


def test_timed_copy_spans_only_the_callers_own_deepcopy_calls():
    tracer = spans.Tracer()
    shim = spans.TimedCopy(tracer, "mod.tree_copy")
    tree = _Node([_Node([_Node(), _Node()]), _Node()])
    with tracer.request("commit"):
        copied = shim.deepcopy(tree)
        shim.deepcopy([tree, tree])
    assert copied is not tree and copied.children[0].children[1] is not tree.children[0].children[1]
    names = [tracer.names[i] for i in tracer.name]
    # the recursion inside copy.deepcopy (nodes, lists, dicts) adds no spans
    assert names == ["request.commit", "mod.tree_copy", "mod.tree_copy"]


def test_timed_copy_replaces_only_the_module_attribute():
    module = types.SimpleNamespace(copy=copy)
    patches = spans.Patches()
    patches.replace(module, "copy", spans.TimedCopy(spans.Tracer(), "m.tree_copy"))
    assert isinstance(module.copy, spans.TimedCopy)
    assert copy.deepcopy.__module__ == "copy"  # the real module is untouched
    assert module.copy.copy is copy.copy  # other attributes pass through
    patches.undo()
    assert module.copy is copy


def test_patches_keep_a_staticmethod_static_and_undo_restores_it():
    class K:
        @staticmethod
        def f(x):
            return x + 1

    tracer = spans.Tracer()
    patches = spans.Patches()
    spans._wrap_attr(patches, K, "f", lambda fn: tracer.spanned(fn, "k.f"))
    with tracer.request("op"):
        assert K.f(1) == 2 and K().f(2) == 3
    assert [tracer.names[i] for i in tracer.name] == ["request.op", "k.f", "k.f"]
    patches.undo()
    assert isinstance(K.__dict__["f"], staticmethod)


def test_copy_shim_counts_one_tree_copy_per_registration():
    import ssd

    tracer = spans.Tracer()
    patches = spans.Patches()
    tracer.install(ssd, patches)
    try:
        kernel = ssd.synckernel.Kernel("class A {\n    int f;\n}\n")
        with tracer.request("setup"):
            kernel.register("a")
    finally:
        patches.undo()
    selfs = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert spans.layer_totals(tracer, selfs, ["setup"])["synckernel.tree_copy"][0] == 1
    assert not isinstance(ssd.synckernel.copy, spans.TimedCopy)


# -- BENCHMARK.json and the reported metrics ---------------------------------


def test_benchmark_json_names_the_metrics_the_benchmark_reports():
    import json

    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    result = workloads.Result("wire", setup_s=[0.5, 0.4, 0.6], ops=10, elapsed_s=2.0, peak_rss_mb=50.0)
    result.samples = {k: [1.0, 2.0, 3.0] for k in ("register", "edit", "read", "commit")}
    metrics, lines = run._end_to_end(result, "wire")
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in bench["end_to_end"]
    ]
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
