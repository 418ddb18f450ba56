"""The names the benchmark reaches into the program by.

`perfbench/` wraps program functions by attribute path at runtime and runs
its correctness checks on a live kernel. Only a traced benchmark run
installs the span wrappers, so a renamed or moved entry point would fail
nowhere else. This test installs both instruments, runs a few requests
through them, undoes them, and runs the checks the benchmark gates on.
"""

import copy
import sys
from pathlib import Path

import pytest

import ssd
from ssd import synckernel
from ssd.editops import EditRequest
from ssd.synckernel import Kernel, KernelConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SOURCE = "class A {\n    int x;\n\n    void m() {\n        x = 1;\n    }\n}\n\nclass B {\n    int y;\n}\n"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import spans

        yield spans, checks
    finally:
        sys.path.remove(str(PERFBENCH))


def _kernel_after_a_commit_and_a_pending_edit() -> Kernel:
    kernel = Kernel(SOURCE, KernelConfig(auto_commit=False))
    kernel.register("d0")
    kernel.register("d1")
    assert kernel.request_edit("d0", EditRequest("set_field_init", "B.y", {"init": "2"})).granted
    assert kernel.try_commit("d0").ok
    assert kernel.request_edit("d0", EditRequest("set_field_init", "B.y", {"init": "4"})).granted
    assert kernel.request_edit("d1", EditRequest("replace_statement", "A.m/body[0]", {"text": "x = 3;"})).granted
    return kernel


def test_instruments_resolve_and_come_off(perfbench):
    spans, checks = perfbench
    originals = {name: synckernel.Kernel.__dict__[name] for name in spans.TIMED}
    patches = spans.Patches()
    timers = spans.Timers()
    tracer = spans.Tracer()
    try:
        timers.install(ssd, patches)
        tracer.install(ssd, patches)
        assert isinstance(synckernel.copy, spans.TimedCopy)
        with tracer.request("setup"):
            kernel = Kernel(SOURCE, KernelConfig(auto_commit=False))
            kernel.register("d0")
            kernel.register("d1")
        with tracer.request("edit"):
            assert kernel.request_edit("d1", EditRequest("set_field_init", "B.y", {"init": "2"})).granted
        with tracer.request("edit"):
            assert kernel.request_edit("d0", EditRequest("set_field_init", "A.x", {"init": "5"})).granted
        with tracer.request("commit"):
            assert kernel.try_commit("d0").ok
    finally:
        patches.undo()
    assert {name: synckernel.Kernel.__dict__[name] for name in spans.TIMED} == originals
    assert synckernel.copy is copy
    assert timers.samples["request_edit"] and timers.samples["try_commit"]
    for span in (
        "synckernel.request_edit",
        "synckernel.try_commit",
        "depcore.union_tables",
        "depcore.build_ref_index",
        "editops.prepare",
    ):
        assert span in tracer.names
    # views share their snapshot's nodes: the shim is in place, but no
    # request deep-copies a tree
    assert "synckernel.tree_copy" not in tracer.names
    assert tracer.counts[("edit", "depcore.dependency_rule")] >= 1
    assert checks.span_problems(tracer) == []


def test_benchmark_checks_pass_on_a_small_kernel(perfbench):
    _spans, checks = perfbench
    kernel = _kernel_after_a_commit_and_a_pending_edit()
    assert kernel.lock_holder
    assert checks.snapshots_buildable(kernel) == []
    assert checks.replay_matches(kernel) == []
    assert checks.locks_independent(kernel) == []
