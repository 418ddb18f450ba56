"""Simulation harness: the shipped scenarios, determinism, generated scenarios."""

import json
from pathlib import Path

import pytest

from ssd import depcore
from ssd import minilang as ml
from ssd import simbench
from ssd.scenario import load_scenario
from ssd.synckernel import OFF_RECORD

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
USECASE_PROJECT = (SCENARIO_DIR / "usecase.mj").read_text()

MERGED_WALKTHROUGH = "class Demo {\n    void Foo2(int i, int newParam) {\n    }\n}\n"


def shipped(name):
    return load_scenario(SCENARIO_DIR / name)


def test_walkthrough_outcome():
    outcome = simbench.run_scenario(shipped("usecase.ssd"), "both")
    ssd = outcome.results["ssd"].metrics
    base = outcome.results["baseline"].metrics
    assert (ssd.commits, ssd.lock_denials, ssd.conflicts) == (2, 1, 0)
    assert ssd.total_blocked_virtual_ms == 40  # denied at 30, granted at 70
    assert (base.checkins, base.commits, base.conflicts, base.merge_invocations) == (2, 2, 1, 1)
    assert outcome.conflicts_prevented == 1
    # both models converge on the same source, by very different routes
    assert outcome.results["ssd"].final_text == MERGED_WALKTHROUGH
    assert outcome.results["baseline"].final_text == MERGED_WALKTHROUGH


def test_trace_lines_are_json_records():
    outcome = simbench.run_scenario(shipped("usecase.ssd"), "both")
    models = []
    for line in outcome.trace_lines:
        record = json.loads(line)
        assert record["model"] in ("ssd", "baseline")
        assert isinstance(record["vt"], int)
        models.append(record["model"])
    # ssd block first, then baseline: no interleaving
    assert models == sorted(models, key=lambda m: m != "ssd")
    assert "ssd" in models and "baseline" in models


def test_inevitable_conflict_fixture():
    outcome = simbench.run_scenario(shipped("inevitable.ssd"), "both")
    ssd = outcome.results["ssd"].metrics
    base = outcome.results["baseline"].metrics
    assert (ssd.conflicts, ssd.lock_denials, ssd.commits) == (0, 1, 1)
    assert (base.conflicts, base.checkins) == (1, 2)
    assert outcome.conflicts_prevented == 1
    checkin_records = [
        json.loads(line)["note"]
        for line in outcome.results["baseline"].trace_lines
        if '"checkin"' in line
    ]
    conflicts = [c for rec in checkin_records for c in rec["conflicts"]]
    assert [(c["kind"], c["qname"]) for c in conflicts] == [("content", "Demo.m2/body[0]")]
    # mine-wins left central referencing the renamed-away field
    assert "someVar + 1" in outcome.results["baseline"].final_text
    assert "int newSomeVar;" in outcome.results["baseline"].final_text


def test_off_record_fixture_reconciles_with_conflict():
    outcome = simbench.run_scenario(shipped("offrecord_off.ssd"))
    assert outcome.mode == "ssd"
    assert set(outcome.results) == {"ssd"}
    metrics = outcome.results["ssd"].metrics
    assert metrics.reconcile_conflicts == 1
    assert metrics.conflicts == 0
    assert metrics.commits == 1  # dana's rename
    kernel = outcome.results["ssd"].engine
    assert kernel.devs["carol"].mode == OFF_RECORD  # conflict keeps her off the record
    final = outcome.results["ssd"].final_text
    assert "renamedVar" in final
    assert "someVar + 1" not in final  # the buffer never reached the record


def test_on_record_fixture_blocks_instead():
    outcome = simbench.run_scenario(shipped("offrecord_on.ssd"))
    metrics = outcome.results["ssd"].metrics
    assert (metrics.lock_denials, metrics.conflicts, metrics.commits) == (1, 0, 2)
    assert metrics.total_blocked_virtual_ms == 30
    final = outcome.results["ssd"].final_text
    assert "int renamedVar;" in final
    assert "int otherVar = renamedVar + 1;" in final


def test_repeat_runs_are_byte_identical():
    first = simbench.run_scenario(shipped("usecase.ssd"), "both")
    second = simbench.run_scenario(shipped("usecase.ssd"), "both")
    assert first.trace_lines == second.trace_lines
    assert first.report_lines() == second.report_lines()


def test_generated_runs_are_byte_identical():
    first = simbench.run_scenario(simbench.generate_scenario(7), "both")
    second = simbench.run_scenario(simbench.generate_scenario(7), "both")
    assert first.trace_lines == second.trace_lines
    assert first.report_lines() == second.report_lines()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_generated_scenario_shape(seed):
    script = simbench.generate_scenario(seed)
    assert script.name == f"random-{seed}.ssd"
    assert script.developers == ["d0", "d1", "d2"]
    assert script.config.auto_commit is False
    edits = [a for a in script.actions if a.is_edit]
    assert len(edits) == 54
    # every developer wraps up with a final commit
    tail = script.actions[-3:]
    assert [a.verb for a in tail] == ["try_commit"] * 3
    assert {a.dev for a in tail} == {"d0", "d1", "d2"}
    unit, diags = ml.parse_unit(ml.SourceText(script.project_text, "<gen>"))
    assert unit is not None and not diags


def test_generator_is_deterministic_per_seed():
    a = simbench.generate_scenario(11)
    b = simbench.generate_scenario(11)
    assert a.actions == b.actions
    assert simbench.generate_scenario(12).actions != a.actions


def test_probe_sees_the_kernel_after_every_step():
    seen = []
    outcome = simbench.run_scenario(shipped("usecase.ssd"), "ssd", probe=seen.append)
    kernel = outcome.results["ssd"].engine
    # six scripted actions plus alice's one retry
    assert len(seen) == 7
    assert all(k is kernel for k in seen)


def test_report_lines_format():
    outcome = simbench.run_scenario(shipped("usecase.ssd"), "both")
    lines = outcome.report_lines()
    assert lines[0] == "scenario=usecase.ssd"
    assert lines[1] == "mode=both"
    assert "ssd_commits=2" in lines
    assert "baseline_conflicts=1" in lines
    assert lines[-1] == "conflicts_prevented=1"
    # one line per metric per model, plus header and footer
    assert len(lines) == 2 + 2 * len(simbench.Metrics._KEYS) + 1


def test_metric_lines_are_sorted_and_stable():
    metrics = simbench.Metrics("ssd", commits=3, lock_denials=1)
    lines = metrics.to_lines()
    assert lines[0] == "ssd_checkins=0"
    assert "ssd_commits=3" in lines
    assert lines == sorted(lines)


def test_table_renders_both_columns():
    outcome = simbench.run_scenario(shipped("usecase.ssd"), "both")
    table = outcome.table()
    rows = table.splitlines()
    assert rows[0].split() == ["metric", "ssd", "baseline"]
    assert len(rows) == 1 + len(simbench.Metrics._KEYS) + 1
    assert rows[-1].split() == ["conflicts_prevented", "1"]
    ssd_only = simbench.run_scenario(shipped("usecase.ssd"), "ssd").table()
    assert "-" in ssd_only  # missing model renders as a dash


def test_mode_override_and_validation():
    outcome = simbench.run_scenario(shipped("usecase.ssd"), "ssd")
    assert set(outcome.results) == {"ssd"}
    assert outcome.conflicts_prevented is None
    assert "conflicts_prevented" not in "\n".join(outcome.report_lines())
    with pytest.raises(ValueError, match="unknown mode"):
        simbench.run_scenario(shipped("usecase.ssd"), "fast")


EXPECT_DENIED_BUT_GRANTED = """\
format: 1
project: usecase.mj
developers: solo
mode: ssd
auto_commit: false

10 solo rename_method Demo.Foo new_name=Bar expect=denied
"""


def test_violated_expectation_aborts_the_run():
    script = simbench.parse_scenario(
        EXPECT_DENIED_BUT_GRANTED, name="bad.ssd", project_text=USECASE_PROJECT
    )
    with pytest.raises(simbench.ScenarioAssertionError, match="expected"):
        simbench.run_scenario(script, "ssd")


def test_baseline_run_ignores_expectations():
    script = simbench.parse_scenario(
        EXPECT_DENIED_BUT_GRANTED, name="bad.ssd", project_text=USECASE_PROJECT
    )
    outcome = simbench.run_scenario(script, "baseline")
    assert outcome.results["baseline"].metrics.conflicts == 0


def test_expectations_are_rejected_while_off_record():
    text = (
        "format: 1\nproject: usecase.mj\ndevelopers: solo\nmode: ssd\nauto_commit: false\n\n"
        "10 solo off_record\n"
        "20 solo rename_method Demo.Foo new_name=Bar expect=denied\n"
    )
    script = simbench.parse_scenario(text, name="off.ssd", project_text=USECASE_PROJECT)
    with pytest.raises(simbench.ScenarioAssertionError):
        simbench.run_scenario(script, "ssd")


def test_make_project_scales_to_the_stated_size():
    text = simbench.make_project()
    unit, diags = ml.parse_unit(ml.SourceText(text, "<bench>"))
    assert unit is not None and not diags
    depcore.annotate(unit, depcore.IdAllocator())
    table = depcore.build_element_table(unit)
    assert len(table.elements) >= 1000
    small = simbench.make_project(classes=2, fields=1, methods=1, stmts=1)
    assert small.count("class ") == 2
