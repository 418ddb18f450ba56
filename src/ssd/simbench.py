"""Deterministic multi-developer simulator and the coordinated-vs-checkin
comparison harness.

One scenario script can drive two models: the coordination kernel (edits
admitted against locks, only buildable states propagate) and the baseline
repository (isolated working copies, conflicts surface at checkin). Running
both on the same script yields the headline metric: conflicts_prevented, the
number of baseline merge conflicts the kernel turned into early denials.

Execution is a single-threaded discrete-event loop over virtual time
(scenario.drive, the same driver the network client runs); ties break by
(developer name, script line). Identical inputs produce byte-identical
traces.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import baseline as baseline_mod
from . import editops
from .scenario import (
    BUFFERED,
    DENIED,
    DONE,
    ERROR,
    GRANTED,
    MODE_BY_VERB,
    Action,
    Reply,
    ScenarioAssertionError,  # re-exported for callers of run_scenario
    ScenarioScript,
    drive,
    parse_scenario,
)
from .synckernel import Kernel, KernelError, OFF_RECORD


@dataclass
class Metrics:
    model: str
    commits: int = 0
    lock_denials: int = 0
    total_blocked_virtual_ms: int = 0
    conflicts: int = 0  # kernel: rebase failures; baseline: merge conflicts
    reconcile_conflicts: int = 0
    merge_invocations: int = 0
    checkins: int = 0

    _KEYS = (
        "checkins",
        "commits",
        "conflicts",
        "lock_denials",
        "merge_invocations",
        "reconcile_conflicts",
        "total_blocked_virtual_ms",
    )

    def to_lines(self) -> list[str]:
        return [f"{self.model}_{key}={getattr(self, key)}" for key in self._KEYS]


@dataclass
class RunResult:
    model: str
    metrics: Metrics
    trace_lines: list[str]
    final_text: str
    engine: object  # Kernel or BaselineRepo, for invariant probes in tests


@dataclass
class SimOutcome:
    scenario: str
    mode: str
    results: dict[str, RunResult]
    conflicts_prevented: int | None

    @property
    def trace_lines(self) -> list[str]:
        lines: list[str] = []
        for model in ("ssd", "baseline"):
            if model in self.results:
                lines.extend(self.results[model].trace_lines)
        return lines

    def report_lines(self) -> list[str]:
        lines = [f"scenario={self.scenario}", f"mode={self.mode}"]
        for model in ("ssd", "baseline"):
            if model in self.results:
                lines.extend(self.results[model].metrics.to_lines())
        if self.conflicts_prevented is not None:
            lines.append(f"conflicts_prevented={self.conflicts_prevented}")
        return lines

    def table(self) -> str:
        rows = [("metric", "ssd", "baseline")]
        for key in Metrics._KEYS:
            rows.append(
                (
                    key,
                    str(getattr(self.results["ssd"].metrics, key)) if "ssd" in self.results else "-",
                    str(getattr(self.results["baseline"].metrics, key))
                    if "baseline" in self.results
                    else "-",
                )
            )
        if self.conflicts_prevented is not None:
            rows.append(("conflicts_prevented", str(self.conflicts_prevented), ""))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        return "\n".join(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        )


class _SsdRun:
    def __init__(self, script: ScenarioScript, probe=None):
        self.script = script
        self.probe = probe
        self.now = 0
        self.kernel = Kernel(script.project_text, script.config, clock=lambda: self.now)
        for dev in script.developers:
            self.kernel.register(dev)
        self.trace: list[str] = []
        self.metrics = Metrics("ssd")
        self._drained = 0
        self._stepped = False

    def _drain(self) -> None:
        for event in self.kernel.events[self._drained :]:
            self.trace.append(
                json.dumps(
                    {"model": "ssd", "vt": self.now, "event": event.to_record()}, sort_keys=True
                )
            )
            self._drained += 1

    def _note(self, **payload) -> None:
        self.trace.append(
            json.dumps({"model": "ssd", "vt": self.now, "note": payload}, sort_keys=True)
        )

    def _settle(self) -> None:
        """Close the previous step: its kernel events follow the driver's
        notes on it in the trace, then the probe sees the kernel."""
        self._drain()
        if self.probe is not None:
            self.probe(self.kernel)

    def _advance(self, vt: int) -> None:
        if self._stepped:
            self._settle()
        self._stepped = True
        self.now = vt
        self.kernel.check_leases(vt)
        self._drain()

    def _attempt(self, action: Action, n: int, target) -> Reply:
        dev = action.dev
        try:
            if action.is_edit:
                request = editops.EditRequest(action.verb, target, dict(action.args))
                if self.kernel.devs[dev].mode == OFF_RECORD:
                    op, report = self.kernel.buffer_edit(dev, request)
                    return Reply(BUFFERED, target=op.target, status=report.status)
                outcome = self.kernel.request_edit(dev, request)
                if outcome.granted:
                    return Reply(GRANTED)
                return Reply(DENIED, target=outcome.op.target)
            if action.verb in ("try_commit", "checkin"):
                self.kernel.try_commit(dev)
            elif action.verb == "revert":
                self.kernel.revert(dev)
            else:
                self.kernel.set_mode(dev, MODE_BY_VERB[action.verb])
        except KernelError as exc:
            return Reply(ERROR, code=exc.code, message=exc.message)
        return Reply(DONE)

    def run(self) -> RunResult:
        self.metrics.total_blocked_virtual_ms = drive(
            self.script.name, self.script.actions, self._attempt, self._advance, self._note
        )
        if self._stepped:
            self._settle()
        for event in self.kernel.events:
            if event.kind == "committed":
                self.metrics.commits += 1
            elif event.kind == "lock_denied":
                self.metrics.lock_denials += 1
            elif event.kind == "reverted" and event.details.get("reason") == "rebase-failure":
                self.metrics.conflicts += 1
            elif event.kind == "reconcile_result" and event.details.get("result") == "conflict":
                self.metrics.reconcile_conflicts += 1
        return RunResult("ssd", self.metrics, self.trace, self.kernel.snapshot.text, self.kernel)


class _BaselineRun:
    def __init__(self, script: ScenarioScript):
        self.script = script
        self.now = 0
        self.repo = baseline_mod.BaselineRepo(script.project_text)
        for dev in script.developers:
            self.repo.register(dev)
        self.trace: list[str] = []
        self.metrics = Metrics("baseline")

    def _note(self, **payload) -> None:
        self.trace.append(
            json.dumps({"model": "baseline", "vt": self.now, "note": payload}, sort_keys=True)
        )

    def _step(self, action: Action) -> None:
        # expect= and retry= encode coordination outcomes; the baseline has
        # no admission step, so they are ignored here by design
        if action.is_edit:
            try:
                op = self.repo.edit(action.dev, action.request())
            except editops.OpError as exc:
                self._note(
                    action="error",
                    dev=action.dev,
                    code=exc.code,
                    message=exc.message,
                    line=action.line,
                )
                return
            self._note(action="edit", dev=action.dev, kind=op.kind, target=op.target)
            return
        if action.verb in ("try_commit", "checkin"):
            result = self.repo.checkin(action.dev)
            self.metrics.checkins += 1
            if result.changed:
                self.metrics.commits += 1
            self.metrics.conflicts += len(result.conflicts)
            self._note(
                action="checkin",
                dev=action.dev,
                version=result.version,
                changed=result.changed,
                merged=result.merged,
                conflicts=[c.to_record() for c in result.conflicts],
            )
        elif action.verb == "revert":
            self.repo.revert(action.dev)
            self._note(action="revert", dev=action.dev)
        else:  # off_record / on_record have no baseline meaning
            self._note(action="ignored", dev=action.dev, verb=action.verb)

    def run(self) -> RunResult:
        for action in sorted(self.script.actions, key=lambda a: (a.vt, a.dev, a.line)):
            self.now = action.vt
            self._step(action)
        self.metrics.merge_invocations = self.repo.merge_invocations
        return RunResult(
            "baseline", self.metrics, self.trace, self.repo.central_text(), self.repo
        )


def run_scenario(script: ScenarioScript, mode: str | None = None, probe=None) -> SimOutcome:
    """Run one or both models over the script. `probe(kernel)` is called
    after every simulated step of the kernel run (invariant checks)."""
    mode = mode or script.mode
    if mode not in ("ssd", "baseline", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    results: dict[str, RunResult] = {}
    if mode in ("ssd", "both"):
        results["ssd"] = _SsdRun(script, probe=probe).run()
    if mode in ("baseline", "both"):
        results["baseline"] = _BaselineRun(script).run()
    prevented = None
    if mode == "both":
        prevented = max(0, results["baseline"].metrics.conflicts - results["ssd"].metrics.conflicts)
    return SimOutcome(script.name, mode, results, prevented)


# ---------------------------------------------------------------------------
# Generators


def make_project(classes: int = 34, fields: int = 4, methods: int = 5, stmts: int = 3) -> str:
    """A synthetic project for load measurements: each method takes one
    parameter and references class fields. Defaults yield ~1,000 elements."""
    chunks = []
    for c in range(classes):
        lines = [f"class C{c} {{"]
        for f in range(fields):
            lines.append(f"    int f{f} = {f};")
        for m in range(methods):
            lines.append("")
            lines.append(f"    void m{m}(int p{m}) {{")
            for s in range(stmts):
                lines.append(f"        f{(m + s) % fields} = f{s % fields} + {s};")
            lines.append("    }")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


_RANDOM_PROJECT = """\
class Shared {
    int f0;
    int f1 = 1;
    int f2 = 2;
    int f3 = 3;

    void m0() {
        f0 = f1 + 1;
        f1 = f2;
    }

    void m1() {
        f2 = f3 + 2;
        int a0 = f0;
    }

    void m2() {
        f3 = f0 + f1;
        int a1 = f2;
    }
}
"""

_STMT_TARGETS = [
    "Shared.m0/body[0]",
    "Shared.m0/body[1]",
    "Shared.m1/body[0]",
    "Shared.m1/body[1]",
    "Shared.m2/body[0]",
    "Shared.m2/body[1]",
]
_FIELDS = ["Shared.f0", "Shared.f1", "Shared.f2", "Shared.f3"]
_METHOD_BODIES = ["Shared.m0/body", "Shared.m1/body", "Shared.m2/body"]


# a generated script's length, and how many edits each developer makes
# between commits
_EDITS = 54
_COMMIT_EVERY = 4


def generate_scenario(seed: int) -> ScenarioScript:
    """Seeded random 3-developer script over a shared class, tuned so
    dependent-pair contention is common. Deterministic per seed."""
    rng = random.Random(seed)
    devs = ["d0", "d1", "d2"]
    lines = []
    vt = 0
    counter = 0
    per_dev_edits = {d: 0 for d in devs}
    for _ in range(_EDITS):
        vt += rng.randrange(5, 16)
        dev = rng.choice(devs)
        counter += 1
        roll = rng.random()
        if roll < 0.40:
            target = rng.choice(_STMT_TARGETS)
            lhs = f"f{rng.randrange(4)}"
            rhs = f"f{rng.randrange(4)}"
            text = f"{lhs} = {rhs} + {rng.randrange(10)};"
            lines.append(f'{vt} {dev} replace_statement {target} text="{text}"')
        elif roll < 0.60:
            target = rng.choice(_FIELDS)
            lines.append(f"{vt} {dev} set_field_init {target} init={rng.randrange(100)}")
        elif roll < 0.72:
            target = rng.choice(_METHOD_BODIES)
            text = f"int t{counter} = f{rng.randrange(4)};"
            lines.append(f'{vt} {dev} insert_statement {target} text="{text}"')
        elif roll < 0.82:
            target = rng.choice(_FIELDS)
            lines.append(f"{vt} {dev} rename_field {target} new_name=rn{counter}")
        elif roll < 0.92:
            lines.append(f"{vt} {dev} add_field Shared type=int name=g{counter}")
        else:
            target = rng.choice(["Shared.m0", "Shared.m1", "Shared.m2"])
            lines.append(f"{vt} {dev} rename_method {target} new_name=mn{counter}")
        per_dev_edits[dev] += 1
        if per_dev_edits[dev] % _COMMIT_EVERY == 0:
            vt += 1
            lines.append(f"{vt} {dev} try_commit")
    for dev in devs:
        vt += 10
        lines.append(f"{vt} {dev} try_commit")
    text = (
        "format: 1\n"
        "project: shared.mj\n"
        f"developers: {' '.join(devs)}\n"
        "mode: both\n"
        "auto_commit: false\n\n" + "\n".join(lines) + "\n"
    )
    return parse_scenario(text, name=f"random-{seed}.ssd", project_text=_RANDOM_PROJECT)
