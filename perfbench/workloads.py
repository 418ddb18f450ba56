"""The in-process workloads: commit-fanout, admission-contention and sweep.

Each is a closed loop with one caller: the next operation starts when the
previous one has returned. Inputs are generated from the seed before any
timing starts; the kernel sees only the generated requests. The operation
stream is long enough never to run out, so a run executes a prefix of it and
the event-log digest over a fixed prefix compares two versions of the
program.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ssd import baseline, simbench, synckernel
from ssd.editops import EditRequest

import checks
import layers
import spans
from stats import DENIED, KERNEL_ERROR, OK, REBASE_FAILURE, WRONG_OUTCOME, Tally

# Set-ups per run; setup_s is their median. Fewer where one set-up takes
# seconds (32 registrations).
SETUPS = {"commit-fanout": 5, "admission-contention": 3, "sweep": 5, "wire": 7}
STREAM = 20000  # generated operations; more than any run can use

FANOUT_DEVS = 8
FANOUT_EDITS_PER_COMMIT = 4
CONTENTION_DEVS = 32
SWEEP_SEEDS = 100

# Tail percentile per workload and operation: what the tail rule gives at the
# sample counts this run length yields. See stats.tail.
TAIL = {
    ("commit-fanout", "edit"): 75,
    ("admission-contention", "edit"): 90,
    ("sweep", "edit"): 99,
    ("sweep", "commit"): 99,
    ("wire", "edit"): 90,
}

# A prefix of operations (scenarios for sweep, requests for wire) that every
# run completes: the event-log digest covers it, and peak memory is read when
# it ends, so that a faster program running more operations in the window
# does not read as using more memory.
PREFIX_OPS = {"commit-fanout": 25, "admission-contention": 200, "sweep": 40, "wire": 200}


@dataclass
class Op:
    kind: str  # "edit" or "commit"
    dev: str
    request: EditRequest | None = None
    expect_granted: bool = True


@dataclass
class Result:
    """Everything one run measured, checked and counted."""

    workload: str
    setup_s: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)  # op kind -> ms
    ops: int = 0
    elapsed_s: float = 0.0
    tally: Tally = field(default_factory=Tally)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)  # traced run only
    tracer: spans.Tracer | None = None  # traced run only

    def check(self, name: str, problems: list[str]) -> None:
        self.checks.append((name, not problems, "; ".join(problems[:3])))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ---------------------------------------------------------------------------
# Input generation


class Deck:
    """Draws items in shuffled rounds, so that every round of draws has the
    same mix whatever the seed: the seed changes order and targets, not the
    proportions the latency medians depend on."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


# own-class edit kinds: 50% initializer, 35% statement, 15% rename
OWN_EDITS = ["init"] * 10 + ["stmt"] * 7 + ["rename"] * 3


def own_edit(rng: random.Random, deck: Deck, cls: str, names: list[str]) -> EditRequest:
    """A buildable edit confined to one class of simbench.make_project().
    `names` holds the class's current field names and is updated on rename."""
    kind = deck.draw()
    j = rng.randrange(len(names))
    if kind == "init":
        return EditRequest("set_field_init", f"{cls}.{names[j]}", {"init": str(rng.randrange(100))})
    if kind == "stmt":
        lhs, rhs = rng.choice(names), rng.choice(names)
        target = f"{cls}.m{rng.randrange(5)}/body[{rng.randrange(3)}]"
        return EditRequest("replace_statement", target, {"text": f"{lhs} = {rhs} + {rng.randrange(10)};"})
    old = names[j]
    names[j] = f"f{j}" if old != f"f{j}" else f"f{j}r"
    return EditRequest("rename_field", f"{cls}.{old}", {"new_name": names[j]})


def fanout_inputs(seed: int) -> tuple[str, list[str], list[Op]]:
    """8 developers, each editing only its own class and committing after
    every FANOUT_EDITS_PER_COMMIT edits; round-robin, with the first commits
    staggered so that commits are spread evenly over the stream."""
    rng = random.Random(seed)
    classes = rng.sample(range(34), FANOUT_DEVS)
    devs = [f"d{i}" for i in range(FANOUT_DEVS)]
    names = {dev: [f"f{j}" for j in range(4)] for dev in devs}
    decks = {dev: Deck(rng, OWN_EDITS) for dev in devs}
    pending = {dev: i % FANOUT_EDITS_PER_COMMIT for i, dev in enumerate(devs)}
    order = devs[:]
    rng.shuffle(order)
    ops: list[Op] = []
    while len(ops) < STREAM:
        for dev in order:
            cls = f"C{classes[devs.index(dev)]}"
            ops.append(Op("edit", dev, own_edit(rng, decks[dev], cls, names[dev])))
            pending[dev] += 1
            if pending[dev] >= FANOUT_EDITS_PER_COMMIT:
                ops.append(Op("commit", dev))
                pending[dev] = 0
    return simbench.make_project(), devs, ops


@dataclass
class _Holdings:
    """What one developer of admission-contention locks during warm-up."""

    cls: str
    fields: list[int]  # fields it set the initializer of
    param_methods: list[int]  # methods it added a parameter q<m> to
    stmts: list[tuple[int, int, int, int]]  # (method, index, lhs field, rhs field)


def contention_inputs(seed: int) -> tuple[str, list[str], list[Op], list[Op]]:
    """32 developers. Warm-up: each locks two fields, two methods (by adding
    a parameter) with their new parameters, and two statements, 256 locks in
    all. Timed: 80% of edits re-edit an element the developer already holds,
    so the lock set stays the same; 20% target another developer's class in
    a way that depends on one of its locks, by rule 1, 2 or 3, and must be
    denied. No commits: the timed edits copy no trees."""
    rng = random.Random(seed)
    classes = rng.sample(range(34), CONTENTION_DEVS)
    devs = [f"d{i:02d}" for i in range(CONTENTION_DEVS)]
    plan: dict[str, _Holdings] = {}
    for dev, c in zip(devs, classes):
        fields = sorted(rng.sample(range(4), 2))
        param_methods = sorted(rng.sample(range(5), 2))
        free = [f for f in range(4) if f not in fields]
        stmt_methods = rng.sample([m for m in range(5) if m not in param_methods], 2)
        # each held statement assigns a free field, so a foreign edit of that
        # field depends on the statement by reference (rule 3)
        stmts = [(m, rng.randrange(3), free[i], rng.randrange(4)) for i, m in enumerate(stmt_methods)]
        plan[dev] = _Holdings(f"C{c}", fields, param_methods, stmts)

    def stmt_request(h: _Holdings, stmt) -> EditRequest:
        m, s, lhs, rhs = stmt
        text = f"f{lhs} = f{rhs} + {rng.randrange(10)};"
        return EditRequest("replace_statement", f"{h.cls}.m{m}/body[{s}]", {"text": text})

    warmup: list[Op] = []
    for step in range(6):
        for dev in devs:
            h = plan[dev]
            if step < 2:
                req = EditRequest("set_field_init", f"{h.cls}.f{h.fields[step]}", {"init": "1"})
            elif step < 4:
                m = h.param_methods[step - 2]
                req = EditRequest("add_param", f"{h.cls}.m{m}", {"type": "int", "name": f"q{m}"})
            else:
                req = stmt_request(h, h.stmts[step - 4])
            warmup.append(Op("edit", dev, req))

    own_kinds = Deck(rng, range(3))
    rules = Deck(rng, range(1, 4))
    # Rounds of 50: 40 own edits and a block of 10 foreign ones. A denial
    # leaves the kernel's union-table cache valid, so the granted edit after
    # it is cheaper; one block per round keeps those discounted edits to 2%,
    # so the edit median lies inside the mode of ordinary granted edits.
    kinds: list[bool] = []  # True: foreign
    ops: list[Op] = []
    while len(ops) < STREAM:
        if not kinds:
            kinds = [False] * 40
            at = rng.randrange(41)
            kinds[at:at] = [True] * 10
        dev = rng.choice(devs)
        h = plan[dev]
        if not kinds.pop():
            which = own_kinds.draw()
            if which == 0:
                f = rng.choice(h.fields)
                req = EditRequest("set_field_init", f"{h.cls}.f{f}", {"init": str(rng.randrange(100))})
            elif which == 1:
                m = rng.choice(h.param_methods)
                req = EditRequest("set_param_type", f"{h.cls}.m{m}.q{m}", {"type": "int"})
            else:
                req = stmt_request(h, rng.choice(h.stmts))
            ops.append(Op("edit", dev, req))
            continue
        v = plan[rng.choice([d for d in devs if d != dev])]
        rule = rules.draw()
        if rule == 1:
            req = EditRequest("set_field_init", f"{v.cls}.f{rng.choice(v.fields)}", {"init": "0"})
        elif rule == 2:
            # the method's original parameter shares the locked method
            m = rng.choice(v.param_methods)
            req = EditRequest("set_param_type", f"{v.cls}.m{m}.p{m}", {"type": "int"})
        else:
            _m, _s, lhs, _rhs = rng.choice(v.stmts)
            req = EditRequest("set_field_init", f"{v.cls}.f{lhs}", {"init": "0"})
        ops.append(Op("edit", dev, req, expect_granted=False))
    return simbench.make_project(), devs, warmup, ops


def sweep_inputs(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(SWEEP_SEEDS)]


# ---------------------------------------------------------------------------
# Shared pieces


def update_digest(digest, events) -> None:
    """Feed kernel events to a hash, one JSON record per line."""
    for event in events:
        digest.update(event.to_json().encode() + b"\n")


def _execute(kernel: synckernel.Kernel, op: Op, tally: Tally) -> None:
    """Run one operation and record its outcome."""
    try:
        if op.kind == "commit":
            outcome = kernel.try_commit(op.dev)
            reverts = sum(
                1
                for e in outcome.events
                if e.kind == "reverted" and e.details.get("reason") == "rebase-failure"
            )
            tally.record(REBASE_FAILURE if reverts else OK if outcome.ok else WRONG_OUTCOME)
            return
        outcome = kernel.request_edit(op.dev, op.request)
    except synckernel.KernelError:
        tally.record(KERNEL_ERROR)
        return
    if outcome.granted != op.expect_granted:
        tally.record(WRONG_OUTCOME)
    else:
        tally.record(OK if outcome.granted else DENIED)


class _Phase:
    """Runs operations from a stream until the window closes, keeping the
    loop-level duration (ms) of each operation by kind. `after(item)` runs
    after each operation; its time is left out of the window and of
    `elapsed`."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.by_kind: dict[str, list[float]] = {}
        self.ops = 0
        self.elapsed = 0.0

    def run(self, stream, step, kind=lambda op: op.kind, after=None) -> None:
        # start every window from the same collector state, whatever garbage
        # the set-ups left
        gc.collect()
        start = time.perf_counter()
        untimed = 0.0
        for item in stream:
            t0 = time.perf_counter()
            if t0 - untimed >= start + self.seconds:
                break
            step(item)
            t1 = time.perf_counter()
            self.by_kind.setdefault(kind(item), []).append(1000 * (t1 - t0))
            self.ops += 1
            if after is not None:
                after(item)
                untimed += time.perf_counter() - t1
        self.elapsed = time.perf_counter() - start - untimed


def peak_rss_mb(pid="self") -> float:
    """The process's resident-set high-water mark (VmHWM)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class Instruments:
    """The measurement installed for one run: latency timers when untraced,
    spans when traced."""

    def __init__(self, ssd, trace: bool):
        self.ssd = ssd
        self.trace = trace
        self.patches = spans.Patches()
        self.timers = spans.Timers()
        self.tracer = spans.Tracer()

    def install(self) -> None:
        if self.trace:
            self.tracer.install(self.ssd, self.patches)
        else:
            self.timers.install(self.ssd, self.patches)

    def remove(self) -> None:
        self.patches.undo()

    def request(self, kind: str):
        return self.tracer.request(kind) if self.trace else nullcontext()


# ---------------------------------------------------------------------------
# Kernel workloads (commit-fanout, admission-contention)


def _kernel_setup(text: str, devs: list[str]) -> synckernel.Kernel:
    kernel = synckernel.Kernel(text, synckernel.KernelConfig(auto_commit=False))
    for dev in devs:
        kernel.register(dev)
    return kernel


def run_kernel_workload(ssd, name: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result(name)
    if name == "commit-fanout":
        text, devs, ops = fanout_inputs(seed)
        warmup: list[Op] = []
    else:
        text, devs, warmup, ops = contention_inputs(seed)
    inst = Instruments(ssd, trace)
    inst.install()
    kernel = None
    for _ in range(SETUPS[name]):
        t0 = time.perf_counter()
        with inst.request("setup"):
            kernel = _kernel_setup(text, devs)
        result.setup_s.append(time.perf_counter() - t0)

    inst.remove()
    warm_tally = Tally()
    for op in warmup:
        _execute(kernel, op, warm_tally)
    if warmup:
        granted = warm_tally.by_outcome.get(OK, 0) == warm_tally.attempted
        result.check("warm-up edits granted", [] if granted else [f"outcomes {warm_tally.by_outcome}"])
    events_before = len(kernel.events)

    stream = iter(ops)
    locks_max = [len(kernel.lock_holder)]
    ends: list[int] = []  # len(kernel.events) after each timed op

    prefix = PREFIX_OPS[name]

    def step(op: Op) -> None:
        _execute(kernel, op, result.tally)
        ends.append(len(kernel.events))
        locks_max[0] = max(locks_max[0], len(kernel.lock_holder))
        if len(ends) == prefix:
            result.peak_rss_mb = peak_rss_mb()

    if not trace:
        inst.install()
        phase = _Phase(seconds)
        phase.run(stream, step)
        inst.remove()
        result.samples = {
            "register": inst.timers.samples["register"],
            "edit": inst.timers.samples["request_edit"],
            "commit": inst.timers.samples["try_commit"],
        }
    else:
        untraced = _Phase(seconds / 2)
        untraced.run(stream, step)
        traced_from = len(ends)
        inst.install()
        phase = _Phase(seconds / 2)

        def traced_step(op: Op) -> None:
            with inst.tracer.request(op.kind):
                step(op)

        phase.run(stream, traced_step)
        inst.remove()
        counts = layers.kernel_counts(kernel.events[ends[traced_from - 1] if traced_from else events_before :])
        result.layers = layers.layer_metrics(
            inst.tracer, ("edit", "commit"), phase.ops, SETUPS[name], counts, locks_max[0]
        )
        result.layers.update(layers.overhead(untraced.by_kind, phase.by_kind))
        result.check("span structure", checks.span_problems(inst.tracer))
        result.notes.append(f"spans={len(inst.tracer)}")
    result.ops = phase.ops
    result.elapsed_s = phase.elapsed

    if len(ends) < prefix:
        result.peak_rss_mb = peak_rss_mb()
    prefix_end = ends[prefix - 1] if len(ends) >= prefix else len(kernel.events)
    digest = hashlib.sha256()
    update_digest(digest, kernel.events[:prefix_end])
    result.notes.append(
        f"event_log_sha256[seed {seed}, warm-up + first {min(prefix, len(ends))} ops] = {digest.hexdigest()}"
    )
    result.notes.append(f"locks_held_max={locks_max[0]} ops_run={len(ends)}")

    result.check("published snapshots pass the build gate", checks.snapshots_buildable(kernel))
    result.check("replay_committed equals the live snapshot", checks.replay_matches(kernel))
    result.check("no two developers hold dependent elements", checks.locks_independent(kernel))
    result.tracer = inst.tracer if trace else None
    return result


# ---------------------------------------------------------------------------
# sweep


class _SweepChecks:
    """Checks each scenario as soon as it has run, outside the timed window,
    and keeps only digests, so memory does not grow with the scenarios run."""

    def __init__(self, seed: int, tally: Tally):
        self.seed = seed
        self.tally = tally
        self.problems: list[str] = []
        self.conflict_problems: list[str] = []
        self.dependent: list[str] = []
        self.first_trace: dict[int, str] = {}
        self.digest = hashlib.sha256()
        self.digested = 0
        self.kernel_counts: dict[str, int] = {}
        self.locks_max = 0

    def __call__(self, index: int, script, outcome, count: bool) -> None:
        kernel = outcome.results["ssd"].engine
        reverts = outcome.results["ssd"].metrics.conflicts
        self.tally.record(OK, 2 * len(script.actions) - reverts)
        if reverts:
            self.tally.record(REBASE_FAILURE, reverts)
        self.conflict_problems += checks.sweep_conflicts([outcome])
        if self.digested < PREFIX_OPS["sweep"]:
            update_digest(self.digest, kernel.events)
            self.digested += 1
        trace = hashlib.sha256("\n".join(outcome.trace_lines).encode()).hexdigest()
        seed_index = index % SWEEP_SEEDS
        if seed_index in self.first_trace:
            # the simulator is deterministic: a repeated scenario reproduces its trace
            if trace != self.first_trace[seed_index]:
                self.problems.append(f"{outcome.scenario}: repeated run differs")
        else:
            self.first_trace[seed_index] = trace
            self.problems += checks.snapshots_buildable(kernel)
            self.problems += checks.replay_matches(kernel)
            self.dependent += [f"{outcome.scenario}: {p}" for p in checks.locks_independent(kernel)]
        if count:
            for key, n in layers.kernel_counts(kernel.events).items():
                self.kernel_counts[key] = self.kernel_counts.get(key, 0) + n
            baseline = outcome.results["baseline"].metrics
            for key, n in (("merge_invocations", baseline.merge_invocations), ("baseline_conflicts", baseline.conflicts)):
                self.kernel_counts[key] = self.kernel_counts.get(key, 0) + n
            self.locks_max = max(self.locks_max, len(kernel.lock_holder))

    def report(self, result: Result) -> None:
        result.notes.append(
            f"event_log_sha256[seed {self.seed}, first {self.digested} scenarios] = {self.digest.hexdigest()}"
        )
        result.check(
            "sweep: zero kernel conflicts, conflicts_prevented equals baseline conflicts",
            self.conflict_problems,
        )
        result.check("every scenario: buildable snapshots, exact replay, reproducible", self.problems)
        # Reported, not gated: admission checks the reference index as it was
        # before the edit, so an edit that adds a reference to an element
        # another developer holds is granted. The kernel's tests accept this
        # and assert only that no element has two holders.
        result.notes.append(
            f"finding: {len(self.dependent)} scenario-end lock pairs of different developers are "
            f"dependent{': ' + '; '.join(self.dependent[:2]) if self.dependent else ''}"
        )


def _sweep_setup(script) -> None:
    """What run_scenario sets up before its first action: both models'
    engines with every developer registered."""
    kernel = synckernel.Kernel(script.project_text, script.config)
    repo = baseline.BaselineRepo(script.project_text)
    for dev in script.developers:
        kernel.register(dev)
        repo.register(dev)


def run_sweep(ssd, seed: int, seconds: float, trace: bool) -> Result:
    """Scenarios of the 100-seed sweep, each run in both models, in order and
    cycling, until the window closes. sweep_s is the time per 100 scenarios."""
    result = Result("sweep")
    seeds = sweep_inputs(seed)
    inst = Instruments(ssd, trace)
    scripts = []
    inst.install()
    for _ in range(SETUPS["sweep"]):
        t0 = time.perf_counter()
        with inst.request("setup"):
            scripts = [simbench.generate_scenario(s) for s in seeds]
            for script in scripts:
                _sweep_setup(script)
        result.setup_s.append(time.perf_counter() - t0)
    inst.remove()

    sweep = _SweepChecks(seed, result.tally)
    last: list = []
    counting = [False]

    def step(i: int) -> None:
        last[:] = [simbench.run_scenario(scripts[i % SWEEP_SEEDS], "both")]

    def after(i: int) -> None:
        script = scripts[i % SWEEP_SEEDS]
        sweep(i, script, last.pop(), counting[0])
        result.ops += 2 * len(script.actions)  # a scenario action runs once in each model
        if i + 1 == PREFIX_OPS["sweep"]:
            result.peak_rss_mb = peak_rss_mb()

    def scenario(i: int) -> str:
        return "scenario"

    if not trace:
        inst.install()
        phase = _Phase(seconds)
        phase.run(itertools.count(), step, scenario, after)
        inst.remove()
        result.samples = {
            "register": inst.timers.samples["register"],
            "edit": inst.timers.samples["request_edit"],
            "commit": inst.timers.samples["try_commit"],
            "sweep": [SWEEP_SEEDS * ms for ms in phase.by_kind["scenario"]],
        }
    else:
        # both halves start from the first scenario, so the overhead compares
        # the same scenarios
        untraced = _Phase(seconds / 2)
        untraced.run(itertools.count(), step, scenario, after)
        result.ops = 0
        inst.install()
        phase = _Phase(seconds / 2)

        def traced_step(i: int) -> None:
            with inst.tracer.request("scenario"):
                step(i)

        counting[0] = True
        phase.run(itertools.count(), traced_step, scenario, after)
        inst.remove()
        result.layers = layers.layer_metrics(
            inst.tracer, ("scenario",), result.ops, SETUPS["sweep"], sweep.kernel_counts, sweep.locks_max
        )
        common = min(untraced.ops, phase.ops)
        result.layers.update(
            layers.overhead(
                {"scenario": untraced.by_kind["scenario"][:common]},
                {"scenario": phase.by_kind["scenario"][:common]},
            )
        )
        result.check("span structure", checks.span_problems(inst.tracer))
        result.notes.append(f"spans={len(inst.tracer)}")
        result.tracer = inst.tracer
    if not result.peak_rss_mb:
        result.peak_rss_mb = peak_rss_mb()
    result.elapsed_s = phase.elapsed
    sweep.report(result)
    return result
