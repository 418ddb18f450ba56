"""Scenario scripts: timed multi-developer action lists driving the
simulator and the network client, and the one driver both of them run.

A script is a versioned text file: header lines (`key: value`), then one
action per line:

    VIRTUAL_TIME_MS  DEVELOPER  VERB  [TARGET]  [key=value ...]

Verbs are the semantic edit kinds plus try_commit / checkin (synonyms,
mapped to the model being run), revert, off_record, on_record. Targets are
qualified names; `expect=denied` / `expect=error:CODE` assert an outcome,
`retry=until_granted attempts=N backoff=MS` encodes a developer who waits.
The full grammar lives in docs/scenarios.md.

`drive` owns those expectation and retry semantics; a transport supplies
only how to attempt one action and how to wait for a virtual instant.
"""

from __future__ import annotations

import heapq
import shlex
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import editops
from .synckernel import OFF_RECORD, ON_RECORD, KernelConfig

FORMAT_VERSION = 1

MODES = ("ssd", "baseline", "both")

CONTROL_VERBS = frozenset(["try_commit", "checkin", "revert", "off_record", "on_record"])
VERBS = CONTROL_VERBS | editops.EDIT_KINDS
MODE_BY_VERB = {"off_record": OFF_RECORD, "on_record": ON_RECORD}

# which option keys each edit kind forwards into EditRequest.args
_INT_ARGS = frozenset(["at"])
_EDIT_ARG_KEYS = frozenset(["name", "new_name", "type", "ret", "init", "text", "at", "slot"])
_OPTION_KEYS = _EDIT_ARG_KEYS | {"expect", "retry", "attempts", "backoff"}

# header keys that set the kernel config, validated by KernelConfig
_CONFIG_KEYS = tuple(f.name for f in fields(KernelConfig))

# edit kinds whose target is a container path / omitted entirely
_NO_TARGET = frozenset(["create_class"])


class ScenarioError(ValueError):
    """Malformed scenario file; message carries the line number."""


class ScenarioAssertionError(AssertionError):
    """An expect= assertion failed; the message carries the mismatch."""


@dataclass(frozen=True)
class RetryPolicy:
    kind: str = "fail"  # "fail" | "until_granted"
    attempts: int = 10
    backoff_ms: int = 10


@dataclass(frozen=True)
class Action:
    line: int
    vt: int
    dev: str
    verb: str
    target: str | None
    args: dict
    expect: str | None  # None | "denied" | "error:CODE"
    retry: RetryPolicy

    @property
    def is_edit(self) -> bool:
        return self.verb in editops.EDIT_KINDS

    def request(self) -> editops.EditRequest:
        return editops.EditRequest(self.verb, self.target, dict(self.args))


@dataclass
class ScenarioScript:
    name: str
    project: str  # path as written in the header
    project_text: str
    developers: list[str]
    mode: str
    config: KernelConfig
    actions: list[Action] = field(default_factory=list)


def _parse_action(line_no: int, line: str, developers: list[str]) -> Action:
    try:
        tokens = shlex.split(line, comments=True)
    except ValueError as exc:
        raise ScenarioError(f"line {line_no}: {exc}") from None
    if len(tokens) < 3:
        raise ScenarioError(f"line {line_no}: expected 'VT DEV VERB ...'")
    try:
        vt = int(tokens[0])
    except ValueError:
        raise ScenarioError(f"line {line_no}: virtual time must be an integer, got {tokens[0]!r}") from None
    if vt < 0:
        raise ScenarioError(f"line {line_no}: virtual time must be >= 0")
    dev, verb = tokens[1], tokens[2]
    if dev not in developers:
        raise ScenarioError(f"line {line_no}: undeclared developer {dev!r}")
    if verb not in VERBS:
        raise ScenarioError(f"line {line_no}: unknown verb {verb!r}")
    rest = tokens[3:]
    target: str | None = None
    if rest and "=" not in rest[0]:
        target = rest[0]
        rest = rest[1:]
    options: dict[str, str] = {}
    for token in rest:
        key, sep, value = token.partition("=")
        if not sep or key not in _OPTION_KEYS:
            raise ScenarioError(f"line {line_no}: bad option {token!r}")
        options[key] = value

    if verb in editops.EDIT_KINDS:
        if verb not in _NO_TARGET and target is None:
            raise ScenarioError(f"line {line_no}: {verb} requires a target")
    else:
        if target is not None:
            raise ScenarioError(f"line {line_no}: {verb} takes no target")
        for key in options:
            if key in _EDIT_ARG_KEYS:
                raise ScenarioError(f"line {line_no}: {verb} takes no {key}=")

    args: dict = {}
    for key in _EDIT_ARG_KEYS & options.keys():
        args[key] = options[key]
        if key in _INT_ARGS:
            try:
                args[key] = int(options[key])
            except ValueError:
                raise ScenarioError(f"line {line_no}: {key}= must be an integer") from None

    expect = options.get("expect")
    if expect is not None and expect != "denied" and not expect.startswith("error:"):
        raise ScenarioError(f"line {line_no}: expect= must be 'denied' or 'error:CODE'")
    if expect is not None and verb not in editops.EDIT_KINDS and expect == "denied":
        raise ScenarioError(f"line {line_no}: expect=denied only applies to edits")

    retry_kind = options.get("retry", "fail")
    if retry_kind not in ("fail", "until_granted"):
        raise ScenarioError(f"line {line_no}: retry= must be 'fail' or 'until_granted'")
    try:
        policy = RetryPolicy(
            retry_kind,
            int(options.get("attempts", "10")),
            int(options.get("backoff", "10")),
        )
    except ValueError:
        raise ScenarioError(f"line {line_no}: attempts=/backoff= must be integers") from None
    if policy.attempts < 1 or policy.backoff_ms < 0:
        raise ScenarioError(f"line {line_no}: attempts must be >= 1 and backoff >= 0")
    return Action(line_no, vt, dev, verb, target, args, expect, policy)


def parse_scenario(text: str, name: str = "<inline>", project_text: str | None = None) -> ScenarioScript:
    """Parse a script. `project_text` overrides loading the project file (used
    for in-memory scenarios); otherwise call load_scenario to resolve it."""
    header: dict[str, str] = {}
    actions: list[Action] = []
    developers: list[str] = []
    in_header = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_header and not line[0].isdigit():
            key, sep, value = (p.strip() for p in line.partition(":"))
            if not sep or not value:
                raise ScenarioError(f"line {line_no}: expected 'key: value' header")
            if key in header:
                raise ScenarioError(f"line {line_no}: duplicate header {key!r}")
            header[key] = value
            continue
        if in_header:
            in_header = False
            developers, config = _check_header(header)
        actions.append(_parse_action(line_no, line, developers))
    if in_header:
        developers, config = _check_header(header)

    last_vt: dict[str, int] = {}
    for action in actions:
        if action.vt < last_vt.get(action.dev, 0):
            raise ScenarioError(
                f"line {action.line}: virtual time goes backwards for {action.dev}"
            )
        last_vt[action.dev] = action.vt

    return ScenarioScript(
        name,
        header.get("project", ""),
        project_text if project_text is not None else "",
        developers,
        header.get("mode", "both"),
        config,
        actions,
    )


def _check_header(header: dict[str, str]) -> tuple[list[str], KernelConfig]:
    """Validate the header; return its developers and kernel config."""
    developers = header.get("developers", "").split()
    if header.get("format") != str(FORMAT_VERSION):
        raise ScenarioError(f"missing or unsupported 'format:' header (expected {FORMAT_VERSION})")
    if not developers:
        raise ScenarioError("header must declare at least one developer")
    if len(set(developers)) != len(developers):
        raise ScenarioError("duplicate developer names in header")
    mode = header.get("mode", "both")
    if mode not in MODES:
        raise ScenarioError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    config_keys = [key for key in _CONFIG_KEYS if key in header]
    try:
        config = KernelConfig(**{key: KernelConfig.parse_value(key, header[key]) for key in config_keys})
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    unknown = set(header) - {"format", "project", "developers", "mode", *_CONFIG_KEYS}
    if unknown:
        raise ScenarioError(f"unknown header keys: {', '.join(sorted(unknown))}")
    return developers, config


def load_scenario(path: str | Path) -> ScenarioScript:
    """Load a script file; the project file is resolved relative to it."""
    path = Path(path)
    script = parse_scenario(path.read_text(), name=path.name)
    if not script.project:
        raise ScenarioError(f"{path}: header must name a project file")
    project_path = path.parent / script.project
    script.project_text = project_path.read_text()
    return script


# ---------------------------------------------------------------------------
# Driver

GRANTED = "granted"
DENIED = "denied"
BUFFERED = "buffered"
DONE = "done"
ERROR = "error"


@dataclass(frozen=True)
class Reply:
    """What one attempt of an action came to, whatever the transport."""

    kind: str  # GRANTED | DENIED | BUFFERED | DONE | ERROR
    target: int | str | None = None  # denied: element id to retry; buffered: op target
    status: str = ""  # buffered: the private gate verdict
    code: str = ""  # error
    message: str = ""

    def __str__(self) -> str:
        return f"error:{self.code} ({self.message})" if self.kind == ERROR else self.kind


def _meets_expectation(action: Action, n: int, reply: Reply) -> bool:
    if action.expect is None:
        return True
    if action.expect == "denied":
        # only the first attempt is asserted; a retry may be granted
        return reply.kind == DENIED or (n > 0 and reply.kind == GRANTED)
    return action.expect == f"error:{reply.code}" and reply.kind == ERROR


def drive(
    name: str,
    actions: list[Action],
    attempt: Callable[[Action, int, object], Reply],
    wait_until: Callable[[int], None],
    note: Callable[..., None],
) -> int:
    """Run actions in (virtual time, developer, line) order, applying their
    expect= and retry= options; returns the blocked virtual ms.

    `attempt(action, n, target)` performs attempt n (0 first) of an action
    against `target`; `wait_until(vt)` is called before each attempt. A
    denied edit with retry=until_granted falls due again `backoff` virtual
    ms after the denial, re-targeted by the element id the denial names, and
    does not hold back its developer's later actions. `note(**payload)`
    records expected_error, error, gave_up and buffered outcomes. Raises
    ScenarioAssertionError on a violated expectation.
    """
    heap = [(a.vt, a.dev, a.line, 0, a.target) for a in actions]
    heapq.heapify(heap)
    by_line = {a.line: a for a in actions}
    blocked = 0
    while heap:
        vt, dev, line, n, target = heapq.heappop(heap)
        action = by_line[line]
        wait_until(vt)
        reply = attempt(action, n, target)
        if not _meets_expectation(action, n, reply):
            raise ScenarioAssertionError(
                f"{name} line {line} ({dev} {action.verb}): "
                f"expected {action.expect}, got {reply}"
            )
        if reply.kind == ERROR:
            if action.expect is None:
                note(action="error", dev=dev, code=reply.code, message=reply.message, line=line)
            else:
                note(action="expected_error", dev=dev, code=reply.code, line=line)
        elif reply.kind == BUFFERED:
            note(
                action="buffered", dev=dev, kind=action.verb, target=reply.target, status=reply.status
            )
        elif reply.kind == GRANTED and n > 0:
            blocked += vt - action.vt
        elif reply.kind == DENIED and action.retry.kind == "until_granted":
            if n + 1 < action.retry.attempts:
                due = vt + action.retry.backoff_ms
                heapq.heappush(heap, (due, dev, line, n + 1, reply.target))
            else:
                note(action="gave_up", dev=dev, line=line, attempts=n + 1)
    return blocked
