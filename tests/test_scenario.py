"""Scenario script parsing: headers, action grammar, expectation options."""

from pathlib import Path

import pytest

from ssd import editops
from ssd import scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

HEADER = """\
format: 1
project: demo.mj
developers: alice bob
"""


def parse(body: str, header: str = HEADER) -> scenario.ScenarioScript:
    return scenario.parse_scenario(header + body, project_text="")


def test_parses_the_shipped_walkthrough_script():
    script = scenario.load_scenario(SCENARIOS / "usecase.ssd")
    assert script.name == "usecase.ssd"
    assert script.project == "usecase.mj"
    assert script.developers == ["alice", "bob"]
    assert script.mode == "both"
    assert script.config.auto_commit is False
    assert len(script.actions) == 6

    rename = script.actions[2]
    assert (rename.vt, rename.dev, rename.verb) == (30, "alice", "rename_method")
    assert rename.target == "Demo.Foo"
    assert rename.args == {"new_name": "Foo2"}
    assert rename.expect == "denied"
    assert rename.retry == scenario.RetryPolicy("until_granted", 5, 40)

    commits = [a for a in script.actions if a.verb == "try_commit"]
    assert [(a.vt, a.dev) for a in commits] == [(50, "bob"), (80, "alice")]


def test_header_defaults():
    script = parse("")
    assert script.mode == "both"
    assert script.config.auto_commit is True
    assert script.config.lock_lease_ms == 0
    assert script.actions == []


def test_comments_and_blank_lines_are_skipped():
    script = parse(
        """
        # setup

        10 alice rename_method Demo.Foo new_name=Foo2  # trailing note
        """
    )
    assert len(script.actions) == 1
    assert script.actions[0].args == {"new_name": "Foo2"}


def test_quoted_statement_text_survives_shlex():
    script = parse('10 alice insert_statement Demo.Foo/body text="int x = 1 + 2;" at=0\n')
    action = script.actions[0]
    assert action.args == {"text": "int x = 1 + 2;", "at": 0}
    assert isinstance(action.args["at"], int)


def test_edit_actions_round_trip_into_requests():
    script = parse("10 bob add_param Demo.Foo type=int name=newParam\n")
    action = script.actions[0]
    assert action.is_edit
    request = action.request()
    assert isinstance(request, editops.EditRequest)
    assert request.kind == "add_param"
    assert request.target == "Demo.Foo"
    assert request.args == {"type": "int", "name": "newParam"}
    # mutating the request copy must not bleed back into the action
    request.args["type"] = "bool"
    assert action.args["type"] == "int"


def test_create_class_needs_no_target():
    script = parse("10 alice create_class name=Widget\n")
    assert script.actions[0].target is None


def test_control_verbs_parse_without_target():
    script = parse(
        "10 alice off_record\n"
        "20 alice on_record\n"
        "30 alice revert\n"
        "40 alice try_commit\n"
        "50 bob checkin\n"
    )
    assert [a.verb for a in script.actions] == [
        "off_record", "on_record", "revert", "try_commit", "checkin",
    ]
    assert all(not a.is_edit for a in script.actions)


def test_expect_error_allowed_on_controls():
    script = parse("10 alice try_commit expect=error:empty-overlay\n")
    assert script.actions[0].expect == "error:empty-overlay"


def test_virtual_time_may_interleave_across_developers():
    script = parse(
        "50 alice try_commit\n"
        "10 bob try_commit\n"  # earlier, but a different developer's clock
        "60 alice try_commit\n"
    )
    assert [(a.vt, a.dev) for a in script.actions] == [(50, "alice"), (10, "bob"), (60, "alice")]


@pytest.mark.parametrize(
    "header, message",
    [
        ("project: x.mj\ndevelopers: a\n", "format"),
        ("format: 2\nproject: x.mj\ndevelopers: a\n", "format"),
        ("format: 1\nproject: x.mj\n", "at least one developer"),
        ("format: 1\nproject: x.mj\ndevelopers: a a\n", "duplicate developer"),
        ("format: 1\nproject: x.mj\ndevelopers: a\nmode: fast\n", "mode must be"),
        ("format: 1\nproject: x.mj\ndevelopers: a\nauto_commit: yes\n", "auto_commit"),
        ("format: 1\nproject: x.mj\ndevelopers: a\nlock_lease_ms: soon\n", "integer"),
        ("format: 1\nproject: x.mj\ndevelopers: a\nlock_lease_ms: -5\n", ">= 0"),
        ("format: 1\nproject: x.mj\ndevelopers: a\ncolour: red\n", "unknown header"),
        ("format: 1\nformat: 1\nproject: x.mj\ndevelopers: a\n", "duplicate header"),
        ("format 1\nproject: x.mj\ndevelopers: a\n", "key: value"),
    ],
)
def test_rejected_headers(header, message):
    with pytest.raises(scenario.ScenarioError, match=message):
        scenario.parse_scenario(header, project_text="")


@pytest.mark.parametrize(
    "line, message",
    [
        ("10 alice", "expected 'VT DEV VERB"),
        # a non-digit start would read as a header line, so lead with an action
        ("10 alice revert\nsoon alice revert", "virtual time must be an integer"),
        ("10 alice revert\n-3 alice revert", "virtual time must be >= 0"),
        ("10 mallory revert", "undeclared developer"),
        ("10 alice refactor_everything", "unknown verb"),
        ("10 alice rename_method Demo.Foo shiny=yes", "bad option"),
        ("10 alice rename_method Demo.Foo new_name", "bad option"),
        ("10 alice rename_method", "requires a target"),
        ("10 alice try_commit Demo.Foo", "takes no target"),
        ("10 alice revert new_name=x", "takes no new_name="),
        ("10 alice rename_method Demo.Foo expect=maybe", "expect= must be"),
        ("10 alice try_commit expect=denied", "only applies to edits"),
        ("10 alice rename_method Demo.Foo new_name=x retry=forever", "retry= must be"),
        ("10 alice rename_method Demo.Foo new_name=x attempts=lots", "must be integers"),
        ("10 alice rename_method Demo.Foo new_name=x attempts=0", "attempts must be >= 1"),
        ("10 alice rename_method Demo.Foo new_name=x backoff=-1", "backoff >= 0"),
        ('10 alice insert_statement A.m/body text="int x', "quotation"),
        ('10 alice insert_statement Demo.Foo/body text="int x = 1;" at=abc', "at= must be an integer"),
    ],
)
def test_rejected_actions(line, message):
    with pytest.raises(scenario.ScenarioError, match=message):
        parse(line + "\n")


def test_error_messages_carry_the_line_number():
    text = HEADER + "10 alice try_commit\n20 alice bogus_verb\n"
    with pytest.raises(scenario.ScenarioError, match="line 5"):
        scenario.parse_scenario(text, project_text="")


def test_per_developer_time_must_not_go_backwards():
    with pytest.raises(scenario.ScenarioError, match="goes backwards for alice"):
        parse("50 alice try_commit\n40 alice revert\n")


def test_load_scenario_resolves_project_beside_script(tmp_path):
    (tmp_path / "demo.mj").write_text("class Demo {\n}\n")
    script_path = tmp_path / "demo.ssd"
    script_path.write_text(HEADER + "10 alice try_commit\n")
    script = scenario.load_scenario(script_path)
    assert script.name == "demo.ssd"
    assert script.project_text == "class Demo {\n}\n"


def test_load_scenario_requires_a_project_header(tmp_path):
    script_path = tmp_path / "broken.ssd"
    script_path.write_text("format: 1\ndevelopers: a\n10 a try_commit\n")
    with pytest.raises(scenario.ScenarioError, match="must name a project"):
        scenario.load_scenario(script_path)


def test_shipped_scenario_files_load():
    for name in ("usecase.ssd", "inevitable.ssd", "offrecord_off.ssd", "offrecord_on.ssd"):
        script = scenario.load_scenario(SCENARIOS / name)
        assert script.actions, name
        assert script.project_text, name


# --- the driver, over a scripted fake transport ---


class FakeTransport:
    """Answers attempts from a script of replies keyed by (line, attempt)
    and records every call the driver makes."""

    def __init__(self, replies):
        self.replies = replies
        self.calls = []
        self.notes = []

    def attempt(self, action, n, target):
        self.calls.append(("attempt", action.line, n, target))
        success = scenario.GRANTED if action.is_edit else scenario.DONE
        return self.replies.get((action.line, n), scenario.Reply(success))

    def wait_until(self, vt):
        self.calls.append(("wait", vt))

    def note(self, **payload):
        self.notes.append(payload)

    def drive(self, script):
        return scenario.drive(
            script.name, script.actions, self.attempt, self.wait_until, self.note
        )


DENIED_42 = scenario.Reply(scenario.DENIED, target=42)


def test_drive_retries_a_denial_until_granted_and_counts_blocked_time():
    script = parse(
        "10 alice rename_method Demo.Foo new_name=Foo2 expect=denied "
        "retry=until_granted attempts=5 backoff=40\n"
    )
    fake = FakeTransport({(4, 0): DENIED_42, (4, 1): DENIED_42})
    assert fake.drive(script) == 80  # denied at 10 and 50, granted at 90
    assert fake.calls == [
        ("wait", 10), ("attempt", 4, 0, "Demo.Foo"),
        ("wait", 50), ("attempt", 4, 1, 42),
        ("wait", 90), ("attempt", 4, 2, 42),
    ]
    assert fake.notes == []


def test_drive_retargets_each_retry_by_the_denied_element_id():
    script = parse(
        "10 alice rename_method Demo.Foo new_name=Foo2 retry=until_granted backoff=5\n"
    )
    fake = FakeTransport({(4, 0): DENIED_42, (4, 1): scenario.Reply(scenario.DENIED, target=7)})
    fake.drive(script)
    assert [c[3] for c in fake.calls if c[0] == "attempt"] == ["Demo.Foo", 42, 7]


def test_drive_gives_up_after_the_attempt_budget():
    script = parse(
        "10 alice rename_method Demo.Foo new_name=Foo2 retry=until_granted attempts=3 backoff=10\n"
    )
    fake = FakeTransport({(4, n): DENIED_42 for n in range(5)})
    assert fake.drive(script) == 0
    assert [c for c in fake.calls if c[0] == "wait"] == [("wait", 10), ("wait", 20), ("wait", 30)]
    assert fake.notes == [{"action": "gave_up", "dev": "alice", "line": 4, "attempts": 3}]


def test_drive_without_retry_records_the_denial_and_moves_on():
    script = parse("10 alice rename_method Demo.Foo new_name=Foo2\n20 alice try_commit\n")
    fake = FakeTransport({(4, 0): DENIED_42})
    assert fake.drive(script) == 0
    assert [c[1:3] for c in fake.calls if c[0] == "attempt"] == [(4, 0), (5, 0)]
    assert fake.notes == []


def test_drive_pending_retry_does_not_hold_back_later_actions():
    script = parse(
        "20 alice rename_method Demo.Foo new_name=Foo2 retry=until_granted backoff=60\n"
        "30 alice set_field_init Demo.x init=5\n"
        "50 bob try_commit\n"
    )
    fake = FakeTransport({(4, 0): DENIED_42})
    fake.drive(script)
    assert [c[1:3] for c in fake.calls if c[0] == "attempt"] == [(4, 0), (5, 0), (6, 0), (4, 1)]


def test_drive_ties_break_by_developer_then_line():
    script = parse("10 bob try_commit\n10 alice revert\n10 alice try_commit\n")
    fake = FakeTransport({})
    fake.drive(script)
    assert [c[1] for c in fake.calls if c[0] == "attempt"] == [5, 6, 4]


def test_drive_matches_an_expected_error_code():
    script = parse("10 alice try_commit expect=error:empty-overlay\n")
    fake = FakeTransport(
        {(4, 0): scenario.Reply(scenario.ERROR, code="empty-overlay", message="nothing")}
    )
    fake.drive(script)
    assert fake.notes == [
        {"action": "expected_error", "dev": "alice", "code": "empty-overlay", "line": 4}
    ]


def test_drive_rejects_a_different_error_code():
    script = parse("10 alice try_commit expect=error:empty-overlay\n")
    fake = FakeTransport(
        {(4, 0): scenario.Reply(scenario.ERROR, code="unbuildable", message="broken")}
    )
    with pytest.raises(scenario.ScenarioAssertionError) as exc:
        fake.drive(script)
    assert str(exc.value) == (
        "<inline> line 4 (alice try_commit): "
        "expected error:empty-overlay, got error:unbuildable (broken)"
    )


def test_drive_rejects_success_where_an_error_was_expected():
    script = parse("10 alice try_commit expect=error:empty-overlay\n")
    with pytest.raises(scenario.ScenarioAssertionError, match="got done$"):
        FakeTransport({}).drive(script)


def test_drive_rejects_a_grant_where_a_denial_was_expected():
    script = parse("10 alice rename_method Demo.Foo new_name=Bar expect=denied\n")
    with pytest.raises(scenario.ScenarioAssertionError) as exc:
        FakeTransport({}).drive(script)
    assert str(exc.value) == "<inline> line 4 (alice rename_method): expected denied, got granted"


def test_drive_notes_tolerated_errors_and_buffered_edits():
    script = parse(
        "10 alice rename_method Nope.x new_name=y\n20 bob add_param Demo.Foo type=int name=p\n"
    )
    fake = FakeTransport(
        {
            (4, 0): scenario.Reply(scenario.ERROR, code="unknown-element", message="no Nope"),
            (5, 0): scenario.Reply(scenario.BUFFERED, target=3, status="buildable"),
        }
    )
    fake.drive(script)
    assert fake.notes == [
        {
            "action": "error",
            "dev": "alice",
            "code": "unknown-element",
            "message": "no Nope",
            "line": 4,
        },
        {
            "action": "buffered",
            "dev": "bob",
            "kind": "add_param",
            "target": 3,
            "status": "buildable",
        },
    ]
