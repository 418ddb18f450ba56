"""Command-line front end.

Subcommands:
  serve        run the coordination server on a TCP port
  client       replay one developer's script lines against a server
  sim run      drive a scenario through the simulator (ssd, baseline, both)
  sim compare  run both models and print the side-by-side table
  check        parse and build-gate a source file
  deps         list elements dependent on one element of a source file

Exit codes: 0 success, 1 failed assertion or unbuildable input, 2 usage,
3 I/O or protocol failure.
"""

from __future__ import annotations

import argparse
import sys

from . import depcore
from . import minilang as ml
from . import netwire
from . import semantics
from .scenario import ScenarioAssertionError, ScenarioError, load_scenario
from .simbench import run_scenario
from .synckernel import KernelConfig

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _split_endpoint(value: str, parser: argparse.ArgumentParser) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        parser.error(f"expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        parser.error(f"bad port in {value!r}")


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _print_errors(errors, out) -> None:
    for err in errors:
        out.write(f"ERROR {err.code} {err.span.line}:{err.span.col} {err.message}\n")


def cmd_check(args, parser) -> int:
    try:
        text = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    unit, diags = ml.parse_unit(ml.SourceText(text, args.file))
    if unit is None:
        _print_errors(diags, sys.stdout)
        return EXIT_FAILURE
    # reference sites bind to element ids, so the tree must carry them for
    # call and assignment checks to run
    depcore.annotate(unit, depcore.IdAllocator())
    result = semantics.build_gate(unit, version_checked=args.file)
    _print_errors(result.report.errors, sys.stdout)
    return EXIT_OK if result.report.buildable else EXIT_FAILURE


def cmd_deps(args, parser) -> int:
    try:
        text = _read_file(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    unit, diags = ml.parse_unit(ml.SourceText(text, args.file))
    if unit is None:
        _print_errors(diags, sys.stderr)
        return EXIT_FAILURE
    depcore.annotate(unit, depcore.IdAllocator())
    table = depcore.build_element_table(unit)
    index = depcore.build_ref_index([depcore.ref_edges(unit)])
    try:
        eid = table.resolve_qname(args.element)
    except depcore.UnknownElementError:
        print(f"error: no element named {args.element!r}", file=sys.stderr)
        return EXIT_USAGE
    for qname in sorted(table.qname(dep) for dep in depcore.dependents_of(eid, index, table)):
        print(qname)
    return EXIT_OK


def _load_config(path: str | None) -> KernelConfig:
    if path is None:
        return KernelConfig()
    return KernelConfig.parse(_read_file(path))


def cmd_serve(args, parser) -> int:
    host, port = _split_endpoint(args.listen, parser)
    try:
        project_text = _read_file(args.project)
        config = _load_config(args.config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        server = netwire.WireServer(
            project_text, config, host=host, port=port, session_log=args.session_log
        )
    except ValueError as exc:  # initial project fails the gate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return EXIT_IO
    netwire.serve_until_interrupted(server)
    return EXIT_OK


def cmd_client(args, parser) -> int:
    host, port = _split_endpoint(args.connect, parser)
    try:
        script = load_scenario(args.script)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.dev not in script.developers:
        print(
            f"error: {args.dev!r} is not a developer of this scenario "
            f"(have: {', '.join(script.developers)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        netwire.client_session(
            host, port, args.dev, script, time_scale_ms=args.time_scale, out=sys.stdout
        )
    except (netwire.ClientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _run_sim(args, parser, mode: str | None) -> int:
    try:
        script = load_scenario(args.scenario)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = run_scenario(script, mode)
    try:
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as handle:
                for line in outcome.trace_lines:
                    handle.write(line + "\n")
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                for line in outcome.report_lines():
                    handle.write(line + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(outcome.table())
    return EXIT_OK


def cmd_sim_run(args, parser) -> int:
    return _run_sim(args, parser, args.mode)


def cmd_sim_compare(args, parser) -> int:
    return _run_sim(args, parser, "both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssd", description="synchronized development kernel tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the coordination server")
    serve.add_argument("--listen", default=f"127.0.0.1:{netwire.DEFAULT_PORT}")
    serve.add_argument("--project", required=True, help="initial source file")
    serve.add_argument("--config", default=None, help="kernel config file")
    serve.add_argument("--session-log", default=None, help="write kernel events here")
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser("client", help="replay a developer's script against a server")
    client.add_argument("--connect", default=f"127.0.0.1:{netwire.DEFAULT_PORT}")
    client.add_argument("--dev", required=True)
    client.add_argument("--script", required=True, help="scenario file")
    client.add_argument(
        "--time-scale",
        type=float,
        default=10.0,
        help="wall milliseconds per virtual time unit (default 10)",
    )
    client.set_defaults(func=cmd_client)

    sim = sub.add_parser("sim", help="deterministic simulator")
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser("run", help="run a scenario")
    sim_run.add_argument("scenario")
    sim_run.add_argument("--mode", choices=("ssd", "baseline", "both"), default=None)
    sim_run.add_argument("--trace", default=None, help="write the event trace here")
    sim_run.add_argument("--report", default=None, help="write key=value metrics here")
    sim_run.set_defaults(func=cmd_sim_run)
    sim_cmp = sim_sub.add_parser("compare", help="run both models and compare")
    sim_cmp.add_argument("scenario")
    sim_cmp.add_argument("--trace", default=None)
    sim_cmp.add_argument("--report", default=None)
    sim_cmp.set_defaults(func=cmd_sim_compare)

    check = sub.add_parser("check", help="parse and build-gate a source file")
    check.add_argument("file")
    check.set_defaults(func=cmd_check)

    deps = sub.add_parser("deps", help="list dependents of an element")
    deps.add_argument("file")
    deps.add_argument("--element", required=True, help="qualified name, e.g. Demo.Foo")
    deps.set_defaults(func=cmd_deps)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ScenarioAssertionError as exc:  # a scenario's expect= failed, in sim or client
        print(f"assertion failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
