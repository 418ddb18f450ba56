#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the root of a checkout; the program is imported from its `src/`.
Workloads (see BENCHMARK.json and perfbench/README.md):

  commit-fanout         commits with rebase fan-out, 8 developers, ~1,020 elements
  admission-contention  admission against ~256 locks of 32 developers
  sweep                 the 100-seed simulator sweep, kernel and baseline
  wire                  `ssd serve` over TCP, 2 closed-loop connections

With --trace 0 the run reports end-to-end metrics; with --trace 1 it runs
half its window untraced and half traced and reports per-layer metrics,
including the tracing overhead, and writes its spans under .perfbench_out/.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 0 when every correctness check passed
and no operation failed, 1 when one did not, 2 when the program could not
be loaded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("commit-fanout", "admission-contention", "sweep", "wire")


def load_program():
    """Import `ssd` from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ssd
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(ssd.__file__).resolve().parent != (src / "ssd").resolve():
        print(f"error: imported ssd from {ssd.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return ssd


def _end_to_end(result, workload: str) -> tuple[dict, list[str]]:
    """The JSON metrics (every end-to-end metric of BENCHMARK.json) and the
    report lines, which add the metrics only some workloads produce."""
    from stats import Summary, p50, tail, tail_percentile
    from workloads import TAIL

    s = result.samples
    metrics = {
        "setup_s": Summary(statistics.median(result.setup_s), "s", len(result.setup_s)),
        "edit_tail_ms": tail(s["edit"], TAIL[(workload, "edit")]),
        "ops_per_s": Summary(result.ops / result.elapsed_s, "1/s", result.ops),
        "peak_rss_mb": Summary(result.peak_rss_mb, "MB", 1),
    }
    extra = {"edit_p50_ms": p50(s["edit"]), "register_p50_ms": p50(s["register"])}
    if s.get("commit"):
        extra["commit_p50_ms"] = p50(s["commit"])
        p = TAIL.get((workload, "commit"), tail_percentile(len(s["commit"])))
        extra["commit_tail_ms"] = tail(s["commit"], p) if p else None
    if "sweep" in s:
        extra["sweep_s"] = Summary(statistics.median(s["sweep"]) / 1000, "s", len(s["sweep"]))
    if workload == "wire":
        extra["wire_edit_p50_ms"] = extra["edit_p50_ms"]
        extra["wire_edit_tail_ms"] = metrics["edit_tail_ms"]
        extra["wire_read_p50_ms"] = p50(s["read"])
    lines = []
    for name, summary in {**metrics, **extra}.items():
        if summary is None:
            n = len(s["commit"])
            lines.append(f"{name} = n/a (n={n}: no percentile has ten samples beyond it)")
        else:
            lines.append(f"{name} = {summary.describe()}")
    lines.append(
        f"error_share = {result.tally.error_share:.4f} "
        f"({result.tally.failed} of {result.tally.attempted}; outcomes {result.tally.by_outcome})"
    )
    return {k: {"value": v.value, "unit": v.unit} for k, v in metrics.items()}, lines


def run_one(ssd, workload: str, seed: int, seconds: float, trace: bool) -> int:
    import layers
    import workloads

    OUT.mkdir(exist_ok=True)
    if workload == "wire":
        import wirebench

        result = wirebench.run_wire(ROOT, OUT, seed, seconds, trace)
    elif workload == "sweep":
        result = workloads.run_sweep(ssd, seed, seconds, trace)
    else:
        result = workloads.run_kernel_workload(ssd, workload, seed, seconds, trace)
    result.check("no operation failed", [f"{result.tally.failed} failed"] if result.tally.failed else [])

    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for note in result.notes:
        print(note)
    for name, ok, detail in result.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}{': ' + detail if detail else ''}")
    if trace:
        if result.tracer is not None:
            path = OUT / f"{workload}-seed{seed}-spans.jsonl.gz"
            result.tracer.dump(str(path))
            print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {
            name: {"value": result.layers[name], "unit": layers.UNITS[name]}
            for name, _, _ in layers.PER_LAYER
        }
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics, lines = _end_to_end(result, workload)
        for line in lines:
            print(line)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.tally.attempted,
                "failed": result.tally.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that peak memory is each workload's own
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status
    ssd = load_program()
    return run_one(ssd, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
