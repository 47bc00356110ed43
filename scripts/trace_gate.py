#!/usr/bin/env python3
"""Gates a traced sweepbench run: pinned counts and observability budgets.

Run from the repository root:

    python3 sweepbench/run.py --workload sweep_exact --seed 1 --seconds 1 --trace 1 > trace.txt
    python3 scripts/trace_gate.py trace.txt

With no argument the run's output is read from stdin. Only the last
non-empty line is used: the benchmark's JSON result. The exit code is 0
when the run was correct, every pinned count equals its value exactly,
and both overhead budgets hold; otherwise 1, naming each failure.

The counts do not depend on the seed or the host. Only a change that
alters the model's behaviour may move them, and it must say why.
"""

import json
import sys

# Counts of the traced sweep_exact run, compared with ==.
PINNED = {
    "sim.cpu.instructions": 77029,
    "sim.cpu.cycles": 24183403,
    "mem.bank_wait_cycles": 89140,
    "mem.refresh_wait_cycles": 513280,
    "mem.contention_wait_cycles": 1773816,
    "sim.fastfwd.probes": 61940,
    "sim.fastfwd.warps": 7,
    "sim.machine.slowdown": 1.4367372672569936,
    "bench.coordinate.redispatch": 0,
    "bench.coordinate.restarts": 0,
}

# Host-timed overheads, each with its upper bound.
BUDGETS = {
    # A counting probe may cost at most half again over no probe; a real
    # regression in the monomorphized probe plumbing shows up as 2-10x.
    "obs.probe_overhead_frac": 0.50,
    # One span opened and closed, drained every 1000 spans.
    "obs.span_ns": 2000.0,
}


def failures(result):
    """Every way `result` misses the gate, as one message each."""
    if result.get("correct") is not True:
        yield f"correct is {result.get('correct')!r}, not true"
    metrics = result.get("metrics", {})

    def value(name):
        return metrics.get(name, {}).get("value")

    for name, want in PINNED.items():
        got = value(name)
        if got != want:
            yield f"{name} is {got!r}, pinned at {want!r}"
    for name, limit in BUDGETS.items():
        got = value(name)
        if not isinstance(got, (int, float)) or not got <= limit:
            yield f"{name} is {got!r}, over its budget of {limit!r}"


def main():
    text = open(sys.argv[1]).read() if len(sys.argv) > 1 else sys.stdin.read()
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        print(f"trace_gate: no JSON result line: {e}", file=sys.stderr)
        return 1
    failed = list(failures(result))
    for message in failed:
        print(f"trace_gate: {message}", file=sys.stderr)
    if failed:
        return 1
    print(f"trace_gate: {len(PINNED)} pinned counts match, {len(BUDGETS)} budgets hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
