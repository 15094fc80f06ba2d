"""Paired benchmark runs of two checkouts, and the table that compares them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W[,W...] --pairs N --seconds S

For each workload W, in the order given, pair k (k = 1..N) runs
`perfbench/run.py --seed k --trace 0` once in each checkout, from that
checkout's root: the parent first when k is odd, the change first when
k is even. Every pair is run in two process layouts: as is, and with
one extra environment variable, read by nothing, in the child, which
moves where the interpreter's stack and early allocations land. Each
run's `# calibration:` line and, on the train workloads, its
`# train_epoch_s:` line are printed as they come. Then, per workload
and layout, a markdown table has one row per end-to-end metric of
PARENT's BENCHMARK.json, and three more read from each run's report
lines: the median of the calibration kernel's last times (ns), by which
the benchmark divides every time it reports, and the wall-clock setup
and latency p50 medians, which it does not divide. A metric that moves
with the kernel while the wall-clock times stay put points at the
process layout, not at the code. Each row gives the median [q1, q3] of
each side, the change/parent ratio of the medians and in how many pairs
the change was better.

Exits 1 when a run fails or reports a failed operation; the tables then
cover the pairs whose two runs both gave a result. Stdlib only; the
benchmark is run, never imported.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
LAYOUTS = {"as-is": {}, "extra-env": {"BENCH_PAIRS_UNUSED": "1"}}
ECHOED = ("# calibration:", "# train_epoch_s:")
# the rows read from a run's report lines, and the value each line holds:
# lower is better for all three
REPORTED = {
    "calibration_kernel_ns": re.compile(r"# calibration: .*last times \[([^\]]*)\] ns"),
    "setup_wall_s": re.compile(r"# setup_s: .*wall-clock median (\S+) s"),
    "latency_wall_ms_p50": re.compile(r"# latency: .*wall-clock p50 (\S+) ms"),
}


def directions(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric of `checkout`'s benchmark: "lower" or "higher" is better."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def reported(lines: list[str]) -> dict[str, dict]:
    """The REPORTED metrics of a run's stdout lines, each as {"value": the
    median of the numbers its line holds}."""
    found = {}
    for line in lines:
        for name, pattern in REPORTED.items():
            match = pattern.match(line)
            if match:
                found[name] = {"value": statistics.median(map(float, match[1].split(",")))}
    return found


def workload_names(text: str) -> list[str]:
    """The workloads of `--workload`: one name, or several joined by commas."""
    names = text.split(",")
    if not all(names):
        raise argparse.ArgumentTypeError(f"an empty workload name in {text!r}")
    return names


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict):
    """One benchmark run in `checkout`: its result object, or None when it
    gave none, and the lines to echo."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        command, cwd=checkout, env=dict(os.environ, **env), capture_output=True, text=True
    )
    lines = proc.stdout.splitlines()
    echoed = [line for line in lines if line.startswith(ECHOED)]
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is not None:
        result["metrics"].update(reported(lines))
    if result is None:
        tail = proc.stderr.splitlines()[-3:]
        echoed += [f"run failed ({proc.returncode}): {line}" for line in tail]
    return result, echoed


def summary(values: list[float]) -> str:
    """`median [q1, q3]`."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def table(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    """Markdown rows, one per metric of `better` that every result object
    holds, over the result objects of the pairs, parent[k] against
    change[k]."""
    lines = [
        "| metric | pairs | parent median [q1, q3] | change median [q1, q3] "
        "| change/parent | change better |",
        "|---|---|---|---|---|---|",
    ]
    for name, direction in better.items():
        if any(name not in result["metrics"] for result in parent + change):
            continue
        old = [result["metrics"][name]["value"] for result in parent]
        new = [result["metrics"][name]["value"] for result in change]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        ratio = statistics.median(new) / statistics.median(old)
        n = len(old)
        lines.append(f"| {name} | {n} | {summary(old)} | {summary(new)} | {ratio:.3f} | {won}/{n} |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, type=workload_names)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    better = directions(args.parent) | dict.fromkeys(REPORTED, "lower")
    checkouts = {"parent": args.parent, "change": args.change}
    # results[workload, layout][k] maps each side to the result of its run in pair k
    results = {(workload, layout): [] for workload in args.workload for layout in LAYOUTS}
    failed = False
    for workload, seed in ((w, k) for w in args.workload for k in range(1, args.pairs + 1)):
        for layout, env in LAYOUTS.items():
            pair = {}
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result, echoed = run_once(checkouts[side], workload, seed, args.seconds, env)
                tag = f"{workload} {layout} seed {seed} {side}"
                for line in echoed:
                    print(f"{tag}: {line}", flush=True)
                if result is None or result["failed"] > 0:
                    failed = True
                    print(f"{tag}: FAILED", flush=True)
                if result is not None:
                    pair[side] = result
            if len(pair) == 2:
                results[workload, layout].append(pair)
    for (workload, layout), pairs in results.items():
        print(f"\n{workload}, layout {layout}, --seconds {args.seconds:g}:\n")
        if pairs:
            print("\n".join(table(*([pair[side] for pair in pairs] for side in SIDES), better)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
