"""tools/bench_pairs.py, which runs the benchmark on two checkouts in pairs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(setup_s: float, throughput: float) -> str:
    """The last stdout line of a benchmark run, as perfbench/run.py prints it."""
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
    }
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics})


def test_table_gives_medians_quartiles_ratio_and_pairs_won():
    parent = [json.loads(result_line(s, t)) for s, t in [(4.0, 100.0), (2.0, 300.0), (3.0, 200.0)]]
    change = [json.loads(result_line(s, t)) for s, t in [(2.0, 150.0), (3.0, 250.0), (1.0, 200.0)]]
    better = {"setup_s": "lower", "throughput_per_s": "higher"}
    header, rule, setup, throughput = bench_pairs.table(parent, change, better)
    assert header.count("|") == rule.count("|") == setup.count("|") == 7
    # setup: parent 2, 3, 4 and change 1, 2, 3; the change is lower in pairs 1 and 3
    assert setup == "| setup_s | 3 | 3 [2.5, 3.5] | 2 [1.5, 2.5] | 0.667 | 2/3 |"
    # throughput: a tie is no win, so only pair 1 counts
    assert throughput.endswith("| 1.000 | 1/3 |")


def test_one_value_is_its_own_quartiles():
    assert bench_pairs.summary([0.5]) == "0.5 [0.5, 0.5]"


def test_a_checkout_against_itself_on_validate_wide():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "validate-wide"]
        + ["--pairs", "1", "--seconds", "0.3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    for layout in bench_pairs.LAYOUTS:
        for side in bench_pairs.SIDES:
            assert f"{layout} seed 1 {side}: # calibration: interpreter kernel" in out
        assert f"validate-wide, layout {layout}, --seconds 0.3:" in out
    rows = [line for line in out.splitlines() if line.startswith("| setup_s | 1 |")]
    assert len(rows) == 2 and all(row.endswith(("| 0/1 |", "| 1/1 |")) for row in rows)
    for name in bench_pairs.REPORTED:
        assert sum(line.startswith(f"| {name} | 1 |") for line in out.splitlines()) == 2


# report lines as perfbench/run.py prints them in an end-to-end run
REPORT = [
    "# rounds: 12 in 6.010 s",
    "# calibration: arrays kernel, last times [410, 400, 555, 420, 430] ns, reference 500 ns",
    "# setup_s: median of 12; wall-clock median 0.000731 s",
    "# throughput: median over 12 rounds of sequences per busy second, p90 5.1e+04, min 4.9e+04",
    "# latency: 300 samples of train; wall-clock p50 0.8123 ms, p90 0.95 ms",
]


def test_report_lines_give_the_kernel_and_wall_clock_rows():
    found = bench_pairs.reported(REPORT)
    # the kernel's row is the median of its last times
    assert found == {
        "calibration_kernel_ns": {"value": 420.0},
        "setup_wall_s": {"value": 0.000731},
        "latency_wall_ms_p50": {"value": 0.8123},
    }
    assert bench_pairs.reported(REPORT[:1]) == {}
    # a table row each, lower better; a metric some result lacks has no row
    parent = [{"metrics": dict(found, setup_s={"value": 2.0})}]
    change = [{"metrics": dict(bench_pairs.reported(REPORT[1:2]), setup_s={"value": 1.0})}]
    better = {"setup_s": "lower"} | dict.fromkeys(bench_pairs.REPORTED, "lower")
    rows = bench_pairs.table(parent, change, better)[2:]
    assert [row.split(" | ")[0] for row in rows] == ["| setup_s", "| calibration_kernel_ns"]
    kernel = "| calibration_kernel_ns | 1 | 420 [420, 420] | 420 [420, 420] | 1.000 | 0/1 |"
    assert rows[1] == kernel
