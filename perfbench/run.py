"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; symfa is imported from its ``src``.
Inputs come from the seed alone and are written under ``.bench_work/``,
which is removed at exit. One process, one thread, BLAS pinned to one
thread. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced pass. The last stdout line is one
JSON object: correct, attempted, failed, metrics. Metric definitions are
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import gc
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("infer-cli-accept", "infer-cli-tag", "train-wide", "train-long", "validate-wide")

# a traced run times this share of --seconds untraced, then as many rounds traced
TRACE_UNTRACED_SHARE = 1 / 3
TRACE_MIN_ROUNDS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_alloc_mb", "MiB"),
]


def import_symfa():
    """Import symfa from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import symfa
    except ImportError as exc:
        raise SystemExit(f"error: cannot import symfa from {SRC}: {exc}") from None
    if not Path(symfa.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: symfa was imported from {symfa.__file__}, not from {SRC}")
    return symfa


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symfa").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".sfa"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loop": "closed, one caller",
    }


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def interpreter_kernel() -> float:
    """Interpreter loops and tiny numpy calls, like symfa's per-record paths."""
    import numpy as np

    table = {}
    total = 0
    for i in range(3000):
        table[i & 63] = i
        total += table[i & 63] * 3
    a = np.arange(48.0)
    for _ in range(60):
        a = a * 0.5 + 1.0
    return total + float(a.sum())


def array_kernel(buffer) -> float:
    """In-place arithmetic on 80,000 floats, like symfa's wide batches."""
    import numpy as np

    for _ in range(12):
        np.multiply(buffer, 0.5, out=buffer)
        np.add(buffer, 1.0, out=buffer)
    return float(buffer[0])


# kernel, and its median time in ns on the reference machine (a shared
# 2-core x86 VM at 2.1 GHz, while its neighbours are busy)
KERNELS = {"interpreter": (interpreter_kernel, 700_000), "arrays": (array_kernel, 460_000)}


class Speed:
    """Machine speed, from a calibration kernel run before every operation.

    On a shared host the same work takes up to 2x longer while neighbours
    are busy, in phases of a second to minutes, and interpreter-bound code
    slows more than array arithmetic. Dividing each operation's time by
    the recent times of a kernel of the same kind cancels most of that;
    multiplying by the kernel's reference time gives the time the
    operation would take on the reference machine.
    """

    def __init__(self, kernel: str):
        import numpy as np

        self.kernel, self.reference_ns = KERNELS[kernel]
        if self.kernel is array_kernel:
            self.kernel = functools.partial(array_kernel, np.ones(80_000))
        self.recent = deque(maxlen=5)

    def sample(self) -> None:
        start = time.perf_counter_ns()
        self.kernel()
        self.recent.append(time.perf_counter_ns() - start)

    def scale(self, ns: int) -> float:
        return ns * self.reference_ns / statistics.median(self.recent)


def run_op(op, tally, what: str) -> int:
    """Time one operation, verify its output outside the timer; returns ns."""
    # a failing operation or check is counted, not fatal
    start = time.perf_counter_ns()
    try:
        out = op.run()
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    if error is None:
        try:
            error = None if op.verify(out) else "wrong output"
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    tally.record(error is None, f"{what}: {error}")
    return elapsed


def run_round(ops, tally, speed: Speed, samples=None, tracer=None) -> float:
    """One round of operations; returns its busy time in reference ns.

    `samples[kind]` gets (reference ns, wall ns, items) per operation.
    """
    busy = 0.0
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op += 1
        speed.sample()
        elapsed = run_op(op, tally, f"op {k}")
        scaled = speed.scale(elapsed)
        busy += scaled
        if samples is not None:
            for kind in op.kinds:
                samples[kind].append((scaled, elapsed, op.items))
    return busy


def end_to_end(wl, seconds: float, tally, report) -> dict:
    gc.collect()
    tracemalloc.start()
    try:
        for op in wl.peak_ops():
            run_op(op, tally, "peak-memory pass")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    ops = wl.round()
    speed = Speed(wl.kernel)
    samples = {"setup": [], "throughput": [], "latency": []}
    rates = []  # throughput of each round
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        first = len(samples["throughput"])
        run_round(ops, tally, speed, samples)
        done = samples["throughput"][first:]
        rates.append(sum(items for _, _, items in done) / (sum(ns for ns, _, _ in done) / 1e9))

    def times(kind: str, scale: float, wall: bool = False) -> list[float]:
        return [(raw if wall else ns) / scale for ns, raw, _ in samples[kind]]

    latency_ms = times("latency", 1e6)
    setups = times("setup", 1e9)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(rates),
        "latency_ms_p50": statistics.median(latency_ms),
        "latency_ms_p90": p90(latency_ms),
        "peak_alloc_mb": peak / 2**20,
    }
    wall_ms = times("latency", 1e6, wall=True)
    report(f"rounds: {len(rates)} in {time.perf_counter() - started:.3f} s")
    report(
        f"calibration: {wl.kernel} kernel, last times {sorted(speed.recent)} ns, "
        f"reference {speed.reference_ns} ns"
    )
    report(f"setup_s: median of {len(setups)}; wall-clock median {statistics.median(times('setup', 1e9, wall=True)):.6g} s")
    report(
        f"throughput: median over {len(rates)} rounds of {wl.item}s per busy second, "
        f"p90 {p90(rates):.6g}, min {min(rates):.6g}"
    )
    report(
        f"latency: {len(latency_ms)} samples of {wl.latency_op}; "
        f"wall-clock p50 {statistics.median(wall_ms):.6g} ms, p90 {p90(wall_ms):.6g} ms"
    )
    if hasattr(wl, "epochs"):
        epoch_s = [t / wl.epochs for t in times("throughput", 1e9)]
        report(
            f"train_epoch_s: p50 {statistics.median(epoch_s):.6f} p90 {p90(epoch_s):.6f} "
            f"(n={len(epoch_s)} train calls of {wl.epochs} epochs, {wl.n_seq} sequences)"
        )
    return metrics


def per_layer(wl, seconds: float, tally, report, spans_path: Path) -> dict:
    from layers import TARGETS, layer_metrics
    from spans import Tracer, lookups, patched, span_records

    ops = wl.round()
    speed = Speed(wl.kernel)
    untraced = []
    started = time.perf_counter()
    while len(untraced) < TRACE_MIN_ROUNDS or time.perf_counter() - started < seconds * TRACE_UNTRACED_SHARE:
        untraced.append(run_round(ops, tally, speed))

    tracer = Tracer()
    before = lookups(TARGETS)
    traced = []
    with patched(tracer, TARGETS):
        for _ in untraced:
            traced.append(run_round(ops, tally, speed, tracer=tracer))
    tally.record(
        all(now is then for now, then in zip(lookups(TARGETS), before)),
        "tracing wrappers were not restored",
    )
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    report(
        f"trace: {len(traced)} rounds, {len(tracer.spans)} spans, round p50 untraced "
        f"{statistics.median(untraced) / 1e9:.6f} s, traced {statistics.median(traced) / 1e9:.6f} s"
    )
    spans_path.parent.mkdir(exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump(span_records(tracer.spans), fh)
    report(f"spans written to {spans_path.relative_to(ROOT)}")
    return layer_metrics(tracer.spans, len(traced), wl.minibatches, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    import_symfa()
    import numpy as np

    from layers import PER_LAYER
    from workloads import WORKLOADS, Tally

    def report(line: str) -> None:
        print(f"# {line}", flush=True)

    report("meta " + json.dumps(metadata(args, np), sort_keys=True))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        wl = WORKLOADS[args.workload](work, args.seed)
        report(f"inputs generated in {time.perf_counter() - started:.3f} s under {work.relative_to(ROOT)}")
        tally = Tally()
        started = time.perf_counter()
        wl.check(tally)
        report(f"checks and reference outputs in {time.perf_counter() - started:.3f} s")
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
            values = per_layer(wl, args.seconds, tally, report, spans_path)
            units = PER_LAYER
        else:
            values = end_to_end(wl, args.seconds, tally, report)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, unit in units:
        report(f"{name} = {values[name]:.6g} {unit}")
    report(f"failed_frac = {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    for note in tally.notes:
        report(f"FAILED: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
