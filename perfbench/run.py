#!/usr/bin/env python3
"""relapprox benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload mc-bernoulli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root; the library is imported from ./src.  With
`--trace 0` the last line of standard output is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the
per-layer metrics, from a traced run that also reports its own overhead
against an untraced run of the same operations.  The lines before it are a
human-readable report.  The exit code is non-zero when any operation failed
or any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONSTANTS = os.path.join(ROOT, "constants.json")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("mc-bernoulli", "halving-implicit", "chain-materialized")

# The gated timings are CPU time of this process (all its threads), not wall
# time: on a shared virtual machine the hypervisor takes the CPUs away for a
# share of the time that changes from one run to the next (steal time, 0-30%
# within minutes on a 2-vCPU guest), which moved wall times of the same code
# by up to 65% between runs.  CPU time leaves steal out; it still moves with
# the contention for caches and memory bandwidth that comes with it.
# Wall-clock figures are printed in the report lines above the result.
#
# setup_s is the median over this process and fresh ones, SETUP_REPEATS in
# all, of the CPU seconds from the start of the process through setting the
# workload up once.  Counting start-up and the import shows work moved into
# import time too, and keeps the figure well above timer resolution on a
# workload whose family is never materialized.
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it
# A run times at least this many rounds, even past --seconds: the chain
# workload's passes take seconds each, and its median needs several.
MIN_ROUNDS = 6


def tail(values: list[float]) -> tuple[float, str]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples above it,
    with its label; the maximum when there are too few samples for one."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of {n}"
    k = n - TAIL_BEYOND - 1
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of {n}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        path = os.path.join(base, entry)
        try:
            with open(os.path.join(path, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(path, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(path, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(path, "shared_cpu_list")) as fh:
                shared = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = f"{size} shared by cpus {shared}"
    return out


def import_library():
    """Import relapprox from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "relapprox", "__init__.py")):
        raise SystemExit(f"error: no relapprox sources under {SRC}")
    if not os.path.isfile(CONSTANTS):
        raise SystemExit(f"error: no calibrated constants at {CONSTANTS}")
    sys.path.insert(0, SRC)
    import relapprox

    if not os.path.abspath(relapprox.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: relapprox imported from {relapprox.__file__}, not {SRC}")


class Run:
    """One workload in this process: set-up, warm-up, timed rounds, checks.

    A round issues one operation in each of the workload's modes, in order;
    its latency, the sum of theirs, is the unit of the end-to-end timings, so
    a workload alternating between a fast and a slow mode still has a
    unimodal latency distribution.  Every operation is timed twice: wall
    time and the process's CPU time.
    """

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.group = len(workload.modes)
        self.attempted = 0
        self.failed_ops: set = set()
        self.problems: list[str] = []
        self.op_latency: dict[int, float] = {}  # wall seconds, untraced operations only
        self.op_cpu: dict[int, float] = {}  # CPU seconds, untraced operations only

    def set_up(self) -> float:
        started = time.perf_counter()
        if self.tracer is not None:
            self.tracer.run_op("setup", self.wl.setup)
        else:
            self.wl.setup()
        return time.perf_counter() - started

    def attempt(self, i: int, traced: bool = False):
        """Issue operation i; returns (wall seconds, CPU seconds, output or
        None).  Untraced outputs are checked outside the timed region."""
        self.attempted += 1
        started, started_cpu = time.perf_counter(), time.process_time()
        try:
            if traced:
                out = self.tracer.run_op(f"op-{i}", self.wl.op, i)
            else:
                out = self.wl.op(i)
        except self.wl.errors as exc:
            elapsed, cpu = time.perf_counter() - started, time.process_time() - started_cpu
            self.failed_ops.add(i)
            self.problems.append(f"{self.wl.op_name} {i}: {type(exc).__name__}: {exc}")
            return elapsed, cpu, None
        elapsed, cpu = time.perf_counter() - started, time.process_time() - started_cpu
        if not traced:
            self.op_latency[i] = elapsed
            self.op_cpu[i] = cpu
            found = self.wl.check(i, out)
            if found:
                self.failed_ops.add(i)
                self.problems.extend(found)
        return elapsed, cpu, out

    def round(self, r: int, traced: bool = False):
        """Round r: wall and CPU seconds, and the outputs of its operations
        in mode order."""
        results = [self.attempt(i, traced) for i in range(r * self.group, (r + 1) * self.group)]
        return (sum(wall for wall, _, _ in results), sum(cpu for _, cpu, _ in results),
                [out for _, _, out in results])

    def warm_up(self) -> None:
        for i in range(-self.group, 0):
            self.attempt(i)

    def final_checks(self, outputs) -> None:
        for i, found in self.wl.final_checks(outputs, self.op_latency).items():
            self.failed_ops.add(i)
            self.problems.extend(found)

    def mode_lines(self, p50_name: str, tail_name: str, scale: float, unit: str,
                   cpu: bool = False) -> list[str]:
        """Median and tail of single operations' wall (or CPU) time, per mode."""
        lines = []
        source = self.op_cpu if cpu else self.op_latency
        for m, mode in enumerate(self.wl.modes):
            lat = [v for i, v in source.items() if i >= 0 and i % self.group == m]
            tail_v, label = tail(lat)
            tag = f"[{mode}]" if self.group > 1 else ""
            lines.append(f"{p50_name}{tag}".ljust(40) + f"{scale * statistics.median(lat):>14.6g} {unit}")
            lines.append(f"{tail_name}{tag} [{label}]".ljust(40) + f"{scale * tail_v:>14.6g} {unit}")
        return lines


def load_workload(args):
    """Import the library and build the workload object: the start of set-up."""
    import_library()
    import workloads
    from relapprox.sampling import load_constants

    return workloads.make(args.workload, args.seed, load_constants(CONSTANTS))


def setup_only(args) -> int:
    """Import the library and set the workload up once; print the CPU seconds
    since the process started, and the wall seconds of import and set-up."""
    started = time.perf_counter()
    load_workload(args).setup()
    print(json.dumps({"setup_s": time.process_time(), "wall_s": time.perf_counter() - started}))
    return 0


def child_setup_times(args, count: int) -> list[tuple[float, float]]:
    """(CPU, wall) set-up seconds of `count` fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.splitlines()[-1])
        times.append((out["setup_s"], out["wall_s"]))
    return times


def end_to_end(run: Run, args, import_s: float) -> tuple[dict, list[str]]:
    wl = run.wl
    setup_wall = import_s + run.set_up()
    setups = [(time.process_time(), setup_wall)] + child_setup_times(args, SETUP_REPEATS - 1)
    run.warm_up()
    rounds, rounds_cpu, units, outputs, busy, busy_cpu = [], [], 0, {}, 0.0, 0.0
    while busy < args.seconds or len(rounds) < MIN_ROUNDS:
        r = len(rounds)
        latency, cpu, outs = run.round(r)
        rounds.append(latency)
        rounds_cpu.append(cpu)
        busy += latency
        busy_cpu += cpu
        for k, out in enumerate(outs):
            if out is not None:
                units += wl.units(out)
                if wl.keep_outputs:
                    outputs[r * run.group + k] = out
    run.final_checks(outputs)

    tail_s, tail_label = tail(rounds)
    tail_cpu, _ = tail(rounds_cpu)
    metrics = {
        "op_cpu_p50_ms": (1e3 * statistics.median(rounds_cpu), "ms"),
        "op_cpu_tail_ms": (1e3 * tail_cpu, "ms"),
        "work_per_cpu_s": (units / busy_cpu, "1/s"),
        "setup_s": (statistics.median(cpu for cpu, _ in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = ["wall-clock figures (not gated: they move with the host's steal time)",
             wl.rate_name.ljust(40) + f"{units / busy:>14.6g} 1/s"]
    if wl.name == "chain-materialized":
        lines += run.mode_lines("pipeline_s", "pipeline_tail_s", 1.0, "s")
    else:
        lines += run.mode_lines(f"{wl.op_name}_p50_ms", f"{wl.op_name}_tail_ms", 1e3, "ms")
    lines += [
        f"round ({' + '.join(wl.modes)}) p50".ljust(40) + f"{1e3 * statistics.median(rounds):>14.6g} ms",
        f"round tail [{tail_label}]".ljust(40) + f"{1e3 * tail_s:>14.6g} ms",
        f"setup wall s [median of {len(setups)} processes]".ljust(40)
        + f"{statistics.median(wall for _, wall in setups):>14.6g} s",
        "CPU-time figures (the gated metrics)",
        f"{wl.rate_name} per CPU second".ljust(40) + f"{metrics['work_per_cpu_s'][0]:>14.6g} 1/s",
    ]
    if wl.name == "chain-materialized":
        lines += run.mode_lines("pipeline_cpu_s", "pipeline_cpu_tail_s", 1.0, "s", cpu=True)
    else:
        lines += run.mode_lines(f"{wl.op_name}_cpu_p50_ms", f"{wl.op_name}_cpu_tail_ms", 1e3, "ms",
                                cpu=True)
    lines += [
        "round cpu p50".ljust(40) + f"{metrics['op_cpu_p50_ms'][0]:>14.6g} ms",
        f"round cpu tail [{tail_label}]".ljust(40) + f"{metrics['op_cpu_tail_ms'][0]:>14.6g} ms",
        f"setup_s [median of {len(setups)} processes]".ljust(40) + f"{metrics['setup_s'][0]:>14.6g} s",
        "peak_rss_mb".ljust(40) + f"{metrics['peak_rss_mb'][0]:>14.6g} MB",
        "error_rate".ljust(40) + f"{len(run.failed_ops) / run.attempted:>14.6g} "
        f"({len(run.failed_ops)} of {run.attempted} operations)",
        "timed".ljust(40) + f"{len(rounds) * run.group:>14d} x {wl.op_name} "
        f"in {busy:.3f} s wall, {busy_cpu:.3f} s CPU ({units} x {wl.unit_name})",
    ]
    return metrics, lines


def traced(run: Run, args) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced rounds.  Each traced round follows an
    untraced run of the same operations; the median ratio of their CPU times,
    minus one, is the tracing overhead."""
    import tracing

    tracer = run.tracer
    tracer.install()
    try:
        run.set_up()
    finally:
        tracer.uninstall()
    run.warm_up()
    untraced_s, ratios = 0.0, []
    while untraced_s < args.seconds / 2:
        r = len(ratios)
        plain, plain_cpu, _ = run.round(r)
        tracer.install()
        try:
            _, with_spans_cpu, _ = run.round(r, traced=True)
        finally:
            tracer.uninstall()
        untraced_s += plain
        ratios.append(with_spans_cpu / plain_cpu)
    ops = len(ratios) * run.group

    op_spans = [s for s in tracer.spans if s.op is not None and s.op.startswith("op-")]
    setup_spans = [s for s in tracer.spans if s.op == "setup"]
    values = tracing.per_layer_metrics(op_spans, ops, setup_spans)
    values["trace.overhead_share"] = statistics.median(ratios) - 1.0
    bad = tracing.pool_span_violations(tracer)
    if bad:
        run.failed_ops.add("trace")
        run.problems.append(f"{bad} pool-thread spans lack their cell's id")

    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"spans-{run.wl.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)

    metrics = {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
    pool = sum(1 for s in tracer.spans if s.thread != tracer.main_thread)
    lines = [name.ljust(40) + f"{value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [
        f"traced operations ({run.wl.op_name})".ljust(40) + f"{ops:>14d}",
        "spans recorded in pool threads".ljust(40) + f"{pool:>14d}"
        + (" (each carries its cell's id)" if not bad else f" ({bad} without their cell's id)"),
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, lines


def run_one(args) -> int:
    started = time.perf_counter()
    wl = load_workload(args)
    import_s = time.perf_counter() - started
    import tracing

    run = Run(wl, tracing.Tracer() if args.trace else None)
    print(f"# relapprox benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    if args.trace:
        metrics, lines = traced(run, args)
    else:
        metrics, lines = end_to_end(run, args, import_s)
    for line in lines:
        print(line)
    for key, value in wl.info().items():
        print(f"info {key} = {value}")
    for level, desc in cache_sizes().items():
        print(f"info cache {level} = {desc}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    failed = len(run.failed_ops)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
