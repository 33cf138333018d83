"""Benchmark entry point: one workload, one seed, one fresh process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cel_mix --seed 1 --seconds 10 --trace 0

Workloads: ``cel_mix`` (calendar path), ``vt_query`` (query path) and
``cron_year`` (rule path plus persistence); see their modules.  Each is
driven by one client in a closed loop (the next request is sent when the
previous one returns) through the program's public API, and every output
is checked against an oracle computed outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics of
a traced run of a fixed number of requests (see ``layers.py``).  Lines
before the last one are for people: every metric with its
workload-specific name, its unit and its sample count, and the run's
stamp.  The last line is the JSON result.  Each run also appends its
stamped row to ``.perfbench_out/ledger.jsonl``, which ``compare.py``
reads.

The program is imported from ``src/`` of the checkout; with no program
there the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("cel_mix", "vt_query", "cron_year")
#: Fresh processes timed from start to ready for ``setup_s``.
SETUP_PROBES = 5
#: Calibration samples a set-up probe takes before and after set-up.
PROBE_CALIBRATION = 50
END_TO_END_UNITS = common.END_TO_END_UNITS


def load_workload(name: str, seed: int):
    module = __import__(name)
    return module.Workload(seed)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal modes (child processes and the self-test).
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-requests", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--plant", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child mode: set up, then report what the parent needs.

    Prints ``READY <untimed seconds>`` once set-up is done (the time spent
    on calibration samples and on generating the benchmark's inputs, which
    the parent subtracts), then ``CAL <median kernel seconds>`` over the
    calibration samples taken before and after set-up.
    """
    calibrator = common.Calibrator()
    t0 = perf_counter()
    for _ in range(PROBE_CALIBRATION):
        calibrator.sample()
    untimed = perf_counter() - t0
    common.import_program()
    workload = load_workload(args.workload, args.seed)
    t0 = perf_counter()
    workload.generate()
    untimed += perf_counter() - t0
    workload.setup()
    print(f"READY {untimed:.6f}", flush=True)
    for _ in range(PROBE_CALIBRATION):
        calibrator.sample()
    print(f"CAL {common.median(calibrator.costs):.9f}", flush=True)
    return 0


def _finish(child: subprocess.Popen, timeout: float) -> int:
    """Wait for a child; on timeout kill it, wait again and re-raise."""
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise


def _child(args, *extra: str) -> subprocess.Popen:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *extra]
    return subprocess.Popen(command, cwd=str(common.ROOT),
                            stdout=subprocess.PIPE, text=True)


def measure_setup(args) -> list[float]:
    """Calibrated process start to ready, once per fresh probe process."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        child = _child(args, "--setup-probe")
        try:
            ready_line = child.stdout.readline()
            ready = perf_counter()
            lines = child.stdout.read().split()
        finally:
            child.stdout.close()
            code = _finish(child, 120)
        if code != 0 or not ready_line.startswith("READY ") or \
                lines[:1] != ["CAL"]:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        raw = ready - t0 - float(ready_line.split()[1])
        out.append(raw * common.Calibrator.REFERENCE / float(lines[1]))
    return out


def untraced_busy(args, requests: int) -> float:
    """Busy seconds of the same request count in a fresh untraced process."""
    child = _child(args, "--trace", "0", "--max-requests", str(requests))
    try:
        output = child.stdout.read()
    finally:
        child.stdout.close()
        code = _finish(child, 170)
    if code != 0:
        raise RuntimeError(f"untraced reference run failed (exit {code})")
    for line in output.splitlines():
        if line.startswith("busy_s "):
            return float(line.split()[1])
    raise RuntimeError("untraced reference run reported no busy time")


def main(argv=None) -> int:
    args = parse_args(argv)
    removed = common.scrub_environment()
    if not args.setup_probe:
        cpu = common.pin_to_fastest_cpu()
    try:
        common.import_program()
    except (common.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    workload = load_workload(args.workload, args.seed)
    workload.generate()
    workload.setup()
    # Move the set-up data out of the cyclic collector's sight, as a
    # long-running server would: otherwise a full collection over the
    # loaded rows lands on whichever request happens to trigger it and
    # decides the tail latencies.
    gc.collect()
    gc.freeze()
    recorder = None
    if args.trace:
        import layers
        requests = args.max_requests or workload.trace_requests
        recorder, counters = layers.traced_run(workload, requests)
    else:
        workload.run(args.max_requests or
                     workload.requests_for(args.seconds))
    rss = common.peak_rss_mb()
    if args.max_requests is not None and not args.trace:
        # Untraced twin of a traced run: report the busy time only.
        print(f"busy_s {workload.busy_seconds():.6f}")
        return 0
    if args.plant:
        workload.plant()
    problems = workload.check()
    values, counts = workload.metrics()

    if args.trace:
        metrics, report = layers.per_layer(workload, recorder, counters,
                                           untraced_busy(args, requests))
        counts = {}
    else:
        setups = measure_setup(args)
        values["setup_s"] = common.median(setups)
        counts["setup_s"] = len(setups)
        values["peak_rss_mb"] = rss
        counts["peak_rss_mb"] = 1
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        report = None

    row = common.stamp(workload=workload.name, seed=args.seed,
                       seconds=args.seconds, trace=bool(args.trace),
                       removed_gates=removed, samples=counts,
                       extra=dict(workload.extra, cpu=cpu))
    row.update(correct=not problems, problems=problems[:20],
               attempted=workload.attempted(), failed=workload.failed(),
               metrics=metrics)
    if report is not None:
        row["trace_report"] = report
    print_human(workload, row)
    ledger = common.out_dir() / "ledger.jsonl"
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps({"correct": not problems,
                      "attempted": workload.attempted(),
                      "failed": workload.failed(),
                      "metrics": metrics}))
    return 0


def print_human(workload, row: dict) -> None:
    names = workload.METRIC_ALIASES
    print(f"== {row['workload']} seed={row['seed']} trace={int(row['trace'])}"
          f" correct={row['correct']} attempted={row['attempted']}"
          f" failed={row['failed']}")
    for name, metric in row["metrics"].items():
        alias = names.get(name)
        label = f"{name} ({alias})" if alias and alias != name else name
        n = row["samples"].get(name)
        tail = f"  n={n}" if n is not None else ""
        print(f"   {label:<46} {metric['value']:>14.6g} {metric['unit']}"
              f"{tail}")
    for problem in row["problems"]:
        print(f"   INCORRECT: {problem}")
    report = row.get("trace_report")
    if report:
        print(f"   coverage {report['coverage']:.3f}; uncovered layer: "
              f"{report['uncovered_layer'] or 'none (coverage >= 0.9)'}")
        print(f"   tracing overhead {report['overhead_s']:.3f} s "
              f"({report['overhead_ratio']:.1%} of untraced busy time)")
    stamp = {key: row[key] for key in ("commit", "source_digest", "python",
                                       "cpus", "gates_removed_from_environment")}
    print(f"   stamp {json.dumps(stamp, sort_keys=True)}")


if __name__ == "__main__":
    sys.exit(main())
