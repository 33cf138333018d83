"""Shared plumbing of the benchmark: paths, environment, timing, stamps.

Every workload module (``cel_mix``, ``vt_query``, ``cron_year``) builds
on the helpers here so that all three measure, summarise and stamp their
results the same way.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: Program sources, imported from the checkout itself (no install step).
SRC = ROOT / "src"
#: Scratch output of runs (saved databases, traces, the ledger).
OUT = ROOT / ".perfbench_out"

#: Every environment gate the program reads.  The benchmark removes them
#: all before importing the program, so each run measures the defaults.
GATES = ("REPRO_COLUMNAR", "REPRO_MATCACHE", "REPRO_MATCACHE_SIZE",
         "REPRO_OPTIMIZE", "REPRO_PERIODIC", "REPRO_PROFILE",
         "REPRO_SLOWLOG_SECONDS", "REPRO_TELEMETRY_PORT", "REPRO_TRACE",
         "REPRO_VECTOR_DB", "REPRO_WHEEL", "REPRO_WORKERS")


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` variable; returns the names removed."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    return repro


def out_dir(*parts: str) -> Path:
    """A directory under the run output root, created on demand."""
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- summaries -----------------------------------------------------------------

def quantile(values, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss, MiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        kib /= 1024
    return kib / 1024.0


def _kernel() -> int:
    """A fixed slice of pure-Python work (dicts, tuples, strings, sorting)."""
    table: dict = {}
    acc = 0
    for i in range(400):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    ranked = sorted(table.items(), key=lambda kv: kv[1])
    kept = [x for x in range(300) if x % 3]
    return acc + len(ranked) + bisect.bisect(kept, 150)


class Calibrator:
    """Host speed, sampled through the run with a fixed reference kernel.

    Shared hosts switch between a fast and a slow state (up to 2x apart,
    in wall and CPU time alike) from one second to the next, which would
    swamp any change to the program.  Right before each request (never
    inside a timed one), and right after a long one, the kernel is timed
    once.  A request's *local cost* is the median kernel time within
    :attr:`WINDOW` seconds of it (at least :attr:`NEAREST` samples), and
    its time is reported scaled by ``REFERENCE / local cost``: seconds on
    a host where the kernel takes :attr:`REFERENCE` seconds (its fast
    state on the 2-CPU host the benchmark was built on).  The raw sums are
    kept in the ledger.
    """

    REFERENCE = 0.00013
    PERIOD = 0.005
    WINDOW = 0.05
    NEAREST = 5

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        _kernel()
        now = perf_counter()
        self.times.append(now)
        self.costs.append(now - t0)
        self._due = now + self.PERIOD

    def tick(self) -> None:
        """Sample when one is due; call between requests."""
        if perf_counter() >= self._due:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE over the local kernel time around ``[start, end]``."""
        times = self.times
        lo = bisect.bisect_left(times, start - self.WINDOW)
        hi = bisect.bisect_right(times, end + self.WINDOW)
        while hi - lo < self.NEAREST and (lo > 0 or hi < len(times)):
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        return self.REFERENCE / statistics.median(self.costs[lo:hi])

    def speed(self) -> float:
        """The run's median factor (for the ledger)."""
        return self.REFERENCE / statistics.median(self.costs)


def pin_to_fastest_cpu(probe_seconds: float = 0.1) -> int | None:
    """Pin this process (and the children it starts) to one CPU.

    The kernel and the requests it calibrates must run on the same CPU,
    and the CPUs of a shared host differ in speed; the fastest one, by
    the kernel, is taken.  Returns the CPU, or None where affinity is not
    supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    best, best_cost = None, None
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        costs = []
        end = perf_counter() + probe_seconds
        while perf_counter() < end:
            t0 = perf_counter()
            _kernel()
            costs.append(perf_counter() - t0)
        cost = statistics.median(costs)
        if best_cost is None or cost < best_cost:
            best, best_cost = cpu, cost
    os.sched_setaffinity(0, {best})
    return best


class Samples:
    """Named request timings of one run, scaled by the host calibration."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.spans: dict[str, list[tuple[float, float]]] = {}

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.setdefault(name, []).append((start, end))
        if end - start > Calibrator.PERIOD:
            self.calibrator.sample()

    def get(self, name: str) -> list[float]:
        """Calibrated seconds of every request named ``name``."""
        factor = self.calibrator.factor
        return [(end - start) * factor(start, end)
                for start, end in self.spans.get(name, ())]

    def raw_total(self, name: str) -> float:
        return sum(end - start for start, end in self.spans.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.spans.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.get(name))

    def ms(self, name: str, q: float) -> float:
        return quantile(self.get(name), q) * 1000.0


# -- stamps --------------------------------------------------------------------

def commit_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None.

    Read from ``.git`` directly: no git process is started.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-1 over every program source file, so a run names its code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(*, workload: str, seed: int, seconds: float, trace: bool,
          removed_gates: list[str], samples: dict,
          extra: dict | None = None) -> dict:
    """The ledger row header of one run (the ROADMAP ledger schema)."""
    row = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "gates": {name: "default" for name in GATES},
        "gates_removed_from_environment": removed_gates,
        "samples": samples,
    }
    if extra:
        row.update(extra)
    return row


# -- persistence round trips ---------------------------------------------------

def call(samples: Samples, name: str, recorder, root: str, fn, *args,
         **kwargs):
    """One timed request: ``(result, typed error or None)``.

    Calibrates first when a sample is due, so the kernel never runs inside
    a timed request.  With a recorder the request is also the root span.
    """
    from repro.errors import ReproError
    samples.calibrator.tick()
    result = error = None
    start = perf_counter()
    try:
        if recorder is None:
            result = fn(*args, **kwargs)
        else:
            with recorder.request(root):
                result = fn(*args, **kwargs)
    except ReproError as exc:
        error = exc
    samples.add(name, start, perf_counter())
    return result, error


def persist_round_trips(workload, recorder, rounds: int, verify=None):
    """Save the session database and load it back ``rounds`` times.

    Timed as ``save`` (:func:`save_database`) and ``load``
    (:func:`load_database` plus ``Session.attach_database`` at the current
    clock) samples; the last loaded database stays attached.  Returns the
    saved file size and the problems ``verify`` (called untimed with each
    loaded database) reports.
    """
    from repro.db.persist import load_database, save_database
    session = workload.session
    path = out_dir("db") / f"{workload.name}-{os.getpid()}.json"
    problems: list[str] = []
    size = 0

    def load():
        loaded = load_database(str(path))
        session.attach_database(loaded, clock_start=session.clock.now)
        return loaded

    try:
        for _ in range(rounds):
            # Databases dropped by the previous round sit in reference
            # cycles; free them untimed so peak memory does not depend
            # on when the collector last ran.
            gc.collect()
            _r, error = call(workload.samples, "save", recorder,
                             "request.save", save_database, session.db,
                             str(path))
            size = path.stat().st_size
            loaded, error2 = call(workload.samples, "load", recorder,
                                  "request.load", load)
            for exc in (error, error2):
                if exc is not None:
                    problems.append(f"persistence: {exc!r}")
            if verify is not None and loaded is not None:
                problems.extend(verify(loaded))
    finally:
        if path.exists():
            path.unlink()
    return size, problems


# -- the shared shape of a workload --------------------------------------------

#: The end-to-end metrics every workload reports, with their units.
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s",
    "primary_p50_ms": "ms", "primary_p90_ms": "ms",
    "secondary_p50_ms": "ms", "secondary_p90_ms": "ms",
    "save_s": "s", "load_s": "s",
}


class Workload:
    """What ``run.py`` drives; each workload module subclasses it.

    A subclass names the samples behind the role metrics (``PRIMARY`` and
    ``SECONDARY``), sets ``RATE`` (requests per second on the reference
    host: ``--seconds`` fixes the amount of work, ``RATE × seconds``
    requests, so a seed always means the same requests) and
    ``trace_requests`` (the fixed length of the traced run), and
    implements ``generate``, ``setup``, ``run``, ``check``, ``plant``,
    ``throughput``, ``attempted``, ``failed`` and ``user_bytes``.
    """

    name = ""
    PRIMARY = ""
    SECONDARY = ""
    RATE = 1.0
    trace_requests = 1
    #: The workload-specific name of each role metric, for the printout.
    METRIC_ALIASES: dict = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.calibrator = Calibrator()
        self.samples = Samples(self.calibrator)
        self.persist_bytes = 0
        self.persist_problems: list[str] = []
        self.extra: dict = {}

    def requests_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.RATE))

    def busy_seconds(self) -> float:
        return sum(self.samples.total(name) for name in self.samples.spans)

    def rules_counts(self) -> dict:
        return {}

    def metrics(self) -> tuple[dict, dict]:
        """Role metric values and their sample counts."""
        s = self.samples
        count, seconds = self.throughput()
        self.extra["calibration"] = {
            "samples": len(self.calibrator.costs),
            "median_speed_factor": self.calibrator.speed(),
            "raw_busy_s": sum(s.raw_total(n) for n in s.spans),
            "calibrated_busy_s": self.busy_seconds()}
        values = {
            "throughput_per_s": count / seconds,
            "primary_p50_ms": s.ms(self.PRIMARY, 0.5),
            "primary_p90_ms": s.ms(self.PRIMARY, 0.9),
            "secondary_p50_ms": s.ms(self.SECONDARY, 0.5),
            "secondary_p90_ms": s.ms(self.SECONDARY, 0.9),
            "save_s": median(s.get("save")),
            "load_s": median(s.get("load")),
        }
        counts = {
            "throughput_per_s": count,
            "primary_p50_ms": s.count(self.PRIMARY),
            "primary_p90_ms": s.count(self.PRIMARY),
            "secondary_p50_ms": s.count(self.SECONDARY),
            "secondary_p90_ms": s.count(self.SECONDARY),
            "save_s": s.count("save"), "load_s": s.count("load"),
        }
        return values, counts
